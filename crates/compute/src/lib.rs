//! # ppc-compute — the compute substrate
//!
//! Models what EC2, Azure Compute, and the paper's bare-metal clusters give
//! the frameworks: *machines with cores, clocks, memory, and a price*.
//!
//! * [`instance`] — the instance-type catalog. Reproduces the paper's
//!   Table 1 (EC2: Large, Extra-Large, High-CPU-XL, High-Memory-4XL) and
//!   Table 2 (Azure: Small..Extra-Large), plus the bare-metal nodes used for
//!   the Hadoop and DryadLINQ baselines.
//! * [`billing`] — hourly cloud billing ("Compute Cost" bills whole hours,
//!   "Amortized Cost" bills the used fraction — §3 of the paper) and the
//!   owned-cluster TCO model behind Table 4's 60/70/80%-utilization rows.
//! * [`cluster`] — a provisioned fleet: N instances of a type, W workers
//!   per instance, as the experiments configure them (e.g. "HCXL – 2 × 8").

pub mod billing;
pub mod cluster;
pub mod instance;
pub mod model;

pub use billing::{CostBreakdown, FleetLedger, OwnedClusterCost};
pub use cluster::{Cluster, Node};
pub use instance::{InstanceType, OsPlatform, Provider};
pub use model::{task_service_seconds, AppModel};

//! # ppc-dryad — a DryadLINQ-like DAG execution engine
//!
//! Stands in for Microsoft Dryad/DryadLINQ as the paper used them (§2.3):
//!
//! > "Dryad applications are expressed as directed acyclic data-flow graphs
//! > (DAG), where vertices represent computations and edges represent
//! > communication channels ... data for the computations need to be
//! > partitioned manually and stored beforehand in the local disks of the
//! > computational nodes ... The DryadLINQ implementation of the framework
//! > uses the DryadLINQ 'select' operator on the data partitions to perform
//! > the distributed computations."
//!
//! The defining behavioural difference from Hadoop/Classic Cloud — and the
//! one the paper measures — is **static task partitioning at the node
//! level**, giving "suboptimal load balancing" (Table 3) on inhomogeneous
//! data.
//!
//! * [`graph`] — explicit DAGs with cycle detection and topological stages.
//! * [`partition`] — static partitioners and the partition manifest files
//!   the paper had to generate.
//! * [`linq`] — `DVec<T>`, a partitioned collection with `select`, `where`,
//!   `apply`, executed one vertex per partition.
//! * [`runtime`] — the native homomorphic-apply job runner (the paper's
//!   "select over data partitions" pattern) on real threads.
//! * [`sim`] — the discrete-event model for paper-scale runs.
//!
//! Both runtimes are reached through exactly two entry points driven by a
//! [`ppc_exec::RunContext`]: [`run`] (native) and [`simulate`]
//! (discrete-event). [`DryadEngine`] exposes the same pair behind the
//! paradigm-generic [`ppc_exec::Engine`] trait.

pub mod engine;
pub mod graph;
pub mod harness;
pub mod linq;
pub mod partition;
pub mod runtime;
pub mod sim;

pub use engine::DryadEngine;
pub use graph::Graph;
pub use harness::{run, simulate};
pub use linq::DVec;
pub use partition::partition_round_robin;
pub use runtime::{DryadConfig, DryadReport, JobOutputs};
pub use sim::DryadSimConfig;

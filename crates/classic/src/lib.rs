//! # ppc-classic — the Classic Cloud processing model
//!
//! The paper's Figure 1 architecture, built from cloud infrastructure
//! services exactly as §2.1.3 describes:
//!
//! > "The Classic Cloud processing model follows a task processing pipeline
//! > approach with independent workers. ... The client populates the
//! > scheduling queue with tasks, while the worker-processes running in
//! > cloud instances pick tasks from the scheduling queue. The configurable
//! > visibility timeout feature ... is used to provide a simple fault
//! > tolerance capability to the system. The workers delete the task
//! > (message) in the queue only after the completion of the task."
//!
//! Two runtimes share one [`spec::JobSpec`] vocabulary, and both are
//! reached through exactly two entry points driven by a
//! [`ppc_exec::RunContext`]:
//!
//! * [`run`] — the **native** runtime ([`runtime`]): real worker threads
//!   polling a real `ppc-queue` queue, moving real bytes through
//!   `ppc-storage`, and running real application kernels. Used by
//!   examples, tests, and the fault-tolerance studies (the context's
//!   fault schedule kills workers at each pipeline point).
//! * [`simulate`] — the **simulated** runtime ([`sim`]): the same pipeline
//!   modeled on the `ppc-des` engine in virtual time, used for the
//!   paper-scale experiments (hundreds of cores, hour-scale billing).
//!
//! The context's fleet plan picks the shape (single cluster, hybrid
//! fleets, elastic autoscaled fleet), and the context alone carries the
//! run's seed, fault schedule, tracing and resilience policy; the
//! per-runtime configs hold platform dials only. [`ClassicEngine`]
//! exposes the same pair behind the paradigm-generic
//! [`ppc_exec::Engine`] trait.

mod elastic;
pub mod engine;
pub mod harness;
pub mod history;
pub mod report;
pub mod runtime;
pub mod sim;
pub mod spec;

pub use engine::ClassicEngine;
pub use harness::{run, simulate};
pub use history::{record, runs_of, RunRecord};
pub use report::{ClassicReport, FleetReport};
pub use runtime::{run_sequential, ClassicConfig};
pub use sim::{sequential_baseline_seconds, SimConfig};
pub use spec::JobSpec;

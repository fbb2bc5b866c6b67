//! # ppc-mapreduce — a Hadoop-like MapReduce runtime
//!
//! Reproduces the properties of Apache Hadoop the paper leans on (§2.2):
//!
//! * **HDFS storage** — inputs live in `ppc-hdfs` with replicated blocks.
//! * **Data-locality scheduling** — "Hadoop optimizes the data communication
//!   of MapReduce jobs by scheduling computations near the data using the
//!   data locality information provided by the HDFS file system."
//! * **Global-queue dynamic scheduling** — "a master node with many client
//!   workers approach ... a global queue for the task scheduling, achieving
//!   natural load balancing among the tasks."
//! * **Speculative execution & retries** — "Hadoop performs duplicate
//!   execution of slower executing tasks and handles task failures by
//!   rerunning of the failed tasks."
//! * **File-oriented inputs** — the paper's custom `InputFormat` /
//!   `RecordReader` that hand the *file name* and *HDFS path* to the map
//!   function (instead of file contents) so legacy executables can be
//!   wrapped; every [`MapReduceJob`] reads its inputs that way.
//!
//! Jobs are map-only, as all three paper applications are; Twister-style
//! **iterative MapReduce** ([`iterative`] — the paper's §8 future work)
//! runs its reduce on `ppc-workflow`'s fixed-point loop. Two runtimes
//! share the [`scheduler::Scheduler`] — a locality-aware queue over the shared
//! [`ppc_resilience::AttemptLedger`], which owns attempt state, retries
//! and speculation — and both are reached through exactly two entry
//! points driven by a [`ppc_exec::RunContext`]:
//!
//! * [`run`] — the native runtime ([`runtime`]): real threads against a
//!   real `MiniHdfs`.
//! * [`simulate`] — the simulated runtime ([`sim`]): paper-scale clusters
//!   on the `ppc-des` engine.
//!
//! [`HadoopEngine`] exposes the same pair behind the paradigm-generic
//! [`ppc_exec::Engine`] trait.

pub mod engine;
pub mod harness;
pub mod input;
pub mod iterative;
pub mod job;
pub mod report;
pub mod runtime;
pub mod scheduler;
pub mod sim;

pub use engine::HadoopEngine;
pub use harness::{run, simulate};
pub use input::InputSplit;
pub use iterative::cache_splits;
pub use job::{ExecutableMapper, MapContext, MapReduceJob, Mapper};
pub use report::MapReduceReport;
pub use runtime::HadoopConfig;
pub use sim::HadoopSimConfig;

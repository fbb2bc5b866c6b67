//! # ppc-core — shared vocabulary for the `ppc` workspace
//!
//! This crate holds the types every other crate speaks:
//!
//! * [`money`] — exact fixed-point USD arithmetic for billing.
//! * [`task`] — task identity and the [`task::ResourceProfile`] service-time
//!   model used by both the native runtimes and the discrete-event simulator.
//! * [`metrics`] — the paper's Equation 1 (parallel efficiency) and
//!   Equation 2 (average time per task per core), plus run summaries.
//! * [`pricing`] — cloud service price books (per-request, per-GB rates).
//! * [`report`] — aligned text tables and data series used by the benchmark
//!   harness to print the paper's tables and figures.
//! * [`retry`] — the shared recovery layer: [`retry::RetryPolicy`]
//!   (exponential backoff + jitter + retry budget) and a circuit
//!   breaker, adopted by storage, queue, and runtimes.
//! * [`rng`] — tiny deterministic PRNGs (SplitMix64 / PCG32) so simulation
//!   results are reproducible without threading `rand` through everything.
//! * [`json`] — a small JSON value/parser/writer for the wire formats
//!   (queue task messages, distributed GTM models).
//! * [`sync`] — poison-free `Mutex`/`RwLock` wrappers for the services.
//! * [`par`] — index-parallel map over scoped threads for the kernels.
//! * [`cancel`] — the per-attempt [`Cancel`] token runtimes use to kill
//!   losing speculative attempts.
//! * [`error`] — the workspace error type.
//!
//! The crate is dependency-light by design: everything downstream (storage,
//! queue, compute, the three frameworks, the applications) builds on it.

pub mod cancel;
pub mod error;
pub mod exec;
pub mod json;
pub mod metrics;
pub mod money;
pub mod par;
pub mod pricing;
pub mod report;
pub mod retry;
pub mod rng;
pub mod sync;
pub mod task;
pub mod trace;

pub use cancel::Cancel;
pub use error::{PpcError, Result};
pub use exec::{Executor, FnExecutor};
pub use money::Usd;
pub use retry::{CircuitBreaker, RetryPolicy};
pub use task::{ResourceProfile, TaskId, TaskSpec};

//! The two Dryad entry points: [`run`] (native) and [`simulate`]
//! (discrete-event), both driven by a [`ppc_exec::RunContext`].
//!
//! Dryad runs on exactly one cluster (static node-level partitioning has
//! no elastic or hybrid shape), so both entry points take the context's
//! single cluster. The context alone carries the run's seed, fault
//! schedule, tracing and resilience policy; the configs hold platform
//! dials only.

pub use crate::runtime::run;
pub use crate::sim::simulate;

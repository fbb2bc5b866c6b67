//! The two Classic Cloud entry points: [`run`] (native) and [`simulate`]
//! (discrete-event), both driven by a [`ppc_exec::RunContext`].
//!
//! The context's fleet plan becomes the run's instance groups — one
//! cluster, several hybrid clusters, or an autoscaled group — and the
//! context alone carries the run's seed, fault schedule, tracing and
//! resilience policy, so every cross-cutting concern arrives through one
//! value instead of a dedicated entry-point variant or a config field.

pub use crate::runtime::run;
pub use crate::sim::simulate;

//! # ppc-chaos — deterministic fault scheduling for every engine
//!
//! The paper's fault-tolerance claim is that all three paradigms converge
//! to the correct output under worker loss: Classic Cloud via queue
//! visibility timeouts, Hadoop via attempt re-execution, Dryad via vertex
//! re-run. Exercising that claim well needs more than i.i.d. dice — real
//! outages are *events*: instance 3 dies at t=2s, node 1 runs at half
//! speed for a window (a gray failure), the blob store browns out for
//! 300 ms, an upload is interrupted halfway through.
//!
//! [`FaultSchedule`] is that event list, plus an i.i.d. layer for the
//! classic per-pipeline-point death probabilities. Every query is a pure
//! function of `(seed, worker, time/sequence)`, so the same schedule
//! drives the threaded native runtimes (wall-clock seconds since run
//! start) and the discrete-event simulators (virtual seconds) and gives
//! bit-identical decisions on both. Every engine tracks each worker's
//! place in the schedule (roll index, last timed-kill check) on one
//! [`ChaosCursor`].

pub mod schedule;

pub use schedule::{ChaosCursor, FaultEvent, FaultSchedule, Roll, RunClock, StorageFault};

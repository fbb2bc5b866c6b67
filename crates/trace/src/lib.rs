//! Unified span tracing + metrics for all three paradigms.
//!
//! The paper's argument rests on decomposing *where time goes*: parallel
//! efficiency (Eq. 1), per-task-per-core time (Eq. 2), and the framework
//! overheads that separate Classic Cloud (queue poll + blob transfer) from
//! Hadoop (dispatch + non-local reads) from DryadLINQ (static-partition idle
//! time). This crate gives every engine — native and discrete-event — one
//! vocabulary for that decomposition:
//!
//! - [`Span`]: a timed lifecycle phase of one task attempt. Classic tasks go
//!   `enqueue → dequeue → download → execute → upload → ack`, Hadoop tasks
//!   `dispatch → read(local|remote) → map → commit`, Dryad vertices
//!   `vertex_start → read_local → execute → write`.
//! - [`TraceEvent`]: fleet-level instants (worker launch/kill/replace) from
//!   ppc-autoscale and ppc-chaos.
//! - [`TraceSink`]: the recording trait; [`Recorder`] keeps everything.
//!   A context without a sink records nothing.
//! - [`Trace`]: an immutable snapshot with well-formedness checks, Eq. 1
//!   recomputation from spans, and a legacy
//!   [`Timeline`](ppc_core::trace::Timeline) view for Gantt rendering.
//! - [`Histogram`]: log-bucket histograms (p50/p95/p99).
//! - [`OverheadReport`]: attributes the efficiency gap to named per-framework
//!   overhead categories, recomputed purely from spans.
//! - [`chrome_trace_json`]: `chrome://tracing` / Perfetto JSON export.

mod chrome;
mod metrics;
mod overhead;
mod sink;
mod span;
mod store;

pub use chrome::chrome_trace_json;
pub use metrics::Histogram;
pub use overhead::{
    OverheadCategory, OverheadReport, Paradigm, INTER_STAGE_MATERIALIZATION, WASTED_DUPLICATE_WORK,
};
pub use sink::{AttemptMarker, Recorder, TraceSink};
pub use span::{EventKind, Phase, RunMeta, Span, TraceEvent, JOB_TASK, NO_WORKER};
pub use store::Trace;

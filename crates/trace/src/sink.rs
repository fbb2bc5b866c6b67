//! Recording sinks: where engines put spans.
//!
//! The hot path guards every recording call on [`TraceSink::enabled`], so a
//! disabled sink (or no sink at all) costs a branch on an `Option` — nothing
//! is formatted, cloned, or locked.

use crate::span::{Phase, RunMeta, Span, TraceEvent};
use crate::store::Trace;
use std::fmt;
use std::sync::Mutex;

/// Destination for spans and fleet events.
///
/// `fmt::Debug` is a supertrait so `Arc<dyn TraceSink>` can live inside
/// `#[derive(Debug)]` engine configs.
pub trait TraceSink: Send + Sync + fmt::Debug {
    /// Whether recording is on. Engines skip span construction entirely
    /// when this is false.
    fn enabled(&self) -> bool {
        false
    }
    fn span(&self, _span: Span) {}
    fn event(&self, _event: TraceEvent) {}
    fn set_meta(&self, _meta: RunMeta) {}
    /// An immutable copy of everything recorded so far, if this sink keeps
    /// anything.
    fn snapshot(&self) -> Option<Trace> {
        None
    }
}

/// Marks successive lifecycle phases of one attempt against a live sink.
///
/// Native engines create one marker per attempt and call [`mark`] with
/// wall-clock seconds from their run clock as each phase completes; every
/// `mark` closes the phase running since the previous one. The MapReduce
/// and Dryad sims write each attempt at its end with [`modeled`]. The
/// structural [`Phase::Attempt`] parent span is emitted on drop, so early
/// exits (worker death, lost lease, failed attempt) still close the span
/// tree.
///
/// [`mark`]: AttemptMarker::mark
/// [`modeled`]: AttemptMarker::modeled
pub struct AttemptMarker<'a> {
    sink: &'a dyn TraceSink,
    task: u64,
    attempt: u32,
    worker: u32,
    start_s: f64,
    last_s: f64,
}

impl<'a> AttemptMarker<'a> {
    pub fn new(
        sink: &'a dyn TraceSink,
        task: u64,
        attempt: u32,
        worker: u32,
        start_s: f64,
    ) -> AttemptMarker<'a> {
        AttemptMarker {
            sink,
            task,
            attempt,
            worker,
            start_s,
            last_s: start_s,
        }
    }

    /// Close the phase that has been running since the previous mark (or
    /// since the attempt started), ending at `now_s`. Clamped monotone so
    /// clock jitter can never produce a negative-length span.
    pub fn mark(&mut self, phase: Phase, now_s: f64) {
        let end = now_s.max(self.last_s);
        self.sink.span(Span::new(
            self.task,
            self.attempt,
            self.worker,
            phase,
            self.last_s,
            end,
        ));
        self.last_s = end;
    }

    /// Write a simulated attempt ending at `end_s` from its modeled parts:
    /// `phases[0]` for `open_s`, `phases[1]` for `read_s`, then
    /// `phases[2]`, and for the attempt that wins its task `phases[3]`,
    /// the terminal phase, over the last `write_s`. A failed or losing
    /// attempt folds its tail into `phases[2]`. Every boundary is clamped
    /// to `end_s`, so the engine's µs clock can never stretch a phase past
    /// the attempt's end.
    pub fn modeled(
        mut self,
        phases: [Phase; 4],
        (open_s, read_s, write_s): (f64, f64, f64),
        end_s: f64,
        wins: bool,
    ) {
        self.mark(phases[0], (self.last_s + open_s).min(end_s));
        self.mark(phases[1], (self.last_s + read_s).min(end_s));
        self.mark(phases[2], if wins { end_s - write_s } else { end_s });
        if wins {
            self.mark(phases[3], end_s);
        }
    }
}

impl Drop for AttemptMarker<'_> {
    fn drop(&mut self) {
        self.sink.span(Span::new(
            self.task,
            self.attempt,
            self.worker,
            Phase::Attempt,
            self.start_s,
            self.last_s,
        ));
    }
}

/// Keeps every span and event; the sink behind `trace: true` runs.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Mutex<Vec<Span>>,
    events: Mutex<Vec<TraceEvent>>,
    meta: Mutex<RunMeta>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::default()
    }
}

impl TraceSink for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span(&self, span: Span) {
        self.spans.lock().unwrap().push(span);
    }

    fn event(&self, event: TraceEvent) {
        self.events.lock().unwrap().push(event);
    }

    fn set_meta(&self, meta: RunMeta) {
        *self.meta.lock().unwrap() = meta;
    }

    fn snapshot(&self) -> Option<Trace> {
        Some(Trace::new(
            self.meta.lock().unwrap().clone(),
            self.spans.lock().unwrap().clone(),
            self.events.lock().unwrap().clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Phase;

    fn span(task: u64) -> Span {
        Span::new(task, 0, 0, Phase::Execute, 0.0, 1.0)
    }

    #[test]
    fn recorder_keeps_everything_in_order() {
        let r = Recorder::new();
        assert!(r.enabled());
        for i in 0..5 {
            r.span(span(i));
        }
        r.event(TraceEvent {
            at_s: 1.0,
            worker: 2,
            kind: crate::span::EventKind::Death,
        });
        r.set_meta(RunMeta {
            platform: "test".into(),
            cores: 4,
            tasks: 5,
            makespan_seconds: 9.0,
        });
        let t = r.snapshot().unwrap();
        assert_eq!(t.spans().len(), 5);
        assert_eq!(t.spans()[3].task, 3);
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.meta().cores, 4);
    }

    #[test]
    fn attempt_marker_flushes_parent_on_drop() {
        let r = Recorder::new();
        {
            let mut m = AttemptMarker::new(&r, 7, 1, 3, 10.0);
            m.mark(Phase::Dequeue, 10.5);
            m.mark(Phase::Execute, 12.0);
            // Clock jitter: an earlier timestamp clamps to a zero span.
            m.mark(Phase::Ack, 11.0);
        }
        let t = r.snapshot().unwrap();
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].phase, Phase::Dequeue);
        assert_eq!((spans[0].start_s, spans[0].end_s), (10.0, 10.5));
        assert_eq!(spans[2].phase, Phase::Ack);
        assert_eq!(spans[2].duration_s(), 0.0);
        let attempt = spans[3];
        assert_eq!(attempt.phase, Phase::Attempt);
        assert_eq!((attempt.start_s, attempt.end_s), (10.0, 12.0));
        assert_eq!((attempt.task, attempt.attempt, attempt.worker), (7, 1, 3));
    }
}

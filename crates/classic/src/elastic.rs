//! Elastic-fleet bookkeeping shared by the native runtime and the
//! simulator. Both engines drive the same `ppc-autoscale` [`Controller`],
//! so they check arrivals, find chaos-killed instances, close the fleet
//! ledger and replay the fleet's events into the trace through these
//! functions.

use crate::report::FleetReport;
use ppc_autoscale::{Controller, FleetEventKind, SlotState};
use ppc_chaos::FaultSchedule;
use ppc_compute::billing::FleetLedger;
use ppc_compute::instance::InstanceType;
use ppc_core::{PpcError, Result};
use ppc_trace::{EventKind, TraceEvent, TraceSink};

/// Check an elastic run's arrival offsets: none (every task at t = 0) or
/// one per task, each finite and non-negative.
pub(crate) fn check_arrivals(arrivals: &[f64], n_tasks: usize) -> Result<()> {
    if !arrivals.is_empty() && arrivals.len() != n_tasks {
        return Err(PpcError::InvalidArgument(format!(
            "{} arrival offsets for {n_tasks} tasks",
            arrivals.len()
        )));
    }
    match arrivals.iter().position(|a| !(a.is_finite() && *a >= 0.0)) {
        Some(i) => Err(PpcError::InvalidArgument(format!(
            "arrival offset {i} is {}: offsets must be finite and >= 0",
            arrivals[i]
        ))),
        None => Ok(()),
    }
}

/// Live (warming or active) slots that a timed kill in `(from_s, to_s]`
/// takes down: the whole instance dies.
pub(crate) fn dead_slots(
    ctrl: &Controller,
    schedule: &FaultSchedule,
    from_s: f64,
    to_s: f64,
) -> Vec<u32> {
    ctrl.slots()
        .iter()
        .filter(|s| matches!(s.state, SlotState::Warming | SlotState::Active))
        .filter(|s| schedule.kills_in(s.id, from_s, to_s))
        .map(|s| s.id)
        .collect()
}

/// Confirm the exits of workers that left on a drain. A slot a timed kill
/// already retired is skipped: its death closed its bill.
pub(crate) fn confirm_exits(
    ctrl: &mut Controller,
    exited: impl IntoIterator<Item = u32>,
    now_s: f64,
) {
    for slot in exited {
        if ctrl.slots()[slot as usize].state == SlotState::Draining {
            ctrl.confirm_retired(slot, now_s);
        }
    }
}

/// Close the fleet ledger at the end of a run and bill it. The horizon is
/// the makespan, or the last fleet event if a final tick outlasted the
/// job's finish stamp. Drained workers that exited after the last tick
/// are confirmed first, then every slot still draining: a drain decided on
/// the final tick may never have reached its worker.
pub(crate) fn close_fleet(
    ctrl: &mut Controller,
    exited: Vec<u32>,
    makespan_s: f64,
    itype: InstanceType,
) -> FleetReport {
    let last_event_s = ctrl.events().last().map_or(0.0, |e| e.at_s);
    let end_s = makespan_s.max(last_event_s);
    confirm_exits(ctrl, exited, end_s);
    let still_draining: Vec<u32> = ctrl
        .slots()
        .iter()
        .filter(|s| s.state == SlotState::Draining)
        .map(|s| s.id)
        .collect();
    confirm_exits(ctrl, still_draining, end_s);
    fleet_report(ctrl, itype, end_s)
}

/// Replay the controller's fleet ledger into the trace: launches, drains,
/// retirements and chaos-killed instances, addressed by slot.
pub(crate) fn trace_fleet_events<S: TraceSink + ?Sized>(ctrl: &Controller, sink: &S) {
    for ev in ctrl.events() {
        sink.event(TraceEvent {
            at_s: ev.at_s,
            worker: ev.slot,
            kind: match ev.kind {
                FleetEventKind::Launch => EventKind::Launch,
                FleetEventKind::Drain => EventKind::Drain,
                FleetEventKind::Retire => EventKind::Retire,
                FleetEventKind::Died => EventKind::Death,
            },
        });
    }
}

/// The fleet section of an elastic report, from the controller's audit
/// log: the fleet-size step function plus the per-instance bill. Slots
/// still running at `end_s` are billed through the horizon.
fn fleet_report(ctrl: &Controller, itype: InstanceType, end_s: f64) -> FleetReport {
    let mut timeline = ppc_core::trace::FleetTimeline::new();
    for e in ctrl.events() {
        // Drain events do not change the billed fleet; launches, retires,
        // and chaos-killed instances do.
        if matches!(
            e.kind,
            FleetEventKind::Launch | FleetEventKind::Retire | FleetEventKind::Died
        ) {
            timeline.record(e.at_s, e.fleet_after);
        }
    }
    let mut ledger = FleetLedger::new(itype, ctrl.config().billing_hour_s);
    for s in ctrl.slots() {
        let idx = ledger.launch(s.launched_at);
        if let Some(t) = s.retired_at {
            ledger.retire(idx, t.min(end_s));
        }
    }
    FleetReport {
        itype,
        timeline,
        horizon_s: end_s,
        billed_hours: ledger.billed_hours(end_s),
        wasted_hours: ledger.wasted_hours(end_s),
        cost: ledger.cost(end_s),
    }
}

//! The Classic fleet both engines run on: the context's [`FleetPlan`] as
//! instance groups, each with a plan. A **constant** group is one
//! [`Cluster`] held for the whole job (a hybrid run, the paper's §2.1.3
//! cloud beside a local cluster, is several); an **autoscaled** group is
//! single-worker instances a `ppc-autoscale` [`Controller`] launches,
//! drains and retires.
//!
//! This is the only code in the crate that reads the fleet plan. It owns
//! the arrival check and the send rule's split (offset 0 at set-up, later
//! tasks on arrival), the report's platform label and core count, and each
//! group's bill. The sim asks a worker's group for the three steps that
//! still differ by plan: the pre-pull gate, the timed-kill window and when
//! a lost message reappears.

use crate::report::FleetReport;
use ppc_autoscale::{AutoscaleConfig, Controller, FleetEventKind, Slot, SlotState};
use ppc_chaos::FaultSchedule;
use ppc_compute::billing::{CostBreakdown, FleetLedger};
use ppc_compute::cluster::Cluster;
use ppc_compute::instance::InstanceType;
use ppc_core::money::Usd;
use ppc_core::trace::FleetTimeline;
use ppc_core::{PpcError, Result};
use ppc_exec::FleetPlan;
use ppc_trace::{EventKind, TraceEvent, TraceSink};
use std::sync::Mutex;

/// A run's instance groups, and its tasks split by the send rule.
pub(crate) struct Fleet<'a> {
    pub(crate) groups: Vec<Group<'a>>,
    /// The tasks at offset 0, which the client sends at set-up, before any
    /// worker starts, in task order.
    pub(crate) batch: Vec<usize>,
    /// `(task, offset)` of every later task, by offset (ties in task
    /// order).
    pub(crate) later: Vec<(usize, f64)>,
}

/// Instances of one type under one plan.
pub(crate) struct Group<'a> {
    pub(crate) itype: InstanceType,
    plan: Plan<'a>,
}

enum Plan<'a> {
    Constant(&'a Cluster),
    Autoscaled(&'a AutoscaleConfig, Box<Mutex<Autoscaler>>),
}

/// An autoscaled group's live state: the sim owns it, and the native
/// controller thread shares it with the workers it spawns.
pub(crate) struct Autoscaler {
    pub(crate) controller: Controller,
    /// Drained slots whose worker has exited, to confirm at the next tick.
    pub(crate) exited: Vec<u32>,
    /// When the last timed-kill sweep ran.
    swept_s: f64,
}

/// Why an autoscaler lock can fail: a thread panicked holding it.
pub(crate) const POISONED: &str = "a thread panicked holding the autoscaler";

/// When a sim attempt's lost message becomes visible again: a visibility
/// timeout after the pull, posted at the pull (a constant group off the
/// NIC path knows there whether the attempt fails and when it ends); a
/// timeout after the end (a constant group's NIC path, whose end the pull
/// does not know); or no earlier than the end (an autoscaled group, whose
/// instance the controller may take down mid-attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reappear {
    AtPull,
    AfterEnd,
    NotBeforeEnd,
}

impl<'a> Fleet<'a> {
    /// The groups of `plan` for `n_tasks` tasks. No cluster, or arrival
    /// offsets that are not one finite value >= 0 per task, is an
    /// `InvalidArgument` error.
    pub(crate) fn new(plan: &'a FleetPlan, n_tasks: usize) -> Result<Fleet<'a>> {
        let (groups, arrivals) = match plan {
            FleetPlan::Fixed(clusters) => (clusters.iter().map(Group::constant).collect(), &[][..]),
            FleetPlan::Elastic {
                itype,
                autoscale,
                arrivals,
            } => (vec![Group::autoscaled(*itype, autoscale)], &arrivals[..]),
        };
        let bad = |msg: String| Err(PpcError::InvalidArgument(msg));
        if groups.is_empty() {
            return bad("run context has an empty fleet list".into());
        }
        let n = arrivals.len();
        if n > 0 && n != n_tasks {
            return bad(format!("{n} arrival offsets for {n_tasks} tasks"));
        }
        if let Some(i) = arrivals.iter().position(|a| !(a.is_finite() && *a >= 0.0)) {
            let a = arrivals[i];
            return bad(format!(
                "arrival offset {i} is {a}: offsets must be finite and >= 0"
            ));
        }
        let offset = |i| arrivals.get(i).copied().unwrap_or(0.0);
        let (batch, later): (Vec<usize>, Vec<usize>) =
            (0..n_tasks).partition(|&i| offset(i) == 0.0);
        let mut later: Vec<(usize, f64)> = later.into_iter().map(|i| (i, offset(i))).collect();
        later.sort_by(|a, b| a.1.total_cmp(&b.1));
        Ok(Fleet {
            groups,
            batch,
            later,
        })
    }

    /// Whether a group is autoscaled: such a fleet has no NIC model.
    pub(crate) fn autoscaled(&self) -> bool {
        self.groups.iter().any(|g| g.autoscaler().is_some())
    }

    /// The report's platform: `classic` natively, `classic-sim-<itype>`
    /// simulated, `classic[-sim]-autoscale-<itype>` on an autoscaled fleet.
    pub(crate) fn platform(&self, sim: bool) -> String {
        let engine = if sim { "classic-sim" } else { "classic" };
        let itype = self.groups[0].itype.name;
        match (self.autoscaled(), sim) {
            (true, _) => format!("{engine}-autoscale-{itype}"),
            (false, true) => format!("{engine}-{itype}"),
            (false, false) => engine.into(),
        }
    }

    /// Close the fleet at the makespan, replaying fleet events into `sink`:
    /// the cores (an autoscaled group's peak), the bill summed by group
    /// and an autoscaled group's report.
    pub(crate) fn close<S: TraceSink + ?Sized>(
        &mut self,
        makespan_s: f64,
        sink: Option<&S>,
    ) -> (usize, CostBreakdown, Option<FleetReport>) {
        let (mut cores, mut report) = (0, None);
        let (mut compute_cost, mut amortized_cost) = (Usd::ZERO, Usd::ZERO);
        for group in &mut self.groups {
            let bill = match &mut group.plan {
                Plan::Constant(cluster) => {
                    cores += cluster.total_workers();
                    cluster.cost(makespan_s)
                }
                Plan::Autoscaled(_, auto) => {
                    let auto = auto.get_mut().expect(POISONED);
                    let fleet = auto.close(makespan_s, group.itype);
                    sink.inspect(|sink| auto.trace_events(*sink));
                    cores += fleet.peak_fleet() as usize;
                    report.insert(fleet).cost
                }
            };
            compute_cost += bill.compute_cost;
            amortized_cost += bill.amortized_cost;
        }
        let cost = CostBreakdown {
            compute_cost,
            amortized_cost,
        };
        (cores, cost, report)
    }
}

impl<'a> Group<'a> {
    fn constant(cluster: &'a Cluster) -> Group<'a> {
        Group {
            itype: cluster.itype(),
            plan: Plan::Constant(cluster),
        }
    }

    fn autoscaled(itype: InstanceType, autoscale: &'a AutoscaleConfig) -> Group<'a> {
        let auto = Autoscaler {
            controller: Controller::new(autoscale.clone()),
            exited: Vec::new(),
            swept_s: 0.0,
        };
        let plan = Plan::Autoscaled(autoscale, Box::new(Mutex::new(auto)));
        Group { itype, plan }
    }

    /// The workers on each instance the group starts with.
    pub(crate) fn instances(&self) -> Vec<usize> {
        match &self.plan {
            Plan::Constant(cluster) => cluster.nodes().iter().map(|n| n.workers).collect(),
            Plan::Autoscaled(cfg, _) => vec![1; cfg.min_workers as usize],
        }
    }

    /// The group's autoscaler, if its plan is one.
    pub(crate) fn autoscaler(&self) -> Option<&Mutex<Autoscaler>> {
        match &self.plan {
            Plan::Constant(_) => None,
            Plan::Autoscaled(_, auto) => Some(auto),
        }
    }

    /// The sim's pre-pull gate: a constant group's slots always pull (after
    /// the job they delete stale messages). An autoscaled group's stop once
    /// the job is `done`, ending the tick chain, and a `draining` slot
    /// exits here, as it holds no lease between tasks.
    pub(crate) fn may_pull(&mut self, slot: u32, draining: bool, done: bool) -> bool {
        let Plan::Autoscaled(_, auto) = &mut self.plan else {
            return true;
        };
        if !done && draining {
            auto.get_mut().expect(POISONED).exited.push(slot);
        }
        !done && !draining
    }

    /// The end of the window in which a timed kill fails an attempt ending
    /// at `end_s` (the slot lives on), on a constant group. An autoscaled
    /// group has none: the controller's sweep takes the instance down.
    pub(crate) fn kill_window(&self, end_s: f64) -> Option<f64> {
        matches!(self.plan, Plan::Constant(_)).then_some(end_s)
    }

    /// When an attempt's lost message reappears; `nic` if its transfers go
    /// through its node's NIC.
    pub(crate) fn reappear(&self, nic: bool) -> Reappear {
        match self.plan {
            Plan::Constant(_) if nic => Reappear::AfterEnd,
            Plan::Constant(_) => Reappear::AtPull,
            Plan::Autoscaled(..) => Reappear::NotBeforeEnd,
        }
    }
}

impl Autoscaler {
    /// A tick's bookkeeping before the controller decides: confirm drained
    /// workers' exits, then mark dead (and so replaceable at once) every
    /// live instance a timed kill since the last sweep addresses.
    pub(crate) fn sweep(&mut self, schedule: Option<&FaultSchedule>, now_s: f64) -> Vec<u32> {
        let exited = std::mem::take(&mut self.exited);
        self.confirm_exits(exited, now_s);
        let from_s = self.swept_s;
        let killed = |s: &&Slot| {
            matches!(s.state, SlotState::Warming | SlotState::Active)
                && schedule.is_some_and(|k| k.kills_in(s.id, from_s, now_s))
        };
        let slots = self.controller.slots().iter();
        let dead: Vec<u32> = slots.filter(killed).map(|s| s.id).collect();
        for &id in &dead {
            self.controller.mark_dead(id, now_s);
        }
        self.swept_s = now_s;
        dead
    }

    /// Confirm the exits of workers that left on a drain. A slot a timed
    /// kill already retired is skipped: its death closed its bill.
    fn confirm_exits(&mut self, exited: impl IntoIterator<Item = u32>, now_s: f64) {
        for slot in exited {
            if self.controller.slots()[slot as usize].state == SlotState::Draining {
                self.controller.confirm_retired(slot, now_s);
            }
        }
    }

    /// Close the fleet ledger and bill it through the makespan, or the last
    /// fleet event if a final tick outlasted it. Exited workers are
    /// confirmed first, then every slot still draining (a drain decided on
    /// the final tick may never have reached its worker). The report is the
    /// fleet-size step function plus the per-instance bill.
    fn close(&mut self, makespan_s: f64, itype: InstanceType) -> FleetReport {
        let last_event_s = self.controller.events().last().map_or(0.0, |e| e.at_s);
        let end_s = makespan_s.max(last_event_s);
        let exited = std::mem::take(&mut self.exited);
        self.confirm_exits(exited, end_s);
        let draining = self.controller.slots().iter();
        let draining = draining.filter(|s| s.state == SlotState::Draining);
        self.confirm_exits(draining.map(|s| s.id).collect::<Vec<_>>(), end_s);

        let mut timeline = FleetTimeline::new();
        let resizes = self.controller.events().iter();
        for e in resizes.filter(|e| e.kind != FleetEventKind::Drain) {
            timeline.record(e.at_s, e.fleet_after);
        }
        let mut ledger = FleetLedger::new(itype, self.controller.config().billing_hour_s);
        for s in self.controller.slots() {
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

    /// Replay the controller's fleet ledger into the trace: launches,
    /// drains, retirements and chaos-killed instances, addressed by slot.
    fn trace_events<S: TraceSink + ?Sized>(&self, sink: &S) {
        for ev in self.controller.events() {
            let kind = match ev.kind {
                FleetEventKind::Launch => EventKind::Launch,
                FleetEventKind::Drain => EventKind::Drain,
                FleetEventKind::Retire => EventKind::Retire,
                FleetEventKind::Died => EventKind::Death,
            };
            let (at_s, worker) = (ev.at_s, ev.slot);
            sink.event(TraceEvent { at_s, worker, kind });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_autoscale::AutoscaleConfig;
    use ppc_compute::instance::{BARE_CAP3, EC2_HCXL};
    use ppc_trace::Recorder;

    #[test]
    fn constant_groups_bill_every_cluster_for_the_makespan() {
        let (cloud, local) = (
            Cluster::provision(EC2_HCXL, 2, 8),
            Cluster::provision(BARE_CAP3, 1, 4),
        );
        let plan = FleetPlan::Fixed(vec![cloud.clone(), local.clone()]);
        let mut fleet = Fleet::new(&plan, 3).unwrap();
        assert_eq!(fleet.groups.len(), 2);
        assert_eq!(fleet.batch, [0, 1, 2]);
        assert!(fleet.later.is_empty());
        assert_eq!(fleet.platform(false), "classic");
        assert_eq!(
            fleet.platform(true),
            format!("classic-sim-{}", EC2_HCXL.name)
        );
        let (cores, cost, report) = fleet.close(1800.0, None::<&Recorder>);
        assert_eq!(cores, 20);
        let (a, b) = (cloud.cost(1800.0), local.cost(1800.0));
        assert_eq!(cost.compute_cost, a.compute_cost + b.compute_cost);
        assert_eq!(cost.amortized_cost, a.amortized_cost + b.amortized_cost);
        assert!(report.is_none());
    }

    #[test]
    fn offsets_split_into_the_set_up_batch_and_later_arrivals_by_time() {
        let auto = AutoscaleConfig::target_tracking(1, 2, 4.0);
        let plan = FleetPlan::Elastic {
            itype: EC2_HCXL,
            autoscale: auto,
            arrivals: vec![5.0, 0.0, 2.0, 5.0, 0.0],
        };
        let fleet = Fleet::new(&plan, 5).unwrap();
        assert_eq!(fleet.batch, [1, 4]);
        assert_eq!(fleet.later, [(2, 2.0), (0, 5.0), (3, 5.0)]);
        assert_eq!(
            fleet.platform(true),
            format!("classic-sim-autoscale-{}", EC2_HCXL.name)
        );
        assert_eq!(fleet.groups[0].instances(), [1]);
    }

    #[test]
    fn bad_plans_are_invalid_arguments() {
        let elastic = |arrivals: Vec<f64>| FleetPlan::Elastic {
            itype: EC2_HCXL,
            autoscale: AutoscaleConfig::target_tracking(1, 2, 4.0),
            arrivals,
        };
        let cases = [
            (FleetPlan::Fixed(Vec::new()), "empty fleet list"),
            (elastic(vec![0.0]), "1 arrival offsets for 2 tasks"),
            (elastic(vec![0.0, -1.0]), "arrival offset 1 is -1"),
            (elastic(vec![f64::NAN, 0.0]), "arrival offset 0 is NaN"),
        ];
        for (plan, want) in cases {
            let err = Fleet::new(&plan, 2).err().expect("a bad plan");
            assert_eq!(err.code(), "InvalidArgument");
            assert!(err.to_string().contains(want), "{err}");
        }
    }
}

//! Job identity, specification, and the queryable lifecycle state machine.

use ppc_exec::{Workflow, Workload};

/// Opaque job handle returned by submission. Ids are dense (the Nth
/// submission gets id N), which lets the service index records by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// Scheduling hint *within* a tenant's queue. Fair share is between
/// tenants; priority only reorders a tenant's own backlog, so one tenant
/// cannot buy capacity from another by marking everything interactive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Queued behind the tenant's earlier batch jobs (FIFO).
    #[default]
    Batch,
    /// Jumps ahead of the tenant's queued batch jobs.
    Interactive,
}

/// What a job runs.
pub enum JobPayload {
    /// Simulation-only job: `tasks` independent tasks of `task_s`
    /// reference seconds each — the closed-loop load generator's currency.
    Modeled { tasks: u32, task_s: f64 },
    /// A real single-stage workload run through `Engine::run`.
    Workload(Workload),
    /// A real multi-stage DAG run through `Engine::run_workflow`.
    Workflow(Workflow),
}

impl JobPayload {
    /// Reference demand in cpu-seconds — the fair-share scheduler's
    /// deficit currency, so a tenant submitting few huge jobs and one
    /// submitting many small jobs get equal *work* shares, not equal
    /// job counts.
    pub fn demand_s(&self) -> f64 {
        match self {
            JobPayload::Modeled { tasks, task_s } => *tasks as f64 * task_s,
            JobPayload::Workload(wl) => wl
                .inputs
                .iter()
                .map(|(t, _)| t.profile.cpu_seconds_ref)
                .sum(),
            JobPayload::Workflow(wf) => wf
                .stages
                .iter()
                .flat_map(|s| s.specs.iter())
                .map(|t| t.profile.cpu_seconds_ref)
                .sum(),
        }
    }
}

/// A submission: who wants what run where, with scheduling hints.
pub struct JobSpec {
    pub tenant: String,
    /// Engine name resolved against the service's engine set
    /// (`"classic"`, `"mapreduce"`, `"dryad"`).
    pub engine: String,
    pub payload: JobPayload,
    pub priority: Priority,
    /// Completion-latency hint, seconds from submission. Not a guarantee:
    /// jobs finishing past the hint are counted in the tenant's
    /// `deadline_missed` rollup rather than failed.
    pub deadline_hint_s: Option<f64>,
}

impl JobSpec {
    pub fn new(
        tenant: impl Into<String>,
        engine: impl Into<String>,
        payload: JobPayload,
    ) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            engine: engine.into(),
            payload,
            priority: Priority::Batch,
            deadline_hint_s: None,
        }
    }

    /// A modeled job of `tasks` × `task_s` reference seconds.
    pub fn modeled(
        tenant: impl Into<String>,
        engine: impl Into<String>,
        tasks: u32,
        task_s: f64,
    ) -> JobSpec {
        JobSpec::new(tenant, engine, JobPayload::Modeled { tasks, task_s })
    }
}

/// The job lifecycle: `Queued → Admitted → Running → Done/Failed`, with
/// `Rejected` the terminal shed path (bounded buffers full — the HTTP 429
/// of the front door).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobStatus {
    /// Accepted into the tenant's bounded queue, awaiting fair share.
    Queued,
    /// Picked by the scheduler under the tenant's running quota.
    Admitted,
    /// Occupying fleet capacity.
    Running,
    /// Completed successfully.
    Done,
    /// The engine reported incomplete tasks.
    Failed,
    /// Shed at the front door; never held capacity.
    Rejected,
}

impl JobStatus {
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Failed | JobStatus::Rejected
        )
    }

    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Admitted => "admitted",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Rejected => "rejected",
        }
    }

    /// Legal forward edges of the state machine.
    pub fn can_advance_to(self, next: JobStatus) -> bool {
        matches!(
            (self, next),
            (JobStatus::Queued, JobStatus::Admitted)
                | (JobStatus::Queued, JobStatus::Rejected)
                | (JobStatus::Admitted, JobStatus::Running)
                | (JobStatus::Running, JobStatus::Done)
                | (JobStatus::Running, JobStatus::Failed)
        )
    }
}

/// Compact post-hoc record of one job's lifecycle — the after-the-fact
/// answer to "what happened to job N?". Small enough that a million of
/// them fit comfortably in memory for the load-generator runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRecord {
    pub id: JobId,
    /// Index into the service's tenant list.
    pub tenant: u32,
    /// Flattened client index of the submitting closed-loop client
    /// (`u32::MAX` for direct API submissions).
    pub client: u32,
    /// Reference demand in cpu-seconds.
    pub demand_s: f64,
    pub submitted_s: f64,
    pub admitted_s: Option<f64>,
    pub started_s: Option<f64>,
    pub finished_s: Option<f64>,
    pub status: JobStatus,
}

/// Client marker for jobs submitted straight through the API rather than
/// by a simulated closed-loop client.
pub const NO_CLIENT: u32 = u32::MAX;

impl JobRecord {
    /// A freshly queued job.
    pub fn queued(id: JobId, tenant: u32, client: u32, demand_s: f64, now_s: f64) -> JobRecord {
        JobRecord {
            id,
            tenant,
            client,
            demand_s,
            submitted_s: now_s,
            admitted_s: None,
            started_s: None,
            finished_s: None,
            status: JobStatus::Queued,
        }
    }

    /// A job shed at submission; `Rejected` is stamped as its finish.
    pub fn rejected(id: JobId, tenant: u32, client: u32, demand_s: f64, now_s: f64) -> JobRecord {
        JobRecord {
            id,
            tenant,
            client,
            demand_s,
            submitted_s: now_s,
            admitted_s: None,
            started_s: None,
            finished_s: Some(now_s),
            status: JobStatus::Rejected,
        }
    }

    /// Advance the state machine, stamping the transition time. Panics on
    /// an illegal edge — lifecycle bugs must not silently corrupt rollups.
    pub fn advance(&mut self, to: JobStatus, now_s: f64) {
        assert!(
            self.status.can_advance_to(to),
            "job {}: illegal transition {:?} -> {to:?}",
            self.id.0,
            self.status
        );
        match to {
            JobStatus::Admitted => self.admitted_s = Some(now_s),
            JobStatus::Running => self.started_s = Some(now_s),
            JobStatus::Done | JobStatus::Failed | JobStatus::Rejected => {
                self.finished_s = Some(now_s)
            }
            JobStatus::Queued => unreachable!(),
        }
        self.status = to;
    }

    /// The `(status, at_s)` history, reconstructed from the timestamps.
    pub fn history(&self) -> Vec<(JobStatus, f64)> {
        let mut h = vec![(JobStatus::Queued, self.submitted_s)];
        if self.status == JobStatus::Rejected {
            return vec![(JobStatus::Rejected, self.submitted_s)];
        }
        if let Some(t) = self.admitted_s {
            h.push((JobStatus::Admitted, t));
        }
        if let Some(t) = self.started_s {
            h.push((JobStatus::Running, t));
        }
        if let Some(t) = self.finished_s {
            h.push((self.status, t));
        }
        h
    }

    /// Submission-to-completion latency; `None` until terminal (and for
    /// rejected jobs, which never ran).
    pub fn latency_s(&self) -> Option<f64> {
        match self.status {
            JobStatus::Done | JobStatus::Failed => Some(self.finished_s? - self.submitted_s),
            _ => None,
        }
    }

    /// Submission-to-dispatch queueing delay.
    pub fn wait_s(&self) -> Option<f64> {
        Some(self.started_s? - self.submitted_s)
    }

    /// FNV-1a digest over a slice of records — the currency of the
    /// determinism tests (identical replays ⇒ identical digests).
    pub fn digest(records: &[JobRecord]) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for r in records {
            mix(r.id.0);
            mix(r.tenant as u64);
            mix(r.client as u64);
            mix(r.demand_s.to_bits());
            mix(r.submitted_s.to_bits());
            mix(r.admitted_s.unwrap_or(-1.0).to_bits());
            mix(r.started_s.unwrap_or(-1.0).to_bits());
            mix(r.finished_s.unwrap_or(-1.0).to_bits());
            mix(r.status.name().len() as u64 ^ (r.status as u64) << 8);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_edges() {
        assert!(JobStatus::Queued.can_advance_to(JobStatus::Admitted));
        assert!(JobStatus::Admitted.can_advance_to(JobStatus::Running));
        assert!(JobStatus::Running.can_advance_to(JobStatus::Done));
        assert!(JobStatus::Running.can_advance_to(JobStatus::Failed));
        assert!(!JobStatus::Queued.can_advance_to(JobStatus::Running));
        assert!(!JobStatus::Done.can_advance_to(JobStatus::Running));
        assert!(!JobStatus::Rejected.can_advance_to(JobStatus::Queued));
        for s in [JobStatus::Done, JobStatus::Failed, JobStatus::Rejected] {
            assert!(s.is_terminal());
        }
    }

    #[test]
    fn record_history_reconstructs() {
        let mut r = JobRecord::queued(JobId(7), 1, 0, 30.0, 10.0);
        r.advance(JobStatus::Admitted, 12.0);
        r.advance(JobStatus::Running, 12.0);
        r.advance(JobStatus::Done, 42.0);
        assert_eq!(
            r.history(),
            vec![
                (JobStatus::Queued, 10.0),
                (JobStatus::Admitted, 12.0),
                (JobStatus::Running, 12.0),
                (JobStatus::Done, 42.0),
            ]
        );
        assert_eq!(r.latency_s(), Some(32.0));
        assert_eq!(r.wait_s(), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "illegal transition")]
    fn illegal_transition_panics() {
        let mut r = JobRecord::queued(JobId(0), 0, 0, 1.0, 0.0);
        r.advance(JobStatus::Done, 1.0);
    }

    #[test]
    fn rejected_record_is_terminal_at_submit() {
        let r = JobRecord::rejected(JobId(3), 0, 2, 5.0, 9.0);
        assert_eq!(r.status, JobStatus::Rejected);
        assert_eq!(r.history(), vec![(JobStatus::Rejected, 9.0)]);
        assert_eq!(r.latency_s(), None);
    }

    #[test]
    fn digest_detects_divergence() {
        let a = vec![JobRecord::queued(JobId(0), 0, 0, 1.0, 0.0)];
        let mut b = a.clone();
        assert_eq!(JobRecord::digest(&a), JobRecord::digest(&b));
        b[0].advance(JobStatus::Admitted, 0.5);
        assert_ne!(JobRecord::digest(&a), JobRecord::digest(&b));
    }
}

//! Job descriptions for the Classic Cloud framework.

use ppc_core::task::TaskSpec;
use ppc_core::{PpcError, Result};
use std::time::Duration;

/// Deliveries a task gets before it is dead-lettered, unless a job sets
/// its own: [`JobSpec::new`]'s `max_deliveries`, and the simulator's
/// budget of failed attempts.
pub(crate) const DEFAULT_MAX_DELIVERIES: u32 = 5;

/// A pleasingly parallel job: a set of independent tasks plus the storage
/// and queue plumbing they flow through.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Job name; queue and bucket names are derived from it.
    pub name: String,
    /// The independent tasks. Input objects must exist in
    /// [`JobSpec::input_bucket`] under each task's `input_key` before the
    /// job starts (the paper assumes "the data was already present in the
    /// framework's preferred storage location", §3).
    pub tasks: Vec<TaskSpec>,
    pub input_bucket: String,
    pub output_bucket: String,
    /// Visibility timeout for the scheduling queue: must exceed the longest
    /// task execution or live tasks will be spuriously re-executed.
    pub visibility_timeout: Duration,
    /// Give up on a task after this many deliveries (a dead-letter policy;
    /// prevents a poison task from looping forever).
    pub max_deliveries: u32,
}

impl JobSpec {
    /// A job with conventional bucket names and a generous visibility timeout.
    pub fn new(name: impl Into<String>, tasks: Vec<TaskSpec>) -> JobSpec {
        let name = name.into();
        JobSpec {
            input_bucket: format!("{name}-in"),
            output_bucket: format!("{name}-out"),
            name,
            tasks,
            visibility_timeout: Duration::from_secs(600),
            max_deliveries: DEFAULT_MAX_DELIVERIES,
        }
    }

    pub fn with_visibility_timeout(mut self, t: Duration) -> JobSpec {
        self.visibility_timeout = t;
        self
    }

    pub fn with_max_deliveries(mut self, n: u32) -> JobSpec {
        self.max_deliveries = n;
        self
    }

    /// Name of the scheduling queue for this job.
    pub fn sched_queue(&self) -> String {
        format!("{}-sched", self.name)
    }

    /// Name of the monitoring queue ("Our implementation uses a monitoring
    /// message queue to monitor the progress of the computation", §2.1.3).
    pub fn monitor_queue(&self) -> String {
        format!("{}-monitor", self.name)
    }

    /// Name of the dead-letter queue: tasks that exhaust `max_deliveries`
    /// are parked here for offline inspection or redrive. The runtime
    /// leaves this queue alive after the job so operators can drain it.
    pub fn dead_letter_queue(&self) -> String {
        format!("{}-dlq", self.name)
    }

    /// Sanity-check the job before spending money on it. A task whose
    /// queue message could not be parsed back (a non-finite
    /// `cpu_seconds_ref` travels as `null`) is rejected: a worker would
    /// park it as poison and the job would never resolve it.
    pub fn validate(&self) -> Result<()> {
        if self.tasks.is_empty() {
            return Err(PpcError::InvalidArgument(format!(
                "job '{}' has no tasks",
                self.name
            )));
        }
        if self.max_deliveries == 0 {
            return Err(PpcError::InvalidArgument(
                "max_deliveries must be at least 1".into(),
            ));
        }
        let mut ids: Vec<u64> = self.tasks.iter().map(|t| t.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != self.tasks.len() {
            return Err(PpcError::InvalidArgument(format!(
                "job '{}' has duplicate task ids",
                self.name
            )));
        }
        if let Some(t) = (self.tasks.iter()).find(|t| !t.profile.cpu_seconds_ref.is_finite()) {
            return Err(PpcError::InvalidArgument(format!(
                "job '{}': task {} has cpu_seconds_ref = {}, which its queue message cannot carry",
                self.name, t.id.0, t.profile.cpu_seconds_ref
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_core::task::ResourceProfile;

    fn tasks(n: u64) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| TaskSpec::new(i, "app", format!("in/{i}"), ResourceProfile::cpu_bound(1.0)))
            .collect()
    }

    #[test]
    fn names_are_derived() {
        let j = JobSpec::new("cap3", tasks(2));
        assert_eq!(j.sched_queue(), "cap3-sched");
        assert_eq!(j.monitor_queue(), "cap3-monitor");
        assert_eq!(j.input_bucket, "cap3-in");
        assert_eq!(j.output_bucket, "cap3-out");
        assert!(j.validate().is_ok());
    }

    #[test]
    fn empty_job_rejected() {
        assert_eq!(
            JobSpec::new("x", vec![]).validate().unwrap_err().code(),
            "InvalidArgument"
        );
    }

    #[test]
    fn duplicate_task_ids_rejected() {
        let mut ts = tasks(2);
        ts[1].id = ts[0].id;
        assert!(JobSpec::new("x", ts).validate().is_err());
    }

    #[test]
    fn non_finite_cpu_seconds_rejected_naming_the_task() {
        for bad in [f64::NAN, f64::INFINITY] {
            let mut ts = tasks(3);
            ts[1].profile.cpu_seconds_ref = bad;
            let err = JobSpec::new("x", ts).validate().unwrap_err();
            assert_eq!(err.code(), "InvalidArgument");
            assert!(err.to_string().contains("task 1 "), "{bad}: {err}");
        }
    }

    #[test]
    fn zero_max_deliveries_rejected() {
        let j = JobSpec::new("x", tasks(1)).with_max_deliveries(0);
        assert!(j.validate().is_err());
    }
}

//! Task identity and the resource model shared by all frameworks.
//!
//! In the paper a *task* is one input file processed by one executable
//! invocation producing one output file (§2.1.3). All three frameworks
//! (Classic Cloud, Hadoop, DryadLINQ) schedule the same tasks; only the
//! transport differs. [`TaskSpec`] captures that framework-independent view.
//!
//! [`ResourceProfile`] is the service-time model the discrete-event simulator
//! uses to predict how long a task takes on a given instance type: CPU
//! seconds at a reference clock, the memory footprint (BLAST's database
//! residency), memory traffic (GTM's bandwidth-bound kernel), and I/O bytes
//! (what Classic Cloud must move through cloud storage).

use crate::json::Json;
use std::fmt;

/// Reference clock rate, in GHz, at which [`ResourceProfile::cpu_seconds_ref`]
/// is expressed. Matches the EC2 High-CPU-Extra-Large core (~2.5 GHz) the
/// paper treats as its workhorse.
pub const REFERENCE_CLOCK_GHZ: f64 = 2.5;

/// Globally unique task identifier within a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task-{}", self.0)
    }
}

/// Resource demands of a single task, measured (or calibrated) at the
/// reference platform. See the module docs for how the simulator scales it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceProfile {
    /// Pure compute time on one reference core ([`REFERENCE_CLOCK_GHZ`]),
    /// with the working set resident and no memory contention.
    pub cpu_seconds_ref: f64,
    /// Peak *private* resident working set per running task, bytes.
    pub mem_bytes: u64,
    /// Read-only working set *shared by all workers on a node* — the BLAST
    /// NR database, resident once per instance. Zero for most apps.
    /// Defaults to 0 when absent on the wire.
    pub shared_mem_bytes: u64,
    /// Bytes moved between memory and CPU over the task's life; drives the
    /// bandwidth-contention term for memory-bound kernels like GTM.
    pub mem_traffic_bytes: u64,
    /// Input payload the framework must deliver to the worker.
    pub input_bytes: u64,
    /// Output payload the framework must collect.
    pub output_bytes: u64,
}

impl ResourceProfile {
    /// A purely CPU-bound profile with negligible data movement.
    pub fn cpu_bound(cpu_seconds_ref: f64) -> Self {
        ResourceProfile {
            cpu_seconds_ref,
            mem_bytes: 64 << 20,
            shared_mem_bytes: 0,
            mem_traffic_bytes: 0,
            input_bytes: 0,
            output_bytes: 0,
        }
    }
}

/// A framework-independent description of one unit of pleasingly parallel
/// work: "run the application on this input object, produce that output
/// object".
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Identity within the job; used for dedup by idempotent re-execution.
    pub id: TaskId,
    /// Application name ("cap3", "blast", "gtm", or a test kernel).
    pub app: String,
    /// Storage key / file path of the input.
    pub input_key: String,
    /// Storage key / file path where the output must land.
    pub output_key: String,
    /// Resource model for the simulator; native runtimes ignore it.
    pub profile: ResourceProfile,
}

impl TaskSpec {
    /// Convenience constructor deriving the output key from the input key.
    pub fn new(
        id: u64,
        app: impl Into<String>,
        input_key: impl Into<String>,
        profile: ResourceProfile,
    ) -> Self {
        let input_key = input_key.into();
        let output_key = format!("{input_key}.out");
        TaskSpec {
            id: TaskId(id),
            app: app.into(),
            input_key,
            output_key,
            profile,
        }
    }

    /// Serialize to the wire format used as a queue message body, mirroring
    /// the paper's "every message in the queue describes a single task".
    pub fn to_message(&self) -> crate::Result<String> {
        let p = &self.profile;
        let doc = Json::Obj(vec![
            ("id".into(), Json::from(self.id.0)),
            ("app".into(), Json::from(self.app.as_str())),
            ("input_key".into(), Json::from(self.input_key.as_str())),
            ("output_key".into(), Json::from(self.output_key.as_str())),
            (
                "profile".into(),
                Json::Obj(vec![
                    ("cpu_seconds_ref".into(), Json::from(p.cpu_seconds_ref)),
                    ("mem_bytes".into(), Json::from(p.mem_bytes)),
                    ("shared_mem_bytes".into(), Json::from(p.shared_mem_bytes)),
                    ("mem_traffic_bytes".into(), Json::from(p.mem_traffic_bytes)),
                    ("input_bytes".into(), Json::from(p.input_bytes)),
                    ("output_bytes".into(), Json::from(p.output_bytes)),
                ]),
            ),
        ]);
        Ok(doc.to_string())
    }

    /// Parse a queue message body back into a task.
    pub fn from_message(body: &str) -> crate::Result<TaskSpec> {
        let doc = Json::parse(body)?;
        let p = doc.field("profile")?;
        Ok(TaskSpec {
            id: TaskId(doc.field("id")?.as_u64()?),
            app: doc.field("app")?.as_str()?.to_string(),
            input_key: doc.field("input_key")?.as_str()?.to_string(),
            output_key: doc.field("output_key")?.as_str()?.to_string(),
            profile: ResourceProfile {
                cpu_seconds_ref: p.field("cpu_seconds_ref")?.as_f64()?,
                mem_bytes: p.field("mem_bytes")?.as_u64()?,
                // Older messages predate the shared-residency field.
                shared_mem_bytes: match p.get("shared_mem_bytes") {
                    Some(v) => v.as_u64()?,
                    None => 0,
                },
                mem_traffic_bytes: p.field("mem_traffic_bytes")?.as_u64()?,
                input_bytes: p.field("input_bytes")?.as_u64()?,
                output_bytes: p.field("output_bytes")?.as_u64()?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TaskSpec {
        TaskSpec::new(
            7,
            "cap3",
            "inputs/file7.fa",
            ResourceProfile::cpu_bound(4.2),
        )
    }

    #[test]
    fn message_round_trip() {
        let t = sample();
        let wire = t.to_message().unwrap();
        let back = TaskSpec::from_message(&wire).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn bad_message_is_codec_error() {
        let err = TaskSpec::from_message("{not json").unwrap_err();
        assert_eq!(err.code(), "Codec");
    }

    #[test]
    fn output_key_derived() {
        assert_eq!(sample().output_key, "inputs/file7.fa.out");
    }

    #[test]
    fn task_id_display() {
        assert_eq!(TaskId(3).to_string(), "task-3");
    }
}

//! Worker fault injection for the native runtime.
//!
//! The Classic Cloud model's fault tolerance claim is that a worker can die
//! at *any* point without losing work: an unfinished task's message simply
//! reappears after the visibility timeout. [`FaultPlan`] lets tests kill
//! workers at the three interesting points:
//!
//! * **before execute** — the worker took the message and died; no output
//!   exists; redelivery re-runs the task.
//! * **mid execute** — the worker ran the task but died during the output
//!   upload; the PUT is atomic, so nothing lands, and redelivery re-runs
//!   the task.
//! * **before delete** — the worker produced and uploaded the output but
//!   died before deleting the message; redelivery runs the task *again*,
//!   harmlessly overwriting the identical output (idempotence).
//!
//! Internally the dice are mapped onto a [`ppc_chaos::FaultSchedule`]
//! (see [`FaultPlan::to_schedule`]), the event-based engine shared with
//! the other paradigms; event-level kills (timed, gray degradation,
//! storage outages) ride in via `ClassicConfig::schedule`.

use ppc_chaos::FaultSchedule;
use ppc_core::{PpcError, Result};

/// Probabilities of a worker "dying" at each pipeline stage, per task.
/// A dead worker abandons its current message and is replaced after
/// `restart_delay_ms` (modeling the cloud's instance auto-recovery).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// P(die after receiving, before executing).
    pub die_before_execute: f64,
    /// P(die mid-execution: user code ran, but the worker dies during the
    /// output upload, which lands nothing).
    pub die_mid_execute: f64,
    /// P(die after uploading output, before deleting the message).
    pub die_before_delete: f64,
    /// How long a replacement worker takes to come up, milliseconds.
    pub restart_delay_ms: u64,
    /// Deterministic seed for the per-worker fault dice.
    pub seed: u64,
}

impl FaultPlan {
    /// No injected failures.
    pub const NONE: FaultPlan = FaultPlan {
        die_before_execute: 0.0,
        die_mid_execute: 0.0,
        die_before_delete: 0.0,
        restart_delay_ms: 0,
        seed: 0,
    };

    /// A hostile but survivable environment used by the integration tests.
    pub fn hostile(seed: u64) -> FaultPlan {
        FaultPlan {
            die_before_execute: 0.08,
            die_mid_execute: 0.05,
            die_before_delete: 0.08,
            restart_delay_ms: 1,
            seed,
        }
    }

    pub fn is_quiet(&self) -> bool {
        self.die_before_execute == 0.0
            && self.die_mid_execute == 0.0
            && self.die_before_delete == 0.0
    }

    /// Reject probabilities outside `[0, 1]`, naming the offender.
    pub fn validate(&self) -> Result<()> {
        for (name, p) in [
            ("die_before_execute", self.die_before_execute),
            ("die_mid_execute", self.die_mid_execute),
            ("die_before_delete", self.die_before_delete),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(PpcError::InvalidArgument(format!(
                    "fault plan: {name} = {p} is not a probability in [0, 1]"
                )));
            }
        }
        Ok(())
    }

    /// Map the i.i.d. pipeline-point dice onto the shared event-based
    /// [`FaultSchedule`] — the runtime queries only the schedule, so
    /// plan-based and event-based chaos go through one engine.
    pub fn to_schedule(&self) -> FaultSchedule {
        FaultSchedule::new(self.seed).with_death_probabilities(
            self.die_before_execute,
            self.die_mid_execute,
            self.die_before_delete,
        )
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_quiet_and_valid() {
        assert!(FaultPlan::NONE.is_quiet());
        assert!(FaultPlan::NONE.validate().is_ok());
        assert!(!FaultPlan::hostile(1).is_quiet());
        assert!(FaultPlan::hostile(1).validate().is_ok());
    }

    #[test]
    fn validation_names_the_bad_probability() {
        let mut p = FaultPlan::NONE;
        p.die_before_execute = 2.0;
        let e = p.validate().unwrap_err();
        assert_eq!(e.code(), "InvalidArgument");
        assert!(e.to_string().contains("die_before_execute"), "{e}");
        let mut p = FaultPlan::NONE;
        p.die_mid_execute = -0.5;
        assert!(p
            .validate()
            .unwrap_err()
            .to_string()
            .contains("die_mid_execute"));
    }

    #[test]
    fn mid_execute_counts_toward_quietness() {
        let mut p = FaultPlan::NONE;
        assert!(p.is_quiet());
        p.die_mid_execute = 0.1;
        assert!(!p.is_quiet());
    }

    #[test]
    fn schedule_mapping_preserves_dice() {
        let p = FaultPlan {
            die_before_execute: 0.1,
            die_mid_execute: 0.2,
            die_before_delete: 0.3,
            restart_delay_ms: 1,
            seed: 42,
        };
        let s = p.to_schedule();
        assert_eq!(s.seed(), 42);
        assert_eq!(s.die_before_execute, 0.1);
        assert_eq!(s.die_mid_execute, 0.2);
        assert_eq!(s.die_before_delete, 0.3);
        assert!(s.validate().is_ok());
        assert!(FaultPlan::NONE.to_schedule().is_quiet());
    }
}

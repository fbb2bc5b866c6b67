//! The executable-program abstraction all frameworks schedule.
//!
//! The paper's frameworks all wrap *existing sequential executables*:
//! "user can configure the workers to use any executable program in the
//! virtual machine to process the tasks, provided that it takes input in the
//! form of a file" (§2.1.3). [`Executor`] is that contract — bytes of one
//! input file in, bytes of one output file out — implemented by the Cap3
//! assembler, the BLAST searcher, the GTM interpolator, and test kernels.

use crate::cancel::Cancel;
use crate::task::TaskSpec;
use crate::Result;
use std::sync::Arc;

/// A pure, idempotent program applied to one input file.
///
/// Idempotence and determinism are *requirements*, not niceties: queue
/// redelivery and speculative execution mean the same task may run more than
/// once, possibly concurrently, and any copy's output must be acceptable
/// (paper §2.1.3: "Rare occurrences of multiple instances processing the
/// same task ... will not affect the result due to the idempotent nature of
/// the independent tasks").
pub trait Executor: Send + Sync {
    /// Process one task's input payload into its output payload.
    fn run(&self, spec: &TaskSpec, input: &[u8]) -> Result<Vec<u8>>;

    /// [`Executor::run`] for an attempt the runtime may kill: once `cancel`
    /// is set, an overriding executor stops at its next check and returns
    /// [`crate::PpcError::Cancelled`]. The default ignores the token and
    /// runs to completion, which is always correct (the runtime discards a
    /// killed attempt's output either way) but holds the slot until done.
    fn run_cancellable(&self, spec: &TaskSpec, input: &[u8], cancel: &Cancel) -> Result<Vec<u8>> {
        let _ = cancel;
        self.run(spec, input)
    }

    /// Human-readable name for logs and reports.
    fn name(&self) -> &str {
        "executor"
    }
}

/// Wrap a plain function (or closure) as an [`Executor`].
pub struct FnExecutor<F> {
    name: String,
    f: F,
}

impl<F> FnExecutor<F>
where
    F: Fn(&TaskSpec, &[u8]) -> Result<Vec<u8>> + Send + Sync,
{
    pub fn new(name: impl Into<String>, f: F) -> Arc<Self> {
        Arc::new(FnExecutor {
            name: name.into(),
            f,
        })
    }
}

impl<F> Executor for FnExecutor<F>
where
    F: Fn(&TaskSpec, &[u8]) -> Result<Vec<u8>> + Send + Sync,
{
    fn run(&self, spec: &TaskSpec, input: &[u8]) -> Result<Vec<u8>> {
        (self.f)(spec, input)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ResourceProfile;

    #[test]
    fn fn_executor_runs_closure() {
        let exec = FnExecutor::new(
            "upper",
            |_spec, input: &[u8]| Ok(input.to_ascii_uppercase()),
        );
        let spec = TaskSpec::new(1, "t", "in", ResourceProfile::cpu_bound(0.0));
        assert_eq!(exec.run(&spec, b"acgt").unwrap(), b"ACGT");
        assert_eq!(exec.name(), "upper");
    }

    #[test]
    fn executor_errors_propagate() {
        let exec = FnExecutor::new("boom", |_s, _i: &[u8]| {
            Err(crate::PpcError::TaskFailed("bad input".into()))
        });
        let spec = TaskSpec::new(1, "t", "in", ResourceProfile::cpu_bound(0.0));
        assert_eq!(exec.run(&spec, b"").unwrap_err().code(), "TaskFailed");
    }

    #[test]
    fn usable_as_trait_object_across_threads() {
        let exec: Arc<dyn Executor> = FnExecutor::new("id", |_s, i: &[u8]| Ok(i.to_vec()));
        let spec = TaskSpec::new(1, "t", "in", ResourceProfile::cpu_bound(0.0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let exec = exec.clone();
                let spec = spec.clone();
                s.spawn(move || {
                    assert_eq!(exec.run(&spec, b"x").unwrap(), b"x");
                });
            }
        });
    }
}

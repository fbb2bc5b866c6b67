//! The native MapReduce runtime: Hadoop's policy over the shared
//! [`SlotPool`] on a real `MiniHdfs`, and its report.
//!
//! Slots live on the datanodes, which makes data-local scheduling
//! meaningful, and share one partition, the global queue: a slot takes
//! [`Scheduler::next_at`]'s pick (a replica-local task, any task, then a
//! speculative duplicate), and a failed or cut attempt's task goes back in
//! the queue. The data path is the map, which reads its file from HDFS;
//! only a task's *first* completion commits (Hadoop's output committer), so
//! duplicates and retries can never corrupt results.

use crate::input::{compute_splits, InputSplit};
use crate::job::{MapContext, MapReduceJob, Mapper};
use crate::report::MapReduceReport;
use crate::scheduler::Scheduler;
use ppc_core::rng::Pcg32;
use ppc_core::task::TaskId;
use ppc_core::{PpcError, Result};
use ppc_exec::slots::{Attempt, Pick, Slot, SlotPolicy, SlotPool};
use ppc_exec::RunContext;
use ppc_hdfs::block::DataNodeId;
use ppc_hdfs::fs::MiniHdfs;
use ppc_resilience::{AttemptLedger, HedgeConfig};
use ppc_trace::Phase;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for the native runtime.
#[derive(Debug, Clone)]
pub struct HadoopConfig {
    /// Map slots per node (Hadoop's `mapred.tasktracker.map.tasks.maximum`).
    pub slots_per_node: usize,
    /// Injected probability that any map attempt fails (tests retries).
    pub attempt_failure_p: f64,
}

/// Seed of a run whose context sets none (per-slot RNG streams, and the
/// engine's `MiniHdfs` placement).
pub(crate) const DEFAULT_SEED: u64 = 0xad00;

impl Default for HadoopConfig {
    fn default() -> Self {
        HadoopConfig {
            slots_per_node: 2,
            attempt_failure_p: 0.0,
        }
    }
}

impl HadoopConfig {
    /// Reject nonsense configuration before any threads are spawned.
    pub fn validate(&self) -> Result<()> {
        if self.slots_per_node == 0 {
            return Err(PpcError::InvalidArgument(
                "hadoop config: slots_per_node must be at least 1".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.attempt_failure_p) {
            return Err(PpcError::InvalidArgument(format!(
                "hadoop config: attempt_failure_p = {} is not a probability in [0, 1]",
                self.attempt_failure_p
            )));
        }
        Ok(())
    }
}

/// Run a map-only job natively on the cluster underlying
/// `fs`: real threads, real HDFS reads, Hadoop's output-committer
/// discipline, retries and hedging/quarantine/deadlines from the shared
/// [`Scheduler`] + the context's [`ppc_resilience::ResiliencePolicy`].
/// The context's fleet plan is unused (the `MiniHdfs` defines the node
/// count, `config.slots_per_node` the slots). A malformed config or
/// context is an `InvalidArgument` error, returned before any thread
/// starts; without a context seed the run uses seed `0xad00`.
///
/// The context's fault schedule addresses workers by the flat slot index
/// `node * slots_per_node + slot`, each slot rolling its dice by its count
/// of tasks taken: a scheduled kill takes the whole tasktracker slot down
/// (its in-hand attempt fails and the surviving slots re-execute the task;
/// once every slot is dead, the tasks left fail), while the i.i.d. death
/// dice and torn uploads fail individual attempts — Hadoop's
/// output-committer discipline makes both recoverable.
pub fn run(
    ctx: &RunContext,
    fs: &Arc<MiniHdfs>,
    job: &MapReduceJob,
    mapper: &dyn Mapper,
    config: &HadoopConfig,
) -> Result<MapReduceReport> {
    job.validate()?;
    config.validate()?;
    ctx.validate()?;
    let seed = ctx.seed.unwrap_or(DEFAULT_SEED);
    let splits = compute_splits(fs, &job.input_paths)?;
    let hedge = match &ctx.resilience {
        Some(p) => p.hedge,
        None => Some(HedgeConfig::legacy_speculation()),
    };
    let sched = Scheduler::with_policy(splits.clone(), hedge, job.max_attempts);
    let (n_nodes, slots) = (fs.n_nodes(), config.slots_per_node);
    let rng = |w| Mutex::new(Pcg32::for_stream(seed, w as u64));
    let hadoop = Hadoop {
        fs,
        job,
        mapper,
        splits,
        failure_p: config.attempt_failure_p,
        rngs: (0..n_nodes * slots).map(rng).collect(),
        traced_hedges: ctx.resilience.is_some(),
        remote_bytes: AtomicU64::new(0),
        records: AtomicUsize::new(0),
    };
    let homes: Vec<_> = (0..n_nodes).flat_map(|n| [(n, 0)].repeat(slots)).collect();
    let (hadoop, mut run) = SlotPool::new(ctx, hadoop, sched, &homes).run();
    let remote_bytes = hadoop.remote_bytes.load(Relaxed);
    let mut failed: Vec<_> = run.failed.iter().map(|&(t, _)| TaskId(t as u64)).collect();
    failed.sort();
    let core = run.report("hadoop", run.finished_s, remote_bytes, failed, None);
    let stats = run.book.stats();
    Ok(MapReduceReport {
        core,
        scheduler: stats,
        // Per *assignment*, as in the simulator: duplicates count too.
        data_local_tasks: stats.local_assignments as usize,
        // Map-only: every emitted record is the job's output.
        map_output_records: hadoop.records.load(Relaxed),
        shuffle_records: hadoop.records.load(Relaxed),
    })
}

/// Hadoop's slot policy, and the map side's tallies.
struct Hadoop<'a> {
    fs: &'a Arc<MiniHdfs>,
    job: &'a MapReduceJob,
    mapper: &'a dyn Mapper,
    splits: Vec<InputSplit>,
    failure_p: f64,
    /// Each slot's injected-failure stream, by worker.
    rngs: Vec<Mutex<Pcg32>>,
    /// Whether duplicates are traced as hedges (a resilience policy's, not
    /// Hadoop's default speculation).
    traced_hedges: bool,
    remote_bytes: AtomicU64,
    /// Records emitted by committed attempts.
    records: AtomicUsize,
}

impl SlotPolicy for Hadoop<'_> {
    type Book = Scheduler;
    /// The map's emitted records.
    type Out = Vec<(String, Vec<u8>)>;
    const LAUNCH_PHASE: Phase = Phase::Dispatch;

    fn ledger(sched: &mut Scheduler) -> &mut AttemptLedger {
        sched.ledger()
    }

    fn task_id(&self, task: usize) -> TaskId {
        TaskId(task as u64)
    }

    fn take(&self, sched: &mut Scheduler, slot: &mut Slot, now_s: f64) -> Option<Pick> {
        let a = sched.next_at(DataNodeId(slot.node), now_s)?;
        if !a.local {
            self.remote_bytes
                .fetch_add(self.splits[a.split].len, Relaxed);
        }
        Some(Pick {
            task: a.id.task,
            launched: Some(a.id),
            dice: Some((slot.worker, slot.chaos.next_seq())),
            hedge: (a.speculative && self.traced_hedges).then_some(slot.worker),
        })
    }

    fn requeue(&self, sched: &mut Scheduler, task: usize) -> bool {
        sched.requeue(task);
        true
    }

    fn attempt(&self, a: &mut Attempt<'_, '_, Self>) -> Result<Self::Out> {
        // Any death die or a torn output costs exactly one failed attempt.
        a.dice()?;
        // HDFS brownout/partition: the client rides out the window instead
        // of burning an attempt.
        let outage = a.chaos().and_then(|s| s.storage_outage_until(a.now_s()));
        if let Some(wait) = outage.map(|until| until - a.now_s()).filter(|&w| w > 0.0) {
            let _ = a.cancel.sleep(Duration::from_secs_f64(wait));
        }
        let mut rng = self.rngs[a.slot.worker as usize].lock().unwrap();
        if self.failure_p > 0.0 && rng.chance(self.failure_p) {
            return Err(PpcError::Transient("injected attempt failure".into()));
        }
        drop(rng);
        let (split, node) = (&self.splits[a.id.task], DataNodeId(a.slot.node));
        let read = match split.hosts.contains(&node) {
            true => Phase::ReadLocal,
            false => Phase::ReadRemote,
        };
        let started = Instant::now();
        let mut ctx = MapContext::new(self.fs, node).with_cancel(a.cancel.clone());
        // The "read" is the split metadata itself; the span still closes
        // here so the phase set matches the simulator's.
        a.mark(read);
        let mapped = self
            .mapper
            .map(&split.name, split.path.as_bytes(), &mut ctx);
        let _ = a.stretch(started);
        a.mark(Phase::Map);
        // Killed by the committing attempt, or cut at the deadline.
        a.cancel.check()?;
        mapped?;
        Ok(ctx.finish().0)
    }

    fn commit(&self, a: &mut Attempt<'_, '_, Self>, emitted: Self::Out) {
        self.records.fetch_add(emitted.len(), Relaxed);
        // A dead local datanode can't take the write, so it pipelines
        // through any live one instead.
        for (key, value) in emitted {
            let path = format!("{}/{key}", self.job.output_dir);
            let local = self.fs.create(&path, &value, Some(DataNodeId(a.slot.node)));
            let created = local.or_else(|_| self.fs.create(&path, &value, None));
            if let Err(e) = created {
                assert!(e.code() == "AlreadyExists", "commit of '{path}' lost: {e}");
            }
        }
        // The committing attempt is the task's single terminal span.
        a.mark(Phase::Commit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ExecutableMapper;
    use ppc_chaos::FaultSchedule;
    use ppc_core::exec::FnExecutor;
    use ppc_core::{Cancel, PpcError};

    // Shorthands for the RunContext entry point on a local context.
    fn run_job(
        fs: &Arc<MiniHdfs>,
        job: &MapReduceJob,
        mapper: &dyn Mapper,
    ) -> Result<MapReduceReport> {
        crate::run(
            &RunContext::local(),
            fs,
            job,
            mapper,
            &HadoopConfig::default(),
        )
    }

    fn run_job_with(
        fs: &Arc<MiniHdfs>,
        job: &MapReduceJob,
        mapper: &dyn Mapper,
        config: &HadoopConfig,
    ) -> Result<MapReduceReport> {
        crate::run(&RunContext::local(), fs, job, mapper, config)
    }

    fn make_fs(n_nodes: usize, files: usize) -> (Arc<MiniHdfs>, Vec<String>) {
        let fs = MiniHdfs::new(n_nodes, 1 << 20, 2, 99);
        let mut paths = Vec::new();
        for i in 0..files {
            let p = format!("/in/f{i}");
            fs.create(&p, format!("data-{i}").as_bytes(), None).unwrap();
            paths.push(p);
        }
        (fs, paths)
    }

    #[test]
    fn map_only_executable_job() {
        let (fs, paths) = make_fs(4, 48);
        let job = MapReduceJob::map_only("upper", paths, "/out");
        // A small sleep keeps all 8 workers in play so the locality stat
        // reflects scheduling policy, not thread-spawn races.
        let exec = FnExecutor::new("upper", |_s, i: &[u8]| {
            std::thread::sleep(Duration::from_millis(2));
            Ok(i.to_ascii_uppercase())
        });
        let mapper = ExecutableMapper::new("upper", exec);
        let report = run_job(&fs, &job, &mapper).unwrap();
        assert!(report.is_complete());
        assert_eq!(report.summary.tasks, 48);
        for i in 0..48 {
            let out = fs.read(&format!("/out/f{i}.out")).unwrap();
            assert_eq!(out, format!("DATA-{i}").to_ascii_uppercase().into_bytes());
        }
        // With 2 replicas on 4 nodes, most tasks should be data-local.
        assert!(
            report.locality_fraction() > 0.5,
            "locality {}",
            report.locality_fraction()
        );
    }

    #[test]
    fn retries_recover_from_attempt_failures() {
        let (fs, paths) = make_fs(3, 20);
        let job = MapReduceJob::map_only("flaky", paths, "/out");
        let exec = FnExecutor::new("id", |_s, i: &[u8]| Ok(i.to_vec()));
        let mapper = ExecutableMapper::new("id", exec);
        let config = HadoopConfig {
            attempt_failure_p: 0.3,
            ..HadoopConfig::default()
        };
        let ctx = RunContext::local().with_seed(7);
        let report = crate::run(&ctx, &fs, &job, &mapper, &config).unwrap();
        assert!(report.is_complete(), "failed: {:?}", report.failed);
        assert!(
            report.scheduler.retries > 0,
            "some attempts must have failed"
        );
        assert_eq!(fs.list("/out/").len(), 20);
    }

    #[test]
    fn poison_task_fails_job_partially() {
        let (fs, paths) = make_fs(2, 5);
        let job = MapReduceJob::map_only("poison", paths, "/out");
        let exec = FnExecutor::new("poison", |spec: &ppc_core::TaskSpec, i: &[u8]| {
            if spec.input_key == "f2" {
                Err(PpcError::TaskFailed("bad".into()))
            } else {
                Ok(i.to_vec())
            }
        });
        let mapper = ExecutableMapper::new("poison", exec);
        let report = run_job(&fs, &job, &mapper).unwrap();
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.summary.tasks, 4);
    }

    #[test]
    fn speculative_execution_rescues_straggler() {
        let (fs, paths) = make_fs(2, 6);
        let job = MapReduceJob::map_only("slow", paths, "/out");
        let exec = FnExecutor::new("nap", |_s, i: &[u8]| {
            std::thread::sleep(Duration::from_millis(5));
            Ok(i.to_vec())
        });
        let mapper = ExecutableMapper::new("nap", exec);
        // Slot 0 is gray for the job's first 100 ms: its first 5-ms task
        // stretches 60x, to about 300 ms, unless a duplicate commits first.
        let ctx = RunContext::local()
            .with_schedule(Arc::new(FaultSchedule::new(1).degrade(0, 60.0, 0.0, 0.1)));
        let config = HadoopConfig {
            slots_per_node: 2,
            ..HadoopConfig::default()
        };
        let report = crate::run(&ctx, &fs, &job, &mapper, &config).unwrap();
        assert!(report.is_complete());
        assert!(
            report.scheduler.speculative_assignments > 0,
            "a duplicate was launched"
        );
        // The job finished well before the straggler's 300 ms nap.
        assert!(
            report.summary.makespan_seconds < 0.25,
            "speculation should hide the straggler: {}s",
            report.summary.makespan_seconds
        );
    }

    /// Threads of this process whose OS name is `name`; threads inherit
    /// their creator's name, so this counts a named probe thread and
    /// everything it spawned.
    fn threads_named(name: &str) -> usize {
        std::fs::read_dir("/proc/self/task").map_or(0, |tasks| {
            tasks
                .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                .filter(|comm| comm.trim_end() == name)
                .count()
        })
    }

    /// Upper-cases its input after a [`Cancel::sleep`] of 150 ms for `f0`
    /// and 200 ms for every other file.
    struct Napper;

    impl ppc_core::Executor for Napper {
        fn run(&self, spec: &ppc_core::TaskSpec, input: &[u8]) -> Result<Vec<u8>> {
            self.run_cancellable(spec, input, &Cancel::never())
        }

        fn run_cancellable(
            &self,
            spec: &ppc_core::TaskSpec,
            input: &[u8],
            cancel: &Cancel,
        ) -> Result<Vec<u8>> {
            let ms = if spec.input_key == "f0" { 150 } else { 200 };
            cancel.sleep(Duration::from_millis(ms))?;
            Ok(input.to_ascii_uppercase())
        }
    }

    #[test]
    fn committed_task_kills_its_speculative_duplicate() {
        const PROBE: &str = "mr-kill";
        // One node, two slots, legacy speculation: the slot that finishes
        // `f0` at 150 ms duplicates the other task, whose original commits
        // at 200 ms. Left alone, the duplicate would hold the job until
        // 350 ms; killed, the job ends with the original.
        let (fs, paths) = make_fs(1, 2);
        let job = MapReduceJob::map_only("kill", paths, "/out");
        let mapper = ExecutableMapper::new("upper", Arc::new(Napper));
        let config = HadoopConfig {
            slots_per_node: 2,
            ..HadoopConfig::default()
        };
        let start = Instant::now();
        let report = std::thread::scope(|s| {
            std::thread::Builder::new()
                .name(PROBE.into())
                .spawn_scoped(s, || run_job_with(&fs, &job, &mapper, &config))
                .unwrap()
                .join()
                .unwrap()
        })
        .unwrap();
        let wall = start.elapsed().as_secs_f64();
        assert!(wall < 0.3, "duplicate not killed: wall {wall}s");
        assert!(
            wall - report.summary.makespan_seconds < 0.05,
            "tail past the last commit: wall {wall}s, makespan {}s",
            report.summary.makespan_seconds
        );
        assert!(report.is_complete());
        for i in 0..2 {
            let out = fs.read(&format!("/out/f{i}.out")).unwrap();
            assert_eq!(out, format!("DATA-{i}").into_bytes());
        }
        assert!(report.scheduler.speculative_assignments >= 1);
        assert_eq!(
            report.total_attempts,
            report.summary.tasks + report.summary.redundant_executions
        );
        // Scoped threads are joined; give the kernel a moment to reap them.
        let reaped = Instant::now();
        while threads_named(PROBE) > 0 && reaped.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(threads_named(PROBE), 0, "worker threads leaked");
    }

    /// Passes its input through after a [`Cancel::sleep`] of 60 ms, noting
    /// how long each call's sleep ran before it returned.
    struct Overrunner(Mutex<Vec<Duration>>);

    impl ppc_core::Executor for Overrunner {
        fn run(&self, spec: &ppc_core::TaskSpec, input: &[u8]) -> Result<Vec<u8>> {
            self.run_cancellable(spec, input, &Cancel::never())
        }

        fn run_cancellable(
            &self,
            _spec: &ppc_core::TaskSpec,
            input: &[u8],
            cancel: &Cancel,
        ) -> Result<Vec<u8>> {
            let started = Instant::now();
            let slept = cancel.sleep(Duration::from_millis(60));
            self.0.lock().unwrap().push(started.elapsed());
            slept.map(|()| input.to_vec())
        }
    }

    #[test]
    fn deadline_cuts_attempts_on_a_node_with_no_idle_slot() {
        // One node, one slot: no slot is ever idle while the attempt runs,
        // so the master must cut it. Every 60-ms attempt is cut at the
        // 30-ms deadline, and the task fails after its three attempts
        // (run to the end, they would take 180 ms).
        let (fs, paths) = make_fs(1, 1);
        let mut job = MapReduceJob::map_only("overrun", paths, "/out");
        job.max_attempts = 3;
        let exec = Arc::new(Overrunner(Mutex::new(Vec::new())));
        let mapper = ExecutableMapper::new("overrun", exec.clone());
        let ctx = RunContext::local()
            .with_resilience(ppc_resilience::ResiliencePolicy::default().with_deadline(0.03));
        let config = HadoopConfig {
            slots_per_node: 1,
            ..HadoopConfig::default()
        };
        let start = Instant::now();
        let report = crate::run(&ctx, &fs, &job, &mapper, &config).unwrap();
        let wall = start.elapsed();
        assert_eq!(report.failed, vec![TaskId(0)]);
        assert_eq!(report.total_attempts, 3);
        let ran = exec.0.lock().unwrap();
        assert_eq!(ran.len(), 3, "one call per attempt");
        for d in ran.iter() {
            let ms = d.as_secs_f64() * 1e3;
            assert!(
                (25.0..55.0).contains(&ms),
                "attempt ran {ms:.1} ms, not cut near 30"
            );
        }
        assert!(
            wall < Duration::from_millis(150),
            "task failed after {wall:?}"
        );
    }

    #[test]
    fn empty_job_rejected() {
        let (fs, _) = make_fs(2, 1);
        let job = MapReduceJob::map_only("e", vec![], "/out");
        let exec = FnExecutor::new("id", |_s, i: &[u8]| Ok(i.to_vec()));
        let mapper = ExecutableMapper::new("id", exec);
        assert!(run_job(&fs, &job, &mapper).is_err());
    }

    #[test]
    fn invalid_config_rejected_up_front() {
        let (fs, paths) = make_fs(2, 2);
        let job = MapReduceJob::map_only("bad", paths, "/out");
        let exec = FnExecutor::new("id", |_s, i: &[u8]| Ok(i.to_vec()));
        let mapper = ExecutableMapper::new("id", exec);
        let config = HadoopConfig {
            attempt_failure_p: 1.5,
            ..HadoopConfig::default()
        };
        let err = run_job_with(&fs, &job, &mapper, &config).unwrap_err();
        assert_eq!(err.code(), "InvalidArgument");

        let ctx =
            RunContext::local().with_schedule(Arc::new(FaultSchedule::new(1).brownout(0.5, 0.1)));
        let err = crate::run(&ctx, &fs, &job, &mapper, &HadoopConfig::default()).unwrap_err();
        assert_eq!(err.code(), "InvalidArgument");
    }

    #[test]
    fn scheduled_kills_are_recovered_by_reexecution() {
        let (fs, paths) = make_fs(3, 24);
        let mut job = MapReduceJob::map_only("chaos", paths, "/out");
        // Retry-budget headroom: the 5% death dice occasionally fail one
        // task several attempts in a row; the test is about recovery, not
        // about the default budget being generous enough for bad luck.
        job.max_attempts = 12;
        let exec = FnExecutor::new("id", |_s, i: &[u8]| {
            std::thread::sleep(Duration::from_millis(2));
            Ok(i.to_vec())
        });
        let mapper = ExecutableMapper::new("id", exec);
        // Kill two of the six slots early; degrade another; roll dice
        // everywhere. The job must still produce every output exactly once.
        let schedule = FaultSchedule::new(11)
            .kill_at(0, 0.004)
            .kill_at(4, 0.010)
            .degrade(2, 3.0, 0.0, 0.060)
            .with_death_probabilities(0.05, 0.05, 0.05);
        let ctx = RunContext::local().with_schedule(Arc::new(schedule));
        let report = crate::run(&ctx, &fs, &job, &mapper, &HadoopConfig::default()).unwrap();
        assert!(report.is_complete(), "failed: {:?}", report.failed);
        assert_eq!(report.summary.tasks, 24);
        assert!(
            report.scheduler.retries > 0,
            "chaos must have failed some attempts"
        );
        assert_eq!(fs.list("/out/").len(), 24);
    }

    #[test]
    fn every_slot_killed_fails_the_tasks_left() {
        // One node, two slots, both killed at 1 ms: each finishes at most
        // the task in hand when the kill lands, then dies with its next
        // one. Nothing is left to run the rest, so they must fail.
        let (fs, paths) = make_fs(1, 8);
        let job = MapReduceJob::map_only("dead", paths, "/out");
        let exec = FnExecutor::new("nap", |_s, i: &[u8]| {
            std::thread::sleep(Duration::from_millis(5));
            Ok(i.to_vec())
        });
        let mapper = ExecutableMapper::new("nap", exec);
        let schedule = FaultSchedule::new(1).kill_at(0, 0.001).kill_at(1, 0.001);
        let ctx = RunContext::local().with_schedule(Arc::new(schedule));
        let report = crate::run(&ctx, &fs, &job, &mapper, &HadoopConfig::default()).unwrap();
        assert_eq!(report.summary.tasks + report.failed.len(), 8);
        assert!(!report.is_complete(), "failed: {:?}", report.failed);
        assert_eq!(fs.list("/out/").len(), report.summary.tasks);
    }

    #[test]
    fn storage_brownout_stalls_but_completes() {
        let (fs, paths) = make_fs(2, 12);
        let job = MapReduceJob::map_only("brown", paths, "/out");
        let exec = FnExecutor::new("id", |_s, i: &[u8]| Ok(i.to_vec()));
        let mapper = ExecutableMapper::new("id", exec);
        let schedule = FaultSchedule::new(3).brownout(0.0, 0.030);
        let ctx = RunContext::local().with_schedule(Arc::new(schedule));
        let report = crate::run(&ctx, &fs, &job, &mapper, &HadoopConfig::default()).unwrap();
        assert!(report.is_complete());
        // Every worker rode out the 30 ms outage window before reading.
        assert!(
            report.summary.makespan_seconds >= 0.030,
            "brownout must stall the job: {}s",
            report.summary.makespan_seconds
        );
    }
}

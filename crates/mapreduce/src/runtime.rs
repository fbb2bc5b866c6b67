//! The native MapReduce runtime: real threads over a real `MiniHdfs`.
//!
//! Compute is co-located with storage, Hadoop style: worker slots live on
//! the same nodes as the datanodes, which is what makes data-local
//! scheduling meaningful. Map outputs are committed only for the *first*
//! completion of a task (Hadoop's output-committer discipline), so
//! speculative duplicates and retries can never corrupt results. Once that
//! commit lands, the ledger fires the task's other attempts'
//! [`Cancel`](ppc_core::Cancel) tokens, as Hadoop's JobTracker kills the
//! losing attempts. Under a deadline the master, on the calling thread,
//! cuts each attempt that overruns it the same way, and the cut fails the
//! attempt.

use crate::input::{compute_splits, InputFormat};
use crate::job::{partition_for, MapContext, MapReduceJob, Mapper, Reducer};
use crate::report::MapReduceReport;
use crate::scheduler::{AttemptId, CompleteOutcome, Scheduler};
use ppc_chaos::RunClock;
use ppc_core::metrics::RunSummary;
use ppc_core::rng::Pcg32;
use ppc_core::task::TaskId;
use ppc_core::{PpcError, Result};
use ppc_exec::{HealthTrace, RunContext, RunReport};
use ppc_hdfs::block::DataNodeId;
use ppc_hdfs::fs::MiniHdfs;
use ppc_resilience::{Admit, HealthTracker, HedgeConfig};
use ppc_trace::{AttemptMarker, EventKind, Phase, RunMeta, Span, TraceEvent};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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

/// Poll sleep of a slot with no work yet, and of the deadline master.
const POLL_BACKOFF: Duration = Duration::from_micros(200);

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

/// Run a job (map-only or map+reduce) natively on the cluster underlying
/// `fs`: real threads, real HDFS reads, Hadoop's output-committer
/// discipline, retries and hedging/quarantine/deadlines from the shared
/// [`Scheduler`] + the context's [`ppc_resilience::ResiliencePolicy`].
/// The context's fleet plan is unused (the `MiniHdfs` defines the node
/// count, `config.slots_per_node` the slots). A malformed config or
/// context is an `InvalidArgument` error, returned before any thread
/// starts; without a context seed the run uses seed `0xad00`.
///
/// The context's fault schedule addresses workers by the flat slot index
/// `node * slots_per_node + slot`: a scheduled kill takes the whole
/// tasktracker slot down (its in-hand attempt fails and the surviving
/// slots re-execute the task), while the i.i.d. death dice and torn
/// uploads fail individual attempts — Hadoop's output-committer
/// discipline makes both recoverable.
pub fn run(
    ctx: &RunContext,
    fs: &Arc<MiniHdfs>,
    job: &MapReduceJob,
    mapper: &dyn Mapper,
    reducer: Option<&dyn Reducer>,
    config: &HadoopConfig,
) -> Result<MapReduceReport> {
    job.validate()?;
    config.validate()?;
    ctx.validate()?;
    let seed = ctx.seed.unwrap_or(DEFAULT_SEED);
    let splits = compute_splits(fs, &job.input_paths)?;
    let n_tasks = splits.len();
    // No policy means Hadoop's default speculation.
    let hedge = match &ctx.resilience {
        Some(p) => p.hedge,
        None => Some(HedgeConfig::legacy_speculation()),
    };
    let health: Option<Mutex<HealthTracker>> = ctx
        .resilience
        .and_then(|p| p.quarantine)
        .map(|q| Mutex::new(HealthTracker::new(q)));
    let health = health.as_ref();
    let deadline = ctx.resilience.and_then(|p| p.deadline);
    let sched = Mutex::new(Scheduler::with_policy(splits, hedge, job.max_attempts));

    // Map-side state.
    let intermediate: Mutex<Vec<(String, Vec<u8>)>> = Mutex::new(Vec::new());
    let data_local_tasks = AtomicUsize::new(0);
    let total_attempts = AtomicUsize::new(0);
    let map_output_records = AtomicUsize::new(0);
    let shuffle_records = AtomicUsize::new(0);
    let remote_bytes = AtomicU64::new(0);
    let worker_deaths = AtomicUsize::new(0);
    let map_done_at: Mutex<Option<Instant>> = Mutex::new(None);

    let start = Instant::now();
    let clock = RunClock::start();
    let n_nodes = fs.n_nodes();
    let sink = ctx.sink.as_deref().filter(|s| s.enabled());
    // Score a finished attempt (`None` = failed) of `worker` into the
    // health tracker, which traces any bench it imposes. Never called
    // under the scheduler lock: the health gate takes the two in the other
    // order.
    let score = |worker: u32, latency_s: Option<f64>, now_s: f64| {
        if let Some(h) = health {
            let sink = HealthTrace(sink);
            h.lock().unwrap().record(worker, latency_s, now_s, &sink);
        }
    };
    // Record a trace event, when tracing.
    let event = |worker: u32, kind: EventKind, at_s: f64| {
        if let Some(s) = sink {
            s.event(TraceEvent { at_s, worker, kind });
        }
    };

    std::thread::scope(|scope| {
        let mut slots = Vec::new();
        for node in 0..n_nodes {
            for slot in 0..config.slots_per_node {
                let sched = &sched;
                let score = &score;
                let event = &event;
                let intermediate = &intermediate;
                let data_local_tasks = &data_local_tasks;
                let total_attempts = &total_attempts;
                let remote_bytes = &remote_bytes;
                let worker_deaths = &worker_deaths;
                let map_done_at = &map_done_at;
                let map_output_records = &map_output_records;
                let shuffle_records = &shuffle_records;
                let fs = fs.clone();
                let clock = &clock;
                slots.push(scope.spawn(move || {
                    let node_id = DataNodeId(node);
                    let worker = (node * config.slots_per_node + slot) as u32;
                    let score =
                        |latency_s: Option<f64>, now_s: f64| score(worker, latency_s, now_s);
                    // Fail attempt `id` and score the failure, unless a
                    // deadline cut already did both.
                    let fail = |id: AttemptId| {
                        if settle(sched, id, |s| s.fail(id)).is_some() {
                            score(None, clock.now_s());
                        }
                    };
                    event(worker, EventKind::WorkerStart, clock.now_s());
                    let chaos = ctx.schedule.as_deref();
                    let mut task_seq: u32 = 0;
                    let mut last_kill_s: f64 = 0.0;
                    let mut rng = Pcg32::for_stream(seed, worker as u64);
                    loop {
                        // Health gate: a benched worker sleeps instead of
                        // taking work; an expired bench releases here.
                        if let Some(h) = health {
                            let now_s = clock.now_s();
                            let mut tracker = h.lock().unwrap();
                            if sched.lock().unwrap().is_complete() {
                                break;
                            }
                            if tracker.admit(worker, now_s, &HealthTrace(sink)) != Admit::Go {
                                drop(tracker);
                                std::thread::sleep(POLL_BACKOFF);
                                continue;
                            }
                        }
                        let poll_at = sink.map(|_| clock.now_s());
                        let (assignment, cancel, split) = {
                            let mut s = sched.lock().unwrap();
                            if s.is_complete() {
                                break;
                            }
                            let Some(a) = s.next_at(node_id, clock.now_s()) else {
                                drop(s);
                                std::thread::sleep(POLL_BACKOFF);
                                continue;
                            };
                            let split = s.split(a.split).clone();
                            let cancel = s.arm(a.id, worker);
                            (a, cancel, split)
                        };
                        let attempt_began_s = clock.now_s();
                        if assignment.speculative && ctx.resilience.is_some() {
                            event(worker, EventKind::Hedge, attempt_began_s);
                        }
                        // Master → slot handoff done: the Dispatch phase
                        // covers the poll and the scheduling decision.
                        let mut tt = sink.map(|s| {
                            let mut tt = AttemptMarker::new(
                                s,
                                assignment.id.task as u64,
                                assignment.id.attempt,
                                worker,
                                poll_at.unwrap_or(0.0),
                            );
                            tt.mark(Phase::Dispatch, clock.now_s());
                            tt
                        });
                        total_attempts.fetch_add(1, Ordering::Relaxed);
                        // Locality accounting is per *assignment*, matching
                        // the simulator: speculative duplicates count too.
                        if assignment.local {
                            data_local_tasks.fetch_add(1, Ordering::Relaxed);
                        } else {
                            remote_bytes.fetch_add(split.len, Ordering::Relaxed);
                        }

                        let seq = task_seq;
                        task_seq += 1;
                        if let Some(schedule) = chaos {
                            // A scheduled kill takes the whole slot down: the
                            // in-hand attempt fails and this thread exits, so
                            // the task re-runs on a surviving slot.
                            let now_s = clock.now_s();
                            if schedule.kills_in(worker, last_kill_s, now_s) {
                                worker_deaths.fetch_add(1, Ordering::Relaxed);
                                event(worker, EventKind::Death, now_s);
                                let id = assignment.id;
                                settle(sched, id, |s| s.fail(id));
                                break;
                            }
                            last_kill_s = now_s;
                            // I.i.d. crash before the attempt does any work.
                            if schedule.die_before_execute(worker, seq) {
                                worker_deaths.fetch_add(1, Ordering::Relaxed);
                                event(worker, EventKind::Death, clock.now_s());
                                fail(assignment.id);
                                continue;
                            }
                            // HDFS brownout/partition: the client rides out
                            // the window (like the cloud-storage retry path)
                            // instead of burning the task's attempt budget.
                            if let Some(until) = schedule.storage_outage_until(clock.now_s()) {
                                let wait = until - clock.now_s();
                                if wait > 0.0 {
                                    let _ = cancel.sleep(Duration::from_secs_f64(wait));
                                }
                            }
                        }

                        // Injected attempt failure.
                        if config.attempt_failure_p > 0.0 && rng.chance(config.attempt_failure_p) {
                            fail(assignment.id);
                            continue;
                        }
                        let read_phase = if assignment.local {
                            Phase::ReadLocal
                        } else {
                            Phase::ReadRemote
                        };
                        let map_started = Instant::now();
                        let mut ctx = MapContext::new(&fs, node_id).with_cancel(cancel.clone());
                        let map_result = match job.input_format {
                            InputFormat::FileName => {
                                // The "read" is the split metadata itself;
                                // the span still closes here so the phase
                                // set matches the simulator's.
                                if let Some(tt) = tt.as_mut() {
                                    tt.mark(read_phase, clock.now_s());
                                }
                                mapper.map(&split.name, split.path.as_bytes(), &mut ctx)
                            }
                            InputFormat::WholeFile => match ctx.read(&split.path) {
                                Ok(data) => {
                                    if let Some(tt) = tt.as_mut() {
                                        tt.mark(read_phase, clock.now_s());
                                    }
                                    mapper.map(&split.path, &data, &mut ctx)
                                }
                                Err(e) => Err(e),
                            },
                        };
                        if let Some(schedule) = chaos {
                            // Gray degradation: stretch the attempt by the
                            // schedule's slowdown factor for this worker.
                            let factor = schedule.slowdown(worker, clock.now_s());
                            if factor > 1.0 {
                                let _ = cancel.sleep(map_started.elapsed().mul_f64(factor - 1.0));
                            }
                        }
                        if cancel.is_cancelled() {
                            // Killed by the task's committing attempt: the
                            // span closes at the kill, and the loser leaves
                            // as a duplicate without touching the retry
                            // budget, the quarantine streak or the latency
                            // estimate. (Cut at its deadline instead: the
                            // master already failed it.)
                            let now_s = clock.now_s();
                            if let Some(tt) = tt.as_mut() {
                                tt.mark(Phase::Map, now_s);
                            }
                            let id = assignment.id;
                            if settle(sched, id, |s| s.release_cancelled(id)).is_some() {
                                event(worker, EventKind::Cancel, now_s);
                            }
                            continue;
                        }
                        if let Some(tt) = tt.as_mut() {
                            tt.mark(Phase::Map, clock.now_s());
                        }
                        if let Some(schedule) = chaos {
                            // Mid-execution death, a torn output, or dying
                            // before reporting all surface as a failed
                            // attempt: the output committer only commits the
                            // first *completed* attempt, so partial output
                            // can never reach the output directory.
                            let died = schedule.die_mid_execute(worker, seq)
                                || schedule.die_before_delete(worker, seq);
                            if died || schedule.is_torn_upload(worker, seq) {
                                if died {
                                    worker_deaths.fetch_add(1, Ordering::Relaxed);
                                    event(worker, EventKind::Death, clock.now_s());
                                }
                                fail(assignment.id);
                                continue;
                            }
                        }
                        match map_result {
                            Ok(()) => {
                                let (mut emitted, _all_local) = ctx.finish();
                                let map_records = emitted.len();
                                // Map-side combine: fold each key's values
                                // with the reducer before the shuffle.
                                if job.use_combiner && job.n_reducers > 0 {
                                    if let Some(reducer) = reducer {
                                        let mut grouped: BTreeMap<String, Vec<Vec<u8>>> =
                                            BTreeMap::new();
                                        for (k, v) in emitted.drain(..) {
                                            grouped.entry(k).or_default().push(v);
                                        }
                                        for (k, vs) in grouped {
                                            match reducer.reduce(&k, &vs) {
                                                Ok(combined) => emitted.push((k, combined)),
                                                Err(_) => {
                                                    // Combining is an optimization;
                                                    // fall back to raw records.
                                                    for v in vs {
                                                        emitted.push((k.clone(), v));
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                                let done_s = clock.now_s();
                                // A first commit kills the task's other
                                // live attempts.
                                let id = assignment.id;
                                let settled = settle(sched, id, |s| {
                                    (s.complete_at(id, done_s), s.is_complete())
                                });
                                let Some((outcome, job_done)) = settled else {
                                    // Cut at its deadline while finishing.
                                    continue;
                                };
                                score(Some(done_s - attempt_began_s), done_s);
                                match outcome {
                                    CompleteOutcome::First => {
                                        // Only the committing attempt's
                                        // records count; a speculative
                                        // duplicate's are discarded below.
                                        map_output_records
                                            .fetch_add(map_records, Ordering::Relaxed);
                                        shuffle_records.fetch_add(emitted.len(), Ordering::Relaxed);
                                        if job.n_reducers == 0 {
                                            // Map-only: commit outputs directly.
                                            // A dead local datanode can't take
                                            // the write; pipeline through any
                                            // live one instead of losing the
                                            // committed output.
                                            for (key, value) in emitted {
                                                let path = format!("{}/{key}", job.output_dir);
                                                let created = fs
                                                    .create(&path, &value, Some(node_id))
                                                    .or_else(|_| fs.create(&path, &value, None));
                                                if let Err(e) = created {
                                                    let exists = e.code() == "AlreadyExists";
                                                    assert!(exists, "commit of '{path}' lost: {e}");
                                                }
                                            }
                                        } else {
                                            intermediate.lock().unwrap().extend(emitted);
                                        }
                                        if job_done {
                                            *map_done_at.lock().unwrap() = Some(Instant::now());
                                        }
                                        // The committing attempt is the
                                        // task's single terminal span.
                                        if let Some(tt) = tt.as_mut() {
                                            tt.mark(Phase::Commit, clock.now_s());
                                        }
                                    }
                                    CompleteOutcome::Duplicate => { /* discard redundant output */ }
                                }
                            }
                            Err(_) => fail(assignment.id),
                        }
                    }
                }));
            }
        }
        // Hadoop's task timeout: while the slots run, the master cuts each
        // attempt past the deadline. It fails the attempt in the ledger and
        // cancels its token, so the attempt stops at its kernel's next
        // check, even on a node with no idle slot, and the task re-runs.
        if let Some(d) = deadline {
            while !slots.iter().all(|slot| slot.is_finished()) {
                let now_s = clock.now_s();
                let cut = sched.lock().unwrap().cut_overdue(now_s, d.timeout_s);
                let Some(worker) = cut else {
                    std::thread::sleep(POLL_BACKOFF);
                    continue;
                };
                event(worker, EventKind::Cancel, now_s);
                score(worker, None, now_s);
            }
        }
    });

    // Reduce phase (if any): shuffle by key, reduce each partition.
    if let Some(reducer) = reducer {
        if job.n_reducers > 0 {
            let all = std::mem::take(&mut *intermediate.lock().unwrap());
            let mut partitions: Vec<BTreeMap<String, Vec<Vec<u8>>>> =
                vec![BTreeMap::new(); job.n_reducers];
            for (key, value) in all {
                let p = partition_for(&key, job.n_reducers);
                partitions[p].entry(key).or_default().push(value);
            }
            let results: Mutex<Vec<(usize, Vec<u8>)>> = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for (i, part) in partitions.iter().enumerate() {
                    let results = &results;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for (key, values) in part {
                            if let Ok(reduced) = reducer.reduce(key, values) {
                                out.extend_from_slice(key.as_bytes());
                                out.push(b'\t');
                                out.extend_from_slice(&reduced);
                                out.push(b'\n');
                            }
                        }
                        results.lock().unwrap().push((i, out));
                    });
                }
            });
            for (i, data) in results.into_inner().unwrap() {
                let path = format!("{}/part-r-{:05}", job.output_dir, i);
                let _ = fs.create(&path, &data, None);
            }
        }
    }

    let sched = sched.into_inner().unwrap();
    let failed = sched.failed_tasks();
    let finished = if job.n_reducers == 0 {
        map_done_at
            .into_inner()
            .unwrap()
            .unwrap_or_else(Instant::now)
    } else {
        Instant::now() // reduce phase is part of the makespan
    };
    let stats = sched.stats();
    let attempts = total_attempts.load(Ordering::Relaxed);
    let done = sched.n_done();
    let makespan = finished.duration_since(start).as_secs_f64();

    // The trace's meta carries the *same* f64 makespan and core count as
    // the summary, so efficiency recomputed from the job span matches the
    // report's exactly.
    let trace = sink.and_then(|s| {
        s.set_meta(RunMeta {
            platform: "hadoop".into(),
            cores: n_nodes * config.slots_per_node,
            tasks: done,
            makespan_seconds: makespan,
        });
        s.span(Span::job(makespan));
        s.snapshot()
    });

    Ok(MapReduceReport {
        core: RunReport {
            summary: RunSummary {
                platform: "hadoop".into(),
                cores: n_nodes * config.slots_per_node,
                tasks: done,
                makespan_seconds: makespan,
                redundant_executions: stats.duplicate_completions as usize,
                remote_bytes: remote_bytes.load(Ordering::Relaxed),
            },
            failed: failed.iter().map(|&i| TaskId(i as u64)).collect(),
            total_attempts: attempts,
            worker_deaths: worker_deaths.load(Ordering::Relaxed),
            cost: None,
            trace,
        },
        scheduler: stats,
        data_local_tasks: data_local_tasks.load(Ordering::Relaxed),
        map_output_records: map_output_records.load(Ordering::Relaxed),
        shuffle_records: shuffle_records.load(Ordering::Relaxed),
    })
    .inspect(|r| {
        debug_assert!(r.summary.tasks + r.failed.len() == n_tasks);
    })
}

/// Settle attempt `id` with `op` unless a deadline cut already did (`None`).
fn settle<R>(
    sched: &Mutex<Scheduler>,
    id: AttemptId,
    op: impl FnOnce(&mut Scheduler) -> R,
) -> Option<R> {
    let mut s = sched.lock().unwrap();
    s.is_live(id).then(|| op(&mut s))
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
        reducer: Option<&dyn Reducer>,
    ) -> Result<MapReduceReport> {
        crate::run(
            &RunContext::local(),
            fs,
            job,
            mapper,
            reducer,
            &HadoopConfig::default(),
        )
    }

    fn run_job_with(
        fs: &Arc<MiniHdfs>,
        job: &MapReduceJob,
        mapper: &dyn Mapper,
        reducer: Option<&dyn Reducer>,
        config: &HadoopConfig,
    ) -> Result<MapReduceReport> {
        crate::run(&RunContext::local(), fs, job, mapper, reducer, config)
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
        let report = run_job(&fs, &job, &mapper, None).unwrap();
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
        let report = crate::run(&ctx, &fs, &job, &mapper, None, &config).unwrap();
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
        let report = run_job(&fs, &job, &mapper, None).unwrap();
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
        let report = crate::run(&ctx, &fs, &job, &mapper, None, &config).unwrap();
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
                .spawn_scoped(s, || run_job_with(&fs, &job, &mapper, None, &config))
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
        let report = crate::run(&ctx, &fs, &job, &mapper, None, &config).unwrap();
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
    fn word_count_with_reduce_phase() {
        let fs = MiniHdfs::new(2, 1 << 20, 2, 5);
        fs.create("/in/d0", b"apple banana apple", None).unwrap();
        fs.create("/in/d1", b"banana cherry", None).unwrap();
        let job = MapReduceJob::map_only("wc", vec!["/in/d0".into(), "/in/d1".into()], "/out")
            .with_input_format(InputFormat::WholeFile)
            .with_reducers(2);

        struct WcMapper;
        impl Mapper for WcMapper {
            fn map(&self, _key: &str, value: &[u8], ctx: &mut MapContext<'_>) -> Result<()> {
                for word in String::from_utf8_lossy(value).split_whitespace() {
                    ctx.emit(word.to_string(), vec![1]);
                }
                Ok(())
            }
        }
        struct WcReducer;
        impl Reducer for WcReducer {
            fn reduce(&self, _key: &str, values: &[Vec<u8>]) -> Result<Vec<u8>> {
                Ok(values.len().to_string().into_bytes())
            }
        }
        let report = run_job(&fs, &job, &WcMapper, Some(&WcReducer)).unwrap();
        assert!(report.is_complete());
        // Gather all reduce outputs and check the counts.
        let mut combined = String::new();
        for p in fs.list("/out/") {
            combined.push_str(&String::from_utf8(fs.read(&p).unwrap()).unwrap());
        }
        assert!(combined.contains("apple\t2"), "{combined}");
        assert!(combined.contains("banana\t2"), "{combined}");
        assert!(combined.contains("cherry\t1"), "{combined}");
    }

    #[test]
    fn map_side_combiner_shrinks_shuffle_without_changing_results() {
        // Word count with a *sum* reducer (valid as a combiner, unlike a
        // count reducer): values are ASCII numbers summed at each stage.
        struct WcMapper;
        impl Mapper for WcMapper {
            fn map(&self, _key: &str, value: &[u8], ctx: &mut MapContext<'_>) -> Result<()> {
                for word in String::from_utf8_lossy(value).split_whitespace() {
                    ctx.emit(word.to_string(), b"1".to_vec());
                }
                Ok(())
            }
        }
        struct SumReducer;
        impl Reducer for SumReducer {
            fn reduce(&self, _key: &str, values: &[Vec<u8>]) -> Result<Vec<u8>> {
                let total: u64 = values
                    .iter()
                    .map(|v| String::from_utf8_lossy(v).parse::<u64>().unwrap_or(0))
                    .sum();
                Ok(total.to_string().into_bytes())
            }
        }

        let run = |combine: bool| {
            let fs = MiniHdfs::new(2, 1 << 20, 2, 55);
            fs.create("/in/d0", b"apple banana apple apple", None)
                .unwrap();
            fs.create("/in/d1", b"banana apple banana", None).unwrap();
            let job = MapReduceJob::map_only("wc", vec!["/in/d0".into(), "/in/d1".into()], "/out")
                .with_input_format(InputFormat::WholeFile)
                .with_reducers(2)
                .with_combiner(combine);
            let report = run_job(&fs, &job, &WcMapper, Some(&SumReducer)).unwrap();
            let mut combined = String::new();
            for p in fs.list("/out/") {
                combined.push_str(&String::from_utf8(fs.read(&p).unwrap()).unwrap());
            }
            (report, combined)
        };

        let (plain, out_plain) = run(false);
        let (combined, out_combined) = run(true);
        // Identical results...
        assert!(out_plain.contains("apple\t4"), "{out_plain}");
        assert!(out_plain.contains("banana\t3"));
        assert_eq!(out_plain.len(), out_combined.len());
        assert!(out_combined.contains("apple\t4") && out_combined.contains("banana\t3"));
        // ...but fewer records shuffled.
        assert_eq!(plain.map_output_records, 7);
        assert_eq!(plain.shuffle_records, 7);
        assert_eq!(combined.map_output_records, 7);
        assert!(
            combined.shuffle_records <= 4,
            "combined shuffle {}",
            combined.shuffle_records
        );
    }

    #[test]
    fn empty_job_rejected() {
        let (fs, _) = make_fs(2, 1);
        let job = MapReduceJob::map_only("e", vec![], "/out");
        let exec = FnExecutor::new("id", |_s, i: &[u8]| Ok(i.to_vec()));
        let mapper = ExecutableMapper::new("id", exec);
        assert!(run_job(&fs, &job, &mapper, None).is_err());
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
        let err = run_job_with(&fs, &job, &mapper, None, &config).unwrap_err();
        assert_eq!(err.code(), "InvalidArgument");

        let ctx =
            RunContext::local().with_schedule(Arc::new(FaultSchedule::new(1).brownout(0.5, 0.1)));
        let err = crate::run(&ctx, &fs, &job, &mapper, None, &HadoopConfig::default()).unwrap_err();
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
        let report = crate::run(&ctx, &fs, &job, &mapper, None, &HadoopConfig::default()).unwrap();
        assert!(report.is_complete(), "failed: {:?}", report.failed);
        assert_eq!(report.summary.tasks, 24);
        assert!(
            report.scheduler.retries > 0,
            "chaos must have failed some attempts"
        );
        assert_eq!(fs.list("/out/").len(), 24);
    }

    #[test]
    fn storage_brownout_stalls_but_completes() {
        let (fs, paths) = make_fs(2, 12);
        let job = MapReduceJob::map_only("brown", paths, "/out");
        let exec = FnExecutor::new("id", |_s, i: &[u8]| Ok(i.to_vec()));
        let mapper = ExecutableMapper::new("id", exec);
        let schedule = FaultSchedule::new(3).brownout(0.0, 0.030);
        let ctx = RunContext::local().with_schedule(Arc::new(schedule));
        let report = crate::run(&ctx, &fs, &job, &mapper, None, &HadoopConfig::default()).unwrap();
        assert!(report.is_complete());
        // Every worker rode out the 30 ms outage window before reading.
        assert!(
            report.summary.makespan_seconds >= 0.030,
            "brownout must stall the job: {}s",
            report.summary.makespan_seconds
        );
    }
}

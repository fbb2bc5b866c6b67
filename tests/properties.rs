//! Cross-crate randomized property tests.
//!
//! Each test drives its invariant over many seeded-random cases using the
//! workspace's own deterministic PRNG, so failures reproduce exactly from
//! the printed seed without an external property-testing framework.

use ppc::bio::assembly::{assemble, AssemblyParams};
use ppc::bio::fasta::{self, FastaRecord};
use ppc::core::money::Usd;
use ppc::core::rng::Pcg32;
use ppc::dryad::linq::DVec;
use ppc::dryad::partition::{partition_contiguous, partition_round_robin};
use ppc::queue::queue::{Queue, QueueConfig};

const ID_CHARS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.";

fn random_id(rng: &mut Pcg32) -> String {
    let len = 1 + rng.next_below(12) as usize;
    (0..len)
        .map(|_| *rng.choose(ID_CHARS).unwrap() as char)
        .collect()
}

fn random_bases(rng: &mut Pcg32, alphabet: &[u8], max_len: usize) -> Vec<u8> {
    let len = rng.next_below(max_len as u32) as usize;
    (0..len).map(|_| *rng.choose(alphabet).unwrap()).collect()
}

/// FASTA format/parse is a lossless round trip for arbitrary records.
#[test]
fn fasta_round_trip() {
    for seed in 0..64u64 {
        let mut rng = Pcg32::new(0xFA57A + seed);
        let n = 1 + rng.next_below(7) as usize;
        let recs: Vec<FastaRecord> = (0..n)
            .map(|i| {
                let id = format!("{}{i}", random_id(&mut rng));
                let seq = random_bases(&mut rng, b"ACGTN", 300);
                FastaRecord::new(id, seq)
            })
            .collect();
        let bytes = fasta::format(&recs);
        let back = fasta::parse(&bytes).unwrap();
        assert_eq!(back, recs, "seed {seed}");
    }
}

/// Reverse complement is an involution on DNA.
#[test]
fn revcomp_involution() {
    for seed in 0..64u64 {
        let mut rng = Pcg32::new(0xDCBA + seed);
        let seq = random_bases(&mut rng, b"ACGT", 200);
        let rc = fasta::reverse_complement(&seq);
        assert_eq!(fasta::reverse_complement(&rc), seq, "seed {seed}");
    }
}

/// Every read ends up in exactly one contig or the singleton list.
#[test]
fn assembly_conserves_reads() {
    use ppc::bio::simulate::{random_genome, shotgun_reads, ShotgunParams};
    for seed in 0..48u64 {
        let genome = random_genome(600, seed);
        let reads = shotgun_reads(
            &genome,
            &ShotgunParams {
                n_reads: 20,
                read_len_mean: 120.0,
                read_len_sd: 15.0,
                ..Default::default()
            },
            seed + 1,
        );
        let asm = assemble(&reads, &AssemblyParams::default());
        let mut seen: Vec<&str> = asm.singletons.iter().map(String::as_str).collect();
        for c in &asm.contigs {
            assert!(c.n_reads() >= 2, "contigs have at least two reads");
            seen.extend(c.read_ids.iter().map(String::as_str));
        }
        seen.sort_unstable();
        let mut expect: Vec<&str> = reads.iter().map(|r| r.id.as_str()).collect();
        expect.sort_unstable();
        assert_eq!(seen, expect, "seed {seed}");
    }
}

/// Money arithmetic is exact: scaling by n equals summing n copies.
#[test]
fn money_scaling_exact() {
    let mut rng = Pcg32::new(0xCA5);
    for case in 0..64 {
        let cents = 1 + rng.next_below(100_000) as i64;
        let n = 1 + rng.next_below(500) as i64;
        let unit = Usd::cents(cents);
        let summed: Usd = std::iter::repeat_n(unit, n as usize).sum();
        assert_eq!(summed, unit * n, "case {case}");
        assert_eq!(summed - unit * (n - 1), unit, "case {case}");
    }
}

/// Partitioners conserve items and respect the partition count.
#[test]
fn partitioners_conserve() {
    for seed in 0..64u64 {
        let mut rng = Pcg32::new(0xBA1A + seed);
        let len = rng.next_below(200) as usize;
        let items: Vec<u32> = (0..len).map(|_| rng.next_u32()).collect();
        let n = 1 + rng.next_below(15) as usize;
        for parts in [
            partition_round_robin(items.clone(), n),
            partition_contiguous(items.clone(), n),
        ] {
            assert_eq!(parts.len(), n);
            let mut flat: Vec<u32> = parts.into_iter().flatten().collect();
            let mut expect = items.clone();
            flat.sort_unstable();
            expect.sort_unstable();
            assert_eq!(flat, expect, "seed {seed}");
        }
        // Round-robin balance: sizes differ by at most one.
        let sizes: Vec<usize> = partition_round_robin(items.clone(), n)
            .iter()
            .map(Vec::len)
            .collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "seed {seed}");
    }
}

/// DVec select/where agree with the sequential equivalents.
#[test]
fn dvec_matches_vec() {
    for seed in 0..64u64 {
        let mut rng = Pcg32::new(0xD7EC + seed);
        let len = rng.next_below(300) as usize;
        let items: Vec<i64> = (0..len)
            .map(|_| rng.next_below(2000) as i64 - 1000)
            .collect();
        let n = 1 + rng.next_below(7) as usize;
        let d = DVec::distribute(items.clone(), n)
            .select(|x| x * 3)
            .where_(|x| x % 2 == 0);
        let mut got = d.collect();
        got.sort_unstable();
        let mut expect: Vec<i64> = items.iter().map(|x| x * 3).filter(|x| x % 2 == 0).collect();
        expect.sort_unstable();
        assert_eq!(got, expect, "seed {seed}");
    }
}

/// Queue conservation: after arbitrary interleavings of send/receive/
/// delete, every sent message was either deleted exactly once or is
/// still present (visible or in flight) — none vanish, none duplicate
/// into the delete set.
#[test]
fn queue_conserves_messages() {
    for seed in 0..64u64 {
        let mut rng = Pcg32::new(0x0_0E + seed);
        let q = Queue::new("prop", QueueConfig::default());
        let mut sent = 0u64;
        let mut deleted = std::collections::HashSet::new();
        let mut in_hand = Vec::new();
        let n_ops = 1 + rng.next_below(119) as usize;
        for _ in 0..n_ops {
            match rng.next_below(3) {
                0 => {
                    q.send(format!("m{sent}")).unwrap();
                    sent += 1;
                }
                1 => {
                    if let Some(m) = q.receive().unwrap() {
                        in_hand.push(m);
                    }
                }
                _ => {
                    if let Some(m) = in_hand.pop() {
                        // Receipt may be stale only if visibility lapsed; with
                        // the default 30 s timeout it cannot in-test.
                        q.delete(m.receipt).unwrap();
                        assert!(deleted.insert(m.id), "double delete of {:?}", m.id);
                    }
                }
            }
        }
        let remaining = q.approximate_len() + q.approximate_in_flight();
        assert_eq!(deleted.len() + remaining, sent as usize, "seed {seed}");
    }
}

/// Six-frame translation invariants: always six frames for DNA of
/// length >= 5, frame lengths = floor((len - offset)/3), and the
/// reverse frames translate the reverse complement.
#[test]
fn six_frames_invariants() {
    use ppc::bio::codon::{six_frames, translate_frame};
    use ppc::bio::fasta::reverse_complement;
    for seed in 0..64u64 {
        let mut rng = Pcg32::new(0x6F + seed);
        let len = 5 + rng.next_below(115) as usize;
        let seq: Vec<u8> = (0..len).map(|_| *rng.choose(b"ACGT").unwrap()).collect();
        let frames = six_frames(&seq);
        assert_eq!(frames.len(), 6);
        let rc = reverse_complement(&seq);
        for f in &frames {
            let offset = (f.frame.unsigned_abs() - 1) as usize;
            assert_eq!(
                f.protein.len(),
                (seq.len() - offset) / 3,
                "frame {}",
                f.frame
            );
            let expect = if f.frame > 0 {
                translate_frame(&seq, offset)
            } else {
                translate_frame(&rc, offset)
            };
            assert_eq!(&f.protein, &expect, "frame {}", f.frame);
        }
    }
}

/// Timeline utilization stays in [0, 1] for non-overlapping per-worker
/// intervals (the only kind the runtimes produce), and busy time is
/// conserved.
#[test]
fn timeline_utilization_bounded() {
    use ppc::core::trace::Timeline;
    for seed in 0..64u64 {
        let mut rng = Pcg32::new(0x71AE + seed);
        let mut t = Timeline::new();
        let mut cursor = [0.0f64; 4];
        let mut total_busy = 0.0;
        let n_intervals = 1 + rng.next_below(39) as usize;
        for task in 0..n_intervals {
            let w = rng.next_below(4) as usize;
            let gap = rng.uniform(0.0, 20.0);
            let dur = rng.uniform(0.01, 50.0);
            let start = cursor[w] + gap;
            t.push(w, task as u64, start, start + dur);
            cursor[w] = start + dur;
            total_busy += dur;
        }
        let n = t.n_workers().max(1);
        let u = t.utilization(n);
        assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
        let busy_sum: f64 = (0..n).map(|w| t.worker_busy_s(w)).sum();
        assert!((busy_sum - total_busy).abs() < 1e-6, "seed {seed}");
    }
}

/// Hedged duplicates never duplicate or corrupt a committed output: for
/// randomized gray-straggler schedules and hedge dials, every paradigm's
/// native engine commits each output exactly once with fault-free bytes,
/// and every simulator accounts for each task exactly once.
#[test]
fn hedging_preserves_exactly_once_outputs() {
    use ppc::chaos::FaultSchedule;
    use ppc::classic::spec::JobSpec;
    use ppc::compute::cluster::Cluster;
    use ppc::compute::instance::{BARE_CAP3, EC2_HCXL};
    use ppc::core::exec::FnExecutor;
    use ppc::core::task::TaskSpec;
    use ppc::exec::RunContext;
    use ppc::hdfs::fs::MiniHdfs;
    use ppc::mapreduce::job::{ExecutableMapper, MapReduceJob};
    use ppc::queue::service::QueueService;
    use ppc::resilience::{HedgeConfig, ResiliencePolicy};
    use ppc::storage::service::StorageService;
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use std::time::Duration;

    let n: u64 = 8;
    let expected: BTreeMap<String, Vec<u8>> = (0..n)
        .map(|i| {
            let mut v = format!("p{i}").into_bytes();
            v.reverse();
            (format!("f{i}.out"), v)
        })
        .collect();
    let specs = |n: u64| -> Vec<TaskSpec> {
        (0..n)
            .map(|i| {
                TaskSpec::new(
                    i,
                    "rev",
                    format!("f{i}"),
                    ppc::core::task::ResourceProfile::cpu_bound(0.0),
                )
            })
            .collect()
    };
    let executor = || {
        FnExecutor::new("rev", |_s: &TaskSpec, input: &[u8]| {
            std::thread::sleep(Duration::from_millis(1));
            let mut v = input.to_vec();
            v.reverse();
            Ok(v)
        })
    };

    for case in 0..6u64 {
        let mut rng = Pcg32::new(0x4ED6E + case);
        let factor = 5.0 + rng.uniform(0.0, 30.0);
        let gray_worker = rng.next_below(4);
        let schedule = Arc::new(FaultSchedule::new(case).degrade(gray_worker, factor, 0.0, 1e9));
        let policy =
            ResiliencePolicy::hedged(HedgeConfig::quantile(0.002 + rng.uniform(0.0, 0.02)));

        // Classic: queue re-dispatch hedging over real storage.
        let storage = StorageService::in_memory();
        let queues = QueueService::new();
        let cluster = Cluster::provision(EC2_HCXL, 1, 4);
        let job = JobSpec::new("prop", specs(n))
            .with_visibility_timeout(Duration::from_millis(400))
            .with_max_deliveries(8);
        storage.create_bucket(&job.input_bucket).unwrap();
        for i in 0..n {
            storage
                .put(
                    &job.input_bucket,
                    &format!("f{i}"),
                    format!("p{i}").into_bytes(),
                )
                .unwrap();
        }
        let report = ppc::classic::run(
            &RunContext::new(&cluster)
                .with_schedule(schedule.clone())
                .with_resilience(policy),
            &storage,
            &queues,
            &job,
            executor(),
            &ppc::classic::ClassicConfig::default(),
        )
        .unwrap();
        assert!(report.is_complete(), "case {case}: {:?}", report.failed);
        let got: BTreeMap<String, Vec<u8>> = expected
            .keys()
            .map(|k| {
                let v = storage.get_with_retry(&job.output_bucket, k, 64).unwrap();
                (k.clone(), v.to_vec())
            })
            .collect();
        assert_eq!(got, expected, "classic case {case}");

        // MapReduce: speculation refactored onto the shared policy.
        let fs = MiniHdfs::new(2, 1 << 20, 2, 7);
        let mut paths = Vec::new();
        for i in 0..n {
            let p = format!("/in/f{i}");
            fs.create(&p, format!("p{i}").as_bytes(), None).unwrap();
            paths.push(p);
        }
        let mut job = MapReduceJob::map_only("prop", paths, "/out");
        job.max_attempts = 8;
        let report = ppc::mapreduce::run(
            &RunContext::local()
                .with_schedule(schedule.clone())
                .with_resilience(policy),
            &fs,
            &job,
            &ExecutableMapper::new("rev", executor()),
            None,
            &ppc::mapreduce::HadoopConfig::default(),
        )
        .unwrap();
        assert!(report.is_complete(), "case {case}: {:?}", report.failed);
        let got: BTreeMap<String, Vec<u8>> = expected
            .keys()
            .map(|k| (k.clone(), fs.read(&format!("/out/{k}")).unwrap()))
            .collect();
        assert_eq!(got, expected, "mapreduce case {case}");

        // Dryad: backup vertices racing the primaries.
        let cluster = Cluster::provision(BARE_CAP3, 1, 4);
        let inputs: Vec<(TaskSpec, Vec<u8>)> = specs(n)
            .into_iter()
            .map(|s| {
                let p = format!("p{}", s.id.0).into_bytes();
                (s, p)
            })
            .collect();
        let ctx = RunContext::new(&cluster)
            .with_schedule(schedule.clone())
            .with_resilience(policy);
        let cfg = ppc::dryad::DryadConfig::default();
        let (report, outputs) = ppc::dryad::run(&ctx, inputs, executor(), &cfg).unwrap();
        assert_eq!(report.vertex_failures, 0, "case {case}");
        let got: BTreeMap<String, Vec<u8>> = outputs.into_iter().collect();
        assert_eq!(got, expected, "dryad case {case}");

        // The simulators: each task completes exactly once under the same
        // policy and schedule.
        let sim_tasks: Vec<TaskSpec> = (0..32)
            .map(|i| {
                TaskSpec::new(
                    i,
                    "t",
                    format!("f{i}"),
                    ppc::core::task::ResourceProfile::cpu_bound(10.0),
                )
            })
            .collect();
        let sim_policy = ResiliencePolicy::hedged(HedgeConfig::quantile(20.0));
        let cluster = Cluster::provision(EC2_HCXL, 1, 8);
        let ctx = RunContext::new(&cluster)
            .with_schedule(schedule.clone())
            .with_resilience(sim_policy);
        let r = ppc::classic::simulate(&ctx, &sim_tasks, &ppc::classic::SimConfig::ec2());
        assert_eq!(r.summary.tasks, 32, "classic sim case {case}");
        let cluster = Cluster::provision(BARE_CAP3, 1, 8);
        let ctx = RunContext::new(&cluster)
            .with_schedule(schedule.clone())
            .with_resilience(sim_policy);
        let r = ppc::mapreduce::simulate(&ctx, &sim_tasks, &Default::default());
        assert_eq!(r.summary.tasks, 32, "mapreduce sim case {case}");
        let r = ppc::dryad::simulate(&ctx, &sim_tasks, &Default::default());
        assert_eq!(r.summary.tasks, 32, "dryad sim case {case}");
    }
}

/// Same-timestamp FIFO: events scheduled for the *same* virtual instant
/// fire in schedule order. This is the engine's documented tie-break
/// contract (ascending `(time, sequence)`), and it is what keeps
/// whole-platform simulations bit-identical run after run — so it gets its
/// own property, not just a pin.
#[test]
fn equal_time_events_fire_in_schedule_order() {
    use ppc::des::{Engine, SimTime};
    use std::cell::RefCell;
    use std::rc::Rc;
    for seed in 0..32u64 {
        let mut rng = Pcg32::new(0xF1F0 + seed);
        // Few distinct instants, many events: collisions guaranteed.
        let instants: Vec<u64> = (0..4).map(|_| rng.next_below(1000) as u64).collect();
        let n = 40 + rng.next_below(60);
        let mut engine = Engine::new();
        let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        let mut want: Vec<(u64, u32)> = Vec::new();
        for token in 0..n {
            let at = instants[rng.next_below(instants.len() as u32) as usize];
            want.push((at, token));
            let l = log.clone();
            engine.schedule_at(SimTime::from_micros(at), move |e| {
                l.borrow_mut().push((e.now().as_micros(), token));
            });
        }
        engine.run();
        // Stable sort by time only: equal-time entries keep schedule
        // order — exactly what the engine must reproduce.
        want.sort_by_key(|&(at, _)| at);
        assert_eq!(
            *log.borrow(),
            want,
            "seed {seed}: same-instant events must fire FIFO"
        );
    }
}

/// GTM responsibilities stay a probability distribution for random inputs.
#[test]
fn gtm_projection_bounded_for_random_data() {
    use ppc::gtm::data::{fingerprints, FingerprintParams};
    use ppc::gtm::train::{train, TrainConfig};
    for seed in [1u64, 2, 3] {
        let (data, _) = fingerprints(
            &FingerprintParams {
                n_points: 60,
                dim: 16,
                n_clusters: 2,
                flip_noise: 0.1,
            },
            seed,
        );
        let model = train(
            &data,
            &TrainConfig {
                grid_side: 4,
                rbf_side: 2,
                iterations: 4,
                lambda: 1e-2,
            },
        )
        .unwrap();
        let proj = model.project(&data);
        for i in 0..proj.rows() {
            assert!(proj[(i, 0)].abs() <= 1.0 + 1e-9);
            assert!(proj[(i, 1)].abs() <= 1.0 + 1e-9);
        }
    }
}

/// Workflow topological schedules are valid, deterministic, and agree
/// with the level decomposition for arbitrary random DAGs.
#[test]
fn workflow_topological_schedule_is_valid_and_deterministic() {
    use ppc::core::task::{ResourceProfile, TaskSpec};
    use ppc::workflow::{DataPolicy, Stage, Workflow};

    for seed in 0..48u64 {
        let mut rng = Pcg32::new(0xDA6 + seed);
        let n = 2 + rng.next_below(9) as usize;
        let mut wf = Workflow::new(format!("dag-{seed}"));
        for i in 0..n {
            wf.add_stage(Stage::new(
                format!("s{i}"),
                vec![TaskSpec::new(
                    i as u64,
                    "noop",
                    format!("in/{i}"),
                    ResourceProfile::cpu_bound(1.0),
                )],
            ));
        }
        // Forward-only random edges keep the graph acyclic by construction.
        let mut edges = Vec::new();
        for to in 1..n {
            for from in 0..to {
                if rng.next_below(3) == 0 {
                    wf.connect_ordering(from, to, DataPolicy::Materialize);
                    edges.push((from, to));
                }
            }
        }
        wf.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));

        let order = wf.topo_order().unwrap();
        // A permutation of all stages...
        let mut seen = vec![false; n];
        for &s in &order {
            assert!(!seen[s], "seed {seed}: stage {s} scheduled twice");
            seen[s] = true;
        }
        assert!(seen.iter().all(|&x| x), "seed {seed}: stage dropped");
        // ...that respects every edge...
        let pos: Vec<usize> = {
            let mut p = vec![0; n];
            for (i, &s) in order.iter().enumerate() {
                p[s] = i;
            }
            p
        };
        for &(from, to) in &edges {
            assert!(
                pos[from] < pos[to],
                "seed {seed}: edge {from}->{to} violated by {order:?}"
            );
        }
        // ...and is deterministic.
        assert_eq!(order, wf.topo_order().unwrap(), "seed {seed}");

        // Levels agree: every edge crosses strictly downward, and the
        // levels partition the stage set.
        let levels = wf.levels().unwrap();
        let mut level_of = vec![usize::MAX; n];
        for (l, group) in levels.iter().enumerate() {
            for &s in group {
                assert_eq!(
                    level_of[s],
                    usize::MAX,
                    "seed {seed}: stage {s} in two levels"
                );
                level_of[s] = l;
            }
        }
        assert!(level_of.iter().all(|&l| l != usize::MAX), "seed {seed}");
        for &(from, to) in &edges {
            assert!(
                level_of[from] < level_of[to],
                "seed {seed}: edge {from}->{to} does not descend levels"
            );
        }
    }
}

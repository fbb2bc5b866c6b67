//! The output oracle: what every lane call must satisfy to count as a
//! completed operation.
//!
//! * Sims: every report complete; its digest (makespan, attempts, cost,
//!   failed tasks) identical on every call of the run.
//! * Native pipelines: outputs byte-identical to the direct executor
//!   outputs computed in set-up (so identical across the three engines).
//! * Serve: bills sum exactly to the fleet's; underload sheds nothing,
//!   overload sheds something; every submission accounted for.
//! * Native calls: the process's thread count returns to its baseline.

use crate::workloads::{SimCall, SimKind};
use ppc::exec::{Engine, JobOutputs, RunReport, Workflow};
use ppc::serve::{JobRecord, ServeReport, ServeRun};
use ppc::workflow::model::key_basename;
use std::time::{Duration, Instant};

/// FNV-1a over 64-bit words: a stable digest with no dependencies.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

/// A checked call's digest, attempts, and a printable summary.
pub struct Checked {
    pub digest: u64,
    pub attempts: u64,
    pub line: String,
}

fn report_digest(d: &mut Digest, r: &RunReport) {
    d.u64(r.summary.makespan_seconds.to_bits());
    d.u64(r.total_attempts as u64);
    d.u64(r.failed.len() as u64);
    d.u64(r.cost.map_or(0, |c| c.compute_cost.as_f64().to_bits()));
}

/// Run one simulate call and check it.
pub fn sim_call(engine: &dyn Engine, call: &SimCall) -> Result<Checked, String> {
    let mut d = Digest::new();
    let (makespan, attempts, cost, failed) = match &call.kind {
        SimKind::Tasks(tasks) => {
            let r = engine.simulate(&call.ctx, tasks);
            report_digest(&mut d, &r);
            (
                r.summary.makespan_seconds,
                r.total_attempts,
                r.cost.map(|c| c.compute_cost.as_f64()),
                r.failed.len(),
            )
        }
        SimKind::Workflow(wf) => {
            let r = engine
                .simulate_workflow(&call.ctx, wf)
                .map_err(|e| format!("{} simulate_workflow: {e}", call.label))?;
            for s in &r.stages {
                report_digest(&mut d, &s.report);
            }
            d.u64(r.makespan_seconds.to_bits());
            let failed = r.stages.iter().map(|s| s.report.failed.len()).sum();
            (
                r.makespan_seconds,
                r.total_attempts(),
                r.cost.map(|c| c.compute_cost.as_f64()),
                failed,
            )
        }
    };
    if failed != 0 {
        return Err(format!(
            "{} {}: {failed} tasks failed",
            engine.name(),
            call.label
        ));
    }
    Ok(Checked {
        digest: d.finish(),
        attempts: attempts as u64,
        line: format!(
            "tasks={} makespan_s={makespan:.6} attempts={attempts} cost_usd={} failed={failed}",
            call.tasks(),
            cost.map_or("-".into(), |c| format!("{c:.6}")),
        ),
    })
}

/// Check one serve-sim run.
pub fn serve_run(run: &ServeRun, submissions: u64, overload: bool) -> Result<Checked, String> {
    let r = &run.report;
    bills_sum(r)?;
    if r.submitted != submissions || r.completed + r.rejected + r.failed != r.submitted {
        return Err(format!(
            "serve accounted {} submitted / {} completed / {} rejected / {} failed of {submissions}",
            r.submitted, r.completed, r.rejected, r.failed
        ));
    }
    if r.failed != 0 {
        return Err(format!("serve failed {} admitted jobs", r.failed));
    }
    match (overload, r.rejected) {
        (false, 0) => {}
        (false, n) => return Err(format!("underload shed {n} submissions")),
        (true, 0) => return Err("overload shed nothing".into()),
        (true, _) => {}
    }
    let mut d = Digest::new();
    d.u64(JobRecord::digest(&run.records));
    d.u64(r.fleet.cost.compute_cost.as_f64().to_bits());
    d.u64(r.horizon_s.to_bits());
    Ok(Checked {
        digest: d.finish(),
        attempts: r.submitted,
        line: format!(
            "submitted={} completed={} rejected={} p99_s={:.6} cost_usd={:.6}",
            r.submitted,
            r.completed,
            r.rejected,
            r.latency_p99_s,
            r.fleet.cost.compute_cost.as_f64()
        ),
    })
}

/// Per-tenant bills must sum exactly to the fleet's.
pub fn bills_sum(r: &ServeReport) -> Result<(), String> {
    let compute: ppc::core::money::Usd = r.tenants.iter().map(|t| t.cost.compute_cost).sum();
    let amortized: ppc::core::money::Usd = r.tenants.iter().map(|t| t.cost.amortized_cost).sum();
    if compute != r.fleet.cost.compute_cost || amortized != r.fleet.cost.amortized_cost {
        return Err("tenant bills do not sum to the fleet bill".into());
    }
    Ok(())
}

/// Threads of this process, from `/proc/self/task`.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// Wait (untimed, at most 2 s) for the thread count to fall back to
/// `baseline`; a thread still alive after that leaked and would skew the
/// probe of every later lane.
pub fn threads_back_to(baseline: usize) -> Result<(), String> {
    let start = Instant::now();
    loop {
        let now = thread_count();
        if now <= baseline {
            return Ok(());
        }
        if start.elapsed() > Duration::from_secs(2) {
            return Err(format!("{} threads leaked", now - baseline));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Native outputs, ordered by key basename, must equal `expected`.
/// Returns the digest of the outputs.
pub fn native_outputs(mut outputs: JobOutputs, expected: &[Vec<u8>]) -> Result<u64, String> {
    outputs.sort_by(|a, b| key_basename(&a.0).cmp(key_basename(&b.0)));
    if outputs.len() != expected.len() {
        return Err(format!(
            "{} outputs, expected {}",
            outputs.len(),
            expected.len()
        ));
    }
    let mut d = Digest::new();
    for ((key, got), want) in outputs.iter().zip(expected) {
        if got != want {
            return Err(format!(
                "output {key} differs from the direct executor output"
            ));
        }
        d.bytes(got);
    }
    Ok(d.finish())
}

/// Run a native workflow's stages directly: each stage's executor over its
/// inputs in task order, single-threaded, with each edge's adapter in
/// between. Returns the sink stage's outputs and per-stage host seconds.
pub fn direct_pipeline(wf: &Workflow) -> Result<(Vec<Vec<u8>>, Vec<f64>), String> {
    let order = wf.topo_order().map_err(|e| e.to_string())?;
    let mut outputs: Vec<Option<JobOutputs>> = vec![None; wf.stages.len()];
    let mut secs = vec![0.0; wf.stages.len()];
    for &i in &order {
        let stage = &wf.stages[i];
        let inputs = match wf.edges.iter().find(|e| e.to == i) {
            None => stage.inputs.clone(),
            Some(edge) => {
                let upstream = outputs[edge.from].as_ref().expect("topological order");
                let adapter = edge
                    .adapter
                    .as_ref()
                    .ok_or("data edge without an adapter")?;
                adapter
                    .adapt(upstream, &stage.specs)
                    .map_err(|e| e.to_string())?
            }
        };
        let exec = stage
            .executor
            .as_ref()
            .ok_or("native stage without an executor")?;
        let start = Instant::now();
        let outs = stage
            .specs
            .iter()
            .zip(&inputs)
            .map(|(spec, input)| {
                exec.run(spec, input)
                    .map(|out| (spec.output_key.clone(), out))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        secs[i] = start.elapsed().as_secs_f64();
        outputs[i] = Some(outs);
    }
    let sink = *wf.sinks().first().ok_or("workflow has no sink")?;
    let mut sink_out = outputs[sink].take().expect("sink ran");
    sink_out.sort_by(|a, b| key_basename(&a.0).cmp(key_basename(&b.0)));
    Ok((sink_out.into_iter().map(|(_, v)| v).collect(), secs))
}

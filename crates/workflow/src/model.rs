//! The workflow model: stages, data edges, topology, and the
//! materialization cost model.

use ppc_core::exec::Executor;
use ppc_core::task::TaskSpec;
use ppc_core::{PpcError, Result};
use ppc_resilience::ResiliencePolicy;
use std::sync::Arc;

/// How a data edge moves bytes between two stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataPolicy {
    /// Round-trip through shared storage: the upstream stage's outputs are
    /// written out and the downstream stage reads them back. Durable and
    /// restartable, but the barrier pays [`MaterializeModel::transfer_s`]
    /// of extra latency — the dominant cost of multi-stage workflows on
    /// cloud object stores.
    #[default]
    Materialize,
    /// In-memory handoff on the driver: no storage round-trip, no extra
    /// latency, but the intermediate exists only for the duration of the
    /// run.
    Pipeline,
}

impl DataPolicy {
    pub fn name(self) -> &'static str {
        match self {
            DataPolicy::Materialize => "materialize",
            DataPolicy::Pipeline => "pipeline",
        }
    }
}

/// Cost model for a [`DataPolicy::Materialize`] edge: one storage
/// round-trip of the upstream stage's output bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaterializeModel {
    /// Effective write-then-read bandwidth through the shared store.
    pub bandwidth_bytes_per_s: f64,
    /// Fixed per-barrier latency (request round-trips, commit visibility).
    pub latency_s: f64,
}

impl Default for MaterializeModel {
    fn default() -> Self {
        // Calibrated loosely to the paper's storage path: tens of MB/s of
        // effective blob throughput plus a fixed commit round-trip.
        MaterializeModel {
            bandwidth_bytes_per_s: 80e6,
            latency_s: 0.25,
        }
    }
}

impl MaterializeModel {
    /// Seconds one materialization barrier adds for `bytes` of
    /// intermediate data.
    pub fn transfer_s(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bytes_per_s.max(1.0)
    }
}

/// Maps one stage's outputs into the next stage's input payloads.
///
/// Implementations must be deterministic in the *set* of upstream outputs
/// (the engines deliver them in completion order, which differs across
/// paradigms and runs); canonicalize before transforming. [`FnAdapter`]
/// does this by sorting on the trailing file name of each output key, the
/// one component all three paradigms preserve.
pub trait StageAdapter: Send + Sync {
    /// Produce one payload per downstream task, aligned with
    /// `downstream` order.
    fn adapt(
        &self,
        upstream: &[(String, Vec<u8>)],
        downstream: &[TaskSpec],
    ) -> Result<Vec<Vec<u8>>>;

    fn name(&self) -> &str {
        "adapter"
    }
}

/// The trailing file-name component of an output key — the part of the
/// namespace every paradigm preserves (Classic keeps full output keys,
/// Hadoop and Dryad re-root them under their own directories).
pub fn key_basename(key: &str) -> &str {
    key.rsplit('/').next().unwrap_or(key)
}

/// One-to-one adapter: upstream outputs are sorted by
/// [`key_basename`] and each is transformed independently into the
/// payload of the same-ranked downstream task.
pub struct FnAdapter {
    label: String,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(&str, &[u8]) -> Result<Vec<u8>> + Send + Sync>,
}

impl FnAdapter {
    pub fn new(
        label: impl Into<String>,
        f: impl Fn(&str, &[u8]) -> Result<Vec<u8>> + Send + Sync + 'static,
    ) -> Arc<FnAdapter> {
        Arc::new(FnAdapter {
            label: label.into(),
            f: Arc::new(f),
        })
    }

    /// The identity adapter: stage N's outputs become stage N+1's inputs
    /// byte-for-byte (e.g. contig FASTA flowing straight into annotation).
    pub fn identity() -> Arc<FnAdapter> {
        FnAdapter::new("identity", |_k, bytes| Ok(bytes.to_vec()))
    }
}

impl StageAdapter for FnAdapter {
    fn adapt(
        &self,
        upstream: &[(String, Vec<u8>)],
        downstream: &[TaskSpec],
    ) -> Result<Vec<Vec<u8>>> {
        if upstream.len() != downstream.len() {
            return Err(PpcError::InvalidState(format!(
                "adapter '{}': {} upstream outputs for {} downstream tasks",
                self.label,
                upstream.len(),
                downstream.len()
            )));
        }
        let mut ordered: Vec<&(String, Vec<u8>)> = upstream.iter().collect();
        ordered.sort_by_key(|(k, _)| key_basename(k));
        ordered
            .iter()
            .map(|(k, bytes)| (self.f)(key_basename(k), bytes))
            .collect()
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// One pleasingly-parallel stage: the unit every engine already executes.
#[derive(Clone)]
pub struct Stage {
    pub name: String,
    /// The stage's tasks (what the simulators consume; one per partition).
    pub specs: Vec<TaskSpec>,
    /// Executor for native runs; sim-only workflows may omit it.
    pub executor: Option<Arc<dyn Executor>>,
    /// Seed payloads for *source* stages, aligned with `specs`. Stages fed
    /// by a data edge must leave this empty.
    pub inputs: Vec<Vec<u8>>,
    /// Attempt budget per task, mapped onto each paradigm's own
    /// fault-tolerance mechanism.
    pub max_attempts: u32,
    /// Per-stage straggler defense override. A long-tailed stage can hedge
    /// aggressively while cheap stages keep the run context's policy — the
    /// straggler-aware piece of stage scheduling, composed from
    /// `ppc-resilience`.
    pub resilience: Option<ResiliencePolicy>,
    /// Message-redelivery timeout for queue-based engines (the Classic
    /// Cloud visibility timeout). `None` keeps each engine's own default,
    /// which is deliberately generous; stages with short tasks running
    /// under fault injection should set something close to their task
    /// duration so a killed worker's message redelivers promptly. Engines
    /// without a redelivery queue ignore it.
    pub visibility_timeout: Option<std::time::Duration>,
}

impl Stage {
    pub fn new(name: impl Into<String>, specs: Vec<TaskSpec>) -> Stage {
        Stage {
            name: name.into(),
            specs,
            executor: None,
            inputs: Vec::new(),
            max_attempts: 4,
            resilience: None,
            visibility_timeout: None,
        }
    }

    pub fn with_executor(mut self, executor: Arc<dyn Executor>) -> Stage {
        self.executor = Some(executor);
        self
    }

    pub fn with_inputs(mut self, inputs: Vec<Vec<u8>>) -> Stage {
        self.inputs = inputs;
        self
    }

    pub fn with_max_attempts(mut self, n: u32) -> Stage {
        self.max_attempts = n;
        self
    }

    pub fn with_visibility_timeout(mut self, t: std::time::Duration) -> Stage {
        self.visibility_timeout = Some(t);
        self
    }

    /// Total output bytes this stage's task profiles promise — what a
    /// materialize edge out of this stage must move.
    pub fn output_bytes(&self) -> u64 {
        self.specs.iter().map(|t| t.profile.output_bytes).sum()
    }
}

impl std::fmt::Debug for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stage")
            .field("name", &self.name)
            .field("tasks", &self.specs.len())
            .field("max_attempts", &self.max_attempts)
            .finish()
    }
}

/// A directed edge between stages. An edge with an adapter carries data;
/// one without is a pure ordering (barrier) dependency.
#[derive(Clone)]
pub struct StageEdge {
    pub from: usize,
    pub to: usize,
    pub policy: DataPolicy,
    pub adapter: Option<Arc<dyn StageAdapter>>,
}

impl std::fmt::Debug for StageEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageEdge")
            .field("from", &self.from)
            .field("to", &self.to)
            .field("policy", &self.policy.name())
            .field("data", &self.adapter.is_some())
            .finish()
    }
}

/// A DAG of stages with data dependencies — the shared structure behind
/// Dryad's vertex graph, the iterative driver's loop body, and (as the
/// degenerate single-stage case) every map-only [`Workload`] the engines
/// already run.
///
/// [`Workload`]: https://docs.rs/ppc-exec
#[derive(Clone, Debug)]
pub struct Workflow {
    pub name: String,
    pub stages: Vec<Stage>,
    pub edges: Vec<StageEdge>,
    /// Cost model for materialize edges (simulated runs).
    pub materialize: MaterializeModel,
}

impl Workflow {
    pub fn new(name: impl Into<String>) -> Workflow {
        Workflow {
            name: name.into(),
            stages: Vec::new(),
            edges: Vec::new(),
            materialize: MaterializeModel::default(),
        }
    }

    /// Add a stage; returns its index.
    pub fn add_stage(&mut self, stage: Stage) -> usize {
        self.stages.push(stage);
        self.stages.len() - 1
    }

    /// Connect `from` → `to` with a data adapter.
    pub fn connect(
        &mut self,
        from: usize,
        to: usize,
        policy: DataPolicy,
        adapter: Arc<dyn StageAdapter>,
    ) -> &mut Workflow {
        self.edges.push(StageEdge {
            from,
            to,
            policy,
            adapter: Some(adapter),
        });
        self
    }

    /// Connect `from` → `to` as an ordering/cost dependency without a data
    /// adapter (sim-only workflows, or control barriers).
    pub fn connect_ordering(
        &mut self,
        from: usize,
        to: usize,
        policy: DataPolicy,
    ) -> &mut Workflow {
        self.edges.push(StageEdge {
            from,
            to,
            policy,
            adapter: None,
        });
        self
    }

    /// Edges feeding into stage `to`.
    pub fn in_edges(&self, to: usize) -> impl Iterator<Item = &StageEdge> {
        self.edges.iter().filter(move |e| e.to == to)
    }

    /// The single data edge feeding stage `to`, if any.
    pub fn data_in_edge(&self, to: usize) -> Option<&StageEdge> {
        self.edges
            .iter()
            .find(|e| e.to == to && e.adapter.is_some())
    }

    /// Sink stages (no outgoing edges): their outputs are the workflow's
    /// final outputs.
    pub fn sinks(&self) -> Vec<usize> {
        (0..self.stages.len())
            .filter(|&s| !self.edges.iter().any(|e| e.from == s))
            .collect()
    }

    /// Structural validation shared by native and simulated drivers.
    pub fn validate(&self) -> Result<()> {
        if self.stages.is_empty() {
            return Err(PpcError::InvalidArgument("workflow has no stages".into()));
        }
        for (i, s) in self.stages.iter().enumerate() {
            if s.specs.is_empty() {
                return Err(PpcError::InvalidArgument(format!(
                    "stage {} ({:?}) has no tasks",
                    i, s.name
                )));
            }
            if s.max_attempts == 0 {
                return Err(PpcError::InvalidArgument(format!(
                    "stage {:?} needs at least one attempt",
                    s.name
                )));
            }
        }
        for e in &self.edges {
            if e.from >= self.stages.len() || e.to >= self.stages.len() {
                return Err(PpcError::InvalidArgument(
                    "edge references unknown stage".into(),
                ));
            }
            if e.from == e.to {
                return Err(PpcError::InvalidArgument(
                    "self-loop is not a DAG edge".into(),
                ));
            }
        }
        for (i, s) in self.stages.iter().enumerate() {
            let data_in = self
                .edges
                .iter()
                .filter(|e| e.to == i && e.adapter.is_some());
            if data_in.count() > 1 {
                return Err(PpcError::InvalidArgument(format!(
                    "stage {:?} has more than one data in-edge",
                    s.name
                )));
            }
            if self.data_in_edge(i).is_some() && !s.inputs.is_empty() {
                return Err(PpcError::InvalidArgument(format!(
                    "stage {:?} is fed by a data edge but also carries seed inputs",
                    s.name
                )));
            }
        }
        self.topo_order().map(|_| ())
    }

    /// Additional constraints for native execution: every stage needs an
    /// executor, and every source stage needs one payload per task.
    pub fn validate_native(&self) -> Result<()> {
        self.validate()?;
        for (i, s) in self.stages.iter().enumerate() {
            if s.executor.is_none() {
                return Err(PpcError::InvalidArgument(format!(
                    "stage {:?} has no executor (sim-only workflow?)",
                    s.name
                )));
            }
            if self.data_in_edge(i).is_none() && s.inputs.len() != s.specs.len() {
                return Err(PpcError::InvalidArgument(format!(
                    "source stage {:?} has {} payloads for {} tasks",
                    s.name,
                    s.inputs.len(),
                    s.specs.len()
                )));
            }
        }
        Ok(())
    }

    /// Kahn's algorithm with a deterministic tie-break (smallest stage
    /// index first): topological order, or an error if a cycle exists.
    pub fn topo_order(&self) -> Result<Vec<usize>> {
        let n = self.stages.len();
        let mut indegree = vec![0usize; n];
        for e in &self.edges {
            if e.to < n {
                indegree[e.to] += 1;
            }
        }
        let mut ready: std::collections::BTreeSet<usize> =
            (0..n).filter(|&s| indegree[s] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(&s) = ready.iter().next() {
            ready.remove(&s);
            order.push(s);
            for e in &self.edges {
                if e.from == s {
                    indegree[e.to] -= 1;
                    if indegree[e.to] == 0 {
                        ready.insert(e.to);
                    }
                }
            }
        }
        if order.len() != n {
            return Err(PpcError::InvalidState("workflow contains a cycle".into()));
        }
        Ok(order)
    }

    /// Group stages into dependency levels (level = longest path from a
    /// source) — the wave structure a barrier scheduler executes, and the
    /// stage indices a Dryad vertex graph inherits.
    pub fn levels(&self) -> Result<Vec<Vec<usize>>> {
        let order = self.topo_order()?;
        let mut level = vec![0usize; self.stages.len()];
        for &s in &order {
            for e in self.in_edges(s) {
                level[s] = level[s].max(level[e.from] + 1);
            }
        }
        let n_levels = level.iter().max().map(|m| m + 1).unwrap_or(0);
        let mut out = vec![Vec::new(); n_levels];
        for (s, &l) in level.iter().enumerate() {
            out[l].push(s);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_core::task::ResourceProfile;

    fn specs(stage: &str, n: usize) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| {
                let mut p = ResourceProfile::cpu_bound(1.0);
                p.output_bytes = 1000;
                TaskSpec::new(i as u64, "t", format!("{stage}/f{i}"), p)
            })
            .collect()
    }

    fn diamond() -> Workflow {
        // 0 → 1, 0 → 2, 1 → 3, 2 → 3 (edge into 3 from 2 is ordering-only).
        let mut wf = Workflow::new("diamond");
        for name in ["a", "b", "c", "d"] {
            wf.add_stage(Stage::new(name, specs(name, 2)));
        }
        wf.connect(0, 1, DataPolicy::Materialize, FnAdapter::identity());
        wf.connect(0, 2, DataPolicy::Pipeline, FnAdapter::identity());
        wf.connect(1, 3, DataPolicy::Materialize, FnAdapter::identity());
        wf.connect_ordering(2, 3, DataPolicy::Pipeline);
        wf
    }

    #[test]
    fn topo_order_is_deterministic_and_respects_edges() {
        let wf = diamond();
        wf.validate().unwrap();
        let order = wf.topo_order().unwrap();
        assert_eq!(order, vec![0, 1, 2, 3]);
        let pos = |v: usize| order.iter().position(|&x| x == v).unwrap();
        for e in &wf.edges {
            assert!(pos(e.from) < pos(e.to));
        }
    }

    #[test]
    fn levels_group_by_longest_path() {
        let wf = diamond();
        assert_eq!(wf.levels().unwrap(), vec![vec![0], vec![1, 2], vec![3]]);
        assert_eq!(wf.sinks(), vec![3]);
    }

    #[test]
    fn cycle_and_self_loop_rejected() {
        let mut wf = diamond();
        wf.connect_ordering(3, 0, DataPolicy::Pipeline);
        assert_eq!(wf.topo_order().unwrap_err().code(), "InvalidState");
        assert!(wf.validate().is_err());

        let mut wf = Workflow::new("loop");
        wf.add_stage(Stage::new("a", specs("a", 1)));
        wf.connect_ordering(0, 0, DataPolicy::Pipeline);
        assert!(wf.validate().is_err());
    }

    #[test]
    fn validation_rejects_malformed_workflows() {
        assert!(Workflow::new("empty").validate().is_err());

        let mut wf = Workflow::new("no-tasks");
        wf.add_stage(Stage::new("a", vec![]));
        assert!(wf.validate().is_err());

        // Two data in-edges into one stage.
        let mut wf = Workflow::new("fan-in");
        wf.add_stage(Stage::new("a", specs("a", 1)));
        wf.add_stage(Stage::new("b", specs("b", 1)));
        wf.add_stage(Stage::new("c", specs("c", 1)));
        wf.connect(0, 2, DataPolicy::Materialize, FnAdapter::identity());
        wf.connect(1, 2, DataPolicy::Materialize, FnAdapter::identity());
        assert!(wf.validate().is_err());

        // Derived stage carrying seed inputs.
        let mut wf = Workflow::new("double-fed");
        wf.add_stage(Stage::new("a", specs("a", 1)));
        wf.add_stage(Stage::new("b", specs("b", 1)).with_inputs(vec![vec![1]]));
        wf.connect(0, 1, DataPolicy::Materialize, FnAdapter::identity());
        assert!(wf.validate().is_err());

        // Edge out of range.
        let mut wf = Workflow::new("bad-edge");
        wf.add_stage(Stage::new("a", specs("a", 1)));
        wf.connect_ordering(0, 9, DataPolicy::Pipeline);
        assert!(wf.validate().is_err());
    }

    #[test]
    fn native_validation_needs_executors_and_payloads() {
        let wf = diamond();
        // Sim-only (no executors) passes validate but not validate_native.
        assert!(wf.validate().is_ok());
        assert!(wf.validate_native().is_err());
    }

    #[test]
    fn fn_adapter_canonicalizes_on_basename() {
        let adapter = FnAdapter::new("upper", |_k, b| Ok(b.to_ascii_uppercase()));
        // Upstream arrives in completion order with paradigm-specific
        // prefixes; adaptation must not depend on either.
        let upstream = vec![
            ("rep0/x/f1.out".to_string(), b"bb".to_vec()),
            ("other-prefix/f0.out".to_string(), b"aa".to_vec()),
        ];
        let down = specs("d", 2);
        let got = adapter.adapt(&upstream, &down).unwrap();
        assert_eq!(got, vec![b"AA".to_vec(), b"BB".to_vec()]);
        assert!(adapter.adapt(&upstream, &specs("d", 3)).is_err());
    }

    #[test]
    fn materialize_model_costs_latency_plus_bandwidth() {
        let m = MaterializeModel {
            bandwidth_bytes_per_s: 100.0,
            latency_s: 2.0,
        };
        assert!((m.transfer_s(1000) - 12.0).abs() < 1e-12);
        let wf = diamond();
        assert_eq!(wf.stages[0].output_bytes(), 2000);
    }
}

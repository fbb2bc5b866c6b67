//! `DVec<T>` — a DryadLINQ-flavoured distributed collection.
//!
//! A `DVec` is a collection statically split into partitions, one per
//! (conceptual) node. Operators build a new `DVec` by running one vertex per
//! partition, in parallel threads, mirroring how DryadLINQ translates a
//! query operator into a stage of vertices over the existing partitions.
//! Every operator is homomorphic: partition `i` of the output comes from
//! partition `i` of the input alone.

use crate::graph::Graph;
use crate::partition::partition_round_robin;
use ppc_core::Result;
use std::sync::Mutex;

/// A statically partitioned distributed collection.
///
/// ```
/// use ppc_dryad::linq::DVec;
/// let squares: Vec<i64> = DVec::distribute((0..10).collect(), 4)
///     .select(|x| x * x)
///     .where_(|x| x % 2 == 0)
///     .collect();
/// let mut sorted = squares.clone();
/// sorted.sort_unstable();
/// assert_eq!(sorted, vec![0, 4, 16, 36, 64]);
/// ```
#[derive(Debug, Clone)]
pub struct DVec<T> {
    partitions: Vec<Vec<T>>,
    /// The dataflow graph accumulated by the operator chain (one stage per
    /// operator, one vertex per partition).
    graph: Graph,
}

impl<T: Send> DVec<T> {
    /// Distribute `items` round-robin over `n_partitions` "nodes".
    pub fn distribute(items: Vec<T>, n_partitions: usize) -> DVec<T> {
        let partitions = partition_round_robin(items, n_partitions);
        let mut graph = Graph::new();
        for p in 0..partitions.len() {
            graph.add_vertex(format!("input-{p}"), 0, p);
        }
        DVec { partitions, graph }
    }

    /// Use existing partitions as-is (the "data already on node-local disks"
    /// starting state of every paper experiment).
    pub fn from_partitions(partitions: Vec<Vec<T>>) -> DVec<T> {
        let mut graph = Graph::new();
        for p in 0..partitions.len() {
            graph.add_vertex(format!("input-{p}"), 0, p);
        }
        DVec { partitions, graph }
    }

    pub fn n_partitions(&self) -> usize {
        self.partitions.len()
    }

    pub fn len(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sizes of each partition — the static-balance diagnostic.
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.partitions.iter().map(Vec::len).collect()
    }

    /// The accumulated dataflow graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    fn next_stage(&self) -> usize {
        self.graph.stages().len()
    }

    /// Run one vertex per partition, pointwise edges — shared scaffold for
    /// the homomorphic operators. `f` receives `(partition_index, items)`.
    fn pointwise_stage<U: Send>(
        mut self,
        op_name: &str,
        f: impl Fn(usize, Vec<T>) -> Result<Vec<U>> + Send + Sync,
    ) -> Result<DVec<U>> {
        let stage = self.next_stage();
        let n = self.partitions.len();
        // Record graph structure: one vertex per partition, pointwise edges.
        let prev_first = self.graph.n_vertices() - n;
        for p in 0..n {
            let v = self.graph.add_vertex(format!("{op_name}-{p}"), stage, p);
            self.graph.add_edge(prev_first + p, v)?;
        }
        // Execute: one thread per partition (a vertex per partition, run in
        // parallel, as Dryad schedules a stage).
        let results: Mutex<Vec<Option<Result<Vec<U>>>>> =
            Mutex::new((0..n).map(|_| None).collect());
        std::thread::scope(|scope| {
            for (p, part) in self.partitions.drain(..).enumerate() {
                let f = &f;
                let results = &results;
                scope.spawn(move || {
                    let r = f(p, part);
                    results.lock().unwrap()[p] = Some(r);
                });
            }
        });
        let mut partitions = Vec::with_capacity(n);
        for r in results.into_inner().unwrap() {
            partitions.push(r.expect("every partition ran")?);
        }
        Ok(DVec {
            partitions,
            graph: self.graph,
        })
    }

    /// DryadLINQ `Select`: apply `f` to every element.
    pub fn select<U: Send>(self, f: impl Fn(T) -> U + Send + Sync) -> DVec<U> {
        self.pointwise_stage("select", |_p, part| Ok(part.into_iter().map(&f).collect()))
            .expect("infallible select")
    }

    /// `Select` with a fallible element function (the paper's vertices run
    /// external programs that can fail).
    pub fn try_select<U: Send>(self, f: impl Fn(T) -> Result<U> + Send + Sync) -> Result<DVec<U>> {
        self.pointwise_stage("select", |_p, part| part.into_iter().map(&f).collect())
    }

    /// DryadLINQ `Where`: keep elements satisfying the predicate.
    pub fn where_(self, pred: impl Fn(&T) -> bool + Send + Sync) -> DVec<T> {
        self.pointwise_stage("where", |_p, part| {
            Ok(part.into_iter().filter(|x| pred(x)).collect())
        })
        .expect("infallible where")
    }

    /// DryadLINQ `Apply`: an arbitrary function over each whole partition.
    pub fn apply<U: Send>(self, f: impl Fn(Vec<T>) -> Vec<U> + Send + Sync) -> DVec<U> {
        self.pointwise_stage("apply", |_p, part| Ok(f(part)))
            .expect("infallible apply")
    }

    /// [`DVec::apply`] with per-vertex wall-time measurement — the
    /// observability hook for diagnosing static load imbalance (returns the
    /// seconds each partition's vertex spent).
    pub fn apply_timed<U: Send>(
        self,
        f: impl Fn(Vec<T>) -> Vec<U> + Send + Sync,
    ) -> (DVec<U>, Vec<f64>) {
        let times: Mutex<Vec<f64>> = Mutex::new(vec![0.0; self.n_partitions()]);
        let out = self
            .pointwise_stage("apply", |p, part| {
                let start = std::time::Instant::now();
                let result = f(part);
                times.lock().unwrap()[p] = start.elapsed().as_secs_f64();
                Ok(result)
            })
            .expect("infallible apply");
        (out, times.into_inner().unwrap())
    }

    /// Gather all partitions to the client, in partition order.
    pub fn collect(self) -> Vec<T> {
        self.partitions.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_core::PpcError;

    #[test]
    fn distribute_and_collect_round_trip() {
        let d = DVec::distribute((0..10).collect(), 3);
        assert_eq!(d.n_partitions(), 3);
        assert_eq!(d.len(), 10);
        let mut got = d.collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn select_maps_all_elements() {
        let d = DVec::distribute((0..100).collect::<Vec<i64>>(), 4);
        let mut out = d.select(|x| x * 2).collect();
        out.sort_unstable();
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<i64>>());
    }

    #[test]
    fn where_filters() {
        let d = DVec::distribute((0..100).collect::<Vec<i64>>(), 4);
        let out = d.where_(|x| x % 2 == 0);
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn apply_sees_whole_partitions() {
        let d = DVec::from_partitions(vec![vec![1, 2, 3], vec![4, 5]]);
        let sums = d.apply(|part| vec![part.iter().sum::<i32>()]);
        assert_eq!(sums.partition_sizes(), vec![1, 1]);
        let mut out = sums.collect();
        out.sort_unstable();
        assert_eq!(out, vec![6, 9]);
    }

    #[test]
    fn try_select_propagates_errors() {
        let d = DVec::distribute((0..10).collect::<Vec<i64>>(), 2);
        let err = d
            .try_select(|x| {
                if x == 7 {
                    Err(PpcError::TaskFailed("seven".into()))
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
        assert_eq!(err.code(), "TaskFailed");
    }

    #[test]
    fn graph_grows_with_operators() {
        let d = DVec::distribute((0..8).collect::<Vec<i64>>(), 2);
        let d = d.select(|x| x + 1).where_(|x| *x > 2);
        let g = d.graph();
        // 3 stages (input, select, where) x 2 partitions.
        assert_eq!(g.n_vertices(), 6);
        assert_eq!(g.n_edges(), 4);
        assert!(g.topological_order().is_ok());
        assert_eq!(g.stages().len(), 3);
    }

    #[test]
    fn apply_timed_attributes_time_to_the_right_partition() {
        // Partition 1 sleeps; its slot (and only its slot) shows the time.
        let d = DVec::from_partitions(vec![vec![1], vec![2], vec![3]]);
        let (out, times) = d.apply_timed(|part| {
            if part == vec![2] {
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            part
        });
        assert_eq!(out.n_partitions(), 3);
        assert!(times[1] >= 0.035, "slow partition timed: {times:?}");
        assert!(
            times[0] < 0.02 && times[2] < 0.02,
            "fast partitions cheap: {times:?}"
        );
    }

    #[test]
    fn chained_pipeline_end_to_end() {
        let words = vec!["a", "bb", "ccc", "dd", "e", "ffff"];
        let d = DVec::distribute(words, 3)
            .select(|w| w.len())
            .where_(|l| *l >= 2);
        let mut out = d.collect();
        out.sort_unstable();
        assert_eq!(out, vec![2, 2, 3, 4]);
    }
}

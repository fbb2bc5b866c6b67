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
        for _ in &partitions {
            graph.add_vertex(0);
        }
        DVec { partitions, graph }
    }

    pub fn len(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The accumulated dataflow graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    fn next_stage(&self) -> usize {
        self.graph.stages().len()
    }

    /// Run one vertex per partition, pointwise edges — shared scaffold for
    /// the homomorphic operators. `f` receives one partition's items.
    fn pointwise_stage<U: Send>(
        mut self,
        f: impl Fn(Vec<T>) -> Result<Vec<U>> + Send + Sync,
    ) -> Result<DVec<U>> {
        let stage = self.next_stage();
        let n = self.partitions.len();
        // Record graph structure: one vertex per partition, pointwise edges.
        let prev_first = self.graph.n_vertices() - n;
        for p in 0..n {
            let v = self.graph.add_vertex(stage);
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
                    let r = f(part);
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
        self.pointwise_stage(|part| Ok(part.into_iter().map(&f).collect()))
            .expect("infallible select")
    }

    /// `Select` with a fallible element function (the paper's vertices run
    /// external programs that can fail).
    pub fn try_select<U: Send>(self, f: impl Fn(T) -> Result<U> + Send + Sync) -> Result<DVec<U>> {
        self.pointwise_stage(|part| part.into_iter().map(&f).collect())
    }

    /// DryadLINQ `Where`: keep elements satisfying the predicate.
    pub fn where_(self, pred: impl Fn(&T) -> bool + Send + Sync) -> DVec<T> {
        self.pointwise_stage(|part| Ok(part.into_iter().filter(|x| pred(x)).collect()))
            .expect("infallible where")
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
        assert_eq!(d.partitions.len(), 3);
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
        assert!(g.topological_order().is_ok());
        assert_eq!(g.stages().len(), 3);
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

//! Directed acyclic dataflow graphs.
//!
//! Dryad expresses computations as DAGs of vertices connected by channels.
//! This module provides the graph bookkeeping: construction, cycle
//! detection, topological staging. The `linq` layer builds these graphs
//! as it chains operators, and the runtime executes stage by stage.

use ppc_core::{PpcError, Result};

/// A DAG of vertices and channels. The graph only carries structure, as
/// Dryad's graph manager does: the computation payloads live with the
/// executing layer.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// Each vertex's stage (the operator it belongs to), by vertex index.
    stage_of: Vec<usize>,
    /// Channel (from, to) pairs by vertex index.
    edges: Vec<(usize, usize)>,
}

impl Graph {
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Add a vertex of `stage`; returns its index.
    pub fn add_vertex(&mut self, stage: usize) -> usize {
        self.stage_of.push(stage);
        self.stage_of.len() - 1
    }

    /// Connect `from`'s output channel to `to`'s input.
    pub fn add_edge(&mut self, from: usize, to: usize) -> Result<()> {
        if from >= self.stage_of.len() || to >= self.stage_of.len() {
            return Err(PpcError::InvalidArgument(
                "edge references unknown vertex".into(),
            ));
        }
        if from == to {
            return Err(PpcError::InvalidArgument(
                "self-loop is not a DAG edge".into(),
            ));
        }
        self.edges.push((from, to));
        Ok(())
    }

    pub fn n_vertices(&self) -> usize {
        self.stage_of.len()
    }

    /// Kahn's algorithm: topological order, or an error if a cycle exists.
    pub fn topological_order(&self) -> Result<Vec<usize>> {
        let n = self.stage_of.len();
        let mut indegree = vec![0usize; n];
        for &(_, t) in &self.edges {
            indegree[t] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop() {
            order.push(v);
            for &(f, t) in &self.edges {
                if f == v {
                    indegree[t] -= 1;
                    if indegree[t] == 0 {
                        queue.push(t);
                    }
                }
            }
        }
        if order.len() != n {
            return Err(PpcError::InvalidState("graph contains a cycle".into()));
        }
        Ok(order)
    }

    /// Group vertex indices by stage, stages sorted ascending — the unit the
    /// runtime executes with a barrier between stages, like Dryad's stage
    /// manager.
    pub fn stages(&self) -> Vec<Vec<usize>> {
        let n_stages = self.stage_of.iter().max().map_or(0, |s| s + 1);
        let mut stages = vec![Vec::new(); n_stages];
        for (i, &stage) in self.stage_of.iter().enumerate() {
            stages[stage].push(i);
        }
        stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_topo_sort() {
        let mut g = Graph::new();
        let a = g.add_vertex(0);
        let b = g.add_vertex(0);
        let c = g.add_vertex(1);
        let d = g.add_vertex(1);
        g.add_edge(a, c).unwrap();
        g.add_edge(b, d).unwrap();
        let order = g.topological_order().unwrap();
        let pos = |v: usize| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(a) < pos(c));
        assert!(pos(b) < pos(d));
        assert_eq!(g.n_vertices(), 4);
    }

    #[test]
    fn cycle_detected() {
        let mut g = Graph::new();
        let a = g.add_vertex(0);
        let b = g.add_vertex(0);
        g.add_edge(a, b).unwrap();
        g.add_edge(b, a).unwrap();
        assert_eq!(g.topological_order().unwrap_err().code(), "InvalidState");
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = Graph::new();
        let a = g.add_vertex(0);
        assert!(g.add_edge(a, a).is_err());
    }

    #[test]
    fn bad_edge_rejected() {
        let mut g = Graph::new();
        let a = g.add_vertex(0);
        assert!(g.add_edge(a, 99).is_err());
    }

    #[test]
    fn stages_group_vertices() {
        let mut g = Graph::new();
        g.add_vertex(0);
        g.add_vertex(0);
        g.add_vertex(1);
        let stages = g.stages();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0], vec![0, 1]);
        assert_eq!(stages[1], vec![2]);
    }
}

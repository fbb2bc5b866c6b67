//! Replica placement with rack awareness.
//!
//! Implements HDFS's classic default policy: first replica on the writer's
//! node (or a random node for remote writers), second replica on a node in a
//! *different* rack, third replica on a different node in the *same* rack as
//! the second. Further replicas go to random distinct nodes.

use crate::block::DataNodeId;
use ppc_core::rng::Pcg32;

/// Cluster topology and replication settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementPolicy {
    pub n_nodes: usize,
    /// Nodes per rack; `node / nodes_per_rack` is the rack id.
    pub nodes_per_rack: usize,
    pub replication: usize,
}

impl PlacementPolicy {
    pub fn new(n_nodes: usize, nodes_per_rack: usize, replication: usize) -> PlacementPolicy {
        assert!(n_nodes > 0 && nodes_per_rack > 0 && replication > 0);
        PlacementPolicy {
            n_nodes,
            nodes_per_rack,
            replication,
        }
    }

    /// Rack of a node.
    pub fn rack_of(&self, node: DataNodeId) -> usize {
        node.0 / self.nodes_per_rack
    }

    /// Effective replication: can't exceed the cluster size.
    pub fn effective_replication(&self) -> usize {
        self.replication.min(self.n_nodes)
    }

    /// Choose replica nodes for one block.
    pub fn place(&self, writer: Option<DataNodeId>, rng: &mut Pcg32) -> Vec<DataNodeId> {
        let want = self.effective_replication();
        let mut chosen: Vec<DataNodeId> = Vec::with_capacity(want);

        // 1st: writer-local, else random.
        let first = writer.unwrap_or(DataNodeId(rng.next_below(self.n_nodes as u32) as usize));
        chosen.push(first);

        // 2nd: different rack from the first, if the cluster has one.
        if chosen.len() < want {
            if let Some(n) = self.pick(rng, &chosen, |c| self.rack_of(c) != self.rack_of(first)) {
                chosen.push(n);
            } else if let Some(n) = self.pick(rng, &chosen, |_| true) {
                chosen.push(n);
            }
        }

        // 3rd: same rack as the second, different node.
        if chosen.len() < want {
            let second = chosen[1];
            if let Some(n) = self.pick(rng, &chosen, |c| self.rack_of(c) == self.rack_of(second)) {
                chosen.push(n);
            } else if let Some(n) = self.pick(rng, &chosen, |_| true) {
                chosen.push(n);
            }
        }

        // Rest: anywhere distinct.
        while chosen.len() < want {
            match self.pick(rng, &chosen, |_| true) {
                Some(n) => chosen.push(n),
                None => break,
            }
        }
        chosen
    }

    /// Pick a node not yet chosen that satisfies `pred`, uniformly at random.
    fn pick(
        &self,
        rng: &mut Pcg32,
        taken: &[DataNodeId],
        pred: impl Fn(DataNodeId) -> bool,
    ) -> Option<DataNodeId> {
        let candidates: Vec<DataNodeId> = (0..self.n_nodes)
            .map(DataNodeId)
            .filter(|n| !taken.contains(n) && pred(*n))
            .collect();
        rng.choose(&candidates).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicas_are_distinct() {
        let p = PlacementPolicy::new(8, 4, 3);
        let mut rng = Pcg32::new(1);
        for _ in 0..200 {
            let r = p.place(None, &mut rng);
            assert_eq!(r.len(), 3);
            let mut d = r.clone();
            d.sort();
            d.dedup();
            assert_eq!(d.len(), 3, "replicas distinct: {r:?}");
        }
    }

    #[test]
    fn writer_gets_first_replica() {
        let p = PlacementPolicy::new(8, 4, 3);
        let mut rng = Pcg32::new(2);
        let r = p.place(Some(DataNodeId(5)), &mut rng);
        assert_eq!(r[0], DataNodeId(5));
    }

    #[test]
    fn rack_policy_one_off_rack_two_on_rack() {
        let p = PlacementPolicy::new(8, 4, 3);
        let mut rng = Pcg32::new(3);
        for _ in 0..100 {
            let r = p.place(Some(DataNodeId(0)), &mut rng);
            let racks: Vec<usize> = r.iter().map(|n| p.rack_of(*n)).collect();
            assert_ne!(racks[0], racks[1], "second replica off-rack: {r:?}");
            assert_eq!(racks[1], racks[2], "third replica on second's rack: {r:?}");
        }
    }

    #[test]
    fn replication_clamped_to_cluster() {
        let p = PlacementPolicy::new(2, 2, 3);
        let mut rng = Pcg32::new(4);
        let r = p.place(None, &mut rng);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn single_node_cluster_works() {
        let p = PlacementPolicy::new(1, 1, 3);
        let mut rng = Pcg32::new(6);
        assert_eq!(p.place(None, &mut rng), vec![DataNodeId(0)]);
    }
}

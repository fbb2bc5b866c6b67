//! Provisioned fleets: "N instances of type T with W workers per instance".
//!
//! The paper labels its EC2 configurations `HCXL – 2 × 8` ("two
//! High-CPU-Extra-Large instances with 8 workers per instance", §3); a
//! [`Cluster`] is exactly that triple, shared by the native runtimes (which
//! spawn a thread per worker slot) and the simulator (which models a FIFO
//! server per instance).

use crate::billing::{instance_cost, CostBreakdown};
use crate::instance::InstanceType;

/// One provisioned machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node {
    /// Index within the cluster, 0-based.
    pub id: usize,
    pub itype: InstanceType,
    /// Worker processes configured on this node.
    pub workers: usize,
}

/// A homogeneous fleet of instances.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    name: String,
    nodes: Vec<Node>,
}

impl Cluster {
    /// Provision `n` instances of `itype` with `workers_per_node` workers
    /// each — the paper's `TYPE – n × w` notation.
    pub fn provision(itype: InstanceType, n: usize, workers_per_node: usize) -> Cluster {
        assert!(n > 0, "need at least one instance");
        assert!(
            workers_per_node > 0,
            "need at least one worker per instance"
        );
        let nodes = (0..n)
            .map(|id| Node {
                id,
                itype,
                workers: workers_per_node,
            })
            .collect();
        Cluster {
            name: format!("{} - {} x {}", itype.name, n, workers_per_node),
            nodes,
        }
    }

    /// Provision with one worker per core, the default configuration.
    pub fn provision_per_core(itype: InstanceType, n: usize) -> Cluster {
        Cluster::provision(itype, n, itype.cores)
    }

    /// The `TYPE – n × w` label used on the paper's figure axes.
    pub fn label(&self) -> &str {
        &self.name
    }

    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Instance type (homogeneous by construction).
    pub fn itype(&self) -> InstanceType {
        self.nodes[0].itype
    }

    /// Total worker slots across the fleet.
    pub fn total_workers(&self) -> usize {
        self.nodes.iter().map(|n| n.workers).sum()
    }

    /// Cost of holding the whole fleet for `seconds`.
    pub fn cost(&self, seconds: f64) -> CostBreakdown {
        instance_cost(&self.itype(), self.n_nodes(), seconds)
    }

    /// Iterate `(node_id, worker_slot)` pairs — what the native runtimes
    /// spawn a thread for.
    pub fn worker_slots(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.nodes
            .iter()
            .flat_map(|n| (0..n.workers).map(move |w| (n.id, w)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{EC2_HCXL, EC2_LARGE};
    use ppc_core::money::Usd;

    #[test]
    fn paper_notation_label() {
        let c = Cluster::provision(EC2_HCXL, 2, 8);
        assert_eq!(c.label(), "HCXL - 2 x 8");
        assert_eq!(c.total_workers(), 16);
        assert_eq!(c.n_nodes() * c.itype().cores, 16);
    }

    #[test]
    fn sixteen_core_configs_match_paper_figure_axes() {
        // Figure 3's axis: L-8x2, XL-4x4, HCXL-2x8, HM4XL-2x8 — all 16 cores.
        for (t, n) in [
            (EC2_LARGE, 8),
            (crate::instance::EC2_XLARGE, 4),
            (EC2_HCXL, 2),
            (crate::instance::EC2_HM4XL, 2),
        ] {
            let c = Cluster::provision_per_core(t, n);
            assert_eq!(c.n_nodes() * c.itype().cores, 16, "{}", c.label());
        }
    }

    #[test]
    fn worker_slots_enumerate_all() {
        let c = Cluster::provision(EC2_HCXL, 2, 3);
        let slots: Vec<_> = c.worker_slots().collect();
        assert_eq!(slots, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn fleet_cost() {
        let c = Cluster::provision(EC2_HCXL, 16, 8);
        assert_eq!(c.cost(1800.0).compute_cost, Usd::cents(1088));
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn empty_cluster_rejected() {
        Cluster::provision(EC2_HCXL, 0, 8);
    }
}

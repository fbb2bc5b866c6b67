//! The filesystem: namenode + datanodes in one thread-safe object.
//!
//! Real HDFS separates the namenode process from datanode daemons; here
//! they are one [`MiniHdfs`] value because the frameworks only ever see the
//! client API. The essential behaviours — block splitting, replica
//! placement, locality metadata, datanode failure, re-replication — are all
//! faithfully modeled.

use crate::block::{BlockId, BlockInfo, DataNodeId, FileStatus};
use crate::placement::PlacementPolicy;
use ppc_core::rng::Pcg32;
use ppc_core::sync::RwLock;
use ppc_core::{PpcError, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct BlockRecord {
    data: Arc<Vec<u8>>,
    replicas: Vec<DataNodeId>,
}

struct FileMeta {
    blocks: Vec<BlockId>,
    len: u64,
}

struct Inner {
    files: HashMap<String, FileMeta>,
    blocks: HashMap<BlockId, BlockRecord>,
    alive: Vec<bool>,
    next_block: u64,
    rng: Pcg32,
}

/// A miniature HDFS cluster.
///
/// ```
/// use ppc_hdfs::fs::MiniHdfs;
/// use ppc_hdfs::block::DataNodeId;
/// let fs = MiniHdfs::new(4, 64 << 20, 3, 42);
/// fs.create("/in/reads.fa", b">r1\nACGT\n", None).unwrap();
/// // Replicated on three datanodes; survives losing one.
/// fs.kill_datanode(DataNodeId(0)).unwrap();
/// assert_eq!(fs.read("/in/reads.fa").unwrap(), b">r1\nACGT\n");
/// ```
pub struct MiniHdfs {
    inner: RwLock<Inner>,
    policy: PlacementPolicy,
    block_size: u64,
    /// Block reads served by a replica on the reader's own node.
    local_reads: AtomicU64,
    /// Block reads that had to cross the network.
    remote_reads: AtomicU64,
}

impl MiniHdfs {
    /// Create a cluster of `n_nodes` datanodes.
    pub fn new(n_nodes: usize, block_size: u64, replication: usize, seed: u64) -> Arc<MiniHdfs> {
        assert!(block_size > 0, "block size must be positive");
        // Default rack width 8, HDFS-ish.
        let nodes_per_rack = 8.min(n_nodes.max(1));
        Arc::new(MiniHdfs {
            inner: RwLock::new(Inner {
                files: HashMap::new(),
                blocks: HashMap::new(),
                alive: vec![true; n_nodes],
                next_block: 0,
                rng: Pcg32::new(seed),
            }),
            policy: PlacementPolicy::new(n_nodes, nodes_per_rack, replication),
            block_size,
            local_reads: AtomicU64::new(0),
            remote_reads: AtomicU64::new(0),
        })
    }

    /// A cluster with HDFS-classic defaults: 64 MB blocks, 3 replicas.
    pub fn with_defaults(n_nodes: usize) -> Arc<MiniHdfs> {
        MiniHdfs::new(n_nodes, 64 << 20, 3, 0x4d5f)
    }

    pub fn n_nodes(&self) -> usize {
        self.policy.n_nodes
    }

    /// (local, remote) block-read counters.
    pub fn read_stats(&self) -> (u64, u64) {
        (
            self.local_reads.load(Ordering::Relaxed),
            self.remote_reads.load(Ordering::Relaxed),
        )
    }

    /// Write a file, splitting into blocks and placing replicas. `writer`
    /// pins the first replica of every block to that node (HDFS semantics
    /// for datanode-local writers).
    pub fn create(
        &self,
        path: &str,
        data: &[u8],
        writer: Option<DataNodeId>,
    ) -> Result<FileStatus> {
        if path.is_empty() {
            return Err(PpcError::InvalidArgument("empty path".into()));
        }
        let mut inner = self.inner.write();
        if inner.files.contains_key(path) {
            return Err(PpcError::AlreadyExists(format!("file '{path}'")));
        }
        if let Some(w) = writer {
            if w.0 >= self.policy.n_nodes || !inner.alive[w.0] {
                return Err(PpcError::InvalidArgument(format!(
                    "writer {w} is not an alive datanode"
                )));
            }
        }
        let mut block_ids = Vec::new();
        let chunks: Vec<&[u8]> = if data.is_empty() {
            vec![&[][..]] // an empty file still gets one (empty) block
        } else {
            data.chunks(self.block_size as usize).collect()
        };
        for chunk in chunks {
            let id = BlockId(inner.next_block);
            inner.next_block += 1;
            // Placement may only use alive nodes: filter post-hoc by retry.
            let replicas = loop {
                let r = self.policy.place(writer, &mut inner.rng);
                if r.iter().all(|n| inner.alive[n.0]) {
                    break r;
                }
                // If too few nodes are alive to satisfy the filter, fall back
                // to any alive subset.
                let alive: Vec<DataNodeId> = (0..self.policy.n_nodes)
                    .filter(|i| inner.alive[*i])
                    .map(DataNodeId)
                    .collect();
                if alive.len() <= self.policy.effective_replication() {
                    break alive;
                }
            };
            if replicas.is_empty() {
                return Err(PpcError::CapacityExceeded("no alive datanodes".into()));
            }
            inner.blocks.insert(
                id,
                BlockRecord {
                    data: Arc::new(chunk.to_vec()),
                    replicas,
                },
            );
            block_ids.push(id);
        }
        let len = data.len() as u64;
        inner.files.insert(
            path.to_string(),
            FileMeta {
                blocks: block_ids,
                len,
            },
        );
        drop(inner);
        self.status(path)
    }

    /// Namenode metadata for a file; replica lists only include alive nodes.
    pub fn status(&self, path: &str) -> Result<FileStatus> {
        let inner = self.inner.read();
        let meta = inner
            .files
            .get(path)
            .ok_or_else(|| PpcError::NotFound(format!("file '{path}'")))?;
        let mut blocks = Vec::with_capacity(meta.blocks.len());
        let mut offset = 0;
        for id in &meta.blocks {
            let rec = &inner.blocks[id];
            let live: Vec<DataNodeId> = rec
                .replicas
                .iter()
                .copied()
                .filter(|n| inner.alive[n.0])
                .collect();
            let len = rec.data.len() as u64;
            blocks.push(BlockInfo {
                id: *id,
                offset,
                len,
                replicas: live,
            });
            offset += len;
        }
        Ok(FileStatus {
            path: path.to_string(),
            len: meta.len,
            blocks,
        })
    }

    /// Read a whole file from anywhere (client outside the cluster).
    pub fn read(&self, path: &str) -> Result<Vec<u8>> {
        self.read_from(path, None).map(|(d, _)| d)
    }

    /// Read a whole file from the perspective of datanode `reader`.
    /// Returns the data and whether *every* block was served node-locally —
    /// the signal the MapReduce scheduler's locality accounting uses.
    pub fn read_from(&self, path: &str, reader: Option<DataNodeId>) -> Result<(Vec<u8>, bool)> {
        let inner = self.inner.read();
        let meta = inner
            .files
            .get(path)
            .ok_or_else(|| PpcError::NotFound(format!("file '{path}'")))?;
        let mut out = Vec::with_capacity(meta.len as usize);
        let mut all_local = true;
        for id in &meta.blocks {
            let rec = &inner.blocks[id];
            let live: Vec<DataNodeId> = rec
                .replicas
                .iter()
                .copied()
                .filter(|n| inner.alive[n.0])
                .collect();
            if live.is_empty() {
                return Err(PpcError::NotFound(format!(
                    "file '{path}': {id} lost all replicas"
                )));
            }
            let local = reader.map(|r| live.contains(&r)).unwrap_or(false);
            if local {
                self.local_reads.fetch_add(1, Ordering::Relaxed);
            } else {
                self.remote_reads.fetch_add(1, Ordering::Relaxed);
                all_local = false;
            }
            out.extend_from_slice(&rec.data);
        }
        Ok((out, all_local))
    }

    /// List paths with a prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let inner = self.inner.read();
        #[allow(clippy::disallowed_methods)] // sorted before use
        let mut v: Vec<String> = inner
            .files
            .keys()
            .filter(|p| p.starts_with(prefix))
            .cloned()
            .collect();
        v.sort_unstable();
        v
    }

    /// Mark a datanode dead; its replicas become unavailable.
    pub fn kill_datanode(&self, node: DataNodeId) -> Result<()> {
        let mut inner = self.inner.write();
        if node.0 >= inner.alive.len() {
            return Err(PpcError::NotFound(format!("datanode {node}")));
        }
        inner.alive[node.0] = false;
        Ok(())
    }

    /// Blocks currently below the replication target (counting only alive
    /// replicas), as the namenode's replication monitor would see them.
    pub fn under_replicated(&self) -> Vec<BlockId> {
        let inner = self.inner.read();
        let want = self
            .policy
            .effective_replication()
            .min(inner.alive.iter().filter(|a| **a).count());
        #[allow(clippy::disallowed_methods)] // sorted before use
        let mut v: Vec<BlockId> = inner
            .blocks
            .iter()
            .filter(|(_, rec)| rec.replicas.iter().filter(|n| inner.alive[n.0]).count() < want)
            .map(|(id, _)| *id)
            .collect();
        v.sort();
        v
    }

    /// Restore replication for all under-replicated blocks from surviving
    /// replicas. Returns the number of new replicas created. Blocks with no
    /// surviving replica are lost and skipped (real HDFS reports these as
    /// corrupt files). Blocks are visited in id order, so the seeded target
    /// draws repeat from run to run.
    pub fn re_replicate(&self) -> usize {
        let mut inner = self.inner.write();
        let alive_count = inner.alive.iter().filter(|a| **a).count();
        let want = self.policy.effective_replication().min(alive_count);
        #[allow(clippy::disallowed_methods)] // sorted before use
        let mut ids: Vec<BlockId> = inner.blocks.keys().copied().collect();
        ids.sort_unstable();
        let mut created = 0;
        for id in ids {
            let (live, lost_all): (Vec<DataNodeId>, bool) = {
                let rec = &inner.blocks[&id];
                let live: Vec<DataNodeId> = rec
                    .replicas
                    .iter()
                    .copied()
                    .filter(|n| inner.alive[n.0])
                    .collect();
                let lost = live.is_empty();
                (live, lost)
            };
            if lost_all || live.len() >= want {
                continue;
            }
            // Choose targets among alive nodes not already holding it.
            let mut targets = Vec::new();
            {
                let alive: Vec<DataNodeId> = (0..self.policy.n_nodes)
                    .filter(|i| inner.alive[*i])
                    .map(DataNodeId)
                    .filter(|n| !live.contains(n))
                    .collect();
                let need = want - live.len();
                let mut pool = alive;
                for _ in 0..need {
                    if pool.is_empty() {
                        break;
                    }
                    let idx = inner.rng.next_below(pool.len() as u32) as usize;
                    targets.push(pool.swap_remove(idx));
                }
            }
            let rec = inner.blocks.get_mut(&id).expect("block exists");
            rec.replicas.retain(|n| live.contains(n)); // drop dead replicas
            for t in targets {
                rec.replicas.push(t);
                created += 1;
            }
        }
        created
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_read_round_trip() {
        let fs = MiniHdfs::new(4, 16, 2, 1);
        let data: Vec<u8> = (0..100u8).collect();
        let st = fs.create("/data/f1", &data, None).unwrap();
        assert_eq!(st.len, 100);
        assert_eq!(st.blocks.len(), 7, "100 bytes / 16-byte blocks = 7 blocks");
        assert_eq!(fs.read("/data/f1").unwrap(), data);
    }

    #[test]
    fn duplicate_create_rejected() {
        let fs = MiniHdfs::new(2, 16, 2, 1);
        fs.create("/f", b"x", None).unwrap();
        assert_eq!(
            fs.create("/f", b"y", None).unwrap_err().code(),
            "AlreadyExists"
        );
    }

    #[test]
    fn replication_level_respected() {
        let fs = MiniHdfs::new(6, 1 << 20, 3, 2);
        let st = fs.create("/f", &[1; 100], None).unwrap();
        assert!(st.blocks.iter().all(|b| b.replicas.len() == 3));
    }

    #[test]
    fn writer_local_first_replica() {
        let fs = MiniHdfs::new(6, 1 << 20, 3, 3);
        let st = fs.create("/f", &[1; 10], Some(DataNodeId(4))).unwrap();
        assert_eq!(st.blocks[0].replicas[0], DataNodeId(4));
    }

    #[test]
    fn local_vs_remote_reads() {
        let fs = MiniHdfs::new(4, 1 << 20, 1, 4);
        let st = fs.create("/f", &[7; 10], Some(DataNodeId(2))).unwrap();
        assert_eq!(st.blocks[0].replicas, vec![DataNodeId(2)]);
        let (_, local) = fs.read_from("/f", Some(DataNodeId(2))).unwrap();
        assert!(local);
        let (_, local) = fs.read_from("/f", Some(DataNodeId(0))).unwrap();
        assert!(!local);
        assert_eq!(fs.read_stats(), (1, 1));
    }

    #[test]
    fn survives_datanode_loss_with_replicas() {
        let fs = MiniHdfs::new(5, 8, 3, 5);
        let data = vec![9u8; 64];
        fs.create("/f", &data, None).unwrap();
        // Kill two nodes; with 3 replicas data must survive.
        fs.kill_datanode(DataNodeId(0)).unwrap();
        fs.kill_datanode(DataNodeId(1)).unwrap();
        assert_eq!(fs.read("/f").unwrap(), data);
    }

    #[test]
    fn loses_data_when_all_replicas_die() {
        let fs = MiniHdfs::new(3, 1 << 20, 1, 6);
        fs.create("/f", &[1; 4], Some(DataNodeId(1))).unwrap();
        fs.kill_datanode(DataNodeId(1)).unwrap();
        let err = fs.read("/f").unwrap_err();
        assert_eq!(err.code(), "NotFound");
    }

    #[test]
    fn re_replication_restores_target() {
        let fs = MiniHdfs::new(6, 8, 3, 7);
        fs.create("/f", &[5u8; 64], None).unwrap();
        fs.kill_datanode(DataNodeId(0)).unwrap();
        fs.kill_datanode(DataNodeId(1)).unwrap();
        let under = fs.under_replicated();
        let created = fs.re_replicate();
        if !under.is_empty() {
            assert!(created > 0);
        }
        assert!(
            fs.under_replicated().is_empty(),
            "all blocks back at target"
        );
        assert_eq!(fs.read("/f").unwrap(), vec![5u8; 64]);
    }

    #[test]
    fn same_seed_re_replicates_to_the_same_hosts() {
        // Each under-replicated block draws its new targets from the seeded
        // RNG, so blocks must be visited in an order that does not depend
        // on hash iteration.
        let hosts_after_repair = || {
            let fs = MiniHdfs::new(8, 1024, 3, 7);
            for i in 0..64 {
                fs.create(&format!("/f{i}"), &[i as u8; 3000], None)
                    .unwrap();
            }
            fs.kill_datanode(DataNodeId(2)).unwrap();
            fs.kill_datanode(DataNodeId(5)).unwrap();
            assert!(fs.re_replicate() > 0);
            let replicas = |i| fs.status(&format!("/f{i}")).unwrap().blocks;
            (0..64)
                .flat_map(|i| replicas(i).into_iter().map(|b| b.replicas))
                .collect::<Vec<_>>()
        };
        assert_eq!(hosts_after_repair(), hosts_after_repair());
    }

    #[test]
    fn list_filters_by_prefix() {
        let fs = MiniHdfs::new(2, 1 << 20, 1, 9);
        fs.create("/in/a", b"1", None).unwrap();
        fs.create("/in/b", b"2", None).unwrap();
        fs.create("/out/c", b"3", None).unwrap();
        assert_eq!(fs.list("/in/"), vec!["/in/a", "/in/b"]);
    }

    #[test]
    fn empty_file_round_trip() {
        let fs = MiniHdfs::new(2, 16, 2, 10);
        let st = fs.create("/empty", b"", None).unwrap();
        assert_eq!(st.len, 0);
        assert_eq!(fs.read("/empty").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn concurrent_creates() {
        let fs = MiniHdfs::with_defaults(8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let fs = fs.clone();
                s.spawn(move || {
                    for i in 0..20 {
                        fs.create(&format!("/t{t}/f{i}"), &[t as u8; 100], None)
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(fs.list("/").len(), 160);
    }
}

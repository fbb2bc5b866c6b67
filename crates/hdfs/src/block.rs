//! Block and datanode identities, file metadata.

use std::fmt;

/// Identifies one datanode (one compute node's local disks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataNodeId(pub usize);

impl fmt::Display for DataNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dn{}", self.0)
    }
}

/// Identifies one block in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk_{}", self.0)
    }
}

/// Where one block of a file lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInfo {
    pub id: BlockId,
    /// Byte offset of this block within the file.
    pub offset: u64,
    /// Block length (== block size except possibly the last block).
    pub len: u64,
    /// Datanodes holding a replica, in placement order.
    pub replicas: Vec<DataNodeId>,
}

/// Status of a file as reported by the namenode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStatus {
    pub path: String,
    pub len: u64,
    pub blocks: Vec<BlockInfo>,
}

impl FileStatus {
    /// All datanodes holding any part of this file — the locality hint set
    /// handed to the MapReduce scheduler.
    pub fn hosts(&self) -> Vec<DataNodeId> {
        let mut hosts: Vec<DataNodeId> = self
            .blocks
            .iter()
            .flat_map(|b| b.replicas.iter().copied())
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        hosts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(DataNodeId(3).to_string(), "dn3");
        assert_eq!(BlockId(12).to_string(), "blk_12");
    }

    #[test]
    fn hosts_dedup_and_sort() {
        let st = FileStatus {
            path: "/f".into(),
            len: 10,
            blocks: vec![
                BlockInfo {
                    id: BlockId(0),
                    offset: 0,
                    len: 5,
                    replicas: vec![DataNodeId(2), DataNodeId(0)],
                },
                BlockInfo {
                    id: BlockId(1),
                    offset: 5,
                    len: 5,
                    replicas: vec![DataNodeId(0), DataNodeId(1)],
                },
            ],
        };
        assert_eq!(
            st.hosts(),
            vec![DataNodeId(0), DataNodeId(1), DataNodeId(2)]
        );
    }

    #[test]
    fn empty_file_has_no_hosts() {
        let st = FileStatus {
            path: "/e".into(),
            len: 0,
            blocks: vec![],
        };
        assert!(st.hosts().is_empty());
    }
}

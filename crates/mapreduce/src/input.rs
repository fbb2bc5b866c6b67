//! Input splits.
//!
//! Hadoop's default input formats parse file *contents* into records, which
//! "is not possible" for legacy executables that "expect a file path as the
//! input instead of the contents" (§2.2). The paper therefore implemented a
//! custom `InputFormat`/`RecordReader` pair delivering the file name as the
//! key and the HDFS path as the value, "while preserving the Hadoop data
//! locality based scheduling". That format is the only one here: a split
//! names one file and carries its locality hints.

use ppc_core::Result;
use ppc_hdfs::block::DataNodeId;
use ppc_hdfs::fs::MiniHdfs;

/// One map task's input: a whole file (the paper's applications are
/// file-per-task, so splits never straddle files).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSplit {
    /// Sequential split index (the map task id).
    pub index: usize,
    /// HDFS path of the file.
    pub path: String,
    /// Bare file name (final path component).
    pub name: String,
    /// File length, bytes.
    pub len: u64,
    /// Datanodes holding replicas of the file's blocks — the locality hints.
    pub hosts: Vec<DataNodeId>,
}

/// Compute the splits for a set of input paths, pulling locality metadata
/// from the namenode.
pub fn compute_splits(fs: &MiniHdfs, paths: &[String]) -> Result<Vec<InputSplit>> {
    let mut splits = Vec::with_capacity(paths.len());
    for (index, path) in paths.iter().enumerate() {
        let st = fs.status(path)?;
        let name = path.rsplit('/').next().unwrap_or(path).to_string();
        splits.push(InputSplit {
            index,
            path: path.clone(),
            name,
            len: st.len,
            hosts: st.hosts(),
        });
    }
    Ok(splits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_carry_locality() {
        let fs = MiniHdfs::new(4, 1 << 20, 2, 1);
        fs.create("/in/a.fa", b"ACGT", None).unwrap();
        fs.create("/in/b.fa", b"GGTT", None).unwrap();
        let splits = compute_splits(&fs, &["/in/a.fa".into(), "/in/b.fa".into()]).unwrap();
        assert_eq!(splits.len(), 2);
        assert_eq!(splits[0].name, "a.fa");
        assert_eq!(splits[0].len, 4);
        assert_eq!(
            splits[0].hosts.len(),
            2,
            "two replicas -> two candidate hosts"
        );
        assert_eq!(splits[1].index, 1);
    }

    #[test]
    fn missing_input_errors() {
        let fs = MiniHdfs::new(2, 1 << 20, 1, 2);
        assert!(compute_splits(&fs, &["/nope".into()]).is_err());
    }
}

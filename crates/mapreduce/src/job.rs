//! Job descriptions, the Mapper/Reducer traits, and the executable adapter.

use crate::input::InputFormat;
use ppc_core::exec::Executor;
use ppc_core::task::{ResourceProfile, TaskSpec};
use ppc_core::{Cancel, PpcError, Result};
use ppc_hdfs::block::DataNodeId;
use ppc_hdfs::fs::MiniHdfs;
use std::sync::Arc;

/// A MapReduce job. With `reducer: None` it is map-only — the shape of all
/// three paper applications, whose outputs "can be collected independently
/// and do not need any combining steps" (§4).
#[derive(Clone)]
pub struct MapReduceJob {
    pub name: String,
    /// HDFS paths of the input files (one map task each).
    pub input_paths: Vec<String>,
    /// HDFS directory where outputs land.
    pub output_dir: String,
    pub input_format: InputFormat,
    /// Number of reduce tasks (ignored for map-only jobs).
    pub n_reducers: usize,
    /// Attempts per task before the job declares it failed.
    pub max_attempts: u32,
    /// Run the reducer as a *map-side combiner* on each map task's output
    /// before the shuffle (valid only for associative, commutative reduce
    /// functions — Hadoop's same caveat).
    pub use_combiner: bool,
}

impl MapReduceJob {
    pub fn map_only(
        name: impl Into<String>,
        input_paths: Vec<String>,
        output_dir: impl Into<String>,
    ) -> Self {
        MapReduceJob {
            name: name.into(),
            input_paths,
            output_dir: output_dir.into(),
            input_format: InputFormat::FileName,
            n_reducers: 0,
            max_attempts: 4,
            use_combiner: false,
        }
    }

    pub fn with_reducers(mut self, n: usize) -> Self {
        self.n_reducers = n;
        self
    }

    pub fn with_input_format(mut self, f: InputFormat) -> Self {
        self.input_format = f;
        self
    }

    pub fn with_combiner(mut self, on: bool) -> Self {
        self.use_combiner = on;
        self
    }

    pub fn validate(&self) -> Result<()> {
        if self.input_paths.is_empty() {
            return Err(PpcError::InvalidArgument(format!(
                "job '{}' has no inputs",
                self.name
            )));
        }
        if self.max_attempts == 0 {
            return Err(PpcError::InvalidArgument(
                "max_attempts must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// What a map function can do besides compute: read HDFS (with locality
/// accounting), emit key/value pairs, and notice that the runtime killed
/// this attempt.
pub struct MapContext<'a> {
    pub fs: &'a MiniHdfs,
    /// The datanode this map attempt is running on.
    pub node: DataNodeId,
    emitted: Vec<(String, Vec<u8>)>,
    /// Whether every HDFS read this task performed was node-local.
    all_local: bool,
    cancel: Cancel,
}

impl<'a> MapContext<'a> {
    pub fn new(fs: &'a MiniHdfs, node: DataNodeId) -> MapContext<'a> {
        MapContext {
            fs,
            node,
            emitted: Vec::new(),
            all_local: true,
            cancel: Cancel::never(),
        }
    }

    /// Attach the attempt's cancellation token (the runtime sets it when
    /// another attempt of the same task has committed).
    pub fn with_cancel(mut self, cancel: Cancel) -> MapContext<'a> {
        self.cancel = cancel;
        self
    }

    /// The attempt's cancellation token; long-running map functions should
    /// poll it (see [`Cancel::check`]).
    pub fn cancel(&self) -> &Cancel {
        &self.cancel
    }

    /// Read an HDFS file from this mapper's node, tracking locality.
    pub fn read(&mut self, path: &str) -> Result<Vec<u8>> {
        let (data, local) = self.fs.read_from(path, Some(self.node))?;
        self.all_local &= local;
        Ok(data)
    }

    /// Emit an intermediate (map-only: final) key/value pair.
    pub fn emit(&mut self, key: impl Into<String>, value: Vec<u8>) {
        self.emitted.push((key.into(), value));
    }

    /// Consume the context, returning emissions and the locality verdict.
    pub fn finish(self) -> (Vec<(String, Vec<u8>)>, bool) {
        (self.emitted, self.all_local)
    }
}

/// A map function.
pub trait Mapper: Send + Sync {
    fn map(&self, key: &str, value: &[u8], ctx: &mut MapContext<'_>) -> Result<()>;
}

/// A reduce function: all values for one key, sorted by arrival.
pub trait Reducer: Send + Sync {
    fn reduce(&self, key: &str, values: &[Vec<u8>]) -> Result<Vec<u8>>;
}

/// The paper's map function (§2.4): "copy the input file from HDFS to the
/// working directory, execute the external program as a process and finally
/// upload the result file to the HDFS". Wraps any [`Executor`] as a Mapper
/// for [`InputFormat::FileName`] jobs.
pub struct ExecutableMapper {
    executor: Arc<dyn Executor>,
    app: String,
}

impl ExecutableMapper {
    pub fn new(app: impl Into<String>, executor: Arc<dyn Executor>) -> ExecutableMapper {
        ExecutableMapper {
            executor,
            app: app.into(),
        }
    }
}

impl Mapper for ExecutableMapper {
    fn map(&self, key: &str, value: &[u8], ctx: &mut MapContext<'_>) -> Result<()> {
        // key = file name, value = HDFS path (the custom RecordReader).
        let path = std::str::from_utf8(value)
            .map_err(|_| PpcError::Codec("input path is not UTF-8".into()))?
            .to_string();
        let input = ctx.read(&path)?;
        let spec = TaskSpec::new(
            0,
            self.app.clone(),
            key.to_string(),
            ResourceProfile::cpu_bound(0.0),
        );
        let output = self.executor.run_cancellable(&spec, &input, ctx.cancel())?;
        ctx.emit(format!("{key}.out"), output);
        Ok(())
    }
}

/// Hash-partition a key among `n` reducers (Hadoop's default partitioner).
pub fn partition_for(key: &str, n_reducers: usize) -> usize {
    debug_assert!(n_reducers > 0);
    // FNV-1a, stable across runs and platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % n_reducers as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_core::exec::FnExecutor;

    #[test]
    fn validation() {
        assert!(MapReduceJob::map_only("j", vec![], "/out")
            .validate()
            .is_err());
        assert!(MapReduceJob::map_only("j", vec!["/a".into()], "/out")
            .validate()
            .is_ok());
    }

    #[test]
    fn context_tracks_locality_and_emissions() {
        let fs = MiniHdfs::new(2, 1 << 20, 1, 3);
        fs.create("/f", b"data", Some(DataNodeId(0))).unwrap();
        let mut ctx = MapContext::new(&fs, DataNodeId(0));
        assert_eq!(ctx.read("/f").unwrap(), b"data");
        ctx.emit("k", vec![1]);
        let (emitted, local) = ctx.finish();
        assert_eq!(emitted, vec![("k".to_string(), vec![1])]);
        assert!(local);

        let mut remote_ctx = MapContext::new(&fs, DataNodeId(1));
        remote_ctx.read("/f").unwrap();
        let (_, local) = remote_ctx.finish();
        assert!(!local);
    }

    #[test]
    fn executable_mapper_reads_path_and_emits_output() {
        let fs = MiniHdfs::new(2, 1 << 20, 1, 4);
        fs.create("/in/x.fa", b"acgt", Some(DataNodeId(0))).unwrap();
        let exec = FnExecutor::new("upper", |_s, i: &[u8]| Ok(i.to_ascii_uppercase()));
        let mapper = ExecutableMapper::new("upper", exec);
        let mut ctx = MapContext::new(&fs, DataNodeId(0));
        mapper.map("x.fa", b"/in/x.fa", &mut ctx).unwrap();
        let (emitted, _) = ctx.finish();
        assert_eq!(emitted, vec![("x.fa.out".to_string(), b"ACGT".to_vec())]);
    }

    #[test]
    fn partitioner_is_stable_and_in_range() {
        for n in [1usize, 3, 8] {
            for key in ["a", "bb", "ccc", "x.out"] {
                let p = partition_for(key, n);
                assert!(p < n);
                assert_eq!(p, partition_for(key, n), "stable");
            }
        }
        // Different keys spread across partitions (sanity, not uniformity).
        let ps: std::collections::HashSet<usize> = (0..100)
            .map(|i| partition_for(&format!("key-{i}"), 8))
            .collect();
        assert!(ps.len() >= 6);
    }
}

//! The fixed-point iteration engine — Twister-style loops as a
//! workflow-layer concept.
//!
//! Rebased here from `ppc-mapreduce::iterative`: the loop body (broadcast →
//! parallel map over a static cached data set → deterministic shuffle →
//! reduce → combine/converge) has nothing MapReduce-specific in it, so it
//! now lives beside the DAG model and `ppc-mapreduce` keeps only thin
//! deprecated shims plus the HDFS cache bootstrap.

use ppc_core::{PpcError, Result};
use std::collections::BTreeMap;

/// Map function with a read-only broadcast value.
pub trait IterMapper<B>: Send + Sync {
    fn map(&self, key: &str, value: &[u8], broadcast: &B) -> Result<Vec<(String, Vec<u8>)>>;
}

/// Reduce function: all values for one key.
pub trait IterReducer: Send + Sync {
    fn reduce(&self, key: &str, values: &[Vec<u8>]) -> Result<Vec<u8>>;
}

/// Folds the reduce outputs into the next broadcast value and decides
/// whether the computation has converged.
pub trait Combiner<B>: Send + Sync {
    fn combine(&self, reduced: &[(String, Vec<u8>)], previous: &B) -> Result<(B, bool)>;
}

/// A fixed-point job description. The static data itself is passed to
/// [`run_fixed_point`] as an already-cached split list — how it got cached
/// (HDFS read, blob download, in-memory) is the caller's concern.
#[derive(Debug, Clone)]
pub struct FixedPointJob {
    pub name: String,
    /// Hard iteration cap (convergence may stop earlier).
    pub max_iterations: usize,
    /// Map parallelism (worker threads).
    pub parallelism: usize,
}

impl FixedPointJob {
    pub fn new(name: impl Into<String>) -> FixedPointJob {
        FixedPointJob {
            name: name.into(),
            max_iterations: 50,
            parallelism: 4,
        }
    }

    pub fn with_max_iterations(mut self, n: usize) -> FixedPointJob {
        self.max_iterations = n;
        self
    }
}

/// Outcome of a fixed-point run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedPointReport {
    pub iterations: usize,
    pub converged: bool,
    /// Input splits served from the in-memory cache instead of storage —
    /// everything after the first pass.
    pub cache_hits: usize,
}

/// Run a map/reduce/combine loop to convergence over a static cached data
/// set (Twister's defining optimization: the splits are read once, ever).
pub fn run_fixed_point<B: Clone + Send + Sync>(
    cache: &[(String, Vec<u8>)],
    job: &FixedPointJob,
    mapper: &dyn IterMapper<B>,
    reducer: &dyn IterReducer,
    combiner: &dyn Combiner<B>,
    initial: B,
) -> Result<(B, FixedPointReport)> {
    if cache.is_empty() {
        return Err(PpcError::InvalidArgument(
            "iterative job has no inputs".into(),
        ));
    }
    if job.max_iterations == 0 {
        return Err(PpcError::InvalidArgument(
            "need at least one iteration".into(),
        ));
    }

    let mut broadcast = initial;
    let mut iterations = 0;
    let mut converged = false;
    let mut cache_hits = 0;

    while iterations < job.max_iterations {
        iterations += 1;
        if iterations > 1 {
            cache_hits += cache.len();
        }

        // Map phase over the cached splits, in parallel chunks. Chunk
        // outputs are concatenated in split order, not arrival order, so
        // each key's values reach the reducer in the same order on every
        // run and float reductions repeat bit for bit.
        let chunk = cache.len().div_ceil(job.parallelism.max(1));
        let mut emitted = Vec::new();
        std::thread::scope(|scope| -> Result<()> {
            let handles: Vec<_> = cache
                .chunks(chunk.max(1))
                .map(|part| {
                    let broadcast = &broadcast;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for (key, value) in part {
                            out.append(&mut mapper.map(key, value, broadcast)?);
                        }
                        Ok(out)
                    })
                })
                .collect();
            for h in handles {
                emitted.append(&mut h.join().expect("map worker panicked")?);
            }
            Ok(())
        })?;

        // Shuffle + reduce (deterministic key order).
        let mut grouped: BTreeMap<String, Vec<Vec<u8>>> = BTreeMap::new();
        for (k, v) in emitted {
            grouped.entry(k).or_default().push(v);
        }
        let reduced: Vec<(String, Vec<u8>)> = grouped
            .into_iter()
            .map(|(k, vs)| reducer.reduce(&k, &vs).map(|r| (k, r)))
            .collect::<Result<_>>()?;

        // Combine into the next broadcast.
        let (next, done) = combiner.combine(&reduced, &broadcast)?;
        broadcast = next;
        if done {
            converged = true;
            break;
        }
    }

    Ok((
        broadcast,
        FixedPointReport {
            iterations,
            converged,
            cache_hits,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy fixed point: broadcast x, map emits value + x per split, reduce
    /// sums, combine averages toward a target. Converges when the update
    /// stops moving.
    struct AddMapper;
    impl IterMapper<f64> for AddMapper {
        fn map(&self, key: &str, value: &[u8], b: &f64) -> Result<Vec<(String, Vec<u8>)>> {
            let v = value[0] as f64 + b;
            Ok(vec![(key.to_string(), v.to_le_bytes().to_vec())])
        }
    }
    struct SumReducer;
    impl IterReducer for SumReducer {
        fn reduce(&self, _k: &str, values: &[Vec<u8>]) -> Result<Vec<u8>> {
            let s: f64 = values
                .iter()
                .map(|v| f64::from_le_bytes(v.as_slice().try_into().unwrap()))
                .sum();
            Ok(s.to_le_bytes().to_vec())
        }
    }
    struct Halver;
    impl Combiner<f64> for Halver {
        fn combine(&self, reduced: &[(String, Vec<u8>)], prev: &f64) -> Result<(f64, bool)> {
            let total: f64 = reduced
                .iter()
                .map(|(_, v)| f64::from_le_bytes(v.as_slice().try_into().unwrap()))
                .sum();
            let next = total / 100.0;
            Ok((next, (next - prev).abs() < 1e-12))
        }
    }

    fn splits(n: usize) -> Vec<(String, Vec<u8>)> {
        (0..n).map(|i| (format!("s{i}"), vec![i as u8])).collect()
    }

    #[test]
    fn converges_and_counts_cache_hits() {
        let cache = splits(4);
        let job = FixedPointJob::new("toy").with_max_iterations(30);
        let (x, report) =
            run_fixed_point(&cache, &job, &AddMapper, &SumReducer, &Halver, 0.0).unwrap();
        assert!(report.converged);
        assert!(report.iterations > 1);
        assert_eq!(report.cache_hits, (report.iterations - 1) * cache.len());
        // Fixed point of x = (6 + 4x)/100 is 1/16.
        assert!((x - 0.0625).abs() < 1e-9);
    }

    #[test]
    fn iteration_cap_bounds_nonconverging_runs() {
        struct Never;
        impl Combiner<f64> for Never {
            fn combine(&self, _r: &[(String, Vec<u8>)], p: &f64) -> Result<(f64, bool)> {
                Ok((*p + 1.0, false))
            }
        }
        let (_, report) = run_fixed_point(
            &splits(2),
            &FixedPointJob::new("cap").with_max_iterations(3),
            &AddMapper,
            &SumReducer,
            &Never,
            0.0,
        )
        .unwrap();
        assert_eq!(report.iterations, 3);
        assert!(!report.converged);
    }

    #[test]
    fn validation_errors() {
        let job = FixedPointJob::new("x");
        assert!(run_fixed_point(&[], &job, &AddMapper, &SumReducer, &Halver, 0.0).is_err());
        let zero = FixedPointJob::new("x").with_max_iterations(0);
        assert!(run_fixed_point(&splits(1), &zero, &AddMapper, &SumReducer, &Halver, 0.0).is_err());
    }

    #[test]
    fn map_errors_propagate_first_wins() {
        struct Failing;
        impl IterMapper<f64> for Failing {
            fn map(&self, key: &str, _v: &[u8], _b: &f64) -> Result<Vec<(String, Vec<u8>)>> {
                Err(PpcError::InvalidState(format!("boom {key}")))
            }
        }
        let err = run_fixed_point(
            &splits(3),
            &FixedPointJob::new("fail"),
            &Failing,
            &SumReducer,
            &Halver,
            0.0,
        )
        .unwrap_err();
        assert!(err.to_string().contains("boom"));
    }
}

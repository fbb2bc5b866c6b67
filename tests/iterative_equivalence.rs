//! The distributed iterative-MapReduce k-means must compute *exactly* the
//! same iterates as a straightforward serial k-means: partitioning the data
//! across HDFS blocks and summing per-block partials is algebraically the
//! same arithmetic (floating-point association differs only across blocks,
//! so we compare with a tight tolerance).

use ppc::core::rng::Pcg32;
use ppc::hdfs::fs::MiniHdfs;
use ppc::mapreduce::iterative::{
    cache_splits, encode_block, Centroids, KMeansCombiner, KMeansMapper, KMeansReducer,
};
use ppc::workflow::{run_fixed_point, FixedPointJob};

/// One serial k-means iteration (assign + recompute).
fn serial_step(points: &[Vec<f64>], centroids: &Centroids) -> Centroids {
    let k = centroids.len();
    let d = centroids[0].len();
    let mut sums = vec![vec![0.0; d]; k];
    let mut counts = vec![0usize; k];
    for p in points {
        let mut best = 0;
        let mut best_d2 = f64::INFINITY;
        for (c, centroid) in centroids.iter().enumerate() {
            let d2: f64 = centroid.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum();
            if d2 < best_d2 {
                best_d2 = d2;
                best = c;
            }
        }
        counts[best] += 1;
        for (s, v) in sums[best].iter_mut().zip(p) {
            *s += v;
        }
    }
    centroids
        .iter()
        .enumerate()
        .map(|(c, old)| {
            if counts[c] == 0 {
                old.clone()
            } else {
                sums[c].iter().map(|s| s / counts[c] as f64).collect()
            }
        })
        .collect()
}

#[test]
fn distributed_kmeans_matches_serial_iterates() {
    let mut rng = Pcg32::new(321);
    let points: Vec<Vec<f64>> = (0..400)
        .map(|i| {
            let cx = (i % 3) as f64 * 8.0;
            vec![cx + rng.normal_with(0.0, 0.7), rng.normal_with(0.0, 0.7)]
        })
        .collect();

    // Distribute across 5 HDFS blocks.
    let fs = MiniHdfs::with_defaults(3);
    let mut paths = Vec::new();
    for (b, chunk) in points.chunks(80).enumerate() {
        let path = format!("/pts/b{b}");
        fs.create(&path, &encode_block(chunk), None).unwrap();
        paths.push(path);
    }

    let initial: Centroids = vec![vec![1.0, 1.0], vec![7.0, -1.0], vec![15.0, 1.0]];

    // Run exactly N iterations distributed (tolerance -1 => never converge).
    let n_iter = 6;
    let job = FixedPointJob::new("eq").with_max_iterations(n_iter);
    let cache = cache_splits(&fs, &paths).unwrap();
    let (distributed, report) = run_fixed_point(
        &cache,
        &job,
        &KMeansMapper,
        &KMeansReducer,
        &KMeansCombiner { tolerance: -1.0 },
        initial.clone(),
    )
    .unwrap();
    assert_eq!(report.iterations, n_iter);

    // The same N iterations serially.
    let mut serial = initial;
    for _ in 0..n_iter {
        serial = serial_step(&points, &serial);
    }

    for (c, (ds, ss)) in distributed.iter().zip(&serial).enumerate() {
        for (a, b) in ds.iter().zip(ss) {
            assert!((a - b).abs() < 1e-9, "centroid {c}: {a} vs {b}");
        }
    }
}

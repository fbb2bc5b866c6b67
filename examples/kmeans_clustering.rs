//! Iterative MapReduce: k-means clustering of chemical fingerprints.
//!
//! The paper's conclusion announces "a fully-fledged MapReduce framework
//! with iterative-MapReduce support" as future work (Twister/TwisterAzure);
//! `ppc::mapreduce::iterative` implements that model, and this example runs
//! its canonical workload: k-means, with the static point set cached across
//! iterations and only the centroids re-broadcast each round.
//!
//! ```bash
//! cargo run --release --example kmeans_clustering
//! ```

use ppc::core::rng::Pcg32;
use ppc::hdfs::fs::MiniHdfs;
use ppc::mapreduce::iterative::{
    cache_splits, encode_block, KMeansCombiner, KMeansMapper, KMeansReducer,
};
use ppc::workflow::{run_fixed_point, FixedPointJob};

fn main() -> ppc::core::Result<()> {
    // Synthetic "compound" clusters in a 2-D property space, spread over
    // 8 HDFS blocks on a 4-node mini cluster.
    let mut rng = Pcg32::new(77);
    let true_centers = [[1.0, 1.0], [9.0, 2.0], [5.0, 9.0], [12.0, 10.0]];
    let fs = MiniHdfs::with_defaults(4);
    let mut paths = Vec::new();
    let mut total_points = 0;
    for file in 0..8 {
        let points: Vec<Vec<f64>> = (0..250)
            .map(|_| {
                let c = &true_centers[rng.next_below(4) as usize];
                vec![
                    c[0] + rng.normal_with(0.0, 0.6),
                    c[1] + rng.normal_with(0.0, 0.6),
                ]
            })
            .collect();
        total_points += points.len();
        let path = format!("/kmeans/block{file}");
        fs.create(&path, &encode_block(&points), None)?;
        paths.push(path);
    }
    println!(
        "{total_points} points in {} HDFS blocks on {} datanodes",
        paths.len(),
        fs.n_nodes()
    );

    // Imperfect but spread initial guesses (plain k-means needs them:
    // clumped seeds converge to a local optimum that splits one cluster).
    let initial = vec![
        vec![2.0, 2.0],
        vec![7.0, 3.0],
        vec![4.0, 7.0],
        vec![10.0, 8.0],
    ];
    let job = FixedPointJob::new("kmeans").with_max_iterations(40);
    let cache = cache_splits(&fs, &paths)?;
    let (centroids, report) = run_fixed_point(
        &cache,
        &job,
        &KMeansMapper,
        &KMeansReducer,
        &KMeansCombiner { tolerance: 1e-9 },
        initial,
    )?;

    println!(
        "\nconverged = {} after {} iterations ({} cached split reads avoided re-fetching HDFS)",
        report.converged, report.iterations, report.cache_hits
    );
    println!("\nrecovered centroids vs true centers:");
    for t in &true_centers {
        let (best, dist) = centroids
            .iter()
            .map(|c| {
                let d = ((c[0] - t[0]).powi(2) + (c[1] - t[1]).powi(2)).sqrt();
                (c, d)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("centroids non-empty");
        println!(
            "  true ({:5.2}, {:5.2})  ->  found ({:5.2}, {:5.2})  err {:.3}",
            t[0], t[1], best[0], best[1], dist
        );
        assert!(dist < 0.3, "centroid recovery failed");
    }
    Ok(())
}

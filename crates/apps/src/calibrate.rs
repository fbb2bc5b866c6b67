//! Resource-profile calibration.
//!
//! The discrete-event simulator predicts task times from a
//! [`ResourceProfile`]; this module is the single place those profiles come
//! from. The constants below are paper anchors, fitted to the paper's
//! reported figures (DESIGN.md §6 lists each anchor). They express, e.g.,
//! "one 200-read Cap3 file costs ~80 reference-core-seconds", which makes
//! the simulated Figure 4 reproduce the measured one by construction of the
//! workload, not of the result.

use ppc_core::task::ResourceProfile;

/// Cap3 anchor: a 200-read (~500 bp) FASTA file takes ~80 s on one
/// reference core (16 HCXL cores clear 200 files in ~1000 s, Figure 4).
pub const CAP3_SECONDS_PER_200_READS: f64 = 80.0;

/// How the simulated cost of a Cap3 file grows with its reads: the model
/// of the paper's CAP3 binary, whose overlap computation is super-linear.
/// It is not a fit of this crate's native kernel, which measures an
/// exponent of 1.24–1.38 from 120 to 480 reads (see ROADMAP item 13).
pub const CAP3_READ_EXPONENT: f64 = 1.5;

/// Cap3 profile for a file of `n_reads` reads of roughly `read_len` bases.
pub fn cap3_profile(n_reads: usize, read_len: usize) -> ResourceProfile {
    let scale = (n_reads as f64 / 200.0).powf(CAP3_READ_EXPONENT);
    let file_bytes = (n_reads * (read_len + 20)) as u64;
    ResourceProfile {
        cpu_seconds_ref: CAP3_SECONDS_PER_200_READS * scale,
        mem_bytes: 96 << 20, // "less memory intensive" (§4)
        shared_mem_bytes: 0,
        mem_traffic_bytes: 0, // CPU-bound: bandwidth never binds
        input_bytes: file_bytes,
        output_bytes: file_bytes / 2,
    }
}

/// BLAST anchors: 64 query files (100 queries each) on 16 HCXL cores take
/// ~1250 s (Figure 8) -> ~312 s per file on one reference core with the DB
/// resident; the NR database is 8.7 GB uncompressed (§5).
pub const BLAST_SECONDS_PER_100_QUERIES: f64 = 312.0;
pub const NR_DB_BYTES: u64 = 8_700_000_000;

/// BLAST profile for a file of `n_queries` queries against a database of
/// `db_bytes` (shared read-only per node).
pub fn blast_profile(n_queries: usize, db_bytes: u64) -> ResourceProfile {
    ResourceProfile {
        cpu_seconds_ref: BLAST_SECONDS_PER_100_QUERIES * n_queries as f64 / 100.0,
        mem_bytes: 256 << 20,
        shared_mem_bytes: db_bytes,
        mem_traffic_bytes: 0, // compute-bound once resident; misses modeled
        // via the overflow term
        input_bytes: 8 << 10,  // "7-8 KB" query files (§5)
        output_bytes: 1 << 20, // "few bytes to few Megabytes"
    }
}

/// GTM anchors: 264 files × 100k points on 16 HCXL cores in ~420 s
/// (Figure 13) -> ~25 reference-core-seconds per file, and each point's
/// responsibility pass streams `K × D` doubles — the bandwidth-bound term
/// (§6.1: "memory (size and bandwidth) is a bottleneck").
pub const GTM_SECONDS_PER_100K_POINTS: f64 = 25.0;
pub const GTM_TRAFFIC_BYTES_PER_100K_POINTS: u64 = 38_000_000_000;

/// GTM Interpolation profile for a file of `n_points` data points.
pub fn gtm_profile(n_points: usize) -> ResourceProfile {
    let scale = n_points as f64 / 100_000.0;
    ResourceProfile {
        cpu_seconds_ref: GTM_SECONDS_PER_100K_POINTS * scale,
        mem_bytes: 1 << 30, // "highly memory intensive" (§6)
        shared_mem_bytes: 0,
        mem_traffic_bytes: (GTM_TRAFFIC_BYTES_PER_100K_POINTS as f64 * scale) as u64,
        input_bytes: (n_points * 166) as u64 / 4, // compressed splits (§6.2)
        output_bytes: (n_points * 2 * 8) as u64,  // 2-D coordinates out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap3_profile_scales_superlinearly() {
        let small = cap3_profile(200, 500);
        let big = cap3_profile(458, 500);
        assert!((small.cpu_seconds_ref - 80.0).abs() < 1e-9);
        let ratio = big.cpu_seconds_ref / small.cpu_seconds_ref;
        assert!(ratio > 458.0 / 200.0, "superlinear: {ratio}");
        assert!(ratio < (458.0f64 / 200.0).powi(2), "sub-quadratic: {ratio}");
    }

    #[test]
    fn blast_profile_carries_shared_db() {
        let p = blast_profile(100, NR_DB_BYTES);
        assert_eq!(p.shared_mem_bytes, NR_DB_BYTES);
        assert!((p.cpu_seconds_ref - BLAST_SECONDS_PER_100_QUERIES).abs() < 1e-9);
        let half = blast_profile(50, NR_DB_BYTES);
        assert!((half.cpu_seconds_ref * 2.0 - p.cpu_seconds_ref).abs() < 1e-9);
    }

    #[test]
    fn gtm_profile_is_bandwidth_heavy() {
        let p = gtm_profile(100_000);
        // On a reference core with 1.25 GB/s share (HCXL / 8 workers) the
        // memory term exceeds the CPU term — the §6.1 bottleneck.
        let t_mem_hcxl_share = p.mem_traffic_bytes as f64 / 1.25e9;
        assert!(t_mem_hcxl_share > p.cpu_seconds_ref);
        // But with a whole socket's bandwidth it does not bind.
        let t_mem_alone = p.mem_traffic_bytes as f64 / 10e9;
        assert!(t_mem_alone < p.cpu_seconds_ref);
    }

    #[test]
    fn cap3_superlinearity_matches_the_real_kernel() {
        // The calibration claims assembly cost grows ~ (reads)^1.5. Check
        // the *actual* assembler: time 120-read vs 480-read files from the
        // same genome class and compare growth against the model's.
        use crate::cap3::Cap3Executor;
        use ppc_bio::fasta;
        use ppc_bio::simulate::{random_genome, shotgun_reads, ShotgunParams};
        use ppc_core::exec::Executor;

        let make_input = |n_reads: usize, seed: u64| {
            let genome = random_genome(3000, seed);
            let reads = shotgun_reads(
                &genome,
                &ShotgunParams {
                    n_reads,
                    read_len_mean: 220.0,
                    read_len_sd: 15.0,
                    ..Default::default()
                },
                seed + 1,
            );
            fasta::format(&reads)
        };
        let exec = Cap3Executor::new();
        let spec =
            ppc_core::TaskSpec::new(0, "cap3", "x", ppc_core::ResourceProfile::cpu_bound(0.0));
        let time = |input: &[u8]| {
            let start = std::time::Instant::now();
            exec.run(&spec, input).unwrap();
            start.elapsed().as_secs_f64()
        };
        // Median of 3 back-to-back pairs over 2 seeds: timing each small
        // file next to its big one exposes both to the same contention
        // from tests running alongside, which a few-ms run cannot absorb.
        let mut pairs = Vec::new();
        for seed in [11u64, 12] {
            let (small, big) = (make_input(120, seed), make_input(480, seed));
            for _ in 0..3 {
                pairs.push((time(&small), time(&big)));
            }
        }
        pairs.sort_by(|a, b| (a.1 / a.0).total_cmp(&(b.1 / b.0)));
        let (t_small, t_big) = pairs[pairs.len() / 2];
        let measured_exponent = (t_big / t_small).ln() / 4.0f64.ln();
        // The model pins 1.5; accept a broad band — the point is that the
        // real kernel is clearly superlinear but sub-quadratic, like Cap3.
        assert!(
            (0.9..2.2).contains(&measured_exponent),
            "kernel growth exponent {measured_exponent:.2} (t120={t_small:.4}s, t480={t_big:.4}s)"
        );
    }
}

//! GTM Interpolation — the out-of-sample extension (paper §6).
//!
//! "GTM Interpolation takes only a part of the full dataset, known as
//! samples, for a compute-intensive training process and applies the
//! trained result to the rest of the dataset, known as out-of-samples."
//!
//! Interpolating a point costs one responsibility pass against the trained
//! manifold images `Y (K × D)` — dense streaming arithmetic over `K·D`
//! doubles per point, which is why the paper finds the application memory-
//! bandwidth-bound (§6.1). Points are independent: pleasingly parallel.

use crate::linalg::Matrix;
use crate::train::GtmModel;
use ppc_core::{Cancel, Result};

/// Project out-of-sample rows through a trained model; returns `N × 2`
/// latent coordinates. Parallelizes over points (the per-worker threading
/// an Azure/EC2 worker would use).
pub fn interpolate(model: &GtmModel, out_of_samples: &Matrix) -> Matrix {
    interpolate_cancellable(model, out_of_samples, &Cancel::never()).expect("never cancelled")
}

/// [`interpolate`] that checks `cancel` on entry and before each point;
/// once it is set the remaining points are skipped and the call returns
/// `Err(Cancelled)`.
pub fn interpolate_cancellable(
    model: &GtmModel,
    out_of_samples: &Matrix,
    cancel: &Cancel,
) -> Result<Matrix> {
    cancel.check()?;
    let y = model.y();
    let k = y.rows();
    let n = out_of_samples.rows();
    let beta = model.beta;
    let coords: Vec<[f64; 2]> = ppc_core::par::par_map(n, |nn| {
        if cancel.is_cancelled() {
            return [0.0; 2];
        }
        // Responsibilities for this point (log-sum-exp stabilized).
        let mut logs = vec![0.0f64; k];
        let mut max_log = f64::NEG_INFINITY;
        for (kk, slot) in logs.iter_mut().enumerate() {
            let d2 = y.row_sq_dist(kk, out_of_samples, nn);
            let lp = -0.5 * beta * d2;
            *slot = lp;
            if lp > max_log {
                max_log = lp;
            }
        }
        let mut sum = 0.0;
        for l in logs.iter_mut() {
            *l = (*l - max_log).exp();
            sum += *l;
        }
        let mut cx = 0.0;
        let mut cy = 0.0;
        for (kk, &l) in logs.iter().enumerate() {
            let r = l / sum;
            cx += r * model.grid.points[(kk, 0)];
            cy += r * model.grid.points[(kk, 1)];
        }
        [cx, cy]
    });
    cancel.check()?;
    let mut out = Matrix::zeros(n, 2);
    for (i, c) in coords.into_iter().enumerate() {
        out[(i, 0)] = c[0];
        out[(i, 1)] = c[1];
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{fingerprints, FingerprintParams};
    use crate::train::{train, TrainConfig};

    fn setup() -> (GtmModel, Matrix, Vec<usize>) {
        let (data, labels) = fingerprints(
            &FingerprintParams {
                n_points: 200,
                dim: 40,
                n_clusters: 3,
                flip_noise: 0.03,
            },
            10,
        );
        let cfg = TrainConfig {
            grid_side: 6,
            rbf_side: 3,
            iterations: 12,
            lambda: 1e-3,
        };
        let model = train(&data, &cfg).unwrap();
        (model, data, labels)
    }

    #[test]
    fn interpolating_training_points_matches_projection() {
        let (model, data, _) = setup();
        let direct = model.project(&data);
        let via_interp = interpolate(&model, &data);
        for i in 0..data.rows() {
            assert!((direct[(i, 0)] - via_interp[(i, 0)]).abs() < 1e-9);
            assert!((direct[(i, 1)] - via_interp[(i, 1)]).abs() < 1e-9);
        }
    }

    #[test]
    fn out_of_samples_land_near_their_cluster() {
        let (model, data, labels) = setup();
        // Fresh points from the same generative process (same seed family
        // keeps the same centers only if the same seed is used; instead,
        // perturb existing points slightly).
        let mut oos = Matrix::zeros(60, data.cols());
        let mut oos_label = Vec::new();
        for i in 0..60 {
            for j in 0..data.cols() {
                oos[(i, j)] = data[(i, j)];
            }
            // flip two bits
            let a = (i * 7) % data.cols();
            let b = (i * 13) % data.cols();
            oos[(i, a)] = 1.0 - oos[(i, a)];
            oos[(i, b)] = 1.0 - oos[(i, b)];
            oos_label.push(labels[i]);
        }
        let proj_train = model.project(&data);
        let proj_oos = interpolate(&model, &oos);
        // Cluster centroids in latent space from the training projection.
        let n_clusters = labels.iter().max().unwrap() + 1;
        let mut centroids = vec![[0.0f64; 2]; n_clusters];
        let mut counts = vec![0usize; n_clusters];
        for i in 0..data.rows() {
            centroids[labels[i]][0] += proj_train[(i, 0)];
            centroids[labels[i]][1] += proj_train[(i, 1)];
            counts[labels[i]] += 1;
        }
        for (c, n) in centroids.iter_mut().zip(&counts) {
            c[0] /= *n as f64;
            c[1] /= *n as f64;
        }
        // Most out-of-sample points classify to their own cluster's centroid.
        let mut correct = 0;
        for i in 0..60 {
            let dist = |c: &[f64; 2]| {
                ((proj_oos[(i, 0)] - c[0]).powi(2) + (proj_oos[(i, 1)] - c[1]).powi(2)).sqrt()
            };
            let nearest = (0..n_clusters)
                .min_by(|&a, &b| {
                    dist(&centroids[a])
                        .partial_cmp(&dist(&centroids[b]))
                        .unwrap()
                })
                .unwrap();
            if nearest == oos_label[i] {
                correct += 1;
            }
        }
        assert!(
            correct >= 48,
            "only {correct}/60 out-of-samples landed in their cluster"
        );
    }

    #[test]
    fn interpolation_is_deterministic_and_parallel_safe() {
        let (model, data, _) = setup();
        let a = interpolate(&model, &data);
        let b = interpolate(&model, &data);
        assert_eq!(a, b);
    }

    #[test]
    fn output_bounded_by_latent_square() {
        let (model, data, _) = setup();
        let proj = interpolate(&model, &data);
        for i in 0..proj.rows() {
            assert!(proj[(i, 0)].abs() <= 1.0 + 1e-9);
            assert!(proj[(i, 1)].abs() <= 1.0 + 1e-9);
        }
    }
}

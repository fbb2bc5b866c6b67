//! EM training of the GTM.
//!
//! Standard GTM EM (Bishop et al. 1998): alternate computing
//! responsibilities of the `K` latent grid points for each data point
//! (E-step) with a ridge-regularized weighted least squares for the RBF
//! weights `W` and a noise-precision update for `β` (M-step). The paper's
//! application trains on a 100k-point sample of PubChem; the interpolation
//! stage then projects everything else through the trained model.

use crate::linalg::Matrix;
use crate::rbf::{LatentGrid, RbfBasis};
use ppc_core::{PpcError, Result};

/// Training configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Latent grid side (K = side²).
    pub grid_side: usize,
    /// RBF center grid side (M = side²).
    pub rbf_side: usize,
    pub iterations: usize,
    /// Ridge regularization on the M-step solve.
    pub lambda: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            grid_side: 10,
            rbf_side: 4,
            iterations: 20,
            lambda: 1e-3,
        }
    }
}

/// A trained GTM.
#[derive(Debug, Clone)]
pub struct GtmModel {
    pub grid: LatentGrid,
    pub basis: RbfBasis,
    /// Φ over the latent grid: `K × (M+1)`.
    pub phi: Matrix,
    /// RBF weights: `(M+1) × D`.
    pub w: Matrix,
    /// Noise precision.
    pub beta: f64,
    /// Log-likelihood after each EM iteration.
    pub log_likelihood: Vec<f64>,
}

impl GtmModel {
    /// The grid's images in data space: `Y = Φ W` (`K × D`).
    pub fn y(&self) -> Matrix {
        self.phi.matmul(&self.w)
    }

    /// Posterior-mean latent position of each data row (`N × 2`) — GTM's
    /// projection used for visualization.
    pub fn project(&self, data: &Matrix) -> Matrix {
        let (r, _) = responsibilities(&self.y(), data, self.beta);
        // means = Rᵀ Z  (R is K × N).
        r.transpose().matmul(&self.grid.points)
    }

    /// Serialize the trained model for distribution to workers — the GTM
    /// counterpart of pre-distributing the BLAST database (§5): train once,
    /// ship the (small) model, interpolate everywhere.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        use ppc_core::json::Json;
        let doc = Json::Obj(vec![
            ("grid_side".into(), Json::from(self.grid.side)),
            ("grid_points".into(), matrix_json(&self.grid.points)),
            ("centers".into(), matrix_json(&self.basis.centers)),
            ("sigma".into(), Json::from(self.basis.sigma)),
            ("phi".into(), matrix_json(&self.phi)),
            ("w".into(), matrix_json(&self.w)),
            ("beta".into(), Json::from(self.beta)),
            (
                "log_likelihood".into(),
                self.log_likelihood.iter().copied().collect(),
            ),
        ]);
        Ok(doc.to_string().into_bytes())
    }

    /// Load a model serialized with [`GtmModel::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<GtmModel> {
        use ppc_core::json::Json;
        let text =
            std::str::from_utf8(bytes).map_err(|e| PpcError::Codec(format!("not utf-8: {e}")))?;
        let doc = Json::parse(text)?;
        Ok(GtmModel {
            grid: LatentGrid {
                side: doc.field("grid_side")?.as_usize()?,
                points: matrix_from_json(doc.field("grid_points")?)?,
            },
            basis: crate::rbf::RbfBasis {
                centers: matrix_from_json(doc.field("centers")?)?,
                sigma: doc.field("sigma")?.as_f64()?,
            },
            phi: matrix_from_json(doc.field("phi")?)?,
            w: matrix_from_json(doc.field("w")?)?,
            beta: doc.field("beta")?.as_f64()?,
            log_likelihood: doc.field("log_likelihood")?.as_f64_vec()?,
        })
    }
}

/// Matrix wire form: `{"rows": R, "cols": C, "data": [row-major floats]}`.
fn matrix_json(m: &Matrix) -> ppc_core::json::Json {
    use ppc_core::json::Json;
    Json::Obj(vec![
        ("rows".into(), Json::from(m.rows())),
        ("cols".into(), Json::from(m.cols())),
        ("data".into(), m.data().iter().copied().collect()),
    ])
}

fn matrix_from_json(v: &ppc_core::json::Json) -> Result<Matrix> {
    let rows = v.field("rows")?.as_usize()?;
    let cols = v.field("cols")?.as_usize()?;
    let data = v.field("data")?.as_f64_vec()?;
    if data.len() != rows * cols {
        return Err(PpcError::Codec(format!(
            "matrix payload is {} values for a {rows}x{cols} shape",
            data.len()
        )));
    }
    Ok(Matrix::from_flat(rows, cols, data))
}

/// Responsibilities `R (K × N)` of grid images `y` for data rows, plus the
/// data log-likelihood. Log-sum-exp stabilized; columns are independent, so
/// the E-step parallelizes over data points (this is the "compute-intensive
/// training process" §6 describes).
pub(crate) fn responsibilities(y: &Matrix, data: &Matrix, beta: f64) -> (Matrix, f64) {
    let k = y.rows();
    let n = data.rows();
    let d = data.cols();
    let log_prior = -(k as f64).ln();
    let log_norm = 0.5 * d as f64 * (beta / (2.0 * std::f64::consts::PI)).ln();
    let columns: Vec<(Vec<f64>, f64)> = ppc_core::par::par_map(n, |nn| {
        let mut col = vec![0.0f64; k];
        let mut max_log = f64::NEG_INFINITY;
        for (kk, c) in col.iter_mut().enumerate() {
            let d2 = y.row_sq_dist(kk, data, nn);
            let lp = -0.5 * beta * d2;
            *c = lp;
            if lp > max_log {
                max_log = lp;
            }
        }
        let mut sum = 0.0;
        for c in col.iter_mut() {
            *c = (*c - max_log).exp();
            sum += *c;
        }
        for c in col.iter_mut() {
            *c /= sum;
        }
        (col, max_log + sum.ln() + log_prior + log_norm)
    });
    let mut r = Matrix::zeros(k, n);
    let mut loglik = 0.0;
    for (nn, (col, ll)) in columns.into_iter().enumerate() {
        for (kk, v) in col.into_iter().enumerate() {
            r[(kk, nn)] = v;
        }
        loglik += ll;
    }
    (r, loglik)
}

/// Train a GTM on `data` (`N × D`).
pub fn train(data: &Matrix, cfg: &TrainConfig) -> Result<GtmModel> {
    if data.rows() < 2 {
        return Err(PpcError::InvalidArgument(
            "need at least two data points".into(),
        ));
    }
    if cfg.iterations == 0 {
        return Err(PpcError::InvalidArgument(
            "need at least one EM iteration".into(),
        ));
    }
    let grid = LatentGrid::new(cfg.grid_side);
    let basis = RbfBasis::on_grid(cfg.rbf_side);
    let phi = basis.phi(&grid.points);
    let k = grid.n_points();
    let d = data.cols();

    // ---- Initialization: map the latent axes onto the top-2 PCs ---------
    let p = crate::pca::pca(data, 2, 50);
    let (components, sds, mean) = (p.components, p.std_devs, p.mean);
    let mut target = Matrix::zeros(k, d);
    for kk in 0..k {
        let z0 = grid.points[(kk, 0)];
        let z1 = grid.points[(kk, 1)];
        for j in 0..d {
            target[(kk, j)] =
                mean[j] + z0 * sds[0] * components[0][j] + z1 * sds[1] * components[1][j];
        }
    }
    // Solve (ΦᵀΦ + λI) W = Φᵀ target.
    let phit = phi.transpose();
    let mut a = phit.matmul(&phi);
    a.add_diagonal(cfg.lambda.max(1e-8));
    let w = a.solve_spd(&phit.matmul(&target))?;

    // β init: inverse mean distance between data and initial manifold.
    let y = phi.matmul(&w);
    let mut mean_d2 = 0.0;
    for nn in 0..data.rows() {
        let mut min_d2 = f64::INFINITY;
        for kk in 0..k {
            min_d2 = min_d2.min(y.row_sq_dist(kk, data, nn));
        }
        mean_d2 += min_d2;
    }
    mean_d2 /= data.rows() as f64;
    let mut beta = if mean_d2 > 1e-12 { 1.0 / mean_d2 } else { 1.0 };
    let mut w = w;
    let mut log_likelihood = Vec::with_capacity(cfg.iterations);

    // ---- EM --------------------------------------------------------------
    for _ in 0..cfg.iterations {
        let y = phi.matmul(&w);
        let (r, loglik) = responsibilities(&y, data, beta);
        log_likelihood.push(loglik);

        // M-step for W: (Φᵀ G Φ + (λ/β) I) W = Φᵀ R X.
        let n = data.rows();
        let g: Vec<f64> = (0..k)
            .map(|kk| (0..n).map(|nn| r[(kk, nn)]).sum())
            .collect();
        let m1 = phi.cols();
        let mut a = Matrix::zeros(m1, m1);
        // ΦᵀGΦ without forming G.
        #[allow(clippy::needless_range_loop)]
        for kk in 0..k {
            let gk = g[kk];
            if gk == 0.0 {
                continue;
            }
            let phi_row = phi.row(kk);
            for i in 0..m1 {
                let w_i = gk * phi_row[i];
                if w_i == 0.0 {
                    continue;
                }
                let a_row = a.row_mut(i);
                for (a_ij, &phi_j) in a_row.iter_mut().zip(phi_row) {
                    *a_ij += w_i * phi_j;
                }
            }
        }
        a.add_diagonal((cfg.lambda / beta).max(1e-10));
        let rhs = phi.transpose().matmul(&r.matmul(data));
        w = a.solve_spd(&rhs)?;

        // M-step for β with the fresh W.
        let y = phi.matmul(&w);
        let (r2, _) = responsibilities(&y, data, beta);
        let mut sum = 0.0;
        for nn in 0..n {
            for kk in 0..k {
                let rk = r2[(kk, nn)];
                if rk > 1e-12 {
                    sum += rk * y.row_sq_dist(kk, data, nn);
                }
            }
        }
        let denom = (n * d) as f64;
        if sum > 1e-12 {
            beta = denom / sum;
        }
    }

    Ok(GtmModel {
        grid,
        basis,
        phi,
        w,
        beta,
        log_likelihood,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{fingerprints, FingerprintParams};

    fn small_config() -> TrainConfig {
        TrainConfig {
            grid_side: 6,
            rbf_side: 3,
            iterations: 12,
            lambda: 1e-3,
        }
    }

    fn train_small(seed: u64) -> (GtmModel, Matrix, Vec<usize>) {
        let (data, labels) = fingerprints(
            &FingerprintParams {
                n_points: 150,
                dim: 40,
                n_clusters: 3,
                flip_noise: 0.03,
            },
            seed,
        );
        let model = train(&data, &small_config()).unwrap();
        (model, data, labels)
    }

    #[test]
    fn log_likelihood_improves() {
        let (model, _, _) = train_small(1);
        let ll = &model.log_likelihood;
        assert!(ll.len() >= 2);
        assert!(
            ll.last().unwrap() > ll.first().unwrap(),
            "ll {:?} -> {:?}",
            ll.first(),
            ll.last()
        );
        // EM should be (near-)monotone; allow tiny numerical dips.
        let range = (ll.last().unwrap() - ll.first().unwrap()).abs().max(1.0);
        for pair in ll.windows(2) {
            assert!(
                pair[1] >= pair[0] - 0.01 * range,
                "EM step regressed: {} -> {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn responsibilities_are_distributions() {
        let (model, data, _) = train_small(2);
        let (r, _) = responsibilities(&model.y(), &data, model.beta);
        for nn in 0..data.rows() {
            let sum: f64 = (0..r.rows()).map(|kk| r[(kk, nn)]).sum();
            assert!((sum - 1.0).abs() < 1e-9, "column {nn} sums to {sum}");
            for kk in 0..r.rows() {
                assert!(r[(kk, nn)] >= 0.0);
            }
        }
    }

    #[test]
    fn beta_positive_and_grows_as_fit_tightens() {
        let (model, _, _) = train_small(3);
        assert!(model.beta > 0.0);
    }

    #[test]
    fn projection_separates_clusters() {
        let (model, data, labels) = train_small(4);
        let proj = model.project(&data);
        assert_eq!(proj.rows(), data.rows());
        assert_eq!(proj.cols(), 2);
        // Mean intra-cluster latent distance < mean inter-cluster distance.
        let mut intra = (0.0, 0usize);
        let mut inter = (0.0, 0usize);
        for i in 0..data.rows() {
            for j in (i + 1)..data.rows() {
                let d = proj.row_sq_dist(i, &proj, j).sqrt();
                if labels[i] == labels[j] {
                    intra = (intra.0 + d, intra.1 + 1);
                } else {
                    inter = (inter.0 + d, inter.1 + 1);
                }
            }
        }
        let intra_mean = intra.0 / intra.1 as f64;
        let inter_mean = inter.0 / inter.1 as f64;
        assert!(
            intra_mean < 0.7 * inter_mean,
            "intra {intra_mean} vs inter {inter_mean}"
        );
    }

    #[test]
    fn projections_stay_in_latent_square() {
        let (model, data, _) = train_small(5);
        let proj = model.project(&data);
        for i in 0..proj.rows() {
            assert!(proj[(i, 0)].abs() <= 1.0 + 1e-9);
            assert!(proj[(i, 1)].abs() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let data = Matrix::zeros(1, 4);
        assert!(train(&data, &small_config()).is_err());
        let (data, _) = fingerprints(
            &FingerprintParams {
                n_points: 10,
                dim: 8,
                n_clusters: 2,
                flip_noise: 0.1,
            },
            6,
        );
        let bad = TrainConfig {
            iterations: 0,
            ..small_config()
        };
        assert!(train(&data, &bad).is_err());
    }

    #[test]
    fn deterministic_training() {
        let (m1, _, _) = train_small(7);
        let (m2, _, _) = train_small(7);
        assert_eq!(m1.w, m2.w);
        assert_eq!(m1.beta, m2.beta);
    }

    #[test]
    fn model_serialization_round_trip() {
        let (model, data, _) = train_small(9);
        let bytes = model.to_bytes().unwrap();
        let back = GtmModel::from_bytes(&bytes).unwrap();
        assert_eq!(back.w, model.w);
        assert_eq!(back.beta, model.beta);
        // The reloaded model projects identically.
        let a = model.project(&data);
        let b = back.project(&data);
        assert_eq!(a, b);
        // Garbage is rejected cleanly.
        assert!(GtmModel::from_bytes(b"not a model").is_err());
    }
}

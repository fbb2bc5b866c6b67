//! Principal component analysis by power iteration with deflation.
//!
//! GTM's standard initialization maps the latent grid onto the data's top
//! two principal components (Bishop et al. 1998 §2.3); this module is that
//! PCA, exposed publicly because it is independently useful (and
//! independently testable).

use crate::linalg::Matrix;

/// Result of a PCA: orthonormal components, their standard deviations
/// (sqrt of eigenvalues), and the data mean.
#[derive(Debug, Clone, PartialEq)]
pub struct Pca {
    pub components: Vec<Vec<f64>>,
    pub std_devs: Vec<f64>,
    pub mean: Vec<f64>,
}

/// Compute the top `n_components` principal components of `data` (rows are
/// observations) via power iteration with `iters` rounds per component and
/// deflation between components.
pub fn pca(data: &Matrix, n_components: usize, iters: usize) -> Pca {
    let n = data.rows();
    let d = data.cols();
    assert!(n >= 2, "need at least two observations");
    assert!(n_components >= 1 && n_components <= d);

    let mean: Vec<f64> = (0..d)
        .map(|j| (0..n).map(|i| data[(i, j)]).sum::<f64>() / n as f64)
        .collect();
    // Covariance C = Xcᵀ Xc / N (D × D — fine for fingerprint-scale D).
    let mut cov = Matrix::zeros(d, d);
    for i in 0..n {
        let row = data.row(i);
        for a in 0..d {
            let xa = row[a] - mean[a];
            if xa == 0.0 {
                continue;
            }
            let cov_row = cov.row_mut(a);
            for (b, &rb) in row.iter().enumerate() {
                cov_row[b] += xa * (rb - mean[b]);
            }
        }
    }
    for v in 0..d {
        for u in 0..d {
            cov[(v, u)] /= n as f64;
        }
    }

    let mut components = Vec::with_capacity(n_components);
    let mut std_devs = Vec::with_capacity(n_components);
    let mut deflated = cov;
    for c in 0..n_components {
        // Deterministic start vector, varied per component.
        let mut v: Vec<f64> = (0..d)
            .map(|i| if i % (c + 2) == 0 { 1.0 } else { 0.5 })
            .collect();
        let mut eig = 0.0;
        for _ in 0..iters {
            let mut w = vec![0.0; d];
            for (a, w_a) in w.iter_mut().enumerate() {
                let row = deflated.row(a);
                *w_a = row.iter().zip(&v).map(|(x, y)| x * y).sum();
            }
            let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm < 1e-12 {
                break;
            }
            for (vi, wi) in v.iter_mut().zip(&w) {
                *vi = wi / norm;
            }
            eig = norm;
        }
        // Deflate: C -= eig v vᵀ.
        for a in 0..d {
            for b in 0..d {
                deflated[(a, b)] -= eig * v[a] * v[b];
            }
        }
        std_devs.push(eig.max(0.0).sqrt());
        components.push(v);
    }
    Pca {
        components,
        std_devs,
        mean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_core::rng::Pcg32;

    /// Data stretched along a known axis: PCA must recover that axis.
    #[test]
    fn recovers_dominant_axis() {
        let mut rng = Pcg32::new(3);
        // Axis (3,4)/5 in 2-D with sd 5 along it, sd 0.5 across.
        let axis = [0.6, 0.8];
        let ortho = [-0.8, 0.6];
        let rows: Vec<Vec<f64>> = (0..500)
            .map(|_| {
                let a = rng.normal_with(0.0, 5.0);
                let b = rng.normal_with(0.0, 0.5);
                vec![
                    10.0 + a * axis[0] + b * ortho[0],
                    -3.0 + a * axis[1] + b * ortho[1],
                ]
            })
            .collect();
        let data = Matrix::from_rows(rows);
        let p = pca(&data, 2, 100);
        // Component 1 parallel (or anti-parallel) to the axis.
        let dot = (p.components[0][0] * axis[0] + p.components[0][1] * axis[1]).abs();
        assert!(dot > 0.999, "axis alignment {dot}");
        assert!((p.std_devs[0] - 5.0).abs() < 0.5, "sd1 {}", p.std_devs[0]);
        assert!((p.std_devs[1] - 0.5).abs() < 0.15, "sd2 {}", p.std_devs[1]);
        assert!((p.mean[0] - 10.0).abs() < 0.5);
        assert!((p.mean[1] + 3.0).abs() < 0.5);
    }

    #[test]
    fn components_are_orthonormal() {
        // Anisotropic data (distinct eigenvalues) so power iteration
        // converges crisply; near-degenerate spectra converge slowly.
        let mut rng = Pcg32::new(4);
        let scales = [6.0, 3.0, 1.5, 0.7, 0.3, 0.1];
        let data = Matrix::from_rows(
            (0..300)
                .map(|_| scales.iter().map(|s| rng.normal_with(0.0, *s)).collect())
                .collect(),
        );
        let p = pca(&data, 3, 200);
        for i in 0..3 {
            let norm: f64 = p.components[i].iter().map(|x| x * x).sum();
            assert!((norm - 1.0).abs() < 1e-6, "component {i} norm {norm}");
            for j in (i + 1)..3 {
                let dot: f64 = p.components[i]
                    .iter()
                    .zip(&p.components[j])
                    .map(|(a, b)| a * b)
                    .sum();
                assert!(dot.abs() < 1e-3, "components {i},{j} dot {dot}");
            }
        }
        // Eigenvalues non-increasing.
        assert!(p.std_devs[0] >= p.std_devs[1]);
        assert!(p.std_devs[1] >= p.std_devs[2]);
    }

    #[test]
    #[should_panic(expected = "two observations")]
    fn rejects_single_row() {
        let data = Matrix::zeros(1, 3);
        pca(&data, 1, 10);
    }
}

//! Latent grids and the RBF basis matrix Φ.

use crate::linalg::Matrix;

/// A square grid of points in the 2-D latent space `[-1, 1]²`.
#[derive(Debug, Clone, PartialEq)]
pub struct LatentGrid {
    /// Grid side; the grid has `side²` points.
    pub side: usize,
    /// `side² × 2` latent coordinates.
    pub points: Matrix,
}

impl LatentGrid {
    pub fn new(side: usize) -> LatentGrid {
        assert!(side >= 2, "grid needs at least 2x2 points");
        let mut points = Matrix::zeros(side * side, 2);
        for r in 0..side {
            for c in 0..side {
                let idx = r * side + c;
                points[(idx, 0)] = -1.0 + 2.0 * c as f64 / (side - 1) as f64;
                points[(idx, 1)] = -1.0 + 2.0 * r as f64 / (side - 1) as f64;
            }
        }
        LatentGrid { side, points }
    }

    pub fn n_points(&self) -> usize {
        self.side * self.side
    }
}

/// An RBF basis: `n_centers` Gaussians on a coarser grid plus a bias term.
#[derive(Debug, Clone, PartialEq)]
pub struct RbfBasis {
    pub centers: Matrix,
    /// Gaussian width.
    pub sigma: f64,
}

impl RbfBasis {
    /// Centers on a `side × side` grid with width proportional to center
    /// spacing (the GTM paper's convention).
    pub fn on_grid(side: usize) -> RbfBasis {
        let grid = LatentGrid::new(side);
        let spacing = 2.0 / (side - 1) as f64;
        RbfBasis {
            centers: grid.points,
            sigma: spacing,
        }
    }

    /// Evaluate Φ at a set of latent points: `points.rows() × (M+1)`,
    /// last column the constant bias 1.
    pub fn phi(&self, points: &Matrix) -> Matrix {
        let k = points.rows();
        let m = self.centers.rows();
        let mut phi = Matrix::zeros(k, m + 1);
        let denom = 2.0 * self.sigma * self.sigma;
        for i in 0..k {
            for c in 0..m {
                let d2 = points.row_sq_dist(i, &self.centers, c);
                phi[(i, c)] = (-d2 / denom).exp();
            }
            phi[(i, m)] = 1.0;
        }
        phi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_spans_unit_square() {
        let g = LatentGrid::new(5);
        assert_eq!(g.n_points(), 25);
        assert_eq!(g.points[(0, 0)], -1.0);
        assert_eq!(g.points[(0, 1)], -1.0);
        assert_eq!(g.points[(24, 0)], 1.0);
        assert_eq!(g.points[(24, 1)], 1.0);
        // Center point of a 5x5 grid is the origin.
        assert_eq!(g.points[(12, 0)], 0.0);
        assert_eq!(g.points[(12, 1)], 0.0);
    }

    #[test]
    fn phi_shape_and_bias() {
        let basis = RbfBasis::on_grid(3); // 9 centers + bias
        let grid = LatentGrid::new(4);
        let phi = basis.phi(&grid.points);
        assert_eq!(phi.rows(), 16);
        assert_eq!(phi.cols(), 10);
        for i in 0..16 {
            assert_eq!(phi[(i, 9)], 1.0, "bias column");
        }
    }

    #[test]
    fn phi_peaks_at_center() {
        let basis = RbfBasis::on_grid(3);
        // Evaluate at the first center itself: that basis function is 1.
        let at_center = Matrix::from_rows(vec![vec![basis.centers[(0, 0)], basis.centers[(0, 1)]]]);
        let phi = basis.phi(&at_center);
        assert!((phi[(0, 0)] - 1.0).abs() < 1e-12);
        // And decays away from it.
        let far = Matrix::from_rows(vec![vec![1.0, 1.0]]);
        let phi_far = basis.phi(&far);
        assert!(phi_far[(0, 0)] < phi[(0, 0)]);
    }

    #[test]
    fn phi_values_in_unit_interval() {
        let basis = RbfBasis::on_grid(4);
        let grid = LatentGrid::new(6);
        let phi = basis.phi(&grid.points);
        for i in 0..phi.rows() {
            for j in 0..phi.cols() {
                assert!((0.0..=1.0).contains(&phi[(i, j)]));
            }
        }
    }
}

//! A small dense linear-algebra kit: exactly what GTM's EM steps need.
//!
//! Row-major `f64` matrices with multiply, transpose, and SPD solves via
//! Cholesky. The multiply kernel iterates in `i-k-j` order so the inner
//! loop streams rows of both operands — cache-friendly and auto-
//! vectorizable (see the perf-book's notes on bounds checks: slices are
//! hoisted out of the inner loop).

use ppc_core::{PpcError, Result};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn from_rows(rows_data: Vec<Vec<f64>>) -> Matrix {
        let rows = rows_data.len();
        let cols = rows_data.first().map(Vec::len).unwrap_or(0);
        let mut data = Vec::with_capacity(rows * cols);
        for r in rows_data {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(&r);
        }
        Matrix { rows, cols, data }
    }

    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols);
        Matrix { rows, cols, data }
    }

    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = other.row(k);
                for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                    *o += a_ik * b_kj;
                }
            }
        }
        out
    }

    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Add `lambda` to the diagonal (ridge regularization).
    pub fn add_diagonal(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += lambda;
        }
    }

    /// Cholesky factorization of an SPD matrix: returns lower-triangular L
    /// with `L Lᵀ = self`.
    pub fn cholesky(&self) -> Result<Matrix> {
        if self.rows != self.cols {
            return Err(PpcError::InvalidArgument(
                "cholesky needs a square matrix".into(),
            ));
        }
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(PpcError::InvalidState(format!(
                            "matrix not positive definite at {i}"
                        )));
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Solve `self * X = B` for SPD `self` via Cholesky.
    pub fn solve_spd(&self, b: &Matrix) -> Result<Matrix> {
        assert_eq!(self.rows, b.rows, "rhs rows mismatch");
        let l = self.cholesky()?;
        let n = self.rows;
        let m = b.cols;
        // Forward substitution: L Y = B.
        let mut y = Matrix::zeros(n, m);
        for i in 0..n {
            for c in 0..m {
                let mut sum = b[(i, c)];
                for k in 0..i {
                    sum -= l[(i, k)] * y[(k, c)];
                }
                y[(i, c)] = sum / l[(i, i)];
            }
        }
        // Back substitution: Lᵀ X = Y.
        let mut x = Matrix::zeros(n, m);
        for i in (0..n).rev() {
            for c in 0..m {
                let mut sum = y[(i, c)];
                for k in (i + 1)..n {
                    sum -= l[(k, i)] * x[(k, c)];
                }
                x[(i, c)] = sum / l[(i, i)];
            }
        }
        Ok(x)
    }

    /// Squared Euclidean distance between row `i` of self and row `j` of
    /// `other`.
    pub fn row_sq_dist(&self, i: usize, other: &Matrix, j: usize) -> f64 {
        debug_assert_eq!(self.cols, other.cols);
        self.row(i)
            .iter()
            .zip(other.row(j))
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_core::rng::Pcg32;

    #[test]
    fn matmul_known() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(vec![vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let i3 = Matrix::identity(3);
        assert_eq!(a.matmul(&i3), a);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // Build SPD A = Mᵀ M + I and verify A * X = B round-trips.
        let mut rng = Pcg32::new(42);
        let n = 12;
        let m = Matrix::from_flat(n, n, (0..n * n).map(|_| rng.normal()).collect());
        let mut a = m.transpose().matmul(&m);
        a.add_diagonal(1.0);
        let b = Matrix::from_flat(n, 3, (0..n * 3).map(|_| rng.normal()).collect());
        let x = a.solve_spd(&b).unwrap();
        let b2 = a.matmul(&x);
        let mut err: f64 = 0.0;
        for i in 0..n {
            for j in 0..3 {
                err = err.max((b[(i, j)] - b2[(i, j)]).abs());
            }
        }
        assert!(err < 1e-9, "residual {err}");
    }

    #[test]
    fn cholesky_rejects_non_spd() {
        let a = Matrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert!(a.cholesky().is_err());
        let rect = Matrix::zeros(2, 3);
        assert!(rect.cholesky().is_err());
    }

    #[test]
    fn row_distance() {
        let a = Matrix::from_rows(vec![vec![0.0, 0.0], vec![3.0, 4.0]]);
        assert_eq!(a.row_sq_dist(0, &a, 1), 25.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_dimension_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}

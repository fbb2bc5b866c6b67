//! The GTM Interpolation application: a block of data points in, their 2-D
//! latent coordinates out.
//!
//! Every worker holds the (small) trained model; each task interpolates one
//! partition of out-of-sample points (§6: "Input data can be partitioned
//! arbitrarily on the data point boundaries").

use ppc_core::exec::Executor;
use ppc_core::task::TaskSpec;
use ppc_core::{Cancel, PpcError, Result};
use ppc_gtm::interpolate::interpolate_cancellable;
use ppc_gtm::linalg::Matrix;
use ppc_gtm::train::GtmModel;
use std::sync::Arc;

/// Binary point-block codec: `[n: u32][d: u32][n*d little-endian f64]`.
/// (The paper ships compressed splits; a fixed binary layout plays that
/// role here.)
pub fn encode_points(m: &Matrix) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + m.rows() * m.cols() * 8);
    out.extend_from_slice(&(m.rows() as u32).to_le_bytes());
    out.extend_from_slice(&(m.cols() as u32).to_le_bytes());
    for v in m.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Inverse of [`encode_points`].
pub fn decode_points(bytes: &[u8]) -> Result<Matrix> {
    if bytes.len() < 8 {
        return Err(PpcError::Codec("point block too short".into()));
    }
    let n = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    let d = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
    let expect = 8 + n * d * 8;
    if bytes.len() != expect {
        return Err(PpcError::Codec(format!(
            "point block length {} != expected {expect}",
            bytes.len()
        )));
    }
    let mut data = Vec::with_capacity(n * d);
    for chunk in bytes[8..].chunks_exact(8) {
        data.push(f64::from_le_bytes(chunk.try_into().expect("8 bytes")));
    }
    Ok(Matrix::from_flat(n, d, data))
}

/// The "executable" for the GTM Interpolation experiments.
pub struct GtmExecutor {
    pub model: Arc<GtmModel>,
}

impl GtmExecutor {
    pub fn new(model: Arc<GtmModel>) -> GtmExecutor {
        GtmExecutor { model }
    }
}

impl Executor for GtmExecutor {
    fn run(&self, spec: &TaskSpec, input: &[u8]) -> Result<Vec<u8>> {
        self.run_cancellable(spec, input, &Cancel::never())
    }

    fn run_cancellable(&self, _spec: &TaskSpec, input: &[u8], cancel: &Cancel) -> Result<Vec<u8>> {
        let points = decode_points(input)?;
        if points.rows() == 0 {
            return Err(PpcError::TaskFailed("empty point block".into()));
        }
        if points.cols() != self.model.w.cols() {
            return Err(PpcError::TaskFailed(format!(
                "dimension mismatch: data {} vs model {}",
                points.cols(),
                self.model.w.cols()
            )));
        }
        let coords = interpolate_cancellable(&self.model, &points, cancel)?;
        Ok(encode_points(&coords))
    }

    fn name(&self) -> &str {
        "gtm-interpolation"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_core::task::ResourceProfile;
    use ppc_gtm::data::{fingerprints, FingerprintParams};
    use ppc_gtm::train::{train, TrainConfig};

    fn setup() -> (Arc<GtmModel>, Matrix) {
        let (data, _) = fingerprints(
            &FingerprintParams {
                n_points: 120,
                dim: 30,
                n_clusters: 3,
                flip_noise: 0.05,
            },
            31,
        );
        let cfg = TrainConfig {
            grid_side: 5,
            rbf_side: 3,
            iterations: 8,
            lambda: 1e-3,
        };
        let model = Arc::new(train(&data, &cfg).unwrap());
        (model, data)
    }

    fn spec() -> TaskSpec {
        TaskSpec::new(0, "gtm", "p0.bin", ResourceProfile::cpu_bound(0.0))
    }

    #[test]
    fn codec_round_trip() {
        let m = Matrix::from_rows(vec![vec![1.5, -2.0], vec![0.0, 42.25]]);
        let enc = encode_points(&m);
        let back = decode_points(&enc).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn codec_rejects_truncation() {
        let m = Matrix::zeros(3, 4);
        let mut enc = encode_points(&m);
        enc.pop();
        assert!(decode_points(&enc).is_err());
        assert!(decode_points(&[1, 2, 3]).is_err());
    }

    #[test]
    fn interpolates_block_to_2d() {
        let (model, data) = setup();
        let exec = GtmExecutor::new(model);
        let out = exec.run(&spec(), &encode_points(&data)).unwrap();
        let coords = decode_points(&out).unwrap();
        assert_eq!(coords.rows(), data.rows());
        assert_eq!(coords.cols(), 2);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (model, _) = setup();
        let exec = GtmExecutor::new(model);
        let wrong = Matrix::zeros(5, 7);
        assert!(exec.run(&spec(), &encode_points(&wrong)).is_err());
    }

    #[test]
    fn idempotent() {
        let (model, data) = setup();
        let exec = GtmExecutor::new(model);
        let input = encode_points(&data);
        assert_eq!(
            exec.run(&spec(), &input).unwrap(),
            exec.run(&spec(), &input).unwrap()
        );
    }
}

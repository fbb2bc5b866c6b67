//! Mergeable log-bucket histograms with p50/p95/p99 estimates.

use std::collections::BTreeMap;

/// Sub-buckets per power of two. 8 gives ~9% worst-case relative error on
/// quantile estimates — plenty for overhead attribution.
const BUCKETS_PER_DOUBLING: f64 = 8.0;
/// Bucket index for observations ≤ 0 (zero-duration spans are legal).
const ZERO_BUCKET: i32 = i32::MIN;

/// A mergeable histogram over sparse logarithmic buckets.
///
/// Merging is exact on `count`/`min`/`max` and per-bucket counts, so merge
/// order never changes a quantile estimate.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    buckets: BTreeMap<i32, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

fn bucket_of(v: f64) -> i32 {
    if v <= 0.0 {
        ZERO_BUCKET
    } else {
        (v.log2() * BUCKETS_PER_DOUBLING).floor() as i32
    }
}

/// Representative value for a bucket: its geometric midpoint.
fn bucket_value(idx: i32) -> f64 {
    if idx == ZERO_BUCKET {
        0.0
    } else {
        ((idx as f64 + 0.5) / BUCKETS_PER_DOUBLING).exp2()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        *self.buckets.entry(bucket_of(v)).or_insert(0) += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (idx, n) in &other.buckets {
            *self.buckets.entry(*idx).or_insert(0) += n;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Quantile estimate (`q` in `[0, 1]`), always clamped to
    /// `[min, max]` of the observed values. Returns 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.count - 1) as f64).floor() as u64;
        let mut seen = 0u64;
        for (idx, n) in &self.buckets {
            seen += n;
            if seen > rank {
                return bucket_value(*idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_core::rng::Pcg32;

    fn random_histogram(rng: &mut Pcg32, n: usize) -> Histogram {
        let mut h = Histogram::new();
        for _ in 0..n {
            // Mix of scales, including exact zeros.
            let v = if rng.chance(0.1) {
                0.0
            } else {
                rng.log_normal(0.0, 2.0)
            };
            h.observe(v);
        }
        h
    }

    #[test]
    fn histogram_merge_is_commutative() {
        let mut rng = Pcg32::new(101);
        for _ in 0..50 {
            let a = random_histogram(&mut rng, 40);
            let b = random_histogram(&mut rng, 25);
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab.buckets, ba.buckets);
            assert_eq!(ab.count, ba.count);
            assert_eq!(ab.min, ba.min);
            assert_eq!(ab.max, ba.max);
            assert!((ab.sum - ba.sum).abs() <= 1e-9 * ab.sum.abs().max(1.0));
            // Same buckets + same extremes ⇒ identical quantiles.
            for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                assert_eq!(ab.quantile(q), ba.quantile(q));
            }
        }
    }

    #[test]
    fn histogram_merge_is_associative() {
        let mut rng = Pcg32::new(202);
        for _ in 0..50 {
            let a = random_histogram(&mut rng, 30);
            let b = random_histogram(&mut rng, 20);
            let c = random_histogram(&mut rng, 10);
            let mut ab_c = a.clone();
            ab_c.merge(&b);
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            assert_eq!(ab_c.buckets, a_bc.buckets);
            assert_eq!(ab_c.count, a_bc.count);
            assert_eq!(ab_c.min, a_bc.min);
            assert_eq!(ab_c.max, a_bc.max);
            assert!((ab_c.sum - a_bc.sum).abs() <= 1e-9 * ab_c.sum.abs().max(1.0));
        }
    }

    #[test]
    fn quantiles_bounded_by_min_and_max() {
        let mut rng = Pcg32::new(303);
        for _ in 0..100 {
            let n = 1 + rng.next_below(200) as usize;
            let h = random_histogram(&mut rng, n);
            for q in [0.0, 0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
                let v = h.quantile(q);
                assert!(
                    v >= h.min() && v <= h.max(),
                    "q={q}: {v} outside [{}, {}]",
                    h.min(),
                    h.max()
                );
            }
            // Quantiles are monotone in q.
            assert!(h.quantile(0.25) <= h.quantile(0.75));
        }
    }

    #[test]
    fn quantile_relative_error_is_bounded() {
        // With 8 buckets per doubling the representative is within one
        // bucket width (~9%) of any value in the bucket.
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.observe(i as f64 / 100.0);
        }
        let p50 = h.p50();
        assert!((p50 - 5.0).abs() / 5.0 < 0.1, "p50 {p50}");
        let p99 = h.p99();
        assert!((p99 - 9.9).abs() / 9.9 < 0.1, "p99 {p99}");
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = Histogram::new();
        assert_eq!(h.count, 0);
        assert_eq!(h.quantile(0.5), 0.0);
        let mut m = Histogram::new();
        m.merge(&h);
        assert_eq!(m.count, 0);
    }
}

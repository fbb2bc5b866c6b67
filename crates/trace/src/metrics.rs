//! Mergeable log-bucket histograms with p50/p95/p99 estimates.

/// Sub-buckets per power of two. 8 gives ~9% worst-case relative error on
/// quantile estimates — plenty for overhead attribution.
const BUCKETS_PER_DOUBLING: f64 = 8.0;

/// A mergeable histogram over logarithmic buckets.
///
/// Observations `<= 0` (zero-duration spans are legal) share one zero
/// bucket that sorts below every log bucket. Log buckets are counted
/// densely from the lowest observed bucket `base` to the highest, so the
/// first and last counts are never zero: the representation is canonical
/// and derived equality compares contents. Merging is exact on
/// `count`/`min`/`max` and per-bucket counts, so merge order never changes
/// a quantile estimate.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    zero: u64,
    base: i32,
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Log bucket of a positive observation.
fn bucket_of(v: f64) -> i32 {
    (v.log2() * BUCKETS_PER_DOUBLING).floor() as i32
}

/// Representative value for a log bucket: its geometric midpoint.
fn bucket_value(idx: i32) -> f64 {
    ((idx as f64 + 0.5) / BUCKETS_PER_DOUBLING).exp2()
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if v <= 0.0 {
            self.zero += 1;
        } else {
            let idx = bucket_of(v);
            self.cover(idx, idx);
            self.buckets[(idx - self.base) as usize] += 1;
        }
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

    /// Widen the dense range to cover log buckets `lo..=hi`.
    fn cover(&mut self, lo: i32, hi: i32) {
        if self.buckets.is_empty() {
            self.base = lo;
            self.buckets.resize((hi - lo) as usize + 1, 0);
            return;
        }
        if lo < self.base {
            let grow = (self.base - lo) as usize;
            self.buckets.splice(0..0, std::iter::repeat_n(0, grow));
            self.base = lo;
        }
        let len = (hi - self.base) as usize + 1;
        if len > self.buckets.len() {
            self.buckets.resize(len, 0);
        }
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
        self.zero += other.zero;
        if !other.buckets.is_empty() {
            let top = other.base + (other.buckets.len() - 1) as i32;
            self.cover(other.base, top);
            let from = (other.base - self.base) as usize;
            for (mine, n) in self.buckets[from..].iter_mut().zip(&other.buckets) {
                *mine += n;
            }
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
        if self.zero > rank {
            return 0.0f64.clamp(self.min, self.max);
        }
        let mut seen = self.zero;
        for (idx, &n) in (self.base..).zip(&self.buckets) {
            seen += n;
            if seen > rank {
                return bucket_value(idx).clamp(self.min, self.max);
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
            assert_eq!(
                (ab.zero, ab.base, &ab.buckets),
                (ba.zero, ba.base, &ba.buckets)
            );
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
            assert_eq!(
                (ab_c.zero, ab_c.base, &ab_c.buckets),
                (a_bc.zero, a_bc.base, &a_bc.buckets)
            );
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

    /// The `BTreeMap` histogram the dense one replaced, kept as the
    /// reference model: sparse buckets keyed by log index, with the zero
    /// bucket at `i32::MIN`.
    #[derive(Default)]
    struct ReferenceHistogram {
        buckets: std::collections::BTreeMap<i32, u64>,
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
    }

    impl ReferenceHistogram {
        const ZERO_BUCKET: i32 = i32::MIN;

        fn bucket_of(v: f64) -> i32 {
            if v <= 0.0 {
                Self::ZERO_BUCKET
            } else {
                (v.log2() * BUCKETS_PER_DOUBLING).floor() as i32
            }
        }

        fn observe(&mut self, v: f64) {
            if !v.is_finite() {
                return;
            }
            *self.buckets.entry(Self::bucket_of(v)).or_insert(0) += 1;
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

        fn merge(&mut self, other: &ReferenceHistogram) {
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

        fn quantile(&self, q: f64) -> f64 {
            if self.count == 0 {
                return 0.0;
            }
            let q = q.clamp(0.0, 1.0);
            let rank = (q * (self.count - 1) as f64).floor() as u64;
            let mut seen = 0u64;
            for (idx, n) in &self.buckets {
                seen += n;
                if seen > rank {
                    let v = if *idx == Self::ZERO_BUCKET {
                        0.0
                    } else {
                        bucket_value(*idx)
                    };
                    return v.clamp(self.min, self.max);
                }
            }
            self.max
        }
    }

    /// One observation from a mix of exact zeros, negatives, non-finite
    /// values and magnitudes spread over 1e-6..1e6.
    fn hostile_value(rng: &mut Pcg32) -> f64 {
        match rng.next_below(10) {
            0 => 0.0,
            1 => -rng.uniform(0.0, 5.0),
            2 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.next_below(3) as usize],
            _ => 10f64.powf(rng.uniform(-6.0, 6.0)),
        }
    }

    fn assert_matches(h: &Histogram, r: &ReferenceHistogram, label: &str) {
        assert_eq!(h.count, r.count, "{label}: count");
        assert_eq!(h.min.to_bits(), r.min.to_bits(), "{label}: min");
        assert_eq!(h.max.to_bits(), r.max.to_bits(), "{label}: max");
        assert_eq!(h.sum.to_bits(), r.sum.to_bits(), "{label}: sum");
        let mut dense: Vec<(i32, u64)> = (h.zero > 0)
            .then_some((ReferenceHistogram::ZERO_BUCKET, h.zero))
            .into_iter()
            .collect();
        dense.extend(
            (h.base..)
                .zip(h.buckets.iter().copied())
                .filter(|b| b.1 > 0),
        );
        let sparse: Vec<(i32, u64)> = r.buckets.iter().map(|(&i, &n)| (i, n)).collect();
        assert_eq!(dense, sparse, "{label}: buckets");
        if let (Some(first), Some(last)) = (h.buckets.first(), h.buckets.last()) {
            assert!(*first > 0 && *last > 0, "{label}: dense range not trimmed");
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(
                h.quantile(q).to_bits(),
                r.quantile(q).to_bits(),
                "{label}: quantile {q}"
            );
        }
    }

    #[test]
    fn dense_buckets_match_the_btreemap_reference() {
        let mut rng = Pcg32::new(404);
        for case in 0..300 {
            let mut pool: Vec<(Histogram, ReferenceHistogram)> = Vec::new();
            for _ in 0..1 + rng.next_below(4) {
                let (mut h, mut r) = (Histogram::new(), ReferenceHistogram::default());
                for _ in 0..rng.next_below(60) {
                    let v = hostile_value(&mut rng);
                    h.observe(v);
                    r.observe(v);
                }
                assert_matches(&h, &r, &format!("case {case}: observed"));
                pool.push((h, r));
            }
            // Fold the pool in a random order, observing between merges.
            let (mut h, mut r) = pool.swap_remove(rng.next_below(pool.len() as u32) as usize);
            while !pool.is_empty() {
                let (oh, or) = pool.swap_remove(rng.next_below(pool.len() as u32) as usize);
                h.merge(&oh);
                r.merge(&or);
                let v = hostile_value(&mut rng);
                h.observe(v);
                r.observe(v);
                assert_matches(&h, &r, &format!("case {case}: merged"));
            }
        }
    }
}

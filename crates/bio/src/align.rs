//! Exact local alignment: Smith–Waterman with affine gaps and traceback.
//!
//! BLAST's banded gapped extension ([`crate::blast`]) trades exactness for
//! speed; this module is the exact reference it is validated against (see
//! the cross-checking tests).

use crate::matrix::{score, GAP_EXTEND, GAP_OPEN};

/// One aligned pair, with traceback strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    pub score: i32,
    /// Query with `-` for gaps.
    pub aligned_a: Vec<u8>,
    /// Subject with `-` for gaps.
    pub aligned_b: Vec<u8>,
    /// Start offsets of the aligned region in each input.
    pub start_a: usize,
    pub start_b: usize,
}

const NEG: i32 = i32::MIN / 4;

#[derive(Clone, Copy, PartialEq)]
enum Tb {
    Stop,
    Diag,
    Up,   // gap in b (consume a)
    Left, // gap in a (consume b)
}

/// Local alignment (Smith–Waterman) with affine gaps under BLOSUM62:
/// dynamic programming over the full matrix, clamped at 0 and traced back
/// from the best cell.
pub fn local(a: &[u8], b: &[u8]) -> Alignment {
    let n = a.len();
    let m = b.len();
    // Three-state DP: h = best, e = gap-in-a open, f = gap-in-b open.
    let mut h = vec![vec![0i32; m + 1]; n + 1];
    let mut e = vec![vec![NEG; m + 1]; n + 1];
    let mut f = vec![vec![NEG; m + 1]; n + 1];
    let mut tb = vec![vec![Tb::Stop; m + 1]; n + 1];

    let mut best = (0i32, 0usize, 0usize);
    for i in 1..=n {
        for j in 1..=m {
            e[i][j] = (h[i][j - 1] - GAP_OPEN - GAP_EXTEND).max(e[i][j - 1] - GAP_EXTEND);
            f[i][j] = (h[i - 1][j] - GAP_OPEN - GAP_EXTEND).max(f[i - 1][j] - GAP_EXTEND);
            let diag = h[i - 1][j - 1] + score(a[i - 1], b[j - 1]);
            let mut v = diag.max(e[i][j]).max(f[i][j]);
            let mut dir = if v == diag {
                Tb::Diag
            } else if v == f[i][j] {
                Tb::Up
            } else {
                Tb::Left
            };
            if v <= 0 {
                v = 0;
                dir = Tb::Stop;
            }
            h[i][j] = v;
            tb[i][j] = dir;
            if v > best.0 {
                best = (v, i, j);
            }
        }
    }

    let (score, mut i, mut j) = best;
    let mut ra = Vec::new();
    let mut rb = Vec::new();
    while i > 0 || j > 0 {
        match tb[i][j] {
            Tb::Stop => break,
            Tb::Diag => {
                ra.push(a[i - 1]);
                rb.push(b[j - 1]);
                i -= 1;
                j -= 1;
            }
            Tb::Up => {
                ra.push(a[i - 1]);
                rb.push(b'-');
                i -= 1;
            }
            Tb::Left => {
                ra.push(b'-');
                rb.push(b[j - 1]);
                j -= 1;
            }
        }
    }
    ra.reverse();
    rb.reverse();
    Alignment {
        score,
        aligned_a: ra,
        aligned_b: rb,
        start_a: i,
        start_b: j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::random_protein;
    use ppc_core::rng::Pcg32;

    #[test]
    fn identical_sequences_align_perfectly() {
        let s = b"MKVLAATGLRWQYHNDEFFK";
        let l = local(s, s);
        assert_eq!(l.aligned_a, s.to_vec());
        assert_eq!(l.aligned_b, s.to_vec());
        let expect: i32 = s.iter().map(|&c| score(c, c)).sum();
        assert_eq!(l.score, expect);
    }

    #[test]
    fn local_finds_embedded_match() {
        let core = b"WWHHKKRRFFYY";
        let mut a = b"MAAAA".to_vec();
        a.extend_from_slice(core);
        a.extend_from_slice(b"GGGG");
        let mut b = b"PPPPPPPP".to_vec();
        b.extend_from_slice(core);
        let l = local(&a, &b);
        assert_eq!(l.aligned_a, core.to_vec());
        assert_eq!(l.aligned_b, core.to_vec());
        assert_eq!(l.start_a, 5);
        assert_eq!(l.start_b, 8);
    }

    #[test]
    fn deletion_costs_one_affine_gap() {
        let a = b"MKVLAATGLRWQYHNDE";
        let mut b = a.to_vec();
        b.drain(6..9); // one 3-long gap
        let g = local(a, &b);
        assert_eq!(g.aligned_b.iter().filter(|&&c| c == b'-').count(), 3);
        // Affine: one open + three extends.
        let matched: i32 = a
            .iter()
            .enumerate()
            .filter(|(i, _)| !(6..9).contains(i))
            .map(|(_, &c)| score(c, c))
            .sum();
        assert_eq!(g.score, matched - GAP_OPEN - 3 * GAP_EXTEND);
    }

    #[test]
    fn local_score_never_negative() {
        let mut rng = Pcg32::new(9);
        for _ in 0..20 {
            let a = random_protein(40, &mut rng);
            let b = random_protein(40, &mut rng);
            assert!(local(&a, &b).score >= 0);
        }
    }

    #[test]
    fn traceback_reconstructs_inputs() {
        let mut rng = Pcg32::new(11);
        for _ in 0..10 {
            let a = random_protein(30, &mut rng);
            let b = random_protein(25, &mut rng);
            let g = local(&a, &b);
            let ra: Vec<u8> = g.aligned_a.iter().copied().filter(|&c| c != b'-').collect();
            let rb: Vec<u8> = g.aligned_b.iter().copied().filter(|&c| c != b'-').collect();
            assert_eq!(ra, a[g.start_a..g.start_a + ra.len()]);
            assert_eq!(rb, b[g.start_b..g.start_b + rb.len()]);
            assert_eq!(g.aligned_a.len(), g.aligned_b.len());
        }
    }

    #[test]
    fn alignment_score_consistent_with_columns() {
        // Recompute the score from the traceback columns; must match.
        let mut rng = Pcg32::new(13);
        let a = random_protein(35, &mut rng);
        let mut b = a.clone();
        b.drain(10..14);
        b[20] = b'W';
        let g = local(&a, &b);
        let mut recomputed = 0i32;
        let mut in_gap = false;
        for (&x, &y) in g.aligned_a.iter().zip(&g.aligned_b) {
            if x == b'-' || y == b'-' {
                recomputed -= GAP_EXTEND + if in_gap { 0 } else { GAP_OPEN };
                in_gap = true;
            } else {
                recomputed += score(x, y);
                in_gap = false;
            }
        }
        assert_eq!(recomputed, g.score);
    }
}

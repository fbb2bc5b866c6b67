//! Protein scoring: BLOSUM62 and alignment parameters.

/// The 20 standard amino acids, in BLOSUM62 row order.
pub const AMINO_ACIDS: [u8; 20] = [
    b'A', b'R', b'N', b'D', b'C', b'Q', b'E', b'G', b'H', b'I', b'L', b'K', b'M', b'F', b'P', b'S',
    b'T', b'W', b'Y', b'V',
];

/// BLOSUM62 substitution matrix (Henikoff & Henikoff 1992), row order as
/// [`AMINO_ACIDS`].
#[rustfmt::skip]
pub const BLOSUM62: [[i32; 20]; 20] = [
    //A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V
    [ 4, -1, -2, -2,  0, -1, -1,  0, -2, -1, -1, -1, -1, -2, -1,  1,  0, -3, -2,  0], // A
    [-1,  5,  0, -2, -3,  1,  0, -2,  0, -3, -2,  2, -1, -3, -2, -1, -1, -3, -2, -3], // R
    [-2,  0,  6,  1, -3,  0,  0,  0,  1, -3, -3,  0, -2, -3, -2,  1,  0, -4, -2, -3], // N
    [-2, -2,  1,  6, -3,  0,  2, -1, -1, -3, -4, -1, -3, -3, -1,  0, -1, -4, -3, -3], // D
    [ 0, -3, -3, -3,  9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1], // C
    [-1,  1,  0,  0, -3,  5,  2, -2,  0, -3, -2,  1,  0, -3, -1,  0, -1, -2, -1, -2], // Q
    [-1,  0,  0,  2, -4,  2,  5, -2,  0, -3, -3,  1, -2, -3, -1,  0, -1, -3, -2, -2], // E
    [ 0, -2,  0, -1, -3, -2, -2,  6, -2, -4, -4, -2, -3, -3, -2,  0, -2, -2, -3, -3], // G
    [-2,  0,  1, -1, -3,  0,  0, -2,  8, -3, -3, -1, -2, -1, -2, -1, -2, -2,  2, -3], // H
    [-1, -3, -3, -3, -1, -3, -3, -4, -3,  4,  2, -3,  1,  0, -3, -2, -1, -3, -1,  3], // I
    [-1, -2, -3, -4, -1, -2, -3, -4, -3,  2,  4, -2,  2,  0, -3, -2, -1, -2, -1,  1], // L
    [-1,  2,  0, -1, -3,  1,  1, -2, -1, -3, -2,  5, -1, -3, -1,  0, -1, -3, -2, -2], // K
    [-1, -1, -2, -3, -1,  0, -2, -3, -2,  1,  2, -1,  5,  0, -2, -1, -1, -1, -1,  1], // M
    [-2, -3, -3, -3, -2, -3, -3, -3, -1,  0,  0, -3,  0,  6, -4, -2, -2,  1,  3, -1], // F
    [-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4,  7, -1, -1, -4, -3, -2], // P
    [ 1, -1,  1,  0, -1,  0,  0,  0, -1, -2, -2,  0, -1, -2, -1,  4,  1, -3, -2, -2], // S
    [ 0, -1,  0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1,  1,  5, -2, -2,  0], // T
    [-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1,  1, -4, -3, -2, 11,  2, -3], // W
    [-2, -2, -2, -3, -2, -1, -2, -3,  2, -1, -1, -2, -1,  3, -3, -2, -2,  2,  7, -2], // Y
    [ 0, -3, -3, -3, -1, -2, -2, -3, -3,  3,  1, -2,  1, -1, -2, -2,  0, -3, -2,  4], // V
];

/// Residue code of the bytes [`AMINO_ACIDS`] does not name (`X`, `B`, `Z`,
/// the stop `*`, …): one code past the standard twenty.
pub const UNKNOWN: u8 = 20;

/// Residue code of every byte: each standard amino acid, in either case,
/// maps to its BLOSUM62 index `0..20`; every other byte to [`UNKNOWN`].
pub const CODES: [u8; 256] = {
    let mut codes = [UNKNOWN; 256];
    let mut i = 0;
    while i < AMINO_ACIDS.len() {
        codes[AMINO_ACIDS[i] as usize] = i as u8;
        codes[AMINO_ACIDS[i].to_ascii_lowercase() as usize] = i as u8;
        i += 1;
    }
    codes
};

/// BLOSUM62 over residue codes: the [`UNKNOWN`] row and column score the
/// worst-case -4 against everything, itself included.
pub const CODE_SCORES: [[i32; 21]; 21] = {
    let mut table = [[-4; 21]; 21];
    let mut i = 0;
    while i < 20 {
        let mut j = 0;
        while j < 20 {
            table[i][j] = BLOSUM62[i][j];
            j += 1;
        }
        i += 1;
    }
    table
};

/// Map an amino-acid byte to its BLOSUM62 index; `None` for non-standard.
pub fn aa_index(b: u8) -> Option<usize> {
    let code = CODES[b as usize];
    (code != UNKNOWN).then_some(code as usize)
}

/// Score a pair of residues; non-standard residues score the worst-case -4.
#[inline]
pub fn score(a: u8, b: u8) -> i32 {
    CODE_SCORES[CODES[a as usize] as usize][CODES[b as usize] as usize]
}

/// BLAST-style affine gap penalties (blastp defaults: 11/1).
pub const GAP_OPEN: i32 = 11;
pub const GAP_EXTEND: i32 = 1;

/// Karlin–Altschul parameters for BLOSUM62 ungapped statistics.
// (0.3176, Altschul & Gish 1996 — coincidentally near 1/pi, but a
// measured statistical parameter, not the mathematical constant.)
pub const KA_LAMBDA: f64 = 0.3176;
pub const KA_K: f64 = 0.134;

/// Bit score from a raw score.
pub fn bit_score(raw: i32) -> f64 {
    (KA_LAMBDA * raw as f64 - KA_K.ln()) / std::f64::consts::LN_2
}

/// E-value for a raw score against a database of `db_residues` total
/// residues with a query of `query_len` residues.
pub fn e_value(raw: i32, query_len: usize, db_residues: usize) -> f64 {
    let m = query_len as f64;
    let n = db_residues as f64;
    KA_K * m * n * (-KA_LAMBDA * raw as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_symmetric() {
        for (i, row) in BLOSUM62.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, BLOSUM62[j][i], "({i},{j})");
            }
        }
    }

    #[test]
    fn diagonal_is_positive() {
        for (i, row) in BLOSUM62.iter().enumerate() {
            assert!(row[i] > 0);
        }
    }

    #[test]
    fn known_entries() {
        assert_eq!(score(b'W', b'W'), 11);
        assert_eq!(score(b'A', b'A'), 4);
        assert_eq!(score(b'W', b'A'), -3);
        assert_eq!(score(b'a', b'a'), 4, "case-insensitive");
        assert_eq!(score(b'X', b'A'), -4, "unknown residue worst-case");
    }

    #[test]
    fn index_round_trip() {
        for (i, &aa) in AMINO_ACIDS.iter().enumerate() {
            assert_eq!(aa_index(aa), Some(i));
        }
        assert_eq!(aa_index(b'B'), None);
        assert_eq!(aa_index(b'Z'), None);
    }

    #[test]
    fn evalue_decreases_with_score() {
        let e1 = e_value(50, 100, 1_000_000);
        let e2 = e_value(60, 100, 1_000_000);
        assert!(e2 < e1);
        // And grows with database size.
        let e3 = e_value(50, 100, 10_000_000);
        assert!(e3 > e1);
    }

    #[test]
    fn bit_score_monotone() {
        assert!(bit_score(60) > bit_score(50));
    }
}

//! The genetic code and six-frame translation.
//!
//! The paper describes BLAST as a tool "to translate a FASTA formatted
//! nucleotide query and to compare it to a protein database" (§5) — i.e.
//! blastx: translate the DNA in all six reading frames (three offsets on
//! each strand) and search each translation. This module supplies the
//! translation; [`crate::blast::BlastDb::search_translated_cancellable`]
//! does the rest.

use crate::fasta::reverse_complement;

/// Translate one codon (standard genetic code); `*` is a stop, `X` covers
/// codons containing ambiguous bases.
pub fn translate_codon(codon: &[u8]) -> u8 {
    debug_assert_eq!(codon.len(), 3);
    let idx = |b: u8| -> Option<usize> {
        match b.to_ascii_uppercase() {
            b'T' => Some(0),
            b'C' => Some(1),
            b'A' => Some(2),
            b'G' => Some(3),
            _ => None,
        }
    };
    match (idx(codon[0]), idx(codon[1]), idx(codon[2])) {
        (Some(a), Some(b), Some(c)) => GENETIC_CODE[a * 16 + b * 4 + c],
        _ => b'X',
    }
}

/// The standard genetic code in TCAG order (row-major over 3 positions).
#[rustfmt::skip]
const GENETIC_CODE: [u8; 64] = [
    // TTT TTC TTA TTG   TCT TCC TCA TCG   TAT TAC TAA TAG   TGT TGC TGA TGG
    b'F', b'F', b'L', b'L',  b'S', b'S', b'S', b'S',  b'Y', b'Y', b'*', b'*',  b'C', b'C', b'*', b'W',
    // CTT CTC CTA CTG   CCT CCC CCA CCG   CAT CAC CAA CAG   CGT CGC CGA CGG
    b'L', b'L', b'L', b'L',  b'P', b'P', b'P', b'P',  b'H', b'H', b'Q', b'Q',  b'R', b'R', b'R', b'R',
    // ATT ATC ATA ATG   ACT ACC ACA ACG   AAT AAC AAA AAG   AGT AGC AGA AGG
    b'I', b'I', b'I', b'M',  b'T', b'T', b'T', b'T',  b'N', b'N', b'K', b'K',  b'S', b'S', b'R', b'R',
    // GTT GTC GTA GTG   GCT GCC GCA GCG   GAT GAC GAA GAG   GGT GGC GGA GGG
    b'V', b'V', b'V', b'V',  b'A', b'A', b'A', b'A',  b'D', b'D', b'E', b'E',  b'G', b'G', b'G', b'G',
];

/// Translate a DNA sequence in one frame (0, 1, or 2); stops become `*`.
pub fn translate_frame(dna: &[u8], frame: usize) -> Vec<u8> {
    assert!(frame < 3, "frame must be 0..3");
    dna[frame..].chunks_exact(3).map(translate_codon).collect()
}

/// A translated reading frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// 1, 2, 3 for the forward strand; -1, -2, -3 for the reverse.
    pub frame: i8,
    pub protein: Vec<u8>,
}

/// All six reading frames of a DNA sequence (blastx's query preparation).
pub fn six_frames(dna: &[u8]) -> Vec<Frame> {
    let rc = reverse_complement(dna);
    let mut frames = Vec::with_capacity(6);
    for f in 0..3usize {
        if dna.len() >= f + 3 {
            frames.push(Frame {
                frame: (f + 1) as i8,
                protein: translate_frame(dna, f),
            });
        }
        if rc.len() >= f + 3 {
            frames.push(Frame {
                frame: -((f + 1) as i8),
                protein: translate_frame(&rc, f),
            });
        }
    }
    frames
}

/// Reverse-translate a protein into one arbitrary valid DNA coding sequence
/// (testing helper: lets tests build DNA whose translation is known).
pub fn arbitrary_coding_dna(protein: &[u8]) -> Vec<u8> {
    let mut dna = Vec::with_capacity(protein.len() * 3);
    for &aa in protein {
        // Linear scan of the code table for any codon of this amino acid.
        let pos = GENETIC_CODE
            .iter()
            .position(|&c| c == aa.to_ascii_uppercase())
            .unwrap_or(0);
        const TCAG: [u8; 4] = [b'T', b'C', b'A', b'G'];
        dna.push(TCAG[pos / 16]);
        dna.push(TCAG[(pos / 4) % 4]);
        dna.push(TCAG[pos % 4]);
    }
    dna
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_codons() {
        assert_eq!(translate_codon(b"ATG"), b'M', "start codon");
        assert_eq!(translate_codon(b"TAA"), b'*');
        assert_eq!(translate_codon(b"TAG"), b'*');
        assert_eq!(translate_codon(b"TGA"), b'*');
        assert_eq!(translate_codon(b"TGG"), b'W');
        assert_eq!(translate_codon(b"GGG"), b'G');
        assert_eq!(translate_codon(b"ANA"), b'X', "ambiguous base");
        assert_eq!(translate_codon(b"atg"), b'M', "case-insensitive");
    }

    #[test]
    fn frame_translation() {
        // ATG GCC TGA -> M A *
        let dna = b"ATGGCCTGA";
        assert_eq!(translate_frame(dna, 0), b"MA*");
        // frame 1 drops the first base: TGG CCT GA -> W P
        assert_eq!(translate_frame(dna, 1), b"WP");
    }

    #[test]
    fn six_frames_count_and_strands() {
        let dna = b"ATGGCCAAATTTGGG";
        let frames = six_frames(dna);
        assert_eq!(frames.len(), 6);
        let labels: Vec<i8> = frames.iter().map(|f| f.frame).collect();
        assert_eq!(labels, vec![1, -1, 2, -2, 3, -3]);
        // Frame +1 translates directly.
        assert_eq!(frames[0].protein, b"MAKFG");
    }

    #[test]
    fn reverse_translation_round_trips() {
        let protein = b"MKVLAATGLRWQYHNDE";
        let dna = arbitrary_coding_dna(protein);
        assert_eq!(dna.len(), protein.len() * 3);
        assert_eq!(translate_frame(&dna, 0), protein.to_vec());
    }

    #[test]
    fn code_table_sanity() {
        // 61 coding codons + 3 stops.
        let stops = GENETIC_CODE.iter().filter(|&&c| c == b'*').count();
        assert_eq!(stops, 3);
        // Every standard amino acid is encoded by at least one codon.
        for aa in crate::matrix::AMINO_ACIDS {
            assert!(GENETIC_CODE.contains(&aa), "{} missing", aa as char);
        }
    }

    #[test]
    fn short_sequences() {
        assert!(six_frames(b"AT").is_empty());
        assert_eq!(six_frames(b"ATG").len(), 2, "only frame ±1 fits");
    }
}

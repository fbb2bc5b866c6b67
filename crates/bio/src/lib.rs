//! # ppc-bio — sequence kernels for the paper's biomedical applications
//!
//! The paper runs two closed-source-to-us executables: **Cap3** (DNA
//! sequence assembly; Huang & Madan 1999) and **NCBI BLAST+** (protein
//! similarity search). This crate implements working analogs from scratch,
//! so the frameworks schedule *real* compute with the same shape:
//!
//! * [`fasta`] — FASTA parsing/formatting (the wire format of every task).
//! * [`simulate`] — synthetic genomes, shotgun reads, and protein databases
//!   with family structure, replacing the proprietary input data sets.
//! * [`assembly`] — a greedy overlap-layout-consensus assembler (trimming,
//!   k-mer-seeded overlap detection, strand orientation, greedy layout,
//!   position-vote consensus). CPU-bound with content-dependent runtime,
//!   like Cap3 (§4: "The run time of the Cap3 application depends on the
//!   contents of the input file").
//! * [`blast`] — a BLASTP-style search: neighborhood-word seeding over a
//!   k-mer index, X-drop ungapped extension, banded gapped extension,
//!   Karlin–Altschul E-values. Wants the whole database resident, like
//!   BLAST (§5.1's memory observations).
//! * [`codon`] — the genetic code and six-frame translation, powering the
//!   blastx-style nucleotide-vs-protein mode the paper describes.
//! * [`align`] — exact Smith–Waterman with affine gaps and traceback:
//!   the reference the banded BLAST kernel is checked against.
//! * [`matrix`] — BLOSUM62 and alignment scoring parameters.

pub mod align;
pub mod assembly;
pub mod blast;
pub mod codon;
pub mod fasta;
pub mod matrix;
pub mod simulate;

pub use assembly::{assemble, Assembly, AssemblyParams};
pub use blast::{BlastDb, BlastParams, Hit};
pub use fasta::FastaRecord;

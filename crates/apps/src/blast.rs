//! The BLAST application: FASTA queries in, tabular hit report out.
//!
//! Each worker holds one resident [`BlastDb`] (the paper pre-distributes
//! the 8.7 GB NR database to every node before processing, §5) and
//! processes query files of ~100 sequences each.

use ppc_bio::blast::{BlastDb, BlastParams};
use ppc_bio::fasta;
use ppc_core::exec::Executor;
use ppc_core::task::TaskSpec;
use ppc_core::{Cancel, PpcError, Result};
use std::fmt::Write as _;
use std::sync::Arc;

/// The "executable" for the BLAST experiments. Output format mirrors
/// blastp's tabular `-outfmt 6`: query, subject, bit score, E-value.
pub struct BlastExecutor {
    pub db: Arc<BlastDb>,
    pub params: BlastParams,
}

impl BlastExecutor {
    pub fn new(db: Arc<BlastDb>) -> BlastExecutor {
        BlastExecutor {
            db,
            params: BlastParams::default(),
        }
    }
}

impl Executor for BlastExecutor {
    fn run(&self, _spec: &TaskSpec, input: &[u8]) -> Result<Vec<u8>> {
        let queries = fasta::parse(input)?;
        if queries.is_empty() {
            return Err(PpcError::TaskFailed("empty query file".into()));
        }
        let results = self.db.search_many(&queries, &self.params);
        let mut out = String::new();
        for (q, hits) in queries.iter().zip(&results) {
            for h in hits {
                writeln!(
                    out,
                    "{}\t{}\t{:.1}\t{:.2e}",
                    q.id, h.subject_id, h.bit_score, h.e_value
                )
                .expect("string write");
            }
        }
        Ok(out.into_bytes())
    }

    fn name(&self) -> &str {
        "blast"
    }
}

/// The blastx-mode executable: *nucleotide* FASTA queries in, tabular hits
/// out with the winning reading frame — the translation mode §5 of the
/// paper describes ("to translate a FASTA formatted nucleotide query and to
/// compare it to a protein database").
pub struct BlastxExecutor {
    pub db: Arc<BlastDb>,
    pub params: BlastParams,
}

impl BlastxExecutor {
    pub fn new(db: Arc<BlastDb>) -> BlastxExecutor {
        BlastxExecutor {
            db,
            params: BlastParams::default(),
        }
    }
}

impl Executor for BlastxExecutor {
    fn run(&self, spec: &TaskSpec, input: &[u8]) -> Result<Vec<u8>> {
        self.run_cancellable(spec, input, &Cancel::never())
    }

    fn run_cancellable(&self, _spec: &TaskSpec, input: &[u8], cancel: &Cancel) -> Result<Vec<u8>> {
        let queries = fasta::parse(input)?;
        if queries.is_empty() {
            return Err(PpcError::TaskFailed("empty query file".into()));
        }
        let mut out = String::new();
        for q in &queries {
            let hits = self
                .db
                .search_translated_cancellable(&q.seq, &self.params, cancel)?;
            for (frame, h) in hits {
                writeln!(
                    out,
                    "{}\t{}\t{frame:+}\t{:.1}\t{:.2e}",
                    q.id, h.subject_id, h.bit_score, h.e_value
                )
                .expect("string write");
            }
        }
        Ok(out.into_bytes())
    }

    fn name(&self) -> &str {
        "blastx"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_bio::simulate::{protein_database, queries_from_db, ProteinDbParams};
    use ppc_core::task::ResourceProfile;

    fn setup() -> (Arc<BlastDb>, Vec<u8>) {
        let db_recs = protein_database(
            &ProteinDbParams {
                n_families: 8,
                members_per_family: 2,
                len_min: 120,
                len_max: 250,
                divergence: 0.12,
            },
            21,
        );
        let queries = queries_from_db(&db_recs, 10, 0.05, 22);
        let db = Arc::new(BlastDb::build(db_recs, 3));
        (db, fasta::format(&queries))
    }

    fn spec() -> TaskSpec {
        TaskSpec::new(0, "blast", "q0.fa", ResourceProfile::cpu_bound(0.0))
    }

    #[test]
    fn tabular_output_has_hits_for_every_query() {
        let (db, input) = setup();
        let exec = BlastExecutor::new(db);
        let out = exec.run(&spec(), &input).unwrap();
        let text = String::from_utf8(out).unwrap();
        let queries_with_hits: std::collections::HashSet<&str> =
            text.lines().filter_map(|l| l.split('\t').next()).collect();
        assert!(
            queries_with_hits.len() >= 9,
            "most queries hit: {}",
            queries_with_hits.len()
        );
        // Four tab-separated columns.
        for line in text.lines().take(5) {
            assert_eq!(line.split('\t').count(), 4, "{line}");
        }
    }

    #[test]
    fn idempotent() {
        let (db, input) = setup();
        let exec = BlastExecutor::new(db);
        assert_eq!(
            exec.run(&spec(), &input).unwrap(),
            exec.run(&spec(), &input).unwrap()
        );
    }

    #[test]
    fn rejects_empty() {
        let (db, _) = setup();
        let exec = BlastExecutor::new(db);
        assert!(exec.run(&spec(), b"").is_err());
    }

    #[test]
    fn blastx_executor_reports_frames() {
        use ppc_bio::codon::arbitrary_coding_dna;
        use ppc_bio::fasta::{reverse_complement, FastaRecord};
        let (db, _) = setup();
        // Build a nucleotide query encoding a fragment of subject 2, plus a
        // reverse-strand copy.
        let src = db.sequence(2).clone();
        let dna = arbitrary_coding_dna(&src.seq[5..95]);
        let queries = vec![
            FastaRecord::new("fwd", dna.clone()),
            FastaRecord::new("rev", reverse_complement(&dna)),
        ];
        let exec = BlastxExecutor::new(db);
        let out = exec.run(&spec(), &fasta::format(&queries)).unwrap();
        let text = String::from_utf8(out).unwrap();
        // Both strands find the source; frames carry the right sign.
        let fwd_line = text
            .lines()
            .find(|l| l.starts_with("fwd\t"))
            .expect("fwd hit");
        assert!(fwd_line.contains(&src.id), "{fwd_line}");
        assert!(
            fwd_line.split('\t').nth(2).unwrap().starts_with('+'),
            "{fwd_line}"
        );
        let rev_line = text
            .lines()
            .find(|l| l.starts_with("rev\t"))
            .expect("rev hit");
        assert!(
            rev_line.split('\t').nth(2).unwrap().starts_with('-'),
            "{rev_line}"
        );
        // Five tab-separated columns (query, subject, frame, bits, evalue).
        assert_eq!(fwd_line.split('\t').count(), 5);
    }
}

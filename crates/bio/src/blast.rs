//! A BLASTP-style protein similarity search (the NCBI BLAST+ analog).
//!
//! Implements the classic BLAST pipeline (Altschul et al. 1990/1997):
//!
//! 1. **Word index** — the database is indexed by overlapping length-`w`
//!    words (default `w = 3`, as blastp).
//! 2. **Neighborhood seeding** — each query word matches not only itself
//!    but every word scoring ≥ `T` against it under BLOSUM62.
//! 3. **Ungapped X-drop extension** — each seed hit is extended along its
//!    diagonal until the running score drops `x_drop` below its maximum.
//! 4. **Banded gapped extension** — promising ungapped hits get a banded
//!    Smith–Waterman pass around the seed diagonal with affine gaps.
//! 5. **Statistics** — Karlin–Altschul E-values; hits above `e_cutoff` are
//!    discarded.
//!
//! Like the real tool, the dominant cost is scanning/extension over the
//! resident database — which is why the paper's BLAST results are so
//! sensitive to whether the DB fits in memory (§5.1).

use crate::fasta::FastaRecord;
use crate::matrix::{self, aa_index, e_value, GAP_EXTEND, GAP_OPEN};
use ppc_core::{Cancel, Result};
use std::collections::HashMap;

/// Search tuning parameters (blastp-flavoured defaults).
#[derive(Debug, Clone, Copy)]
pub struct BlastParams {
    /// Word size.
    pub w: usize,
    /// Neighborhood threshold: query word w1 seeds db word w2 when
    /// `score(w1, w2) >= t`.
    pub t: i32,
    /// X-drop for ungapped extension.
    pub x_drop: i32,
    /// Minimum ungapped score to attempt gapped extension.
    pub gap_trigger: i32,
    /// Band half-width for gapped extension.
    pub band: usize,
    /// Report hits with E-value at most this.
    pub e_cutoff: f64,
}

impl Default for BlastParams {
    fn default() -> Self {
        BlastParams {
            w: 3,
            t: 11,
            x_drop: 16,
            gap_trigger: 22,
            band: 16,
            e_cutoff: 1e-3,
        }
    }
}

/// One reported alignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Index of the subject sequence in the database.
    pub subject: usize,
    /// Subject id string.
    pub subject_id: String,
    /// Best (gapped) raw score.
    pub score: i32,
    pub bit_score: f64,
    pub e_value: f64,
}

/// An indexed protein database (one resident copy per node, like the NR DB).
pub struct BlastDb {
    seqs: Vec<FastaRecord>,
    /// word (packed) -> (seq, pos) postings.
    index: HashMap<u32, Vec<(u32, u32)>>,
    total_residues: usize,
    w: usize,
}

fn pack_word(word: &[u8]) -> Option<u32> {
    let mut v = 0u32;
    for &b in word {
        v = v * 20 + aa_index(b)? as u32;
    }
    Some(v)
}

impl BlastDb {
    /// Build the word index over the database.
    pub fn build(seqs: Vec<FastaRecord>, w: usize) -> BlastDb {
        assert!((2..=4).contains(&w), "word size 2..=4 supported");
        let mut index: HashMap<u32, Vec<(u32, u32)>> = HashMap::new();
        let mut total = 0;
        for (si, rec) in seqs.iter().enumerate() {
            total += rec.seq.len();
            if rec.seq.len() >= w {
                for (pos, word) in rec.seq.windows(w).enumerate() {
                    if let Some(packed) = pack_word(word) {
                        index
                            .entry(packed)
                            .or_default()
                            .push((si as u32, pos as u32));
                    }
                }
            }
        }
        BlastDb {
            seqs,
            index,
            total_residues: total,
            w,
        }
    }

    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    pub fn total_residues(&self) -> usize {
        self.total_residues
    }

    /// Approximate resident bytes (sequences + index postings) — the number
    /// the memory-pressure model cares about.
    pub fn resident_bytes(&self) -> u64 {
        let seq_bytes: usize = self
            .seqs
            .iter()
            .map(|s| s.seq.len() + s.id.len() + 48)
            .sum();
        let postings: usize = self.index.values().map(|v| v.len() * 8 + 16).sum();
        (seq_bytes + postings) as u64
    }

    pub fn sequence(&self, i: usize) -> &FastaRecord {
        &self.seqs[i]
    }

    /// Search one query; hits sorted by ascending E-value.
    pub fn search(&self, query: &[u8], params: &BlastParams) -> Vec<Hit> {
        self.search_cancellable(query, params, &Cancel::never())
            .expect("never cancelled")
    }

    /// [`BlastDb::search`] that polls `cancel` once per query word while
    /// seeding and once per diagonal while extending.
    pub fn search_cancellable(
        &self,
        query: &[u8],
        params: &BlastParams,
        cancel: &Cancel,
    ) -> Result<Vec<Hit>> {
        assert_eq!(params.w, self.w, "params.w must match the index word size");
        cancel.check()?;
        if query.len() < params.w {
            return Ok(Vec::new());
        }
        // 1+2: seed positions via neighborhood words.
        // For each query word position, find all db words scoring >= t.
        // We enumerate database words present in the index lazily per query
        // word via neighborhood expansion of the query word.
        let mut diag_seeds: HashMap<(u32, i64), Vec<(u32, u32)>> = HashMap::new();
        for (qpos, qword) in query.windows(params.w).enumerate() {
            cancel.check()?;
            for packed in neighborhood(qword, params.t) {
                if let Some(postings) = self.index.get(&packed) {
                    for &(si, spos) in postings {
                        let diag = spos as i64 - qpos as i64;
                        diag_seeds
                            .entry((si, diag))
                            .or_default()
                            .push((qpos as u32, spos));
                    }
                }
            }
        }

        // 3+4: extend the best seed per (subject, diagonal).
        let mut best_per_subject: HashMap<u32, i32> = HashMap::new();
        for ((si, _diag), seeds) in diag_seeds {
            cancel.check()?;
            let subject = &self.seqs[si as usize].seq;
            // Take the first seed on the diagonal (they extend identically).
            let &(qpos, spos) = seeds.first().expect("non-empty");
            let ungapped = ungapped_extend(query, subject, qpos as usize, spos as usize, params);
            if ungapped < params.gap_trigger {
                // Weak hit: still count the ungapped score if positive.
                let entry = best_per_subject.entry(si).or_insert(i32::MIN);
                *entry = (*entry).max(ungapped);
                continue;
            }
            let gapped =
                banded_gapped_score(query, subject, qpos as usize, spos as usize, params.band);
            let entry = best_per_subject.entry(si).or_insert(i32::MIN);
            *entry = (*entry).max(gapped.max(ungapped));
        }

        // 5: statistics + cutoff.
        let mut hits: Vec<Hit> = best_per_subject
            .into_iter()
            .filter_map(|(si, score)| {
                if score <= 0 {
                    return None;
                }
                let e = e_value(score, query.len(), self.total_residues);
                if e > params.e_cutoff {
                    return None;
                }
                Some(Hit {
                    subject: si as usize,
                    subject_id: self.seqs[si as usize].id.clone(),
                    score,
                    bit_score: matrix::bit_score(score),
                    e_value: e,
                })
            })
            .collect();
        hits.sort_by(|a, b| {
            a.e_value
                .partial_cmp(&b.e_value)
                .unwrap()
                .then(a.subject.cmp(&b.subject))
        });
        Ok(hits)
    }

    /// Search many queries in parallel (BLAST's `-num_threads` — this is
    /// what an Azure worker with `t` BLAST threads runs).
    pub fn search_many(&self, queries: &[FastaRecord], params: &BlastParams) -> Vec<Vec<Hit>> {
        ppc_core::par::par_map_slice(queries, |q| self.search(&q.seq, params))
    }

    /// blastx: translate a *nucleotide* query in all six reading frames and
    /// search each translation, merging hits by subject (best frame wins) —
    /// the mode the paper describes in §5 ("to translate a FASTA formatted
    /// nucleotide query and to compare it to a protein database").
    /// Returns hits tagged with the winning frame.
    pub fn search_translated(&self, dna: &[u8], params: &BlastParams) -> Vec<(i8, Hit)> {
        self.search_translated_cancellable(dna, params, &Cancel::never())
            .expect("never cancelled")
    }

    /// [`BlastDb::search_translated`] that polls `cancel` inside every
    /// segment's search.
    pub fn search_translated_cancellable(
        &self,
        dna: &[u8],
        params: &BlastParams,
        cancel: &Cancel,
    ) -> Result<Vec<(i8, Hit)>> {
        let mut best: HashMap<usize, (i8, Hit)> = HashMap::new();
        for frame in crate::codon::six_frames(dna) {
            // Stops split the translation into ORF segments; search each
            // segment long enough to seed.
            for segment in frame.protein.split(|&aa| aa == b'*') {
                if segment.len() < params.w {
                    continue;
                }
                for hit in self.search_cancellable(segment, params, cancel)? {
                    match best.get(&hit.subject) {
                        Some((_, prior)) if prior.score >= hit.score => {}
                        _ => {
                            best.insert(hit.subject, (frame.frame, hit));
                        }
                    }
                }
            }
        }
        let mut hits: Vec<(i8, Hit)> = best.into_values().collect();
        hits.sort_by(|a, b| {
            a.1.e_value
                .partial_cmp(&b.1.e_value)
                .unwrap()
                .then(a.1.subject.cmp(&b.1.subject))
        });
        Ok(hits)
    }
}

/// All packed words scoring `>= t` against `qword` under BLOSUM62.
/// Enumerates the 20^w word space with branch-and-bound on the per-position
/// maximum achievable score.
fn neighborhood(qword: &[u8], t: i32) -> Vec<u32> {
    let w = qword.len();
    // Per-position score rows for the query word.
    let mut rows: Vec<[i32; 20]> = Vec::with_capacity(w);
    for &b in qword {
        let mut row = [-4; 20];
        if let Some(qi) = aa_index(b) {
            row.copy_from_slice(&matrix::BLOSUM62[qi]);
        }
        rows.push(row);
    }
    // Suffix maxima for pruning.
    let mut suffix_max = vec![0i32; w + 1];
    for i in (0..w).rev() {
        suffix_max[i] = suffix_max[i + 1] + rows[i].iter().copied().max().unwrap();
    }
    let mut out = Vec::new();
    let mut stack: Vec<(usize, i32, u32)> = vec![(0, 0, 0)];
    while let Some((pos, score, packed)) = stack.pop() {
        if pos == w {
            if score >= t {
                out.push(packed);
            }
            continue;
        }
        for (aa, &row_score) in rows[pos].iter().enumerate() {
            let s = score + row_score;
            if s + suffix_max[pos + 1] >= t {
                stack.push((pos + 1, s, packed * 20 + aa as u32));
            }
        }
    }
    out
}

/// Ungapped X-drop extension around a seed; returns the best segment score.
fn ungapped_extend(
    query: &[u8],
    subject: &[u8],
    qpos: usize,
    spos: usize,
    params: &BlastParams,
) -> i32 {
    let w = params.w;
    // Seed score.
    let mut score: i32 = (0..w)
        .map(|i| matrix::score(query[qpos + i], subject[spos + i]))
        .sum();
    let mut best = score;
    // Extend right.
    {
        let mut q = qpos + w;
        let mut s = spos + w;
        let mut run = score;
        while q < query.len() && s < subject.len() {
            run += matrix::score(query[q], subject[s]);
            if run > best {
                best = run;
            }
            if run < best - params.x_drop {
                break;
            }
            q += 1;
            s += 1;
        }
        score = best;
    }
    // Extend left.
    {
        let mut run = score;
        let mut q = qpos as i64 - 1;
        let mut s = spos as i64 - 1;
        while q >= 0 && s >= 0 {
            run += matrix::score(query[q as usize], subject[s as usize]);
            if run > best {
                best = run;
            }
            if run < best - params.x_drop {
                break;
            }
            q -= 1;
            s -= 1;
        }
    }
    best
}

/// Banded Smith–Waterman with affine gaps, centered on the seed diagonal.
/// Returns the best local score within the band.
fn banded_gapped_score(query: &[u8], subject: &[u8], qpos: usize, spos: usize, band: usize) -> i32 {
    let n = query.len();
    let m = subject.len();
    let center = spos as i64 - qpos as i64; // subject = query + center
    let band = band as i64;
    const NEG: i32 = i32::MIN / 4;

    // DP over (i = query index 1..=n), j constrained to the band.
    // h = best ending in match/mismatch, e = gap in query, f = gap in subject.
    let width = (2 * band + 1) as usize;
    let mut h_prev = vec![0i32; width];
    let mut e_prev = vec![NEG; width];
    let mut best = 0i32;

    // j = i + center + (k - band) for k in 0..width.
    for i in 1..=n {
        let mut h_cur = vec![0i32; width];
        let mut e_cur = vec![NEG; width];
        let mut f: i32 = NEG; // horizontal gap within this row
        for k in 0..width {
            let j = i as i64 + center + (k as i64 - band);
            if j < 1 || j > m as i64 {
                h_cur[k] = 0;
                e_cur[k] = NEG;
                continue;
            }
            let j = j as usize;
            // Diagonal predecessor lives at the same k in the previous row.
            let diag = h_prev[k];
            let sub = matrix::score(query[i - 1], subject[j - 1]);
            // Vertical (gap in subject): previous row, k+1.
            let up_h = if k + 1 < width { h_prev[k + 1] } else { NEG };
            let up_e = if k + 1 < width { e_prev[k + 1] } else { NEG };
            let e = (up_h - GAP_OPEN - GAP_EXTEND).max(up_e - GAP_EXTEND);
            // Horizontal (gap in query): same row, k-1 (tracked via f).
            let left_h = if k > 0 { h_cur[k - 1] } else { NEG };
            f = (left_h - GAP_OPEN - GAP_EXTEND).max(f - GAP_EXTEND);
            let h = 0.max(diag + sub).max(e).max(f);
            h_cur[k] = h;
            e_cur[k] = e;
            if h > best {
                best = h;
            }
        }
        h_prev = h_cur;
        e_prev = e_cur;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::{protein_database, queries_from_db, random_protein, ProteinDbParams};
    use ppc_core::rng::Pcg32;

    fn small_db(seed: u64) -> BlastDb {
        let recs = protein_database(
            &ProteinDbParams {
                n_families: 10,
                members_per_family: 3,
                len_min: 150,
                len_max: 300,
                divergence: 0.15,
            },
            seed,
        );
        BlastDb::build(recs, 3)
    }

    #[test]
    fn exact_fragment_finds_its_source_first() {
        let db = small_db(1);
        let src = db.sequence(5).clone();
        let query = &src.seq[20..120];
        let hits = db.search(query, &BlastParams::default());
        assert!(!hits.is_empty());
        assert_eq!(hits[0].subject_id, src.id, "top hit is the source");
        assert!(hits[0].e_value < 1e-20);
    }

    #[test]
    fn mutated_query_still_finds_family() {
        let db = small_db(2);
        let queries = queries_from_db(
            &(0..db.len())
                .map(|i| db.sequence(i).clone())
                .collect::<Vec<_>>(),
            10,
            0.10,
            3,
        );
        let results = db.search_many(&queries, &BlastParams::default());
        for (q, hits) in queries.iter().zip(&results) {
            let src = q.desc.as_deref().unwrap().strip_prefix("from ").unwrap();
            let src_family = &src[..7]; // "famXXXX"
            assert!(
                hits.iter()
                    .take(3)
                    .any(|h| h.subject_id.starts_with(src_family)),
                "query {} lost its family {src_family}: {:?}",
                q.id,
                hits.iter()
                    .take(3)
                    .map(|h| &h.subject_id)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn random_query_has_no_strong_hits() {
        let db = small_db(4);
        let mut rng = Pcg32::new(99);
        let junk = random_protein(120, &mut rng);
        let hits = db.search(&junk, &BlastParams::default());
        assert!(
            hits.iter().all(|h| h.e_value > 1e-8),
            "random sequence should have no overwhelming hit: {:?}",
            hits.first()
        );
    }

    #[test]
    fn short_query_returns_empty() {
        let db = small_db(5);
        assert!(db.search(b"AV", &BlastParams::default()).is_empty());
    }

    #[test]
    fn hits_sorted_by_evalue() {
        let db = small_db(6);
        let src = db.sequence(0).clone();
        let hits = db.search(&src.seq, &BlastParams::default());
        for pair in hits.windows(2) {
            assert!(pair[0].e_value <= pair[1].e_value);
        }
        // Family members should also appear (3 members per family).
        let fam = &src.id[..7];
        let fam_hits = hits
            .iter()
            .filter(|h| h.subject_id.starts_with(fam))
            .count();
        assert!(fam_hits >= 2, "family hits {fam_hits}");
    }

    #[test]
    fn neighborhood_includes_self_and_respects_threshold() {
        let words = neighborhood(b"WWW", 11);
        let self_packed = pack_word(b"WWW").unwrap();
        assert!(words.contains(&self_packed));
        // W scores 11 with itself; any word in the neighborhood of WWW at
        // t=33 must be WWW itself (11+11+11 = 33).
        let tight = neighborhood(b"WWW", 33);
        assert_eq!(tight, vec![self_packed]);
    }

    #[test]
    fn neighborhood_matches_brute_force_enumeration() {
        use crate::matrix::AMINO_ACIDS;
        // Exhaustive check for w=2 (400 words) across several thresholds.
        for t in [6, 8, 10, 12] {
            for qword in [b"WC".as_slice(), b"AV", b"KR"] {
                let mut got = neighborhood(qword, t);
                got.sort_unstable();
                let mut expect = Vec::new();
                for &a in &AMINO_ACIDS {
                    for &b in &AMINO_ACIDS {
                        let s = matrix::score(qword[0], a) + matrix::score(qword[1], b);
                        if s >= t {
                            expect.push(pack_word(&[a, b]).unwrap());
                        }
                    }
                }
                expect.sort_unstable();
                assert_eq!(
                    got,
                    expect,
                    "qword {:?} t {t}",
                    std::str::from_utf8(qword).unwrap()
                );
            }
        }
    }

    #[test]
    fn neighborhood_grows_as_threshold_drops() {
        let strict = neighborhood(b"ACD", 14).len();
        let loose = neighborhood(b"ACD", 10).len();
        assert!(loose > strict, "loose {loose} vs strict {strict}");
    }

    #[test]
    fn ungapped_extension_finds_perfect_match_score() {
        let q = b"MKVLAATGLRWQYHNDE";
        let params = BlastParams::default();
        let score = ungapped_extend(q, q, 5, 5, &params);
        let expect: i32 = q.iter().map(|&b| matrix::score(b, b)).sum();
        assert_eq!(score, expect);
    }

    #[test]
    fn banded_gapped_handles_an_indel() {
        // Subject = query with a 2-residue deletion in the middle; gapped
        // score must exceed the best ungapped diagonal segment.
        let q = b"MKVLAATGLRWQYHNDEFFKPSTWYVHHAA".to_vec();
        let mut s = q.clone();
        s.drain(14..16);
        let params = BlastParams::default();
        let ungapped = ungapped_extend(&q, &s, 2, 2, &params);
        let gapped = banded_gapped_score(&q, &s, 2, 2, params.band);
        assert!(gapped > ungapped, "gapped {gapped} vs ungapped {ungapped}");
    }

    #[test]
    fn blastx_finds_protein_from_nucleotide_query() {
        let db = small_db(41);
        let src = db.sequence(3).clone();
        // Encode a fragment of the protein as DNA (forward strand).
        let fragment = &src.seq[10..90];
        let dna = crate::codon::arbitrary_coding_dna(fragment);
        let hits = db.search_translated(&dna, &BlastParams::default());
        assert!(!hits.is_empty());
        assert_eq!(
            hits[0].1.subject_id, src.id,
            "top blastx hit is the source protein"
        );
        assert_eq!(hits[0].0, 1, "found on forward frame +1");

        // And on the reverse strand after reverse-complementing the DNA.
        let rc = crate::fasta::reverse_complement(&dna);
        let hits_rc = db.search_translated(&rc, &BlastParams::default());
        assert_eq!(hits_rc[0].1.subject_id, src.id);
        assert!(
            hits_rc[0].0 < 0,
            "found on a reverse frame, got {}",
            hits_rc[0].0
        );
    }

    #[test]
    fn blastx_respects_stop_codons() {
        // DNA whose frame +1 is two short ORFs separated by a stop: both
        // halves must still be searchable independently.
        let db = small_db(42);
        let src = db.sequence(0).clone();
        let mut protein = src.seq[5..45].to_vec();
        protein.push(b'*');
        protein.extend_from_slice(&src.seq[60..100]);
        let dna = crate::codon::arbitrary_coding_dna(&protein);
        let hits = db.search_translated(&dna, &BlastParams::default());
        assert!(
            hits.iter().any(|(_, h)| h.subject_id == src.id),
            "ORF segments searched around the stop"
        );
    }

    #[test]
    fn banded_matches_exact_smith_waterman_with_wide_band() {
        // With the band as wide as the sequences, the banded kernel must
        // reproduce the exact local alignment score for near-diagonal pairs.
        let mut rng = Pcg32::new(77);
        for round in 0..10 {
            let a = random_protein(40, &mut rng);
            let mut b = a.clone();
            // Small edits: substitutions and one short indel.
            b[5] = b'W';
            b[17] = b'K';
            if round % 2 == 0 {
                b.drain(22..24);
            } else {
                b.insert(22, b'G');
            }
            let exact = crate::align::local(&a, &b).score;
            let banded = banded_gapped_score(&a, &b, 0, 0, a.len().max(b.len()));
            assert_eq!(banded, exact, "round {round}");
        }
    }

    #[test]
    fn narrow_band_never_beats_exact() {
        let mut rng = Pcg32::new(78);
        for _ in 0..10 {
            let a = random_protein(50, &mut rng);
            let b = random_protein(50, &mut rng);
            let exact = crate::align::local(&a, &b).score;
            let banded = banded_gapped_score(&a, &b, 0, 0, 8);
            assert!(banded <= exact, "banded {banded} > exact {exact}");
        }
    }

    #[test]
    fn resident_bytes_scale_with_db() {
        let small = small_db(7);
        let big = BlastDb::build(
            protein_database(
                &ProteinDbParams {
                    n_families: 40,
                    members_per_family: 3,
                    len_min: 150,
                    len_max: 300,
                    divergence: 0.15,
                },
                7,
            ),
            3,
        );
        assert!(big.resident_bytes() > 2 * small.resident_bytes());
        assert!(big.total_residues() > small.total_residues());
    }

    #[test]
    fn word_size_mismatch_panics() {
        let db = small_db(8);
        let bad = BlastParams {
            w: 4,
            ..BlastParams::default()
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            db.search(b"MKVLAATGLRWQYHNDE", &bad)
        }));
        assert!(result.is_err());
    }
}

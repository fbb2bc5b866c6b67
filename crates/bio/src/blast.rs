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
//!
//! # Layout
//!
//! Every residue is scored through its code ([`matrix::CODES`]): the
//! database keeps each sequence's codes, and each query (or blastx ORF
//! segment) is encoded once per search. The word index is dense: the
//! words packed base 20 number `0..20^w`, and `starts` (length `20^w + 1`)
//! delimits each word's run of one flat postings list, in (sequence,
//! position) order. Words holding a non-standard residue are not indexed.
//!
//! Seeding enumerates each query word's neighborhood into reused buffers
//! and collects `(subject, diagonal, query pos)` seeds. Only the first
//! seed of each diagonal — the one at the lowest query position — is
//! extended, so the seeds are sorted and deduplicated per diagonal; each
//! subject's best score folds over its sorted run. The banded DP reuses
//! its rows and skips the rows whose band misses the subject: such a row
//! leaves every cell at (h = 0, e = −∞), the state the DP starts in, so
//! skipping it changes no score.

use crate::fasta::FastaRecord;
use crate::matrix::{self, e_value, CODES, CODE_SCORES, GAP_EXTEND, GAP_OPEN, UNKNOWN};
use ppc_core::{Cancel, Result};

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
    /// Residue codes of each sequence.
    codes: Vec<Vec<u8>>,
    /// The postings of packed word `x` are `postings[starts[x]..starts[x + 1]]`.
    starts: Vec<u32>,
    /// Every indexed (seq, pos), grouped by word, in (seq, pos) order.
    postings: Vec<(u32, u32)>,
    total_residues: usize,
    w: usize,
}

/// Residue codes of `seq`.
fn encode(seq: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.extend(seq.iter().map(|&b| CODES[b as usize]));
}

/// The packed index of every standard-residue word of `codes`, with its
/// position.
fn packed_words(codes: &[u8], w: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    codes.windows(w).enumerate().filter_map(|(pos, word)| {
        word.iter()
            .try_fold(0usize, |v, &c| (c != UNKNOWN).then(|| v * 20 + c as usize))
            .map(|packed| (pos, packed))
    })
}

impl BlastDb {
    /// Build the word index over the database.
    pub fn build(seqs: Vec<FastaRecord>, w: usize) -> BlastDb {
        assert!((2..=4).contains(&w), "word size 2..=4 supported");
        let codes: Vec<Vec<u8>> = seqs
            .iter()
            .map(|rec| {
                let mut c = Vec::new();
                encode(&rec.seq, &mut c);
                c
            })
            .collect();
        // Counting sort by word: count, prefix-sum, then place in order.
        let mut starts = vec![0u32; 20usize.pow(w as u32) + 1];
        for c in &codes {
            for (_, packed) in packed_words(c, w) {
                starts[packed + 1] += 1;
            }
        }
        for x in 1..starts.len() {
            starts[x] += starts[x - 1];
        }
        let mut next = starts.clone();
        let mut postings = vec![(0, 0); *starts.last().unwrap() as usize];
        for (si, c) in codes.iter().enumerate() {
            for (pos, packed) in packed_words(c, w) {
                postings[next[packed] as usize] = (si as u32, pos as u32);
                next[packed] += 1;
            }
        }
        BlastDb {
            total_residues: seqs.iter().map(|rec| rec.seq.len()).sum(),
            seqs,
            codes,
            starts,
            postings,
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

    /// Approximate resident bytes — the number the memory-pressure model
    /// cares about: each record (residues, id and 48 bytes of overhead),
    /// its residue codes (1 byte each), the `starts` table (4 bytes per
    /// entry, `20^w + 1` entries whatever the database size) and 8 bytes
    /// per posting.
    pub fn resident_bytes(&self) -> u64 {
        let seq_bytes: usize = self
            .seqs
            .iter()
            .map(|s| s.seq.len() + s.id.len() + 48)
            .sum();
        let code_bytes: usize = self.codes.iter().map(Vec::len).sum();
        (seq_bytes + code_bytes + self.starts.len() * 4 + self.postings.len() * 8) as u64
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
        let mut scratch = Scratch::default();
        encode(query, &mut scratch.query);
        self.search_codes(params, cancel, &mut scratch)
    }

    /// Search the query encoded in `scratch.query`.
    fn search_codes(
        &self,
        params: &BlastParams,
        cancel: &Cancel,
        scratch: &mut Scratch,
    ) -> Result<Vec<Hit>> {
        assert_eq!(params.w, self.w, "params.w must match the index word size");
        cancel.check()?;
        let Scratch {
            query,
            words,
            seeds,
            rows,
        } = scratch;
        let query = &query[..];
        if query.len() < params.w {
            return Ok(Vec::new());
        }
        // 1+2: every db word in each query word's neighborhood seeds its
        // diagonal.
        seeds.clear();
        for (qpos, qword) in query.windows(params.w).enumerate() {
            cancel.check()?;
            neighborhood(qword, params.t, words);
            for &packed in words.iter() {
                let run = self.starts[packed as usize] as usize
                    ..self.starts[packed as usize + 1] as usize;
                for &(si, spos) in &self.postings[run] {
                    seeds.push((si, spos as i32 - qpos as i32, qpos as u32));
                }
            }
        }
        // Keep the first seed (lowest query position) of each diagonal.
        seeds.sort_unstable();
        seeds.dedup_by_key(|&mut (si, diag, _)| (si, diag));

        // 3+4: extend each diagonal's seed; each subject keeps its best.
        let mut hits = Vec::new();
        for run in seeds.chunk_by(|a, b| a.0 == b.0) {
            let si = run[0].0 as usize;
            let subject = &self.codes[si];
            let mut best = i32::MIN;
            for &(_, diag, qpos) in run {
                cancel.check()?;
                let (qpos, spos) = (qpos as usize, (qpos as i32 + diag) as usize);
                let ungapped = ungapped_extend(query, subject, qpos, spos, params);
                // A weak hit still counts its ungapped score.
                let score = if ungapped < params.gap_trigger {
                    ungapped
                } else {
                    banded_gapped_score(query, subject, qpos, spos, params.band, rows).max(ungapped)
                };
                best = best.max(score);
            }
            // 5: statistics + cutoff.
            if best <= 0 {
                continue;
            }
            let e = e_value(best, query.len(), self.total_residues);
            if e > params.e_cutoff {
                continue;
            }
            hits.push(Hit {
                subject: si,
                subject_id: self.seqs[si].id.clone(),
                score: best,
                bit_score: matrix::bit_score(best),
                e_value: e,
            });
        }
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
        let mut best: Vec<Option<(i8, Hit)>> = vec![None; self.seqs.len()];
        let mut scratch = Scratch::default();
        for frame in crate::codon::six_frames(dna) {
            // Stops split the translation into ORF segments; search each
            // segment long enough to seed.
            for segment in frame.protein.split(|&aa| aa == b'*') {
                if segment.len() < params.w {
                    continue;
                }
                encode(segment, &mut scratch.query);
                for hit in self.search_codes(params, cancel, &mut scratch)? {
                    let slot = &mut best[hit.subject];
                    if !matches!(slot, Some((_, prior)) if prior.score >= hit.score) {
                        *slot = Some((frame.frame, hit));
                    }
                }
            }
        }
        let mut hits: Vec<(i8, Hit)> = best.into_iter().flatten().collect();
        hits.sort_by(|a, b| {
            a.1.e_value
                .partial_cmp(&b.1.e_value)
                .unwrap()
                .then(a.1.subject.cmp(&b.1.subject))
        });
        Ok(hits)
    }
}

/// The buffers one search reuses across query words, diagonals and DP
/// rows; a blastx search shares one across all its ORF segments.
#[derive(Default)]
struct Scratch {
    /// Residue codes of the query being searched.
    query: Vec<u8>,
    /// One query word's neighborhood.
    words: Vec<u32>,
    /// `(subject, diagonal, query pos)` seeds; the diagonal is subject pos
    /// − query pos.
    seeds: Vec<(u32, i32, u32)>,
    rows: DpRows,
}

/// Residues by descending score against each residue code (ties in code
/// order), so the neighborhood walk stops at the first residue that
/// cannot reach `t`.
const BY_SCORE: [[u8; 20]; 21] = {
    let mut table = [[0u8; 20]; 21];
    let mut c = 0;
    while c < 21 {
        let row = &CODE_SCORES[c];
        let mut order = [0u8; 20];
        let mut n = 0;
        // Insertion sort, stable.
        while n < 20 {
            let mut k = n;
            while k > 0 && row[order[k - 1] as usize] < row[n] {
                order[k] = order[k - 1];
                k -= 1;
            }
            order[k] = n as u8;
            n += 1;
        }
        table[c] = order;
        c += 1;
    }
    table
};

/// All packed words scoring `>= t` against the query word `qword`
/// (residue codes) under BLOSUM62, into `out` in no particular order.
/// Enumerates the 20^w word space depth-first, pruned by the best score
/// the remaining positions can still add.
fn neighborhood(qword: &[u8], t: i32, out: &mut Vec<u32>) {
    out.clear();
    let mut suffix_max = [0i32; 5]; // w <= 4, as `BlastDb::build` asserts
    for i in (0..qword.len()).rev() {
        let c = qword[i] as usize;
        suffix_max[i] = suffix_max[i + 1] + CODE_SCORES[c][BY_SCORE[c][0] as usize];
    }
    extend_word(qword, &suffix_max, t, (0, 0, 0), out);
}

/// Push every word extending a prefix — `(length, score, packed)` — that
/// scores at least `t`.
fn extend_word(
    qword: &[u8],
    suffix_max: &[i32; 5],
    t: i32,
    (pos, score, packed): (usize, i32, u32),
    out: &mut Vec<u32>,
) {
    let c = qword[pos] as usize;
    let last = pos + 1 == qword.len();
    for &aa in &BY_SCORE[c] {
        let s = score + CODE_SCORES[c][aa as usize];
        if s + suffix_max[pos + 1] < t {
            break;
        }
        let packed = packed * 20 + aa as u32;
        if last {
            out.push(packed);
        } else {
            extend_word(qword, suffix_max, t, (pos + 1, s, packed), out);
        }
    }
}

/// Ungapped X-drop extension around a seed (residue codes); returns the
/// best segment score.
fn ungapped_extend(
    query: &[u8],
    subject: &[u8],
    qpos: usize,
    spos: usize,
    params: &BlastParams,
) -> i32 {
    let w = params.w;
    let pair = |q: usize, s: usize| CODE_SCORES[query[q] as usize][subject[s] as usize];
    // Seed score.
    let mut best: i32 = (0..w).map(|i| pair(qpos + i, spos + i)).sum();
    // Extend right.
    let mut run = best;
    for (q, s) in (qpos + w..query.len()).zip(spos + w..subject.len()) {
        run += pair(q, s);
        best = best.max(run);
        if run < best - params.x_drop {
            break;
        }
    }
    // Extend left, from the best right extension.
    let mut run = best;
    for (q, s) in (0..qpos).rev().zip((0..spos).rev()) {
        run += pair(q, s);
        best = best.max(run);
        if run < best - params.x_drop {
            break;
        }
    }
    best
}

/// Out-of-band / unreachable DP value.
const NEG: i32 = i32::MIN / 4;

/// The banded DP's previous and current rows of `h` and `e`, reused
/// across extensions. Each row has one cell past the band, always −∞: the
/// vertical predecessor of the band's last cell.
#[derive(Default)]
struct DpRows {
    h_prev: Vec<i32>,
    e_prev: Vec<i32>,
    h_cur: Vec<i32>,
    e_cur: Vec<i32>,
}

impl DpRows {
    /// Every row at the DP's initial state, `width` cells plus the sentinel.
    fn reset(&mut self, width: usize) {
        for (row, init) in [
            (&mut self.h_prev, 0),
            (&mut self.h_cur, 0),
            (&mut self.e_prev, NEG),
            (&mut self.e_cur, NEG),
        ] {
            row.clear();
            row.resize(width, init);
            row.push(NEG);
        }
    }
}

/// Banded Smith–Waterman with affine gaps over residue codes, centered on
/// the seed diagonal. Returns the best local score within the band.
fn banded_gapped_score(
    query: &[u8],
    subject: &[u8],
    qpos: usize,
    spos: usize,
    band: usize,
    rows: &mut DpRows,
) -> i32 {
    let n = query.len() as i64;
    let m = subject.len() as i64;
    let center = spos as i64 - qpos as i64; // subject = query + center
    let band = band as i64;
    let width = (2 * band + 1) as usize;
    rows.reset(width);
    let mut best = 0i32;

    // DP over (i = query index 1..=n), j constrained to the band:
    // j = i + center + (k - band) for k in 0..width. h = best ending in
    // match/mismatch, e = vertical gap, f = horizontal gap. A cell with j
    // outside 1..=m holds (h = 0, e = −∞), as every cell does at the
    // start, so only the rows whose band meets the subject run, and each
    // runs only its in-range cells [k_lo, k_hi]. The ranges slide down
    // with i: cells below k_lo were never written, and the cells above k_hi
    // hold stale values that the next row never reads.
    let first = (1 - center - band).max(1);
    let last = (m - center + band).min(n);
    for i in first..=last {
        let lo_j = i + center - band; // j at k = 0
        let k_lo = (1 - lo_j).max(0) as usize;
        let k_hi = (m - lo_j).min(2 * band) as usize;
        let DpRows {
            h_prev,
            e_prev,
            h_cur,
            e_cur,
        } = rows;
        let len = k_hi + 1 - k_lo;
        let s_lo = (lo_j + k_lo as i64 - 1) as usize;
        let scores = &CODE_SCORES[query[i as usize - 1] as usize];
        // Diagonal predecessors at the same k in the previous row,
        // vertical ones (gap in subject) at k + 1.
        let diag = &h_prev[k_lo..k_lo + len];
        let up_h = &h_prev[k_lo + 1..=k_lo + len];
        let up_e = &e_prev[k_lo + 1..=k_lo + len];
        let h = &mut h_cur[k_lo..k_lo + len];
        let e = &mut e_cur[k_lo..k_lo + len];
        // Substitution scores first, so the pass below has no lookups and
        // no branches.
        for (h, &c) in h.iter_mut().zip(&subject[s_lo..s_lo + len]) {
            *h = scores[c as usize];
        }
        for x in 0..len {
            e[x] = (up_h[x] - GAP_OPEN - GAP_EXTEND).max(up_e[x] - GAP_EXTEND);
            h[x] = (diag[x] + h[x]).max(e[x]).max(0);
        }
        // Horizontal gaps (gap in query) run along the row. `f` may read
        // the left cell's h before f is folded into it: where f wins that
        // cell, extending f beats reopening from it anyway. Whatever lies
        // left of the first cell (an out-of-range cell, h = 0, or the
        // band's edge) opens no gap that wins a cell, as every h is >= 0.
        let mut f = NEG;
        let mut left = NEG;
        for h in h.iter_mut() {
            f = (left - GAP_OPEN - GAP_EXTEND).max(f - GAP_EXTEND);
            left = *h;
            *h = (*h).max(f);
            best = best.max(*h);
        }
        std::mem::swap(h_prev, h_cur);
        std::mem::swap(e_prev, e_cur);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::{protein_database, queries_from_db, random_protein, ProteinDbParams};
    use ppc_core::rng::Pcg32;
    use reference::{reference_search, reference_search_translated, RefDb};

    fn codes(seq: &[u8]) -> Vec<u8> {
        let mut c = Vec::new();
        encode(seq, &mut c);
        c
    }

    /// `qword`'s neighborhood at `t`, sorted.
    fn words(qword: &[u8], t: i32) -> Vec<u32> {
        let mut out = Vec::new();
        neighborhood(&codes(qword), t, &mut out);
        out.sort_unstable();
        out
    }

    fn ungapped(query: &[u8], subject: &[u8], qpos: usize, spos: usize) -> i32 {
        ungapped_extend(
            &codes(query),
            &codes(subject),
            qpos,
            spos,
            &BlastParams::default(),
        )
    }

    fn banded(query: &[u8], subject: &[u8], qpos: usize, spos: usize, band: usize) -> i32 {
        let mut rows = DpRows::default();
        banded_gapped_score(&codes(query), &codes(subject), qpos, spos, band, &mut rows)
    }

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
        let loose = words(b"WWW", 11);
        let self_packed = reference::pack_word(b"WWW").unwrap();
        assert!(loose.contains(&self_packed));
        // W scores 11 with itself; any word in the neighborhood of WWW at
        // t=33 must be WWW itself (11+11+11 = 33).
        let tight = words(b"WWW", 33);
        assert_eq!(tight, vec![self_packed]);
    }

    #[test]
    fn neighborhood_matches_brute_force_enumeration() {
        use crate::matrix::AMINO_ACIDS;
        // Exhaustive check for w=2 (400 words) across several thresholds.
        for t in [6, 8, 10, 12] {
            for qword in [b"WC".as_slice(), b"AV", b"KR"] {
                let got = words(qword, t);
                let mut expect = Vec::new();
                for &a in &AMINO_ACIDS {
                    for &b in &AMINO_ACIDS {
                        let s = matrix::score(qword[0], a) + matrix::score(qword[1], b);
                        if s >= t {
                            expect.push(reference::pack_word(&[a, b]).unwrap());
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
        let strict = words(b"ACD", 14).len();
        let loose = words(b"ACD", 10).len();
        assert!(loose > strict, "loose {loose} vs strict {strict}");
    }

    #[test]
    fn ungapped_extension_finds_perfect_match_score() {
        let q = b"MKVLAATGLRWQYHNDE";
        let score = ungapped(q, q, 5, 5);
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
        let ungapped = ungapped(&q, &s, 2, 2);
        let gapped = banded(&q, &s, 2, 2, BlastParams::default().band);
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
            let banded = banded(&a, &b, 0, 0, a.len().max(b.len()));
            assert_eq!(banded, exact, "round {round}");
        }
    }

    #[test]
    fn banded_reaches_both_edges_of_the_band() {
        // An alignment on the band's outermost diagonal, ending in the
        // band's first or last row, scores as the exact alignment does.
        let mut rng = Pcg32::new(79);
        for band in [1, 4, 8] {
            let a = random_protein(30, &mut rng);
            let mut shifted = random_protein(band, &mut rng);
            shifted.extend_from_slice(&a);
            for (q, s) in [(&shifted, &a), (&a, &shifted)] {
                let exact = crate::align::local(q, s).score;
                assert_eq!(banded(q, s, 0, 0, band), exact, "band {band}");
            }
        }
    }

    #[test]
    fn narrow_band_never_beats_exact() {
        let mut rng = Pcg32::new(78);
        for _ in 0..10 {
            let a = random_protein(50, &mut rng);
            let b = random_protein(50, &mut rng);
            let exact = crate::align::local(&a, &b).score;
            let banded = banded(&a, &b, 0, 0, 8);
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
    fn resident_bytes_count_the_dense_word_table() {
        // A w = 4 index holds 20^4 + 1 four-byte starts whatever the
        // database size: 640 004 bytes for a single sequence.
        let db = BlastDb::build(
            vec![FastaRecord {
                id: "only".into(),
                desc: None,
                seq: b"MKVLAATGLRWQYHNDE".to_vec(),
            }],
            4,
        );
        assert!(db.resident_bytes() >= 640_004, "{}", db.resident_bytes());
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

    /// Random residues: mostly standard upper-case, with lower-case,
    /// non-standard (`X`, `B`, `Z`) and stop residues mixed in.
    fn messy_protein(len: usize, rng: &mut Pcg32) -> Vec<u8> {
        random_protein(len, rng)
            .into_iter()
            .map(|aa| match rng.next_below(20) {
                0 => aa.to_ascii_lowercase(),
                1 => *rng.choose(b"XBZ*").unwrap(),
                _ => aa,
            })
            .collect()
    }

    /// `seq` with about `rate` of its residues substituted, and case and
    /// non-standard noise.
    fn mutate(seq: &[u8], rate: f64, rng: &mut Pcg32) -> Vec<u8> {
        seq.iter()
            .map(|&aa| {
                if rng.chance(rate) {
                    messy_protein(1, rng)[0]
                } else {
                    aa
                }
            })
            .collect()
    }

    /// Everything [`Hit`] carries, floats by their bits.
    fn hit_bits(h: &Hit) -> (usize, String, i32, u64, u64) {
        (
            h.subject,
            h.subject_id.clone(),
            h.score,
            h.bit_score.to_bits(),
            h.e_value.to_bits(),
        )
    }

    #[test]
    fn kernel_matches_reference_model_exactly() {
        let mut compared = 0;
        for seed in 0..240u64 {
            let mut rng = Pcg32::new(seed);
            let w = [2, 3, 4][seed as usize % 3];
            let t = match w {
                2 => 5 + rng.next_below(8) as i32,
                3 => 9 + rng.next_below(8) as i32,
                _ => 13 + rng.next_below(8) as i32,
            };
            let params = BlastParams {
                w,
                t,
                x_drop: *rng.choose(&[4, 10, 16, 30]).unwrap(),
                gap_trigger: *rng.choose(&[8, 16, 22, 35]).unwrap(),
                band: *rng.choose(&[0, 1, 3, 8, 16, 30]).unwrap(),
                e_cutoff: *rng.choose(&[1e-3, 1.0, 1e6]).unwrap(),
            };
            // A few families of mutated copies, so seeds extend into real
            // alignments, plus unrelated and very short sequences.
            let mut recs = Vec::new();
            for f in 0..1 + rng.next_below(4) {
                let len = 1 + rng.next_below(90) as usize;
                let ancestor = messy_protein(len, &mut rng);
                for m in 0..1 + rng.next_below(3) {
                    let seq = mutate(&ancestor, 0.15, &mut rng);
                    recs.push(FastaRecord::new(format!("f{f}m{m}"), seq));
                }
            }
            let fast = BlastDb::build(recs.clone(), w);
            let slow = RefDb::build(recs.clone(), w);

            let source = &recs[rng.next_below(recs.len() as u32) as usize].seq;
            let from = rng.next_below(source.len() as u32) as usize;
            let to = from + rng.next_below((source.len() - from) as u32 + 1) as usize;
            let queries = [
                mutate(&source[from..to], 0.1, &mut rng),
                messy_protein(rng.next_below(w as u32) as usize, &mut rng),
                messy_protein(rng.next_below(90) as usize, &mut rng),
            ];
            for query in &queries {
                let got: Vec<_> = fast.search(query, &params).iter().map(hit_bits).collect();
                let want: Vec<_> = reference_search(&slow, query, &params)
                    .iter()
                    .map(hit_bits)
                    .collect();
                assert_eq!(
                    got,
                    want,
                    "seed {seed} query {:?}",
                    String::from_utf8_lossy(query)
                );
                compared += got.len();
            }

            // blastx: coding DNA of a standard fragment, with base noise
            // (N, lower case) and frame shifts, and random DNA.
            let fragment: Vec<u8> = source[from..to]
                .iter()
                .map(|&aa| match matrix::aa_index(aa) {
                    Some(i) => matrix::AMINO_ACIDS[i],
                    None => b'G',
                })
                .collect();
            let mut dna = crate::codon::arbitrary_coding_dna(&fragment);
            for _ in 0..rng.next_below(4) {
                let at = rng.next_below(dna.len() as u32 + 1) as usize;
                match rng.next_below(3) {
                    0 => dna.insert(at, b'N'),
                    1 if at < dna.len() => dna[at] = dna[at].to_ascii_lowercase(),
                    _ => dna.insert(at, *rng.choose(b"ACGT").unwrap()),
                }
            }
            let junk = crate::simulate::random_genome(rng.next_below(240) as usize, seed);
            for dna in [&dna, &junk] {
                let key = |hits: Vec<(i8, Hit)>| {
                    hits.iter()
                        .map(|(frame, h)| (*frame, hit_bits(h)))
                        .collect::<Vec<_>>()
                };
                let got = key(fast.search_translated(dna, &params));
                let want = key(reference_search_translated(&slow, dna, &params));
                assert_eq!(got, want, "seed {seed} blastx");
                compared += got.len();
            }
        }
        assert!(
            compared > 500,
            "the cases must produce hits to compare: {compared}"
        );
    }

    /// The kernel as first written — a `HashMap` word index, a neighborhood
    /// allocated per query word, a `Vec` of seeds per diagonal and two
    /// fresh DP rows per query residue — kept as the model the kernel
    /// above must match hit for hit, bit for bit.
    mod reference {
        use crate::fasta::FastaRecord;
        use crate::matrix::{self, aa_index, e_value, GAP_EXTEND, GAP_OPEN};
        use std::collections::HashMap;

        use super::{BlastParams, Hit};

        pub struct RefDb {
            seqs: Vec<FastaRecord>,
            /// word (packed) -> (seq, pos) postings.
            index: HashMap<u32, Vec<(u32, u32)>>,
            total_residues: usize,
            w: usize,
        }

        pub fn pack_word(word: &[u8]) -> Option<u32> {
            let mut v = 0u32;
            for &b in word {
                v = v * 20 + aa_index(b)? as u32;
            }
            Some(v)
        }

        impl RefDb {
            pub fn build(seqs: Vec<FastaRecord>, w: usize) -> RefDb {
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
                RefDb {
                    seqs,
                    index,
                    total_residues: total,
                    w,
                }
            }
        }

        pub fn reference_search(db: &RefDb, query: &[u8], params: &BlastParams) -> Vec<Hit> {
            assert_eq!(params.w, db.w, "params.w must match the index word size");
            if query.len() < params.w {
                return Vec::new();
            }
            let mut diag_seeds: HashMap<(u32, i64), Vec<(u32, u32)>> = HashMap::new();
            for (qpos, qword) in query.windows(params.w).enumerate() {
                for packed in neighborhood(qword, params.t) {
                    if let Some(postings) = db.index.get(&packed) {
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

            let mut best_per_subject: HashMap<u32, i32> = HashMap::new();
            for ((si, _diag), seeds) in diag_seeds {
                let subject = &db.seqs[si as usize].seq;
                let &(qpos, spos) = seeds.first().expect("non-empty");
                let ungapped =
                    ungapped_extend(query, subject, qpos as usize, spos as usize, params);
                if ungapped < params.gap_trigger {
                    let entry = best_per_subject.entry(si).or_insert(i32::MIN);
                    *entry = (*entry).max(ungapped);
                    continue;
                }
                let gapped =
                    banded_gapped_score(query, subject, qpos as usize, spos as usize, params.band);
                let entry = best_per_subject.entry(si).or_insert(i32::MIN);
                *entry = (*entry).max(gapped.max(ungapped));
            }

            let mut hits: Vec<Hit> = best_per_subject
                .into_iter()
                .filter_map(|(si, score)| {
                    if score <= 0 {
                        return None;
                    }
                    let e = e_value(score, query.len(), db.total_residues);
                    if e > params.e_cutoff {
                        return None;
                    }
                    Some(Hit {
                        subject: si as usize,
                        subject_id: db.seqs[si as usize].id.clone(),
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
            hits
        }

        pub fn reference_search_translated(
            db: &RefDb,
            dna: &[u8],
            params: &BlastParams,
        ) -> Vec<(i8, Hit)> {
            let mut best: HashMap<usize, (i8, Hit)> = HashMap::new();
            for frame in crate::codon::six_frames(dna) {
                for segment in frame.protein.split(|&aa| aa == b'*') {
                    if segment.len() < params.w {
                        continue;
                    }
                    for hit in reference_search(db, segment, params) {
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
            hits
        }

        fn neighborhood(qword: &[u8], t: i32) -> Vec<u32> {
            let w = qword.len();
            let mut rows: Vec<[i32; 20]> = Vec::with_capacity(w);
            for &b in qword {
                let mut row = [-4; 20];
                if let Some(qi) = aa_index(b) {
                    row.copy_from_slice(&matrix::BLOSUM62[qi]);
                }
                rows.push(row);
            }
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

        fn ungapped_extend(
            query: &[u8],
            subject: &[u8],
            qpos: usize,
            spos: usize,
            params: &BlastParams,
        ) -> i32 {
            let w = params.w;
            let mut score: i32 = (0..w)
                .map(|i| matrix::score(query[qpos + i], subject[spos + i]))
                .sum();
            let mut best = score;
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

        fn banded_gapped_score(
            query: &[u8],
            subject: &[u8],
            qpos: usize,
            spos: usize,
            band: usize,
        ) -> i32 {
            let n = query.len();
            let m = subject.len();
            let center = spos as i64 - qpos as i64;
            let band = band as i64;
            const NEG: i32 = i32::MIN / 4;
            let width = (2 * band + 1) as usize;
            let mut h_prev = vec![0i32; width];
            let mut e_prev = vec![NEG; width];
            let mut best = 0i32;
            for i in 1..=n {
                let mut h_cur = vec![0i32; width];
                let mut e_cur = vec![NEG; width];
                let mut f: i32 = NEG;
                for k in 0..width {
                    let j = i as i64 + center + (k as i64 - band);
                    if j < 1 || j > m as i64 {
                        h_cur[k] = 0;
                        e_cur[k] = NEG;
                        continue;
                    }
                    let j = j as usize;
                    let diag = h_prev[k];
                    let sub = matrix::score(query[i - 1], subject[j - 1]);
                    let up_h = if k + 1 < width { h_prev[k + 1] } else { NEG };
                    let up_e = if k + 1 < width { e_prev[k + 1] } else { NEG };
                    let e = (up_h - GAP_OPEN - GAP_EXTEND).max(up_e - GAP_EXTEND);
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
    }
}

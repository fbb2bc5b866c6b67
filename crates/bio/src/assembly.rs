//! Greedy overlap-layout-consensus sequence assembly (the Cap3 analog).
//!
//! Cap3 (Huang & Madan 1999) "removes the poor regions of the DNA
//! fragments, calculates the overlaps between the fragments, identifies and
//! removes the false overlaps, joins the fragments to form contigs ... and
//! finally through multiple sequence alignment generates consensus
//! sequences" (paper §4). This module implements each of those stages:
//!
//! 1. **Trimming** — strip error-dense, `N`-rich read ends.
//! 2. **Orientation** — resolve strand (reads may come from either strand)
//!    by k-mer voting, then work on a consistent forward orientation.
//! 3. **Overlap detection** — k-mer-seeded candidate offsets between read
//!    pairs, verified by banded identity check; false overlaps are rejected
//!    by the identity threshold.
//! 4. **Greedy layout** — merge best-overlap-first with union-find,
//!    re-verifying at the contig level before each join.
//! 5. **Consensus** — per-column base voting over the layout profile
//!    (the practical equivalent of Cap3's multiple alignment step).
//!
//! Runtime depends on the input's content (coverage, repeats, errors),
//! which is exactly the property the paper relies on Cap3 having.

use crate::fasta::{reverse_complement, FastaRecord};
use ppc_core::{Cancel, Result};
use std::collections::HashMap;

/// Assembly tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct AssemblyParams {
    /// Seed k-mer length for overlap candidates.
    pub k: usize,
    /// Minimum acceptable overlap length, bases.
    pub min_overlap: usize,
    /// Minimum identity over the overlap region.
    pub min_identity: f64,
    /// Trim poor (N-rich) read ends before assembly.
    pub trim: bool,
    /// Trim window size.
    pub trim_window: usize,
    /// Maximum tolerated fraction of N/junk per window.
    pub trim_max_junk: f64,
}

impl Default for AssemblyParams {
    fn default() -> Self {
        AssemblyParams {
            k: 16,
            min_overlap: 30,
            min_identity: 0.9,
            trim: true,
            trim_window: 10,
            trim_max_junk: 0.2,
        }
    }
}

/// One assembled contig.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contig {
    /// The consensus sequence.
    pub consensus: Vec<u8>,
    /// Ids of the reads laid out in this contig.
    pub read_ids: Vec<String>,
}

impl Contig {
    pub fn n_reads(&self) -> usize {
        self.read_ids.len()
    }
}

/// Assembly summary statistics (the numbers Cap3 users look at first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssemblyStats {
    pub n_contigs: usize,
    pub n_singletons: usize,
    /// Total assembled bases across contigs.
    pub total_bp: usize,
    pub largest_bp: usize,
    pub n50: usize,
    /// Fewest contigs covering half the assembly.
    pub l50: usize,
    /// Reads placed into contigs (excludes singletons).
    pub reads_placed: usize,
}

/// The result of assembling one read set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assembly {
    /// Multi-read contigs, longest first.
    pub contigs: Vec<Contig>,
    /// Ids of reads that joined nothing.
    pub singletons: Vec<String>,
}

impl Assembly {
    /// N50 of the contig set (0 when there are no contigs).
    pub fn n50(&self) -> usize {
        let mut lens: Vec<usize> = self.contigs.iter().map(|c| c.consensus.len()).collect();
        lens.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = lens.iter().sum();
        let mut acc = 0;
        for l in lens {
            acc += l;
            if acc * 2 >= total {
                return l;
            }
        }
        0
    }

    /// Summary statistics over the assembly.
    pub fn stats(&self) -> AssemblyStats {
        let mut lens: Vec<usize> = self.contigs.iter().map(|c| c.consensus.len()).collect();
        lens.sort_unstable_by(|a, b| b.cmp(a));
        let total_bp: usize = lens.iter().sum();
        // L50: smallest number of contigs covering half the assembly.
        let mut acc = 0;
        let mut l50 = 0;
        for l in &lens {
            acc += l;
            l50 += 1;
            if acc * 2 >= total_bp {
                break;
            }
        }
        AssemblyStats {
            n_contigs: self.contigs.len(),
            n_singletons: self.singletons.len(),
            total_bp,
            largest_bp: lens.first().copied().unwrap_or(0),
            n50: self.n50(),
            l50: if total_bp == 0 { 0 } else { l50 },
            reads_placed: self.contigs.iter().map(Contig::n_reads).sum(),
        }
    }

    /// Render as FASTA: contigs then singleton markers.
    pub fn to_fasta(&self) -> Vec<FastaRecord> {
        self.contigs
            .iter()
            .enumerate()
            .map(|(i, c)| {
                FastaRecord::new(format!("contig{i:04}"), c.consensus.clone())
                    .with_desc(format!("reads={}", c.n_reads()))
            })
            .collect()
    }
}

/// Trim `N`-dense ends from a read.
fn trim_read(seq: &[u8], window: usize, max_junk: f64) -> (usize, usize) {
    let junk = |b: u8| b == b'N';
    let w = window.min(seq.len()).max(1);
    let ok = |start: usize| {
        let slice = &seq[start..(start + w).min(seq.len())];
        let junk_count = slice.iter().filter(|&&b| junk(b)).count();
        (junk_count as f64) <= max_junk * slice.len() as f64 && !junk(seq[start])
    };
    let mut lo = 0;
    while lo + w <= seq.len() && !ok(lo) {
        lo += 1;
    }
    let mut hi = seq.len();
    while hi > lo {
        let start = hi.saturating_sub(w).max(lo);
        let slice = &seq[start..hi];
        let junk_count = slice.iter().filter(|&&b| junk(b)).count();
        if (junk_count as f64) <= max_junk * slice.len() as f64 && !junk(seq[hi - 1]) {
            break;
        }
        hi -= 1;
    }
    (lo, hi.max(lo))
}

/// Count mismatches between two equal-length slices.
fn mismatches(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// A verified overlap: read `j` starts `offset ≥ 0` bases after read `i`
/// (in the oriented coordinate system), scored by matching bases.
#[derive(Debug, Clone, Copy)]
struct Overlap {
    i: usize,
    j: usize,
    offset: i64,
    score: usize,
}

/// Union-find over reads -> contig roots.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent[rb] = ra;
        ra
    }
}

fn base_index(b: u8) -> usize {
    match b {
        b'A' => 0,
        b'C' => 1,
        b'G' => 2,
        b'T' => 3,
        _ => 4,
    }
}

const BASES: [u8; 5] = [b'A', b'C', b'G', b'T', b'N'];

/// A contig under construction: a per-column base-vote profile plus member
/// reads at their layout offsets.
#[derive(Clone)]
struct ContigBuild {
    profile: Vec<[u32; 5]>,
    reads: Vec<(usize, i64)>,
}

impl ContigBuild {
    fn from_read(idx: usize, seq: &[u8]) -> ContigBuild {
        let mut profile = vec![[0u32; 5]; seq.len()];
        for (col, &b) in profile.iter_mut().zip(seq) {
            col[base_index(b)] += 1;
        }
        ContigBuild {
            profile,
            reads: vec![(idx, 0)],
        }
    }

    fn consensus(&self) -> Vec<u8> {
        self.profile
            .iter()
            .map(|col| {
                // Prefer real bases over N on ties.
                let mut best = 4;
                let mut best_count = 0;
                for (b, &c) in col.iter().enumerate() {
                    if c > best_count || (c == best_count && c > 0 && b < best) {
                        best = b;
                        best_count = c;
                    }
                }
                BASES[best]
            })
            .collect()
    }

    /// Merge `other` into self with `other`'s origin at `place` (may be
    /// negative, shifting self).
    fn merge(&mut self, mut other: ContigBuild, mut place: i64) {
        if place < 0 {
            let shift = (-place) as usize;
            let mut shifted = vec![[0u32; 5]; shift];
            shifted.append(&mut self.profile);
            self.profile = shifted;
            for (_, off) in self.reads.iter_mut() {
                *off += shift as i64;
            }
            place = 0;
        }
        let place = place as usize;
        let needed = place + other.profile.len();
        if needed > self.profile.len() {
            self.profile.resize(needed, [0u32; 5]);
        }
        for (i, col) in other.profile.iter().enumerate() {
            for (b, &c) in col.iter().enumerate() {
                self.profile[place + i][b] += c;
            }
        }
        for (idx, off) in other.reads.drain(..) {
            self.reads.push((idx, off + place as i64));
        }
    }
}

/// Assemble a set of reads into contigs.
pub fn assemble(reads: &[FastaRecord], params: &AssemblyParams) -> Assembly {
    assemble_cancellable(reads, params, &Cancel::never()).expect("never cancelled")
}

/// [`assemble`] that polls `cancel` per read while indexing, per k-mer
/// bucket and read pair in overlap detection, and per join in the layout;
/// returns `Err(Cancelled)` at the first check after the token is set.
pub fn assemble_cancellable(
    reads: &[FastaRecord],
    params: &AssemblyParams,
    cancel: &Cancel,
) -> Result<Assembly> {
    cancel.check()?;
    if reads.is_empty() {
        return Ok(Assembly {
            contigs: Vec::new(),
            singletons: Vec::new(),
        });
    }
    let k = params.k;

    // --- 1. Trim poor regions -------------------------------------------
    let trimmed: Vec<Vec<u8>> = reads
        .iter()
        .map(|r| {
            if params.trim {
                let (lo, hi) = trim_read(&r.seq, params.trim_window, params.trim_max_junk);
                r.seq[lo..hi].to_vec()
            } else {
                r.seq.clone()
            }
        })
        .collect();

    // --- 2. Orientation by k-mer voting ---------------------------------
    let oriented = orient_reads(&trimmed, k, cancel)?;

    // --- 3. Overlap detection -------------------------------------------
    let overlaps = find_overlaps(&oriented, params, cancel)?;

    // --- 4. Greedy layout -------------------------------------------------
    let mut sorted = overlaps;
    sorted.sort_by(|a, b| {
        b.score
            .cmp(&a.score)
            .then(a.i.cmp(&b.i))
            .then(a.j.cmp(&b.j))
    });

    let mut dsu = Dsu::new(oriented.len());
    let mut builds: HashMap<usize, ContigBuild> = oriented
        .iter()
        .enumerate()
        .map(|(i, seq)| (i, ContigBuild::from_read(i, seq)))
        .collect();
    // Per-read offset within its current contig.
    let mut read_offset: Vec<i64> = vec![0; oriented.len()];

    for ov in sorted {
        cancel.check()?;
        let (ri, rj) = (dsu.find(ov.i), dsu.find(ov.j));
        if ri == rj {
            continue;
        }
        // Place contig B so that read j lands `ov.offset` after read i.
        let place = read_offset[ov.i] + ov.offset - read_offset[ov.j];
        // Contig-level verification (rejects false overlaps / repeats).
        let a = &builds[&ri];
        let b = &builds[&rj];
        if !contig_merge_ok(a, b, place, params) {
            continue;
        }
        let b = builds.remove(&rj).expect("contig exists");
        let a = builds.get_mut(&ri).expect("contig exists");
        a.merge(b, place);
        // Refresh member offsets (merge may have shifted everything).
        for &(idx, off) in &a.reads {
            read_offset[idx] = off;
        }
        let new_root = dsu.union(ri, rj);
        if new_root != ri {
            let moved = builds.remove(&ri).expect("contig exists");
            builds.insert(new_root, moved);
        }
    }

    // --- 5. Consensus ------------------------------------------------------
    let mut contigs = Vec::new();
    let mut singletons = Vec::new();
    let mut roots: Vec<usize> = builds.keys().copied().collect();
    roots.sort_unstable();
    for root in roots {
        let build = &builds[&root];
        if build.reads.len() == 1 {
            singletons.push(reads[build.reads[0].0].id.clone());
        } else {
            let mut ids: Vec<String> = build
                .reads
                .iter()
                .map(|&(i, _)| reads[i].id.clone())
                .collect();
            ids.sort();
            contigs.push(Contig {
                consensus: build.consensus(),
                read_ids: ids,
            });
        }
    }
    contigs.sort_by_key(|c| std::cmp::Reverse(c.consensus.len()));
    singletons.sort();
    Ok(Assembly {
        contigs,
        singletons,
    })
}

/// Check that placing `b` at `place` against `a` keeps the overlapping
/// consensus region above the identity threshold.
fn contig_merge_ok(a: &ContigBuild, b: &ContigBuild, place: i64, params: &AssemblyParams) -> bool {
    let a_len = a.profile.len() as i64;
    let b_len = b.profile.len() as i64;
    let lo = place.max(0);
    let hi = (place + b_len).min(a_len);
    if hi <= lo {
        return false; // no overlap at all: a dovetail join must overlap
    }
    let overlap = (hi - lo) as usize;
    if overlap < params.min_overlap.min(a.profile.len()).min(b.profile.len()) {
        return false;
    }
    let ca = a.consensus();
    let cb = b.consensus();
    let a_slice = &ca[lo as usize..hi as usize];
    let b_slice = &cb[(lo - place) as usize..(hi - place) as usize];
    let mm = mismatches(a_slice, b_slice);
    (mm as f64) <= (1.0 - params.min_identity) * overlap as f64
}

/// Resolve read strands: greedy BFS over the k-mer-sharing graph, flipping
/// reads whose reverse complement shares more k-mers with already-oriented
/// neighbours than their forward sequence does.
fn orient_reads(reads: &[Vec<u8>], k: usize, cancel: &Cancel) -> Result<Vec<Vec<u8>>> {
    let n = reads.len();
    // k-mer -> read set (forward orientation of stored reads).
    let mut fwd_index: HashMap<&[u8], Vec<usize>> = HashMap::new();
    for (i, seq) in reads.iter().enumerate() {
        cancel.check()?;
        if seq.len() >= k {
            for w in seq.windows(k) {
                fwd_index.entry(w).or_default().push(i);
            }
        }
    }
    // Count fwd-fwd and fwd-rc shared k-mers per pair.
    let mut fwd_votes: HashMap<(usize, usize), usize> = HashMap::new();
    let mut rc_votes: HashMap<(usize, usize), usize> = HashMap::new();
    for (i, seq) in reads.iter().enumerate() {
        cancel.check()?;
        if seq.len() < k {
            continue;
        }
        for w in seq.windows(k) {
            if let Some(hits) = fwd_index.get(w) {
                for &j in hits {
                    if j > i {
                        *fwd_votes.entry((i, j)).or_default() += 1;
                    }
                }
            }
        }
        let rc = reverse_complement(seq);
        for w in rc.windows(k) {
            if let Some(hits) = fwd_index.get(w) {
                for &j in hits {
                    if j != i {
                        let key = if i < j { (i, j) } else { (j, i) };
                        *rc_votes.entry(key).or_default() += 1;
                    }
                }
            }
        }
    }
    // Build adjacency with relative-flip labels.
    let mut adj: Vec<Vec<(usize, bool)>> = vec![Vec::new(); n];
    let add =
        |votes: &HashMap<(usize, usize), usize>, flip: bool, adj: &mut Vec<Vec<(usize, bool)>>| {
            for (&(i, j), &v) in votes {
                let other = if flip {
                    fwd_votes.get(&(i, j)).copied().unwrap_or(0)
                } else {
                    rc_votes.get(&(i, j)).copied().unwrap_or(0)
                };
                let own = v;
                if own >= 2 && own > other {
                    adj[i].push((j, flip));
                    adj[j].push((i, flip));
                }
            }
        };
    add(&fwd_votes.clone(), false, &mut adj);
    add(&rc_votes.clone(), true, &mut adj);

    // BFS strand assignment.
    let mut flip = vec![false; n];
    let mut visited = vec![false; n];
    for start in 0..n {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            for &(v, rel_flip) in &adj[u] {
                if !visited[v] {
                    visited[v] = true;
                    flip[v] = flip[u] ^ rel_flip;
                    queue.push_back(v);
                }
            }
        }
    }
    Ok(reads
        .iter()
        .enumerate()
        .map(|(i, seq)| {
            if flip[i] {
                reverse_complement(seq)
            } else {
                seq.clone()
            }
        })
        .collect())
}

/// Find verified overlaps between oriented reads via shared k-mer seeding.
fn find_overlaps(
    reads: &[Vec<u8>],
    params: &AssemblyParams,
    cancel: &Cancel,
) -> Result<Vec<Overlap>> {
    let k = params.k;
    let mut index: HashMap<&[u8], Vec<(usize, usize)>> = HashMap::new();
    for (i, seq) in reads.iter().enumerate() {
        cancel.check()?;
        if seq.len() >= k {
            for (pos, w) in seq.windows(k).enumerate() {
                index.entry(w).or_default().push((i, pos));
            }
        }
    }
    // Candidate offsets per pair.
    let mut candidates: HashMap<(usize, usize), Vec<i64>> = HashMap::new();
    for hits in index.values() {
        cancel.check()?;
        // Hyper-repetitive k-mers generate mostly false candidates and
        // quadratic work; Cap3 similarly masks repeats.
        if hits.len() < 2 || hits.len() > 64 {
            continue;
        }
        for a in 0..hits.len() {
            for b in (a + 1)..hits.len() {
                let (i, pi) = hits[a];
                let (j, pj) = hits[b];
                if i == j {
                    continue;
                }
                let (i, pi, j, pj) = if i < j {
                    (i, pi, j, pj)
                } else {
                    (j, pj, i, pi)
                };
                // Read j starts (pi - pj) after read i starts.
                let offset = pi as i64 - pj as i64;
                let entry = candidates.entry((i, j)).or_default();
                if !entry.contains(&offset) {
                    entry.push(offset);
                }
            }
        }
    }
    // Verify each candidate offset, keep the best per pair.
    let mut overlaps = Vec::new();
    for ((i, j), offsets) in candidates {
        cancel.check()?;
        let (si, sj) = (&reads[i], &reads[j]);
        let mut best: Option<Overlap> = None;
        for offset in offsets {
            // Overlap window in i's coordinates.
            let lo = offset.max(0);
            let hi = (offset + sj.len() as i64).min(si.len() as i64);
            if hi <= lo {
                continue;
            }
            let len = (hi - lo) as usize;
            if len < params.min_overlap {
                continue;
            }
            let a = &si[lo as usize..hi as usize];
            let b = &sj[(lo - offset) as usize..(hi - offset) as usize];
            let mm = mismatches(a, b);
            if (mm as f64) > (1.0 - params.min_identity) * len as f64 {
                continue;
            }
            let score = len - mm;
            if best.map(|o| score > o.score).unwrap_or(true) {
                best = Some(Overlap {
                    i,
                    j,
                    offset,
                    score,
                });
            }
        }
        if let Some(o) = best {
            overlaps.push(o);
        }
    }
    Ok(overlaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::{random_genome, shotgun_reads, ShotgunParams};

    fn identity(a: &[u8], b: &[u8]) -> f64 {
        // Best ungapped diagonal alignment over all offsets, requiring the
        // overlap to cover at least 80% of the shorter sequence (contigs may
        // carry a few junk bases past the genome ends).
        let min_overlap = (a.len().min(b.len()) * 4) / 5;
        let mut best = 0.0f64;
        for shift in -(b.len() as i64 - 1)..(a.len() as i64) {
            let lo_a = shift.max(0) as usize;
            let hi_a = ((shift + b.len() as i64) as usize).min(a.len());
            if hi_a <= lo_a || hi_a - lo_a < min_overlap {
                continue;
            }
            let a_sl = &a[lo_a..hi_a];
            let b_sl = &b[(lo_a as i64 - shift) as usize..(hi_a as i64 - shift) as usize];
            let mm = mismatches(a_sl, b_sl);
            best = best.max(1.0 - mm as f64 / a_sl.len() as f64);
        }
        best
    }

    #[test]
    fn two_overlapping_reads_one_contig() {
        // genome: 0..150, reads [0..100) and [50..150).
        let g = random_genome(150, 1);
        let reads = vec![
            FastaRecord::new("r0", g[0..100].to_vec()),
            FastaRecord::new("r1", g[50..150].to_vec()),
        ];
        let asm = assemble(&reads, &AssemblyParams::default());
        assert_eq!(asm.contigs.len(), 1);
        assert!(asm.singletons.is_empty());
        assert_eq!(asm.contigs[0].consensus, g);
        assert_eq!(asm.contigs[0].read_ids, vec!["r0", "r1"]);
    }

    #[test]
    fn disjoint_reads_stay_singletons() {
        let g = random_genome(4000, 2);
        let reads = vec![
            FastaRecord::new("a", g[0..300].to_vec()),
            FastaRecord::new("b", g[2000..2300].to_vec()),
        ];
        let asm = assemble(&reads, &AssemblyParams::default());
        assert!(asm.contigs.is_empty());
        assert_eq!(asm.singletons, vec!["a", "b"]);
    }

    #[test]
    fn clean_shotgun_reassembles_genome() {
        let g = random_genome(2000, 3);
        let reads = shotgun_reads(
            &g,
            &ShotgunParams {
                n_reads: 60,
                read_len_mean: 250.0,
                read_len_sd: 20.0,
                ..Default::default()
            },
            4,
        );
        let asm = assemble(&reads, &AssemblyParams::default());
        assert!(!asm.contigs.is_empty());
        let longest = &asm.contigs[0].consensus;
        assert!(
            longest.len() as f64 > 0.8 * g.len() as f64,
            "longest contig {} of {}",
            longest.len(),
            g.len()
        );
        assert!(
            identity(longest, &g) > 0.99,
            "identity {}",
            identity(longest, &g)
        );
    }

    #[test]
    fn noisy_reads_still_assemble() {
        let g = random_genome(1500, 5);
        let reads = shotgun_reads(
            &g,
            &ShotgunParams {
                n_reads: 80,
                read_len_mean: 250.0,
                read_len_sd: 20.0,
                error_rate: 0.01,
                ..Default::default()
            },
            6,
        );
        let asm = assemble(&reads, &AssemblyParams::default());
        let longest = &asm.contigs[0].consensus;
        assert!(
            longest.len() as f64 > 0.7 * g.len() as f64,
            "longest {}",
            longest.len()
        );
        assert!(
            identity(longest, &g) > 0.97,
            "identity {}",
            identity(longest, &g)
        );
    }

    #[test]
    fn reverse_strand_reads_are_oriented() {
        let g = random_genome(1200, 7);
        let reads = shotgun_reads(
            &g,
            &ShotgunParams {
                n_reads: 60,
                read_len_mean: 250.0,
                read_len_sd: 10.0,
                reverse_strand_p: 0.5,
                ..Default::default()
            },
            8,
        );
        let asm = assemble(&reads, &AssemblyParams::default());
        assert!(!asm.contigs.is_empty());
        let longest = &asm.contigs[0].consensus;
        let fwd = identity(longest, &g);
        assert!(fwd > 0.95, "oriented assembly identity {fwd}");
        assert!(longest.len() as f64 > 0.7 * g.len() as f64);
    }

    #[test]
    fn poor_ends_are_trimmed() {
        let g = random_genome(800, 9);
        let reads = shotgun_reads(
            &g,
            &ShotgunParams {
                n_reads: 40,
                read_len_mean: 200.0,
                read_len_sd: 10.0,
                poor_end_len: 25,
                ..Default::default()
            },
            10,
        );
        let asm = assemble(&reads, &AssemblyParams::default());
        assert!(!asm.contigs.is_empty());
        let longest = &asm.contigs[0].consensus;
        // Consensus should be nearly N-free despite junky read ends.
        let n_frac = longest.iter().filter(|&&b| b == b'N').count() as f64 / longest.len() as f64;
        assert!(n_frac < 0.05, "n_frac {n_frac}");
        // Low-coverage contig ends can retain a few junk bases that slipped
        // the trim window; the body must still match the genome closely.
        assert!(
            identity(longest, &g) > 0.93,
            "identity {}",
            identity(longest, &g)
        );
    }

    #[test]
    fn every_read_accounted_for() {
        let g = random_genome(1000, 11);
        let reads = shotgun_reads(
            &g,
            &ShotgunParams {
                n_reads: 50,
                read_len_mean: 150.0,
                ..Default::default()
            },
            12,
        );
        let asm = assemble(&reads, &AssemblyParams::default());
        let mut seen: Vec<String> = asm.singletons.clone();
        for c in &asm.contigs {
            seen.extend(c.read_ids.iter().cloned());
        }
        seen.sort();
        let mut expect: Vec<String> = reads.iter().map(|r| r.id.clone()).collect();
        expect.sort();
        assert_eq!(seen, expect);
    }

    #[test]
    fn empty_input() {
        let asm = assemble(&[], &AssemblyParams::default());
        assert!(asm.contigs.is_empty() && asm.singletons.is_empty());
        assert_eq!(asm.n50(), 0);
    }

    #[test]
    fn stats_summarize_assembly() {
        let asm = Assembly {
            contigs: vec![
                Contig {
                    consensus: vec![b'A'; 100],
                    read_ids: vec!["a".into(), "b".into(), "c".into()],
                },
                Contig {
                    consensus: vec![b'A'; 60],
                    read_ids: vec!["d".into(), "e".into()],
                },
                Contig {
                    consensus: vec![b'A'; 40],
                    read_ids: vec!["f".into(), "g".into()],
                },
            ],
            singletons: vec!["h".into()],
        };
        let s = asm.stats();
        assert_eq!(s.n_contigs, 3);
        assert_eq!(s.n_singletons, 1);
        assert_eq!(s.total_bp, 200);
        assert_eq!(s.largest_bp, 100);
        assert_eq!(s.n50, 100);
        assert_eq!(s.l50, 1);
        assert_eq!(s.reads_placed, 7);
        // Empty assembly degenerates cleanly.
        let empty = Assembly {
            contigs: vec![],
            singletons: vec![],
        };
        let e = empty.stats();
        assert_eq!((e.n_contigs, e.total_bp, e.n50, e.l50), (0, 0, 0, 0));
    }

    #[test]
    fn n50_computation() {
        let asm = Assembly {
            contigs: vec![
                Contig {
                    consensus: vec![b'A'; 100],
                    read_ids: vec!["a".into(), "b".into()],
                },
                Contig {
                    consensus: vec![b'A'; 60],
                    read_ids: vec!["c".into(), "d".into()],
                },
                Contig {
                    consensus: vec![b'A'; 40],
                    read_ids: vec!["e".into(), "f".into()],
                },
            ],
            singletons: vec![],
        };
        // total 200; cumulative 100 >= 100 -> N50 = 100.
        assert_eq!(asm.n50(), 100);
    }

    #[test]
    fn trim_read_bounds() {
        let seq = b"NNNNNACGTACGTACGTACGTNNNNN";
        let (lo, hi) = trim_read(seq, 5, 0.2);
        assert_eq!(&seq[lo..hi], b"ACGTACGTACGTACGT");
        // Clean read untouched.
        let clean = b"ACGTACGTACGT";
        let (lo, hi) = trim_read(clean, 5, 0.2);
        assert_eq!((lo, hi), (0, clean.len()));
        // All junk trims to nothing.
        let junk = b"NNNNNNNN";
        let (lo, hi) = trim_read(junk, 4, 0.2);
        assert!(hi <= lo + 1, "lo={lo} hi={hi}");
    }

    #[test]
    fn fasta_output_shape() {
        let g = random_genome(600, 13);
        let reads = shotgun_reads(
            &g,
            &ShotgunParams {
                n_reads: 30,
                read_len_mean: 150.0,
                ..Default::default()
            },
            14,
        );
        let asm = assemble(&reads, &AssemblyParams::default());
        let fasta = asm.to_fasta();
        assert_eq!(fasta.len(), asm.contigs.len());
        assert!(fasta[0].desc.as_deref().unwrap().starts_with("reads="));
    }
}

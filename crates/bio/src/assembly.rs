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
//!
//! # Layout
//!
//! Orientation and overlap detection share one k-mer index type. A window
//! that is all `ACGT` gets a 2-bit packed `u64` key when `k ≤ 31`; any other
//! window (an `N`, a lower-case or other byte, or `k ≥ 32`) is interned by
//! its bytes, so equal keys always mean equal bytes. A fast-hash map takes
//! each key to a dense id, and `starts` delimits each id's run of one flat
//! `(read, pos)` postings list, in read-then-pos order: the layout of the
//! blastx word table.
//!
//! Orientation counts each read's strand votes into two reused length-n
//! arrays. Reverse-complement votes are counted in both directions, rc(i)
//! against j and rc(j) against i: [`reverse_complement`] maps unknown bytes
//! to `N`, so the two counts can differ. Overlap detection gathers read i's
//! candidate offsets against every j > i into one sorted list, then
//! verifies each pair's run. The layout keeps one contig build per
//! union-find root, and its merge check compares per-column consensus
//! calls over the overlap window only.
//!
//! # Tie order
//!
//! The output is a function of the input. Strand edges are added in
//! ascending (i, j) order, forward-vote edges before reverse-vote edges, so
//! the breadth-first strand labelling visits neighbours in a fixed order.
//! A pair's candidate offsets are verified in ascending order and the first
//! best score is kept. Joins go best score first, then ascending (i, j).

use crate::fasta::{reverse_complement, FastaRecord};
use ppc_core::{Cancel, Result};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hasher};

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

/// The result of assembling one read set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assembly {
    /// Multi-read contigs, longest first.
    pub contigs: Vec<Contig>,
    /// Ids of reads that joined nothing.
    pub singletons: Vec<String>,
}

impl Assembly {
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

/// The consensus call of one profile column: the most-voted base,
/// preferring real bases over `N` on ties.
fn call(col: &[u32; 5]) -> u8 {
    let mut best = 4;
    let mut best_count = 0;
    for (b, &c) in col.iter().enumerate() {
        if c > best_count || (c == best_count && c > 0 && b < best) {
            best = b;
            best_count = c;
        }
    }
    BASES[best]
}

/// A contig under construction: a per-column base-vote profile plus member
/// reads at their layout offsets.
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
        self.profile.iter().map(call).collect()
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

/// [`assemble`] that polls `cancel` per read while trimming, indexing,
/// voting on strands and gathering overlaps, and per join in the layout;
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
    assert!(params.k > 0, "k-mer length must be positive");

    // --- 1. Trim poor regions -------------------------------------------
    let mut oriented: Vec<Vec<u8>> = reads
        .iter()
        .map(|r| {
            cancel.check()?;
            Ok(if params.trim {
                let (lo, hi) = trim_read(&r.seq, params.trim_window, params.trim_max_junk);
                r.seq[lo..hi].to_vec()
            } else {
                r.seq.clone()
            })
        })
        .collect::<Result<_>>()?;

    // --- 2. Orientation by k-mer voting ---------------------------------
    let flip = orient_reads(&oriented, params.k, cancel)?;
    for (seq, flip) in oriented.iter_mut().zip(flip) {
        if flip {
            *seq = reverse_complement(seq);
        }
    }

    // --- 3. Overlap detection -------------------------------------------
    let mut sorted = find_overlaps(&oriented, params, cancel)?;

    // --- 4. Greedy layout -------------------------------------------------
    sorted.sort_by(|a, b| {
        b.score
            .cmp(&a.score)
            .then(a.i.cmp(&b.i))
            .then(a.j.cmp(&b.j))
    });

    let mut dsu = Dsu::new(oriented.len());
    // The build of each union-find root; `None` once merged away.
    let mut builds: Vec<Option<ContigBuild>> = oriented
        .iter()
        .enumerate()
        .map(|(i, seq)| Some(ContigBuild::from_read(i, seq)))
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
        let a = builds[ri].as_ref().expect("root build");
        let b = builds[rj].as_ref().expect("root build");
        if !contig_merge_ok(a, b, place, params) {
            continue;
        }
        let b = builds[rj].take().expect("root build");
        let a = builds[ri].as_mut().expect("root build");
        a.merge(b, place);
        // Refresh member offsets (merge may have shifted everything).
        for &(idx, off) in &a.reads {
            read_offset[idx] = off;
        }
        // `union` keeps `ri` as the root, which already holds the merge.
        dsu.union(ri, rj);
    }

    // --- 5. Consensus ------------------------------------------------------
    let mut contigs = Vec::new();
    let mut singletons = Vec::new();
    for build in builds.into_iter().flatten() {
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
    let a_cols = &a.profile[lo as usize..hi as usize];
    let b_cols = &b.profile[(lo - place) as usize..(hi - place) as usize];
    let mm = a_cols
        .iter()
        .zip(b_cols)
        .filter(|(x, y)| call(x) != call(y))
        .count();
    (mm as f64) <= (1.0 - params.min_identity) * overlap as f64
}

/// Multiply-xorshift hasher for the k-mer index: one multiply per 8-byte
/// word. Packed windows are already near-uniform, so that mixes them well
/// enough; interned windows are rare unless `k ≥ 32`.
struct KeyHasher(u64);

/// A [`KeyHasher`] seed drawn from [`RandomState`] per index, so input
/// crafted to collide cannot aim at a known function. No index map is ever
/// iterated, so the seed never reaches the output.
#[derive(Clone, Copy)]
struct KeySeed(u64);

impl KeySeed {
    // The one audited hash seed: no index map is iterated, so it never
    // reaches the output.
    #[allow(clippy::disallowed_methods)]
    fn random() -> KeySeed {
        KeySeed(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for KeySeed {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(self.0)
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        for &b in words.remainder() {
            self.write_u64(b as u64);
        }
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

type FastMap<K, V> = HashMap<K, V, KeySeed>;

/// The longest window a `u64` holds at 2 bits per base, below the top bits.
const MAX_PACKED_K: usize = 31;

/// The 2-bit code of each byte; 4 for anything but `ACGT`.
const CODE2: [u8; 256] = {
    let mut t = [4u8; 256];
    t[b'A' as usize] = 0;
    t[b'C' as usize] = 1;
    t[b'G' as usize] = 2;
    t[b'T' as usize] = 3;
    t
};

/// The key of one k-mer window.
#[derive(Clone, Copy)]
enum Key<'a> {
    /// An all-`ACGT` window, 2 bits per base.
    Packed(u64),
    /// Any other window, by its bytes.
    Bytes(&'a [u8]),
}

/// The key of every length-`k` window of `seq`, in position order.
fn window_keys(seq: &[u8], k: usize) -> impl Iterator<Item = Key<'_>> + '_ {
    let packs = k <= MAX_PACKED_K;
    let mask = if packs { (1u64 << (2 * k)) - 1 } else { 0 };
    // The packed code of the last bases, and how many of them are ACGT.
    let (mut code, mut run) = (0u64, 0usize);
    seq.iter().enumerate().filter_map(move |(end, &b)| {
        let c = CODE2[b as usize];
        if c < 4 {
            code = (code << 2 | c as u64) & mask;
            run += 1;
        } else {
            run = 0;
        }
        let start = (end + 1).checked_sub(k)?;
        Some(if packs && run >= k {
            Key::Packed(code)
        } else {
            Key::Bytes(&seq[start..=end])
        })
    })
}

/// Every length-`k` window of a read set: a key → dense id map, and each
/// id's run of one flat `(read, pos)` postings list, in read-then-pos order.
struct KmerIndex<'a> {
    packed: FastMap<u64, u32>,
    interned: FastMap<&'a [u8], u32>,
    /// The id of every window, read by read, in position order.
    window_ids: Vec<u32>,
    /// Read `i`'s window ids are `window_ids[read_starts[i]..read_starts[i + 1]]`.
    read_starts: Vec<u32>,
    /// The postings of id `x` are `postings[starts[x]..starts[x + 1]]`.
    starts: Vec<u32>,
    postings: Vec<(u32, u32)>,
}

impl<'a> KmerIndex<'a> {
    /// Index `reads`, polling `cancel` once per read.
    fn build(reads: &'a [Vec<u8>], k: usize, cancel: &Cancel) -> Result<KmerIndex<'a>> {
        let n_windows: usize = reads.iter().map(|r| (r.len() + 1).saturating_sub(k)).sum();
        assert!(
            n_windows < u32::MAX as usize && reads.len() < u32::MAX as usize,
            "read set too large for a u32 k-mer index"
        );
        let seed = KeySeed::random();
        let mut packed = FastMap::with_hasher(seed);
        let mut interned = FastMap::with_hasher(seed);
        let mut window_ids = Vec::with_capacity(n_windows);
        let mut read_starts = Vec::with_capacity(reads.len() + 1);
        read_starts.push(0);
        // Counting sort by id: `starts[x + 1]` first counts id x's windows.
        let mut starts = vec![0u32];
        for seq in reads {
            cancel.check()?;
            for key in window_keys(seq, k) {
                let fresh = starts.len() as u32 - 1;
                let id = match key {
                    Key::Packed(code) => *packed.entry(code).or_insert(fresh),
                    Key::Bytes(bytes) => *interned.entry(bytes).or_insert(fresh),
                };
                if id == fresh {
                    starts.push(0);
                }
                starts[id as usize + 1] += 1;
                window_ids.push(id);
            }
            read_starts.push(window_ids.len() as u32);
        }
        for x in 1..starts.len() {
            starts[x] += starts[x - 1];
        }
        // Place each window at its id's cursor, which leaves `starts[x]`
        // at the end of id x's run; shift right by one to restore it.
        let mut postings = vec![(0, 0); n_windows];
        for (read, span) in read_starts.windows(2).enumerate() {
            let ids = &window_ids[span[0] as usize..span[1] as usize];
            for (pos, &id) in ids.iter().enumerate() {
                let at = &mut starts[id as usize];
                postings[*at as usize] = (read as u32, pos as u32);
                *at += 1;
            }
        }
        let n_ids = starts.len() - 1;
        starts.copy_within(0..n_ids, 1);
        starts[0] = 0;
        Ok(KmerIndex {
            packed,
            interned,
            window_ids,
            read_starts,
            starts,
            postings,
        })
    }

    /// The id of every window of indexed read `i`, in position order.
    fn window_ids(&self, i: usize) -> &[u32] {
        &self.window_ids[self.read_starts[i] as usize..self.read_starts[i + 1] as usize]
    }

    /// Every `(read, pos)` holding the window with id `id`.
    fn postings(&self, id: u32) -> &[(u32, u32)] {
        &self.postings[self.starts[id as usize] as usize..self.starts[id as usize + 1] as usize]
    }

    /// Every `(read, pos)` holding a window with key `key`.
    fn lookup(&self, key: Key) -> &[(u32, u32)] {
        let id = match key {
            Key::Packed(code) => self.packed.get(&code),
            Key::Bytes(bytes) => self.interned.get(bytes),
        };
        id.map_or(&[], |&id| self.postings(id))
    }

    /// The postings of `id` in reads after `i` (postings are in read order).
    fn postings_after(&self, id: u32, i: usize) -> &[(u32, u32)] {
        let hits = self.postings(id);
        &hits[hits.partition_point(|&(j, _)| j as usize <= i)..]
    }
}

/// Resolve read strands: greedy BFS over the k-mer-sharing graph, flipping
/// reads whose reverse complement shares more k-mers with already-oriented
/// neighbours than their forward sequence does. Returns which reads flip.
fn orient_reads(reads: &[Vec<u8>], k: usize, cancel: &Cancel) -> Result<Vec<bool>> {
    let n = reads.len();
    let index = KmerIndex::build(reads, k, cancel)?;
    // Per pair (i, j), i < j: forward-forward shared windows, and
    // reverse-forward ones counted both ways (rc(i) against j plus rc(j)
    // against i). Read i's row goes into the two arrays, then out as one
    // entry per touched j; the column half of a pair arrives from read j.
    let mut votes: Vec<(u32, u32, u32, u32)> = Vec::new();
    let (mut fwd, mut rc) = (vec![0u32; n], vec![0u32; n]);
    let mut touched: Vec<u32> = Vec::new();
    for (i, seq) in reads.iter().enumerate() {
        cancel.check()?;
        if seq.len() < k {
            continue;
        }
        for &id in index.window_ids(i) {
            for &(j, _) in index.postings_after(id, i) {
                if fwd[j as usize] == 0 && rc[j as usize] == 0 {
                    touched.push(j);
                }
                fwd[j as usize] += 1;
            }
        }
        let rc_seq = reverse_complement(seq);
        for key in window_keys(&rc_seq, k) {
            for &(j, _) in index.lookup(key) {
                if j as usize != i {
                    if fwd[j as usize] == 0 && rc[j as usize] == 0 {
                        touched.push(j);
                    }
                    rc[j as usize] += 1;
                }
            }
        }
        let i = i as u32;
        for j in touched.drain(..) {
            let (f, r) = (
                std::mem::take(&mut fwd[j as usize]),
                std::mem::take(&mut rc[j as usize]),
            );
            votes.push(if i < j { (i, j, f, r) } else { (j, i, f, r) });
        }
    }
    votes.sort_unstable_by_key(|&(i, j, _, _)| (i, j));
    let mut pairs: Vec<(u32, u32, u32, u32)> = Vec::with_capacity(votes.len());
    for (i, j, f, r) in votes {
        match pairs.last_mut() {
            Some(last) if (last.0, last.1) == (i, j) => {
                last.2 += f;
                last.3 += r;
            }
            _ => pairs.push((i, j, f, r)),
        }
    }
    // Adjacency with relative-flip labels: forward edges, then reverse.
    let mut adj: Vec<Vec<(usize, bool)>> = vec![Vec::new(); n];
    for flip in [false, true] {
        for &(i, j, f, r) in &pairs {
            let (own, other) = if flip { (r, f) } else { (f, r) };
            if own >= 2 && own > other {
                adj[i as usize].push((j as usize, flip));
                adj[j as usize].push((i as usize, flip));
            }
        }
    }

    // BFS strand assignment.
    let mut flip = vec![false; n];
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    for start in 0..n {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        queue.push_back(start);
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
    Ok(flip)
}

/// Find verified overlaps between oriented reads via shared k-mer seeding.
fn find_overlaps(
    reads: &[Vec<u8>],
    params: &AssemblyParams,
    cancel: &Cancel,
) -> Result<Vec<Overlap>> {
    let index = KmerIndex::build(reads, params.k, cancel)?;
    let mut overlaps = Vec::new();
    // Read i's candidate (j, offset) pairs, j > i.
    let mut candidates: Vec<(u32, i64)> = Vec::new();
    // The last candidate pushed for each j: the windows along one diagonal
    // all give the same offset, so most pushes would be duplicates.
    let mut last = vec![(u32::MAX, 0i64); reads.len()];
    for (i, si) in reads.iter().enumerate() {
        cancel.check()?;
        candidates.clear();
        for (pi, &id) in index.window_ids(i).iter().enumerate() {
            // Hyper-repetitive k-mers generate mostly false candidates and
            // quadratic work; Cap3 similarly masks repeats.
            let hits = index.postings(id).len();
            if !(2..=64).contains(&hits) {
                continue;
            }
            for &(j, pj) in index.postings_after(id, i) {
                // Read j starts (pi - pj) after read i starts.
                let seen = (i as u32, pi as i64 - pj as i64);
                if last[j as usize] != seen {
                    last[j as usize] = seen;
                    candidates.push((j, seen.1));
                }
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        // Verify each pair's offsets in ascending order; keep the first best.
        for run in candidates.chunk_by(|a, b| a.0 == b.0) {
            let j = run[0].0 as usize;
            let sj = &reads[j];
            let mut best: Option<Overlap> = None;
            for &(_, offset) in run {
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
            overlaps.extend(best);
        }
    }
    Ok(overlaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::{random_genome, shotgun_reads, ShotgunParams};
    use ppc_core::rng::Pcg32;

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

    /// Reads over a genome with a tandem repeat in the middle: repeats give
    /// strand graphs with conflicting flip labels and pairs with several
    /// equally good offsets, the inputs where tie order shows.
    fn repeat_reads(s: u64) -> Vec<FastaRecord> {
        let mut genome = random_genome(600, s ^ 77);
        let unit = random_genome(40 + (s % 50) as usize, s);
        for _ in 0..3 + s % 5 {
            genome.extend_from_slice(&unit);
        }
        genome.extend(random_genome(600, s ^ 99));
        shotgun_reads(
            &genome,
            &ShotgunParams {
                n_reads: 40 + (s % 40) as usize,
                read_len_mean: 180.0,
                read_len_sd: 20.0,
                error_rate: [0.0, 0.01, 0.03][(s % 3) as usize],
                reverse_strand_p: if s % 2 == 1 { 0.5 } else { 0.0 },
                poor_end_len: (s % 4) as usize * 10,
            },
            s + 1,
        )
    }

    /// Seeds whose [`repeat_reads`] assembled differently from run to run
    /// at k = 12 while strand edges and offsets were taken in hash-map
    /// order. 18 of the seeds in `0..300` did; in 19 reruns against a
    /// first run, these four differed in 15, 13, 10 and 17.
    const TIE_SEEDS: [u64; 4] = [1, 119, 253, 271];

    #[test]
    fn assembly_is_a_function_of_its_input() {
        let params = AssemblyParams {
            k: 12,
            ..Default::default()
        };
        // The two of `TIE_SEEDS` that varied most often.
        for s in [1, 271] {
            let reads = repeat_reads(s);
            let first = assemble(&reads, &params);
            for run in 1..20 {
                assert_eq!(assemble(&reads, &params), first, "seed {s}, run {run}");
            }
        }
    }

    #[test]
    fn tied_offsets_keep_the_lowest() {
        // Read 1 is one repeat unit; read 0 holds three copies of it at
        // 60, 100 and 140, so every offset scores 40.
        let unit = random_genome(40, 21);
        let mut long = random_genome(60, 22);
        for _ in 0..3 {
            long.extend_from_slice(&unit);
        }
        long.extend(random_genome(60, 23));
        let params = AssemblyParams {
            k: 12,
            ..Default::default()
        };
        let overlaps = find_overlaps(&[long, unit], &params, &Cancel::never()).unwrap();
        assert_eq!(overlaps.len(), 1);
        let o = overlaps[0];
        assert_eq!((o.i, o.j, o.offset, o.score), (0, 1, 60, 40));
    }

    /// A read set for seed `s` that exercises every key and tie path: k of
    /// 12, 16, 20 or 32; trimming on or off; repeats, errors, reverse-strand
    /// reads and N-rich poor ends; reads shorter than k (empty ones too);
    /// and reads with lower-case stretches and bytes outside `ACGTN`.
    fn reference_case(s: u64) -> (Vec<FastaRecord>, AssemblyParams) {
        let params = AssemblyParams {
            k: [12, 16, 20, 32][(s % 4) as usize],
            trim: (s / 4).is_multiple_of(2),
            ..Default::default()
        };
        // A tandem repeat at 200..200 + repeat_len on every third seed.
        let mut genome = random_genome(200, s ^ 5);
        let mut repeat_len = 0;
        if s.is_multiple_of(3) {
            let unit = random_genome(30 + (s % 40) as usize, s ^ 6);
            for _ in 0..2 + s % 4 {
                genome.extend_from_slice(&unit);
                repeat_len += unit.len();
            }
        }
        genome.extend(random_genome(200 + (s % 7) as usize * 50, s ^ 7));
        let mut reads = shotgun_reads(
            &genome,
            &ShotgunParams {
                n_reads: 14 + (s % 18) as usize,
                read_len_mean: 90.0 + (s % 5) as f64 * 12.0,
                read_len_sd: 15.0,
                error_rate: [0.0, 0.01, 0.03][(s / 3 % 3) as usize],
                reverse_strand_p: if s % 5 < 3 { 0.5 } else { 0.0 },
                poor_end_len: (s % 4) as usize * 8,
            },
            s ^ 9,
        );
        let mut rng = Pcg32::new(s ^ 10);
        for r in reads.iter_mut() {
            if rng.chance(0.3) {
                // Half start at the read's head, turning a poor end's `N`s
                // into `n`s: trimming keeps those, and `reverse_complement`
                // maps them to `N`, so strand votes between such a read and
                // an `N`-ended one differ by direction.
                let lo = if rng.chance(0.5) {
                    0
                } else {
                    rng.next_below(r.seq.len() as u32) as usize
                };
                let hi = (lo + 1 + rng.next_below(40) as usize).min(r.seq.len());
                r.seq[lo..hi].make_ascii_lowercase();
            }
            if rng.chance(0.15) {
                // A run of one junk byte longer than k: `N` runs share
                // windows forward and reverse, `n` and `X` runs only with
                // `N` runs and only from their own reverse complement.
                let len = (params.k + rng.next_below(8) as usize).min(r.seq.len());
                let at = rng.next_below((r.seq.len() - len + 1) as u32) as usize;
                r.seq[at..at + len].fill(*rng.choose(b"NnX").unwrap());
            }
            if rng.chance(0.2) {
                for _ in 0..1 + rng.next_below(4) {
                    let at = rng.next_below(r.seq.len() as u32) as usize;
                    r.seq[at] = *rng.choose(b"nNXR-*acgt").unwrap();
                }
            }
        }
        for i in 0..1 + s % 3 {
            let len = rng.next_below(params.k as u32) as usize;
            let at = rng.next_below((genome.len() - len) as u32) as usize;
            reads.push(FastaRecord::new(format!("short{i}"), &genome[at..at + len]));
        }
        // Reads inside the repeat sit inside longer reads at several
        // offsets of equal score.
        for i in 0..repeat_len / 40 {
            let len = (40 + rng.next_below(40) as usize).min(repeat_len);
            let at = 200 + rng.next_below((repeat_len - len + 1) as u32) as usize;
            reads.push(FastaRecord::new(format!("inner{i}"), &genome[at..at + len]));
        }
        (reads, params)
    }

    #[test]
    fn assembly_matches_the_reference_kernel() {
        let never = Cancel::never();
        for s in 0..300 {
            let (reads, params) = reference_case(s);
            let want = reference::assemble_cancellable(&reads, &params, &never).unwrap();
            assert_eq!(assemble(&reads, &params), want, "seed {s}, k {}", params.k);
        }
        let params = AssemblyParams {
            k: 12,
            ..Default::default()
        };
        for s in TIE_SEEDS {
            let reads = repeat_reads(s);
            let want = reference::assemble_cancellable(&reads, &params, &never).unwrap();
            assert_eq!(assemble(&reads, &params), want, "repeat seed {s}");
        }
    }

    /// The hash-map kernel this module replaced, verbatim but for two
    /// edits that fix its tie order: its maps iterate as `BTreeMap`s, and
    /// each pair's candidate offsets are verified in ascending order.
    mod reference {
        use super::super::{
            base_index, mismatches, trim_read, Assembly, AssemblyParams, Contig, Dsu, Overlap,
            BASES,
        };
        use crate::fasta::{reverse_complement, FastaRecord};
        use ppc_core::{Cancel, Result};
        use std::collections::BTreeMap;

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

        /// [`assemble`] that polls `cancel` per read while indexing, per k-mer
        /// bucket and read pair in overlap detection, and per join in the layout;
        /// returns `Err(Cancelled)` at the first check after the token is set.
        pub(super) fn assemble_cancellable(
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
            let mut builds: BTreeMap<usize, ContigBuild> = oriented
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
        fn contig_merge_ok(
            a: &ContigBuild,
            b: &ContigBuild,
            place: i64,
            params: &AssemblyParams,
        ) -> bool {
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
            let mut fwd_index: BTreeMap<&[u8], Vec<usize>> = BTreeMap::new();
            for (i, seq) in reads.iter().enumerate() {
                cancel.check()?;
                if seq.len() >= k {
                    for w in seq.windows(k) {
                        fwd_index.entry(w).or_default().push(i);
                    }
                }
            }
            // Count fwd-fwd and fwd-rc shared k-mers per pair.
            let mut fwd_votes: BTreeMap<(usize, usize), usize> = BTreeMap::new();
            let mut rc_votes: BTreeMap<(usize, usize), usize> = BTreeMap::new();
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
            let add = |votes: &BTreeMap<(usize, usize), usize>,
                       flip: bool,
                       adj: &mut Vec<Vec<(usize, bool)>>| {
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
            let mut index: BTreeMap<&[u8], Vec<(usize, usize)>> = BTreeMap::new();
            for (i, seq) in reads.iter().enumerate() {
                cancel.check()?;
                if seq.len() >= k {
                    for (pos, w) in seq.windows(k).enumerate() {
                        index.entry(w).or_default().push((i, pos));
                    }
                }
            }
            // Candidate offsets per pair.
            let mut candidates: BTreeMap<(usize, usize), Vec<i64>> = BTreeMap::new();
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
            for ((i, j), mut offsets) in candidates {
                cancel.check()?;
                offsets.sort_unstable();
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
    }
}

//! Path tables: the precomputed `k` paths per switch pair.
//!
//! [`PathSelection`] names a path-selection scheme from the paper;
//! [`PathTable::compute`] evaluates it — in parallel across pairs — for
//! either all ordered switch pairs or an explicit pair list, and stores the
//! result in one record arena (each pair's [`PathSet`] is a borrowed view
//! of one record). Randomized schemes derive an independent RNG per pair
//! from the table seed, so results do not depend on scheduling order.

use crate::bfs::{shortest_path_with, TieBreak};
use crate::disjoint::edge_disjoint_paths_with;
use crate::llskr::{llskr_paths_with, LlskrConfig};
use crate::pair_seed;
use crate::workspace::{with_thread_workspace, DijkstraWorkspace};
use crate::yen::k_shortest_paths_with;
use jellyfish_topology::{DegradedGraph, Graph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A single path as a node sequence `[src, ..., dst]`.
pub type Path = Vec<NodeId>;

/// Path-selection scheme (paper Section III-A plus baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PathSelection {
    /// Single shortest path (the paper's `SP` baseline).
    SinglePath,
    /// Vanilla Yen's k-shortest paths with deterministic tie-breaks.
    Ksp(usize),
    /// Yen's with randomized tie-breaks (`rKSP`).
    RKsp(usize),
    /// Edge-disjoint Remove-Find with deterministic tie-breaks (`EDKSP`).
    EdKsp(usize),
    /// Edge-disjoint Remove-Find with randomized tie-breaks (`rEDKSP`).
    REdKsp(usize),
    /// LLSKR baseline (Yuan et al.), variable path count.
    Llskr(LlskrConfig),
}

impl PathSelection {
    /// Display name matching the paper's notation, e.g. `rEDKSP(8)`.
    pub fn name(&self) -> String {
        match self {
            PathSelection::SinglePath => "SP".into(),
            PathSelection::Ksp(k) => format!("KSP({k})"),
            PathSelection::RKsp(k) => format!("rKSP({k})"),
            PathSelection::EdKsp(k) => format!("EDKSP({k})"),
            PathSelection::REdKsp(k) => format!("rEDKSP({k})"),
            PathSelection::Llskr(c) => {
                format!("LLSKR(s{},{}..{})", c.spread, c.min_paths, c.max_paths)
            }
        }
    }

    /// Nominal number of paths per pair (upper bound for LLSKR).
    pub fn k(&self) -> usize {
        match self {
            PathSelection::SinglePath => 1,
            PathSelection::Ksp(k)
            | PathSelection::RKsp(k)
            | PathSelection::EdKsp(k)
            | PathSelection::REdKsp(k) => *k,
            PathSelection::Llskr(c) => c.max_paths,
        }
    }

    /// Whether the scheme uses randomized tie-breaking.
    pub fn is_randomized(&self) -> bool {
        matches!(self, PathSelection::RKsp(_) | PathSelection::REdKsp(_))
    }

    /// Computes this scheme's paths for one ordered pair.
    ///
    /// Allocates fresh search arenas; hot loops should call
    /// [`PathSelection::paths_for_pair_with`] with a reused
    /// [`DijkstraWorkspace`] instead.
    pub fn paths_for_pair(&self, graph: &Graph, src: NodeId, dst: NodeId, seed: u64) -> Vec<Path> {
        let mut ws = DijkstraWorkspace::for_graph(graph);
        self.paths_for_pair_with(graph, src, dst, seed, &mut ws)
    }

    /// [`PathSelection::paths_for_pair`] with caller-provided arenas.
    ///
    /// The result is identical to the allocating variant — the workspace
    /// only changes where the transient buffers live, never which paths
    /// are selected (the differential tests in `tests/` pin this down).
    pub fn paths_for_pair_with(
        &self,
        graph: &Graph,
        src: NodeId,
        dst: NodeId,
        seed: u64,
        ws: &mut DijkstraWorkspace,
    ) -> Vec<Path> {
        let mut rng;
        let mut tiebreak = if self.is_randomized() {
            rng = StdRng::seed_from_u64(pair_seed(seed, src, dst));
            TieBreak::Randomized(&mut rng)
        } else {
            TieBreak::Deterministic
        };
        match *self {
            PathSelection::SinglePath => {
                ws.ensure(graph);
                let DijkstraWorkspace { mask, scratch, .. } = ws;
                shortest_path_with(graph, src, dst, mask, &mut tiebreak, scratch)
                    .into_iter()
                    .collect()
            }
            PathSelection::Ksp(k) | PathSelection::RKsp(k) => {
                k_shortest_paths_with(graph, src, dst, k, &mut tiebreak, ws)
            }
            PathSelection::EdKsp(k) | PathSelection::REdKsp(k) => {
                edge_disjoint_paths_with(graph, src, dst, k, &mut tiebreak, ws)
            }
            PathSelection::Llskr(cfg) => llskr_paths_with(graph, src, dst, &cfg, &mut tiebreak, ws),
        }
    }
}

/// Which ordered pairs a table covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PairSet {
    /// All ordered pairs `(s, d)` with `s != d`.
    AllPairs,
    /// An explicit list of ordered pairs (deduplicated on compute).
    Pairs(Vec<(NodeId, NodeId)>),
}

impl PairSet {
    /// Materializes the pair list for a graph with `n` switches.
    pub fn materialize(&self, n: usize) -> Vec<(NodeId, NodeId)> {
        match self {
            PairSet::AllPairs => {
                let mut v = Vec::with_capacity(n * (n - 1));
                for s in 0..n as NodeId {
                    for d in 0..n as NodeId {
                        if s != d {
                            v.push((s, d));
                        }
                    }
                }
                v
            }
            PairSet::Pairs(list) => {
                let mut v: Vec<_> = list.iter().copied().filter(|(s, d)| s != d).collect();
                v.sort_unstable();
                v.dedup();
                v
            }
        }
    }
}

/// The paths of one ordered pair.
///
/// A `PathSet` is an unsized view over one *record*
/// `[k, end_1, ..., end_k, nodes...]`: the path count, the exclusive end
/// offset of each path within the node run, then the concatenated node
/// sequences. It stands to a record as `str` stands to UTF-8 bytes. A
/// [`PathTable`] keeps every pair's record back to back in one arena and
/// lends out `&PathSet`, and each path as a borrowed `&[NodeId]`, in O(1).
/// Owned sets, built by [`PathSet::from_paths`], are `Box<PathSet>`.
///
/// Equality is record equality, which is path-content equality: a list
/// of paths has exactly one record.
#[repr(transparent)]
#[derive(PartialEq, Eq, Hash)]
pub struct PathSet([NodeId]);

impl PathSet {
    /// The set with no paths.
    pub fn empty() -> &'static PathSet {
        PathSet::view(&[0])
    }

    /// Builds an owned set from a list of paths.
    pub fn from_paths(paths: &[Path]) -> Box<PathSet> {
        let nodes: usize = paths.iter().map(Vec::len).sum();
        let mut record = Vec::with_capacity(1 + paths.len() + nodes);
        push_record(&mut record, paths.iter().map(Vec::as_slice));
        PathSet::boxed(record.into_boxed_slice())
    }

    /// Views `record` as a path set: the one place a node slice becomes a
    /// `PathSet`.
    fn view(record: &[NodeId]) -> &PathSet {
        debug_assert!(is_record(record), "malformed path record {record:?}");
        // SAFETY: `PathSet` is a `#[repr(transparent)]` wrapper around
        // `[NodeId]`, so both pointers have the same layout and the same
        // slice-length metadata.
        unsafe { &*(record as *const [NodeId] as *const PathSet) }
    }

    /// The record at the head of `arena`, which may run on into later
    /// records: its length is read from its own header.
    #[inline]
    fn at(arena: &[NodeId]) -> &PathSet {
        let k = arena[0] as usize;
        let nodes = if k == 0 { 0 } else { arena[k] as usize };
        PathSet::view(&arena[..1 + k + nodes])
    }

    /// [`PathSet::view`] for an owned record.
    fn boxed(record: Box<[NodeId]>) -> Box<PathSet> {
        debug_assert!(is_record(&record), "malformed path record {record:?}");
        // SAFETY: as in `view`; the allocation keeps its layout and only
        // changes the type it is owned as.
        unsafe { Box::from_raw(Box::into_raw(record) as *mut PathSet) }
    }

    /// The record this set views.
    fn record(&self) -> &[NodeId] {
        &self.0
    }

    /// The end offsets and the node run.
    #[inline]
    pub(crate) fn parts(&self) -> (&[u32], &[NodeId]) {
        let (&k, rest) = self.0.split_first().expect("a record starts with its path count");
        rest.split_at(k as usize)
    }

    /// Number of paths.
    #[inline]
    pub fn len(&self) -> usize {
        self.0[0] as usize
    }

    /// True if the pair has no paths.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th path as a node slice.
    #[inline]
    pub fn path(&self, i: usize) -> &[NodeId] {
        let (ends, nodes) = self.parts();
        let lo = if i == 0 { 0 } else { ends[i - 1] as usize };
        &nodes[lo..ends[i] as usize]
    }

    /// Hop count (edges) of the `i`-th path.
    #[inline]
    pub fn hops(&self, i: usize) -> usize {
        let (ends, _) = self.parts();
        let lo = if i == 0 { 0 } else { ends[i - 1] as usize };
        ends[i] as usize - lo - 1
    }

    /// Iterates over paths as node slices.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> + Clone + '_ {
        let (ends, nodes) = self.parts();
        (0..ends.len()).map(move |i| {
            let lo = if i == 0 { 0 } else { ends[i - 1] as usize };
            &nodes[lo..ends[i] as usize]
        })
    }

    /// Longest path hop count, 0 when empty.
    pub fn max_hops(&self) -> usize {
        (0..self.len()).map(|i| self.hops(i)).max().unwrap_or(0)
    }

    /// Index of the shortest path (first such index on ties), 0 when
    /// empty. The selection schemes emit length-sorted paths, where this
    /// is trivially 0 — but repaired or externally loaded tables make no
    /// ordering promise, so minimal-path consumers (UGAL) must select by
    /// length rather than assume index 0.
    pub fn shortest_index(&self) -> usize {
        // Strict `<` keeps the first index on ties (`min_by_key` would
        // keep the last, needlessly disturbing sorted tables).
        let mut best = 0;
        for i in 1..self.len() {
            if self.hops(i) < self.hops(best) {
                best = i;
            }
        }
        best
    }

    /// Whether any stored path crosses one of `removed` (undirected,
    /// normalized `(min, max)`) edges.
    fn crosses(&self, removed: &std::collections::HashSet<(NodeId, NodeId)>) -> bool {
        self.iter().any(|path| {
            path.windows(2).any(|w| removed.contains(&(w[0].min(w[1]), w[0].max(w[1]))))
        })
    }
}

impl std::fmt::Debug for PathSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl ToOwned for PathSet {
    type Owned = Box<PathSet>;

    fn to_owned(&self) -> Box<PathSet> {
        PathSet::boxed(self.0.into())
    }
}

impl Clone for Box<PathSet> {
    fn clone(&self) -> Self {
        (**self).to_owned()
    }
}

impl Default for Box<PathSet> {
    fn default() -> Self {
        PathSet::empty().to_owned()
    }
}

/// Whether `r` is a well-formed record: a count, that many
/// non-decreasing end offsets, and a node run as long as the last one.
fn is_record(r: &[NodeId]) -> bool {
    let Some((&k, rest)) = r.split_first() else { return false };
    let Some((ends, nodes)) = rest.split_at_checked(k as usize) else { return false };
    ends.windows(2).all(|w| w[0] <= w[1]) && ends.last().map_or(0, |&e| e as usize) == nodes.len()
}

/// Appends the record of `paths` to `out`.
fn push_record<'a>(out: &mut Vec<NodeId>, paths: impl Iterator<Item = &'a [NodeId]> + Clone) {
    let head = out.len();
    out.push(0);
    let mut end = 0usize;
    for path in paths.clone() {
        end += path.len();
        out.push(u32::try_from(end).expect("a path set exceeds u32 node offsets"));
    }
    out[head] = (out.len() - head - 1) as NodeId;
    for path in paths {
        out.extend_from_slice(path);
    }
}

/// Appends the shared-prefix + zigzag-varint encoding of a node run to
/// `out`.
///
/// Per path: `varint(prefix)` — the number of leading nodes shared with
/// the *previous* path in the set (0 for the first) — followed by one
/// zigzag-varint delta per remaining node, each relative to the preceding
/// node of the same path (the first node of a prefix-less path is delta'd
/// from 0). Length-sorted k-path sets share at least the source switch
/// and often several leading hops, and deltas halve the byte cost of
/// random node ids; this is the `jellyfish-ptab v2` path payload.
pub(crate) fn encode_stream_into(nodes: &[NodeId], ends: &[u32], out: &mut Vec<u8>) {
    let mut prev_path: &[NodeId] = &[];
    let mut lo = 0usize;
    for &e in ends {
        let path = &nodes[lo..e as usize];
        let prefix = path.iter().zip(prev_path.iter()).take_while(|(a, b)| a == b).count();
        write_varint(out, prefix as u64);
        let mut prev = if prefix == 0 { 0 } else { path[prefix - 1] };
        for &node in &path[prefix..] {
            write_varint(out, zigzag(node as i64 - prev as i64));
            prev = node;
        }
        prev_path = path;
        lo = e as usize;
    }
}

/// Appends to `out` the record whose end offsets are `ends` (strictly
/// increasing, from > 0) and whose node run [`encode_stream_into`]
/// encoded as `stream`. `None` on any corruption, with `out` left
/// partly extended for the caller to truncate. Strict: the whole stream
/// must be consumed.
pub(crate) fn decode_record_into(out: &mut Vec<NodeId>, ends: &[u32], stream: &[u8]) -> Option<()> {
    out.push(ends.len() as NodeId);
    out.extend_from_slice(ends);
    let base = out.len();
    let mut pos = 0usize;
    let mut prev_start = 0usize;
    let mut lo = 0usize;
    for &e in ends {
        let len = (e as usize).checked_sub(lo)?;
        let prefix = read_varint(stream, &mut pos)? as usize;
        if prefix > len || prefix > lo - prev_start {
            return None;
        }
        for j in 0..prefix {
            let shared = out[base + prev_start + j];
            out.push(shared);
        }
        let mut prev = if prefix == 0 { 0i64 } else { out[base + lo + prefix - 1] as i64 };
        for _ in prefix..len {
            let node = prev + unzigzag(read_varint(stream, &mut pos)?);
            if !(0..=u32::MAX as i64).contains(&node) {
                return None;
            }
            out.push(node as NodeId);
            prev = node;
        }
        prev_start = lo;
        lo = e as usize;
    }
    (pos == stream.len()).then_some(())
}

pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let &byte = bytes.get(*pos)?;
        *pos += 1;
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Computed paths for a set of switch pairs, in one record arena.
///
/// Every covered pair's [`PathSet`] record sits back to back in the
/// arena, in slot order, and `starts[i]` locates slot `i`'s record. An
/// all-pairs table ([`PairSet::AllPairs`]) has `n^2` slots in row-major
/// `s * n + d` order, the diagonal included as empty records, and needs
/// no keys. A pair-subset table stores its pairs' packed `(s, d)` keys,
/// sorted, one per slot; [`PathTable::get`] finds a slot by binary
/// search, since a dense index would cost `4 n^2` bytes for a handful of
/// pairs.
///
/// The arena is cut into blocks of [`BLOCK_SLOTS`] slots (a few hundred
/// KiB for k-path tables), each one allocation, and `starts[i]` counts
/// from the start of block `i / BLOCK_SLOTS`. A table is never one
/// allocation of many megabytes: freeing one would raise glibc's dynamic
/// mmap threshold to its size, after which every allocation up to that
/// size is served from a heap that is rarely given back, so a daemon
/// that swaps tables would hold on to memory it had freed.
#[derive(Debug, Clone, PartialEq)]
pub struct PathTable {
    selection: PathSelection,
    n: usize,
    max_hops: usize,
    blocks: Vec<Box<[NodeId]>>,
    starts: Vec<u32>,
    /// `None` for all-pairs tables.
    keys: Option<Vec<u64>>,
}

#[inline]
fn pack(s: NodeId, d: NodeId) -> u64 {
    ((s as u64) << 32) | d as u64
}

/// Slots per arena block, and pairs per parallel compute block: the
/// per-pair sets of one block are the only transient copy of the table,
/// and a block still gives every rayon worker plenty of pairs.
const BLOCK_SLOTS: usize = 4096;

/// Appends records in slot order: the one way a table's arena is built.
pub(crate) struct TableBuilder {
    n: usize,
    blocks: Vec<Box<[NodeId]>>,
    /// The block being filled.
    block: Vec<NodeId>,
    /// Words to allocate for the next block when it opens: the last
    /// block's length unless a caller knows better, so a block is
    /// allocated once at its final size.
    hint: usize,
    starts: Vec<u32>,
    keys: Option<Vec<u64>>,
    max_hops: usize,
}

impl TableBuilder {
    /// An empty all-pairs (`dense`) or pair-subset table on `n` switches.
    pub(crate) fn new(n: usize, dense: bool) -> Self {
        Self {
            n,
            blocks: Vec::new(),
            block: Vec::new(),
            hint: 0,
            starts: Vec::with_capacity(if dense { n * n } else { 0 }),
            keys: (!dense).then(Vec::new),
            max_hops: 0,
        }
    }

    /// Appends pair `(s, d)`'s record, which `fill` writes onto the end of
    /// the block it is given. A dense builder first pads the slots before
    /// `s * n + d` with empty records; a sparse one takes pairs in
    /// ascending order. When `fill` fails, nothing is appended.
    pub(crate) fn push_with<E>(
        &mut self,
        (s, d): (NodeId, NodeId),
        fill: impl FnOnce(&mut Vec<NodeId>) -> Result<(), E>,
    ) -> Result<(), E> {
        if self.keys.is_none() {
            self.pad_to(s as usize * self.n + d as usize);
        }
        let start = self.open();
        if let Err(e) = fill(&mut self.block) {
            self.block.truncate(start);
            return Err(e);
        }
        if let Some(keys) = &mut self.keys {
            debug_assert!(keys.last().is_none_or(|&k| k < pack(s, d)), "pairs out of order");
            keys.push(pack(s, d));
        }
        self.close(start);
        Ok(())
    }

    fn push(&mut self, pair: (NodeId, NodeId), set: &PathSet) {
        let appended: Result<(), std::convert::Infallible> = self.push_with(pair, |block| {
            block.extend_from_slice(set.record());
            Ok(())
        });
        appended.unwrap_or_else(|never| match never {});
    }

    fn pad_to(&mut self, slot: usize) {
        debug_assert!(slot >= self.starts.len(), "dense slots pushed out of order");
        while self.starts.len() < slot {
            let start = self.open();
            self.block.push(0);
            self.close(start);
        }
    }

    /// Whether the next record opens a fresh block.
    fn at_block_start(&self) -> bool {
        self.starts.len().is_multiple_of(BLOCK_SLOTS)
    }

    /// Sizes the next fresh block to `words`.
    fn hint(&mut self, words: usize) {
        self.hint = words;
    }

    /// Starts the next slot's record; returns where it starts.
    fn open(&mut self) -> usize {
        if self.block.capacity() == 0 {
            self.block.reserve_exact(self.hint);
        }
        self.block.len()
    }

    /// Ends the record that starts at `start`, sealing a full block.
    fn close(&mut self, start: usize) {
        let start32 = u32::try_from(start).expect("an arena block exceeds u32 offsets");
        self.max_hops = self.max_hops.max(PathSet::view(&self.block[start..]).max_hops());
        self.starts.push(start32);
        if self.at_block_start() {
            self.seal();
        }
    }

    /// Moves the current block into the arena, sized exactly.
    fn seal(&mut self) {
        self.hint = self.block.len();
        self.blocks.push(std::mem::take(&mut self.block).into_boxed_slice());
    }

    pub(crate) fn finish(mut self, selection: PathSelection) -> PathTable {
        if self.keys.is_none() {
            self.pad_to(self.n * self.n);
        }
        if !self.at_block_start() {
            self.seal();
        }
        self.blocks.shrink_to_fit();
        self.starts.shrink_to_fit();
        if let Some(keys) = &mut self.keys {
            keys.shrink_to_fit();
        }
        let Self { n, blocks, starts, keys, max_hops, .. } = self;
        PathTable { selection, n, max_hops, blocks, starts, keys }
    }
}

/// Computes `selection`'s paths for pairs `pair_at(0..count)` in
/// parallel, `block` pairs at a time, appending each block to `b` in
/// order.
fn fill_blocks(
    b: &mut TableBuilder,
    (graph, selection, seed): (&Graph, PathSelection, u64),
    count: usize,
    block: usize,
    pair_at: impl Fn(usize) -> (NodeId, NodeId) + Sync,
) {
    let block = block.max(1);
    for lo in (0..count).step_by(block) {
        let hi = (lo + block).min(count);
        let sets: Vec<Box<PathSet>> = (lo..hi)
            .into_par_iter()
            .map(|i| {
                let (s, d) = pair_at(i);
                pair_set(graph, selection, s, d, seed)
            })
            .collect();
        if b.at_block_start() {
            b.hint(sets.iter().take(BLOCK_SLOTS).map(|set| set.record().len()).sum());
        }
        for (i, set) in (lo..hi).zip(&sets) {
            b.push(pair_at(i), set);
        }
    }
}

/// One source's row of single shortest paths via one BFS tree, with the
/// frontier shuffled (seeded per source) when `randomized`.
fn shortest_row(graph: &Graph, src: NodeId, randomized: bool, seed: u64) -> Vec<Box<PathSet>> {
    use crate::bfs::shortest_path_tree;
    let mut rng;
    let mut tiebreak = if randomized {
        rng = StdRng::seed_from_u64(pair_seed(seed, src, u32::MAX));
        TieBreak::Randomized(&mut rng)
    } else {
        TieBreak::Deterministic
    };
    let n = graph.num_nodes();
    let (dist, pred) = shortest_path_tree(graph, src, &mut tiebreak);
    let mut out = Vec::with_capacity(n);
    let mut scratch = Vec::new();
    for dst in 0..n as NodeId {
        if dst == src || dist[dst as usize] == u32::MAX {
            out.push(Box::default());
            continue;
        }
        scratch.clear();
        let mut cur = dst;
        while cur != src {
            scratch.push(cur);
            cur = pred[cur as usize];
        }
        scratch.push(src);
        scratch.reverse();
        out.push(PathSet::from_paths(std::slice::from_ref(&scratch)));
    }
    out
}

impl PathTable {
    /// Computes the table for `selection` over `pairs` on `graph`.
    ///
    /// `seed` drives the randomized schemes; per-pair seeds are derived so
    /// the result is independent of the parallel schedule.
    pub fn compute(graph: &Graph, selection: PathSelection, pairs: &PairSet, seed: u64) -> Self {
        let _span = jellyfish_obs::span("routing.table.compute");
        match pairs {
            PairSet::AllPairs => Self::compute_dense(graph, selection, seed, BLOCK_SLOTS),
            PairSet::Pairs(_) => {
                let list = pairs.materialize(graph.num_nodes());
                let mut b = TableBuilder::new(graph.num_nodes(), false);
                fill_blocks(&mut b, (graph, selection, seed), list.len(), BLOCK_SLOTS, |i| list[i]);
                b.finish(selection)
            }
        }
    }

    /// All-pairs [`PathTable::compute`], `block` pairs at a time.
    fn compute_dense(graph: &Graph, selection: PathSelection, seed: u64, block: usize) -> Self {
        let n = graph.num_nodes();
        let mut b = TableBuilder::new(n, true);
        fill_blocks(&mut b, (graph, selection, seed), n * n, block, |i| {
            ((i / n) as NodeId, (i % n) as NodeId)
        });
        b.finish(selection)
    }

    /// Dense all-pairs single-shortest-path table via one BFS tree per
    /// source — O(N·(N+E)) instead of the O(N²) independent searches of
    /// [`PathTable::compute`] with [`PathSelection::SinglePath`].
    ///
    /// With `randomized = false` the predecessor choice reproduces the
    /// deterministic low-rank bias; with `randomized = true` each source's
    /// BFS shuffles its frontier (seeded per source), giving uniformly
    /// random shortest paths. Used for vanilla UGAL's valiant legs.
    pub fn all_pairs_shortest(graph: &Graph, randomized: bool, seed: u64) -> Self {
        let _span = jellyfish_obs::span("routing.table.all_pairs_shortest");
        let rows = BLOCK_SLOTS.div_ceil(graph.num_nodes().max(1));
        Self::shortest_rows(graph, randomized, seed, rows)
    }

    /// [`PathTable::all_pairs_shortest`], `block_rows` sources at a time.
    fn shortest_rows(graph: &Graph, randomized: bool, seed: u64, block_rows: usize) -> Self {
        let n = graph.num_nodes();
        let mut b = TableBuilder::new(n, true);
        for lo in (0..n).step_by(block_rows.max(1)) {
            let hi = (lo + block_rows.max(1)).min(n);
            let rows: Vec<Vec<Box<PathSet>>> = (lo..hi)
                .into_par_iter()
                .map(|src| shortest_row(graph, src as NodeId, randomized, seed))
                .collect();
            for (src, row) in (lo..hi).zip(&rows) {
                for (dst, set) in row.iter().enumerate() {
                    b.push((src as NodeId, dst as NodeId), set);
                }
            }
        }
        b.finish(PathSelection::SinglePath)
    }

    /// Builds a pair-subset table directly from explicit paths (used by
    /// the text deserializer and by tests); a later entry for a pair
    /// replaces an earlier one. The selection tag is set to
    /// [`PathSelection::SinglePath`] since the originating scheme cannot
    /// be recovered from its output.
    pub fn from_paths<'p>(
        n: usize,
        entries: impl Iterator<Item = ((NodeId, NodeId), &'p [Vec<NodeId>])>,
    ) -> Self {
        let mut sets: Vec<((NodeId, NodeId), Box<PathSet>)> =
            entries.map(|(pair, paths)| (pair, PathSet::from_paths(paths))).collect();
        sets.sort_by_key(|&(pair, _)| pair);
        let mut b = TableBuilder::new(n, false);
        for (i, (pair, set)) in sets.iter().enumerate() {
            if sets.get(i + 1).is_none_or(|(next, _)| next != pair) {
                b.push(*pair, set);
            }
        }
        b.finish(PathSelection::SinglePath)
    }

    /// Whether this table covers all ordered pairs (cache metadata).
    pub(crate) fn is_dense(&self) -> bool {
        self.keys.is_none()
    }

    /// The scheme this table was computed with.
    pub fn selection(&self) -> PathSelection {
        self.selection
    }

    /// Number of switches in the underlying graph.
    pub fn num_switches(&self) -> usize {
        self.n
    }

    /// Longest path (hops) in the table — sizes the simulator's VC count.
    pub fn max_hops(&self) -> usize {
        self.max_hops
    }

    fn slots(&self) -> usize {
        self.starts.len()
    }

    #[inline]
    fn set_at(&self, slot: usize) -> &PathSet {
        PathSet::at(&self.blocks[slot / BLOCK_SLOTS][self.starts[slot] as usize..])
    }

    #[inline]
    fn slot_of(&self, s: NodeId, d: NodeId) -> Option<usize> {
        match &self.keys {
            None => ((s as usize) < self.n && (d as usize) < self.n)
                .then(|| s as usize * self.n + d as usize),
            Some(keys) => keys.binary_search(&pack(s, d)).ok(),
        }
    }

    /// Every slot as `(s, d, paths)`, in `(s, d)` order.
    fn slots_iter(&self) -> impl Iterator<Item = (NodeId, NodeId, &PathSet)> + '_ {
        (0..self.slots()).map(move |i| {
            let (s, d) = match &self.keys {
                None => ((i / self.n) as NodeId, (i % self.n) as NodeId),
                Some(keys) => ((keys[i] >> 32) as NodeId, keys[i] as NodeId),
            };
            (s, d, self.set_at(i))
        })
    }

    /// The paths for ordered pair `(s, d)`, if covered by this table.
    #[inline]
    pub fn get(&self, s: NodeId, d: NodeId) -> Option<&PathSet> {
        self.slot_of(s, d).map(|slot| self.set_at(slot))
    }

    /// Iterates over all `(s, d, paths)` entries with at least one path,
    /// in `(s, d)` order.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, NodeId, &PathSet)> + '_ {
        self.slots_iter().filter(|(_, _, ps)| !ps.is_empty())
    }

    /// Number of pairs stored (with at least one path).
    pub fn num_pairs(&self) -> usize {
        self.entries().count()
    }

    /// Every stored pair in `(s, d)` order, *including* pairs whose path
    /// set is empty — the binary cache must reproduce pair coverage
    /// exactly, and `get()` distinguishes "covered but empty" from "not
    /// covered". Dense tables skip the (always empty) diagonal, which the
    /// loader reconstructs.
    pub(crate) fn cache_entries(&self) -> impl Iterator<Item = (NodeId, NodeId, &PathSet)> + '_ {
        self.slots_iter().filter(|&(s, d, _)| self.keys.is_some() || s != d)
    }

    /// Scans for the paths that cross a failed link or switch of `view`
    /// and announces the result on the event journal (`faults-applied`).
    /// Changes nothing.
    fn fault_report(&self, view: &DegradedGraph) -> FaultReport {
        let mut report = FaultReport::default();
        for (src, dst, ps) in self.slots_iter() {
            let before = ps.len();
            let after = ps.iter().filter(|p| view.path_is_live(p)).count();
            if after < before {
                report.affected.push(PairSurvival {
                    src,
                    dst,
                    paths_before: before,
                    paths_after: after,
                });
                report.paths_removed += before - after;
                if after == 0 {
                    report.disconnected_pairs += 1;
                }
            }
        }
        jellyfish_obs::journal::publish(
            0,
            jellyfish_obs::journal::EventKind::FaultsApplied {
                affected_pairs: report.affected.len() as u64,
                paths_removed: report.paths_removed as u64,
                disconnected_pairs: report.disconnected_pairs as u64,
            },
        );
        report
    }

    /// Drops every stored path that crosses a failed link or switch of
    /// `view`, returning per-pair surviving-path counts.
    ///
    /// The table's pair coverage is unchanged — a pair all of whose paths
    /// died keeps an empty [`PathSet`] and shows up in the report's
    /// `disconnected_pairs`. Call [`PathTable::repair`] afterwards to
    /// recompute routes for the affected pairs on the degraded fabric, or
    /// [`PathTable::rerouted`] to do both in one pass.
    pub fn apply_faults(&mut self, view: &DegradedGraph) -> FaultReport {
        let _span = jellyfish_obs::span("routing.table.apply_faults");
        let report = self.fault_report(view);
        if !report.affected.is_empty() {
            self.retain_paths(|p| view.path_is_live(p));
        }
        report
    }

    /// Drops every path longer than `limit` hops and recomputes
    /// `max_hops`.
    ///
    /// Used after [`PathTable::repair`]: a repaired route can be longer
    /// than anything in the original table, and consumers that sized
    /// per-hop resources from the original `max_hops` (e.g. the
    /// simulator's hop-indexed virtual channels) cannot carry it.
    pub fn retain_max_hops(&mut self, limit: usize) {
        if self.max_hops > limit {
            self.retain_paths(|p| p.len() - 1 <= limit);
        }
    }

    /// Keeps only the paths `keep` accepts, compacting each arena block
    /// in place: a filtered record is never longer than the original, so
    /// it can always be written at or before where that record started.
    fn retain_paths(&mut self, mut keep: impl FnMut(&[NodeId]) -> bool) {
        let mut kept: Vec<usize> = Vec::new();
        let mut scratch: Vec<NodeId> = Vec::new();
        let mut max_hops = 0;
        let slots = self.slots();
        for (b, block) in self.blocks.iter_mut().enumerate() {
            let mut arena = std::mem::take(block).into_vec();
            let mut write = 0usize;
            for slot in b * BLOCK_SLOTS..slots.min((b + 1) * BLOCK_SLOTS) {
                let read = self.starts[slot] as usize;
                let set = PathSet::at(&arena[read..]);
                kept.clear();
                kept.extend((0..set.len()).filter(|&i| keep(set.path(i))));
                let len = if kept.len() == set.len() {
                    let len = set.record().len();
                    arena.copy_within(read..read + len, write);
                    len
                } else {
                    scratch.clear();
                    push_record(&mut scratch, kept.iter().map(|&i| set.path(i)));
                    arena[write..write + scratch.len()].copy_from_slice(&scratch);
                    scratch.len()
                };
                self.starts[slot] = write as u32;
                max_hops = max_hops.max(PathSet::view(&arena[write..write + len]).max_hops());
                write += len;
            }
            arena.truncate(write);
            *block = arena.into_boxed_slice();
        }
        self.max_hops = max_hops;
    }

    /// Recomputes this table's selection for `pairs` on `graph`, in
    /// parallel, each set sorted shortest-first.
    fn reroute(
        &self,
        graph: &Graph,
        pairs: &[(NodeId, NodeId)],
        seed: u64,
        span: &'static str,
    ) -> Vec<Box<PathSet>> {
        let selection = self.selection;
        pairs
            .par_iter()
            .map(|&(s, d)| {
                let _t = jellyfish_obs::trace::span(span);
                with_thread_workspace(graph, |ws| {
                    let mut paths = selection.paths_for_pair_with(graph, s, d, seed, ws);
                    // The schemes emit length-sorted paths already, but
                    // enforce the ordering here so rerouted pairs keep
                    // the shortest-first invariant that minimal-path
                    // consumers (UGAL) and tests may rely on, whatever
                    // the scheme. Stable: equal-length paths keep their
                    // scheme-given order.
                    paths.sort_by_key(Vec::len);
                    PathSet::from_paths(&paths)
                })
            })
            .collect()
    }

    /// This table on `n` switches with each of `pairs` (ascending)
    /// recomputed on `graph` — the one row merge behind
    /// [`PathTable::repair`], [`PathTable::rerouted`] and
    /// [`PathTable::extend`]. Returns it with the number of recomputed
    /// pairs left with at least one path.
    ///
    /// One pass: the recomputed sets come [`BLOCK_SLOTS`] pairs at a time,
    /// and each block is merged with the untouched records before the
    /// next is computed, so the side buffer never exceeds one block. A
    /// pair-subset table gains any pair it lacked; an all-pairs table
    /// grown to `n` fills its new pairs with empty sets unless `pairs`
    /// names them.
    fn merged(
        &self,
        n: usize,
        pairs: &[(NodeId, NodeId)],
        graph: &Graph,
        seed: u64,
        span: &'static str,
    ) -> (PathTable, usize) {
        debug_assert!(pairs.windows(2).all(|w| w[0] < w[1]), "merge pairs must ascend");
        let mut b = TableBuilder::new(n, self.is_dense());
        b.hint(self.blocks.first().map_or(0, |block| block.len()));
        let mut old: Box<dyn Iterator<Item = (NodeId, NodeId, &PathSet)>> = if self.is_dense() {
            Box::new((0..n * n).map(move |i| {
                let (s, d) = ((i / n) as NodeId, (i % n) as NodeId);
                (s, d, self.get(s, d).unwrap_or(PathSet::empty()))
            }))
        } else {
            Box::new(self.slots_iter())
        };
        let mut next_old = old.next();
        let mut connected = 0;
        for chunk in pairs.chunks(BLOCK_SLOTS) {
            let sets = self.reroute(graph, chunk, seed, span);
            for (&pair, set) in chunk.iter().zip(&sets) {
                while let Some((s, d, kept)) = next_old.filter(|&(s, d, _)| (s, d) < pair) {
                    b.push((s, d), kept);
                    next_old = old.next();
                }
                if next_old.is_some_and(|(s, d, _)| (s, d) == pair) {
                    next_old = old.next();
                }
                connected += usize::from(!set.is_empty());
                b.push(pair, set);
            }
        }
        while let Some((s, d, kept)) = next_old {
            b.push((s, d), kept);
            next_old = old.next();
        }
        (b.finish(self.selection), connected)
    }

    /// Recomputes this table's selection for `pairs` on the surviving
    /// fabric of `view`, in parallel, and swaps the results in.
    ///
    /// Only the given pairs are touched (typically
    /// [`FaultReport::affected_pairs`]); everything else keeps its
    /// original routes, so repair cost scales with the damage rather than
    /// with the fabric. Pairs that the degraded fabric no longer connects
    /// end up with an empty path set. Returns the number of pairs that
    /// have at least one live path after repair.
    pub fn repair(&mut self, view: &DegradedGraph, pairs: &[(NodeId, NodeId)], seed: u64) -> usize {
        let _span = jellyfish_obs::span("routing.table.repair");
        let mut sorted = pairs.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        // `max_hops` is recomputed exactly by the merge: a repair that
        // replaces the table's longest detour with shorter routes must
        // *lower* it, or the simulator keeps oversizing its hop-indexed
        // virtual channels from a stale high-water mark.
        let (table, reconnected) =
            self.merged(self.n, &sorted, &view.materialize(), seed, "routing.pair.repair");
        *self = table;
        jellyfish_obs::journal::publish(
            0,
            jellyfish_obs::journal::EventKind::PairsRepaired { repaired: pairs.len() as u64 },
        );
        reconnected
    }

    /// The table rerouted around the faults of `view`, built in one pass
    /// from this one: the same result, report and repaired count as
    /// cloning it, calling [`PathTable::apply_faults`], then
    /// [`PathTable::repair`] on the affected pairs — without the clone.
    /// Unaffected pairs' records are copied once; affected pairs are
    /// recomputed on the degraded fabric a block at a time and merged in.
    pub fn rerouted(&self, view: &DegradedGraph, seed: u64) -> (PathTable, FaultReport, usize) {
        let _span = jellyfish_obs::span("routing.table.rerouted");
        let report = self.fault_report(view);
        let pairs = report.affected_pairs();
        let (table, repaired) =
            self.merged(self.n, &pairs, &view.materialize(), seed, "routing.pair.repair");
        jellyfish_obs::journal::publish(
            0,
            jellyfish_obs::journal::EventKind::PairsRepaired { repaired: pairs.len() as u64 },
        );
        (table, report, repaired)
    }

    /// Approximate resident heap bytes of the table (the memory gauge the
    /// scale benchmarks report).
    pub fn resident_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.len() * std::mem::size_of::<NodeId>()).sum::<usize>()
            + self.blocks.capacity() * std::mem::size_of::<Box<[NodeId]>>()
            + self.starts.capacity() * std::mem::size_of::<u32>()
            + self.keys.as_ref().map_or(0, |k| k.capacity() * std::mem::size_of::<u64>())
    }

    /// [`PathTable::compute`] over all pairs, `block_rows` sources at a
    /// time, so the transient per-pair sets never exceed one row block
    /// (`block_rows * n` pairs) next to the arena. The result equals
    /// `PathTable::compute(graph, selection, &PairSet::AllPairs, seed)`:
    /// per-pair seeding makes each pair's paths independent of
    /// scheduling, and [`PathSelection::SinglePath`] rows take the same
    /// per-source BFS tree as [`PathTable::all_pairs_shortest`] (pinned
    /// equivalent by `all_pairs_shortest_matches_per_pair_search`).
    pub fn compute_streaming(
        graph: &Graph,
        selection: PathSelection,
        seed: u64,
        block_rows: usize,
    ) -> Self {
        let _span = jellyfish_obs::span("routing.table.compute_streaming");
        let block_rows = block_rows.max(1);
        match selection {
            PathSelection::SinglePath => Self::shortest_rows(graph, false, seed, block_rows),
            _ => Self::compute_dense(graph, selection, seed, block_rows * graph.num_nodes()),
        }
    }

    /// Grows this table to cover `grown` (a graph expanded from this
    /// table's fabric, e.g. by `expand_rrg`) and repairs exactly the
    /// pairs whose stored routes crossed a `removed` edge, plus — for
    /// dense all-pairs tables — the pairs that involve a new switch.
    ///
    /// Everything else keeps its original routes untouched, so the cost
    /// scales with the recabling damage plus the added rows, not with
    /// `n^2`. Untouched routes are still *valid* on the grown graph
    /// (expansion only removes the `removed` edges; every other old edge
    /// survives) but may no longer be *shortest* — that drift is what
    /// `jellytool expand` quantifies against a fresh rebuild.
    ///
    /// Recomputed pairs use the same per-pair seeding as
    /// [`PathTable::compute`], so for those pairs the result is exactly
    /// what a fresh compute on `grown` would produce.
    pub fn extend(
        &mut self,
        grown: &Graph,
        removed: &[(NodeId, NodeId)],
        seed: u64,
    ) -> ExtendReport {
        let _span = jellyfish_obs::span("routing.table.extend");
        let old_n = self.n;
        let new_n = grown.num_nodes();
        assert!(new_n >= old_n, "extend cannot shrink the fabric ({old_n} -> {new_n})");

        // Pairs whose stored routes crossed a recabled-away edge.
        let removed_set: std::collections::HashSet<(NodeId, NodeId)> =
            removed.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        let mut pairs: Vec<(NodeId, NodeId)> = self
            .entries()
            .filter_map(|(s, d, ps)| ps.crosses(&removed_set).then_some((s, d)))
            .collect();
        let affected_pairs = pairs.len();

        // Dense tables promise all-pairs coverage: add every pair that
        // touches a new switch. Sparse tables keep their explicit pair
        // list — callers add pairs by recomputing, not by extension.
        let mut new_pairs = 0usize;
        if self.is_dense() {
            for s in 0..new_n as NodeId {
                for d in 0..new_n as NodeId {
                    if s != d && (s as usize >= old_n || d as usize >= old_n) {
                        pairs.push((s, d));
                        new_pairs += 1;
                    }
                }
            }
        }
        pairs.sort_unstable();

        let (table, reconnected) = self.merged(new_n, &pairs, grown, seed, "routing.pair.extend");
        *self = table;
        let report = ExtendReport { affected_pairs, new_pairs, reconnected };
        jellyfish_obs::journal::publish(
            0,
            jellyfish_obs::journal::EventKind::TableExtended {
                affected_pairs: report.affected_pairs as u64,
                new_pairs: report.new_pairs as u64,
                repaired: report.repaired() as u64,
                reconnected: report.reconnected as u64,
            },
        );
        report
    }
}

/// One pair's paths under `selection` (empty on the diagonal).
fn pair_set(
    graph: &Graph,
    selection: PathSelection,
    s: NodeId,
    d: NodeId,
    seed: u64,
) -> Box<PathSet> {
    if s == d {
        return Box::default();
    }
    let _t = jellyfish_obs::trace::span("routing.pair.compute");
    with_thread_workspace(graph, |ws| {
        PathSet::from_paths(&selection.paths_for_pair_with(graph, s, d, seed, ws))
    })
}

/// What [`PathTable::extend`] recomputed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtendReport {
    /// Pre-existing pairs whose routes crossed a recabled edge.
    pub affected_pairs: usize,
    /// Pairs involving a newly added switch (dense tables only).
    pub new_pairs: usize,
    /// Recomputed pairs that ended up with at least one path.
    pub reconnected: usize,
}

impl ExtendReport {
    /// Total pairs recomputed.
    pub fn repaired(&self) -> usize {
        self.affected_pairs + self.new_pairs
    }
}

/// Surviving-path count of one pair after [`PathTable::apply_faults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairSurvival {
    /// Source switch.
    pub src: NodeId,
    /// Destination switch.
    pub dst: NodeId,
    /// Paths the pair had before masking.
    pub paths_before: usize,
    /// Paths that survived.
    pub paths_after: usize,
}

/// What [`PathTable::apply_faults`] removed.
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// Every pair that lost at least one path, sorted by `(src, dst)`.
    pub affected: Vec<PairSurvival>,
    /// Total paths dropped across all pairs.
    pub paths_removed: usize,
    /// Pairs left with zero paths.
    pub disconnected_pairs: usize,
}

impl FaultReport {
    /// The affected pairs, ready to hand to [`PathTable::repair`].
    pub fn affected_pairs(&self) -> Vec<(NodeId, NodeId)> {
        self.affected.iter().map(|p| (p.src, p.dst)).collect()
    }

    /// Fewest surviving paths over all affected pairs (`None` if nothing
    /// was affected).
    pub fn min_surviving(&self) -> Option<usize> {
        self.affected.iter().map(|p| p.paths_after).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_topology::{build_rrg, ConstructionMethod, RrgParams};

    fn small_graph() -> Graph {
        build_rrg(RrgParams::new(16, 8, 5), ConstructionMethod::Incremental, 9).unwrap()
    }

    #[test]
    fn pathset_layout() {
        let ps = PathSet::from_paths(&[vec![0, 1, 2], vec![0, 3, 4, 2]]);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.path(0), &[0, 1, 2]);
        assert_eq!(ps.path(1), &[0, 3, 4, 2]);
        assert_eq!(ps.hops(0), 2);
        assert_eq!(ps.hops(1), 3);
        assert_eq!(ps.max_hops(), 3);
        assert_eq!(ps.iter().count(), 2);
    }

    #[test]
    fn empty_pathset() {
        let ps = PathSet::empty();
        assert!(ps.is_empty());
        assert_eq!(ps.max_hops(), 0);
        assert_eq!(&*Box::<PathSet>::default(), ps);
    }

    /// `from_paths` then `iter` hands back exactly the paths it was
    /// given, for empty sets too, and an all-pairs table's diagonal is
    /// covered by empty records.
    #[test]
    fn records_round_trip_paths() {
        let cases: [Vec<Path>; 3] = [
            vec![],
            vec![vec![4, 2]],
            vec![vec![3, 7, 2, 9], vec![3, 9], vec![3, 1, 0, 4, 9], vec![3, 7, 5, 9]],
        ];
        for paths in cases {
            let set = PathSet::from_paths(&paths);
            assert_eq!(set.len(), paths.len());
            assert_eq!(set.iter().map(<[NodeId]>::to_vec).collect::<Vec<_>>(), paths);
            for (i, p) in paths.iter().enumerate() {
                assert_eq!(set.path(i), &p[..]);
                assert_eq!(set.hops(i), p.len() - 1);
            }
            assert_eq!(set.clone(), set);
            assert_eq!(&*(*set).to_owned(), &*set);
        }
        assert_eq!(&*PathSet::from_paths(&[]), PathSet::empty());
        let t = PathTable::compute(&small_graph(), PathSelection::Ksp(2), &PairSet::AllPairs, 0);
        for s in 0..16u32 {
            let diagonal = t.get(s, s).expect("the diagonal is covered");
            assert_eq!(diagonal, PathSet::empty());
            assert_eq!(diagonal.iter().count(), 0);
        }
        // Dense lookups are bounds-checked per coordinate.
        assert!(t.get(0, 16).is_none() && t.get(16, 0).is_none());
    }

    #[test]
    fn selection_names_match_paper_notation() {
        assert_eq!(PathSelection::Ksp(8).name(), "KSP(8)");
        assert_eq!(PathSelection::RKsp(8).name(), "rKSP(8)");
        assert_eq!(PathSelection::EdKsp(16).name(), "EDKSP(16)");
        assert_eq!(PathSelection::REdKsp(8).name(), "rEDKSP(8)");
        assert_eq!(PathSelection::SinglePath.name(), "SP");
    }

    #[test]
    fn dense_table_covers_all_pairs() {
        let g = small_graph();
        let t = PathTable::compute(&g, PathSelection::Ksp(4), &PairSet::AllPairs, 0);
        assert_eq!(t.num_pairs(), 16 * 15);
        for s in 0..16u32 {
            for d in 0..16u32 {
                let ps = t.get(s, d).unwrap();
                if s == d {
                    assert!(ps.is_empty());
                } else {
                    assert_eq!(ps.len(), 4, "{s}->{d}");
                    for p in ps.iter() {
                        assert_eq!(p[0], s);
                        assert_eq!(*p.last().unwrap(), d);
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_table_covers_requested_pairs_only() {
        let g = small_graph();
        let pairs = PairSet::Pairs(vec![(0, 1), (2, 3), (2, 3), (5, 5)]);
        let t = PathTable::compute(&g, PathSelection::REdKsp(4), &pairs, 1);
        assert_eq!(t.num_pairs(), 2); // dedup + self-pair dropped
        assert!(t.get(0, 1).is_some());
        assert!(t.get(1, 0).is_none());
        assert!(t.get(5, 5).is_none());
    }

    #[test]
    fn randomized_table_is_deterministic_per_seed() {
        let g = small_graph();
        let pairs = PairSet::Pairs(vec![(0, 1), (4, 9), (12, 3)]);
        let a = PathTable::compute(&g, PathSelection::RKsp(4), &pairs, 42);
        let b = PathTable::compute(&g, PathSelection::RKsp(4), &pairs, 42);
        for (s, d, ps) in a.entries() {
            assert_eq!(Some(ps), b.get(s, d));
        }
        // And (overwhelmingly likely) different across seeds.
        let c = PathTable::compute(&g, PathSelection::RKsp(4), &pairs, 43);
        let differs = a.entries().any(|(s, d, ps)| c.get(s, d) != Some(ps));
        assert!(differs);
    }

    #[test]
    fn single_path_tables_have_one_shortest_path() {
        let g = small_graph();
        let t = PathTable::compute(&g, PathSelection::SinglePath, &PairSet::AllPairs, 0);
        for (s, d, ps) in t.entries() {
            assert_eq!(ps.len(), 1);
            assert!(s != d);
        }
    }

    #[test]
    fn max_hops_bounds_every_path() {
        let g = small_graph();
        let t = PathTable::compute(&g, PathSelection::REdKsp(5), &PairSet::AllPairs, 3);
        let m = t.max_hops();
        assert!(m >= 1);
        for (_, _, ps) in t.entries() {
            for p in ps.iter() {
                assert!(p.len() - 1 <= m);
            }
        }
    }

    #[test]
    fn edksp_tables_are_edge_disjoint_per_pair() {
        let g = small_graph();
        let t = PathTable::compute(&g, PathSelection::EdKsp(4), &PairSet::AllPairs, 0);
        for (_, _, ps) in t.entries() {
            let paths: Vec<Vec<NodeId>> = ps.iter().map(|p| p.to_vec()).collect();
            assert!(crate::disjoint::are_edge_disjoint(&g, &paths));
        }
    }

    #[test]
    fn all_pairs_shortest_matches_per_pair_search() {
        let g = small_graph();
        let fast = PathTable::all_pairs_shortest(&g, false, 0);
        let slow = PathTable::compute(&g, PathSelection::SinglePath, &PairSet::AllPairs, 0);
        for s in 0..16u32 {
            for d in 0..16u32 {
                if s == d {
                    continue;
                }
                assert_eq!(
                    fast.get(s, d).unwrap().path(0),
                    slow.get(s, d).unwrap().path(0),
                    "{s}->{d}"
                );
            }
        }
        assert_eq!(fast.max_hops(), slow.max_hops());
    }

    #[test]
    fn all_pairs_shortest_randomized_has_correct_lengths() {
        let g = small_graph();
        let det = PathTable::all_pairs_shortest(&g, false, 0);
        let rnd = PathTable::all_pairs_shortest(&g, true, 7);
        let mut any_different = false;
        for s in 0..16u32 {
            for d in 0..16u32 {
                if s == d {
                    continue;
                }
                let a = det.get(s, d).unwrap().path(0);
                let b = rnd.get(s, d).unwrap().path(0);
                assert_eq!(a.len(), b.len(), "{s}->{d} length differs");
                any_different |= a != b;
            }
        }
        assert!(any_different, "randomization should change at least one path");
        // Determinism per seed.
        let rnd2 = PathTable::all_pairs_shortest(&g, true, 7);
        for (s, d, ps) in rnd.entries() {
            assert_eq!(rnd2.get(s, d), Some(ps));
        }
    }

    #[test]
    fn pair_set_materialize() {
        assert_eq!(PairSet::AllPairs.materialize(3).len(), 6);
        let p = PairSet::Pairs(vec![(1, 0), (0, 1), (1, 0), (2, 2)]);
        assert_eq!(p.materialize(3), vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn apply_faults_masks_only_dead_paths() {
        use jellyfish_topology::{DegradedGraph, FaultPlan};
        let g = small_graph();
        let mut t = PathTable::compute(&g, PathSelection::Ksp(4), &PairSet::AllPairs, 0);
        let pristine = t.clone();
        let plan = FaultPlan::random_links(&g, 0.08, 0, 21);
        let view = DegradedGraph::at_time(&g, &plan, 0);
        let report = t.apply_faults(&view);
        assert!(report.paths_removed > 0, "an 8% cut should hit some path");
        assert_eq!(
            report.paths_removed,
            report.affected.iter().map(|p| p.paths_before - p.paths_after).sum::<usize>()
        );
        // Survivors are live, untouched pairs keep their exact paths.
        let affected: std::collections::HashSet<(NodeId, NodeId)> =
            report.affected_pairs().into_iter().collect();
        for (s, d, ps) in t.entries() {
            for p in ps.iter() {
                assert!(view.path_is_live(p), "{s}->{d} kept a dead path");
            }
            if !affected.contains(&(s, d)) {
                assert_eq!(Some(ps), pristine.get(s, d));
            }
        }
    }

    #[test]
    fn apply_faults_on_live_view_is_a_no_op() {
        let g = small_graph();
        let mut t = PathTable::compute(&g, PathSelection::REdKsp(4), &PairSet::AllPairs, 5);
        let view = jellyfish_topology::DegradedGraph::new(&g);
        let report = t.apply_faults(&view);
        assert!(report.affected.is_empty());
        assert_eq!(report.paths_removed, 0);
        assert_eq!(report.min_surviving(), None);
    }

    #[test]
    fn repair_restores_affected_pairs_on_surviving_fabric() {
        use jellyfish_topology::{DegradedGraph, FaultPlan};
        let g = small_graph();
        let mut t = PathTable::compute(&g, PathSelection::Ksp(4), &PairSet::AllPairs, 0);
        let plan = FaultPlan::random_links(&g, 0.1, 0, 33);
        let view = DegradedGraph::at_time(&g, &plan, 0);
        let report = t.apply_faults(&view);
        assert!(!report.affected.is_empty());
        let reconnected = t.repair(&view, &report.affected_pairs(), 0);
        // A 10% cut of a degree-5 RRG overwhelmingly stays connected, so
        // every affected pair should come back at full strength.
        assert_eq!(reconnected, report.affected.len());
        for p in &report.affected {
            let ps = t.get(p.src, p.dst).unwrap();
            assert_eq!(ps.len(), 4, "{}->{} not repaired", p.src, p.dst);
            for path in ps.iter() {
                assert!(view.path_is_live(path), "repair produced a dead path");
            }
        }
    }

    /// Regression: `repair` used to only ever *raise* `max_hops`
    /// (`self.max_hops.max(...)`), so replacing the table's longest
    /// detour with a shorter recomputed route left a stale high-water
    /// mark and oversized the simulator's hop-indexed virtual channels.
    #[test]
    fn repair_lowers_stale_max_hops() {
        use jellyfish_topology::DegradedGraph;
        // A 5-cycle: 0-1-2-3-4-0. The direct edge 0-4 exists, but the
        // loaded table routes 0->4 the long way round (4 hops).
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let detour = vec![vec![0, 1, 2, 3, 4]];
        let mut t = PathTable::from_paths(5, [((0u32, 4u32), detour.as_slice())].into_iter());
        assert_eq!(t.max_hops(), 4);
        // Repairing the pair on a fully live fabric recomputes the
        // single shortest path (0-4, one hop): max_hops must drop.
        let view = DegradedGraph::new(&g);
        let reconnected = t.repair(&view, &[(0, 4)], 0);
        assert_eq!(reconnected, 1);
        assert_eq!(t.get(0, 4).unwrap().path(0), &[0, 4]);
        assert_eq!(t.max_hops(), 1, "repair must recompute max_hops exactly");
    }

    #[test]
    fn shortest_index_selects_by_length_keeping_first_on_ties() {
        // Unsorted set, the layout a deserialized table may present.
        let ps = PathSet::from_paths(&[vec![0, 1, 2, 3], vec![0, 2, 3], vec![0, 3]]);
        assert_eq!(ps.shortest_index(), 2);
        // Sorted sets keep index 0, including on ties at minimal length.
        let tie = PathSet::from_paths(&[vec![0, 1, 3], vec![0, 2, 3], vec![0, 4, 5, 3]]);
        assert_eq!(tie.shortest_index(), 0);
        assert_eq!(PathSet::empty().shortest_index(), 0);
    }

    #[test]
    fn repaired_pairs_are_length_sorted_shortest_first() {
        use jellyfish_topology::{DegradedGraph, FaultPlan};
        let g = small_graph();
        let mut t = PathTable::compute(&g, PathSelection::Ksp(4), &PairSet::AllPairs, 0);
        let plan = FaultPlan::random_links(&g, 0.1, 0, 33);
        let view = DegradedGraph::at_time(&g, &plan, 0);
        let report = t.apply_faults(&view);
        assert!(!report.affected.is_empty());
        t.repair(&view, &report.affected_pairs(), 0);
        // Minimal-path consumers (UGAL) take `path(0)` as the minimal
        // route, so every repaired pair must come back shortest-first.
        for p in &report.affected {
            let ps = t.get(p.src, p.dst).unwrap();
            assert!(!ps.is_empty());
            assert_eq!(ps.shortest_index(), 0, "{}->{} not shortest-first", p.src, p.dst);
            for i in 1..ps.len() {
                assert!(ps.hops(i - 1) <= ps.hops(i), "{}->{} unsorted after repair", p.src, p.dst);
            }
        }
    }

    #[test]
    fn apply_faults_and_repair_work_on_sparse_tables() {
        use jellyfish_topology::{DegradedGraph, FaultPlan};
        let g = small_graph();
        let pairs = PairSet::Pairs(vec![(0, 9), (9, 0), (3, 12), (7, 2)]);
        let mut t = PathTable::compute(&g, PathSelection::EdKsp(3), &pairs, 0);
        let plan = FaultPlan::random_links(&g, 0.2, 0, 4);
        let view = DegradedGraph::at_time(&g, &plan, 0);
        let report = t.apply_faults(&view);
        let windows_sorted =
            report.affected.windows(2).all(|w| (w[0].src, w[0].dst) < (w[1].src, w[1].dst));
        assert!(windows_sorted, "report must be sorted for determinism");
        t.repair(&view, &report.affected_pairs(), 0);
        assert_eq!(t.num_pairs(), 4, "repair must not change pair coverage");
        for (_, _, ps) in t.entries() {
            for path in ps.iter() {
                assert!(view.path_is_live(path));
            }
        }
    }

    #[test]
    fn record_stream_round_trips_and_rejects_corruption() {
        let set = PathSet::from_paths(&[vec![5, 2, 8], vec![5, 2, 9], vec![5, 1, 0, 9]]);
        let (ends, nodes) = set.parts();
        let mut stream = Vec::new();
        encode_stream_into(nodes, ends, &mut stream);
        let decode = |stream: &[u8]| {
            let mut out = vec![7]; // decoding appends after what is there
            decode_record_into(&mut out, ends, stream).map(|()| out[1..].to_vec())
        };
        assert_eq!(decode(&stream).as_deref(), Some(set.record()));
        // Truncated stream.
        assert!(decode(&stream[..stream.len() - 1]).is_none());
        // Trailing garbage.
        let mut long = stream.clone();
        long.push(0);
        assert!(decode(&long).is_none());
        // A prefix longer than the previous path.
        assert!(decode(&[1, 10]).is_none());
    }

    #[test]
    fn arena_costs_one_word_per_entry() {
        let g = small_graph();
        let t = PathTable::compute(&g, PathSelection::EdKsp(4), &PairSet::AllPairs, 2);
        let words: usize = (0..16u32)
            .flat_map(|s| (0..16u32).map(move |d| (s, d)))
            .map(|(s, d)| {
                let ps = t.get(s, d).unwrap();
                1 + ps.len() + ps.iter().map(<[NodeId]>::len).sum::<usize>()
            })
            .sum();
        // One record per slot (count + ends + nodes) plus one start per
        // slot; 256 slots fit in one block.
        let exact = 4 * (words + 16 * 16) + std::mem::size_of::<Box<[NodeId]>>();
        assert_eq!(t.resident_bytes(), exact);
    }

    #[test]
    fn streaming_build_equals_compute() {
        let g = small_graph();
        for sel in [PathSelection::SinglePath, PathSelection::RKsp(3), PathSelection::EdKsp(2)] {
            let direct = PathTable::compute(&g, sel, &PairSet::AllPairs, 11);
            // Deliberately awkward block size to cross row boundaries.
            let streamed = PathTable::compute_streaming(&g, sel, 11, 5);
            assert_eq!(streamed, direct, "{}", sel.name());
            assert_eq!(streamed.max_hops(), direct.max_hops());
            assert!(streamed.resident_bytes() <= direct.resident_bytes());
        }
    }

    /// `rerouted` is clone + `apply_faults` + `repair(affected)` in one
    /// pass, on all-pairs and pair-subset tables alike.
    #[test]
    fn rerouted_equals_clone_mask_repair() {
        use jellyfish_topology::{DegradedGraph, FaultPlan};
        let g = small_graph();
        let plan = FaultPlan::random_links(&g, 0.1, 0, 33);
        let view = DegradedGraph::at_time(&g, &plan, 0);
        let subset = PairSet::Pairs(vec![(0, 9), (9, 0), (3, 12), (7, 2), (15, 1)]);
        for pairs in [PairSet::AllPairs, subset] {
            let live = PathTable::compute(&g, PathSelection::REdKsp(4), &pairs, 5);
            let (table, report, repaired) = live.rerouted(&view, 9);
            let mut reference = live.clone();
            let expected = reference.apply_faults(&view);
            let expected_repaired = reference.repair(&view, &expected.affected_pairs(), 9);
            assert!(!expected.affected.is_empty());
            assert_eq!(table, reference);
            assert_eq!(report.affected, expected.affected);
            assert_eq!(report.paths_removed, expected.paths_removed);
            assert_eq!(report.disconnected_pairs, expected.disconnected_pairs);
            assert_eq!(repaired, expected_repaired);
        }
    }

    /// Tables larger than one arena block: lookups, the fault round and
    /// the row-block builder agree across block boundaries.
    #[test]
    fn multi_block_tables_agree_across_block_boundaries() {
        use jellyfish_topology::{DegradedGraph, FaultPlan};
        let g = build_rrg(RrgParams::new(72, 8, 5), ConstructionMethod::Incremental, 4).unwrap();
        let sel = PathSelection::RKsp(2);
        let subset =
            PairSet::Pairs((0..72u32).flat_map(|s| (0..72u32).map(move |d| (s, d))).collect());
        let dense = PathTable::compute(&g, sel, &PairSet::AllPairs, 3);
        let sparse = PathTable::compute(&g, sel, &subset, 3);
        assert!(dense.slots() > BLOCK_SLOTS && sparse.slots() > BLOCK_SLOTS);
        for (s, d, ps) in dense.entries() {
            let expected = sel.paths_for_pair(&g, s, d, 3);
            assert_eq!(ps.iter().map(<[NodeId]>::to_vec).collect::<Vec<_>>(), expected);
            assert_eq!(sparse.get(s, d), Some(ps));
        }
        assert_eq!(PathTable::compute_streaming(&g, sel, 3, 7), dense);
        let plan = FaultPlan::random_links(&g, 0.05, 0, 8);
        let view = DegradedGraph::at_time(&g, &plan, 0);
        for live in [dense, sparse] {
            let (table, report, repaired) = live.rerouted(&view, 1);
            let mut reference = live.clone();
            let expected = reference.apply_faults(&view);
            assert_eq!(report.affected, expected.affected);
            assert_eq!(repaired, reference.repair(&view, &expected.affected_pairs(), 1));
            assert_eq!(table, reference);
            let mut trimmed = table.clone();
            trimmed.retain_max_hops(table.max_hops() - 1);
            for (s, d, ps) in table.entries() {
                let kept: Vec<&[NodeId]> =
                    ps.iter().filter(|p| p.len() < table.max_hops() + 1).collect();
                let got: Vec<&[NodeId]> = trimmed.get(s, d).unwrap().iter().collect();
                assert_eq!(got, kept, "{s}->{d}");
            }
        }
    }

    /// Repairing a pair a pair-subset table lacks adds it, in key order.
    #[test]
    fn repair_inserts_missing_pairs_into_subset_tables() {
        let g = small_graph();
        let mut t = PathTable::compute(&g, PathSelection::Ksp(2), &PairSet::Pairs(vec![(5, 6)]), 0);
        let view = jellyfish_topology::DegradedGraph::new(&g);
        assert_eq!(t.repair(&view, &[(9, 1), (0, 3)], 0), 2);
        let pairs: Vec<(NodeId, NodeId)> = t.entries().map(|(s, d, _)| (s, d)).collect();
        assert_eq!(pairs, vec![(0, 3), (5, 6), (9, 1)]);
        let fresh =
            PathTable::compute(&g, PathSelection::Ksp(2), &PairSet::Pairs(pairs.clone()), 0);
        assert_eq!(t, fresh);
    }

    #[test]
    fn extend_repairs_exactly_the_stale_and_new_pairs() {
        use jellyfish_topology::expand_rrg;
        let params = RrgParams::new(16, 8, 5);
        let base = build_rrg(params, ConstructionMethod::Incremental, 9).unwrap();
        let (grown, _, plan) = expand_rrg(&base, params, 4, 77).unwrap();
        let mut t = PathTable::compute(&base, PathSelection::Ksp(4), &PairSet::AllPairs, 0);
        let before = t.clone();
        let report = t.extend(&grown, &plan.removed_edges(), 0);
        assert_eq!(t.num_switches(), 20);
        // Every pair touching a new switch was filled in.
        assert_eq!(report.new_pairs, 20 * 19 - 16 * 15);
        assert!(report.affected_pairs > 0, "recabling should cross some stored route");
        let fresh = PathTable::compute(&grown, PathSelection::Ksp(4), &PairSet::AllPairs, 0);
        let removed: std::collections::HashSet<(NodeId, NodeId)> =
            plan.removed_edges().into_iter().collect();
        let mut exact = 0usize;
        for s in 0..20u32 {
            for d in 0..20u32 {
                if s == d {
                    continue;
                }
                let got = t.get(s, d).unwrap();
                // Every stored route is valid on the grown graph...
                for p in got.iter() {
                    assert!(p.windows(2).all(|w| grown.has_edge(w[0], w[1])), "{s}->{d}");
                }
                // ...and repaired pairs match a fresh compute exactly
                // (same per-pair seeding). Untouched pairs may keep
                // longer-than-fresh routes: that is the measured drift.
                let was_repaired =
                    s >= 16 || d >= 16 || before.get(s, d).unwrap().crosses(&removed);
                if was_repaired {
                    assert_eq!(got, fresh.get(s, d).unwrap(), "{s}->{d}");
                    exact += 1;
                }
            }
        }
        assert!(exact >= report.new_pairs);
    }

    #[test]
    fn switch_failure_disconnects_pairs_through_it() {
        use jellyfish_topology::{DegradedGraph, FaultPlan};
        let g = small_graph();
        let mut t = PathTable::compute(&g, PathSelection::SinglePath, &PairSet::AllPairs, 0);
        let mut plan = FaultPlan::new();
        plan.add_switch_failure(0, 5);
        let view = DegradedGraph::at_time(&g, &plan, 0);
        let report = t.apply_faults(&view);
        // Every pair touching the dead switch lost its only path.
        for d in 0..16u32 {
            if d != 5 {
                assert!(t.get(5, d).unwrap().is_empty());
                assert!(t.get(d, 5).unwrap().is_empty());
            }
        }
        assert!(report.disconnected_pairs >= 2 * 15);
        // Repair cannot resurrect pairs whose endpoint is gone.
        let reconnected = t.repair(&view, &report.affected_pairs(), 0);
        assert!(t.get(5, 1).unwrap().is_empty());
        assert!(reconnected < report.affected.len());
    }
}

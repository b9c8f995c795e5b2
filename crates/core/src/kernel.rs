//! The precomputation-backed fixpoint kernel: `PairContext`, the
//! active-pair worklist, and the column-blocked parallel update.
//!
//! The seed implementation of formula (1) re-derived everything inside the
//! innermost loop: neighbor lists were walked through `NodeId` indirection,
//! the edge-compatibility factor `C = c·(1 − |Δf|/(f_o + f_i))` was
//! recomputed for every (outer, inner) neighbor pair on every iteration,
//! and three full `n1 × n2` grid scans ran per round. This module replaces
//! that hot path with three layers:
//!
//! 1. **[`PairContext`]** — a one-time substrate per engine: both graphs'
//!    direction-resolved neighbor lists flattened to CSR arrays
//!    ([`NeighborCsr`]), plus the `C`-factors precomputed per *frequency
//!    class*. Edge frequencies are trace-count fractions, so a graph has
//!    few distinct values; deduplicating them collapses the `C`-table from
//!    `O(E1·E2)` lane pairs to a cache-resident `classes1 × classes2`
//!    grid (two copies, one per scan orientation).
//! 2. **Per-iteration evaluation substrates** chosen by worklist density:
//!    - *Dense* ([`DenseScratch`]): when most pairs are still active, the
//!      per-outer-lane inner maxima `T[lane][node] = max C·S_prev` are
//!      materialized in one streaming pass (each source's `prev` row and
//!      the class table stay cache-hot), and a pair evaluation collapses
//!      to summing `deg` table lookups. Total candidate count is the same
//!      as the pairwise scan — the win is locality, every access hits a
//!      recently-touched line.
//!    - *Sparse*: when retirement has thinned the worklist, pairs are
//!      evaluated individually; a transposed copy of `prev` keeps the
//!      swapped scan orientation stride-1.
//! 3. **Active-pair worklist and column blocks** (owned by the engine):
//!    pairs past their Proposition-2 horizon or frozen by Proposition 4 are
//!    retired *once* instead of being re-tested by full-grid scans every
//!    round. Each iteration cuts the side-2 nodes into contiguous column
//!    blocks ([`PairContext::column_blocks`]), one per pool member. A
//!    member fills its block of the dense tables
//!    ([`PairContext::fill_block`]) and evaluates the surviving pairs whose
//!    `v2` lies in the block ([`block_pairs`], then
//!    [`PairContext::eval_chunk_dense`] or [`eval_chunk`]). A pair reads
//!    the dense tables only at its own column and that column's lanes, so
//!    a member reads and writes nothing but its own block, the shared
//!    previous matrix (Jacobi step) and a private output buffer; the
//!    update is order-independent. The serial path is the one-block case
//!    of the same code. What stays serial in the engine is the
//!    retirement scan, the per-pair substrates' transpose or CSR build,
//!    the scatter of block outputs into the next iterate, and the
//!    telemetry.
//!
//! Determinism argument, in full: the compatibility factors are computed
//! by the same expression on the same inputs whether tabulated or derived
//! on the fly; the candidate set of each inner `max` is identical across
//! substrates (candidates with `S_prev ≤ best` cannot alter the max
//! because `C < 1`, so the seed's skip-guard is equivalence-preserving),
//! and the candidates are compared in the same adjacency order; the
//! per-outer-neighbor summation order follows the original adjacency order
//! preserved by the CSR; the transposed matrix holds exact copies; and the
//! artificial-event candidate joins the max commutatively. A column block
//! restricts the fill to its own lanes and nodes without changing any
//! table element's operands or their order (blocks end on node
//! boundaries, so every segmented max stays inside one block). Every
//! floating-point operation therefore sees bit-identical operands in
//! bit-identical order regardless of substrate or block layout, so results
//! are bit-identical for every thread count and density threshold.

use crate::sim_sparse::SparseSim;
use crate::stats::ThreadClamp;
use ems_depgraph::{NeighborCsr, ARTIFICIAL_ENTRY};
use ems_labels::LabelMatrix;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::OnceLock;

/// Cap on precomputed compatibility-table entries *per table*. Frequency
/// classes keep real tables thousands of entries at most; the cap only
/// guards pathological inputs where every edge frequency is distinct.
/// Beyond it the kernel derives `C` on the fly — bit-identical results.
const MAX_COMPAT_ENTRIES: usize = 16 << 20;

/// Cap on total dense-substrate entries (`L1·n2 + n1·L2` similarity
/// maxima, 8 bytes each — 32 M entries is 256 MB). Grids too large for
/// the dense substrate use the sparse per-pair path at every density.
const MAX_DENSE_ENTRIES: usize = 32 << 20;

/// Column-block balance: a side-2 node weighs its lane count plus this
/// many. A block's fill and consume cost one unit per side-1 lane for each
/// of the block's lanes (pass A, the `s21` lookups) and a few per side-1
/// lane for each of its nodes (pass B's segmented max, the `s12` sum, the
/// per-pair blend). On the 400-activity benchmark pair a weight of 1 left
/// the last of two blocks 20–30% slower than the first; 4 brings the gap
/// to about 10%. The weight moves only the block edges, never a result.
const BLOCK_NODE_WEIGHT: usize = 4;

/// Fixed unroll width of the kernel's vector lanes: `[f64; 8]` blocks are
/// one or two SIMD registers on every mainstream target, wide enough to
/// saturate the autovectorizer without spilling.
const LANE_WIDTH: usize = 8;

/// Row-tile width of the dense consume: a run of consecutive pairs is
/// capped at this many columns so the accumulator tile plus the `t12`
/// rows it streams stay L1-resident across the whole `ents1` walk.
/// Splitting a run changes no per-pair arithmetic — each column's sum
/// sees the same terms in the same order — so tiling is bit-invisible.
const DENSE_TILE: usize = 256;

/// Elementwise `acc[i] += src[i]` in [`LANE_WIDTH`] blocks. The adds are
/// independent per index (no cross-lane reduction), so the unrolled form
/// performs the exact scalar operations and stays bit-identical.
#[inline]
fn add_assign_lanes(acc: &mut [f64], src: &[f64]) {
    debug_assert_eq!(acc.len(), src.len());
    let mut a = acc.chunks_exact_mut(LANE_WIDTH);
    let mut s = src.chunks_exact(LANE_WIDTH);
    for (ab, sb) in (&mut a).zip(&mut s) {
        for (x, &y) in ab.iter_mut().zip(sb) {
            *x += y;
        }
    }
    for (x, &y) in a.into_remainder().iter_mut().zip(s.remainder()) {
        *x += y;
    }
}

/// Horizontal max of non-negative finite doubles as a `u64` bit pattern,
/// reduced over [`LANE_WIDTH`] independent accumulators. For strictly
/// non-negative finite IEEE doubles unsigned bit order equals value
/// order, and a max fold is order-independent, so the lane-blocked
/// reduction returns exactly the bit pattern a sequential scan would.
#[inline]
fn max_bits_lanes(vals: &[f64]) -> u64 {
    let mut lanes = [0u64; LANE_WIDTH];
    let mut chunks = vals.chunks_exact(LANE_WIDTH);
    for ch in &mut chunks {
        for (l, &v) in lanes.iter_mut().zip(ch) {
            *l = (*l).max(v.to_bits());
        }
    }
    let mut best = 0u64;
    for &v in chunks.remainder() {
        best = best.max(v.to_bits());
    }
    for l in lanes {
        best = best.max(l);
    }
    best
}

/// The edge-compatibility factor `C(e1, e2) = c·(1 − |Δf|/(f_o + f_i))`
/// of Definition 2 — the exact expression of the seed kernel, kept in one
/// place so tabulated and on-the-fly values are bit-identical.
#[inline]
fn compat(c: f64, f_o: f64, f_i: f64) -> f64 {
    c * (1.0 - (f_o - f_i).abs() / (f_o + f_i))
}

/// One live entry of the engine's worklist: a pair index `k = v1·n2 + v2`
/// and its Proposition-2 horizon (`u32::MAX` = infinite).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActivePair {
    /// Row-major pair index.
    pub k: u32,
    /// `h = min(l(v1), l(v2))`; `u32::MAX` when infinite.
    pub h: u32,
}

/// Horizon sentinel for pairs that never converge by Proposition 2.
pub(crate) const H_INFINITE: u32 = u32::MAX;

/// Deduplicates lane frequencies into dense class ids (first-seen order)
/// and returns the per-lane class plus the distinct values per class.
fn frequency_classes(freqs: &[f64]) -> (Vec<u32>, Vec<f64>) {
    let mut by_bits: HashMap<u64, u32> = HashMap::new();
    let mut classes = Vec::new();
    let lanes = freqs
        .iter()
        .map(|&f| {
            *by_bits.entry(f.to_bits()).or_insert_with(|| {
                classes.push(f);
                (classes.len() - 1) as u32
            })
        })
        .collect();
    (lanes, classes)
}

/// One column block's share of the dense evaluation substrate: the inner
/// maxima restricted to a contiguous range of side-2 nodes `cols` (whose
/// lanes are `lanes`), refreshed from `prev` each iteration. A pair
/// `(v1, v2)` reads `t12` only at column `v2` and `t21` only at `v2`'s own
/// lanes, so a block holds everything its pairs' evaluations read, and the
/// blocks of one iteration partition the whole-grid tables without
/// copying them.
#[derive(Debug, Default)]
pub(crate) struct DenseScratch {
    /// Side-2 nodes covered by the last fill.
    cols: Range<usize>,
    /// Side-2 lanes of those nodes (CSR lanes are numbered node by node,
    /// so they are contiguous too).
    lanes: Range<usize>,
    /// `t12[e1 · |cols| + (v2 − cols.start)] = max over inner lanes i of
    /// v2 of C(f(e1), f(i)) · S_prev(src(e1), src(i))` — the per-outer-lane
    /// best for the `s(v1, v2)` orientation, laid out so a row-major pair
    /// walk streams each lane row sequentially.
    t12: Vec<f64>,
    /// `t21[v1 · |lanes| + (e2 − lanes.start)]` — the swapped orientation,
    /// laid out so all lanes consumed while `v1` is fixed live in one
    /// contiguous row.
    t21: Vec<f64>,
    /// One `prev` row gathered through the block's lane sources — shared
    /// by every side-1 lane with the same source node.
    gather: Vec<f64>,
    /// One lane's candidate products `C · g`, staged so the segmented
    /// `t12` max reduces over a contiguous buffer in lane blocks.
    prod: Vec<f64>,
    /// Whether a `t21` row has been written this fill — the first lane of
    /// a node stores instead of max-accumulating, so rows never need
    /// zeroing.
    row_written: Vec<bool>,
    /// Whether the last fill produced all-zero tables (an all-zero
    /// `prev`) — lets the consumer skip reading them: adding `0.0` to a
    /// non-negative accumulator is the bitwise identity.
    zero: bool,
}

/// Which per-pair substrate a pair evaluation reads. Both produce
/// bit-identical values (and match the dense block consume bitwise); the
/// engine picks per iteration by worklist density.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PairEval<'a> {
    /// Per-pair scans over `prev` and its transpose.
    Sparse {
        /// Transpose of the previous matrix (`n2 × n1` row-major).
        prev_t: &'a [f64],
    },
    /// Per-pair scans with the swapped orientation reading a CSR of the
    /// transposed previous matrix instead of a dense transpose. Built at
    /// `δ = 0` from the (already-sparsified) `prev`, absent entries are
    /// exact `+0.0` — values the `s_prev <= best` guard skips in every
    /// substrate — so this path is bit-identical to the others.
    Csr {
        /// CSR of the previous matrix's transpose (`n2` rows, `n1` cols).
        prev_t: &'a SparseSim,
    },
}

/// Precomputed per-run substrate of the similarity kernel.
#[derive(Debug)]
pub(crate) struct PairContext {
    /// CSR neighbors of graph 1 (pre-sets forward, post-sets backward).
    csr1: NeighborCsr,
    /// CSR neighbors of graph 2, same direction resolution.
    csr2: NeighborCsr,
    /// Frequency class per lane of `csr1` / `csr2`.
    cls1: Vec<u32>,
    cls2: Vec<u32>,
    /// Distinct-class counts of each side.
    nc1: usize,
    nc2: usize,
    /// `C`-factors for the `s(v1, v2)` scan: `[class1 * nc2 + class2]`.
    compat12: Option<Vec<f64>>,
    /// `C`-factors for the `s(v2, v1)` scan: `[class2 * nc1 + class1]`.
    compat21: Option<Vec<f64>>,
    /// `C`-factors expanded per (side-1 class, side-2 lane):
    /// `[class1 * L2 + lane2] = compat12[class1][cls2[lane2]]`. Because `C`
    /// is symmetric in its frequency arguments this one array serves both
    /// scan orientations of the dense fill, whose inner loops then zip
    /// sequential slices with no per-candidate table indexing.
    expand: Option<Vec<f64>>,
    /// Side-1 lanes grouped by source node: `by_src1_lane[by_src1_off[u]..
    /// by_src1_off[u + 1]]` are the lanes whose source is node `u`. Lanes
    /// sharing a source read the same `prev` row, so the dense fill
    /// gathers that row once per source instead of once per lane.
    by_src1_off: Vec<u32>,
    by_src1_lane: Vec<u32>,
    /// Owning node of each side-1 lane (inverse of `csr1.lane_range`).
    owner1: Vec<u32>,
    /// Artificial-neighbor factors tabulated per (side-1 node class,
    /// side-2 node class); absent when the class product exceeds the cap.
    art: Option<ArtTable>,
    /// Decay parameter `c`, for on-the-fly fallback and artificial lanes.
    c: f64,
}

/// Tabulated artificial-event compatibility: node-level frequency classes
/// per side and the `C` value per class pair (0.0 where either side has
/// no artificial neighbor) — the exact values [`compat`] would produce,
/// computed once instead of per pair evaluation.
#[derive(Debug)]
struct ArtTable {
    cls1: Vec<u32>,
    cls2: Vec<u32>,
    nc2: usize,
    tab: Vec<f64>,
}

impl PairContext {
    /// Builds the substrate from direction-resolved CSR exports.
    pub fn new(csr1: NeighborCsr, csr2: NeighborCsr, c: f64) -> Self {
        Self::with_cap(csr1, csr2, c, MAX_COMPAT_ENTRIES)
    }

    /// The direction-resolved CSR exports this context was built from
    /// (serialization edge: everything else in the context is derived
    /// deterministically from these plus `c`).
    pub(crate) fn csrs(&self) -> (&NeighborCsr, &NeighborCsr) {
        (&self.csr1, &self.csr2)
    }

    /// Builder with an explicit table cap — exposed for tests that force
    /// the on-the-fly fallback path.
    pub fn with_cap(csr1: NeighborCsr, csr2: NeighborCsr, c: f64, cap: usize) -> Self {
        let (cls1, vals1) = frequency_classes(csr1.lane_freq());
        let (cls2, vals2) = frequency_classes(csr2.lane_freq());
        let (nc1, nc2) = (vals1.len(), vals2.len());
        let tabulate = nc1 != 0 && nc2 != 0 && nc1.saturating_mul(nc2) <= cap;
        let (compat12, compat21) = if tabulate {
            let mut t12 = Vec::with_capacity(nc1 * nc2);
            for &fo in &vals1 {
                for &fi in &vals2 {
                    t12.push(compat(c, fo, fi));
                }
            }
            let mut t21 = Vec::with_capacity(nc1 * nc2);
            for &fo in &vals2 {
                for &fi in &vals1 {
                    t21.push(compat(c, fo, fi));
                }
            }
            (Some(t12), Some(t21))
        } else {
            (None, None)
        };
        let expand = match &compat12 {
            Some(t12) if nc1.saturating_mul(csr2.num_lanes()) <= cap => {
                let l2 = csr2.num_lanes();
                let mut ex = Vec::with_capacity(nc1 * l2);
                for a in 0..nc1 {
                    let row = &t12[a * nc2..][..nc2];
                    // Exact copies of the tabulated factors — the expanded
                    // array introduces no new rounding.
                    ex.extend(cls2.iter().map(|&b| row[b as usize]));
                }
                // The dense fill folds its maxima over `u64` bit patterns,
                // which matches `f64` ordering only for strictly
                // non-negative finite values (`-0.0` and `inf`/NaN bit
                // patterns would misorder or poison the fold). Real
                // frequencies always yield factors in `[0, c]`; an
                // anomalous input disables the dense substrate instead of
                // risking a divergent max.
                if ex.iter().all(|v| v.is_finite() && v.is_sign_positive()) {
                    Some(ex)
                } else {
                    None
                }
            }
            _ => None,
        };
        // Group side-1 lanes by source node (counting sort, one pass) and
        // record each lane's owner — both O(L1 + n1), used by the dense
        // fill to share gathered rows and scatter `t21` accumulations.
        let n1 = csr1.num_nodes();
        let src1 = csr1.lane_src();
        let mut by_src1_off = vec![0u32; n1 + 1];
        for &u in src1 {
            by_src1_off[u as usize + 1] += 1;
        }
        for u in 0..n1 {
            by_src1_off[u + 1] += by_src1_off[u];
        }
        let mut cursor = by_src1_off.clone();
        let mut by_src1_lane = vec![0u32; src1.len()];
        for (e1, &u) in src1.iter().enumerate() {
            let slot = &mut cursor[u as usize];
            by_src1_lane[*slot as usize] = e1 as u32;
            *slot += 1;
        }
        let mut owner1 = vec![0u32; csr1.num_lanes()];
        for v1 in 0..n1 {
            for e1 in csr1.lane_range(v1) {
                owner1[e1] = v1 as u32;
            }
        }
        // Node-level artificial-frequency classes, sharing the lane-class
        // machinery: `NaN` (no artificial neighbor) dedups to its own
        // class and tabulates to a 0.0 factor, exactly what the on-the-fly
        // expression yields.
        let af1: Vec<f64> = (0..n1).map(|v| csr1.art_freq(v)).collect();
        let af2: Vec<f64> = (0..csr2.num_nodes()).map(|v| csr2.art_freq(v)).collect();
        let (acls1, avals1) = frequency_classes(&af1);
        let (acls2, avals2) = frequency_classes(&af2);
        let art = if avals1.len().saturating_mul(avals2.len()) <= cap {
            let mut tab = Vec::with_capacity(avals1.len() * avals2.len());
            for &a1 in &avals1 {
                for &a2 in &avals2 {
                    tab.push(if a1.is_nan() || a2.is_nan() {
                        0.0
                    } else {
                        compat(c, a1, a2)
                    });
                }
            }
            Some(ArtTable {
                cls1: acls1,
                cls2: acls2,
                nc2: avals2.len(),
                tab,
            })
        } else {
            None
        };
        PairContext {
            csr1,
            csr2,
            cls1,
            cls2,
            nc1,
            nc2,
            compat12,
            compat21,
            expand,
            by_src1_off,
            by_src1_lane,
            owner1,
            art,
            c,
        }
    }

    /// Whether the `C`-tables were precomputed (vs on-the-fly fallback).
    #[cfg(test)]
    pub fn tabulated(&self) -> bool {
        self.compat12.is_some()
    }

    /// Whether the dense substrate is available for this problem: the
    /// expanded class-lane factors must exist and the two maxima arrays
    /// must fit the memory cap.
    pub fn dense_available(&self) -> bool {
        if self.expand.is_none() {
            return false;
        }
        let s12 = self.csr1.num_lanes().checked_mul(self.csr2.num_nodes());
        let s21 = self.csr1.num_nodes().checked_mul(self.csr2.num_lanes());
        match (s12, s21) {
            (Some(a), Some(b)) => a.checked_add(b).is_some_and(|t| t <= MAX_DENSE_ENTRIES),
            _ => false,
        }
    }

    /// Cuts the side-2 nodes into `blocks` contiguous column blocks and
    /// writes the `blocks + 1` boundaries into `bounds` (block `b` covers
    /// nodes `bounds[b]..bounds[b + 1]`). Blocks are balanced by lane
    /// count, each node weighing its lanes plus [`BLOCK_NODE_WEIGHT`]. A
    /// node never straddles two blocks; a block may be empty when there
    /// are more blocks than weight to share.
    pub fn column_blocks(&self, blocks: usize, bounds: &mut Vec<usize>) {
        let n2 = self.csr2.num_nodes();
        let blocks = blocks.max(1);
        let weight_before = |v2: usize| self.csr2.lane_range(v2).start + BLOCK_NODE_WEIGHT * v2;
        let total = self.csr2.num_lanes() + BLOCK_NODE_WEIGHT * n2;
        bounds.clear();
        bounds.push(0);
        let mut v2 = 0usize;
        for b in 1..blocks {
            // First node boundary whose prefix weight reaches b/blocks of
            // the total.
            while v2 < n2 && weight_before(v2) * blocks < b * total {
                v2 += 1;
            }
            bounds.push(v2);
        }
        bounds.push(n2);
    }

    /// Refreshes one column block of the dense substrate from `prev`
    /// (row-major `n1 × n2`): the `t12` entries of every side-1 lane at
    /// the block's nodes and the `t21` entries of every side-1 node at the
    /// block's lanes. The whole-grid fill is the one-block case; with
    /// `zero` (an all-zero `prev` — the first iteration of every unseeded
    /// run) every product `C · S_prev` is zero, so the block is zeroed
    /// wholesale instead.
    ///
    /// One pass over side-1 lanes *grouped by source node*: every lane
    /// with source `u` weights the same gathered row `g[j] =
    /// S_prev(u, src2(j))` over the block's lanes `j`, so the row is
    /// gathered once per source. Each lane then runs two vector passes
    /// over its candidates:
    ///
    /// - **Pass A** computes the products `p[j] = C · g[j]` into the
    ///   staging buffer and elementwise-maxes them into the owning node's
    ///   `t21` row (the owner's first lane stores outright — products are
    ///   non-negative, so a store equals a max against zero). The loop has
    ///   no segment boundaries, so it vectorizes over the full lane range.
    /// - **Pass B** reduces the staged products per side-2 node segment
    ///   into the lane's `t12` row via [`max_bits_lanes`] — a
    ///   [`LANE_WIDTH`]-blocked `u64` bit-pattern max.
    ///
    /// Each candidate is thus computed once and consumed twice, and both
    /// inner loops present the autovectorizer straight-line elementwise
    /// work. All maxima fold over `u64` bit patterns: the expanded
    /// factors are validated non-negative at build time and `prev` holds
    /// non-negative similarities (the engine gates dense mode on the
    /// seed), and for non-negative IEEE doubles unsigned bit order equals
    /// value order. The max of a non-negative set is the same bit pattern
    /// in any accumulation order — so both tables hold exactly the values
    /// the seed kernel's `>` scans would produce. Blocks end on node
    /// boundaries, so every pass B segment lies inside one block and the
    /// result does not depend on the block layout.
    pub fn fill_block(
        &self,
        prev: &[f64],
        zero: bool,
        cols: Range<usize>,
        scratch: &mut DenseScratch,
    ) {
        let (n1, n2) = (self.csr1.num_nodes(), self.csr2.num_nodes());
        let (l1, l2) = (self.csr1.num_lanes(), self.csr2.num_lanes());
        let lane_at = |v2: usize| {
            if v2 < n2 {
                self.csr2.lane_range(v2).start
            } else {
                l2
            }
        };
        let lanes = lane_at(cols.start)..lane_at(cols.end);
        let (nb, lb) = (cols.len(), lanes.len());
        scratch.cols = cols.clone();
        scratch.lanes = lanes.clone();
        scratch.zero = zero;
        let Some(ex) = self.expand.as_deref().filter(|_| !zero) else {
            // All-zero tables. Without the expanded factors there is
            // nothing to fill either (guarded by `dense_available`).
            scratch.t12.clear();
            scratch.t21.clear();
            scratch.t12.resize(l1 * nb, 0.0);
            scratch.t21.resize(n1 * lb, 0.0);
            return;
        };
        let src2 = &self.csr2.lane_src()[lanes.clone()];
        let DenseScratch {
            t12,
            t21,
            gather,
            prod,
            row_written,
            ..
        } = scratch;
        t12.resize(l1 * nb, 0.0);
        t21.resize(n1 * lb, 0.0);
        gather.resize(lb, 0.0);
        prod.resize(lb, 0.0);
        row_written.clear();
        row_written.resize(n1, false);
        // Nodes with no lanes keep an all-zero `t21` row — the value every
        // inner max over an empty candidate set takes.
        for v1 in 0..n1 {
            if self.csr1.lane_range(v1).is_empty() {
                t21[v1 * lb..][..lb].fill(0.0);
            }
        }
        for u in 0..n1 {
            let group =
                &self.by_src1_lane[self.by_src1_off[u] as usize..self.by_src1_off[u + 1] as usize];
            if group.is_empty() {
                continue;
            }
            let row = &prev[u * n2..][..n2];
            for (g, &s) in gather.iter_mut().zip(src2) {
                *g = row[s as usize];
            }
            for &e1 in group {
                let e1 = e1 as usize;
                let ce = &ex[self.cls1[e1] as usize * l2 + lanes.start..][..lb];
                let gat = &gather[..lb];
                let stage = &mut prod[..lb];
                let out12 = &mut t12[e1 * nb..][..nb];
                let v1o = self.owner1[e1] as usize;
                let out21 = &mut t21[v1o * lb..][..lb];
                let first = !row_written[v1o];
                row_written[v1o] = true;
                // Pass A: stage products, accumulate the swapped
                // orientation. Unsegmented — free to vectorize.
                if first {
                    for ((p, o), (&cf, &g)) in stage
                        .iter_mut()
                        .zip(out21.iter_mut())
                        .zip(ce.iter().zip(gat))
                    {
                        let v = cf * g;
                        *p = v;
                        *o = v;
                    }
                } else {
                    for ((p, o), (&cf, &g)) in stage
                        .iter_mut()
                        .zip(out21.iter_mut())
                        .zip(ce.iter().zip(gat))
                    {
                        let v = cf * g;
                        *p = v;
                        let s = *o;
                        *o = if v > s { v } else { s };
                    }
                }
                // Pass B: segmented horizontal max per side-2 node
                // (running offset — CSR segments tile the lane range in
                // order), lane-blocked inside each segment.
                let mut start = 0usize;
                for (v2, slot) in cols.clone().zip(out12.iter_mut()) {
                    let end = start + self.csr2.lane_range(v2).len();
                    *slot = f64::from_bits(max_bits_lanes(&stage[start..end]));
                    start = end;
                }
            }
        }
    }

    /// Evaluates formula (1) for pair `(v1, v2)` against the previous
    /// matrix (`prev`, row-major `n1 × n2`) through the given substrate,
    /// blending the label similarity — the exact arithmetic of the seed
    /// kernel.
    #[inline]
    pub fn eval_pair(
        &self,
        prev: &[f64],
        eval: &PairEval<'_>,
        v1: usize,
        v2: usize,
        alpha: f64,
        label: f64,
    ) -> f64 {
        let (s12, s21) = match *eval {
            PairEval::Sparse { prev_t } => (
                self.one_side_sparse(prev, prev_t, v1, v2, false),
                self.one_side_sparse(prev, prev_t, v1, v2, true),
            ),
            // The plain orientation never touches the transpose (see
            // `one_side_sparse`), so it runs unchanged against the dense
            // `prev`; only the swapped orientation goes through the CSR.
            PairEval::Csr { prev_t } => (
                self.one_side_sparse(prev, &[], v1, v2, false),
                self.one_side_csr(prev_t, v1, v2),
            ),
        };
        let value = alpha * (s12 + s21) / 2.0 + (1.0 - alpha) * label;
        value.clamp(0.0, 1.0)
    }

    /// The artificial-outer candidate: `S_prev(v^X, v^X) = 1`, so it
    /// contributes `C(f_o, f_i)` directly iff both sides have an
    /// artificial neighbor; all its other inner candidates carry
    /// `S_prev = 0` and cannot beat a max that starts at 0. `C` is
    /// symmetric in its frequency arguments, so one canonical `(v1, v2)`
    /// orientation serves both scan directions — usually via the
    /// class-pair table, falling back to the direct expression.
    #[inline]
    fn art_best(&self, v1: usize, v2: usize) -> f64 {
        if let Some(art) = &self.art {
            art.tab[art.cls1[v1] as usize * art.nc2 + art.cls2[v2] as usize]
        } else {
            let art_o = self.csr1.art_freq(v1);
            let art_i = self.csr2.art_freq(v2);
            if art_o.is_nan() || art_i.is_nan() {
                0.0
            } else {
                compat(self.c, art_o, art_i)
            }
        }
    }

    /// Dense consume of one column block: evaluates the pairs `ks`
    /// (ascending, every column inside the block `scratch` was filled
    /// for) against the block's tables, writing the new values into `out`
    /// (cleared first, one slot per pair) and returning the block's
    /// maximum absolute delta.
    ///
    /// Pairs are processed in runs of consecutive `k` within one `v1` row
    /// and the block, capped at [`DENSE_TILE`] columns so the accumulator
    /// tile and the `t12` rows it streams stay cache-resident across the
    /// whole `ents1` walk. Within a run the `s(v1, ·)` numerator
    /// accumulates entry rows of `t12` elementwise ([`add_assign_lanes`]
    /// — independent per-column adds in [`LANE_WIDTH`] blocks, in the same
    /// entry order as the pairwise scan sums) and all per-`v1` lookups
    /// hoist out of the inner loop. Retirement gaps, tile and block
    /// boundaries only shorten runs — a run of length 1 degenerates to
    /// exactly the pairwise evaluation. With `zero` (an all-zero
    /// substrate — the first iteration of an unseeded run), the table
    /// reads are skipped outright: every skipped term is `+ 0.0`, the
    /// bitwise identity on the non-negative accumulators, so only the
    /// artificial-entry terms remain.
    pub fn eval_chunk_dense(
        &self,
        prev: &[f64],
        scratch: &DenseScratch,
        labels: &LabelMatrix,
        alpha: f64,
        ks: &[u32],
        out: &mut Vec<f64>,
    ) -> f64 {
        let DenseScratch {
            cols,
            lanes,
            t12,
            t21,
            zero,
            ..
        } = scratch;
        let zero = *zero;
        let n2 = self.csr2.num_nodes();
        let (nb, lb) = (cols.len(), lanes.len());
        out.clear();
        out.reserve(ks.len());
        let mut delta = 0.0_f64;
        let mut idx = 0usize;
        while idx < ks.len() {
            let k0 = ks[idx] as usize;
            let v1 = k0 / n2;
            let row_start = v1 * n2;
            let v2_0 = k0 - row_start;
            debug_assert!(cols.contains(&v2_0), "pair outside the filled block");
            let run_end = row_start + cols.end;
            let mut len = 1usize;
            while len < DENSE_TILE && idx + len < ks.len() {
                let k = ks[idx + len] as usize;
                if k != k0 + len || k >= run_end {
                    break;
                }
                len += 1;
            }
            let ents1 = self.csr1.entries(v1);
            let t21_row = &t21[v1 * lb..][..lb];
            let base = out.len();
            out.resize(base + len, 0.0);
            let acc = &mut out[base..base + len];
            for &ent in ents1 {
                if ent == ARTIFICIAL_ENTRY {
                    for (j, a) in acc.iter_mut().enumerate() {
                        *a += self.art_best(v1, v2_0 + j);
                    }
                } else if !zero {
                    let trow = &t12[ent as usize * nb + (v2_0 - cols.start)..][..len];
                    add_assign_lanes(acc, trow);
                }
            }
            let len1 = ents1.len() as f64;
            for (j, a) in acc.iter_mut().enumerate() {
                let v2 = v2_0 + j;
                let s12 = if ents1.is_empty() { 0.0 } else { *a / len1 };
                let ents2 = self.csr2.entries(v2);
                let s21 = if ents2.is_empty() {
                    0.0
                } else if zero {
                    // An artificial entry is present iff the node has an
                    // artificial-edge frequency; every other term is 0.0.
                    if self.csr2.art_freq(v2).is_nan() {
                        0.0
                    } else {
                        self.art_best(v1, v2) / ents2.len() as f64
                    }
                } else {
                    let mut sum = 0.0;
                    for &ent in ents2 {
                        // ems-lint: allow(float-taint, must stay bitwise identical to the reference oracle; O(deg) bounded terms in [0,1])
                        sum += if ent == ARTIFICIAL_ENTRY {
                            self.art_best(v1, v2)
                        } else {
                            t21_row[ent as usize - lanes.start]
                        };
                    }
                    sum / ents2.len() as f64
                };
                let label = labels.get(v1, v2);
                let value = (alpha * (s12 + s21) / 2.0 + (1.0 - alpha) * label).clamp(0.0, 1.0);
                let k = row_start + v2;
                delta = delta.max((value - prev[k]).abs());
                *a = value;
            }
            idx += len;
        }
        delta
    }

    /// One-side similarity `s(v1, v2)` (or `s(v2, v1)` when `swap`) by
    /// direct per-pair scanning: for each outer neighbor, the best
    /// compatibility-weighted previous similarity over the inner
    /// neighbors, averaged over the outer set. Both orientations read
    /// stride-1 memory: the plain scan walks a row of `prev`, the swapped
    /// scan a row of the transpose.
    fn one_side_sparse(
        &self,
        prev: &[f64],
        prev_t: &[f64],
        v1: usize,
        v2: usize,
        swap: bool,
    ) -> f64 {
        let (co, ci, cls_o, cls_i, nc_i, table) = if swap {
            (
                &self.csr2,
                &self.csr1,
                &self.cls2,
                &self.cls1,
                self.nc1,
                self.compat21.as_deref(),
            )
        } else {
            (
                &self.csr1,
                &self.csr2,
                &self.cls1,
                &self.cls2,
                self.nc2,
                self.compat12.as_deref(),
            )
        };
        let (vo, vi) = if swap { (v2, v1) } else { (v1, v2) };
        let entries = co.entries(vo);
        if entries.is_empty() {
            return 0.0;
        }
        let art_best = self.art_best(v1, v2);
        let inner = ci.lane_range(vi);
        let inner_src = &ci.lane_src()[inner.clone()];
        let inner_cls = &cls_i[inner.clone()];
        let inner_freq = &ci.lane_freq()[inner.clone()];
        // The outer node indexes a row of `prev` (plain) or of the
        // transpose (swapped); either way the inner gather is stride-1
        // within that row.
        let (matrix, row_len) = if swap {
            (prev_t, self.csr1.num_nodes())
        } else {
            (prev, self.csr2.num_nodes())
        };
        let mut sum = 0.0;
        for &ent in entries {
            let best = if ent == ARTIFICIAL_ENTRY {
                art_best
            } else {
                let lane = ent as usize;
                let row = &matrix[co.lane_src()[lane] as usize * row_len..][..row_len];
                let mut best = 0.0_f64;
                match table {
                    Some(t) => {
                        let c_row = &t[cls_o[lane] as usize * nc_i..][..nc_i];
                        for (&cl, &src) in inner_cls.iter().zip(inner_src) {
                            let s_prev = row[src as usize];
                            if s_prev <= best {
                                // C < 1, so C * s_prev < s_prev ≤ best.
                                continue;
                            }
                            let cand = c_row[cl as usize] * s_prev;
                            if cand > best {
                                best = cand;
                            }
                        }
                    }
                    None => {
                        let f_o = co.lane_freq()[lane];
                        for (&f_i, &src) in inner_freq.iter().zip(inner_src) {
                            let s_prev = row[src as usize];
                            if s_prev <= best {
                                continue;
                            }
                            let cand = compat(self.c, f_o, f_i) * s_prev;
                            if cand > best {
                                best = cand;
                            }
                        }
                    }
                }
                best
            };
            // ems-lint: allow(float-taint, must stay bitwise identical to the reference oracle; O(deg) bounded terms in [0,1])
            sum += best;
        }
        sum / entries.len() as f64
    }

    /// The swapped orientation `s(v2, v1)` against a CSR of the transposed
    /// previous matrix. Mirrors `one_side_sparse` with `swap = true`,
    /// fetching each `S_prev` by binary search in the outer node's CSR row
    /// instead of a dense stride-1 gather. Absent entries read as exact
    /// `+0.0`, which the `s_prev <= best` guard skips (`best` starts at
    /// `0.0` and never decreases) just as it skips stored zeros — so the
    /// sequence of `best` updates, and hence every floating-point result,
    /// is identical to the dense-transpose scan over the same matrix.
    fn one_side_csr(&self, prev_t: &SparseSim, v1: usize, v2: usize) -> f64 {
        let (co, ci) = (&self.csr2, &self.csr1);
        let entries = co.entries(v2);
        if entries.is_empty() {
            return 0.0;
        }
        let art_best = self.art_best(v1, v2);
        let inner = ci.lane_range(v1);
        let inner_src = &ci.lane_src()[inner.clone()];
        let inner_cls = &self.cls1[inner.clone()];
        let inner_freq = &ci.lane_freq()[inner.clone()];
        let table = self.compat21.as_deref();
        let mut sum = 0.0;
        for &ent in entries {
            let best = if ent == ARTIFICIAL_ENTRY {
                art_best
            } else {
                let lane = ent as usize;
                let (row_cols, row_vals) = prev_t.row(co.lane_src()[lane] as usize);
                let fetch = |src: u32| match row_cols.binary_search(&src) {
                    Ok(i) => row_vals[i],
                    Err(_) => 0.0,
                };
                let mut best = 0.0_f64;
                match table {
                    Some(t) => {
                        let c_row = &t[self.cls2[lane] as usize * self.nc1..][..self.nc1];
                        for (&cl, &src) in inner_cls.iter().zip(inner_src) {
                            let s_prev = fetch(src);
                            if s_prev <= best {
                                // C < 1, so C * s_prev < s_prev ≤ best.
                                continue;
                            }
                            let cand = c_row[cl as usize] * s_prev;
                            if cand > best {
                                best = cand;
                            }
                        }
                    }
                    None => {
                        let f_o = co.lane_freq()[lane];
                        for (&f_i, &src) in inner_freq.iter().zip(inner_src) {
                            let s_prev = fetch(src);
                            if s_prev <= best {
                                continue;
                            }
                            let cand = compat(self.c, f_o, f_i) * s_prev;
                            if cand > best {
                                best = cand;
                            }
                        }
                    }
                }
                best
            };
            // ems-lint: allow(float-taint, must stay bitwise identical to the reference oracle; O(deg) bounded terms in [0,1])
            sum += best;
        }
        sum / entries.len() as f64
    }
}

/// Collects the worklist pairs whose side-2 node lies in the column
/// block `cols` into `ks` (cleared first), keeping their ascending order.
/// The worklist is ascending in `k` (built row-major, only ever shrunk in
/// place), so the row advances incrementally instead of paying an integer
/// division per pair.
pub(crate) fn block_pairs(work: &[ActivePair], n2: usize, cols: Range<usize>, ks: &mut Vec<u32>) {
    ks.clear();
    let mut row_start = 0usize;
    for ap in work {
        let k = ap.k as usize;
        debug_assert!(k >= row_start, "worklist must be ascending in k");
        while k >= row_start + n2 {
            row_start += n2;
        }
        if cols.contains(&(k - row_start)) {
            ks.push(ap.k);
        }
    }
}

/// Evaluates the pairs `ks` against `prev` through the given per-pair
/// substrate, writing the new values into `out` (cleared first, one slot
/// per pair) and returning their maximum absolute delta. Pure — safe to
/// run on any block layout.
///
/// `ks` must be ascending (as [`block_pairs`] leaves it); that lets the
/// pair coordinates advance incrementally instead of paying an integer
/// division per pair.
pub(crate) fn eval_chunk(
    ctx: &PairContext,
    prev: &[f64],
    eval: &PairEval<'_>,
    labels: &LabelMatrix,
    alpha: f64,
    ks: &[u32],
    out: &mut Vec<f64>,
) -> f64 {
    let n2 = ctx.csr2.num_nodes();
    out.clear();
    out.reserve(ks.len());
    let Some(&first) = ks.first() else {
        return 0.0;
    };
    let mut v1 = first as usize / n2;
    let mut row_end = (v1 + 1) * n2;
    let mut delta = 0.0_f64;
    for &k in ks {
        let k = k as usize;
        debug_assert!(k >= row_end - n2, "pairs must be ascending in k");
        while k >= row_end {
            v1 += 1;
            row_end += n2;
        }
        let v2 = k - (row_end - n2);
        let value = ctx.eval_pair(prev, eval, v1, v2, alpha, labels.get(v1, v2));
        delta = delta.max((value - prev[k]).abs());
        out.push(value);
    }
    delta
}

/// Writes the transpose of row-major `src` (`n1 × n2`) into `dst`
/// (`n2 × n1`) — exact copies, refreshed by the engine each iteration so
/// the sparse path's swapped scan orientation reads contiguous memory.
pub(crate) fn transpose_into(src: &[f64], n1: usize, n2: usize, dst: &mut [f64]) {
    debug_assert_eq!(src.len(), n1 * n2);
    debug_assert_eq!(dst.len(), n1 * n2);
    for v1 in 0..n1 {
        let row = &src[v1 * n2..][..n2];
        for (v2, &s) in row.iter().enumerate() {
            dst[v2 * n1 + v1] = s;
        }
    }
}

/// The host's available parallelism, read once per process: the query
/// re-reads the cgroup CPU quota on every call, which costs tens of
/// microseconds — more than a small run's whole fixpoint. The width is
/// fixed at first use; a quota change after that is not seen.
pub(crate) fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Resolves a thread-count knob: `0` means all available parallelism,
/// and an explicit request above host parallelism is clamped (unless
/// `oversubscribe` opts out) — extra workers on an already-full host only
/// add scheduling pressure; results are bit-identical at any width. A
/// clamp is reported so the caller can record the warning in
/// [`crate::stats::RunStats::thread_clamp`].
pub(crate) fn resolve_threads(knob: usize, oversubscribe: bool) -> (usize, Option<ThreadClamp>) {
    let host = host_parallelism();
    if knob == 0 {
        (host, None)
    } else if knob > host && !oversubscribe {
        (
            host,
            Some(ThreadClamp {
                requested: knob,
                clamped_to: host,
            }),
        )
    } else {
        (knob, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ems_depgraph::DependencyGraph;

    fn small_graphs() -> (DependencyGraph, DependencyGraph) {
        let g1 = DependencyGraph::from_parts(
            vec!["a".into(), "b".into(), "c".into()],
            vec![0.5, 1.0, 1.0],
            &[(0, 1, 0.5), (1, 2, 1.0)],
        );
        let g2 = DependencyGraph::from_parts(
            vec!["x".into(), "y".into()],
            vec![1.0, 0.7],
            &[(0, 1, 0.7)],
        );
        (g1, g2)
    }

    #[test]
    fn frequency_classes_deduplicate_by_bits() {
        let (lanes, classes) = frequency_classes(&[0.5, 1.0, 0.5, 0.25]);
        assert_eq!(lanes, vec![0, 1, 0, 2]);
        assert_eq!(classes, vec![0.5, 1.0, 0.25]);
        let (lanes, classes) = frequency_classes(&[]);
        assert!(lanes.is_empty() && classes.is_empty());
    }

    /// All three evaluation paths — dense substrate, sparse tabulated,
    /// sparse on-the-fly — must agree bitwise on every pair.
    #[test]
    fn all_eval_paths_are_bit_identical() {
        let (g1, g2) = small_graphs();
        let with = PairContext::new(g1.pre_csr(), g2.pre_csr(), 0.8);
        let without = PairContext::with_cap(g1.pre_csr(), g2.pre_csr(), 0.8, 0);
        assert!(with.tabulated());
        assert!(!without.tabulated());
        assert!(with.dense_available());
        assert!(!without.dense_available());
        let labels = LabelMatrix::zeros(3, 2);
        // A non-trivial previous matrix exercises the max scans.
        let prev = [0.9, 0.2, 0.35, 0.8, 0.05, 0.6];
        let mut prev_t = vec![0.0; 6];
        transpose_into(&prev, 3, 2, &mut prev_t);
        let sparse = PairEval::Sparse { prev_t: &prev_t };
        let mut dense = [f64::NAN; 6];
        for (k, v) in dense_block(&with, &prev, false, 0..2, &labels, 1.0) {
            dense[k] = v;
        }
        let prev_mat = crate::sim::SimMatrix::from_raw(3, 2, prev.to_vec());
        let prev_t_csr = SparseSim::from_dense_transposed(&prev_mat, 0.0);
        let csr = PairEval::Csr {
            prev_t: &prev_t_csr,
        };
        for v1 in 0..3 {
            for v2 in 0..2 {
                let label = labels.get(v1, v2);
                let a = with.eval_pair(&prev, &sparse, v1, v2, 1.0, label);
                let b = without.eval_pair(&prev, &sparse, v1, v2, 1.0, label);
                let c = dense[v1 * 2 + v2];
                let d = with.eval_pair(&prev, &csr, v1, v2, 1.0, label);
                let e = without.eval_pair(&prev, &csr, v1, v2, 1.0, label);
                assert_eq!(a.to_bits(), b.to_bits(), "sparse paths at ({v1},{v2})");
                assert_eq!(a.to_bits(), c.to_bits(), "dense path at ({v1},{v2})");
                assert_eq!(a.to_bits(), d.to_bits(), "csr path at ({v1},{v2})");
                assert_eq!(a.to_bits(), e.to_bits(), "csr fallback at ({v1},{v2})");
            }
        }
    }

    /// Fills the dense block `cols` from `prev` and consumes every pair of
    /// the grid whose column lies in it, returning `(k, value)` pairs.
    fn dense_block(
        ctx: &PairContext,
        prev: &[f64],
        zero: bool,
        cols: Range<usize>,
        labels: &LabelMatrix,
        alpha: f64,
    ) -> Vec<(usize, f64)> {
        let (n1, n2) = (ctx.csr1.num_nodes(), ctx.csr2.num_nodes());
        let work: Vec<ActivePair> = (0..n1 * n2)
            .map(|k| ActivePair {
                k: k as u32,
                h: H_INFINITE,
            })
            .collect();
        let mut ks = Vec::new();
        block_pairs(&work, n2, cols.clone(), &mut ks);
        let mut scratch = DenseScratch::default();
        ctx.fill_block(prev, zero, cols, &mut scratch);
        let mut out = Vec::new();
        ctx.eval_chunk_dense(prev, &scratch, labels, alpha, &ks, &mut out);
        assert_eq!(out.len(), ks.len());
        ks.iter().map(|&k| k as usize).zip(out).collect()
    }

    /// Column blocks partition the dense substrate without changing a
    /// bit: for every block count from 1 to `n2 + 1` (empty blocks
    /// included), filling and consuming each block reproduces the
    /// per-pair sparse and CSR paths bitwise. The graphs put lane-less
    /// side-2 nodes at block edges (first, middle and last node), give
    /// side 1 lane-less nodes too, and route artificial entries through
    /// both orientations.
    #[test]
    fn column_blocks_match_pairwise_paths_bitwise() {
        // Side 1: `a` has only the artificial predecessor, `c` has no
        // neighbors at all (zero frequency).
        let g1 = DependencyGraph::from_parts(
            vec!["a".into(), "b".into(), "c".into(), "d".into()],
            vec![1.0, 1.0, 0.0, 0.5],
            &[(0, 1, 0.5), (0, 3, 0.5), (3, 1, 0.5), (1, 3, 0.25)],
        );
        // Side 2: nodes 0 and 5 have only the artificial predecessor,
        // node 1 has no neighbors at all.
        let g2 = DependencyGraph::from_parts(
            (0..6).map(|i| format!("n{i}")).collect(),
            vec![1.0, 0.0, 0.7, 1.0, 0.3, 1.0],
            &[
                (0, 2, 0.7),
                (3, 2, 0.3),
                (2, 3, 0.7),
                (0, 4, 0.3),
                (4, 3, 0.3),
            ],
        );
        let (n1, n2) = (4, 6);
        let labels = LabelMatrix::from_raw(
            n1,
            n2,
            (0..n1 * n2)
                .map(|k| ((k * 5 + 2) % 7) as f64 / 7.0)
                .collect(),
        );
        let alpha = 0.7;
        // Some exact zeros, otherwise spread over [0, 1).
        let prev: Vec<f64> = (0..n1 * n2)
            .map(|k| ((k * 37 + 11) % 17) as f64 / 17.0)
            .collect();
        let zeros = vec![0.0; n1 * n2];
        for (csr1, csr2) in [(g1.pre_csr(), g2.pre_csr()), (g1.post_csr(), g2.post_csr())] {
            let ctx = PairContext::new(csr1, csr2, 0.8);
            assert!(ctx.dense_available());
            for (prev, zero) in [(&prev, false), (&zeros, true)] {
                let mut prev_t = vec![0.0; n1 * n2];
                transpose_into(prev, n1, n2, &mut prev_t);
                let sparse = PairEval::Sparse { prev_t: &prev_t };
                let prev_mat = crate::sim::SimMatrix::from_raw(n1, n2, prev.clone());
                let prev_t_csr = SparseSim::from_dense_transposed(&prev_mat, 0.0);
                let csr = PairEval::Csr {
                    prev_t: &prev_t_csr,
                };
                let mut bounds = Vec::new();
                for blocks in 1..=n2 + 1 {
                    ctx.column_blocks(blocks, &mut bounds);
                    assert_eq!(bounds.len(), blocks + 1);
                    assert_eq!((bounds[0], bounds[blocks]), (0, n2));
                    assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
                    let mut seen = 0;
                    for w in bounds.windows(2) {
                        for (k, got) in dense_block(&ctx, prev, zero, w[0]..w[1], &labels, alpha) {
                            let (v1, v2) = (k / n2, k % n2);
                            assert!((w[0]..w[1]).contains(&v2));
                            let label = labels.get(v1, v2);
                            let a = ctx.eval_pair(prev, &sparse, v1, v2, alpha, label);
                            let b = ctx.eval_pair(prev, &csr, v1, v2, alpha, label);
                            let what = format!("{blocks} blocks, zero={zero}, ({v1},{v2})");
                            assert_eq!(got.to_bits(), a.to_bits(), "sparse: {what}");
                            assert_eq!(got.to_bits(), b.to_bits(), "csr: {what}");
                            seen += 1;
                        }
                    }
                    assert_eq!(seen, n1 * n2, "{blocks} blocks cover the grid once");
                }
            }
        }
    }

    #[test]
    fn compat_table_layouts_transpose_each_other() {
        let (g1, g2) = small_graphs();
        let ctx = PairContext::new(g1.pre_csr(), g2.pre_csr(), 0.8);
        let (t12, t21) = (ctx.compat12.unwrap(), ctx.compat21.unwrap());
        for c1 in 0..ctx.nc1 {
            for c2 in 0..ctx.nc2 {
                // C is symmetric in its frequency arguments, so the two
                // orientations must hold bitwise-equal values.
                assert_eq!(
                    t12[c1 * ctx.nc2 + c2].to_bits(),
                    t21[c2 * ctx.nc1 + c1].to_bits()
                );
            }
        }
    }

    #[test]
    fn transpose_round_trips() {
        let src = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2 × 3
        let mut t = vec![0.0; 6];
        transpose_into(&src, 2, 3, &mut t);
        assert_eq!(t, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let mut back = vec![0.0; 6];
        transpose_into(&t, 3, 2, &mut back);
        assert_eq!(back.as_slice(), src.as_slice());
    }

    #[test]
    fn resolve_threads_zero_means_auto() {
        let (auto, clamp) = resolve_threads(0, false);
        assert!(auto >= 1);
        assert!(clamp.is_none(), "auto-width is never a clamp");
        // `0` means "all available parallelism" even with the escape hatch.
        assert_eq!(resolve_threads(0, true), (auto, None));
    }

    #[test]
    fn resolve_threads_clamps_oversubscription_and_reports_it() {
        let host = host_parallelism();
        // At or below host parallelism: honored verbatim, no warning.
        assert_eq!(resolve_threads(1, false), (1, None));
        assert_eq!(resolve_threads(host, false), (host, None));
        // Above: clamped, and the clamp names both sides of the decision.
        let over = host + 7;
        assert_eq!(
            resolve_threads(over, false),
            (
                host,
                Some(ThreadClamp {
                    requested: over,
                    clamped_to: host,
                })
            )
        );
        // The opt-out spawns the requested width and reports nothing.
        assert_eq!(resolve_threads(over, true), (over, None));
    }
}

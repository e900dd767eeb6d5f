//! Batch query execution: the cache-aware, fine-grained-parallel design of
//! §3.2.1 (Figure 3).
//!
//! The fundamental operation: given `m` queries and `n` data rows, find each
//! query's top-k. Worker tasks are assigned *data ranges* (fine-grained
//! parallelism) and queries are processed in blocks of `s` chosen by Eq. (1)
//! so that a block plus its heaps fits in L3. Each loaded row is compared
//! against all `s` resident queries, and every (range, query) pair gets its
//! own heap (`H[r][j]` in Figure 3) to avoid synchronization; per-query heaps
//! are merged at the end. Each task touches the data `m/(s·t)` times — `s`×
//! fewer than the thread-per-query design it replaces (kept as
//! `milvus_baselines::faiss_style_search` for Figure 11).
//!
//! There is one engine, [`cache_aware_scan`]: scheduled on a persistent
//! [`milvus_exec::Executor`], with one `k` per query and a trace argument.
//! The metric's kernels are resolved once per call, so the hot loop never
//! re-matches the `Metric` enum or re-reads the SIMD level.
//!
//! Float rows go through [`score_block`], the scoring primitive of every
//! exact scan: 4 rows × 4 queries per kernel call, each 4-row group meeting
//! every resident query before the next group loads.
//!
//! Every row walk asks for the rows [`PREFETCH_BYTES`] ahead of the ones it
//! scores (DESIGN §22): the hardware prefetcher stops at each 4 KiB page and
//! starts cold at each IVF bucket, so without it a scan waits out the latency
//! of every new page instead of streaming.

use std::borrow::BorrowMut;
use std::ops::Range;

use milvus_exec::Executor;
use milvus_obs as obs;

use crate::distance::{self, PairKernel, Tile2x4Kernel, Tile4Kernel, Tile4x4Kernel};
use crate::mask::RowMask;
use crate::metric::Metric;
use crate::topk::{Neighbor, TopK};
use crate::vectors::VectorSet;

/// A float metric's kernels at the active SIMD level, resolved once per
/// scan: the 4×4, ×4 and 2×4 tiles where they exist, the pair kernel
/// always.
#[derive(Clone, Copy)]
pub struct Scorer {
    pub(crate) pair: PairKernel,
    tiles: Option<(Tile4x4Kernel, Tile4Kernel)>,
    duo: Option<Tile2x4Kernel>,
}

impl Scorer {
    /// The kernels of `metric`. Panics for binary metrics.
    pub fn new(metric: Metric) -> Self {
        let tiles = distance::tile4x4_kernel(metric).zip(distance::tile4_kernel(metric));
        let duo = distance::tile2x4_kernel(metric);
        Self { pair: distance::pair_kernel(metric), tiles, duo }
    }

    /// The 4×4 tile, if there is one (not at SSE, not for cosine).
    pub(crate) fn grid(self) -> Option<Tile4x4Kernel> {
        self.tiles.map(|(grid, _)| grid)
    }

    /// `visit(i, distance of v and row i)` for every row of the
    /// `dim`-strided `rows`, in row order: rows four at a time in the ×4
    /// tile's query slot (L2 and IP are bitwise symmetric in their
    /// arguments, so each value is exactly the per-pair one), the rest per
    /// pair.
    #[inline(always)]
    pub(crate) fn each(self, rows: &[f32], dim: usize, v: &[f32], mut visit: impl FnMut(usize, f32))
    {
        let mut head = 0;
        if let Some((_, tile)) = self.tiles {
            for four in rows.chunks_exact(4 * dim) {
                prefetch_ahead(rows, head * dim, 4 * dim);
                for (j, dist) in tile(split4(four, dim), v).into_iter().enumerate() {
                    visit(head + j, dist);
                }
                head += 4;
            }
        }
        for (i, row) in rows[head * dim..].chunks_exact(dim).enumerate() {
            prefetch_ahead(rows, (head + i) * dim, dim);
            visit(head + i, (self.pair)(v, row));
        }
    }

    /// Score four rows against every query. Full query quads take the 4×4
    /// tile, leftover queries the ×4 tile with the rows in its query slot.
    #[inline(always)]
    fn four<H: BorrowMut<TopK>>(
        self,
        rows: [&[f32]; 4],
        ids: [i64; 4],
        queries: &[&[f32]],
        heaps: &mut [H],
    ) {
        let Some((grid, tile)) = self.tiles else {
            for (row, id) in rows.into_iter().zip(ids) {
                self.one(row, id, queries, heaps);
            }
            return;
        };
        let (quads, rest) = queries.as_chunks::<4>();
        let (heap_quads, rest_heaps) = heaps.as_chunks_mut::<4>();
        for (&quad, hq) in quads.iter().zip(heap_quads) {
            let dist = grid(rows, quad);
            for (j, heap) in hq.iter_mut().enumerate() {
                let heap = heap.borrow_mut();
                for (&id, d) in ids.iter().zip(&dist) {
                    heap.push(id, d[j]);
                }
            }
        }
        for (&q, heap) in rest.iter().zip(rest_heaps) {
            let heap = heap.borrow_mut();
            for (id, d) in ids.into_iter().zip(tile(rows, q)) {
                heap.push(id, d);
            }
        }
    }

    /// Score one row against every query: full query quads through the ×4
    /// tile, the rest per pair.
    #[inline(always)]
    fn one<H: BorrowMut<TopK>>(self, row: &[f32], id: i64, queries: &[&[f32]], heaps: &mut [H]) {
        let mut head = 0;
        if let Some((_, tile)) = self.tiles {
            let (quads, _) = queries.as_chunks::<4>();
            let (heap_quads, _) = heaps.as_chunks_mut::<4>();
            for (&quad, hq) in quads.iter().zip(heap_quads) {
                for (heap, d) in hq.iter_mut().zip(tile(quad, row)) {
                    heap.borrow_mut().push(id, d);
                }
            }
            head = quads.len() * 4;
        }
        for (q, heap) in queries[head..].iter().zip(&mut heaps[head..]) {
            heap.borrow_mut().push(id, (self.pair)(q, row));
        }
    }
}

/// Push a 2×4 tile's distances: `dist[j][i]` is row `ids[i]`'s for `heaps[j]`.
#[inline(always)]
fn push2<H: BorrowMut<TopK>>(dist: [[f32; 4]; 2], ids: [i64; 4], heaps: &mut [H]) {
    for (heap, d) in heaps.iter_mut().zip(dist) {
        let heap = heap.borrow_mut();
        for (&id, d) in ids.iter().zip(d) {
            heap.push(id, d);
        }
    }
}

/// The four `dim`-long rows of a `4 · dim` slice.
#[inline(always)]
pub(crate) fn split4(four: &[f32], dim: usize) -> [&[f32]; 4] {
    let (a, rest) = four.split_at(dim);
    let (b, rest) = rest.split_at(dim);
    let (c, d) = rest.split_at(dim);
    [a, b, c, d]
}

/// How far ahead of the rows it scores a walk prefetches: 8 KiB, 16 rows at
/// 128 dimensions. Chosen by the sweep in DESIGN §22 (4, 8 and 16 KiB).
pub const PREFETCH_BYTES: usize = 8 << 10;

/// Bytes per cache line: the stride of the prefetches.
const LINE: usize = 64;

/// Prefetch the rows a walk reaches next: `data`'s elements `at..at + len`
/// (the ones being scored now) moved [`PREFETCH_BYTES`] on, clipped to the
/// slice.
#[inline(always)]
pub(crate) fn prefetch_ahead<T>(data: &[T], at: usize, len: usize) {
    let size = std::mem::size_of::<T>();
    prefetch_lines(data, at * size + PREFETCH_BYTES..(at + len) * size + PREFETCH_BYTES);
}

/// Prefetch the first [`PREFETCH_BYTES`] of `data`: the head of a walk that
/// has not started, which its own lookahead never covers (the next probed
/// IVF bucket).
#[inline(always)]
pub(crate) fn prefetch_head<T>(data: &[T]) {
    prefetch_lines(data, 0..PREFETCH_BYTES);
}

/// One T0 prefetch per cache line of `data`'s bytes `bytes`, clipped to the
/// slice; nothing off x86_64. A prefetch changes no value a scan reads.
#[inline(always)]
fn prefetch_lines<T>(data: &[T], bytes: Range<usize>) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let base = data.as_ptr().cast::<i8>();
        for at in (bytes.start..bytes.end.min(std::mem::size_of_val(data))).step_by(LINE) {
            // SAFETY: `at` is below the slice's byte length, so `base + at`
            // points inside `data`; a prefetch is a hint that loads no value
            // into a register and never faults.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(base.add(at)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (data, bytes);
}

/// The scoring primitive: push every row of the `dim`-strided `rows`
/// (`ids[i]` for row `i`) into `heaps[j]` at its distance to `queries[j]`,
/// in one plain walk over `chunks_exact(4 · dim)`; the last `len mod 4` rows
/// meet the query quads in the ×4 tile and the leftover queries per pair.
/// Exactly two resident queries take the 2×4 tile instead, chosen once per
/// call. Tiles return the pair kernel's bits and [`TopK`] keeps the same set
/// in any push order, so the heaps end as a per-pair loop leaves them. Each
/// group prefetches the group [`PREFETCH_BYTES`] ahead. The heaps may be
/// owned or borrowed (IVF's are scattered). Returns the rows scored; all but
/// the last `rows mod 4` went four at a time.
pub fn score_block<H: BorrowMut<TopK>>(
    kern: Scorer,
    rows: &[f32],
    ids: &[i64],
    queries: &[&[f32]],
    heaps: &mut [H],
) -> u64 {
    debug_assert_eq!(queries.len(), heaps.len());
    let Some(dim) = queries.first().map(|q| q.len()) else { return 0 };
    debug_assert_eq!(rows.len(), ids.len() * dim);
    let (fours, tail) = ids.as_chunks::<4>();
    let groups = rows.chunks_exact(4 * dim).zip(fours).enumerate();
    match (kern.duo, queries) {
        (Some(duo), &[a, b]) => {
            for (g, (four, &id4)) in groups {
                prefetch_ahead(rows, g * 4 * dim, 4 * dim);
                push2(duo([a, b], split4(four, dim)), id4, heaps);
            }
        }
        _ => {
            for (g, (four, &id4)) in groups {
                prefetch_ahead(rows, g * 4 * dim, 4 * dim);
                kern.four(split4(four, dim), id4, queries, heaps);
            }
        }
    }
    let head = fours.len() * 4;
    for (row, &id) in rows[head * dim..].chunks_exact(dim).zip(tail) {
        kern.one(row, id, queries, heaps);
    }
    ids.len() as u64
}

/// [`score_block`] over the `(row, id)` pairs `visible` yields: a masked
/// scan. Visible rows are scored four at a time as they come, so the mask's
/// gaps cost no tiles; the 2×4 tile is chosen once per call, as there. Each
/// visible row prefetches the row [`PREFETCH_BYTES`] past its position in
/// `rows`.
pub fn score_visible<H: BorrowMut<TopK>>(
    kern: Scorer,
    rows: &[f32],
    visible: impl Iterator<Item = (usize, i64)>,
    queries: &[&[f32]],
    heaps: &mut [H],
) -> u64 {
    debug_assert_eq!(queries.len(), heaps.len());
    let Some(dim) = queries.first().map(|q| q.len()) else { return 0 };
    let row = |r: usize| &rows[r * dim..(r + 1) * dim];
    let (scored, at, ids, n) = match (kern.duo, queries) {
        (Some(duo), &[a, b]) => {
            in_fours(rows, dim, visible, |at, ids| push2(duo([a, b], at.map(row)), ids, heaps))
        }
        _ => in_fours(rows, dim, visible, |at, ids| kern.four(at.map(row), ids, queries, heaps)),
    };
    for (&r, &id) in at[..n].iter().zip(&ids) {
        kern.one(row(r), id, queries, heaps);
    }
    scored + n as u64
}

/// Hand `visible`'s pairs to `four` four at a time, prefetching ahead of
/// each row of the `dim`-strided `rows` as it comes. Returns the rows handed
/// over and the last `n < 4` pairs, still pending, as `(rows, at, ids, n)`.
#[inline(always)]
fn in_fours(
    rows: &[f32],
    dim: usize,
    visible: impl Iterator<Item = (usize, i64)>,
    mut four: impl FnMut([usize; 4], [i64; 4]),
) -> (u64, [usize; 4], [i64; 4], usize) {
    let (mut at, mut ids, mut n, mut handed) = ([0usize; 4], [0i64; 4], 0, 0);
    for (r, id) in visible {
        prefetch_ahead(rows, r * dim, dim);
        (at[n], ids[n]) = (r, id);
        n += 1;
        if n == 4 {
            four(at, ids);
            (handed, n) = (handed + 4, 0);
        }
    }
    (handed, at, ids, n)
}

/// [`score_block`] over rows `range` of a row-ordered matrix (`ids` indexed
/// like its rows), or over those of them set in `mask`.
pub fn score_range<H: BorrowMut<TopK>>(
    kern: Scorer,
    rows: &[f32],
    ids: &[i64],
    range: Range<usize>,
    mask: Option<&RowMask>,
    queries: &[&[f32]],
    heaps: &mut [H],
) -> u64 {
    let dim = rows.len() / ids.len().max(1);
    match mask {
        None => {
            let (rows, ids) = (&rows[range.start * dim..range.end * dim], &ids[range]);
            score_block(kern, rows, ids, queries, heaps)
        }
        Some(mask) => {
            let visible = mask.iter_range(range).map(|r| (r, ids[r]));
            score_visible(kern, rows, visible, queries, heaps)
        }
    }
}

/// Tuning knobs for the batch engine.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Results per query (the 5-argument [`cache_aware_search_exec`] only;
    /// [`cache_aware_scan`] takes one `k` per query instead).
    pub k: usize,
    /// Similarity function.
    pub metric: Metric,
    /// Worker tasks (`t`). The data is split into `t` contiguous ranges.
    pub threads: usize,
    /// Assumed L3 cache size in bytes, the numerator of Eq. (1).
    pub l3_cache_bytes: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        Self {
            k: 50,
            metric: Metric::L2,
            threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
            l3_cache_bytes: 32 * 1024 * 1024,
        }
    }
}

/// Equation (1): query-block size `s` such that `s` queries plus their
/// per-thread heaps fit in L3.
///
/// `s = L3 / (d·sizeof(f32) + t·k·(sizeof(i64)+sizeof(f32)))`
pub fn query_block_size(l3_bytes: usize, dim: usize, threads: usize, k: usize) -> usize {
    let per_query = dim * std::mem::size_of::<f32>()
        + threads * k * (std::mem::size_of::<i64>() + std::mem::size_of::<f32>());
    (l3_bytes / per_query.max(1)).max(1)
}

/// The cache-aware engine (§3.2.1, Figure 3) at one uniform `opts.k`, no
/// trace: [`cache_aware_scan`] over float rows.
pub fn cache_aware_search_exec(
    exec: &Executor,
    data: &VectorSet,
    ids: &[i64],
    queries: &VectorSet,
    opts: &BatchOptions,
) -> Vec<Vec<Neighbor>> {
    let ks = vec![opts.k; queries.len()];
    let off = &mut obs::Trace::disabled();
    cache_aware_scan(exec, data, ids, queries, &ks, None, opts, off)
}

/// The cache-aware batch engine: top-`ks[j]` of `data`'s rows — of those set
/// in `mask`, when there is one — for every query `j`, one sorted list per
/// query in input order.
///
/// The whole batch runs once at `max(ks)` and each query's sorted list is
/// truncated to its own `k` (`opts.k` is ignored). Exact, because the scan is
/// exhaustive: the sorted top-`j` is a prefix of the sorted top-`k` for
/// `j <= k` (same total order on `(distance, id)`, same candidate set), so
/// every truncated list is bit-identical to a run at that query's own `k`.
///
/// Queries are processed in blocks sized by Eq. (1); task `r` of
/// `opts.threads` scores the block against its own data range into its own
/// heaps, scored by [`score_range`]. A live `trace` gets one
/// [`obs::SpanKind::BatchScan`] span per query block, one `QueueWait` span
/// for the block's worst-queued range task, and one `HeapMerge` span per
/// block merge, recorded on the calling thread after the join; a disabled
/// trace records nothing and never reads the clock.
#[allow(clippy::too_many_arguments)]
pub fn cache_aware_scan(
    exec: &Executor,
    data: &VectorSet,
    ids: &[i64],
    queries: &VectorSet,
    ks: &[usize],
    mask: Option<&RowMask>,
    opts: &BatchOptions,
    trace: &mut obs::Trace,
) -> Vec<Vec<Neighbor>> {
    assert_eq!(queries.len(), ks.len(), "one k per query");
    assert!(mask.is_none_or(|m| m.rows() == ids.len()), "mask must cover the data rows");
    assert_eq!(data.len(), ids.len(), "ids must match data rows");
    assert_eq!(data.dim(), queries.dim(), "query dimension mismatch");
    let (m, n) = (ks.len(), ids.len());
    if m == 0 || n == 0 {
        return vec![Vec::new(); m];
    }
    let label = "cache_aware_exec";
    obs::counter(obs::BATCH_QUERIES, label).add(m as u64);
    let _span = obs::span(obs::BATCH_LATENCY, label);
    let kern = Scorer::new(opts.metric);
    let tiled = obs::counter(obs::INDEX_BATCH_TILED_PAIRS, "");
    let k = ks.iter().copied().max().unwrap_or(1).max(1);
    let t = opts.threads.max(1).min(n);
    let s = query_block_size(opts.l3_cache_bytes, queries.dim(), t, k).min(m);

    // Task r owns data rows [bounds[r], bounds[r+1]).
    let chunk = n.div_ceil(t);
    let bounds: Vec<usize> = (0..=t).map(|i| (i * chunk).min(n)).collect();

    let mut results: Vec<Vec<Neighbor>> = Vec::with_capacity(m);
    for block_start in (0..m).step_by(s) {
        let block = block_start..(block_start + s).min(m);
        let t_block = trace.begin();

        // One heap per (range task, query-in-block): H[r][j] in Figure 3.
        let range_scan = |r: usize| {
            let mut heaps: Vec<TopK> = block.clone().map(|_| TopK::new(k)).collect();
            let resident: Vec<&[f32]> = block.clone().map(|j| queries.get(j)).collect();
            let range = bounds[r]..bounds[r + 1];
            let scored = score_range(kern, data.as_flat(), ids, range, mask, &resident, &mut heaps);
            if kern.grid().is_some() {
                tiled.add(scored / 4 * 4 * (resident.len() / 4 * 4) as u64);
            }
            heaps
        };
        // When traced, the timed fan-out exposes how long the block's range
        // tasks sat queued; the worst wait becomes one QueueWait span so the
        // profiler separates executor saturation from scan time without
        // recording `t` spans per block. The untraced path stays clock-free.
        let per_task: Vec<Vec<TopK>> = if trace.enabled() {
            let timed = exec.scoped_map_timed(t, range_scan);
            let wait = timed.iter().map(|(_, timing)| *timing).max_by_key(|w| w.queue_wait());
            if let Some(wait) = wait {
                trace.record_window(obs::SpanKind::QueueWait, wait.enqueued, wait.started, |_| {});
            }
            timed.into_iter().map(|(heaps, _)| heaps).collect()
        } else {
            exec.scoped_map(t, range_scan)
        };
        trace.record_with(obs::SpanKind::BatchScan, t_block, |sp| {
            sp.rows_scanned = (block.len() as u64) * (n as u64);
        });

        // Merge the `t` per-task heaps of each query, consuming them (no
        // heap clones), and cut each sorted list to its query's own `k`.
        let t_merge = trace.begin();
        let mut merged: Vec<TopK> = block.clone().map(|_| TopK::new(k)).collect();
        for task_heaps in per_task {
            for (acc, heap) in merged.iter_mut().zip(task_heaps) {
                acc.merge(heap);
            }
        }
        results.extend(merged.into_iter().zip(&ks[block]).map(|(heap, &k)| {
            let mut list = heap.into_sorted();
            list.truncate(k.max(1));
            list
        }));
        trace.record(obs::SpanKind::HeapMerge, t_merge);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_set(n: usize, dim: usize, seed: u64) -> VectorSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vs = VectorSet::new(dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            vs.push(&v);
        }
        vs
    }

    #[test]
    fn eq1_block_size() {
        // 32 MB L3, d=128, t=16, k=50: s = 32MiB / (512 + 16*50*12) = ~3355.
        let s = query_block_size(32 * 1024 * 1024, 128, 16, 50);
        assert_eq!(s, 32 * 1024 * 1024 / (128 * 4 + 16 * 50 * 12));
        // Tiny cache never yields zero.
        assert_eq!(query_block_size(1, 128, 16, 50), 1);
    }

    #[test]
    fn agrees_with_single_query_flat_scan() {
        let pool = Executor::new("t_batch_flat", 3);
        let data = random_set(100, 8, 3);
        let ids: Vec<i64> = (0..100).collect();
        let queries = random_set(5, 8, 4);
        let opts = BatchOptions { k: 5, metric: Metric::L2, threads: 3, ..Default::default() };
        let res = cache_aware_search_exec(&pool, &data, &ids, &queries, &opts);
        for (qi, q) in queries.iter().enumerate() {
            let mut heap = TopK::new(5);
            for (row, v) in data.iter().enumerate() {
                heap.push(row as i64, distance::l2_sq(q, v));
            }
            assert_eq!(res[qi], heap.into_sorted());
        }
    }

    #[test]
    fn block_smaller_than_batch_still_covers_all_queries() {
        let pool = Executor::new("t_batch_blocks", 2);
        let data = random_set(50, 32, 7);
        let ids: Vec<i64> = (0..50).collect();
        let queries = random_set(40, 32, 8);
        // Force s = 1 via a tiny cache: every query is its own block.
        let opts =
            BatchOptions { k: 3, metric: Metric::L2, threads: 2, l3_cache_bytes: 1 };
        let res = cache_aware_search_exec(&pool, &data, &ids, &queries, &opts);
        assert_eq!(res.len(), 40);
        assert!(res.iter().all(|r| r.len() == 3));
    }

    #[test]
    fn more_threads_than_rows() {
        let pool = Executor::new("t_batch_rows", 2);
        let data = random_set(3, 4, 9);
        let ids: Vec<i64> = (0..3).collect();
        let queries = random_set(2, 4, 10);
        let opts = BatchOptions { k: 2, threads: 16, ..Default::default() };
        let res = cache_aware_search_exec(&pool, &data, &ids, &queries, &opts);
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].len(), 2);
    }

    #[test]
    fn tiled_engine_is_bit_identical_to_the_untiled_serial_scan() {
        let pool = Executor::new("t_batch", 3);
        let data = random_set(257, 24, 21);
        let ids: Vec<i64> = (0..257).map(|i| i * 3 + 1).collect();
        // 23 queries: exercises both full ×4 tiles and a ragged tail.
        let queries = random_set(23, 24, 22);
        for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            let opts = BatchOptions { k: 9, metric, threads: 4, l3_cache_bytes: 8192 };
            let pooled = cache_aware_search_exec(&pool, &data, &ids, &queries, &opts);
            let kern = distance::pair_kernel(metric);
            for (qi, q) in queries.iter().enumerate() {
                let mut heap = TopK::new(9);
                for (&id, v) in ids.iter().zip(data.iter()) {
                    heap.push(id, kern(q, v));
                }
                assert_eq!(pooled[qi], heap.into_sorted(), "engine diverged under {metric} q={qi}");
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let pool = Executor::new("t_batch_empty", 2);
        let data = random_set(10, 4, 23);
        let ids: Vec<i64> = (0..10).collect();
        let empty_q = VectorSet::new(4);
        let opts = BatchOptions::default();
        assert!(cache_aware_search_exec(&pool, &data, &ids, &empty_q, &opts).is_empty());
        let empty_d = VectorSet::new(4);
        let q = random_set(3, 4, 24);
        let res = cache_aware_search_exec(&pool, &empty_d, &[], &q, &opts);
        assert_eq!(res.len(), 3);
        assert!(res.iter().all(Vec::is_empty));
    }

    /// Under a mask the engine returns exactly the scalar scan of the visible
    /// rows, whatever tiles the gaps leave (every row, every second, every
    /// fifth, a single one).
    #[test]
    fn masked_rows_match_the_serial_scan_of_the_visible_rows() {
        let pool = Executor::new("t_masked_batch", 3);
        let data = random_set(257, 24, 51);
        let ids: Vec<i64> = (0..257).map(|i| i * 3 + 1).collect();
        let queries = random_set(7, 24, 52);
        let off = &mut obs::Trace::disabled();
        for keep in [1usize, 2, 5, 300] {
            let allowed: Vec<u32> = (0..257u32).filter(|r| *r as usize % keep == 1 % keep).collect();
            let mask = RowMask::from_positions(257, &allowed);
            for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
                let opts = BatchOptions { k: 9, metric, threads: 3, l3_cache_bytes: 4096 };
                let got = cache_aware_scan(&pool, &data, &ids, &queries, &[9; 7], Some(&mask), &opts, off);
                let kern = distance::pair_kernel(metric);
                for (q, got) in queries.iter().zip(&got) {
                    let mut heap = TopK::new(9);
                    mask.iter().for_each(|r| {
                        heap.push(ids[r], kern(q, data.get(r)));
                    });
                    assert_eq!(*got, heap.into_sorted(), "f32 {metric} keep 1/{keep}");
                }
            }
        }
    }

    #[test]
    fn per_query_ks_match_per_query_runs_at_each_own_k() {
        let pool = Executor::new("t_hetk", 3);
        let data = random_set(157, 24, 41);
        let ids: Vec<i64> = (0..157).map(|i| i * 7 + 2).collect();
        let queries = random_set(6, 24, 42);
        let ks = [1usize, 3, 9, 2, 9, 5];
        let off = &mut obs::Trace::disabled();
        for metric in [Metric::L2, Metric::InnerProduct] {
            let opts = BatchOptions { k: 999, metric, threads: 3, l3_cache_bytes: 4096 };
            let got = cache_aware_scan(&pool, &data, &ids, &queries, &ks, None, &opts, off);
            for (qi, &k) in ks.iter().enumerate() {
                let one = queries.gather(&[qi]);
                let solo = cache_aware_scan(&pool, &data, &ids, &one, &[k], None, &opts, off);
                assert_eq!(got[qi], solo[0], "het-k diverged {metric} q={qi} k={k}");
            }
        }
    }
}

//! One circular scan pass shared by concurrent queries over a snapshot of
//! unindexed segments — the "clock scan" of Crescando (Unterbrunner et al.,
//! VLDB 2009) applied to §3.2.1's rule that each loaded row is scored
//! against every resident query.
//!
//! The snapshot's rows are cut into blocks of [`BLOCK_ROWS`] (a segment's
//! last block may be shorter; no block spans two segments), laid end to end
//! in segment order, and one cursor walks them in a circle. A query
//! [`attach`](SharedPass::attach)es at the cursor and is owed every block
//! once. Whoever [`claim`](SharedPass::claim)s the cursor's block takes it
//! for every query still owed blocks, scores it against all of them in one
//! [`score_range`] call (so two resident queries share each row load in the
//! 2×4 tile), and merges one per-block [`TopK`] into each query's heap. A
//! query's caller claims blocks until it is owed none, then
//! [`finish`](SharedPass::finish) waits on a condvar — never a clock — only
//! for its own blocks that another caller is still scoring.
//! [`read`] is a query's whole turn: its pass blocks, then the segments it
//! reads on its own, claimed by the caller and by helpers from the executor.
//! Readers and collections both build their passes with [`FieldPass::split`]
//! and read every query's segments with `read`.
//!
//! Each query sees each visible row exactly once, and [`TopK`] keeps the
//! same set in any push order, so an answer is bit-identical to a
//! per-segment sweep merged by
//! [`merge_segment_results`](crate::segment::merge_segment_results),
//! however the blocks were shared.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use milvus_exec::Executor;
use milvus_index::batch::{score_range, Scorer};
use milvus_index::{Metric, Neighbor, TopK};
use milvus_obs as obs;
use parking_lot::{Condvar, Mutex};

use crate::entity::{Schema, VectorField};
use crate::segment::{apply_scan_fault, Segment};

/// Rows per block: a claim's unit of work and of sharing.
pub const BLOCK_ROWS: usize = 1024;

/// A circular pass over a fixed set of segments' rows of one vector field.
pub struct SharedPass {
    segments: Vec<Arc<Segment>>,
    /// Block `b` is rows `blocks[b].1` of `segments[blocks[b].0]`.
    blocks: Vec<(usize, Range<usize>)>,
    field: usize,
    metric: Metric,
    dim: usize,
    state: Mutex<State>,
    /// Signalled when a merge leaves some query owed nothing and running
    /// nothing.
    done: Condvar,
    blocks_total: Arc<obs::Counter>,
    query_blocks_total: Arc<obs::Counter>,
}

#[derive(Default)]
struct State {
    /// The next block to claim.
    cursor: usize,
    next_ticket: u64,
    attached: Vec<Attached>,
}

struct Attached {
    ticket: u64,
    query: Arc<[f32]>,
    /// Blocks not yet claimed for this query.
    owed: usize,
    /// Blocks claimed for this query whose scores are not merged yet.
    running: usize,
    heap: TopK,
}

/// One attached query, from [`SharedPass::attach`] to [`SharedPass::finish`].
#[derive(Debug)]
pub struct Ticket(u64);

/// One claimed block and the queries it was claimed for.
#[derive(Debug)]
pub struct Claim {
    block: usize,
    members: Vec<(u64, Arc<[f32]>, usize)>,
}

/// What a timed [`read`] saw; empty when untimed.
#[derive(Debug, Default)]
pub struct PassTiming {
    /// Per segment of the pass's [`SharedPass::segments`]: from the start of
    /// the first to the end of the last of its blocks that the caller or its
    /// helpers scored, `None` if other callers scored them all.
    pub windows: Vec<Option<(Instant, Instant)>>,
    /// The worst-queued helper: when it was queued and when it started.
    pub helper_wait: Option<(Instant, Instant)>,
}

/// One float vector field of a set of segments, split for search: the
/// shared pass over the segments with no index on the field, and where in
/// the set the others are.
pub struct FieldPass {
    /// The field's name.
    pub field: String,
    /// The pass over the unindexed segments, in set order.
    pub pass: SharedPass,
    /// Position in the set of each of the pass's segments.
    pub unindexed: Vec<usize>,
    /// Positions in the set of the segments with an index on the field.
    pub indexed: Vec<usize>,
}

impl FieldPass {
    /// One per float vector field of `schema` over `segments`, each counting
    /// its work on the `label` series.
    pub fn split(schema: &Schema, segments: &[Arc<Segment>], label: &str) -> Vec<FieldPass> {
        let split = |f: &VectorField| {
            let (indexed, unindexed): (Vec<usize>, Vec<usize>) =
                (0..segments.len()).partition(|&at| segments[at].index(&f.name).is_some());
            let segs = unindexed.iter().map(|&at| Arc::clone(&segments[at])).collect();
            let pass = SharedPass::new(schema, &f.name, segs, label)?;
            Some(FieldPass { field: f.name.clone(), pass, unindexed, indexed })
        };
        schema.vector_fields.iter().filter_map(split).collect()
    }
}

impl SharedPass {
    /// A pass over `segments`' rows of vector field `field`, scanned through
    /// the column whatever indexes the segments hold. Counts its work on the
    /// `label` series. `None` if `field` is not a float vector field.
    pub fn new(
        schema: &Schema,
        field: &str,
        segments: Vec<Arc<Segment>>,
        label: &str,
    ) -> Option<Self> {
        let fi = schema.vector_field_index(field)?;
        let (metric, dim) = (schema.vector_fields[fi].metric, schema.vector_fields[fi].dim);
        if !matches!(metric, Metric::L2 | Metric::InnerProduct | Metric::Cosine) {
            return None;
        }
        let blocks = segments
            .iter()
            .enumerate()
            .flat_map(|(s, seg)| {
                let n = seg.num_rows();
                (0..n).step_by(BLOCK_ROWS).map(move |lo| (s, lo..(lo + BLOCK_ROWS).min(n)))
            })
            .collect();
        Some(Self {
            segments,
            blocks,
            field: fi,
            metric,
            dim,
            state: Mutex::new(State::default()),
            done: Condvar::new(),
            blocks_total: obs::counter(obs::SCAN_PASS_BLOCKS, label),
            query_blocks_total: obs::counter(obs::SCAN_PASS_QUERY_BLOCKS, label),
        })
    }

    /// The segments the pass walks, in block order.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Blocks in one full turn.
    pub fn blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The field's dimension: every attached query must have it.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Attach a top-`k` query at the cursor; it is owed every block once.
    ///
    /// # Panics
    /// Panics if `query` is not [`Self::dim`] long.
    pub fn attach(&self, query: &[f32], k: usize) -> Ticket {
        assert_eq!(query.len(), self.dim, "query dimension");
        let mut st = self.state.lock();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.attached.push(Attached {
            ticket,
            query: query.into(),
            owed: self.blocks.len(),
            running: 0,
            heap: TopK::new(k.max(1)),
        });
        Ticket(ticket)
    }

    /// Claim the cursor's block on behalf of `me` and every other attached
    /// query still owed blocks, and advance the cursor. `None` once `me` is
    /// owed nothing.
    pub fn claim(&self, me: &Ticket) -> Option<Claim> {
        let mut st = self.state.lock();
        let owed = st.attached.iter().find(|a| a.ticket == me.0).map_or(0, |a| a.owed);
        if owed == 0 {
            return None;
        }
        let block = st.cursor;
        st.cursor = (block + 1) % self.blocks.len();
        let members: Vec<_> = st
            .attached
            .iter_mut()
            .filter(|a| a.owed > 0)
            .map(|a| {
                a.owed -= 1;
                a.running += 1;
                (a.ticket, Arc::clone(&a.query), a.heap.k())
            })
            .collect();
        drop(st);
        self.blocks_total.inc();
        self.query_blocks_total.add(members.len() as u64);
        Some(Claim { block, members })
    }

    /// Score `claim`'s block against its queries, one per-block heap each,
    /// and merge the heaps into the queries' own. A segment's armed scan
    /// fault delays the scoring of its first block.
    pub fn score(&self, claim: Claim) {
        let (s, range) = &self.blocks[claim.block];
        let seg = &self.segments[*s];
        if range.start == 0 {
            apply_scan_fault(seg.id);
        }
        let rows = seg.data().vectors[self.field].to_row_order();
        let visible = seg.visible(None);
        let queries: Vec<&[f32]> = claim.members.iter().map(|(_, q, _)| &q[..]).collect();
        let mut heaps: Vec<TopK> = claim.members.iter().map(|&(_, _, k)| TopK::new(k)).collect();
        let (kern, ids) = (Scorer::new(self.metric), &seg.data().row_ids[..]);
        let mask = visible.as_deref();
        score_range(kern, rows.as_flat(), ids, range.clone(), mask, &queries, &mut heaps);

        let mut st = self.state.lock();
        let mut wake = false;
        for ((ticket, _, _), heap) in claim.members.iter().zip(heaps) {
            let attached = st.attached.iter_mut().find(|a| a.ticket == *ticket);
            let a = attached.expect("a claimed query stays attached until its finish");
            a.heap.merge(heap);
            a.running -= 1;
            wake |= a.owed == 0 && a.running == 0;
        }
        drop(st);
        if wake {
            self.done.notify_all();
        }
    }

    /// Detach `me` once it is owed nothing, waiting for its blocks that
    /// other callers are still scoring; its answer, best first.
    ///
    /// # Panics
    /// Panics if `me` is still owed blocks.
    pub fn finish(&self, me: Ticket) -> Vec<Neighbor> {
        let mut st = self.state.lock();
        let at = loop {
            let at = st.attached.iter().position(|a| a.ticket == me.0);
            let at = at.expect("a ticket stays attached until its finish");
            assert_eq!(st.attached[at].owed, 0, "finish before every block was claimed");
            if st.attached[at].running == 0 {
                break at;
            }
            self.done.wait(&mut st);
        };
        st.attached.swap_remove(at).heap.into_sorted()
    }
}

/// What one [`read`] returned.
#[derive(Debug)]
pub struct Read<R> {
    /// The query's answer from its pass, best first; empty without one.
    pub pass: Vec<Neighbor>,
    /// `each(s)` for every segment position `s`, in position order.
    pub segments: Vec<R>,
    /// Filled only when the read was timed.
    pub timing: PassTiming,
}

/// One query's reads of a snapshot in one turn — §3.2.1's data ranges, each
/// claimer with its own heaps, merged once. The caller and
/// `min(helpers, units − 1)` executor tasks, `units` being the blocks of
/// `pass` plus `segments`, side by side: each first claims and scores the
/// blocks the query (attached as `(pass, query, k)`) is owed until it is
/// owed none, then takes segment positions `0..segments` from one shared
/// cursor and runs `each` on them. Results come back by position, so how
/// the positions were spread changes no answer and no merge order. Only a
/// `timed` read reads the clock and fills the [`PassTiming`].
pub fn read<R: Send>(
    pass: Option<(&SharedPass, &[f32], usize)>,
    segments: usize,
    helpers: usize,
    timed: bool,
    each: impl Fn(usize) -> R + Sync,
) -> Read<R> {
    let attached = pass.map(|(pass, query, k)| (pass, pass.attach(query, k)));
    let blocks = attached.as_ref().map_or(0, |(pass, _)| pass.blocks());
    let pass_segments = attached.as_ref().map_or(0, |(pass, _)| pass.segments.len());
    let claimers = 1 + helpers.min((blocks + segments).saturating_sub(1));
    let cursor = AtomicUsize::new(0);
    let turn = |_| {
        let mut windows = vec![None; if timed { pass_segments } else { 0 }];
        if let Some((pass, me)) = &attached {
            while let Some(claim) = pass.claim(me) {
                let s = pass.blocks[claim.block].0;
                let t0 = timed.then(Instant::now);
                pass.score(claim);
                if let Some(t0) = t0 {
                    windows[s].get_or_insert((t0, t0)).1 = Instant::now();
                }
            }
        }
        let mut done = Vec::new();
        loop {
            // The cursor only hands out positions; the results reach the
            // caller through the executor's join.
            let s = cursor.fetch_add(1, Ordering::Relaxed);
            if s >= segments {
                break (windows, done);
            }
            done.push((s, each(s)));
        }
    };
    let mut timing = PassTiming::default();
    let turns = if timed {
        let turns = Executor::global().scoped_map_timed(claimers, turn);
        // Task 0 is the caller's own turn: it never queues.
        let waits = turns.iter().skip(1).map(|(_, t)| (t.enqueued, t.started));
        timing.helper_wait = waits.max_by_key(|&(queued, started)| started - queued);
        timing.windows = vec![None; pass_segments];
        turns.into_iter().map(|(turn, _)| turn).collect()
    } else {
        Executor::global().scoped_map(claimers, turn)
    };
    let mut slots: Vec<Option<R>> = (0..segments).map(|_| None).collect();
    for (windows, done) in turns {
        for (into, w) in timing.windows.iter_mut().zip(windows) {
            *into = match (*into, w) {
                (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
                (into, w) => into.or(w),
            };
        }
        for (s, r) in done {
            slots[s] = Some(r);
        }
    }
    Read {
        pass: attached.map_or_else(Vec::new, |(pass, me)| pass.finish(me)),
        segments: slots.into_iter().map(|r| r.expect("every position is claimed once")).collect(),
        timing,
    }
}

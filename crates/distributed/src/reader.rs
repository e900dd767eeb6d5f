//! Stateless reader instances (§5.3).
//!
//! A reader owns no durable state: it pulls the segments of its assigned
//! shards from shared storage into a local [`BufferPool`] ("each computing
//! instance has a significant amount of buffer memory and SSDs to reduce
//! accesses to the shared storage") and serves vector queries over them.
//! Because readers are stateless, a crashed reader is replaced by simply
//! registering a fresh one — no recovery protocol.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use milvus_index::traits::SearchParams;
use milvus_index::Neighbor;
use milvus_obs as obs;
use milvus_storage::bufferpool::BufferPool;
use milvus_storage::codec;
use milvus_storage::object_store::ObjectStore;
use milvus_storage::pass::{self, FieldPass};
use milvus_storage::segment::{merge_segment_results, Segment};
use milvus_storage::{Result as StorageResult, Schema};
use parking_lot::RwLock;

use crate::coordinator::Coordinator;
use crate::transport::{rpc, Direct, NodeId, RetryPolicy, Transport};

/// A reader node.
pub struct ReaderNode {
    /// Coordinator-assigned node id.
    pub id: u64,
    /// `reader-{id}` — trace label and bufferpool metrics label.
    trace_label: Arc<str>,
    schema: Schema,
    coordinator: Arc<Coordinator>,
    shared: Arc<dyn ObjectStore>,
    /// All shared-storage reads route through this transport on the
    /// `Reader(id) → Storage` link.
    transport: Arc<dyn Transport>,
    retry: RetryPolicy,
    pool: BufferPool,
    /// The snapshot the last refresh installed. Searches clone the `Arc`,
    /// so a refresh never waits for them and they finish on the snapshot
    /// they started on.
    view: RwLock<Arc<View>>,
    /// Highest coordinator epoch this reader has refreshed against.
    seen_epoch: AtomicU64,
    /// Accumulated search time in nanoseconds — the per-node busy clock used
    /// to model node parallelism (Figure 10b).
    busy_ns: AtomicU64,
    /// `QUERY_TOTAL` / `QUERY_LATENCY` on the `"reader"` series, resolved
    /// once instead of per search.
    query_total: Arc<obs::Counter>,
    query_latency: Arc<obs::Histogram>,
}

/// A reader's snapshot: its loaded segments and, per float vector field,
/// the shared pass over those of them the field has no index on.
#[derive(Default)]
struct View {
    /// shard → loaded segments. A `BTreeMap` so iteration (and therefore
    /// the sequence of per-link fate draws under a simulated transport) is
    /// deterministic.
    shards: BTreeMap<usize, Vec<Arc<Segment>>>,
    /// `(shard, segment)` in [`by_shard`] order, as the passes were split.
    flat: Vec<(usize, Arc<Segment>)>,
    passes: Vec<FieldPass>,
}

impl View {
    fn new(schema: &Schema, shards: BTreeMap<usize, Vec<Arc<Segment>>>, label: &str) -> Self {
        let flat: Vec<_> = by_shard(&shards).map(|(shard, seg)| (shard, Arc::clone(seg))).collect();
        let segs: Vec<_> = flat.iter().map(|(_, seg)| Arc::clone(seg)).collect();
        let passes = FieldPass::split(schema, &segs, label);
        Self { shards, flat, passes }
    }
}

/// `(shard, segment)` for every segment of `shards`, in shard order.
fn by_shard(
    shards: &BTreeMap<usize, Vec<Arc<Segment>>>,
) -> impl Iterator<Item = (usize, &Arc<Segment>)> {
    shards.iter().flat_map(|(&shard, segs)| segs.iter().map(move |seg| (shard, seg)))
}

impl ReaderNode {
    /// Register a new reader with the coordinator (direct transport).
    pub fn register(
        schema: Schema,
        coordinator: Arc<Coordinator>,
        shared: Arc<dyn ObjectStore>,
        cache_bytes: usize,
    ) -> Arc<Self> {
        Self::register_with_transport(schema, coordinator, shared, cache_bytes, Arc::new(Direct))
    }

    /// Register a new reader whose storage fetches route through `transport`.
    pub fn register_with_transport(
        schema: Schema,
        coordinator: Arc<Coordinator>,
        shared: Arc<dyn ObjectStore>,
        cache_bytes: usize,
        transport: Arc<dyn Transport>,
    ) -> Arc<Self> {
        let id = coordinator.register_reader();
        let label = format!("reader-{id}");
        Arc::new(Self {
            id,
            trace_label: Arc::from(label.as_str()),
            schema,
            coordinator,
            shared,
            transport,
            retry: RetryPolicy::default(),
            pool: BufferPool::with_label(cache_bytes, label),
            view: RwLock::new(Arc::default()),
            seen_epoch: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            query_total: obs::counter(obs::QUERY_TOTAL, "reader"),
            query_latency: obs::histogram(obs::QUERY_LATENCY, "reader"),
        })
    }

    /// Shards this reader currently serves.
    pub fn assigned_shards(&self) -> Vec<usize> {
        self.coordinator.shards_of_reader(self.id)
    }

    /// Pull the newest segment versions of every assigned shard from shared
    /// storage (readers poll after writer flushes).
    pub fn refresh(&self) -> StorageResult<()> {
        // Read the epoch *before* loading: if a flush bumps it mid-refresh
        // we conservatively record the older value and refresh again later.
        let epoch = self.coordinator.epoch();
        let mut next: BTreeMap<usize, Vec<Arc<Segment>>> = BTreeMap::new();
        for shard in self.assigned_shards() {
            next.insert(shard, self.load_shard(shard)?);
        }
        *self.view.write() = Arc::new(View::new(&self.schema, next, &self.trace_label));
        self.seen_epoch.fetch_max(epoch, Ordering::SeqCst);
        obs::counter(obs::READER_REFRESHES, "reader").inc();
        Ok(())
    }

    /// Refresh only if this reader has not yet seen `epoch` — the lazy
    /// catch-up path for readers whose flush-time refresh was unreachable
    /// (they converge at the next query once their storage link heals).
    pub fn catch_up(&self, epoch: u64) -> StorageResult<()> {
        if self.seen_epoch.load(Ordering::SeqCst) >= epoch {
            return Ok(());
        }
        self.refresh()
    }

    /// Highest coordinator epoch this reader has refreshed against.
    pub fn seen_epoch(&self) -> u64 {
        self.seen_epoch.load(Ordering::SeqCst)
    }

    /// Load the newest segment versions of one shard from shared storage,
    /// routing `list`/`get` over the `Reader(id) → Storage` link.
    fn load_shard(&self, shard: usize) -> StorageResult<Vec<Arc<Segment>>> {
        let me = NodeId::Reader(self.id);
        let prefix = format!("shard-{shard}/segments/");
        let keys = rpc(&*self.transport, me, NodeId::Storage, "list", &self.retry, true, || {
            self.shared.list(&prefix)
        })?;
        // BTreeMap: version resolution and load order are deterministic.
        let mut latest: BTreeMap<u64, (u64, String)> = BTreeMap::new();
        for key in keys {
            if let Some((seg_id, version)) = parse_key(&key) {
                let e = latest.entry(seg_id).or_insert((version, key.clone()));
                if version > e.0 {
                    *e = (version, key);
                }
            }
        }
        let mut segs = Vec::with_capacity(latest.len());
        for (seg_id, (version, key)) in latest {
            // Cache key folds shard, segment and version together so a
            // new version is a distinct pool entry.
            let cache_key =
                (shard as u64) << 48 | (seg_id & 0xFFFF_FFFF) << 16 | (version & 0xFFFF);
            let seg = self.pool.get_or_load(cache_key, || {
                rpc(&*self.transport, me, NodeId::Storage, "get", &self.retry, true, || {
                    let blob = self.shared.get(&key)?;
                    Ok(Arc::new(codec::decode_segment(seg_id, version, &blob)?))
                })
            })?;
            segs.push(seg);
        }
        segs.sort_by_key(|s| s.id);
        Ok(segs)
    }

    /// Segments currently loaded (across shards).
    pub fn loaded_segments(&self) -> usize {
        self.view.read().shards.values().map(Vec::len).sum()
    }

    /// Loaded segments carrying at least one persisted index (the §2.3
    /// index-in-segment property observed from the read side).
    pub fn indexed_segments(&self) -> usize {
        self.view
            .read()
            .shards
            .values()
            .flatten()
            .filter(|s| !s.indexes_snapshot().is_empty())
            .count()
    }

    /// Bufferpool statistics (cache behaviour of §2.4 at the reader).
    pub fn cache_stats(&self) -> milvus_storage::bufferpool::PoolStats {
        self.pool.stats()
    }

    /// Per-segment bufferpool statistics, sorted by segment id.
    pub fn segment_cache_stats(
        &self,
    ) -> Vec<(u64, milvus_storage::bufferpool::SegmentPoolStats)> {
        self.pool.all_segment_stats()
    }

    /// Accumulated busy time.
    pub fn busy_time(&self) -> Duration {
        Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed))
    }

    /// Reset the busy clock (between benchmark runs).
    pub fn reset_busy(&self) {
        self.busy_ns.store(0, Ordering::Relaxed);
    }

    /// Search this reader's shards; results from all its segments merged,
    /// under a sampled trace.
    pub fn search(
        &self,
        field: &str,
        query: &[f32],
        params: &SearchParams,
    ) -> StorageResult<Vec<Neighbor>> {
        let mut trace = obs::Trace::start("reader_search", &self.trace_label);
        let result = self.search_traced(field, query, params, &mut trace);
        trace.finish();
        result
    }

    /// [`Self::search`], recording into a caller-supplied trace.
    ///
    /// The segments without an index on `field` are read through the
    /// snapshot's shared pass: concurrent callers attach to it and score
    /// each block once for all of them. The indexed segments are searched
    /// each on its own. Segment-scan spans carry the shard id and the
    /// bufferpool outcome of the segment's most recent fetch.
    pub fn search_traced(
        &self,
        field: &str,
        query: &[f32],
        params: &SearchParams,
        trace: &mut obs::Trace,
    ) -> StorageResult<Vec<Neighbor>> {
        let started = Instant::now();
        let t = trace.begin();
        let view = Arc::clone(&self.view.read());
        trace.record_with(obs::SpanKind::Route, t, |sp| sp.rows_scanned = view.shards.len() as u64);
        // A query of the wrong dimension reads every segment on its own,
        // which reports the error.
        let pass = view.passes.iter().find(|p| p.field == field && p.pass.dim() == query.len());
        let own: Vec<_> = match pass {
            Some(fp) => fp.indexed.iter().map(|&at| (view.flat[at].0, &view.flat[at].1)).collect(),
            None => by_shard(&view.shards).collect(),
        };
        let result = self.read(pass.map(|fp| (fp, &*view)), &own, field, query, params, trace);
        self.account(started);
        result
    }

    /// One caller's search on the `"reader"` query series.
    fn account(&self, started: Instant) {
        self.query_total.inc();
        self.query_latency.observe_us(started.elapsed().as_micros() as u64);
    }

    /// Search an explicit set of shards, regardless of this reader's current
    /// assignment — the fail-over path. Shards this reader already serves are
    /// answered from its loaded segments; any other shard is fetched
    /// on demand from shared storage (readers are stateless, so covering an
    /// unreachable peer's shards is just a cache fill). On-demand shards are
    /// *not* retained in the assignment map — the orphaned coverage is
    /// transient, but the bufferpool keeps the blobs hot for repeat calls.
    /// Every segment is searched on its own, by this caller alone.
    pub fn search_shards(
        &self,
        field: &str,
        query: &[f32],
        params: &SearchParams,
        shards: &[usize],
    ) -> StorageResult<Vec<Neighbor>> {
        let mut covered = BTreeMap::new();
        for &shard in shards {
            let held = self.view.read().shards.get(&shard).cloned();
            let segs = match held {
                Some(segs) => segs,
                None => self.load_shard(shard)?,
            };
            covered.insert(shard, segs);
        }
        let own: Vec<_> = by_shard(&covered).collect();
        self.read(None, &own, field, query, params, &mut obs::Trace::disabled())
    }

    /// One [`pass::read`] on this thread alone — a reader's idle run slot is
    /// not an idle core (DESIGN §16): the query's turn of `pass` (over the
    /// view's segments at `unindexed`) if there is one, then each `own`
    /// `(shard, segment)` through [`Segment::search_field`]; the lists
    /// merged. A live trace gets one span per segment of the pass over the
    /// blocks of it this caller scored (empty, at the end of the turn, if it
    /// scored none) and one per segment read on its own. The read's wall
    /// time is the node's busy time.
    fn read(
        &self,
        pass: Option<(&FieldPass, &View)>,
        own: &[(usize, &Arc<Segment>)],
        field: &str,
        query: &[f32],
        params: &SearchParams,
        trace: &mut obs::Trace,
    ) -> StorageResult<Vec<Neighbor>> {
        let start = Instant::now();
        let timed = trace.enabled();
        let attach = pass.map(|(fp, _)| (&fp.pass, query, params.k));
        let read = pass::read(attach, own.len(), 0, timed, |i| {
            let t0 = timed.then(Instant::now);
            let list = own[i].1.search_field(&self.schema, field, query, params, None);
            (list, t0.map(|t0| (t0, Instant::now())))
        });
        let span = |trace: &mut obs::Trace, shard: usize, seg: &Segment, (from, to)| {
            trace.record_window(obs::SpanKind::SegmentScan, from, to, |sp| {
                sp.segment_id = seg.id as i64;
                sp.shard = shard as i64;
                sp.rows_scanned = seg.live_rows() as u64;
                sp.cache = self.pool.last_outcome(seg.id);
            });
        };
        if let Some((fp, view)) = pass {
            for (&at, window) in fp.unindexed.iter().zip(&read.timing.windows) {
                let window = window.unwrap_or_else(|| (Instant::now(), Instant::now()));
                let (shard, seg) = &view.flat[at];
                span(trace, *shard, seg, window);
            }
        }
        for (&(shard, seg), (_, window)) in own.iter().zip(&read.segments) {
            if let Some(window) = *window {
                span(trace, shard, seg, window);
            }
        }
        let t = trace.begin();
        let lists: StorageResult<Vec<Vec<Neighbor>>> = read
            .segments
            .into_iter()
            .map(|(list, _)| list)
            .chain([Ok(read.pass)])
            .collect();
        let out = lists.map(|lists| merge_segment_results(&lists, params.k));
        trace.record(obs::SpanKind::HeapMerge, t);
        self.busy_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

fn parse_key(key: &str) -> Option<(u64, u64)> {
    // shard-N/segments/000000000001.v000001.seg
    let stem = key.rsplit('/').next()?.strip_suffix(".seg")?;
    let (id, v) = stem.split_once(".v")?;
    Some((id.parse().ok()?, v.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::WriterNode;
    use milvus_index::{Metric, VectorSet};
    use milvus_storage::object_store::MemoryStore;
    use milvus_storage::{InsertBatch, LsmConfig};

    fn setup(shards: usize, readers: usize) -> (Arc<Coordinator>, WriterNode, Vec<Arc<ReaderNode>>) {
        let coordinator = Coordinator::new(shards);
        let shared: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let schema = Schema::single("v", 2, Metric::L2);
        let cfg = LsmConfig { auto_merge: false, ..Default::default() };
        let writer =
            WriterNode::new(schema.clone(), cfg, Arc::clone(&shared), Arc::clone(&coordinator))
                .unwrap();
        let rs = (0..readers)
            .map(|_| {
                ReaderNode::register(
                    schema.clone(),
                    Arc::clone(&coordinator),
                    Arc::clone(&shared),
                    64 << 20,
                )
            })
            .collect();
        (coordinator, writer, rs)
    }

    fn insert_n(writer: &WriterNode, n: usize) {
        let ids: Vec<i64> = (0..n as i64).collect();
        let mut vs = VectorSet::new(2);
        for &id in &ids {
            vs.push(&[id as f32, 0.0]);
        }
        writer.insert(InsertBatch::single(ids, vs)).unwrap();
        writer.flush().unwrap();
    }

    #[test]
    fn readers_see_writer_data_after_refresh() {
        let (_, writer, readers) = setup(4, 2);
        insert_n(&writer, 100);
        let mut total_hits = 0;
        for r in &readers {
            r.refresh().unwrap();
            let res = r.search("v", &[42.0, 0.0], &SearchParams::top_k(1)).unwrap();
            if res.first().map(|n| n.id) == Some(42) {
                total_hits += 1;
            }
        }
        // Exactly the reader owning id 42's shard finds it as the top hit.
        assert_eq!(total_hits, 1);
        assert!(readers.iter().map(|r| r.loaded_segments()).sum::<usize>() >= 4);
    }

    #[test]
    fn cache_hits_on_second_refresh() {
        let (_, writer, readers) = setup(2, 1);
        insert_n(&writer, 40);
        let r = &readers[0];
        r.refresh().unwrap();
        let misses_first = r.cache_stats().misses;
        assert!(misses_first > 0);
        r.refresh().unwrap();
        // Same segment versions → all hits, no new misses.
        assert_eq!(r.cache_stats().misses, misses_first);
        assert!(r.cache_stats().hits > 0);
    }

    #[test]
    fn busy_clock_accumulates() {
        let (_, writer, readers) = setup(2, 1);
        insert_n(&writer, 60);
        let r = &readers[0];
        r.refresh().unwrap();
        assert_eq!(r.busy_time(), Duration::ZERO);
        r.search("v", &[1.0, 0.0], &SearchParams::top_k(5)).unwrap();
        assert!(r.busy_time() > Duration::ZERO);
        r.reset_busy();
        assert_eq!(r.busy_time(), Duration::ZERO);
    }
}

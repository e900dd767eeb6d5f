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

use milvus_exec::coalesce::{Coalescer, Submitted};
use milvus_index::traits::SearchParams;
use milvus_index::Neighbor;
use milvus_obs as obs;
use milvus_storage::bufferpool::BufferPool;
use milvus_storage::codec;
use milvus_storage::object_store::ObjectStore;
use milvus_storage::segment::{Fanout, Segment};
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
    /// shard → loaded segments. A `BTreeMap` so iteration (and therefore
    /// the sequence of per-link fate draws under a simulated transport) is
    /// deterministic.
    segments: RwLock<BTreeMap<usize, Vec<Arc<Segment>>>>,
    /// Highest coordinator epoch this reader has refreshed against.
    seen_epoch: AtomicU64,
    /// Accumulated search time in nanoseconds — the per-node busy clock used
    /// to model node parallelism (Figure 10b).
    busy_ns: AtomicU64,
    /// The reader-local query scheduler: concurrent [`ReaderNode::search`]
    /// calls (the fan-in of `Cluster::search` under client concurrency) each
    /// take a run slot while one is free and sweep the segments themselves;
    /// once every slot is taken the rest queue and run as one sweep per
    /// freed slot. A lone caller always finds a slot, which keeps serially
    /// driven transcripts (the partition-chaos tests) byte-identical.
    coalescer: Coalescer<ReaderQuery, StorageResult<Vec<Neighbor>>>,
    /// `QUERY_TOTAL` / `QUERY_LATENCY` on the `"reader"` series, resolved
    /// once instead of per search.
    query_total: Arc<obs::Counter>,
    query_latency: Arc<obs::Histogram>,
}

/// One coalescable reader query: `(field, query, params)`, owned.
type ReaderQuery = (String, Vec<f32>, SearchParams);

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
            segments: RwLock::new(BTreeMap::new()),
            seen_epoch: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            coalescer: Coalescer::new(milvus_exec::coalesce::CoalesceConfig::default()),
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
        *self.segments.write() = next;
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
        self.segments.read().values().map(Vec::len).sum()
    }

    /// Loaded segments carrying at least one persisted index (the §2.3
    /// index-in-segment property observed from the read side).
    pub fn indexed_segments(&self) -> usize {
        self.segments
            .read()
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

    /// Search this reader's shards; results from all its segments merged.
    ///
    /// Routed through the reader-local scheduler: a call that finds a run
    /// slot free sweeps the segments itself under a sampled trace; calls
    /// arriving while every slot is taken are coalesced into one sweep whose
    /// per-query results are bit-identical to lone calls.
    pub fn search(
        &self,
        field: &str,
        query: &[f32],
        params: &SearchParams,
    ) -> StorageResult<Vec<Neighbor>> {
        let started = Instant::now();
        let req = (field.to_string(), query.to_vec(), params.clone());
        let lead = |batch: Vec<ReaderQuery>| {
            let reqs: Vec<(&str, &[f32], &SearchParams)> =
                batch.iter().map(|(f, q, p)| (f.as_str(), q.as_slice(), p)).collect();
            self.sweep(&self.segments.read(), &reqs, &mut obs::Trace::disabled())
        };
        match self.coalescer.submit(req, lead) {
            Submitted::Pass(guard) => {
                let mut trace = obs::Trace::start("reader_search", &self.trace_label);
                let result = self.search_traced(field, query, params, &mut trace);
                trace.finish();
                drop(guard);
                result
            }
            Submitted::Coalesced { result, .. } => {
                // Per-caller accounting; the leader ran the shared sweep
                // uncounted.
                self.account(started);
                result
            }
        }
    }

    /// [`Self::search`] for a lone caller, recording into a caller-supplied
    /// trace. Segment-scan spans carry the shard id and the bufferpool
    /// outcome of the segment's most recent fetch.
    pub fn search_traced(
        &self,
        field: &str,
        query: &[f32],
        params: &SearchParams,
        trace: &mut obs::Trace,
    ) -> StorageResult<Vec<Neighbor>> {
        let started = Instant::now();
        let t = trace.begin();
        let segments = self.segments.read();
        let nshards = segments.len();
        trace.record_with(obs::SpanKind::Route, t, |sp| sp.rows_scanned = nshards as u64);
        let result = self.sweep(&segments, &[(field, query, params)], trace).pop();
        self.account(started);
        result.expect("one result per query")
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
    pub fn search_shards(
        &self,
        field: &str,
        query: &[f32],
        params: &SearchParams,
        shards: &[usize],
    ) -> StorageResult<Vec<Neighbor>> {
        let mut covered = BTreeMap::new();
        for &shard in shards {
            let held = self.segments.read().get(&shard).cloned();
            let segs = match held {
                Some(segs) => segs,
                None => self.load_shard(shard)?,
            };
            covered.insert(shard, segs);
        }
        self.sweep(&covered, &[(field, query, params)], &mut obs::Trace::disabled())
            .pop()
            .expect("one result per query")
    }

    /// The one segment sweep every entry point shares: partition `reqs` into
    /// groups of identical `(field, params)`, hand each group to
    /// [`Segment::search_batch`] segment by segment (which decides what may
    /// batch), and merge per query — one result per request, in input order.
    /// The sweep's wall time is the node's busy time.
    fn sweep(
        &self,
        shards: &BTreeMap<usize, Vec<Arc<Segment>>>,
        reqs: &[(&str, &[f32], &SearchParams)],
        trace: &mut obs::Trace,
    ) -> Vec<StorageResult<Vec<Neighbor>>> {
        let start = Instant::now();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, &(field, _, params)) in reqs.iter().enumerate() {
            let same = |g: &&mut Vec<usize>| (reqs[g[0]].0, reqs[g[0]].2) == (field, params);
            match groups.iter_mut().find(same) {
                Some(group) => group.push(i),
                None => groups.push(vec![i]),
            }
        }
        let batches: Vec<(Vec<&[f32]>, Vec<usize>)> = groups
            .iter()
            .map(|g| (g.iter().map(|&qi| reqs[qi].1).collect(), vec![reqs[g[0]].2.k; g.len()]))
            .collect();
        let mut lists: Vec<Vec<StorageResult<Vec<Neighbor>>>> =
            reqs.iter().map(|_| Vec::new()).collect();
        for (&shard, segs) in shards {
            for seg in segs {
                for (group, (queries, ks)) in groups.iter().zip(&batches) {
                    let (field, _, params) = reqs[group[0]];
                    let t = trace.begin();
                    // Serial: every reader has run slots for all the host's
                    // cores, so one reader's idle slots are not idle cores.
                    let (found, stats) = seg.search_batch(
                        &self.schema,
                        field,
                        queries,
                        ks,
                        params,
                        None,
                        Fanout::SERIAL,
                    );
                    trace.record_with(obs::SpanKind::SegmentScan, t, |sp| {
                        sp.segment_id = seg.id as i64;
                        sp.shard = shard as i64;
                        sp.rows_scanned = stats.rows_scanned;
                        sp.cache = self.pool.last_outcome(seg.id);
                    });
                    for (&qi, list) in group.iter().zip(found) {
                        lists[qi].push(list);
                    }
                }
            }
        }
        let t = trace.begin();
        let out = lists
            .into_iter()
            .zip(reqs)
            .map(|(lists, (_, _, params))| {
                let lists = lists.into_iter().collect::<StorageResult<Vec<_>>>()?;
                Ok(milvus_storage::segment::merge_segment_results(&lists, params.k))
            })
            .collect();
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

//! Collections: the user-facing unit of data management (§2.1).
//!
//! A collection holds entities (one or more vectors + numeric attributes),
//! supports dynamic inserts/deletes through the asynchronous LSM pipeline,
//! and answers the paper's three primitive query types: vector query,
//! attribute filtering, and multi-vector query.

use std::sync::Arc;
use std::time::Instant;

use milvus_exec::coalesce::Submitted;
use milvus_index::registry::IndexRegistry;
use milvus_index::traits::SearchParams;
use milvus_index::{Metric, Neighbor, VectorSet};
use milvus_obs as obs;
use milvus_query::filtering::{self, Strategy};
use milvus_query::multivector::MultiVectorEngine;
use milvus_storage::object_store::ObjectStore;
use milvus_storage::pass;
use milvus_storage::segment::{merge_segment_results, Segment};
use milvus_storage::snapshot::Snapshot;
use milvus_storage::{InsertBatch, LsmEngine, Schema};
use parking_lot::{Condvar, Mutex};

use crate::config::CollectionConfig;
use crate::error::{MilvusError, Result};
use crate::ingest::AsyncIngest;
use crate::scheduler::{group_batch, QueryScheduler, SearchRequest};

/// One search result with the user-facing score (similarities un-negated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// Entity id.
    pub id: i64,
    /// Raw metric value: distance for L2/Hamming…, similarity for IP/cosine.
    pub score: f32,
    /// Internal distance (smaller = better), useful for merging.
    pub distance: f32,
}

/// A fully materialized entity (for point lookups).
#[derive(Debug, Clone, PartialEq)]
pub struct EntityView {
    /// Entity id.
    pub id: i64,
    /// One vector per schema vector field.
    pub vectors: Vec<Vec<f32>>,
    /// One value per schema attribute field.
    pub attributes: Vec<f64>,
}

/// Summary statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectionStats {
    /// Flushed segments in the current snapshot.
    pub segments: usize,
    /// Live (non-tombstoned) rows across segments.
    pub live_rows: usize,
    /// Rows buffered in the memtable.
    pub pending_rows: usize,
    /// Segments carrying an index on at least one vector field.
    pub indexed_segments: usize,
    /// Approximate resident bytes of all segments: the sum of the three
    /// components below.
    pub memory_bytes: usize,
    /// Segment payloads: ids, vector columns, attribute columns.
    pub segment_bytes: usize,
    /// What the indexes hold beyond the payload (a vector buffer an index
    /// shares with its segment's column is payload).
    pub index_bytes: usize,
    /// Live-row bitmaps of segments with tombstones.
    pub tombstone_bytes: usize,
}

/// A named collection of entities.
pub struct Collection {
    name: String,
    /// Collection name as a shared `Arc<str>` so per-query traces can carry
    /// the label without allocating on admission.
    trace_label: Arc<str>,
    schema: Schema,
    config: CollectionConfig,
    engine: Arc<LsmEngine>,
    registry: IndexRegistry,
    ingest: AsyncIngest,
    inflight_builds: Arc<(Mutex<usize>, Condvar)>,
    scheduler: QueryScheduler,
    /// Per-query metric handles, resolved once: [`Self::account`] runs on
    /// every query and must not pay five registry look-ups for it.
    query_latency: Arc<obs::Histogram>,
    query_total: Arc<obs::Counter>,
    query_nprobe: Arc<obs::Counter>,
    query_ef: Arc<obs::Counter>,
    query_errors: Arc<obs::Counter>,
    /// Filtered-search counts per (segment, query) pair — independent of how
    /// queries were coalesced, so they repeat exactly for a fixed workload.
    filter_rows_passing: Arc<obs::Counter>,
    filter_strategy_a: Arc<obs::Counter>,
    filter_strategy_b: Arc<obs::Counter>,
}

impl Collection {
    /// Open (or recover, when a WAL path exists) a collection.
    pub fn open(
        name: String,
        schema: Schema,
        config: CollectionConfig,
        store: Arc<dyn ObjectStore>,
        registry: IndexRegistry,
    ) -> Result<Self> {
        schema.validate()?;
        let mut config = config;
        config.lsm.metrics_label = name.clone();
        let engine = match &config.wal_path {
            Some(path) if path.exists() => Arc::new(LsmEngine::recover(
                schema.clone(),
                config.lsm.clone(),
                store,
                path,
            )?),
            Some(path) => {
                Arc::new(LsmEngine::new(schema.clone(), config.lsm.clone(), store, Some(path))?)
            }
            None => Arc::new(LsmEngine::new(schema.clone(), config.lsm.clone(), store, None)?),
        };
        let ingest = AsyncIngest::start(Arc::clone(&engine), config.flush_interval);
        let scheduler = QueryScheduler::new(&name, config.scheduler.clone());
        Ok(Self {
            query_latency: obs::histogram(obs::QUERY_LATENCY, &name),
            query_total: obs::counter(obs::QUERY_TOTAL, &name),
            query_nprobe: obs::counter(obs::QUERY_NPROBE_EFFECTIVE, &name),
            query_ef: obs::counter(obs::QUERY_EF_EFFECTIVE, &name),
            query_errors: obs::counter(obs::QUERY_ERRORS, &name),
            filter_rows_passing: obs::counter(obs::FILTER_ROWS_PASSING, &name),
            filter_strategy_a: obs::counter(obs::FILTER_STRATEGY_A, &name),
            filter_strategy_b: obs::counter(obs::FILTER_STRATEGY_B, &name),
            trace_label: Arc::from(name.as_str()),
            name,
            scheduler,
            schema,
            config,
            engine,
            registry,
            ingest,
            inflight_builds: Arc::new((Mutex::new(0), Condvar::new())),
        })
    }

    /// Collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The underlying engine (used by the distributed layer).
    pub fn engine(&self) -> &Arc<LsmEngine> {
        &self.engine
    }

    /// Insert entities (asynchronous: acknowledged after the WAL append;
    /// visible to search after the next flush, §5.1).
    pub fn insert(&self, batch: InsertBatch) -> Result<()> {
        let _span = obs::span(obs::INGEST_LATENCY, &self.name);
        obs::counter(obs::INGEST_BATCHES, &self.name).inc();
        obs::counter(obs::INGEST_ROWS, &self.name).add(batch.ids.len() as u64);
        self.ingest.insert(batch)
    }

    /// Delete entities by id (out-of-place tombstones, §2.3).
    pub fn delete(&self, ids: Vec<i64>) -> Result<()> {
        self.ingest.delete(ids)
    }

    /// Block until all pending operations are applied and flushed (§5.1),
    /// then run the auto-index policy.
    pub fn flush(&self) -> Result<()> {
        let _span = obs::span(obs::FLUSH_LATENCY, &self.name);
        self.ingest.flush()?;
        if self.config.auto_index_type.is_some() {
            self.ensure_indexes()?;
        }
        Ok(())
    }

    /// Pin the current snapshot (§5.2).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.engine.snapshot()
    }

    /// Live entities visible to search.
    pub fn num_entities(&self) -> usize {
        self.engine.snapshot().live_rows()
    }

    /// Collection statistics.
    pub fn stats(&self) -> CollectionStats {
        let snap = self.engine.snapshot();
        let indexed = snap
            .segments
            .iter()
            .filter(|s| self.schema.vector_fields.iter().any(|f| s.index(&f.name).is_some()))
            .count();
        let bytes = snap.stored_bytes();
        CollectionStats {
            segments: snap.segments.len(),
            live_rows: snap.live_rows(),
            pending_rows: self.engine.pending_rows(),
            indexed_segments: indexed,
            memory_bytes: bytes.total(),
            segment_bytes: bytes.segment,
            index_bytes: bytes.index,
            tombstone_bytes: bytes.tombstones,
        }
    }

    fn to_hits(&self, metric: Metric, neighbors: Vec<Neighbor>) -> Vec<SearchHit> {
        neighbors
            .into_iter()
            .map(|n| SearchHit { id: n.id, score: metric.display_score(n.dist), distance: n.dist })
            .collect()
    }

    /// Vector query (§2.1): top-k over `field` across all segments of the
    /// query's snapshot, merged.
    ///
    /// Every query first passes the scheduler's admission controller: when
    /// the collection's in-flight budget (sized from flight-recorder
    /// signals) is exhausted the query is shed with
    /// [`MilvusError::Overloaded`] instead of queueing behind a backlog it
    /// would only deepen. An admitted query that finds a run slot free (there
    /// is one per core) runs the pipeline itself as a batch of one; queries
    /// arriving while every slot is taken queue, and the first slot to free
    /// runs them through the same pipeline as one batch whose per-query
    /// results are bit-identical (a batched segment scan shares the segment's
    /// data rows across the batch instead of re-streaming them per query).
    pub fn search(&self, field: &str, query: &[f32], params: &SearchParams) -> Result<Vec<SearchHit>> {
        self.run("search", SearchRequest::vector(field, query, params))
    }

    /// Batch vector query: one result list per query. The queries are
    /// already a batch, so they skip the coalescer: one admission slot, one
    /// run of the pipeline over the whole set.
    pub fn search_batch(
        &self,
        field: &str,
        queries: &VectorSet,
        params: &SearchParams,
    ) -> Result<Vec<Vec<SearchHit>>> {
        let _slot = self.scheduler.admit()?;
        let started = Instant::now();
        let reqs: Vec<SearchRequest> =
            queries.iter().map(|q| SearchRequest::vector(field, q, params)).collect();
        let mut trace = obs::Trace::start("search_batch", &self.trace_label);
        let results = self.execute(&reqs, &mut trace);
        trace.finish();
        for result in &results {
            self.account(started, params, result);
        }
        results.into_iter().collect()
    }

    /// Attribute filtering (§2.1, §4.1): top-k under `attr ∈ [lo, hi]`.
    ///
    /// Every segment runs strategy D: [`filtering::plan`] picks the
    /// attribute-first exact scan (A) when at most
    /// [`filtering::PREFILTER_ROWS_PER_K`]`·k` rows pass or the segment has
    /// no index, else the bitmap-filtered index search (B), and
    /// [`filtering::scan_segment`] runs it. The rest of the strategy suite
    /// (C, and partition-based E) lives beside them in `milvus-query` and is
    /// exercised by the benchmarks.
    #[allow(clippy::too_many_arguments)]
    pub fn filtered_search(
        &self,
        field: &str,
        query: &[f32],
        attr: &str,
        lo: f64,
        hi: f64,
        params: &SearchParams,
    ) -> Result<Vec<SearchHit>> {
        self.run(
            "filtered_search",
            SearchRequest::Filtered {
                field: field.to_string(),
                query: query.to_vec(),
                attr: attr.to_string(),
                lo,
                hi,
                params: params.clone(),
            },
        )
    }

    /// Run one search under a forced trace and render its per-stage
    /// breakdown as an `EXPLAIN ANALYZE`-style report. The trace bypasses
    /// the sampler and also feeds the query profiler.
    pub fn explain_analyze(
        &self,
        field: &str,
        query: &[f32],
        params: &SearchParams,
    ) -> Result<String> {
        let started = Instant::now();
        let req = SearchRequest::vector(field, query, params);
        let mut trace = obs::Trace::forced("search", &self.trace_label);
        let result = self.execute_one(&req, &mut trace);
        let finished = trace.finish_always();
        self.account(started, params, &result);
        result?;
        Ok(finished.map(|t| obs::explain_report(&t)).unwrap_or_default())
    }

    /// One admitted request through the scheduler: a pass-through caller
    /// runs the pipeline on its own request (a batch of one, under a sampled
    /// trace; queries slower than the configured threshold land in the
    /// slow-query log); a coalesced batch's leader runs it once for
    /// everybody, and each caller's trace carries its wait as a
    /// `coalesce_wait` span.
    fn run(&self, op: &'static str, req: SearchRequest) -> Result<Vec<SearchHit>> {
        let _slot = self.scheduler.admit()?;
        let started = Instant::now();
        let params = req.params().clone();
        let lead = |batch: Vec<SearchRequest>| self.execute(&batch, &mut obs::Trace::disabled());
        let result = match self.scheduler.submit(req, lead) {
            // The guard holds our run slot while we run.
            Submitted::Pass(guard) => {
                self.scheduler.note_passthrough();
                let mut trace = obs::Trace::start(op, &self.trace_label);
                let result = self.execute_one(guard.query(), &mut trace);
                trace.finish();
                result
            }
            Submitted::Coalesced { result, batch, led, waited } => {
                if led {
                    self.scheduler.note_batch(batch);
                }
                let mut trace = obs::Trace::start(op, &self.trace_label);
                let wait_end = started + waited;
                trace.record_window(obs::SpanKind::CoalesceWait, started, wait_end, |_| {});
                trace.finish();
                result
            }
        };
        self.account(started, &params, &result);
        result
    }

    /// Per-caller query accounting, whatever the request kind and however it
    /// was executed: a coalesced batch runs once on its leader, but every
    /// caller records its own totals and its own end-to-end latency
    /// (including any coalesce wait).
    fn account(&self, started: Instant, params: &SearchParams, result: &Result<Vec<SearchHit>>) {
        self.query_latency.observe_us(started.elapsed().as_micros() as u64);
        self.query_total.inc();
        self.query_nprobe.add(params.nprobe as u64);
        self.query_ef.add(params.ef as u64);
        if result.is_err() {
            self.query_errors.inc();
        }
    }

    /// Resolve a request's field (and attribute) names against the schema.
    fn resolve(&self, req: &SearchRequest) -> Result<Resolved> {
        let field = req.field();
        let fi = self
            .schema
            .vector_field_index(field)
            .ok_or_else(|| MilvusError::NoSuchField(field.to_string()))?;
        let filter = match req {
            SearchRequest::Vector { .. } => None,
            SearchRequest::Filtered { attr, lo, hi, .. } => {
                let ai = self
                    .schema
                    .attribute_index(attr)
                    .ok_or_else(|| MilvusError::NoSuchAttribute(attr.clone()))?;
                Some((ai, *lo, *hi))
            }
        };
        Ok(Resolved { metric: self.schema.vector_fields[fi].metric, filter })
    }

    /// [`Self::execute`] for a batch of one.
    fn execute_one(&self, req: &SearchRequest, trace: &mut obs::Trace) -> Result<Vec<SearchHit>> {
        self.execute(std::slice::from_ref(req), trace).pop().expect("one result per request")
    }

    /// The query pipeline, for every entry point and every batch size:
    /// plan (resolve names, partition into parameter-compatible groups) →
    /// pin a snapshot → per group, one [`pass::read`]: a group of one
    /// unfiltered query claims its blocks of the snapshot's shared pass over
    /// the segments without an index on its field, then every group claims
    /// the segments it reads on its own ([`Self::scan_group`]), this thread
    /// and one helper per idle run slot claiming side by side (none when
    /// every slot is taken and the cores are busy with whole queries) →
    /// merge per query. Failures come back as values — one `Result` per
    /// request, in input order — so one bad request cannot fail the batch it
    /// was coalesced into.
    ///
    /// `&mut Trace` stays on this thread: each read returns its windows and
    /// its worst-queued helper (only when the trace is live — the untraced
    /// hot path stays clock-free), and spans are recorded after the joins —
    /// queue wait separate from scan time, so the profiler can tell
    /// saturation from slow scans.
    fn execute(
        &self,
        reqs: &[SearchRequest],
        trace: &mut obs::Trace,
    ) -> Vec<Result<Vec<SearchHit>>> {
        let t = trace.begin();
        let resolved: Vec<Result<Resolved>> = reqs.iter().map(|r| self.resolve(r)).collect();
        let groups: Vec<Group<'_>> = group_batch(reqs)
            .into_iter()
            .filter_map(|idxs| {
                let plan = *resolved[idxs[0]].as_ref().ok()?;
                let queries = idxs.iter().map(|&qi| reqs[qi].query()).collect();
                let ks = idxs.iter().map(|&qi| reqs[qi].params().k).collect();
                Some(Group { req: &reqs[idxs[0]], idxs, queries, ks, plan })
            })
            .collect();
        trace.record(obs::SpanKind::Parse, t);

        let t = trace.begin();
        let snap = self.engine.snapshot();
        let nsegs = snap.segments.len();
        trace.record_with(obs::SpanKind::Route, t, |sp| sp.rows_scanned = nsegs as u64);

        let idle = self.scheduler.idle_slots();
        let timed = trace.enabled();
        let every: Vec<usize> = (0..nsegs).collect();
        let reads: Vec<_> = groups
            .iter()
            .map(|g| {
                // A group of one unfiltered query reads the segments without an
                // index on its field through the snapshot's pass for the field
                // (a query of another dimension reads them on its own, which
                // reports it), and the others on their own.
                let lone = g.idxs.len() == 1 && g.plan.filter.is_none();
                let (field, dim) = (g.req.field(), g.queries[0].len());
                let fps = if lone { snap.passes(&self.schema, &self.trace_label) } else { &[] };
                let fp = fps.iter().find(|fp| fp.field == field && fp.pass.dim() == dim && fp.pass.blocks() > 0);
                let own = fp.map_or(&every[..], |fp| &fp.indexed[..]);
                let pass = fp.map(|fp| (&fp.pass, g.queries[0], g.ks[0]));
                let read = pass::read(pass, own.len(), idle, timed, |i| {
                    self.scan_group(&snap.segments[own[i]], g, timed)
                });
                let windows = fp.iter().flat_map(|fp| fp.pass.segments().iter().zip(&read.timing.windows));
                for (seg, window) in windows {
                    let (start, end) = window.unwrap_or_else(|| (Instant::now(), Instant::now()));
                    trace.record_window(obs::SpanKind::SegmentScan, start, end, |sp| {
                        sp.segment_id = seg.id as i64;
                        sp.rows_scanned = seg.live_rows() as u64;
                    });
                }
                if let Some((start, end)) = read.timing.helper_wait {
                    trace.record_window(obs::SpanKind::QueueWait, start, end, |_| {});
                }
                for (&si, scan) in own.iter().zip(&read.segments) {
                    let seg_id = snap.segments[si].id as i64;
                    if let Some((start, end)) = scan.filter_window {
                        trace.record_window(obs::SpanKind::Filter, start, end, |sp| {
                            sp.segment_id = seg_id;
                            sp.rows_scanned = scan.passing as u64;
                        });
                    }
                    if let Some((start, end)) = scan.scan_window {
                        trace.record_window(obs::SpanKind::SegmentScan, start, end, |sp| {
                            sp.segment_id = seg_id;
                            sp.rows_scanned = scan.rows_scanned;
                        });
                    }
                }
                read
            })
            .collect();

        let t = trace.begin();
        let mut out: Vec<Result<Vec<SearchHit>>> =
            resolved.into_iter().map(|r| r.map(|_| Vec::new())).collect();
        for (group, mut read) in groups.iter().zip(reads) {
            for (j, &qi) in group.idxs.iter().enumerate() {
                // Per query: its list from every segment it read on its own,
                // in segment order (so the first failing segment's error
                // wins), and from its pass, merged.
                let lists: milvus_storage::Result<Vec<Vec<Neighbor>>> = read
                    .segments
                    .iter_mut()
                    .map(|scan| std::mem::replace(&mut scan.lists[j], Ok(Vec::new())))
                    .chain([Ok(std::mem::take(&mut read.pass))])
                    .collect();
                out[qi] = lists
                    .map(|lists| merge_segment_results(&lists, group.ks[j]))
                    .map(|merged| self.to_hits(group.plan.metric, merged))
                    .map_err(MilvusError::from);
            }
        }
        trace.record(obs::SpanKind::HeapMerge, t);
        out
    }

    /// One segment's answers for one group. Vector groups go straight to
    /// [`Segment::search_batch`]. Filtered groups evaluate the predicate once
    /// for the whole group, into a bitmap over the segment's rows, and run
    /// the strategy [`filtering::plan`] picks for its count through
    /// [`filtering::scan_segment`]. Windows are timed only when `timed`.
    fn scan_group(&self, seg: &Segment, group: &Group<'_>, timed: bool) -> GroupScan {
        let clock = || timed.then(Instant::now);
        let (field, params) = (group.req.field(), group.req.params());
        let members = group.idxs.len() as u64;
        let mut out = GroupScan::default();

        let Some((ai, lo, hi)) = group.plan.filter else {
            let s_start = clock();
            out.rows_scanned = seg.live_rows() as u64;
            out.lists = seg.search_batch(&self.schema, field, &group.queries, &group.ks, params, None);
            out.scan_window = s_start.zip(clock());
            return out;
        };
        let f_start = clock();
        let mask = seg.data().attributes[ai].range_mask(lo, hi);
        out.passing = mask.count();
        out.filter_window = f_start.zip(clock());
        self.filter_rows_passing.add(out.passing as u64 * members);
        if out.passing == 0 {
            // Nothing passes: this segment contributes an empty list.
            out.lists = group.idxs.iter().map(|_| Ok(Vec::new())).collect();
            return out;
        }

        let s_start = clock();
        let strategy = filtering::plan(seg, field, out.passing, params.k);
        let (count, rows) = match strategy {
            Strategy::A => (&self.filter_strategy_a, out.passing),
            _ => (&self.filter_strategy_b, seg.live_rows()),
        };
        count.add(members);
        out.rows_scanned = rows as u64;
        let queries = &group.queries;
        out.lists = filtering::scan_segment(seg, &self.schema, field, strategy, queries, params, &mask);
        out.scan_window = s_start.zip(clock());
        out
    }

    /// Materialize one entity.
    pub fn get_entity(&self, id: i64) -> Option<EntityView> {
        let snap = self.engine.snapshot();
        let seg = snap.locate(id)?;
        let row = seg.data().row_ids.binary_search(&id).ok()?;
        let vectors = seg.data().vectors.iter().map(|col| col.get(row).to_vec()).collect();
        let attributes = seg.data().attributes.iter().map(|col| col.value_at(row)).collect();
        Some(EntityView { id, vectors, attributes })
    }

    /// Build an index of `index_type` on `field` for **every** segment
    /// ("users are allowed to manually build indexes for segments of any
    /// size", §2.3). Synchronous.
    pub fn build_index(&self, field: &str, index_type: &str) -> Result<usize> {
        if self.schema.vector_field_index(field).is_none() {
            return Err(MilvusError::NoSuchField(field.to_string()));
        }
        let snap = self.engine.snapshot();
        let mut built = 0;
        for seg in &snap.segments {
            if seg.index(field).is_none() && seg.live_rows() > 0 {
                let _span = obs::span(obs::INDEX_BUILD_LATENCY, &self.name);
                let next = seg.build_index(
                    &self.schema,
                    field,
                    index_type,
                    &self.registry,
                    &self.config.build_params,
                )?;
                if self.engine.replace_segment(Arc::new(next))? {
                    obs::counter(obs::INDEX_BUILDS, &self.name).inc();
                    built += 1;
                }
            }
        }
        Ok(built)
    }

    /// Build an index asynchronously (§5.1: "Milvus builds indexes
    /// asynchronously"); pair with [`Collection::wait_for_index_builds`].
    pub fn build_index_async(self: &Arc<Self>, field: String, index_type: String) {
        let this = Arc::clone(self);
        {
            let (count, _) = &*self.inflight_builds;
            *count.lock() += 1;
        }
        std::thread::spawn(move || {
            let _ = this.build_index(&field, &index_type);
            let (count, cv) = &*this.inflight_builds;
            *count.lock() -= 1;
            cv.notify_all();
        });
    }

    /// Block until no asynchronous index builds are in flight.
    pub fn wait_for_index_builds(&self) {
        let (count, cv) = &*self.inflight_builds;
        let mut guard = count.lock();
        while *guard > 0 {
            cv.wait(&mut guard);
        }
    }

    /// The §2.3 auto-index policy: index every vector field of segments
    /// whose payload is at least `index_threshold_bytes`.
    pub fn ensure_indexes(&self) -> Result<usize> {
        let Some(index_type) = self.config.auto_index_type.clone() else {
            return Ok(0);
        };
        let snap = self.engine.snapshot();
        let mut built = 0;
        for seg in &snap.segments {
            if seg.data().memory_bytes() < self.config.index_threshold_bytes
                || seg.live_rows() == 0
            {
                continue;
            }
            for vf in &self.schema.vector_fields {
                if seg.index(&vf.name).is_none() {
                    let _span = obs::span(obs::INDEX_BUILD_LATENCY, &self.name);
                    let next = seg.build_index(
                        &self.schema,
                        &vf.name,
                        &index_type,
                        &self.registry,
                        &self.config.build_params,
                    )?;
                    if self.engine.replace_segment(Arc::new(next))? {
                        obs::counter(obs::INDEX_BUILDS, &self.name).inc();
                        built += 1;
                    }
                }
            }
        }
        Ok(built)
    }

    /// Construct a multi-vector query engine (§4.2) over the current
    /// snapshot. `weights` aggregates per-field internal distances by
    /// weighted sum; `with_fusion` additionally builds the concatenated
    /// fusion index (decomposable metrics only).
    pub fn multivector_engine(
        &self,
        index_type: &str,
        weights: Vec<f32>,
        with_fusion: bool,
    ) -> Result<MultiVectorEngine> {
        let snap = self.engine.snapshot();
        let mut fields: Vec<VectorSet> =
            self.schema.vector_fields.iter().map(|f| VectorSet::new(f.dim)).collect();
        let mut ids = Vec::new();
        for seg in &snap.segments {
            let live = seg.visible(None);
            for (row, &id) in seg.data().row_ids.iter().enumerate() {
                if live.as_deref().is_some_and(|live| !live.get(row)) {
                    continue;
                }
                ids.push(id);
                for (field, col) in fields.iter_mut().zip(&seg.data().vectors) {
                    field.push(col.get(row));
                }
            }
        }
        let metric = self.schema.vector_fields[0].metric;
        Ok(MultiVectorEngine::build(
            metric,
            fields,
            ids,
            weights,
            index_type,
            &self.registry,
            &self.config.build_params,
            with_fusion,
        )?)
    }
}

/// What a request's names resolve to in the schema.
#[derive(Clone, Copy)]
struct Resolved {
    /// The field's metric.
    metric: Metric,
    /// Filtered requests: the attribute's column and the range `[lo, hi]`.
    filter: Option<(usize, f64, f64)>,
}

/// One parameter-compatible group of a batch (see [`group_batch`]): requests
/// that agree on everything a segment scan depends on except the query
/// vector and, for vector requests, `k`.
struct Group<'a> {
    /// The group's first request: its field and parameters are the group's.
    req: &'a SearchRequest,
    /// Positions of the group's requests in the batch, in submit order.
    idxs: Vec<usize>,
    /// Their query vectors.
    queries: Vec<&'a [f32]>,
    /// Their `k`s.
    ks: Vec<usize>,
    plan: Resolved,
}

/// One segment's contribution to one group, plus what the trace wants to
/// know about it (windows are `None` when the query is untraced).
#[derive(Default)]
struct GroupScan {
    /// One sorted list (or error) per group member.
    lists: Vec<milvus_storage::Result<Vec<Neighbor>>>,
    /// Rows passing the group's predicate in this segment.
    passing: usize,
    /// Candidate rows the scan considered.
    rows_scanned: u64,
    filter_window: Option<(Instant, Instant)>,
    scan_window: Option<(Instant, Instant)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use milvus_storage::object_store::MemoryStore;

    fn collection(schema: Schema, config: CollectionConfig) -> Collection {
        Collection::open(
            "test".into(),
            schema,
            config,
            Arc::new(MemoryStore::new()),
            IndexRegistry::with_builtins(),
        )
        .unwrap()
    }

    fn single_schema() -> Schema {
        Schema::single("v", 2, Metric::L2).with_attribute("price")
    }

    fn batch(ids: Vec<i64>) -> InsertBatch {
        let mut vs = VectorSet::new(2);
        let mut attrs = Vec::new();
        for &id in &ids {
            vs.push(&[id as f32, 0.0]);
            attrs.push(id as f64 * 10.0);
        }
        InsertBatch { ids, vectors: vec![vs], attributes: vec![attrs] }
    }

    #[test]
    fn insert_flush_search() {
        let c = collection(single_schema(), CollectionConfig::for_tests());
        c.insert(batch((0..50).collect())).unwrap();
        assert_eq!(c.num_entities(), 0); // async visibility
        c.flush().unwrap();
        assert_eq!(c.num_entities(), 50);
        let hits = c.search("v", &[10.2, 0.0], &SearchParams::top_k(3)).unwrap();
        assert_eq!(hits[0].id, 10);
        assert!(hits[0].score >= 0.0);
    }

    #[test]
    fn delete_then_search_excludes() {
        let c = collection(single_schema(), CollectionConfig::for_tests());
        c.insert(batch((0..20).collect())).unwrap();
        c.flush().unwrap();
        c.delete(vec![5]).unwrap();
        c.flush().unwrap();
        let hits = c.search("v", &[5.0, 0.0], &SearchParams::top_k(1)).unwrap();
        assert_ne!(hits[0].id, 5);
        assert_eq!(c.num_entities(), 19);
    }

    #[test]
    fn filtered_search_honors_range() {
        let c = collection(single_schema(), CollectionConfig::for_tests());
        c.insert(batch((0..100).collect())).unwrap();
        c.flush().unwrap();
        // price = id*10; want price in [100, 300] → ids 10..=30.
        let hits = c
            .filtered_search("v", &[0.0, 0.0], "price", 100.0, 300.0, &SearchParams::top_k(5))
            .unwrap();
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| (10..=30).contains(&h.id)), "{hits:?}");
        // Nearest passing entity to origin is id 10.
        assert_eq!(hits[0].id, 10);
    }

    #[test]
    fn filtered_search_unknown_attribute_errors() {
        let c = collection(single_schema(), CollectionConfig::for_tests());
        assert!(matches!(
            c.filtered_search("v", &[0.0, 0.0], "nope", 0.0, 1.0, &SearchParams::top_k(1)),
            Err(MilvusError::NoSuchAttribute(_))
        ));
    }

    #[test]
    fn get_entity_roundtrip() {
        let c = collection(single_schema(), CollectionConfig::for_tests());
        c.insert(batch(vec![7, 8])).unwrap();
        c.flush().unwrap();
        let e = c.get_entity(7).unwrap();
        assert_eq!(e.vectors[0], vec![7.0, 0.0]);
        assert_eq!(e.attributes[0], 70.0);
        assert!(c.get_entity(99).is_none());
    }

    #[test]
    fn manual_index_build_and_search() {
        let c = collection(single_schema(), CollectionConfig::for_tests());
        c.insert(batch((0..200).collect())).unwrap();
        c.flush().unwrap();
        let built = c.build_index("v", "IVF_FLAT").unwrap();
        assert_eq!(built, 1);
        assert_eq!(c.stats().indexed_segments, 1);
        let sp = SearchParams { k: 3, nprobe: 16, ..Default::default() };
        let hits = c.search("v", &[42.0, 0.0], &sp).unwrap();
        assert_eq!(hits[0].id, 42);
    }

    #[test]
    fn auto_index_policy_respects_threshold() {
        let mut cfg = CollectionConfig::for_tests();
        cfg.auto_index_type = Some("IVF_FLAT".into());
        cfg.index_threshold_bytes = 1; // everything qualifies
        let c = collection(single_schema(), cfg);
        c.insert(batch((0..100).collect())).unwrap();
        c.flush().unwrap();
        assert_eq!(c.stats().indexed_segments, 1);
    }

    /// `stats()` explains the stored bytes: three components that sum to
    /// `memory_bytes`, the same three on the `milvus_stored_bytes` gauges,
    /// and — being counts — the same numbers for the same seeded collection.
    #[test]
    fn stored_bytes_split_by_component_and_repeat_exactly() {
        let build = |name: &str| {
            let schema = Schema::single("v", 64, Metric::L2).with_attribute("price");
            let c = Collection::open(
                name.into(),
                schema,
                CollectionConfig::for_tests(),
                Arc::new(MemoryStore::new()),
                IndexRegistry::with_builtins(),
            )
            .unwrap();
            for part in 0..2i64 {
                let ids: Vec<i64> = (part * 500..(part + 1) * 500).collect();
                let mut vs = VectorSet::new(64);
                for &id in &ids {
                    let v: Vec<f32> = (0..64).map(|d| ((id * 13 + d) as f32 * 0.07).sin()).collect();
                    vs.push(&v);
                }
                let attributes = vec![ids.iter().map(|&id| id as f64).collect()];
                c.insert(InsertBatch { ids, vectors: vec![vs], attributes }).unwrap();
                c.flush().unwrap();
            }
            let unindexed = c.stats();
            c.build_index("v", "IVF_FLAT").unwrap();
            c.delete(vec![3, 700]).unwrap();
            c.flush().unwrap();
            (unindexed, c.stats())
        };
        let (unindexed, stats) = build("stored_bytes_a");
        assert_eq!((unindexed.index_bytes, unindexed.tombstone_bytes), (0, 0));
        assert_eq!(unindexed.memory_bytes, unindexed.segment_bytes);
        assert_eq!(
            stats.memory_bytes,
            stats.segment_bytes + stats.index_bytes + stats.tombstone_bytes
        );
        // The payload grew by the permutation only; the index adds ids,
        // ordinals and centroids — not a second copy of the vectors.
        assert_eq!(stats.segment_bytes, unindexed.segment_bytes + 1000 * 4);
        assert!(stats.index_bytes > 1000 * 12 && stats.index_bytes < stats.segment_bytes / 4);
        assert!(stats.tombstone_bytes > 0);

        let gauge = |component| {
            let snap = obs::registry().snapshot();
            snap.gauge_component(obs::STORED_BYTES, "stored_bytes_a", component) as usize
        };
        assert_eq!(gauge("segment"), stats.segment_bytes);
        assert_eq!(gauge("index"), stats.index_bytes);
        assert_eq!(gauge("tombstones"), stats.tombstone_bytes);

        assert_eq!(build("stored_bytes_b"), (unindexed, stats));
    }

    #[test]
    fn async_index_build() {
        let c = Arc::new(collection(single_schema(), CollectionConfig::for_tests()));
        c.insert(batch((0..100).collect())).unwrap();
        c.flush().unwrap();
        c.build_index_async("v".into(), "HNSW".into());
        c.wait_for_index_builds();
        assert_eq!(c.stats().indexed_segments, 1);
    }

    #[test]
    fn multi_vector_collection_end_to_end() {
        let schema = Schema::single("text", 4, Metric::L2).with_vector_field("image", 3, Metric::L2);
        let c = collection(schema, CollectionConfig::for_tests());
        let n = 60usize;
        let mut text = VectorSet::new(4);
        let mut image = VectorSet::new(3);
        for i in 0..n {
            text.push(&[i as f32, 0.0, 0.0, 0.0]);
            image.push(&[0.0, i as f32, 0.0]);
        }
        let b = InsertBatch {
            ids: (0..n as i64).collect(),
            vectors: vec![text, image],
            attributes: vec![],
        };
        c.insert(b).unwrap();
        c.flush().unwrap();
        let engine = c.multivector_engine("FLAT", vec![0.5, 0.5], false).unwrap();
        let q0 = [30.0f32, 0.0, 0.0, 0.0];
        let q1 = [0.0f32, 30.0, 0.0];
        let res = engine.exact(&[&q0, &q1], 1).unwrap();
        assert_eq!(res[0].id, 30);
    }

    #[test]
    fn search_spans_multiple_segments() {
        let c = collection(single_schema(), CollectionConfig::for_tests());
        c.insert(batch((0..30).collect())).unwrap();
        c.flush().unwrap();
        c.insert(batch((30..60).collect())).unwrap();
        c.flush().unwrap();
        assert_eq!(c.stats().segments, 2);
        let hits = c.search("v", &[45.0, 0.0], &SearchParams::top_k(1)).unwrap();
        assert_eq!(hits[0].id, 45);
    }

    #[test]
    fn unknown_field_errors() {
        let c = collection(single_schema(), CollectionConfig::for_tests());
        assert!(matches!(
            c.search("missing", &[0.0, 0.0], &SearchParams::top_k(1)),
            Err(MilvusError::NoSuchField(_))
        ));
    }
}

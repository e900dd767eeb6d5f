//! Observability layer: metrics and span timing for the query / ingest /
//! storage paths.
//!
//! Tuning an ANN system is an empirical loop over measured
//! recall/latency/memory tradeoffs (Douze et al. 2024; Pan et al. 2023), so
//! instrumentation is built into the system rather than bolted onto
//! benchmarks. Design goals:
//!
//! - **Lock-light hot path.** Every metric is a plain atomic. The registry's
//!   `RwLock` is only taken to *look up or create* a metric; callers hold on
//!   to the returned `Arc` handle, so steady-state recording is a single
//!   `fetch_add` (counters/histograms) with no lock at all.
//! - **Per-collection families.** A metric is identified by `(name, label)`
//!   where the label is usually the collection name; `label = ""` means the
//!   process-wide series.
//! - **Fixed-bucket latency histograms.** Powers-of-four microsecond buckets
//!   from 1µs to ~17s; p50/p95/p99 are interpolated from bucket counts at
//!   snapshot time, never maintained inline.
//! - **Two consumers.** [`Registry::render_prometheus`] produces Prometheus
//!   text exposition for `GET /metrics`; [`Registry::snapshot`] produces a
//!   programmatic [`MetricsSnapshot`] for tests and `Milvus::metrics_snapshot`.
//!
//! The process-global [`registry()`] is what the system crates record into;
//! tests that assert on deltas should capture a snapshot before acting and
//! subtract (other tests in the same process may be recording concurrently,
//! so absolute values are only meaningful for collection-labeled series the
//! test owns).

mod health;
mod profile;
mod recorder;
mod render;
mod trace;

pub use health::{
    compute_health, health_thresholds, set_health_thresholds, ComponentHealth, HealthReport,
    HealthStatus, HealthThresholds,
};
pub use profile::{
    explain_report, query_profiler, OpProfile, ProfileReport, QueryProfiler, StageProfile,
};
pub use recorder::{
    flight_recorder, uptime_us, FlightRecorder, RecorderDriver, TimeSeriesReport, WindowFrame,
};
pub use render::render_prometheus;
pub use trace::{
    set_trace_config, slow_query_log, slow_threshold_us, trace_config, CacheOutcome,
    FinishedTrace, SlowQueryLog, Span, SpanKind, SpanStart, Trace, TraceConfig, MAX_SPANS,
};

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Upper bounds (µs) of the latency histogram buckets: 4^k from 1µs to
/// ~17s. The final implicit bucket is +Inf.
pub const BUCKET_BOUNDS_US: [u64; 13] = [
    1,
    4,
    16,
    64,
    256,
    1_024,
    4_096,
    16_384,
    65_536,
    262_144,
    1_048_576,
    4_194_304,
    16_777_216,
];

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Point-in-time signed value (e.g. current segment count).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket latency histogram over microsecond observations.
#[derive(Debug)]
pub struct Histogram {
    /// `counts[i]` = observations ≤ `BUCKET_BOUNDS_US[i]`; the last slot is
    /// the +Inf bucket.
    counts: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    sum_us: AtomicU64,
    total: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation, in microseconds.
    pub fn observe_us(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Approximate quantile computed directly from the live atomic bucket
    /// counts — no snapshot, no allocation. Used on the query completion
    /// path to derive the slow-query threshold from the current p99.
    pub fn quantile_live_us(&self, q: f64) -> f64 {
        let count = self.total.load(Ordering::Relaxed);
        if count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * count as f64).max(1.0);
        let mut seen = 0u64;
        for (i, slot) in self.counts.iter().enumerate() {
            let c = slot.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= rank {
                let lower = if i == 0 { 0 } else { BUCKET_BOUNDS_US[i - 1] };
                let upper = if i < BUCKET_BOUNDS_US.len() {
                    BUCKET_BOUNDS_US[i]
                } else {
                    return BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1] as f64;
                };
                let into = (rank - seen as f64) / c as f64;
                return lower as f64 + into * (upper - lower) as f64;
            }
            seen += c;
        }
        BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1] as f64
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bucket_counts: self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            count: self.total.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of a histogram's state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket (not cumulative) counts; last entry is +Inf.
    pub bucket_counts: Vec<u64>,
    pub sum_us: u64,
    pub count: u64,
}

impl HistogramSnapshot {
    /// Approximate quantile in microseconds, linearly interpolated within
    /// the winning bucket. `q` in [0, 1]. Returns 0 for empty histograms.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (i, &c) in self.bucket_counts.iter().enumerate() {
            if c == 0 {
                seen += c;
                continue;
            }
            if (seen + c) as f64 >= rank {
                let lower = if i == 0 { 0 } else { BUCKET_BOUNDS_US[i - 1] };
                let upper = if i < BUCKET_BOUNDS_US.len() {
                    BUCKET_BOUNDS_US[i]
                } else {
                    // +Inf bucket: report its lower bound.
                    return BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1] as f64;
                };
                let into = (rank - seen as f64) / c as f64;
                return lower as f64 + into * (upper - lower) as f64;
            }
            seen += c;
        }
        BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1] as f64
    }

    pub fn p50_us(&self) -> f64 {
        self.quantile_us(0.50)
    }

    pub fn p95_us(&self) -> f64 {
        self.quantile_us(0.95)
    }

    pub fn p99_us(&self) -> f64 {
        self.quantile_us(0.99)
    }

    /// Mean observation in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// The histogram of observations recorded between `earlier` and `self`
    /// (`self` being the newer snapshot): per-bucket, sum and count
    /// saturating differences. A series that reset between the snapshots
    /// clamps to zero instead of underflowing; missing buckets (an empty
    /// default snapshot) count as zero. This is what windowed p50/p95/p99
    /// in the flight recorder are computed from.
    pub fn saturating_diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let n = self.bucket_counts.len().max(earlier.bucket_counts.len());
        let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        HistogramSnapshot {
            bucket_counts: (0..n)
                .map(|i| at(&self.bucket_counts, i).saturating_sub(at(&earlier.bucket_counts, i)))
                .collect(),
            sum_us: self.sum_us.saturating_sub(earlier.sum_us),
            count: self.count.saturating_sub(earlier.count),
        }
    }
}

/// A `(metric name, label value, segment, component)` tuple; the label is
/// by convention the collection (or pool) name, `""` for process-wide
/// series, `segment` is set only for segment-granular series such as the
/// bufferpool hit/miss/eviction counters, and `component` only for a family
/// that splits one quantity into named parts ([`STORED_BYTES`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    pub name: String,
    pub label: String,
    pub segment: Option<u64>,
    pub component: Option<&'static str>,
}

impl Key {
    fn new(name: &str, label: &str) -> Self {
        Key { name: name.to_string(), label: label.to_string(), segment: None, component: None }
    }

    fn with_segment(name: &str, label: &str, segment: u64) -> Self {
        Key { segment: Some(segment), ..Key::new(name, label) }
    }

    fn with_component(name: &str, label: &str, component: &'static str) -> Self {
        Key { component: Some(component), ..Key::new(name, label) }
    }
}

/// Lock-light metric registry. Handle lookup takes a read lock; recording
/// through a handle is purely atomic.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<HashMap<Key, Arc<Counter>>>,
    gauges: RwLock<HashMap<Key, Arc<Gauge>>>,
    histograms: RwLock<HashMap<Key, Arc<Histogram>>>,
}

fn get_or_insert<T: Default>(map: &RwLock<HashMap<Key, Arc<T>>>, key: Key) -> Arc<T> {
    if let Some(found) = map.read().expect("metrics lock").get(&key) {
        return Arc::clone(found);
    }
    let mut write = map.write().expect("metrics lock");
    Arc::clone(write.entry(key).or_default())
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Counter handle for `(name, label)`, creating the series on first use.
    pub fn counter(&self, name: &str, label: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, Key::new(name, label))
    }

    /// Counter handle for a segment-granular series.
    pub fn counter_seg(&self, name: &str, label: &str, segment: u64) -> Arc<Counter> {
        get_or_insert(&self.counters, Key::with_segment(name, label, segment))
    }

    /// Gauge handle for `(name, label)`.
    pub fn gauge(&self, name: &str, label: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, Key::new(name, label))
    }

    /// Gauge handle for a segment-granular series.
    pub fn gauge_seg(&self, name: &str, label: &str, segment: u64) -> Arc<Gauge> {
        get_or_insert(&self.gauges, Key::with_segment(name, label, segment))
    }

    /// Gauge handle for one named part of a split quantity.
    pub fn gauge_component(
        &self,
        name: &str,
        label: &str,
        component: &'static str,
    ) -> Arc<Gauge> {
        get_or_insert(&self.gauges, Key::with_component(name, label, component))
    }

    /// Histogram handle for `(name, label)`.
    pub fn histogram(&self, name: &str, label: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, Key::new(name, label))
    }

    /// Start an RAII span over `histogram(name, label)`; elapsed time is
    /// recorded when the guard drops.
    pub fn span(&self, name: &str, label: &str) -> SpanTimer {
        SpanTimer { histogram: self.histogram(name, label), start: Instant::now() }
    }

    /// Immutable copy of every series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .expect("metrics lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("metrics lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("metrics lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Prometheus text exposition (`GET /metrics` body).
    pub fn render_prometheus(&self) -> String {
        render::render_prometheus(&self.snapshot())
    }
}

/// RAII guard recording elapsed wall time into a histogram on drop.
pub struct SpanTimer {
    histogram: Arc<Histogram>,
    start: Instant,
}

impl SpanTimer {
    /// Elapsed time so far, without ending the span.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.histogram.observe_us(self.start.elapsed().as_micros() as u64);
    }
}

/// Point-in-time copy of a [`Registry`], ordered for stable iteration.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: std::collections::BTreeMap<Key, u64>,
    pub gauges: std::collections::BTreeMap<Key, i64>,
    pub histograms: std::collections::BTreeMap<Key, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value, 0 if the series does not exist.
    pub fn counter(&self, name: &str, label: &str) -> u64 {
        self.counters.get(&Key::new(name, label)).copied().unwrap_or(0)
    }

    /// Segment-granular counter value, 0 if the series does not exist.
    pub fn counter_segment(&self, name: &str, label: &str, segment: u64) -> u64 {
        self.counters.get(&Key::with_segment(name, label, segment)).copied().unwrap_or(0)
    }

    /// Segment-granular gauge value, 0 if the series does not exist.
    pub fn gauge_segment(&self, name: &str, label: &str, segment: u64) -> i64 {
        self.gauges.get(&Key::with_segment(name, label, segment)).copied().unwrap_or(0)
    }

    /// Value of one named part of a split gauge, 0 if the series does not
    /// exist.
    pub fn gauge_component(&self, name: &str, label: &str, component: &'static str) -> i64 {
        self.gauges.get(&Key::with_component(name, label, component)).copied().unwrap_or(0)
    }

    /// Sum of a counter family across all labels.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.iter().filter(|(k, _)| k.name == name).map(|(_, v)| v).sum()
    }

    /// Gauge value, 0 if the series does not exist.
    pub fn gauge(&self, name: &str, label: &str) -> i64 {
        self.gauges.get(&Key::new(name, label)).copied().unwrap_or(0)
    }

    /// Histogram snapshot, empty if the series does not exist.
    pub fn histogram(&self, name: &str, label: &str) -> HistogramSnapshot {
        self.histograms.get(&Key::new(name, label)).cloned().unwrap_or_default()
    }
}

/// The process-global registry all system crates record into.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Convenience: `registry().counter(...)`.
pub fn counter(name: &str, label: &str) -> Arc<Counter> {
    registry().counter(name, label)
}

/// Convenience: `registry().gauge(...)`.
pub fn gauge(name: &str, label: &str) -> Arc<Gauge> {
    registry().gauge(name, label)
}

/// Convenience: `registry().gauge_component(...)`.
pub fn gauge_component(name: &str, label: &str, component: &'static str) -> Arc<Gauge> {
    registry().gauge_component(name, label, component)
}

/// Convenience: `registry().histogram(...)`.
pub fn histogram(name: &str, label: &str) -> Arc<Histogram> {
    registry().histogram(name, label)
}

/// Convenience: `registry().span(...)`.
pub fn span(name: &str, label: &str) -> SpanTimer {
    registry().span(name, label)
}

// ---------------------------------------------------------------------------
// Metric name constants, so call sites and tests cannot drift apart.
// ---------------------------------------------------------------------------

/// Query latency histogram (per collection).
pub const QUERY_LATENCY: &str = "milvus_query_latency_seconds";
/// Queries served (per collection).
pub const QUERY_TOTAL: &str = "milvus_query_total";
/// Query failures (per collection).
pub const QUERY_ERRORS: &str = "milvus_query_errors_total";
/// Effective nprobe used by IVF searches (per collection, counter of probes).
pub const QUERY_NPROBE_EFFECTIVE: &str = "milvus_query_nprobe_effective_total";
/// Effective ef used by HNSW searches (per collection, counter).
pub const QUERY_EF_EFFECTIVE: &str = "milvus_query_ef_effective_total";
/// Rows that passed a filtered search's predicate, summed over the (segment,
/// query) pairs that evaluated it (per collection).
pub const FILTER_ROWS_PASSING: &str = "milvus_filter_rows_passing_total";
/// (segment, query) pairs answered by filter strategy A — the exact scan of
/// the passing rows (per collection).
pub const FILTER_STRATEGY_A: &str = "milvus_filter_strategy_a_total";
/// (segment, query) pairs answered by filter strategy B — the index search
/// under the predicate's bitmap (per collection).
pub const FILTER_STRATEGY_B: &str = "milvus_filter_strategy_b_total";
/// Rows accepted by insert (per collection).
pub const INGEST_ROWS: &str = "milvus_ingest_rows_total";
/// Insert batches accepted (per collection).
pub const INGEST_BATCHES: &str = "milvus_ingest_batches_total";
/// Insert latency histogram (per collection).
pub const INGEST_LATENCY: &str = "milvus_ingest_latency_seconds";
/// Entities deleted (per collection).
pub const DELETE_ROWS: &str = "milvus_delete_rows_total";
/// flush() barrier latency (per collection).
pub const FLUSH_LATENCY: &str = "milvus_flush_latency_seconds";
/// WAL records appended (process-wide; storage layer).
pub const WAL_APPENDS: &str = "milvus_wal_appends_total";
/// WAL bytes appended.
pub const WAL_BYTES: &str = "milvus_wal_bytes_total";
/// Memtable flushes to segments.
pub const MEMTABLE_FLUSHES: &str = "milvus_memtable_flushes_total";
/// Memtable flush latency.
pub const MEMTABLE_FLUSH_LATENCY: &str = "milvus_memtable_flush_latency_seconds";
/// Segment merges (compactions) completed.
pub const COMPACTIONS: &str = "milvus_compactions_total";
/// Compaction latency.
pub const COMPACTION_LATENCY: &str = "milvus_compaction_latency_seconds";
/// Current live segment count (gauge).
pub const SEGMENTS: &str = "milvus_segments";
/// Resident bytes of the current snapshot's segments, split by `component`:
/// `"segment"` (payload), `"index"` (what indexes hold beyond the payload),
/// `"tombstones"`.
pub const STORED_BYTES: &str = "milvus_stored_bytes";
/// Index builds completed (per collection).
pub const INDEX_BUILDS: &str = "milvus_index_builds_total";
/// Index build latency.
pub const INDEX_BUILD_LATENCY: &str = "milvus_index_build_latency_seconds";
/// Point–centroid distances computed by index training and bucket placement:
/// k-means++ seeding, every Lloyd assignment, IVF placement (process-wide).
pub const INDEX_TRAIN_DISTANCES: &str = "milvus_index_train_distances_total";
/// Object-store put calls.
pub const OBJECT_PUTS: &str = "milvus_object_store_put_total";
/// Object-store get calls.
pub const OBJECT_GETS: &str = "milvus_object_store_get_total";
/// Object-store bytes written.
pub const OBJECT_PUT_BYTES: &str = "milvus_object_store_put_bytes_total";
/// Object-store bytes read.
pub const OBJECT_GET_BYTES: &str = "milvus_object_store_get_bytes_total";
/// Object-store put/get failures (includes injected faults).
pub const OBJECT_ERRORS: &str = "milvus_object_store_errors_total";
/// Batch-engine queries executed through the cache-aware engine.
pub const BATCH_QUERIES: &str = "milvus_batch_engine_queries_total";
/// Batch-engine batch latency.
pub const BATCH_LATENCY: &str = "milvus_batch_engine_latency_seconds";
/// Log records shipped by the distributed writer.
pub const LOG_SHIP_RECORDS: &str = "milvus_log_ship_records_total";
/// Log records applied by distributed readers.
pub const LOG_APPLY_RECORDS: &str = "milvus_log_apply_records_total";
/// Distributed reader refreshes.
pub const READER_REFRESHES: &str = "milvus_reader_refreshes_total";
/// Queries elected by the trace sampler (process-wide).
pub const TRACES_SAMPLED: &str = "milvus_traces_sampled_total";
/// Spans recorded into sampled traces (process-wide).
pub const TRACE_SPANS: &str = "milvus_trace_spans_total";
/// Queries whose latency exceeded the slow threshold (per collection).
pub const SLOW_QUERIES: &str = "milvus_slow_queries_total";
/// Bufferpool requests served from cache (per pool, and per pool+segment).
pub const POOL_HITS: &str = "milvus_bufferpool_hits_total";
/// Bufferpool requests that invoked the loader (per pool, and per
/// pool+segment).
pub const POOL_MISSES: &str = "milvus_bufferpool_misses_total";
/// Segments evicted by the bufferpool (per pool, and per pool+segment).
pub const POOL_EVICTIONS: &str = "milvus_bufferpool_evictions_total";
/// Bytes currently resident in the bufferpool (per pool, and per
/// pool+segment).
pub const POOL_RESIDENT_BYTES: &str = "milvus_bufferpool_resident_bytes";
/// Tasks executed by a work-stealing executor (per pool).
pub const EXEC_TASKS: &str = "milvus_exec_tasks_total";
/// Tasks a thread took from a deque it does not own (per pool).
pub const EXEC_STEALS: &str = "milvus_exec_steals_total";
/// Tasks currently queued across an executor's deques (per pool).
pub const EXEC_QUEUE_DEPTH: &str = "milvus_exec_queue_depth";
/// Workers currently executing a task (per pool); utilization is
/// `workers_busy / workers`.
pub const EXEC_WORKERS_BUSY: &str = "milvus_exec_workers_busy";
/// Worker threads in the pool (per pool).
pub const EXEC_WORKERS: &str = "milvus_exec_workers";
/// Messages offered to the network transport (per link).
pub const NET_SENT: &str = "milvus_net_sent_total";
/// Messages lost to injected loss or a partition (per link).
pub const NET_DROPPED: &str = "milvus_net_dropped_total";
/// Messages delivered with injected latency (per link).
pub const NET_DELAYED: &str = "milvus_net_delayed_total";
/// Messages delivered more than once (per link).
pub const NET_DUPLICATED: &str = "milvus_net_duplicated_total";
/// One-way messages held back and replayed out of order (per link).
pub const NET_REORDERED: &str = "milvus_net_reordered_total";
/// RPC attempts re-sent after a timeout (per link).
pub const NET_RETRIES: &str = "milvus_net_retries_total";
/// RPC attempts that timed out (per link).
pub const NET_TIMEOUTS: &str = "milvus_net_timeouts_total";
/// Shards re-fanned to a surviving reader after a reader became
/// unreachable (cluster-wide).
pub const NET_FAILOVERS: &str = "milvus_net_failovers_total";
/// 1 when the link is up, 0 while partitioned (per link).
pub const NET_LINK_UP: &str = "milvus_net_link_up";
/// Injected loss probability of the link in parts per million (per link).
pub const NET_LINK_LOSS_PPM: &str = "milvus_net_link_loss_ppm";
/// Accumulated virtual time (timeouts, backoff, injected delays) of a
/// simulated network, in microseconds.
pub const NET_VIRTUAL_TIME_US: &str = "milvus_net_virtual_time_us";
/// Query-scheduler: size of each coalesced batch handed to the batch
/// engines (per collection; bucket value = queries in the batch).
pub const SCHED_BATCH_SIZE: &str = "milvus_sched_batch_size";
/// Query-scheduler: coalesced batches executed (per collection).
pub const SCHED_COALESCED_BATCHES: &str = "milvus_sched_coalesced_batches_total";
/// Query-scheduler: queries served through a coalesced batch (per
/// collection).
pub const SCHED_COALESCED_QUERIES: &str = "milvus_sched_coalesced_queries_total";
/// Query-scheduler: queries currently admitted and executing (per
/// collection).
pub const SCHED_INFLIGHT: &str = "milvus_sched_inflight";
/// Query-scheduler: queries that found a run slot free and ran at once as a
/// batch of one, without queueing (per collection).
pub const SCHED_PASSTHROUGH: &str = "milvus_sched_passthrough_total";
/// Query-scheduler: queries shed by admission control with a typed
/// overload error (per collection).
pub const SCHED_SHED: &str = "milvus_sched_shed_total";
/// Distributed searches that completed with at least one uncovered shard
/// (per cluster).
pub const SEARCH_DEGRADED: &str = "milvus_search_degraded_total";
/// Shard coverage of the most recent distributed search, in parts per
/// million (1_000_000 = every shard contributed results).
pub const SEARCH_COVERAGE_RATIO: &str = "milvus_search_coverage_ratio";
/// Automated writer failovers: a standby was promoted after the active
/// writer became unreachable (per cluster).
pub const WRITER_FAILOVERS: &str = "milvus_writer_failovers_total";
/// Shipped log records replayed by a standby writer during takeover.
pub const WRITER_REPLAYED_RECORDS: &str = "milvus_writer_replayed_records_total";
/// Inserts skipped because their client op id was already applied (client
/// retry after a lost ack, or a replay of an already-materialized record).
pub const WRITER_DEDUPED_OPS: &str = "milvus_writer_deduped_ops_total";
/// 1 while an active writer is serving ingest; 0 from the moment an outage
/// is detected until a standby finishes takeover.
pub const WRITER_UP: &str = "milvus_writer_up";
/// Generation (term) of the current writer: 0 for the original instance,
/// bumped by every takeover.
pub const WRITER_TAKEOVER_GENERATION: &str = "milvus_writer_takeover_generation";
/// Log sequence number up to which the most recent takeover replayed.
pub const WRITER_TAKEOVER_REPLAY_LSN: &str = "milvus_writer_takeover_replay_lsn";

// ---------------------------------------------------------------------------
// Declared metric families: name, type and HELP text. The Prometheus render
// always emits HELP/TYPE for every declared family — even before the first
// observation — so dashboards never see series flap in and out of existence.
// ---------------------------------------------------------------------------

/// Prometheus metric type of a declared family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    /// The `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A declared metric family.
#[derive(Debug, Clone, Copy)]
pub struct FamilyDesc {
    pub name: &'static str,
    pub kind: MetricKind,
    pub help: &'static str,
}

/// Every metric family this workspace records, sorted by name.
pub const FAMILIES: &[FamilyDesc] = &[
    FamilyDesc { name: BATCH_LATENCY, kind: MetricKind::Histogram, help: "Batch-engine batch latency." },
    FamilyDesc { name: BATCH_QUERIES, kind: MetricKind::Counter, help: "Queries executed through the batch engines." },
    FamilyDesc { name: POOL_EVICTIONS, kind: MetricKind::Counter, help: "Segments evicted by the bufferpool." },
    FamilyDesc { name: POOL_HITS, kind: MetricKind::Counter, help: "Bufferpool requests served from cache." },
    FamilyDesc { name: POOL_MISSES, kind: MetricKind::Counter, help: "Bufferpool requests that invoked the loader." },
    FamilyDesc { name: POOL_RESIDENT_BYTES, kind: MetricKind::Gauge, help: "Bytes currently resident in the bufferpool." },
    FamilyDesc { name: COMPACTION_LATENCY, kind: MetricKind::Histogram, help: "Segment compaction latency." },
    FamilyDesc { name: COMPACTIONS, kind: MetricKind::Counter, help: "Segment merges (compactions) completed." },
    FamilyDesc { name: DELETE_ROWS, kind: MetricKind::Counter, help: "Entities deleted." },
    FamilyDesc { name: EXEC_QUEUE_DEPTH, kind: MetricKind::Gauge, help: "Tasks currently queued across an executor's deques." },
    FamilyDesc { name: EXEC_STEALS, kind: MetricKind::Counter, help: "Tasks a thread took from an executor deque it does not own." },
    FamilyDesc { name: EXEC_TASKS, kind: MetricKind::Counter, help: "Tasks executed by a work-stealing executor." },
    FamilyDesc { name: EXEC_WORKERS, kind: MetricKind::Gauge, help: "Worker threads in an executor pool." },
    FamilyDesc { name: EXEC_WORKERS_BUSY, kind: MetricKind::Gauge, help: "Executor workers currently executing a task." },
    FamilyDesc { name: FILTER_ROWS_PASSING, kind: MetricKind::Counter, help: "Rows passing a filtered search's predicate, per (segment, query) pair." },
    FamilyDesc { name: FILTER_STRATEGY_A, kind: MetricKind::Counter, help: "(segment, query) pairs answered by the exact scan of the passing rows (strategy A)." },
    FamilyDesc { name: FILTER_STRATEGY_B, kind: MetricKind::Counter, help: "(segment, query) pairs answered by the index search under the predicate's bitmap (strategy B)." },
    FamilyDesc { name: FLUSH_LATENCY, kind: MetricKind::Histogram, help: "flush() barrier latency." },
    FamilyDesc { name: INDEX_BUILD_LATENCY, kind: MetricKind::Histogram, help: "Index build latency." },
    FamilyDesc { name: INDEX_BUILDS, kind: MetricKind::Counter, help: "Index builds completed." },
    FamilyDesc { name: INDEX_TRAIN_DISTANCES, kind: MetricKind::Counter, help: "Point-centroid distances computed by index training and bucket placement." },
    FamilyDesc { name: INGEST_BATCHES, kind: MetricKind::Counter, help: "Insert batches accepted." },
    FamilyDesc { name: INGEST_LATENCY, kind: MetricKind::Histogram, help: "Insert latency." },
    FamilyDesc { name: INGEST_ROWS, kind: MetricKind::Counter, help: "Rows accepted by insert." },
    FamilyDesc { name: LOG_APPLY_RECORDS, kind: MetricKind::Counter, help: "Log records applied by distributed readers." },
    FamilyDesc { name: LOG_SHIP_RECORDS, kind: MetricKind::Counter, help: "Log records shipped by the distributed writer." },
    FamilyDesc { name: MEMTABLE_FLUSH_LATENCY, kind: MetricKind::Histogram, help: "Memtable flush latency." },
    FamilyDesc { name: MEMTABLE_FLUSHES, kind: MetricKind::Counter, help: "Memtable flushes to segments." },
    FamilyDesc { name: NET_DELAYED, kind: MetricKind::Counter, help: "Messages delivered with injected latency." },
    FamilyDesc { name: NET_DROPPED, kind: MetricKind::Counter, help: "Messages lost to injected loss or a partition." },
    FamilyDesc { name: NET_DUPLICATED, kind: MetricKind::Counter, help: "Messages delivered more than once." },
    FamilyDesc { name: NET_FAILOVERS, kind: MetricKind::Counter, help: "Shards re-fanned to a surviving reader after a reader became unreachable." },
    FamilyDesc { name: NET_LINK_LOSS_PPM, kind: MetricKind::Gauge, help: "Injected loss probability of the link in parts per million." },
    FamilyDesc { name: NET_LINK_UP, kind: MetricKind::Gauge, help: "1 when the link is up, 0 while partitioned." },
    FamilyDesc { name: NET_REORDERED, kind: MetricKind::Counter, help: "One-way messages held back and replayed out of order." },
    FamilyDesc { name: NET_RETRIES, kind: MetricKind::Counter, help: "RPC attempts re-sent after a timeout." },
    FamilyDesc { name: NET_SENT, kind: MetricKind::Counter, help: "Messages offered to the network transport." },
    FamilyDesc { name: NET_TIMEOUTS, kind: MetricKind::Counter, help: "RPC attempts that timed out." },
    FamilyDesc { name: NET_VIRTUAL_TIME_US, kind: MetricKind::Gauge, help: "Accumulated virtual time of a simulated network in microseconds." },
    FamilyDesc { name: OBJECT_ERRORS, kind: MetricKind::Counter, help: "Object-store failures (includes injected faults)." },
    FamilyDesc { name: OBJECT_GET_BYTES, kind: MetricKind::Counter, help: "Object-store bytes read." },
    FamilyDesc { name: OBJECT_GETS, kind: MetricKind::Counter, help: "Object-store get calls." },
    FamilyDesc { name: OBJECT_PUT_BYTES, kind: MetricKind::Counter, help: "Object-store bytes written." },
    FamilyDesc { name: OBJECT_PUTS, kind: MetricKind::Counter, help: "Object-store put calls." },
    FamilyDesc { name: QUERY_EF_EFFECTIVE, kind: MetricKind::Counter, help: "Effective ef used by HNSW searches." },
    FamilyDesc { name: QUERY_ERRORS, kind: MetricKind::Counter, help: "Query failures." },
    FamilyDesc { name: QUERY_LATENCY, kind: MetricKind::Histogram, help: "Query latency." },
    FamilyDesc { name: QUERY_NPROBE_EFFECTIVE, kind: MetricKind::Counter, help: "Effective nprobe used by IVF searches." },
    FamilyDesc { name: QUERY_TOTAL, kind: MetricKind::Counter, help: "Queries served." },
    FamilyDesc { name: READER_REFRESHES, kind: MetricKind::Counter, help: "Distributed reader refreshes." },
    FamilyDesc { name: SCHED_BATCH_SIZE, kind: MetricKind::Histogram, help: "Queries per coalesced scheduler batch." },
    FamilyDesc { name: SCHED_COALESCED_BATCHES, kind: MetricKind::Counter, help: "Coalesced batches executed by the query scheduler." },
    FamilyDesc { name: SCHED_COALESCED_QUERIES, kind: MetricKind::Counter, help: "Queries served through a coalesced scheduler batch." },
    FamilyDesc { name: SCHED_INFLIGHT, kind: MetricKind::Gauge, help: "Queries currently admitted by the scheduler and executing." },
    FamilyDesc { name: SCHED_PASSTHROUGH, kind: MetricKind::Counter, help: "Queries that found a run slot free and ran at once, without queueing." },
    FamilyDesc { name: SCHED_SHED, kind: MetricKind::Counter, help: "Queries shed by scheduler admission control with a typed overload error." },
    FamilyDesc { name: SEARCH_COVERAGE_RATIO, kind: MetricKind::Gauge, help: "Shard coverage of the most recent distributed search in parts per million (1000000 = full coverage)." },
    FamilyDesc { name: SEARCH_DEGRADED, kind: MetricKind::Counter, help: "Distributed searches that completed with at least one uncovered shard." },
    FamilyDesc { name: SEGMENTS, kind: MetricKind::Gauge, help: "Live segment count of the current snapshot." },
    FamilyDesc { name: SLOW_QUERIES, kind: MetricKind::Counter, help: "Queries whose latency exceeded the slow threshold." },
    FamilyDesc { name: STORED_BYTES, kind: MetricKind::Gauge, help: "Resident bytes of the current snapshot's segments by component (segment payload, index beyond the payload, tombstones)." },
    FamilyDesc { name: TRACE_SPANS, kind: MetricKind::Counter, help: "Spans recorded into sampled traces." },
    FamilyDesc { name: TRACES_SAMPLED, kind: MetricKind::Counter, help: "Queries elected by the trace sampler." },
    FamilyDesc { name: WAL_APPENDS, kind: MetricKind::Counter, help: "WAL records appended." },
    FamilyDesc { name: WAL_BYTES, kind: MetricKind::Counter, help: "WAL bytes appended." },
    FamilyDesc { name: WRITER_DEDUPED_OPS, kind: MetricKind::Counter, help: "Inserts skipped because their client op id was already applied." },
    FamilyDesc { name: WRITER_FAILOVERS, kind: MetricKind::Counter, help: "Automated writer failovers (standby promoted after the active writer became unreachable)." },
    FamilyDesc { name: WRITER_REPLAYED_RECORDS, kind: MetricKind::Counter, help: "Shipped log records replayed by a standby writer during takeover." },
    FamilyDesc { name: WRITER_TAKEOVER_GENERATION, kind: MetricKind::Gauge, help: "Generation (term) of the current writer; bumped by every takeover." },
    FamilyDesc { name: WRITER_TAKEOVER_REPLAY_LSN, kind: MetricKind::Gauge, help: "Log sequence number up to which the most recent takeover replayed." },
    FamilyDesc { name: WRITER_UP, kind: MetricKind::Gauge, help: "1 while an active writer serves ingest, 0 during a detected outage until takeover completes." },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter(QUERY_TOTAL, "col");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge(SEGMENTS, "col");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
        let snap = r.snapshot();
        assert_eq!(snap.counter(QUERY_TOTAL, "col"), 5);
        assert_eq!(snap.gauge(SEGMENTS, "col"), 5);
        assert_eq!(snap.counter(QUERY_TOTAL, "absent"), 0);
    }

    #[test]
    fn same_key_returns_same_series() {
        let r = Registry::new();
        r.counter("x", "a").inc();
        r.counter("x", "a").inc();
        r.counter("x", "b").inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter("x", "a"), 2);
        assert_eq!(snap.counter("x", "b"), 1);
        assert_eq!(snap.counter_total("x"), 3);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        // 100 observations at ~10µs, 10 at ~100ms, 1 at ~10s.
        for _ in 0..100 {
            h.observe_us(10);
        }
        for _ in 0..10 {
            h.observe_us(100_000);
        }
        h.observe_us(10_000_000);
        let s = h.snapshot();
        assert_eq!(s.count, 111);
        assert_eq!(s.sum_us, 100 * 10 + 10 * 100_000 + 10_000_000);
        let p50 = s.p50_us();
        assert!(p50 <= 16.0, "p50={p50}");
        let p99 = s.p99_us();
        assert!(p99 > 50_000.0, "p99={p99}");
        // Monotonic in q.
        assert!(s.quantile_us(0.5) <= s.quantile_us(0.95));
        assert!(s.quantile_us(0.95) <= s.quantile_us(0.999));
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(HistogramSnapshot::default().quantile_us(0.99), 0.0);
    }

    #[test]
    fn span_timer_records_on_drop() {
        let r = Registry::new();
        {
            let _t = r.span(QUERY_LATENCY, "c");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let s = r.snapshot().histogram(QUERY_LATENCY, "c");
        assert_eq!(s.count, 1);
        assert!(s.sum_us >= 1_000, "sum_us={}", s.sum_us);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let r = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                let c = r.counter("concurrent", "");
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.snapshot().counter("concurrent", ""), 80_000);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = registry() as *const _;
        let b = registry() as *const _;
        assert_eq!(a, b);
    }
}

//! Per-query structured tracing and the slow-query log.
//!
//! Aggregate histograms (the rest of this crate) answer *how slow* the
//! system is; traces answer *why one query* was slow. A [`Trace`] is created
//! at query admission, threaded by value through the query pipeline, and
//! records typed child [`Span`]s — parse, route, per-segment scan (with
//! segment id, rows scanned and cache outcome), heap merge, rerank — with
//! monotonic timing relative to the trace start.
//!
//! Design constraints, in order:
//!
//! - **Zero cost when off.** Sampling is decided once at admission; an
//!   unsampled trace is a `None` and every subsequent call on it is a no-op
//!   that never reads the clock, takes a lock, or allocates. The
//!   [`TRACE_SPANS`] / [`TRACES_SAMPLED`] counters move **only** for sampled
//!   traces, which is what `tests/tracing.rs` uses to assert the hot loop is
//!   untouched at sampling 0.0 (counter-based, not wall clock).
//! - **No per-span allocation.** A sampled trace holds a fixed-capacity
//!   inline span array ([`MAX_SPANS`]); recording a span writes into the next
//!   slot. Overflow increments a `dropped_spans` count instead of growing.
//! - **Bounded retention.** Completed traces whose end-to-end latency
//!   exceeds the slow threshold are pushed into a global ring buffer
//!   ([`SlowQueryLog`]) of configurable capacity; old entries fall off the
//!   back. The threshold is the live p99 of the query-latency histogram for
//!   the trace's label once enough samples exist, else a static fallback —
//!   both configurable via [`TraceConfig`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use crate::{registry, Counter, QUERY_LATENCY, SLOW_QUERIES, TRACES_SAMPLED, TRACE_SPANS};

/// Fixed capacity of a trace's inline span array. Spans recorded past this
/// limit are counted in `dropped_spans`, never allocated.
pub const MAX_SPANS: usize = 64;

/// What a span measured. The taxonomy mirrors the paper's query pipeline
/// (§3.2–§3.3: route → per-segment scan → heap merge, plus rerank for
/// multi-vector and filter for attribute queries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpanKind {
    /// Anything not covered below.
    #[default]
    Other,
    /// Request validation / schema resolution.
    Parse,
    /// Snapshot acquisition and segment routing.
    Route,
    /// One segment's scan (brute force or index probe).
    SegmentScan,
    /// A storage fetch (object store get + decode) on the read path.
    StorageRead,
    /// Attribute predicate evaluation (bitmap / range extraction).
    Filter,
    /// Merging per-segment or per-thread top-k heaps.
    HeapMerge,
    /// Candidate re-scoring (multi-vector naive / NRA paths).
    Rerank,
    /// One query-block pass of a batch engine.
    BatchScan,
    /// A per-field ANN index probe (multi-vector).
    IndexSearch,
    /// Time a fanned-out task spent queued on the executor before a worker
    /// picked it up — kept separate from the stage's run time so the
    /// profiler can distinguish saturation from slow scans.
    QueueWait,
    /// One remote call (distributed search fan-out), including transport
    /// retries and backoff.
    Rpc,
    /// A remote call that exhausted its retries and failed.
    NetRetry,
    /// Re-fanning one orphaned shard to surviving readers.
    Failover,
    /// Time a query spent queued in the scheduler, every run slot taken,
    /// before its batch executed — separate from executor
    /// [`SpanKind::QueueWait`] so the profiler can tell waiting for a core
    /// from pool saturation.
    CoalesceWait,
}

impl SpanKind {
    /// Every kind, in discriminant order; `ALL[k.index()] == k`.
    pub const ALL: [SpanKind; 15] = [
        SpanKind::Other,
        SpanKind::Parse,
        SpanKind::Route,
        SpanKind::SegmentScan,
        SpanKind::StorageRead,
        SpanKind::Filter,
        SpanKind::HeapMerge,
        SpanKind::Rerank,
        SpanKind::BatchScan,
        SpanKind::IndexSearch,
        SpanKind::QueueWait,
        SpanKind::Rpc,
        SpanKind::NetRetry,
        SpanKind::Failover,
        SpanKind::CoalesceWait,
    ];

    /// Dense index for per-kind aggregation arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Other => "other",
            SpanKind::Parse => "parse",
            SpanKind::Route => "route",
            SpanKind::SegmentScan => "segment_scan",
            SpanKind::StorageRead => "storage_read",
            SpanKind::Filter => "filter",
            SpanKind::HeapMerge => "heap_merge",
            SpanKind::Rerank => "rerank",
            SpanKind::BatchScan => "batch_scan",
            SpanKind::IndexSearch => "index_search",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Rpc => "rpc",
            SpanKind::NetRetry => "net_retry",
            SpanKind::Failover => "failover",
            SpanKind::CoalesceWait => "coalesce_wait",
        }
    }
}

/// Whether a scanned segment was served from a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheOutcome {
    /// The path has no cache in front of it (memory-resident segment).
    #[default]
    Untracked,
    /// Served from the bufferpool.
    Hit,
    /// Loaded from shared storage (bufferpool miss).
    Miss,
}

impl CacheOutcome {
    /// JSON value: `"hit"`, `"miss"`, or `None` for untracked.
    pub fn as_str(self) -> Option<&'static str> {
        match self {
            CacheOutcome::Untracked => None,
            CacheOutcome::Hit => Some("hit"),
            CacheOutcome::Miss => Some("miss"),
        }
    }
}

/// One recorded pipeline stage. `Copy` and fixed-size so traces can hold
/// them inline without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Stage type.
    pub kind: SpanKind,
    /// Microseconds from trace start to span start.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Segment scanned, `-1` when not segment-scoped.
    pub segment_id: i64,
    /// Shard the segment belongs to (distributed readers), `-1` otherwise.
    pub shard: i64,
    /// Rows the stage considered (scan candidates, bitmap size, …).
    pub rows_scanned: u64,
    /// Cache outcome for the segment this span touched.
    pub cache: CacheOutcome,
}

impl Default for Span {
    fn default() -> Self {
        Span {
            kind: SpanKind::Other,
            start_us: 0,
            dur_us: 0,
            segment_id: -1,
            shard: -1,
            rows_scanned: 0,
            cache: CacheOutcome::Untracked,
        }
    }
}

/// Tracing configuration. Process-global; see [`set_trace_config`].
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Fraction of admitted queries that get a trace, in `[0.0, 1.0]`.
    /// `0.0` disables tracing entirely (no clock reads, no allocation);
    /// sampling is deterministic (every ⌈1/rate⌉-ish admission), not random.
    pub sample_rate: f64,
    /// Static slow threshold in µs. `None` derives the threshold from the
    /// live p99 of `milvus_query_latency_seconds{collection=<label>}`.
    pub slow_threshold_us: Option<u64>,
    /// Threshold used while the label's histogram has fewer than
    /// [`TraceConfig::min_p99_samples`] observations.
    pub slow_fallback_us: u64,
    /// Observations required before trusting the histogram's p99.
    pub min_p99_samples: u64,
    /// Slow-query ring buffer capacity.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            sample_rate: 1.0,
            slow_threshold_us: None,
            slow_fallback_us: 50_000, // 50ms: clearly pathological for ANN
            min_p99_samples: 200,
            ring_capacity: 128,
        }
    }
}

/// Sampling rate in parts-per-million, cached in an atomic so admission
/// never takes the config lock.
static RATE_PPM: AtomicU64 = AtomicU64::new(1_000_000);
/// Admission counter driving deterministic sampling.
static ADMITTED: AtomicU64 = AtomicU64::new(0);

fn config_cell() -> &'static RwLock<TraceConfig> {
    static CONFIG: OnceLock<RwLock<TraceConfig>> = OnceLock::new();
    CONFIG.get_or_init(|| RwLock::new(TraceConfig::default()))
}

/// Replace the process-global tracing configuration.
pub fn set_trace_config(cfg: TraceConfig) {
    let ppm = (cfg.sample_rate.clamp(0.0, 1.0) * 1_000_000.0).round() as u64;
    RATE_PPM.store(ppm, Ordering::Relaxed);
    *config_cell().write().expect("trace config lock") = cfg;
}

/// Current tracing configuration (a copy).
pub fn trace_config() -> TraceConfig {
    config_cell().read().expect("trace config lock").clone()
}

/// Deterministic proportional sampler: for rate `p`, admission `n` is
/// sampled iff `⌊(n+1)·p⌋ > ⌊n·p⌋`, which selects exactly a `p` fraction.
fn should_sample() -> bool {
    let ppm = RATE_PPM.load(Ordering::Relaxed);
    if ppm == 0 {
        return false;
    }
    if ppm >= 1_000_000 {
        return true;
    }
    let n = ADMITTED.fetch_add(1, Ordering::Relaxed);
    (n + 1) * ppm / 1_000_000 > n * ppm / 1_000_000
}

/// Cached counter handles so span recording never touches the registry map.
fn sampled_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| registry().counter(TRACES_SAMPLED, ""))
}

fn spans_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| registry().counter(TRACE_SPANS, ""))
}

/// The slow threshold in µs for traces labeled `label` under the current
/// configuration: static override if set, else live p99 with fallback.
pub fn slow_threshold_us(label: &str) -> u64 {
    let (static_threshold, fallback, min_samples) = {
        let cfg = config_cell().read().expect("trace config lock");
        (cfg.slow_threshold_us, cfg.slow_fallback_us, cfg.min_p99_samples)
    };
    if let Some(t) = static_threshold {
        return t;
    }
    let h = registry().histogram(QUERY_LATENCY, label);
    if h.count() >= min_samples.max(1) {
        h.quantile_live_us(0.99) as u64
    } else {
        fallback
    }
}

struct TraceInner {
    label: Arc<str>,
    op: &'static str,
    start: Instant,
    spans: [Span; MAX_SPANS],
    len: usize,
    dropped: u32,
    seq: u64,
}

/// A per-query trace handle. Cheap to create (one `Option` when unsampled,
/// one boxed fixed-size buffer when sampled) and threaded by `&mut` through
/// the pipeline.
pub struct Trace {
    inner: Option<Box<TraceInner>>,
}

/// Opaque span start token. [`Trace::begin`] returns a live clock reading
/// only for sampled traces; recording with a dead token is a no-op.
#[derive(Debug, Clone, Copy)]
pub struct SpanStart(Option<Instant>);

static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

impl Trace {
    /// A trace that records nothing, at no cost.
    pub fn disabled() -> Trace {
        Trace { inner: None }
    }

    /// Admit a query: returns a recording trace if the sampler elects it,
    /// else a disabled one. `label` is the collection (or node) the query
    /// belongs to; `op` names the operation (`"search"`, …).
    pub fn start(op: &'static str, label: &Arc<str>) -> Trace {
        if !should_sample() {
            return Trace::disabled();
        }
        sampled_counter().inc();
        Trace {
            inner: Some(Box::new(TraceInner {
                label: Arc::clone(label),
                op,
                start: Instant::now(),
                spans: [Span::default(); MAX_SPANS],
                len: 0,
                dropped: 0,
                seq: TRACE_SEQ.fetch_add(1, Ordering::Relaxed),
            })),
        }
    }

    /// A trace that always records, bypassing the sampler (tests, tooling).
    pub fn forced(op: &'static str, label: &str) -> Trace {
        sampled_counter().inc();
        Trace {
            inner: Some(Box::new(TraceInner {
                label: Arc::from(label),
                op,
                start: Instant::now(),
                spans: [Span::default(); MAX_SPANS],
                len: 0,
                dropped: 0,
                seq: TRACE_SEQ.fetch_add(1, Ordering::Relaxed),
            })),
        }
    }

    /// Whether this trace records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Start a span. Reads the clock only when the trace is live.
    pub fn begin(&self) -> SpanStart {
        SpanStart(self.inner.as_ref().map(|_| Instant::now()))
    }

    /// Record a span of `kind` started at `start` with default metadata.
    pub fn record(&mut self, kind: SpanKind, start: SpanStart) {
        self.record_with(kind, start, |_| {});
    }

    /// Record a span, letting `fill` attach metadata (segment id, rows,
    /// cache outcome, shard). No-op for disabled traces or dead tokens.
    pub fn record_with(&mut self, kind: SpanKind, start: SpanStart, fill: impl FnOnce(&mut Span)) {
        let Some(inner) = self.inner.as_deref_mut() else { return };
        let Some(t0) = start.0 else { return };
        let now = Instant::now();
        if inner.len == MAX_SPANS {
            inner.dropped += 1;
            return;
        }
        let span = &mut inner.spans[inner.len];
        *span = Span {
            kind,
            start_us: t0.duration_since(inner.start).as_micros() as u64,
            dur_us: now.duration_since(t0).as_micros() as u64,
            ..Span::default()
        };
        fill(span);
        inner.len += 1;
        spans_counter().inc();
    }

    /// Record a span from an explicit `[start, end]` wall-clock window —
    /// used when the measured work ran on an executor worker and the span
    /// is recorded after the structured join, on the admitting thread.
    /// Windows that began before the trace clamp to the trace start.
    pub fn record_window(
        &mut self,
        kind: SpanKind,
        start: Instant,
        end: Instant,
        fill: impl FnOnce(&mut Span),
    ) {
        let Some(inner) = self.inner.as_deref_mut() else { return };
        if inner.len == MAX_SPANS {
            inner.dropped += 1;
            return;
        }
        let span = &mut inner.spans[inner.len];
        *span = Span {
            kind,
            start_us: start.saturating_duration_since(inner.start).as_micros() as u64,
            dur_us: end.saturating_duration_since(start).as_micros() as u64,
            ..Span::default()
        };
        fill(span);
        inner.len += 1;
        spans_counter().inc();
    }

    /// Spans recorded so far (0 for disabled traces).
    pub fn span_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.len)
    }

    /// Shared completion path: build the [`FinishedTrace`], fold it into
    /// the query profiler (every sampled trace feeds the per-stage
    /// aggregate, not just slow ones), and — if slow — count it and push it
    /// into the slow-query ring.
    fn complete(inner: Box<TraceInner>) -> Arc<FinishedTrace> {
        let total_us = inner.start.elapsed().as_micros() as u64;
        let threshold_us = slow_threshold_us(&inner.label);
        let finished = Arc::new(FinishedTrace {
            collection: inner.label.to_string(),
            op: inner.op,
            seq: inner.seq,
            total_us,
            threshold_us,
            dropped_spans: inner.dropped,
            spans: inner.spans[..inner.len].to_vec(),
        });
        crate::profile::query_profiler().record(&finished);
        if finished.is_slow() {
            registry().counter(SLOW_QUERIES, &inner.label).inc();
            let capacity = {
                config_cell().read().expect("trace config lock").ring_capacity
            };
            slow_query_log().push(Arc::clone(&finished), capacity);
        }
        finished
    }

    /// Complete the trace: if its end-to-end latency exceeds the slow
    /// threshold for its label, serialize it into the global slow-query ring
    /// and return it. Fast queries (and disabled traces) return `None` —
    /// but every sampled trace, fast or slow, still feeds the profiler.
    pub fn finish(mut self) -> Option<Arc<FinishedTrace>> {
        let inner = self.inner.take()?;
        let finished = Self::complete(inner);
        finished.is_slow().then_some(finished)
    }

    /// Complete the trace and return it regardless of latency (`None` only
    /// for disabled traces). Used by `EXPLAIN ANALYZE`-style tooling that
    /// wants the breakdown of an arbitrary query.
    pub fn finish_always(mut self) -> Option<Arc<FinishedTrace>> {
        let inner = self.inner.take()?;
        Some(Self::complete(inner))
    }
}

/// A completed slow query: what the ring buffer stores and
/// `GET /debug/slow_queries` serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedTrace {
    /// Label the trace was admitted under (collection or node name).
    pub collection: String,
    /// Operation (`"search"`, `"filtered_search"`, `"reader_search"`, …).
    pub op: &'static str,
    /// Process-wide admission sequence number (stable ordering).
    pub seq: u64,
    /// End-to-end latency.
    pub total_us: u64,
    /// The slow threshold that was in force when the query completed.
    pub threshold_us: u64,
    /// Spans that did not fit in the fixed-capacity array.
    pub dropped_spans: u32,
    /// Recorded spans in admission order.
    pub spans: Vec<Span>,
}

impl FinishedTrace {
    /// The span that consumed the most time, if any were recorded.
    pub fn hottest_span(&self) -> Option<&Span> {
        self.spans.iter().max_by_key(|s| s.dur_us)
    }

    /// Whether this query exceeded the slow threshold in force when it
    /// completed (the ring-admission criterion).
    pub fn is_slow(&self) -> bool {
        self.total_us > self.threshold_us
    }
}

/// Bounded ring of recent slow queries, newest last.
#[derive(Default)]
pub struct SlowQueryLog {
    inner: Mutex<VecDeque<Arc<FinishedTrace>>>,
}

impl SlowQueryLog {
    fn push(&self, trace: Arc<FinishedTrace>, capacity: usize) {
        let mut ring = self.inner.lock().expect("slow query log lock");
        while ring.len() >= capacity.max(1) {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Copy of the ring, oldest first.
    pub fn snapshot(&self) -> Vec<Arc<FinishedTrace>> {
        self.inner.lock().expect("slow query log lock").iter().cloned().collect()
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("slow query log lock").len()
    }

    /// True when no slow query has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all retained entries (tests).
    pub fn clear(&self) {
        self.inner.lock().expect("slow query log lock").clear();
    }
}

/// The process-global slow-query ring buffer.
pub fn slow_query_log() -> &'static SlowQueryLog {
    static LOG: OnceLock<SlowQueryLog> = OnceLock::new();
    LOG.get_or_init(SlowQueryLog::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that mutate the global trace config.
    fn config_guard() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        assert!(!t.enabled());
        let s = t.begin();
        t.record(SpanKind::SegmentScan, s);
        assert_eq!(t.span_count(), 0);
        assert!(t.finish().is_none());
    }

    #[test]
    fn forced_trace_records_spans_with_metadata() {
        let mut t = Trace::forced("search", "trace_unit");
        let s = t.begin();
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.record_with(SpanKind::SegmentScan, s, |sp| {
            sp.segment_id = 7;
            sp.rows_scanned = 123;
            sp.cache = CacheOutcome::Hit;
        });
        assert_eq!(t.span_count(), 1);
        let inner = t.inner.as_ref().unwrap();
        let sp = inner.spans[0];
        assert_eq!(sp.kind, SpanKind::SegmentScan);
        assert_eq!(sp.segment_id, 7);
        assert_eq!(sp.rows_scanned, 123);
        assert_eq!(sp.cache, CacheOutcome::Hit);
        assert!(sp.dur_us >= 500, "dur_us={}", sp.dur_us);
    }

    #[test]
    fn span_overflow_is_counted_not_grown() {
        let mut t = Trace::forced("search", "trace_overflow");
        for _ in 0..(MAX_SPANS + 5) {
            let s = t.begin();
            t.record(SpanKind::Other, s);
        }
        let inner = t.inner.as_ref().unwrap();
        assert_eq!(inner.len, MAX_SPANS);
        assert_eq!(inner.dropped, 5);
    }

    #[test]
    fn deterministic_sampler_proportions() {
        // Directly exercise the arithmetic, not the global state.
        let picks = |ppm: u64, n: u64| {
            (0..n).filter(|&i| (i + 1) * ppm / 1_000_000 > i * ppm / 1_000_000).count()
        };
        assert_eq!(picks(0, 1000), 0);
        assert_eq!(picks(1_000_000, 1000), 1000);
        assert_eq!(picks(500_000, 1000), 500);
        assert_eq!(picks(10_000, 1000), 10);
    }

    #[test]
    fn slow_trace_lands_in_ring_and_fast_one_does_not() {
        let _g = config_guard();
        let prior = trace_config();
        set_trace_config(TraceConfig {
            slow_threshold_us: Some(0),
            ..TraceConfig::default()
        });
        let mut t = Trace::forced("search", "trace_ring_unit");
        let s = t.begin();
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.record(SpanKind::SegmentScan, s);
        let finished = t.finish().expect("trace above threshold 0 must be slow");
        assert_eq!(finished.collection, "trace_ring_unit");
        assert_eq!(finished.spans.len(), 1);
        assert!(slow_query_log()
            .snapshot()
            .iter()
            .any(|f| f.seq == finished.seq));

        // An absurdly high threshold keeps the next trace out of the ring.
        set_trace_config(TraceConfig {
            slow_threshold_us: Some(u64::MAX),
            ..TraceConfig::default()
        });
        let t = Trace::forced("search", "trace_ring_unit");
        assert!(t.finish().is_none());
        set_trace_config(prior);
    }

    #[test]
    fn ring_is_bounded() {
        let _g = config_guard();
        let prior = trace_config();
        set_trace_config(TraceConfig {
            slow_threshold_us: Some(0),
            ring_capacity: 4,
            ..TraceConfig::default()
        });
        for _ in 0..10 {
            let t = Trace::forced("search", "trace_ring_bound");
            std::thread::sleep(std::time::Duration::from_micros(100));
            t.finish();
        }
        assert!(slow_query_log().len() <= 4, "ring exceeded its capacity");
        set_trace_config(prior);
    }

    #[test]
    fn threshold_uses_fallback_until_histogram_is_warm() {
        let _g = config_guard();
        let prior = trace_config();
        set_trace_config(TraceConfig {
            slow_threshold_us: None,
            slow_fallback_us: 12_345,
            min_p99_samples: 1_000_000, // histogram can never be warm here
            ..TraceConfig::default()
        });
        assert_eq!(slow_threshold_us("trace_cold_label"), 12_345);
        set_trace_config(prior);
    }
}

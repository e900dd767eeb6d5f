//! The adaptive query scheduler: cross-query coalescing plus
//! timeseries-driven admission control.
//!
//! Sits between the public search entry points ([`crate::Collection`],
//! REST, the distributed reader) and the segment scanners. Two jobs:
//!
//! 1. **Coalescing** — each collection has one run slot per core.
//!    A `search`/`filtered_search` that finds a slot free runs at once as a
//!    batch of one: sparse traffic pays zero added latency, and parallelism
//!    across queries comes before parallelism inside one. Calls that find
//!    every slot taken queue, and the first slot to free takes up to
//!    `max_batch` of them as one batch, so each segment's rows stream once
//!    per ×4 query tile instead of once per query. Nothing waits on a timer.
//!    The rendezvous itself is [`milvus_exec::coalesce::Coalescer`]; this
//!    module adds the search-shaped request type, parameter-compatibility
//!    grouping, and metrics.
//! 2. **Admission control** — a per-collection in-flight budget sized from
//!    the flight recorder's windowed signals (queue depth per executor
//!    worker, windowed p99 of this collection's query latency, windowed
//!    degraded-search count). Queries over budget are shed with the typed
//!    [`MilvusError::Overloaded`] (HTTP 429) — never silently degraded.
//!    Signals refresh at most every `signal_refresh`; between refreshes
//!    admission is an atomic increment against a cached budget.
//!
//! The budget policy itself is the pure function [`effective_budget`] so
//! tests can pin it without staging real load.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use milvus_exec::coalesce::{CoalesceConfig, Coalescer, Submitted};
use milvus_index::traits::SearchParams;
use milvus_obs as obs;
use parking_lot::Mutex;

use crate::collection::SearchHit;
use crate::config::SchedulerConfig;
use crate::error::{MilvusError, Result};

/// One coalescable query, owned (the queue outlives the caller's borrows).
#[derive(Debug, Clone)]
pub enum SearchRequest {
    /// Plain vector query ([`crate::Collection::search`]).
    Vector {
        /// Vector field searched.
        field: String,
        /// The query vector.
        query: Vec<f32>,
        /// Per-query parameters.
        params: SearchParams,
    },
    /// Attribute-filtered query ([`crate::Collection::filtered_search`]).
    Filtered {
        /// Vector field searched.
        field: String,
        /// The query vector.
        query: Vec<f32>,
        /// Attribute the range predicate applies to.
        attr: String,
        /// Predicate lower bound.
        lo: f64,
        /// Predicate upper bound.
        hi: f64,
        /// Per-query parameters.
        params: SearchParams,
    },
}

impl SearchRequest {
    /// An owned plain vector query.
    pub fn vector(field: &str, query: &[f32], params: &SearchParams) -> Self {
        SearchRequest::Vector {
            field: field.to_string(),
            query: query.to_vec(),
            params: params.clone(),
        }
    }

    /// The vector field searched.
    pub fn field(&self) -> &str {
        match self {
            SearchRequest::Vector { field, .. } | SearchRequest::Filtered { field, .. } => field,
        }
    }

    /// The query vector.
    pub fn query(&self) -> &[f32] {
        match self {
            SearchRequest::Vector { query, .. } | SearchRequest::Filtered { query, .. } => query,
        }
    }

    /// The request's search parameters.
    pub fn params(&self) -> &SearchParams {
        match self {
            SearchRequest::Vector { params, .. } | SearchRequest::Filtered { params, .. } => params,
        }
    }
}

/// Parameter-compatibility key: requests in one group go to each segment as
/// one `Segment::search_batch` call. `k` is deliberately *excluded* for
/// vector requests — the call takes one `k` per query, and the segment runs
/// a mixed-`k` group at `max(k)` only where truncating each sorted list to
/// its own `k` is exact (flat scans, IVF bucket sweeps). Everything that
/// changes the candidate set (`nprobe`, `ef`, `search_nodes`, the field,
/// filter bounds) partitions groups.
#[derive(PartialEq, Eq, Hash)]
enum GroupKey<'a> {
    Vector { field: &'a str, nprobe: usize, ef: usize, search_nodes: usize },
    Filtered {
        field: &'a str,
        attr: &'a str,
        lo_bits: u64,
        hi_bits: u64,
        k: usize,
        nprobe: usize,
        ef: usize,
        search_nodes: usize,
    },
}

fn group_key(req: &SearchRequest) -> GroupKey<'_> {
    match req {
        SearchRequest::Vector { field, params, .. } => GroupKey::Vector {
            field,
            nprobe: params.nprobe,
            ef: params.ef,
            search_nodes: params.search_nodes,
        },
        SearchRequest::Filtered { field, attr, lo, hi, params, .. } => GroupKey::Filtered {
            field,
            attr,
            lo_bits: lo.to_bits(),
            hi_bits: hi.to_bits(),
            k: params.k,
            nprobe: params.nprobe,
            ef: params.ef,
            search_nodes: params.search_nodes,
        },
    }
}

/// Partition a coalesced batch into parameter-compatible groups. Groups are
/// emitted in first-occurrence order and members keep queue order, so the
/// grouping is a pure function of the input sequence — deterministic across
/// runs regardless of hash-map internals (the map is only probed, never
/// iterated).
pub fn group_batch(reqs: &[SearchRequest]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut index: std::collections::HashMap<GroupKey<'_>, usize> = std::collections::HashMap::new();
    for (i, req) in reqs.iter().enumerate() {
        match index.entry(group_key(req)) {
            std::collections::hash_map::Entry::Occupied(e) => groups[*e.get()].push(i),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(groups.len());
                groups.push(vec![i]);
            }
        }
    }
    groups
}

/// The windowed signals the admission budget is derived from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionSignals {
    /// Live executor queue depth per worker (global pool).
    pub queue_per_worker: f64,
    /// p99 of this collection's query latency inside the open recorder
    /// window, microseconds. Zero when no queries landed in-window.
    pub windowed_p99_us: u64,
    /// Degraded distributed searches inside the open window.
    pub degraded_delta: u64,
}

/// The admission policy, as a pure function: how many queries may be in
/// flight given the current signals.
///
/// Non-adaptive configs pin the budget at `max_inflight`. Adaptive configs
/// contract it multiplicatively: proportionally to how far the windowed
/// p99 overshoots the SLO, divided by the executor backlog per worker, and
/// halved while searches are completing degraded — floored at
/// `min_inflight` so a spike sheds most, never all, traffic.
pub fn effective_budget(cfg: &SchedulerConfig, s: &AdmissionSignals) -> usize {
    let ceiling = cfg.max_inflight.max(1);
    if !cfg.adaptive {
        return ceiling;
    }
    let mut budget = ceiling as f64;
    if cfg.slo_p99_us > 0 && s.windowed_p99_us > cfg.slo_p99_us {
        budget *= cfg.slo_p99_us as f64 / s.windowed_p99_us as f64;
    }
    if s.queue_per_worker > 1.0 {
        budget /= s.queue_per_worker;
    }
    if s.degraded_delta > 0 {
        budget *= 0.5;
    }
    (budget as usize).clamp(cfg.min_inflight.max(1).min(ceiling), ceiling)
}

struct BudgetCache {
    budget: usize,
    refreshed: Option<Instant>,
}

/// RAII in-flight slot; dropping it releases the budget.
pub struct InflightGuard<'a> {
    sched: &'a QueryScheduler,
}

impl std::fmt::Debug for InflightGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InflightGuard").field("collection", &self.sched.label).finish()
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.sched.inflight.fetch_sub(1, Ordering::AcqRel);
        self.sched.inflight_gauge.add(-1);
    }
}

/// Per-collection scheduler: the coalescer plus the admission controller
/// plus their `milvus_sched_*` metric series.
pub struct QueryScheduler {
    cfg: SchedulerConfig,
    label: String,
    coalescer: Coalescer<SearchRequest, Result<Vec<SearchHit>>>,
    inflight: AtomicUsize,
    budget: Mutex<BudgetCache>,
    inflight_gauge: Arc<obs::Gauge>,
    shed_total: Arc<obs::Counter>,
    passthrough_total: Arc<obs::Counter>,
    coalesced_batches: Arc<obs::Counter>,
    coalesced_queries: Arc<obs::Counter>,
    batch_size: Arc<obs::Histogram>,
    exec_queue_depth: Arc<obs::Gauge>,
    exec_workers: Arc<obs::Gauge>,
}

impl QueryScheduler {
    /// Build the scheduler for collection `label`.
    pub fn new(label: &str, cfg: SchedulerConfig) -> Self {
        QueryScheduler {
            coalescer: Coalescer::new(CoalesceConfig { max_batch: cfg.max_batch }),
            inflight: AtomicUsize::new(0),
            budget: Mutex::new(BudgetCache { budget: cfg.max_inflight.max(1), refreshed: None }),
            inflight_gauge: obs::gauge(obs::SCHED_INFLIGHT, label),
            shed_total: obs::counter(obs::SCHED_SHED, label),
            passthrough_total: obs::counter(obs::SCHED_PASSTHROUGH, label),
            coalesced_batches: obs::counter(obs::SCHED_COALESCED_BATCHES, label),
            coalesced_queries: obs::counter(obs::SCHED_COALESCED_QUERIES, label),
            batch_size: obs::histogram(obs::SCHED_BATCH_SIZE, label),
            exec_queue_depth: obs::gauge(obs::EXEC_QUEUE_DEPTH, "global"),
            exec_workers: obs::gauge(obs::EXEC_WORKERS, "global"),
            label: label.to_string(),
            cfg,
        }
    }

    /// The scheduler's configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Whether cross-query coalescing is on.
    pub fn coalescing(&self) -> bool {
        self.cfg.coalescing
    }

    /// Admit one query, or shed it with [`MilvusError::Overloaded`] when
    /// the collection's in-flight budget is exhausted. The returned guard
    /// must be held for the query's whole execution.
    pub fn admit(&self) -> Result<InflightGuard<'_>> {
        let budget = self.current_budget();
        let prev = self.inflight.fetch_add(1, Ordering::AcqRel);
        if prev >= budget {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            self.shed_total.inc();
            return Err(MilvusError::Overloaded {
                collection: self.label.clone(),
                inflight: prev,
                budget,
            });
        }
        self.inflight_gauge.add(1);
        Ok(InflightGuard { sched: self })
    }

    /// Hand one request to the coalescer (see
    /// [`Coalescer::submit`] for the pass/lead/follow contract).
    pub fn submit<F>(
        &self,
        req: SearchRequest,
        run: F,
    ) -> Submitted<'_, SearchRequest, Result<Vec<SearchHit>>>
    where
        F: FnOnce(Vec<SearchRequest>) -> Vec<Result<Vec<SearchHit>>>,
    {
        self.coalescer.submit(req, run)
    }

    /// Run slots nobody holds (see [`Coalescer::idle_slots`]): the cores a
    /// runner may fan its segment scans out into. At `0` the cores are busy
    /// with whole queries and a runner scans its segments itself.
    pub fn idle_slots(&self) -> usize {
        self.coalescer.idle_slots()
    }

    /// Record a passthrough (free run slot, batch of one).
    pub fn note_passthrough(&self) {
        self.passthrough_total.inc();
    }

    /// Record one executed coalesced batch of `n` queries (leader-side).
    pub fn note_batch(&self, n: usize) {
        self.coalesced_batches.inc();
        self.coalesced_queries.add(n as u64);
        self.batch_size.observe_us(n as u64);
    }

    /// The budget currently enforced (tests/diagnostics).
    pub fn budget(&self) -> usize {
        self.current_budget()
    }

    /// Queries currently in flight.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }

    fn current_budget(&self) -> usize {
        if !self.cfg.adaptive {
            return self.cfg.max_inflight.max(1);
        }
        let mut cache = self.budget.lock();
        let stale =
            cache.refreshed.is_none_or(|at| at.elapsed() >= self.cfg.signal_refresh);
        if stale {
            let signals = self.gather_signals();
            cache.budget = effective_budget(&self.cfg, &signals);
            cache.refreshed = Some(Instant::now());
        }
        cache.budget
    }

    /// Read the live signals: executor gauges directly (atomic loads), the
    /// windowed pieces as live-minus-newest-frame deltas — the same "open
    /// window" the health model scores.
    fn gather_signals(&self) -> AdmissionSignals {
        let workers = self.exec_workers.get().max(1) as f64;
        let depth = self.exec_queue_depth.get().max(0) as f64;
        let baseline = obs::flight_recorder().newest();
        let live_hist = obs::histogram(obs::QUERY_LATENCY, &self.label).snapshot();
        let windowed_p99_us = match &baseline {
            Some(frame) => live_hist
                .saturating_diff(&frame.snapshot.histogram(obs::QUERY_LATENCY, &self.label))
                .p99_us(),
            None => live_hist.p99_us(),
        } as u64;
        let degraded_delta = match &baseline {
            Some(frame) => {
                let live = obs::registry().snapshot().counter_total(obs::SEARCH_DEGRADED);
                live.saturating_sub(frame.snapshot.counter_total(obs::SEARCH_DEGRADED))
            }
            None => 0,
        };
        AdmissionSignals { queue_per_worker: depth / workers, windowed_p99_us, degraded_delta }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SchedulerConfig {
        SchedulerConfig {
            max_inflight: 64,
            min_inflight: 4,
            adaptive: true,
            slo_p99_us: 100_000,
            ..Default::default()
        }
    }

    fn calm() -> AdmissionSignals {
        AdmissionSignals { queue_per_worker: 0.0, windowed_p99_us: 0, degraded_delta: 0 }
    }

    #[test]
    fn budget_is_full_when_calm_and_pinned_when_not_adaptive() {
        assert_eq!(effective_budget(&cfg(), &calm()), 64);
        let fixed = SchedulerConfig { adaptive: false, ..cfg() };
        let stress = AdmissionSignals {
            queue_per_worker: 100.0,
            windowed_p99_us: 10_000_000,
            degraded_delta: 9,
        };
        assert_eq!(effective_budget(&fixed, &stress), 64);
    }

    #[test]
    fn budget_contracts_proportionally_to_p99_overshoot() {
        // 2× over SLO → half budget; 4× → quarter.
        let s = AdmissionSignals { windowed_p99_us: 200_000, ..calm() };
        assert_eq!(effective_budget(&cfg(), &s), 32);
        let s = AdmissionSignals { windowed_p99_us: 400_000, ..calm() };
        assert_eq!(effective_budget(&cfg(), &s), 16);
        // Under the SLO nothing contracts.
        let s = AdmissionSignals { windowed_p99_us: 99_999, ..calm() };
        assert_eq!(effective_budget(&cfg(), &s), 64);
    }

    #[test]
    fn budget_divides_by_executor_backlog_and_halves_on_degraded() {
        let s = AdmissionSignals { queue_per_worker: 4.0, ..calm() };
        assert_eq!(effective_budget(&cfg(), &s), 16);
        let s = AdmissionSignals { degraded_delta: 2, ..calm() };
        assert_eq!(effective_budget(&cfg(), &s), 32);
        // Signals compose multiplicatively.
        let s = AdmissionSignals {
            queue_per_worker: 4.0,
            windowed_p99_us: 200_000,
            degraded_delta: 1,
        };
        assert_eq!(effective_budget(&cfg(), &s), 4);
    }

    #[test]
    fn budget_never_drops_below_the_floor_or_exceeds_the_ceiling() {
        let s = AdmissionSignals {
            queue_per_worker: 1e6,
            windowed_p99_us: u64::MAX / 2,
            degraded_delta: 1000,
        };
        assert_eq!(effective_budget(&cfg(), &s), 4);
        // A floor above the ceiling is clamped to the ceiling.
        let odd = SchedulerConfig { min_inflight: 999, max_inflight: 8, ..cfg() };
        assert_eq!(effective_budget(&odd, &s), 8);
    }

    #[test]
    fn grouping_is_first_occurrence_ordered_and_k_insensitive_for_vector() {
        let v = |field: &str, k: usize, nprobe: usize| SearchRequest::Vector {
            field: field.into(),
            query: vec![0.0; 4],
            params: SearchParams { k, nprobe, ..Default::default() },
        };
        let reqs = vec![
            v("a", 10, 8),  // group 0
            v("b", 10, 8),  // group 1 (different field)
            v("a", 3, 8),   // group 0 (k differs — still compatible)
            v("a", 10, 16), // group 2 (nprobe differs)
            v("b", 99, 8),  // group 1
        ];
        assert_eq!(group_batch(&reqs), vec![vec![0, 2], vec![1, 4], vec![3]]);
        // Filtered requests never merge across bounds or k.
        let f = |lo: f64, k: usize| SearchRequest::Filtered {
            field: "a".into(),
            query: vec![0.0; 4],
            attr: "p".into(),
            lo,
            hi: 9.0,
            params: SearchParams { k, ..Default::default() },
        };
        let reqs = vec![f(1.0, 5), f(1.0, 5), f(2.0, 5), f(1.0, 6)];
        assert_eq!(group_batch(&reqs), vec![vec![0, 1], vec![2], vec![3]]);
    }

    #[test]
    fn shed_over_budget_then_release_readmits() {
        let sched = QueryScheduler::new(
            "sched_unit",
            SchedulerConfig { adaptive: false, max_inflight: 2, ..Default::default() },
        );
        let g1 = sched.admit().unwrap();
        let _g2 = sched.admit().unwrap();
        let err = sched.admit().expect_err("third query must shed");
        match err {
            MilvusError::Overloaded { inflight, budget, .. } => {
                assert_eq!((inflight, budget), (2, 2));
            }
            other => panic!("wrong error: {other}"),
        }
        drop(g1);
        let _g3 = sched.admit().expect("slot freed");
        assert_eq!(sched.inflight(), 2);
    }
}

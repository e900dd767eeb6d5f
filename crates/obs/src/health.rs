//! Component health model: ok / degraded / unhealthy, computed from
//! windowed metric signals.
//!
//! [`compute_health`] takes the *live* registry snapshot plus an optional
//! baseline (normally the newest flight-recorder frame) and scores four
//! components from the delta between them — the "current open window":
//!
//! - **executor** — queue-depth per worker from the live
//!   `milvus_exec_queue_depth` / `milvus_exec_workers` gauges; a persistently
//!   deep queue means searches are waiting instead of scanning.
//! - **transport** — `milvus_net_link_up` gauges (a down link degrades, all
//!   links down is unhealthy) plus the windowed `milvus_net_retries_total`
//!   burst count.
//! - **bufferpool** — windowed evictions over lookups
//!   (`milvus_bufferpool_evictions_total` / hits+misses); high churn means
//!   the working set no longer fits.
//! - **search** — live `milvus_search_coverage_ratio` (ppm; anything under
//!   full coverage degrades, zero coverage is unhealthy) plus the windowed
//!   `milvus_search_degraded_total` count.
//! - **writer** — the `milvus_writer_up` gauge (present only on clusters
//!   running failover-managed ingest): 0 means the writer is unreachable
//!   and a takeover is in flight (unhealthy); up but with
//!   `milvus_writer_failovers_total` bursts inside the open window means
//!   ingest just rode through a crash (degraded, ok again next window).
//!
//! All signals are counts, ratios, or gauges — no wall-clock denominators —
//! so the model works identically under SimNet's virtual clock and is fully
//! deterministic in tests: tick the recorder, induce the fault, ask for
//! health, and the open window contains exactly the induced events.

use crate::{
    MetricsSnapshot, EXEC_QUEUE_DEPTH, EXEC_WORKERS, NET_LINK_UP, NET_RETRIES, POOL_EVICTIONS,
    POOL_HITS, POOL_MISSES, SCHED_SHED, SEARCH_COVERAGE_RATIO, SEARCH_DEGRADED, WRITER_FAILOVERS,
    WRITER_UP,
};
use std::sync::RwLock;

/// Health of one component or of the whole process. Ordered: `Ok` <
/// `Degraded` < `Unhealthy`, so `max` picks the worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthStatus {
    /// Operating normally.
    Ok,
    /// Serving, but impaired (partial coverage, saturation, link loss).
    Degraded,
    /// Not meaningfully serving.
    Unhealthy,
}

impl HealthStatus {
    /// Wire form: "ok" / "degraded" / "unhealthy".
    pub fn as_str(self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Unhealthy => "unhealthy",
        }
    }
}

/// One component's verdict plus the signal that drove it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentHealth {
    /// "executor" / "transport" / "bufferpool" / "search".
    pub component: &'static str,
    /// The verdict.
    pub status: HealthStatus,
    /// Human-readable driver, e.g. `"1/4 links down"`.
    pub reason: String,
}

/// The whole-process report `GET /health` serializes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Worst component status.
    pub status: HealthStatus,
    /// Per-component verdicts, fixed order.
    pub components: Vec<ComponentHealth>,
}

/// Tunable cutoffs; defaults are deliberately loose so transient blips in
/// tests and small deployments do not flap the endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthThresholds {
    /// Queued tasks per worker above which the executor is degraded.
    pub exec_queue_per_worker_degraded: f64,
    /// Queued tasks per worker above which the executor is unhealthy.
    pub exec_queue_per_worker_unhealthy: f64,
    /// Net retries inside the open window above which transport degrades
    /// even with every link nominally up.
    pub net_retry_burst_degraded: u64,
    /// Windowed evictions / lookups above which the bufferpool is degraded.
    pub pool_eviction_ratio_degraded: f64,
    /// Windowed evictions / lookups above which the bufferpool is unhealthy.
    pub pool_eviction_ratio_unhealthy: f64,
    /// Degraded searches inside the open window above which search is
    /// degraded even if the last search happened to be complete.
    pub degraded_search_burst: u64,
    /// Scheduler-shed queries inside the open window at or above which the
    /// executor component is degraded: admission control turning traffic
    /// away is load the pool could not absorb, even if the queue gauge has
    /// already drained by the time health is asked.
    pub sched_shed_burst_degraded: u64,
    /// Writer failovers inside the open window at or above which the writer
    /// component is degraded: ingest recovered, but a takeover just
    /// happened — the next clean window reports ok again.
    pub writer_failover_burst_degraded: u64,
}

impl Default for HealthThresholds {
    fn default() -> Self {
        Self {
            exec_queue_per_worker_degraded: 4.0,
            exec_queue_per_worker_unhealthy: 32.0,
            net_retry_burst_degraded: 50,
            pool_eviction_ratio_degraded: 0.25,
            pool_eviction_ratio_unhealthy: 0.75,
            degraded_search_burst: 1,
            sched_shed_burst_degraded: 1,
            writer_failover_burst_degraded: 1,
        }
    }
}

fn thresholds_cell() -> &'static RwLock<HealthThresholds> {
    static CELL: std::sync::OnceLock<RwLock<HealthThresholds>> = std::sync::OnceLock::new();
    CELL.get_or_init(|| RwLock::new(HealthThresholds::default()))
}

/// Replace the process-global thresholds (`Milvus::configure_health`).
pub fn set_health_thresholds(t: HealthThresholds) {
    *thresholds_cell().write().expect("health thresholds lock") = t;
}

/// Current process-global thresholds.
pub fn health_thresholds() -> HealthThresholds {
    thresholds_cell().read().expect("health thresholds lock").clone()
}

/// Windowed counter-family delta: live minus baseline, summed over
/// non-segment series (segment-granular series double-count their parents).
fn family_delta(live: &MetricsSnapshot, baseline: Option<&MetricsSnapshot>, name: &str) -> u64 {
    let sum = |s: &MetricsSnapshot| -> u64 {
        s.counters
            .iter()
            .filter(|(k, _)| k.name == name && k.segment.is_none())
            .map(|(_, v)| *v)
            .sum()
    };
    sum(live).saturating_sub(baseline.map_or(0, sum))
}

fn executor_health(
    live: &MetricsSnapshot,
    baseline: Option<&MetricsSnapshot>,
    th: &HealthThresholds,
) -> ComponentHealth {
    // Worst pool wins; pools with zero registered workers are ignored
    // (gauges left behind by dropped pools idle at depth 0 anyway).
    let mut worst: Option<(String, f64)> = None;
    for (key, &workers) in live.gauges.iter().filter(|(k, _)| k.name == EXEC_WORKERS) {
        if workers <= 0 {
            continue;
        }
        let depth = live.gauge(EXEC_QUEUE_DEPTH, &key.label).max(0) as f64;
        let per_worker = depth / workers as f64;
        if worst.as_ref().is_none_or(|(_, w)| per_worker > *w) {
            worst = Some((key.label.clone(), per_worker));
        }
    }
    let (pool, per_worker) = worst.unwrap_or_else(|| (String::from("-"), 0.0));
    // Shed queries are the scheduler's own saturation verdict: the queue
    // gauge can drain between the overload and the health probe, but the
    // shed counter delta inside the open window cannot un-happen, so load
    // shedding flips this component deterministically.
    let shed = family_delta(live, baseline, SCHED_SHED);
    let status = if per_worker >= th.exec_queue_per_worker_unhealthy {
        HealthStatus::Unhealthy
    } else if per_worker >= th.exec_queue_per_worker_degraded
        || shed >= th.sched_shed_burst_degraded.max(1)
    {
        HealthStatus::Degraded
    } else {
        HealthStatus::Ok
    };
    ComponentHealth {
        component: "executor",
        status,
        reason: format!(
            "pool {pool:?} queue depth/worker {per_worker:.2}, {shed} shed in window"
        ),
    }
}

fn transport_health(
    live: &MetricsSnapshot,
    baseline: Option<&MetricsSnapshot>,
    th: &HealthThresholds,
) -> ComponentHealth {
    let links: Vec<(&str, i64)> = live
        .gauges
        .iter()
        .filter(|(k, _)| k.name == NET_LINK_UP)
        .map(|(k, &v)| (k.label.as_str(), v))
        .collect();
    let down = links.iter().filter(|(_, v)| *v == 0).count();
    let retries = family_delta(live, baseline, NET_RETRIES);
    let (status, reason) = if !links.is_empty() && down == links.len() {
        (HealthStatus::Unhealthy, format!("all {} links down", links.len()))
    } else if down > 0 {
        (HealthStatus::Degraded, format!("{down}/{} links down", links.len()))
    } else if retries > th.net_retry_burst_degraded {
        (HealthStatus::Degraded, format!("{retries} retries in window"))
    } else {
        (
            HealthStatus::Ok,
            format!("{} links up, {retries} retries in window", links.len()),
        )
    };
    ComponentHealth { component: "transport", status, reason }
}

fn bufferpool_health(
    live: &MetricsSnapshot,
    baseline: Option<&MetricsSnapshot>,
    th: &HealthThresholds,
) -> ComponentHealth {
    let evictions = family_delta(live, baseline, POOL_EVICTIONS);
    let lookups =
        family_delta(live, baseline, POOL_HITS) + family_delta(live, baseline, POOL_MISSES);
    let ratio = if lookups == 0 { 0.0 } else { evictions as f64 / lookups as f64 };
    let status = if ratio >= th.pool_eviction_ratio_unhealthy {
        HealthStatus::Unhealthy
    } else if ratio >= th.pool_eviction_ratio_degraded {
        HealthStatus::Degraded
    } else {
        HealthStatus::Ok
    };
    ComponentHealth {
        component: "bufferpool",
        status,
        reason: format!("{evictions} evictions / {lookups} lookups in window"),
    }
}

fn search_health(
    live: &MetricsSnapshot,
    baseline: Option<&MetricsSnapshot>,
    th: &HealthThresholds,
) -> ComponentHealth {
    // Coverage gauges exist only once a distributed search ran; a process
    // that never searched is trivially ok.
    let coverage: Vec<(&str, i64)> = live
        .gauges
        .iter()
        .filter(|(k, _)| k.name == SEARCH_COVERAGE_RATIO)
        .map(|(k, &v)| (k.label.as_str(), v))
        .collect();
    let worst_ppm = coverage.iter().map(|(_, v)| *v).min();
    let degraded = family_delta(live, baseline, SEARCH_DEGRADED);
    let (status, reason) = match worst_ppm {
        Some(0) => (HealthStatus::Unhealthy, "last search covered 0 shards".to_string()),
        Some(ppm) if ppm < 1_000_000 => (
            HealthStatus::Degraded,
            format!("coverage {:.1}% on last search", ppm as f64 / 1e4),
        ),
        _ if degraded >= th.degraded_search_burst.max(1) => (
            HealthStatus::Degraded,
            format!("{degraded} degraded searches in window"),
        ),
        _ => (
            HealthStatus::Ok,
            format!("full coverage, {degraded} degraded in window"),
        ),
    };
    ComponentHealth { component: "search", status, reason }
}

fn writer_health(
    live: &MetricsSnapshot,
    baseline: Option<&MetricsSnapshot>,
    th: &HealthThresholds,
) -> ComponentHealth {
    // The up-gauge exists only on clusters running failover-managed ingest;
    // a process without one has nothing to report on.
    let up: Vec<i64> =
        live.gauges.iter().filter(|(k, _)| k.name == WRITER_UP).map(|(_, &v)| v).collect();
    let failovers = family_delta(live, baseline, WRITER_FAILOVERS);
    let (status, reason) = if up.is_empty() {
        (HealthStatus::Ok, "no failover-managed writer".to_string())
    } else if up.contains(&0) {
        (HealthStatus::Unhealthy, "writer down, takeover in flight".to_string())
    } else if failovers >= th.writer_failover_burst_degraded.max(1) {
        (HealthStatus::Degraded, format!("{failovers} failovers in window"))
    } else {
        (HealthStatus::Ok, format!("writer up, {failovers} failovers in window"))
    };
    ComponentHealth { component: "writer", status, reason }
}

/// Score every component from `live` against `baseline` (the newest
/// recorded frame; `None` treats all history as in-window) and roll the
/// worst status up to the report level.
pub fn compute_health(
    live: &MetricsSnapshot,
    baseline: Option<&MetricsSnapshot>,
    th: &HealthThresholds,
) -> HealthReport {
    let components = vec![
        executor_health(live, baseline, th),
        transport_health(live, baseline, th),
        bufferpool_health(live, baseline, th),
        search_health(live, baseline, th),
        writer_health(live, baseline, th),
    ];
    let status = components
        .iter()
        .map(|c| c.status)
        .max()
        .unwrap_or(HealthStatus::Ok);
    HealthReport { status, components }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Key;

    fn key(name: &str, label: &str) -> Key {
        Key { name: name.into(), label: label.into(), segment: None, component: None }
    }

    fn th() -> HealthThresholds {
        HealthThresholds::default()
    }

    #[test]
    fn empty_snapshot_is_ok() {
        let live = MetricsSnapshot::default();
        let r = compute_health(&live, None, &th());
        assert_eq!(r.status, HealthStatus::Ok);
        assert_eq!(r.components.len(), 5);
    }

    #[test]
    fn writer_health_tracks_failover_lifecycle() {
        // No up-gauge at all: nothing to manage, ok.
        let live = MetricsSnapshot::default();
        let r = compute_health(&live, None, &th());
        assert_eq!(r.components[4].status, HealthStatus::Ok);

        // Writer down mid-takeover: unhealthy.
        let mut live = MetricsSnapshot::default();
        live.gauges.insert(key(WRITER_UP, "cluster"), 0);
        let r = compute_health(&live, None, &th());
        assert_eq!(r.components[4].status, HealthStatus::Unhealthy);
        assert_eq!(r.status, HealthStatus::Unhealthy);

        // Back up, but a failover landed in the open window: degraded.
        let mut base = MetricsSnapshot::default();
        base.counters.insert(key(WRITER_FAILOVERS, "cluster"), 3);
        let mut live = base.clone();
        live.gauges.insert(key(WRITER_UP, "cluster"), 1);
        live.counters.insert(key(WRITER_FAILOVERS, "cluster"), 4);
        let r = compute_health(&live, Some(&base), &th());
        assert_eq!(r.components[4].status, HealthStatus::Degraded);
        assert!(r.components[4].reason.contains("1 failovers"), "{}", r.components[4].reason);

        // Next window is clean: ok again.
        let base = live.clone();
        let r = compute_health(&live, Some(&base), &th());
        assert_eq!(r.components[4].status, HealthStatus::Ok);
        assert_eq!(r.status, HealthStatus::Ok);
    }

    #[test]
    fn saturated_executor_degrades_then_goes_unhealthy() {
        let mut live = MetricsSnapshot::default();
        live.gauges.insert(key(EXEC_WORKERS, "global"), 4);
        live.gauges.insert(key(EXEC_QUEUE_DEPTH, "global"), 20);
        let r = compute_health(&live, None, &th());
        assert_eq!(r.components[0].status, HealthStatus::Degraded);
        live.gauges.insert(key(EXEC_QUEUE_DEPTH, "global"), 400);
        let r = compute_health(&live, None, &th());
        assert_eq!(r.components[0].status, HealthStatus::Unhealthy);
        assert_eq!(r.status, HealthStatus::Unhealthy);
    }

    #[test]
    fn down_link_degrades_transport_and_all_down_is_unhealthy() {
        let mut live = MetricsSnapshot::default();
        live.gauges.insert(key(NET_LINK_UP, "client->reader0"), 1);
        live.gauges.insert(key(NET_LINK_UP, "client->reader1"), 0);
        let r = compute_health(&live, None, &th());
        assert_eq!(r.components[1].status, HealthStatus::Degraded);
        live.gauges.insert(key(NET_LINK_UP, "client->reader0"), 0);
        let r = compute_health(&live, None, &th());
        assert_eq!(r.components[1].status, HealthStatus::Unhealthy);
    }

    #[test]
    fn retry_burst_is_windowed_against_the_baseline() {
        let mut base = MetricsSnapshot::default();
        base.counters.insert(key(NET_RETRIES, "a->b"), 1_000);
        let mut live = base.clone();
        live.counters.insert(key(NET_RETRIES, "a->b"), 1_020);
        // 20 retries in-window: under the default burst threshold.
        let r = compute_health(&live, Some(&base), &th());
        assert_eq!(r.components[1].status, HealthStatus::Ok);
        // Without the baseline the whole history counts and trips it.
        let r = compute_health(&live, None, &th());
        assert_eq!(r.components[1].status, HealthStatus::Degraded);
    }

    #[test]
    fn partial_coverage_degrades_search_and_zero_is_unhealthy() {
        let mut live = MetricsSnapshot::default();
        live.gauges.insert(key(SEARCH_COVERAGE_RATIO, "cluster"), 750_000);
        live.counters.insert(key(SEARCH_DEGRADED, "cluster"), 1);
        let r = compute_health(&live, None, &th());
        assert_eq!(r.components[3].status, HealthStatus::Degraded);
        assert!(r.components[3].reason.contains("75.0%"), "{}", r.components[3].reason);
        live.gauges.insert(key(SEARCH_COVERAGE_RATIO, "cluster"), 0);
        let r = compute_health(&live, None, &th());
        assert_eq!(r.components[3].status, HealthStatus::Unhealthy);
    }

    #[test]
    fn recovered_coverage_with_clean_window_is_ok_again() {
        // Degraded history exists, but the gauge shows full coverage and the
        // baseline absorbs the old degraded count: ok.
        let mut base = MetricsSnapshot::default();
        base.counters.insert(key(SEARCH_DEGRADED, "cluster"), 7);
        let mut live = base.clone();
        live.gauges.insert(key(SEARCH_COVERAGE_RATIO, "cluster"), 1_000_000);
        let r = compute_health(&live, Some(&base), &th());
        assert_eq!(r.components[3].status, HealthStatus::Ok);
        assert_eq!(r.status, HealthStatus::Ok);
    }

    #[test]
    fn shed_burst_degrades_executor_and_is_windowed() {
        // Historic sheds absorbed by the baseline keep the executor ok...
        let mut base = MetricsSnapshot::default();
        base.counters.insert(key(SCHED_SHED, "vectors"), 10);
        let live = base.clone();
        let r = compute_health(&live, Some(&base), &th());
        assert_eq!(r.components[0].status, HealthStatus::Ok);
        // ...but a single in-window shed flips it to degraded even with an
        // empty executor queue.
        let mut live = base.clone();
        live.counters.insert(key(SCHED_SHED, "vectors"), 11);
        let r = compute_health(&live, Some(&base), &th());
        assert_eq!(r.components[0].status, HealthStatus::Degraded);
        assert!(r.components[0].reason.contains("1 shed"), "{}", r.components[0].reason);
        assert_eq!(r.status, HealthStatus::Degraded);
    }

    #[test]
    fn eviction_churn_degrades_bufferpool() {
        let mut live = MetricsSnapshot::default();
        live.counters.insert(key(POOL_HITS, "pool"), 60);
        live.counters.insert(key(POOL_MISSES, "pool"), 40);
        live.counters.insert(key(POOL_EVICTIONS, "pool"), 40);
        let r = compute_health(&live, None, &th());
        assert_eq!(r.components[2].status, HealthStatus::Degraded);
        live.counters.insert(key(POOL_EVICTIONS, "pool"), 90);
        let r = compute_health(&live, None, &th());
        assert_eq!(r.components[2].status, HealthStatus::Unhealthy);
    }
}

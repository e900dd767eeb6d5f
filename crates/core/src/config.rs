//! Collection configuration.

use std::path::PathBuf;
use std::time::Duration;

use milvus_storage::LsmConfig;

/// Re-exported tracing knobs (sampling rate, slow-query threshold, ring
/// capacity); apply with [`crate::Milvus::configure_tracing`].
pub use milvus_obs::TraceConfig;

/// Tuning for one collection.
#[derive(Debug, Clone)]
pub struct CollectionConfig {
    /// Storage-engine knobs (flush threshold, merge policy…).
    pub lsm: LsmConfig,
    /// Index type built automatically on large segments (§2.3; `None`
    /// disables auto-indexing).
    pub auto_index_type: Option<String>,
    /// Segments at or above this payload size get the automatic index
    /// ("By default, Milvus builds indexes only for large segments (e.g.,
    /// > 1GB)"). Scaled down by default so tests exercise the policy.
    pub index_threshold_bytes: usize,
    /// Background flush cadence (§2.3: "once every second").
    pub flush_interval: Duration,
    /// WAL file path; `None` runs without durability (ephemeral readers).
    pub wal_path: Option<PathBuf>,
    /// Index build parameters (nlist, HNSW M, seeds…).
    pub build_params: milvus_index::BuildParams,
    /// Query-scheduler knobs (coalescing, admission budget).
    pub scheduler: SchedulerConfig,
}

impl Default for CollectionConfig {
    fn default() -> Self {
        Self {
            lsm: LsmConfig::default(),
            auto_index_type: Some("IVF_FLAT".to_string()),
            index_threshold_bytes: 1 << 20,
            flush_interval: Duration::from_secs(1),
            wal_path: None,
            build_params: milvus_index::BuildParams::default(),
            scheduler: SchedulerConfig::default(),
        }
    }
}

impl CollectionConfig {
    /// Config suited to small unit tests: tiny flush threshold, no timer.
    pub fn for_tests() -> Self {
        Self {
            lsm: LsmConfig {
                flush_threshold_bytes: 1 << 20,
                auto_merge: false,
                ..Default::default()
            },
            auto_index_type: None,
            index_threshold_bytes: usize::MAX,
            flush_interval: Duration::from_secs(3600),
            wal_path: None,
            build_params: milvus_index::BuildParams {
                nlist: 16,
                kmeans_iters: 5,
                ..Default::default()
            },
            scheduler: SchedulerConfig::default(),
        }
    }
}

/// Query-scheduler tuning: coalescing and the admission budget. Lives here
/// (not in `milvus-exec`) because the knobs are per-collection. How many
/// queries run side by side is not a knob: one run slot per core.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Master switch for cross-query coalescing. Off, every search runs as
    /// a batch of one (admission control still applies).
    pub coalescing: bool,
    /// The cap on one coalesced batch's size: how many queued queries a
    /// freed run slot takes on at once.
    pub max_batch: usize,
    /// Hard ceiling on concurrently admitted queries per collection.
    pub max_inflight: usize,
    /// Floor the adaptive budget never drops below, so a load spike can
    /// shed most — but never all — traffic.
    pub min_inflight: usize,
    /// Adapt the in-flight budget from flight-recorder signals (windowed
    /// p99, executor queue depth, degraded-search rate). Off, the budget is
    /// pinned at `max_inflight`.
    pub adaptive: bool,
    /// Windowed p99 latency above which the adaptive budget contracts —
    /// the collection's latency SLO, in microseconds.
    pub slo_p99_us: u64,
    /// Minimum interval between admission-signal refreshes; between
    /// refreshes the cached budget is reused so admission stays a pair of
    /// atomic ops per query.
    pub signal_refresh: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            coalescing: true,
            max_batch: 32,
            max_inflight: 1024,
            min_inflight: 4,
            adaptive: true,
            slo_p99_us: 250_000,
            signal_refresh: Duration::from_millis(20),
        }
    }
}

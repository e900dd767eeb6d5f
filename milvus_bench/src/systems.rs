//! The four systems the workloads drive, each set up through the public API
//! from the generated inputs, and the operations the load generators call.
//!
//! Every call into the repository goes through an [`OpScope`], so the traced
//! run gets a child span per layer call without a span inside any crate.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use milvus_core::{Collection, CollectionConfig, Milvus};
use milvus_distributed::Cluster;
use milvus_index::traits::SearchParams;
use milvus_index::{BuildParams, Metric, VectorSet};
use milvus_storage::object_store::{MemoryStore, ObjectStore};
use milvus_storage::{InsertBatch, LsmConfig, Schema};

use crate::gen::Dataset;
use crate::spans::OpScope;

/// Results per query.
pub const K: usize = 10;
/// IVF buckets probed per query.
pub const NPROBE: usize = 16;
/// Queries per batch call.
pub const BATCH: usize = 32;
pub const FIELD: &str = "v";
pub const ATTR: &str = "price";

/// Every write cycle deletes the rows inserted `DELETE_LAG` cycles earlier,
/// so that once `DELETE_LAG` cycles are done the live rows stay as many: a
/// search costs the same early in a run as late.
pub const DELETE_LAG: u64 = 4;

pub type OpResult<T> = Result<T, String>;

pub fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

pub fn search_params() -> SearchParams {
    SearchParams {
        k: K,
        nprobe: NPROBE,
        ..Default::default()
    }
}

/// How long set-up took.
#[derive(Debug, Clone, Copy)]
pub struct SetupReport {
    /// Wall time from an empty system to one ready to serve.
    pub total_s: f64,
    /// Time spent building indexes (0 where none is built).
    pub index_build_s: f64,
}

/// A system under test: what the load generators and the checks need of it.
pub trait System: Sync {
    /// One single-query search, request number `k`.
    fn search(&self, k: u64, scope: &mut OpScope<'_>) -> OpResult<Vec<i64>>;
    /// One batch of [`BATCH`] queries, request number `k`.
    fn search_batch(&self, k: u64, scope: &mut OpScope<'_>) -> OpResult<Vec<Vec<i64>>>;
    /// Insert extra rows `rows` (ids `n + rows`), then delete `delete`.
    fn write(
        &self,
        rows: std::ops::Range<usize>,
        delete: &[i64],
        scope: &mut OpScope<'_>,
    ) -> OpResult<()>;
    fn flush(&self, scope: &mut OpScope<'_>) -> OpResult<()>;
    /// Nearest neighbour of the stored vector of row `id`.
    fn nearest(&self, id: i64, scope: &mut OpScope<'_>) -> OpResult<Vec<i64>>;
    /// Rows a search can currently return.
    fn live_rows(&self) -> usize;
    /// Bytes the system holds for the data: memory, object store and log.
    fn stored_bytes(&self) -> usize;
    /// Attribute columns per row (for the bytes of user data).
    fn n_attrs(&self) -> usize;
}

// ---------------------------------------------------------------------------
// Collection-backed systems: ann_read, filtered_sweep, ingest_search
// ---------------------------------------------------------------------------

/// Which of the three single-node workloads a [`CollectionSystem`] serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Four flushed segments, IVF_FLAT on each, read-only.
    AnnRead,
    /// The same plus an attribute column; searches carry a range predicate.
    FilteredSweep,
    /// Write-ahead log on, automatic merge on, no index.
    IngestSearch,
}

pub struct CollectionSystem {
    shape: Shape,
    data: Arc<Dataset>,
    batches: Vec<VectorSet>,
    store: Arc<MemoryStore>,
    wal: Option<PathBuf>,
    col: Arc<Collection>,
    // Dropped after `col`: the instance owns nothing the collection needs,
    // but keeping it mirrors how a user holds the system.
    _milvus: Milvus,
}

/// The queries of batch request `k`, as one set per batch.
pub fn query_batches(data: &Dataset) -> Vec<VectorSet> {
    (0..data.queries.len() / BATCH)
        .map(|b| {
            let mut vs = VectorSet::with_capacity(data.dim, BATCH);
            for q in b * BATCH..(b + 1) * BATCH {
                vs.push(data.queries.get(q));
            }
            vs
        })
        .collect()
}

fn insert_batch(data: &Dataset, ids: Vec<i64>, with_attr: bool) -> InsertBatch {
    let mut vs = VectorSet::with_capacity(data.dim, ids.len());
    for &id in &ids {
        vs.push(data.vector_of(id));
    }
    let attributes = if with_attr {
        vec![ids.iter().map(|&id| data.attr_of(id)).collect()]
    } else {
        Vec::new()
    };
    InsertBatch {
        ids,
        vectors: vec![vs],
        attributes,
    }
}

impl CollectionSystem {
    /// Build the system from nothing. `scratch` is a directory of the run's
    /// own for the write-ahead log.
    pub fn setup(
        shape: Shape,
        data: &Arc<Dataset>,
        scratch: &std::path::Path,
        instance: usize,
    ) -> OpResult<(Self, SetupReport)> {
        let started = Instant::now();
        let with_attr = shape == Shape::FilteredSweep;
        let ingest = shape == Shape::IngestSearch;
        let mut schema = Schema::single(FIELD, data.dim, Metric::L2);
        if with_attr {
            schema = schema.with_attribute(ATTR);
        }
        let wal = ingest.then(|| scratch.join(format!("wal_{instance}.log")));
        let config = CollectionConfig {
            // Flushes are explicit: no size threshold, no timer.
            lsm: LsmConfig {
                flush_threshold_bytes: 1 << 40,
                auto_merge: ingest,
                ..Default::default()
            },
            auto_index_type: None,
            index_threshold_bytes: usize::MAX,
            flush_interval: Duration::from_secs(3600),
            wal_path: wal.clone(),
            build_params: BuildParams::default(),
            ..Default::default()
        };
        let store = Arc::new(MemoryStore::new());
        let milvus = Milvus::with_store(Arc::clone(&store) as Arc<dyn ObjectStore>);
        let col = milvus
            .create_collection("bench", schema, config)
            .map_err(err)?;

        // Four equal batches, each flushed: four segments (which the ingest
        // shape's merge policy then folds into one).
        let n = data.base.len();
        for part in 0..4 {
            let ids: Vec<i64> = (part * n / 4..(part + 1) * n / 4)
                .map(|i| i as i64)
                .collect();
            col.insert(insert_batch(data, ids, with_attr))
                .map_err(err)?;
            col.flush().map_err(err)?;
        }
        let mut index_build_s = 0.0;
        if !ingest {
            let t = Instant::now();
            col.build_index(FIELD, "IVF_FLAT").map_err(err)?;
            index_build_s = t.elapsed().as_secs_f64();
        }
        let report = SetupReport {
            total_s: started.elapsed().as_secs_f64(),
            index_build_s,
        };
        let sys = CollectionSystem {
            shape,
            data: Arc::clone(data),
            batches: query_batches(data),
            store,
            wal,
            col,
            _milvus: milvus,
        };
        Ok((sys, report))
    }

    pub fn collection(&self) -> &Arc<Collection> {
        &self.col
    }
}

fn ids_of(hits: Vec<milvus_core::SearchHit>) -> Vec<i64> {
    hits.into_iter().map(|h| h.id).collect()
}

impl System for CollectionSystem {
    fn search(&self, k: u64, scope: &mut OpScope<'_>) -> OpResult<Vec<i64>> {
        let slot = k as usize % self.data.queries.len();
        let q = self.data.queries.get(slot);
        let sp = search_params();
        if self.shape == Shape::FilteredSweep {
            let p = self.data.predicates[slot];
            scope
                .call("Collection::filtered_search", || {
                    self.col.filtered_search(FIELD, q, ATTR, p.lo, p.hi, &sp)
                })
                .map(ids_of)
                .map_err(err)
        } else {
            scope
                .call("Collection::search", || self.col.search(FIELD, q, &sp))
                .map(ids_of)
                .map_err(err)
        }
    }

    fn search_batch(&self, k: u64, scope: &mut OpScope<'_>) -> OpResult<Vec<Vec<i64>>> {
        let qs = &self.batches[k as usize % self.batches.len()];
        let sp = search_params();
        scope
            .call("Collection::search_batch", || {
                self.col.search_batch(FIELD, qs, &sp)
            })
            .map(|lists| lists.into_iter().map(ids_of).collect())
            .map_err(err)
    }

    fn write(
        &self,
        rows: std::ops::Range<usize>,
        delete: &[i64],
        scope: &mut OpScope<'_>,
    ) -> OpResult<()> {
        let n = self.data.base.len();
        let ids: Vec<i64> = rows.map(|r| (n + r) as i64).collect();
        let batch = insert_batch(&self.data, ids, self.shape == Shape::FilteredSweep);
        scope
            .call("Collection::insert", || self.col.insert(batch))
            .map_err(err)?;
        if !delete.is_empty() {
            scope
                .call("Collection::delete", || self.col.delete(delete.to_vec()))
                .map_err(err)?;
        }
        Ok(())
    }

    fn flush(&self, scope: &mut OpScope<'_>) -> OpResult<()> {
        scope
            .call("Collection::flush", || self.col.flush())
            .map_err(err)
    }

    fn nearest(&self, id: i64, scope: &mut OpScope<'_>) -> OpResult<Vec<i64>> {
        let sp = SearchParams {
            k: 1,
            nprobe: NPROBE,
            ..Default::default()
        };
        let q = self.data.vector_of(id);
        scope
            .call("Collection::search", || self.col.search(FIELD, q, &sp))
            .map(ids_of)
            .map_err(err)
    }

    fn live_rows(&self) -> usize {
        self.col.num_entities()
    }

    fn stored_bytes(&self) -> usize {
        let wal = self
            .wal
            .as_ref()
            .and_then(|p| std::fs::metadata(p).ok())
            .map_or(0, |m| m.len() as usize);
        self.col.stats().memory_bytes + self.store.total_bytes() + wal
    }

    fn n_attrs(&self) -> usize {
        usize::from(self.shape == Shape::FilteredSweep)
    }
}

// ---------------------------------------------------------------------------
// cluster_serve
// ---------------------------------------------------------------------------

pub const CLUSTER_SHARDS: usize = 4;
pub const CLUSTER_READERS: usize = 2;
/// Simulated round trip of the shared object store.
pub const STORE_LATENCY: Duration = Duration::from_millis(1);
const CLUSTER_LOAD_BATCH: usize = 2000;
const CLUSTER_FLUSH_EVERY: usize = 10;

pub struct ClusterSystem {
    data: Arc<Dataset>,
    store: Arc<MemoryStore>,
    cluster: Cluster,
}

impl ClusterSystem {
    pub fn setup(data: &Arc<Dataset>) -> OpResult<(Self, SetupReport)> {
        let started = Instant::now();
        let store = Arc::new(MemoryStore::with_latency(STORE_LATENCY));
        let config = LsmConfig {
            flush_threshold_bytes: 1 << 40,
            ..Default::default()
        };
        let cluster = Cluster::new(
            Schema::single(FIELD, data.dim, Metric::L2),
            CLUSTER_SHARDS,
            CLUSTER_READERS,
            Arc::clone(&store) as Arc<dyn ObjectStore>,
            config,
        )
        .map_err(err)?;
        let n = data.base.len();
        for (b, first) in (0..n).step_by(CLUSTER_LOAD_BATCH).enumerate() {
            let ids: Vec<i64> = (first..(first + CLUSTER_LOAD_BATCH).min(n))
                .map(|i| i as i64)
                .collect();
            let last = first + CLUSTER_LOAD_BATCH >= n;
            cluster
                .insert(insert_batch(data, ids, false))
                .map_err(err)?;
            if (b + 1) % CLUSTER_FLUSH_EVERY == 0 || last {
                cluster.flush().map_err(err)?;
            }
        }
        let report = SetupReport {
            total_s: started.elapsed().as_secs_f64(),
            index_build_s: 0.0,
        };
        Ok((
            ClusterSystem {
                data: Arc::clone(data),
                store,
                cluster,
            },
            report,
        ))
    }

    fn search_query(&self, q: &[f32], k: usize, scope: &mut OpScope<'_>) -> OpResult<Vec<i64>> {
        let sp = SearchParams {
            k,
            nprobe: NPROBE,
            ..Default::default()
        };
        let report = scope
            .call("Cluster::search", || {
                self.cluster.search_detailed(FIELD, q, &sp)
            })
            .map_err(err)?;
        // An answer that missed a shard is a degraded answer: it counts as
        // failed, never as a fast success.
        if !report.is_complete() {
            return Err(format!(
                "degraded coverage: shards {:?}",
                report.uncovered_shards
            ));
        }
        Ok(report.neighbors.into_iter().map(|n| n.id).collect())
    }
}

impl System for ClusterSystem {
    fn search(&self, k: u64, scope: &mut OpScope<'_>) -> OpResult<Vec<i64>> {
        let q = self.data.queries.get(k as usize % self.data.queries.len());
        self.search_query(q, K, scope)
    }

    /// The cluster has no batch entry point: a client with 32 queries sends
    /// them one after another.
    fn search_batch(&self, k: u64, scope: &mut OpScope<'_>) -> OpResult<Vec<Vec<i64>>> {
        let nq = self.data.queries.len();
        let first = (k as usize * BATCH) % nq;
        (first..first + BATCH)
            .map(|q| self.search_query(self.data.queries.get(q % nq), K, scope))
            .collect()
    }

    fn write(
        &self,
        rows: std::ops::Range<usize>,
        delete: &[i64],
        scope: &mut OpScope<'_>,
    ) -> OpResult<()> {
        let n = self.data.base.len();
        let ids: Vec<i64> = rows.map(|r| (n + r) as i64).collect();
        let batch = insert_batch(&self.data, ids, false);
        scope
            .call("Cluster::insert", || self.cluster.insert(batch))
            .map_err(err)?;
        if !delete.is_empty() {
            scope
                .call("Cluster::delete", || self.cluster.delete(delete))
                .map_err(err)?;
        }
        Ok(())
    }

    fn flush(&self, scope: &mut OpScope<'_>) -> OpResult<()> {
        scope
            .call("Cluster::flush", || self.cluster.flush())
            .map_err(err)
    }

    fn nearest(&self, id: i64, scope: &mut OpScope<'_>) -> OpResult<Vec<i64>> {
        self.search_query(self.data.vector_of(id), 1, scope)
    }

    fn live_rows(&self) -> usize {
        self.cluster.live_rows()
    }

    fn stored_bytes(&self) -> usize {
        let writer = self.cluster.writer();
        let written: usize = (0..writer.shards())
            .map(|s| {
                writer
                    .engine(s)
                    .snapshot()
                    .segments
                    .iter()
                    .map(|g| g.memory_bytes())
                    .sum::<usize>()
            })
            .sum();
        let cached: usize = self
            .cluster
            .readers()
            .iter()
            .map(|r| {
                r.segment_cache_stats()
                    .iter()
                    .map(|(_, s)| s.resident_bytes)
                    .sum::<usize>()
            })
            .sum();
        written + cached + self.store.total_bytes()
    }

    fn n_attrs(&self) -> usize {
        0
    }
}

// ---------------------------------------------------------------------------
// The write cycle shared by every workload
// ---------------------------------------------------------------------------

/// Which rows are deleted, as a function of how many write cycles have
/// completed. Cycle `c` inserts extra rows `[c·b, (c+1)·b)` and, from cycle
/// `DELETE_LAG` on, deletes the rows cycle `c - DELETE_LAG` inserted. Kept as
/// arithmetic so a reader thread
/// can ask "was this id deleted before my search began?" with one atomic
/// load.
pub struct WriteLedger {
    n_base: usize,
    batch: usize,
    /// Write cycles whose flush has returned.
    completed: AtomicU64,
}

impl WriteLedger {
    pub fn new(n_base: usize, batch: usize) -> Self {
        WriteLedger {
            n_base,
            batch,
            completed: AtomicU64::new(0),
        }
    }

    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::SeqCst)
    }

    /// Extra rows cycle `c` inserts.
    pub fn rows_of(&self, c: u64) -> std::ops::Range<usize> {
        c as usize * self.batch..(c as usize + 1) * self.batch
    }

    /// Ids cycle `c` deletes.
    pub fn deletes_of(&self, c: u64) -> Vec<i64> {
        if c < DELETE_LAG {
            return Vec::new();
        }
        self.rows_of(c - DELETE_LAG)
            .map(|r| (self.n_base + r) as i64)
            .collect()
    }

    /// Whether `id`'s delete had been flushed once `completed` cycles were
    /// done.
    pub fn deleted_after(&self, id: i64, completed: u64) -> bool {
        let Some(extra) = (id as usize).checked_sub(self.n_base) else {
            return false;
        };
        let inserted_in = (extra / self.batch) as u64;
        inserted_in + DELETE_LAG < completed
    }

    /// Whether `id` is live once `completed` cycles are done.
    pub fn live_after(&self, id: i64, completed: u64) -> bool {
        let i = id as usize;
        if i < self.n_base {
            return true;
        }
        let inserted_in = ((i - self.n_base) / self.batch) as u64;
        inserted_in < completed && !self.deleted_after(id, completed)
    }

    /// Rows live once `completed` cycles are done.
    pub fn live_count(&self, completed: u64) -> usize {
        self.n_base + completed.min(DELETE_LAG) as usize * self.batch
    }
}

/// What one write cycle took.
#[derive(Debug, Clone, Copy)]
pub struct CycleTimes {
    /// Insert call start to flush return: the time the writer was busy.
    pub busy_s: f64,
    /// Insert call start to the probe search returning the new row.
    pub visible_s: f64,
    pub ok: bool,
}

/// One write cycle: insert a batch, delete an earlier one, flush, then search
/// once for the batch's last row, which must be the answer.
pub fn write_cycle(sys: &dyn System, ledger: &WriteLedger, scope: &mut OpScope<'_>) -> CycleTimes {
    let c = ledger.completed();
    let rows = ledger.rows_of(c);
    let newest = (ledger.n_base + rows.end - 1) as i64;
    let start = Instant::now();
    let wrote = sys
        .write(rows, &ledger.deletes_of(c), scope)
        .and_then(|()| sys.flush(scope));
    let busy_s = start.elapsed().as_secs_f64();
    // Published before the probe: readers may now hold the deletes against
    // the system.
    ledger.completed.store(c + 1, Ordering::SeqCst);
    let seen = wrote.and_then(|()| sys.nearest(newest, scope));
    CycleTimes {
        busy_s,
        visible_s: start.elapsed().as_secs_f64(),
        ok: seen.is_ok_and(|ids| ids == [newest]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_deletes_in_each_cycle_the_batch_of_four_cycles_before() {
        let l = WriteLedger::new(1000, 10);
        assert_eq!(l.rows_of(3), 30..40);
        assert!(l.deletes_of(0).is_empty() && l.deletes_of(3).is_empty());
        assert_eq!(l.deletes_of(4), (1000..1010).collect::<Vec<i64>>());
        assert_eq!(l.deletes_of(9), (1050..1060).collect::<Vec<i64>>());

        // Batch 0 (ids 1000..1010) is deleted by cycle 4, i.e. once 5 are done.
        assert!(!l.deleted_after(1005, 4));
        assert!(l.deleted_after(1005, 5));
        assert!(!l.deleted_after(1015, 5) && l.deleted_after(1015, 6));
        assert!(!l.deleted_after(5, 50), "base rows are never deleted");

        assert!(l.live_after(5, 0));
        assert!(!l.live_after(1005, 0), "not inserted yet");
        assert!(l.live_after(1005, 1));
        assert!(!l.live_after(1005, 5));
        assert_eq!(l.live_count(0), 1000);
        assert_eq!(l.live_count(4), 1040);
        assert_eq!(l.live_count(5), 1040);
        assert_eq!(l.live_count(10), 1040);
        for done in 0..12 {
            let live = (0..1200).filter(|&id| l.live_after(id, done)).count();
            assert_eq!(live, l.live_count(done), "after {done} cycles");
        }
    }
}

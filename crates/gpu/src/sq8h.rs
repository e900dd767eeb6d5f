//! SQ8H: the hybrid CPU/GPU index (§3.4, Algorithm 1).
//!
//! ```text
//! if nq >= threshold:
//!     run all queries entirely in GPU (load multiple buckets on the fly)
//! else:
//!     step 1 of SQ8 in GPU: find nprobe buckets      (centroids resident)
//!     step 2 of SQ8 in CPU: scan every relevant bucket
//! ```
//!
//! Step 1 has a much higher computation-to-I/O ratio than step 2: all queries
//! compare against the same K centroids, which are small enough to stay
//! resident in GPU memory, while step 2's bucket accesses are scattered. The
//! hybrid split therefore avoids moving any data segment to the GPU at all.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use milvus_index::ivf::{IvfIndex, IvfVariant};
use milvus_index::traits::{BuildParams, SearchParams};
use milvus_index::{IndexError, Metric, Neighbor, RowMask, TopK, VectorIndex, VectorSet};

use crate::device::GpuDevice;
use crate::transfer::{CopyStrategy, TransferPlan};

/// Resident-set key reserved for the coarse centroids.
const CENTROID_KEY: u64 = u64::MAX;

/// Which execution path to use (Figure 13 compares all three).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// SQ8 entirely on the CPU.
    PureCpu,
    /// SQ8 entirely on the GPU, streaming buckets over PCIe as needed.
    PureGpu,
    /// Algorithm 1: choose per batch; hybrid split for small batches.
    Sq8h,
}

/// Timing breakdown of one batch execution.
#[derive(Debug, Clone, Copy)]
pub struct ExecReport {
    /// Real, measured host time.
    pub cpu_time: Duration,
    /// Simulated device time (kernels + PCIe transfers).
    pub gpu_time: Duration,
    /// Bytes moved over (simulated) PCIe for this batch.
    pub transferred_bytes: u64,
    /// The path actually taken (Sq8h resolves to one of the concrete paths).
    pub resolved: ExecMode,
}

impl ExecReport {
    /// End-to-end cost: host time plus simulated device time.
    pub fn total(&self) -> Duration {
        self.cpu_time + self.gpu_time
    }
}

/// The SQ8H index: an IVF_SQ8 structure plus a simulated GPU.
pub struct Sq8hIndex {
    ivf: IvfIndex,
    device: Arc<GpuDevice>,
    /// Batch size at or above which everything runs on the GPU (the paper's
    /// example threshold is 1000).
    pub batch_threshold: usize,
    /// Max bytes per coalesced DMA for multi-bucket copies.
    pub chunk_bytes: usize,
}

impl Sq8hIndex {
    /// Build the underlying IVF_SQ8 index and attach `device`.
    pub fn build(
        vectors: &VectorSet,
        ids: &[i64],
        params: &BuildParams,
        device: Arc<GpuDevice>,
    ) -> Result<Self, IndexError> {
        if params.metric == Metric::Cosine || params.metric.is_binary() {
            return Err(IndexError::UnsupportedMetric {
                metric: params.metric.name(),
                index: "SQ8H",
            });
        }
        let ivf = IvfIndex::build(IvfVariant::Sq8, vectors, ids, params)?;
        Ok(Self { ivf, device, batch_threshold: 1000, chunk_bytes: 8 << 20 })
    }

    /// The underlying IVF index.
    pub fn ivf(&self) -> &IvfIndex {
        &self.ivf
    }

    /// Indexed vector count.
    pub fn len(&self) -> usize {
        self.ivf.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Execute a batch under Algorithm 1 (auto mode).
    pub fn search_batch(
        &self,
        queries: &VectorSet,
        params: &SearchParams,
    ) -> (Vec<Vec<Neighbor>>, ExecReport) {
        self.search_batch_mode(queries, params, ExecMode::Sq8h)
    }

    /// Execute a batch under an explicit mode (benchmarks pin the path).
    pub fn search_batch_mode(
        &self,
        queries: &VectorSet,
        params: &SearchParams,
        mode: ExecMode,
    ) -> (Vec<Vec<Neighbor>>, ExecReport) {
        match mode {
            ExecMode::PureCpu => self.run_cpu(queries, params),
            // Explicit pure-GPU mode models the *Faiss* GPU behaviour the
            // paper compares against: bucket-by-bucket PCIe copies (§3.4).
            ExecMode::PureGpu => self.run_gpu(queries, params, CopyStrategy::BucketByBucket),
            ExecMode::Sq8h => {
                if queries.len() >= self.batch_threshold {
                    // Line 2-3 of Algorithm 1 — all-GPU, but with Milvus's
                    // multi-bucket copying improvement.
                    let (r, mut rep) = self.run_gpu(
                        queries,
                        params,
                        CopyStrategy::MultiBucket { chunk_bytes: self.chunk_bytes },
                    );
                    rep.resolved = ExecMode::PureGpu;
                    (r, rep)
                } else {
                    // Line 5-6: step 1 on GPU, step 2 on CPU.
                    self.run_hybrid(queries, params)
                }
            }
        }
    }

    /// Pure CPU: both steps on the host, measured.
    fn run_cpu(&self, queries: &VectorSet, params: &SearchParams) -> (Vec<Vec<Neighbor>>, ExecReport) {
        let start = Instant::now();
        let mut out = Vec::with_capacity(queries.len());
        for q in queries.iter() {
            let probes = self.ivf.probe_buckets(q, params.nprobe);
            // Fused-scan state built once per query, reused by every bucket.
            let prepared = self.ivf.prepare(q);
            let mut heap = TopK::new(params.k.max(1));
            for b in probes {
                self.ivf.scan_bucket_prepared(b, &prepared, &mut heap, None);
            }
            out.push(heap.into_sorted());
        }
        let report = ExecReport {
            cpu_time: start.elapsed(),
            gpu_time: Duration::ZERO,
            transferred_bytes: 0,
            resolved: ExecMode::PureCpu,
        };
        (out, report)
    }

    /// Step 1 on the GPU: centroids stay resident; one kernel compares every
    /// query against all centroids. Returns probe lists + simulated time.
    fn gpu_step1(&self, queries: &VectorSet, nprobe: usize) -> (Vec<Vec<usize>>, Duration) {
        let centroids = self.ivf.centroids();
        let centroid_bytes = centroids.memory_bytes();
        let mut gpu_time = self.device.ensure_resident(CENTROID_KEY, centroid_bytes, 1);
        let ops = (queries.len() as u64) * (centroids.len() as u64) * (centroids.dim() as u64);
        gpu_time += self.device.run_kernel(ops);
        let probes = queries.iter().map(|q| self.ivf.probe_buckets(q, nprobe)).collect();
        (probes, gpu_time)
    }

    /// All-GPU execution: step 1 on device, then stream every relevant
    /// bucket to the device under `copy` and scan there.
    fn run_gpu(
        &self,
        queries: &VectorSet,
        params: &SearchParams,
        copy: CopyStrategy,
    ) -> (Vec<Vec<Neighbor>>, ExecReport) {
        let before_bytes = self.device.stats().transferred_bytes;
        let (probes, mut gpu_time) = self.gpu_step1(queries, params.nprobe);

        // Union of buckets needed by this batch.
        let needed: BTreeSet<usize> = probes.iter().flatten().copied().collect();
        let missing: Vec<usize> =
            needed.iter().copied().filter(|&b| !self.device.is_resident(b as u64)).collect();
        if !missing.is_empty() {
            let sizes: Vec<usize> = missing.iter().map(|&b| self.ivf.bucket_bytes(b)).collect();
            let plan = TransferPlan::plan(&sizes, copy);
            // Pay for the coalesced copy once, then register residency.
            gpu_time += self.device.transfer(plan.total_bytes, plan.chunks);
            for (&b, &sz) in missing.iter().zip(&sizes) {
                self.device.register_resident(b as u64, sz);
            }
        }

        // Scan kernel: each query scans its probed buckets.
        let dim = self.ivf.centroids().dim() as u64;
        let mut scan_ops = 0u64;
        for plist in &probes {
            for &b in plist {
                scan_ops += self.ivf.bucket_len(b) as u64 * dim;
            }
        }
        gpu_time += self.device.run_kernel(scan_ops);

        // Exact results via host computation (cost already charged to GPU).
        let mut out = Vec::with_capacity(queries.len());
        for (qi, q) in queries.iter().enumerate() {
            let prepared = self.ivf.prepare(q);
            let mut heap = TopK::new(params.k.max(1));
            for &b in &probes[qi] {
                self.ivf.scan_bucket_prepared(b, &prepared, &mut heap, None);
            }
            out.push(heap.into_sorted());
        }
        let report = ExecReport {
            cpu_time: Duration::ZERO,
            gpu_time,
            transferred_bytes: self.device.stats().transferred_bytes - before_bytes,
            resolved: ExecMode::PureGpu,
        };
        (out, report)
    }

    /// Hybrid: step 1 on GPU (no segment data ever moves to the device),
    /// step 2 on CPU, measured.
    fn run_hybrid(&self, queries: &VectorSet, params: &SearchParams) -> (Vec<Vec<Neighbor>>, ExecReport) {
        let before_bytes = self.device.stats().transferred_bytes;
        let (probes, gpu_time) = self.gpu_step1(queries, params.nprobe);
        let start = Instant::now();
        let mut out = Vec::with_capacity(queries.len());
        for (qi, q) in queries.iter().enumerate() {
            let prepared = self.ivf.prepare(q);
            let mut heap = TopK::new(params.k.max(1));
            for &b in &probes[qi] {
                self.ivf.scan_bucket_prepared(b, &prepared, &mut heap, None);
            }
            out.push(heap.into_sorted());
        }
        let report = ExecReport {
            cpu_time: start.elapsed(),
            gpu_time,
            transferred_bytes: self.device.stats().transferred_bytes - before_bytes,
            resolved: ExecMode::Sq8h,
        };
        (out, report)
    }
}

impl VectorIndex for Sq8hIndex {
    fn name(&self) -> &'static str {
        "SQ8H"
    }

    fn metric(&self) -> Metric {
        self.ivf.metric()
    }

    fn len(&self) -> usize {
        self.ivf.len()
    }

    /// Single-query search through Algorithm 1 (resolves to the hybrid path
    /// for a batch of one).
    fn search(
        &self,
        query: &[f32],
        params: &SearchParams,
    ) -> Result<Vec<Neighbor>, IndexError> {
        let q = VectorSet::from_flat(query.len(), query.to_vec());
        let (mut results, _) = self.search_batch(&q, params);
        Ok(results.pop().unwrap_or_default())
    }

    fn search_masked(
        &self,
        query: &[f32],
        params: &SearchParams,
        mask: &RowMask,
    ) -> Result<Vec<Neighbor>, IndexError> {
        mask.check_covers(self.len())?;
        // Masked search runs the CPU scan path with the bitmap; the GPU
        // step-1 probe is unaffected by filtering.
        let (probes, _) = self.gpu_step1(
            &VectorSet::from_flat(query.len(), query.to_vec()),
            params.nprobe,
        );
        let prepared = self.ivf.prepare(query);
        let mut heap = TopK::new(params.k.max(1));
        for &b in &probes[0] {
            self.ivf.scan_bucket_prepared(b, &prepared, &mut heap, Some(mask));
        }
        Ok(heap.into_sorted())
    }

    fn memory_bytes(&self) -> usize {
        self.ivf.memory_bytes()
    }
}

/// Registry builder that binds a simulated device, so `"SQ8H"` can be used
/// anywhere an index type name is accepted (e.g.
/// `collection.build_index("v", "SQ8H")`).
pub struct Sq8hBuilder {
    /// The device every built index will run on.
    pub device: Arc<GpuDevice>,
}

impl milvus_index::traits::IndexBuilder for Sq8hBuilder {
    fn name(&self) -> &'static str {
        "SQ8H"
    }

    fn build(
        &self,
        vectors: &VectorSet,
        ids: &[i64],
        params: &BuildParams,
    ) -> Result<Box<dyn VectorIndex>, IndexError> {
        Ok(Box::new(Sq8hIndex::build(vectors, ids, params, Arc::clone(&self.device))?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::GpuSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build_index(n: usize, mem: usize) -> Sq8hIndex {
        let mut rng = StdRng::seed_from_u64(11);
        let mut vs = VectorSet::new(8);
        for i in 0..n {
            let c = (i % 10) as f32 * 5.0;
            let v: Vec<f32> = (0..8).map(|_| c + rng.gen_range(-0.5f32..0.5)).collect();
            vs.push(&v);
        }
        let ids: Vec<i64> = (0..n as i64).collect();
        let params = BuildParams { nlist: 16, kmeans_iters: 5, ..Default::default() };
        let spec = GpuSpec { global_memory_bytes: mem, ..Default::default() };
        let device = Arc::new(GpuDevice::new(0, spec));
        Sq8hIndex::build(&vs, &ids, &params, device).unwrap()
    }

    fn queries(m: usize) -> VectorSet {
        let mut rng = StdRng::seed_from_u64(29);
        let mut vs = VectorSet::new(8);
        for i in 0..m {
            let c = (i % 10) as f32 * 5.0;
            let v: Vec<f32> = (0..8).map(|_| c + rng.gen_range(-0.5f32..0.5)).collect();
            vs.push(&v);
        }
        vs
    }

    #[test]
    fn all_modes_return_identical_results() {
        let idx = build_index(500, 64 << 20);
        let q = queries(10);
        let sp = SearchParams { k: 5, nprobe: 4, ..Default::default() };
        let (cpu, _) = idx.search_batch_mode(&q, &sp, ExecMode::PureCpu);
        let (gpu, _) = idx.search_batch_mode(&q, &sp, ExecMode::PureGpu);
        let (hyb, _) = idx.search_batch_mode(&q, &sp, ExecMode::Sq8h);
        assert_eq!(cpu, gpu);
        assert_eq!(cpu, hyb);
    }

    #[test]
    fn algorithm1_picks_gpu_for_large_batches() {
        let mut idx = build_index(300, 64 << 20);
        idx.batch_threshold = 8;
        let sp = SearchParams { k: 3, nprobe: 2, ..Default::default() };
        let (_, small) = idx.search_batch(&queries(4), &sp);
        assert_eq!(small.resolved, ExecMode::Sq8h);
        let (_, large) = idx.search_batch(&queries(16), &sp);
        assert_eq!(large.resolved, ExecMode::PureGpu);
    }

    #[test]
    fn hybrid_never_transfers_buckets() {
        let idx = build_index(400, 64 << 20);
        let sp = SearchParams { k: 3, nprobe: 4, ..Default::default() };
        let (_, rep) = idx.search_batch_mode(&queries(5), &sp, ExecMode::Sq8h);
        // Only the centroids move: nlist(≤20) × dim 8 × 4 bytes.
        assert!(rep.transferred_bytes <= 20 * 8 * 4 + 64);
        let (_, rep2) = idx.search_batch_mode(&queries(5), &sp, ExecMode::Sq8h);
        // Second batch: centroids already resident → zero transfer.
        assert_eq!(rep2.transferred_bytes, 0);
    }

    #[test]
    fn pure_gpu_streams_buckets_when_memory_insufficient() {
        // Device memory far below dataset size forces streaming each batch.
        let idx = build_index(2000, 2048);
        let sp = SearchParams { k: 3, nprobe: 8, ..Default::default() };
        let (_, r1) = idx.search_batch_mode(&queries(5), &sp, ExecMode::PureGpu);
        assert!(r1.transferred_bytes > 0);
        let (_, r2) = idx.search_batch_mode(&queries(5), &sp, ExecMode::PureGpu);
        // Evictions under pressure mean buckets move again.
        assert!(r2.transferred_bytes > 0);
    }

    #[test]
    fn cosine_rejected() {
        let vs = VectorSet::from_flat(4, vec![0.0; 16]);
        let params = BuildParams { metric: Metric::Cosine, ..Default::default() };
        let device = Arc::new(GpuDevice::new(0, GpuSpec::default()));
        assert!(Sq8hIndex::build(&vs, &[0, 1, 2, 3], &params, device).is_err());
    }

    #[test]
    fn registers_as_index_type() {
        use milvus_index::registry::IndexRegistry;
        let registry = IndexRegistry::with_builtins();
        let device = Arc::new(GpuDevice::new(0, GpuSpec::default()));
        registry.register(Arc::new(Sq8hBuilder { device }));
        assert!(registry.contains("SQ8H"));

        let idx = build_index(300, 64 << 20);
        let q = queries(1);
        let single = idx.search(q.get(0), &SearchParams { k: 5, nprobe: 4, ..Default::default() });
        assert_eq!(single.unwrap().len(), 5);
    }

    #[test]
    fn filtered_search_respects_predicate() {
        let idx = build_index(400, 64 << 20);
        let q = queries(1);
        let sp = SearchParams { k: 10, nprobe: 8, ..Default::default() };
        let evens: Vec<u32> = (0..400).filter(|r| r % 2 == 0).collect();
        let res = idx.search_masked(q.get(0), &sp, &RowMask::from_positions(400, &evens)).unwrap();
        assert!(!res.is_empty());
        assert!(res.iter().all(|n| n.id % 2 == 0));
    }

    #[test]
    fn report_totals() {
        let idx = build_index(200, 64 << 20);
        let sp = SearchParams { k: 2, nprobe: 2, ..Default::default() };
        let (_, rep) = idx.search_batch_mode(&queries(3), &sp, ExecMode::Sq8h);
        assert_eq!(rep.total(), rep.cpu_time + rep.gpu_time);
        assert!(rep.gpu_time > Duration::ZERO);
    }
}

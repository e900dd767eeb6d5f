//! Integration suite for the fused quantized-scan kernels (PR 8): the
//! prepared-query bucket scans must be bit-identical to the scalar fused
//! reference at every SIMD level the machine supports, PQ early-abandon must
//! return exactly the unpruned results, and the fused paths must keep the
//! recall the seed's decode-then-distance scans had.

use milvus_index::distance::quant::{sq8_kernels_at, PreparedSq8};
use milvus_index::ivf::{IvfIndex, IvfVariant};
use milvus_index::{BuildParams, Metric, RowMask, SearchParams, SimdLevel, TopK, VectorIndex};

fn build(variant: IvfVariant, metric: Metric, n: usize, dim: usize) -> IvfIndex {
    let data = milvus_datagen::clustered(n, dim, 8, -1.0, 1.0, 0.15, 42);
    let ids: Vec<i64> = (0..n as i64).collect();
    let params = BuildParams { metric, nlist: 16, kmeans_iters: 6, pq_m: 8, ..Default::default() };
    IvfIndex::build(variant, &data, &ids, &params).unwrap()
}

/// Every supported SIMD level's fused SQ8 kernels agree bit-for-bit with the
/// scalar reference over real quantizer parameters and real encoded codes.
#[test]
fn fused_sq8_kernels_bit_identical_across_levels_on_real_codes() {
    let dim = 48;
    let index = build(IvfVariant::Sq8, Metric::L2, 400, dim);
    let (vmin, vstep) = index.sq_params().expect("sq8 index");
    let queries = milvus_datagen::clustered(4, dim, 8, -1.0, 1.0, 0.15, 7);
    // Find a non-empty bucket to pull genuine codes from.
    let bucket = (0..index.nlist()).find(|&b| index.bucket_len(b) >= 5).unwrap();
    let codes = index.bucket_codes(bucket).unwrap();
    for q in queries.iter() {
        let w: Vec<f32> = q.iter().zip(vstep).map(|(a, b)| a * b).collect();
        let r: Vec<f32> = q.iter().zip(vmin).map(|(a, b)| a - b).collect();
        for code in codes.chunks_exact(dim).take(5) {
            let scalar_k = sq8_kernels_at(SimdLevel::Scalar);
            let ref_dot = (scalar_k.dot)(&w, code);
            let ref_l2 = (scalar_k.l2)(&r, vstep, code);
            for level in SimdLevel::ALL {
                if !level.supported() {
                    continue;
                }
                let k = sq8_kernels_at(level);
                assert_eq!((k.dot)(&w, code).to_bits(), ref_dot.to_bits(), "dot at {level}");
                assert_eq!((k.l2)(&r, vstep, code).to_bits(), ref_l2.to_bits(), "l2 at {level}");
            }
        }
    }
}

/// A full prepared-query bucket scan produces exactly the distances the
/// single-row fused reference computes — tiling and loop-splitting change
/// nothing observable.
#[test]
fn prepared_scan_matches_per_row_fused_reference() {
    for (variant, metric) in [
        (IvfVariant::Sq8, Metric::L2),
        (IvfVariant::Sq8, Metric::InnerProduct),
        (IvfVariant::Flat, Metric::L2),
        (IvfVariant::Pq, Metric::L2),
    ] {
        let dim = 32;
        let index = build(variant, metric, 300, dim);
        let q: Vec<f32> = (0..dim).map(|d| (d as f32 * 0.11).sin()).collect();
        let prepared = index.prepare(&q);
        for b in 0..index.nlist() {
            // Oversized heap: no candidate is ever rejected, so the pruned
            // PQ path cannot abandon anything and every distance must land.
            let cap = index.bucket_len(b).max(1);
            let mut heap = TopK::new(cap);
            index.scan_bucket_prepared(b, &prepared, &mut heap, None);
            let got = heap.into_sorted();

            let mut reference = TopK::new(cap);
            index.scan_bucket(b, &q, &mut reference, None);
            let want = reference.into_sorted();
            assert_eq!(got.len(), want.len(), "{variant:?} bucket {b}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.id, w.id, "{variant:?} bucket {b}");
                assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "{variant:?} bucket {b}");
            }
        }
    }
}

/// Early-abandon equivalence: a pruned IVF_PQ search returns identical
/// ids and bit-identical distances to a manual unpruned full-lookup scan of
/// the same probed buckets.
#[test]
fn pq_early_abandon_returns_identical_results_to_unpruned() {
    let dim = 32;
    let index = build(IvfVariant::Pq, Metric::L2, 500, dim);
    let pq = index.pq_ref().unwrap();
    let queries = milvus_datagen::clustered(8, dim, 8, -1.0, 1.0, 0.15, 9);
    let params = SearchParams { k: 10, nprobe: 8, ..Default::default() };
    for q in queries.iter() {
        // Production path (prunes against TopK::threshold internally).
        let got = index.search(q, &params).unwrap();

        // Unpruned reference over the same probes with plain full lookups.
        let table = pq.distance_table(q, Metric::L2);
        let mut heap = TopK::new(params.k);
        for b in index.probe_buckets(q, params.nprobe) {
            let codes = index.bucket_codes(b).unwrap();
            for (row, code) in codes.chunks_exact(pq.m()).enumerate() {
                heap.push(index.bucket_ids(b)[row], table.lookup(code));
            }
        }
        let want = heap.into_sorted();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.id, w.id, "pruned search changed the id set");
            assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "pruned search changed a distance");
        }
    }
}

/// Masked scans agree with unmasked scans restricted to the allowed set (the
/// gathered tiles cannot drop or duplicate candidates).
#[test]
fn filtered_scan_equals_postfiltered_unfiltered_scan() {
    for variant in [IvfVariant::Flat, IvfVariant::Sq8, IvfVariant::Pq] {
        let index = build(variant, Metric::L2, 300, 32);
        let q: Vec<f32> = (0..32).map(|d| (d as f32 * 0.21).cos()).collect();
        let prepared = index.prepare(&q);
        // ids are the build ordinals here.
        let thirds: Vec<u32> = (0..300).filter(|r| r % 3 == 0).collect();
        let thirds = RowMask::from_positions(300, &thirds);
        for b in 0..index.nlist() {
            let cap = index.bucket_len(b).max(1);
            let mut filtered = TopK::new(cap);
            index.scan_bucket_prepared(b, &prepared, &mut filtered, Some(&thirds));
            let mut unfiltered = TopK::new(cap);
            index.scan_bucket_prepared(b, &prepared, &mut unfiltered, None);
            let want: Vec<_> =
                unfiltered.into_sorted().into_iter().filter(|n| n.id % 3 == 0).collect();
            let got = filtered.into_sorted();
            assert_eq!(got.len(), want.len(), "{variant:?} bucket {b}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.id, g.dist.to_bits()), (w.id, w.dist.to_bits()), "{variant:?}");
            }
        }
    }
}

/// The fused SQ8 index search stays close to exact flat search — the fused
/// algebra must not cost recall relative to the recall floors the seed had.
#[test]
fn fused_sq8_search_recall_sanity() {
    let n = 2000;
    let dim = 32;
    let data = milvus_datagen::clustered(n, dim, 10, -1.0, 1.0, 0.12, 21);
    let ids: Vec<i64> = (0..n as i64).collect();
    let queries = milvus_datagen::queries_from(&data, 20, 0.02, 22);
    let params = BuildParams { metric: Metric::L2, nlist: 32, kmeans_iters: 8, ..Default::default() };
    let sq8 = IvfIndex::build(IvfVariant::Sq8, &data, &ids, &params).unwrap();
    let truth = milvus_datagen::ground_truth(&data, &ids, &queries, Metric::L2, 10);
    let sp = SearchParams { k: 10, nprobe: 16, ..Default::default() };
    let results: Vec<Vec<i64>> = queries
        .iter()
        .map(|q| sq8.search(q, &sp).unwrap().into_iter().map(|nb| nb.id).collect())
        .collect();
    let recall = milvus_datagen::recall_ids(&truth, &results);
    assert!(recall >= 0.75, "fused SQ8 recall {recall} fell below the seed floor");
}

/// SQ8H consistency: the GPU-simulated index's CPU scans go through the same
/// prepared path; hybrid/CPU/GPU modes must all return the exact same lists.
#[test]
fn sq8h_modes_agree_after_prepared_scan_rewire() {
    use milvus_gpu::{ExecMode, GpuDevice, GpuSpec, Sq8hIndex};
    use std::sync::Arc;
    let dim = 32;
    let n = 600;
    let data = milvus_datagen::clustered(n, dim, 8, -1.0, 1.0, 0.15, 61);
    let ids: Vec<i64> = (0..n as i64).collect();
    let device = Arc::new(GpuDevice::new(0, GpuSpec::default()));
    let params = BuildParams { metric: Metric::L2, nlist: 16, kmeans_iters: 6, ..Default::default() };
    let index = Sq8hIndex::build(&data, &ids, &params, device).unwrap();
    let queries = milvus_datagen::queries_from(&data, 6, 0.05, 62);
    let sp = SearchParams { k: 10, nprobe: 8, ..Default::default() };
    let (cpu, _) = index.search_batch_mode(&queries, &sp, ExecMode::PureCpu);
    let (gpu, _) = index.search_batch_mode(&queries, &sp, ExecMode::PureGpu);
    let (hybrid, _) = index.search_batch_mode(&queries, &sp, ExecMode::Sq8h);
    assert_eq!(cpu, gpu, "CPU and GPU modes diverged");
    assert_eq!(cpu, hybrid, "CPU and hybrid modes diverged");
    // Masked search flows through the prepared path too.
    let evens: Vec<u32> = (0..n as u32).filter(|r| r % 2 == 0).collect();
    let evens = RowMask::from_positions(n, &evens);
    let filtered = index.search_masked(queries.get(0), &sp, &evens).unwrap();
    assert!(filtered.iter().all(|nb| nb.id % 2 == 0));
    assert!(!filtered.is_empty());
}

/// A PreparedSq8 built directly from quantizer params behaves identically to
/// one built through the index (API-surface pin for the bench bin).
#[test]
fn prepared_sq8_direct_construction_matches_index_path() {
    let dim = 40;
    let index = build(IvfVariant::Sq8, Metric::InnerProduct, 300, dim);
    let (vmin, vstep) = index.sq_params().unwrap();
    let q: Vec<f32> = (0..dim).map(|d| (d as f32 * 0.31).sin()).collect();
    let direct = PreparedSq8::prepare(vmin, vstep, &q, Metric::InnerProduct);
    let bucket = (0..index.nlist()).find(|&b| index.bucket_len(b) >= 1).unwrap();
    let codes = index.bucket_codes(bucket).unwrap();
    let code = &codes[..dim];
    let mut heap = TopK::new(1);
    let first = RowMask::from_positions(300, &index.bucket_rows(bucket)[..1]);
    index.scan_bucket(bucket, &q, &mut heap, Some(&first));
    let via_index = heap.into_sorted()[0].dist;
    assert_eq!(direct.distance(code).to_bits(), via_index.to_bits());
}

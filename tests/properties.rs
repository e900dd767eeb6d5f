//! Property-based tests on the core data structures and invariants the
//! system depends on.
//!
//! Each property runs many randomized cases driven by a seeded [`StdRng`], so
//! failures are reproducible: the panic message names the failing case's seed
//! and the case can be replayed by seeding the RNG with it directly.

use std::collections::HashSet;

use milvus_index::binary::{pack_bits, unpack_bits};
use milvus_index::topk::{Neighbor, TopK};
use milvus_index::{distance, Metric, SimdLevel, VectorIndex, VectorSet};
use milvus_storage::attribute::AttributeColumn;
use milvus_storage::codec::{decode_segment, encode_segment};
use milvus_storage::entity::{InsertBatch, Schema};
use milvus_storage::merge::{MergePolicy, SegmentMeta};
use milvus_storage::segment::Segment;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Run `f` once per case with a per-case RNG derived from a fixed base seed.
fn cases(n: u64, mut f: impl FnMut(&mut StdRng)) {
    for case in 0..n {
        let seed = 0xC0FFEE ^ case;
        let mut rng = StdRng::seed_from_u64(seed);
        // Let the property panic with enough context to replay this case.
        eprintln_on_panic(seed, || f(&mut rng));
    }
}

fn eprintln_on_panic(seed: u64, f: impl FnOnce()) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    if let Err(payload) = result {
        eprintln!("property failed for case seed {seed:#x}");
        std::panic::resume_unwind(payload);
    }
}

/// TopK must agree with sorting the whole input and truncating to k.
#[test]
fn topk_equals_sort_and_truncate() {
    cases(64, |rng| {
        let n = rng.gen_range(1..200);
        let k = rng.gen_range(1..20usize);
        let entries: Vec<(i64, f32)> = (0..n)
            .map(|_| (rng.gen_range(0i64..1000), rng.gen_range(-1e6f32..1e6)))
            .collect();

        let mut heap = TopK::new(k);
        for &(id, d) in &entries {
            heap.push(id, d);
        }
        let got = heap.into_sorted();

        let mut expect: Vec<Neighbor> =
            entries.iter().map(|&(id, d)| Neighbor::new(id, d)).collect();
        expect.sort_unstable();
        expect.truncate(k);
        assert_eq!(got, expect);
    });
}

/// All supported SIMD levels agree with the scalar kernel within 1e-4
/// relative error, across dimensions that exercise full lanes, remainders
/// and the sub-lane case.
#[test]
fn simd_levels_match_scalar_across_dims() {
    const DIMS: &[usize] = &[1, 7, 8, 64, 100, 128];
    cases(32, |rng| {
        for &dim in DIMS {
            let a: Vec<f32> = (0..dim).map(|_| rng.gen_range(-100.0f32..100.0)).collect();
            let b: Vec<f32> = (0..dim).map(|_| rng.gen_range(-100.0f32..100.0)).collect();
            let ref_l2 = distance::l2_sq_with_level(&a, &b, SimdLevel::Scalar);
            let ref_ip = distance::ip_with_level(&a, &b, SimdLevel::Scalar);
            for level in SimdLevel::ALL {
                if !level.supported() {
                    continue;
                }
                let l2 = distance::l2_sq_with_level(&a, &b, level);
                let ip = distance::ip_with_level(&a, &b, level);
                let tol = 1e-4 * (1.0 + ref_l2.abs());
                assert!(
                    (l2 - ref_l2).abs() <= tol,
                    "dim {dim} level {level}: l2 {l2} vs scalar {ref_l2}"
                );
                let tol = 1e-4 * (1.0 + ref_ip.abs());
                assert!(
                    (ip - ref_ip).abs() <= tol,
                    "dim {dim} level {level}: ip {ip} vs scalar {ref_ip}"
                );
            }
        }
    });
}

/// Triangle-ish sanity: L2²(a,a)=0, symmetry, non-negativity.
#[test]
fn l2_metric_axioms() {
    cases(64, |rng| {
        let dim = rng.gen_range(1..64);
        let a: Vec<f32> = (0..dim).map(|_| rng.gen_range(-50.0f32..50.0)).collect();
        let b: Vec<f32> = a.iter().rev().copied().collect();
        assert!(distance::l2_sq(&a, &a) <= 1e-3);
        assert!(distance::l2_sq(&a, &b) >= 0.0);
        let ab = distance::l2_sq(&a, &b);
        let ba = distance::l2_sq(&b, &a);
        assert!((ab - ba).abs() <= 1e-3 * (1.0 + ab.abs()));
    });
}

/// Bit packing roundtrips for arbitrary bit patterns.
#[test]
fn bits_roundtrip() {
    cases(64, |rng| {
        let n = rng.gen_range(0..300);
        let bits: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let packed = pack_bits(&bits);
        assert_eq!(unpack_bits(&packed, bits.len()), bits);
    });
}

/// Attribute range queries agree with a naive filter for arbitrary data.
#[test]
fn attribute_range_equals_naive() {
    cases(64, |rng| {
        let n = rng.gen_range(0..300);
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(-1000.0f64..1000.0)).collect();
        let lo = rng.gen_range(-1200.0f64..1200.0);
        let hi = lo + rng.gen_range(0.0f64..500.0);
        let col = AttributeColumn::build("p", values.clone());
        let mut got = col.range_rows(lo, hi).to_vec();
        got.sort_unstable();
        let expect: Vec<u32> = values
            .iter()
            .enumerate()
            .filter(|(_, &v)| v >= lo && v <= hi)
            .map(|(i, _)| i as u32)
            .collect();
        let expect_len = expect.len();
        assert_eq!(got, expect);
        assert_eq!(col.range_mask(lo, hi).iter().map(|r| r as u32).collect::<Vec<_>>(), expect);
        assert_eq!(col.count_range(lo, hi), expect_len);
    });
}

/// Segment codec roundtrips arbitrary segments (ids, vectors, attributes,
/// tombstones).
#[test]
fn segment_codec_roundtrip() {
    cases(64, |rng| {
        let n = rng.gen_range(1..40usize);
        let dim = rng.gen_range(1..8usize);
        let dels: Vec<i64> =
            (0..rng.gen_range(0..10)).map(|_| rng.gen_range(0i64..40)).collect();
        let schema = Schema::single("v", dim, Metric::L2).with_attribute("a");
        let ids: Vec<i64> = (0..n as i64).collect();
        let flat: Vec<f32> = (0..n * dim).map(|i| (i as f32 * 0.37).sin() * 100.0).collect();
        let batch = InsertBatch {
            ids: ids.clone(),
            vectors: vec![VectorSet::from_flat(dim, flat)],
            attributes: vec![(0..n).map(|i| i as f64 * 1.5).collect()],
        };
        let seg = Segment::from_batch(9, &schema, &batch).unwrap().with_deletes(dels);
        let decoded = decode_segment(seg.id, seg.version, &encode_segment(&seg)).unwrap();
        assert_eq!(&decoded.data().row_ids, &seg.data().row_ids);
        assert!(decoded.data().vectors[0].iter().eq(seg.data().vectors[0].iter()));
        assert_eq!(decoded.deleted(), seg.deleted());
    });
}

/// Merge plans never contain duplicates, never exceed the size cap, and only
/// reference existing segments.
#[test]
fn merge_plans_are_well_formed() {
    cases(64, |rng| {
        let n = rng.gen_range(0..30);
        let sizes: Vec<usize> = (0..n).map(|_| rng.gen_range(1..2_000_000)).collect();
        let metas: Vec<SegmentMeta> = sizes
            .iter()
            .enumerate()
            .map(|(i, &bytes)| SegmentMeta { id: i as u64, bytes })
            .collect();
        let policy = MergePolicy {
            tier_factor: 10.0,
            min_segments_per_merge: 2,
            max_segment_bytes: 1_000_000,
        };
        let plans = policy.plan(&metas);
        let mut seen = HashSet::new();
        for plan in &plans {
            assert!(plan.len() >= 2);
            let mut total = 0usize;
            for id in plan {
                assert!(seen.insert(*id), "segment {} in two plans", id);
                let meta = metas.iter().find(|m| m.id == *id).expect("exists");
                assert!(meta.bytes < policy.max_segment_bytes);
                total += meta.bytes;
            }
            assert!(total <= policy.max_segment_bytes);
        }
    });
}

/// Flat-index search results are sorted, unique and of the right length for
/// arbitrary data.
#[test]
fn flat_search_invariants() {
    cases(64, |rng| {
        let n = rng.gen_range(1..60);
        let k = rng.gen_range(1..20usize);
        let seed = rng.gen_range(0u64..1000);
        let data = milvus_datagen::clustered(n, 4, 2, -10.0, 10.0, 1.0, seed);
        let ids: Vec<i64> = (0..n as i64).collect();
        let flat = milvus_index::flat::FlatIndex::build(Metric::L2, data.clone(), ids).unwrap();
        let res = flat
            .search(data.get(0), &milvus_index::traits::SearchParams::top_k(k))
            .unwrap();
        assert_eq!(res.len(), k.min(n));
        for w in res.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        let mut unique: Vec<i64> = res.iter().map(|r| r.id).collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), res.len());
    });
}

/// Consistent hashing: every key owned, ownership stable under re-asks.
#[test]
fn hashring_total_and_stable() {
    cases(64, |rng| {
        let node_count = rng.gen_range(1..8);
        let nodes: Vec<u64> = (0..node_count).map(|_| rng.gen_range(0u64..50)).collect();
        let keys = rng.gen_range(1usize..100);
        let mut ring = milvus_distributed::HashRing::new(32);
        for &n in &nodes {
            ring.add_node(n);
        }
        let owners: Vec<u64> = (0..keys).map(|k| ring.node_for(&k).unwrap()).collect();
        for (k, &o) in owners.iter().enumerate() {
            assert!(nodes.contains(&o), "key {} owned by unknown node {}", k, o);
            // Determinism.
            assert_eq!(ring.node_for(&k), Some(o));
        }
    });
}

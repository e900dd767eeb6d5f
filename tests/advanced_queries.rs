//! Advanced query processing across crates: attribute filtering (all five
//! strategies + the core facade) and multi-vector queries (§4).

use milvus_core::{CollectionConfig, Milvus};
use milvus_datagen as datagen;
use milvus_index::registry::IndexRegistry;
use milvus_index::traits::{BuildParams, SearchParams};
use milvus_index::{distance, Metric, Neighbor, VectorSet};
use milvus_query::filtering::{FilterDataset, PartitionedDataset, RangePredicate, Strategy};
use milvus_storage::{InsertBatch, Schema};

struct Fixture {
    data: VectorSet,
    ids: Vec<i64>,
    values: Vec<f64>,
}

fn fixture(n: usize) -> Fixture {
    Fixture {
        data: datagen::sift_like(n, 71),
        ids: (0..n as i64).collect(),
        values: datagen::attributes_uniform(n, 0.0, 10_000.0, 72),
    }
}

/// The exact filtered top-k under `metric`: `(id, distance bits)`, nearest
/// first, ties by id.
fn reference_under(
    f: &Fixture,
    metric: Metric,
    q: &[f32],
    pred: RangePredicate,
    k: usize,
) -> Vec<(i64, u32)> {
    let mut all: Vec<(i64, f32)> = (0..f.ids.len())
        .filter(|&r| pred.matches(f.values[r]))
        .map(|r| (f.ids[r], distance::distance(metric, q, f.data.get(r))))
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all.into_iter().map(|(id, d)| (id, d.to_bits())).collect()
}

fn reference(f: &Fixture, q: &[f32], pred: RangePredicate, k: usize) -> Vec<i64> {
    reference_under(f, Metric::L2, q, pred, k).into_iter().map(|(id, _)| id).collect()
}

fn bits(res: &[Neighbor]) -> Vec<(i64, u32)> {
    res.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// Every strategy on an exact index returns the exact answer, distances
/// to the bit, under each float metric.
#[test]
fn all_strategies_and_partitioning_agree_exactly_on_flat() {
    let f = fixture(2_000);
    let registry = IndexRegistry::with_builtins();
    let params = BuildParams::default();
    let queries = datagen::queries_from(&f.data, 5, 2.0, 73);
    for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
        let flat = FilterDataset::build(
            metric,
            f.data.clone(),
            f.ids.clone(),
            f.values.clone(),
            "a",
            "FLAT",
            &registry,
            &params,
        )
        .unwrap();
        let part = PartitionedDataset::build(
            metric, &f.data, &f.ids, &f.values, "a", 8, "FLAT", &registry, &params,
        )
        .unwrap();
        for (lo, hi) in [(0.0, 10_000.0), (2_000.0, 3_000.0), (9_900.0, 10_000.0), (0.0, 100.0)] {
            let pred = RangePredicate::new(lo, hi);
            for qi in 0..queries.len() {
                let q = queries.get(qi);
                let expect = reference_under(&f, metric, q, pred, 10);
                let sp = SearchParams::top_k(10);
                for strat in [Strategy::A, Strategy::B, Strategy::C, Strategy::D] {
                    let (res, _) = flat.search(q, pred, &sp, strat).unwrap();
                    assert_eq!(bits(&res), expect, "{metric:?} {strat:?} [{lo},{hi}] q{qi}");
                }
                let (res, _) = part.search(q, pred, &sp).unwrap();
                assert_eq!(bits(&res), expect, "{metric:?} E [{lo},{hi}] q{qi}");
            }
        }
    }
}

/// On IVF_FLAT the planned strategy D (B here: half the rows pass) keeps
/// high recall, and the exact scan (strategy A) returns exactly the
/// reference.
#[test]
fn filtering_with_ivf_keeps_high_recall() {
    let f = fixture(4_000);
    let registry = IndexRegistry::with_builtins();
    let params = BuildParams { nlist: 64, kmeans_iters: 5, ..Default::default() };
    let ds = FilterDataset::build(
        Metric::L2,
        f.data.clone(),
        f.ids.clone(),
        f.values.clone(),
        "a",
        "IVF_FLAT",
        &registry,
        &params,
    )
    .unwrap();
    let queries = datagen::queries_from(&f.data, 10, 2.0, 74);
    let pred = RangePredicate::new(0.0, 5_000.0);
    let sp = SearchParams { k: 10, nprobe: 32, ..Default::default() };
    let mut hit = 0usize;
    for qi in 0..queries.len() {
        let q = queries.get(qi);
        let expect: std::collections::HashSet<i64> =
            reference(&f, q, pred, 10).into_iter().collect();
        let (res, _) = ds.search(q, pred, &sp, Strategy::D).unwrap();
        hit += res.iter().filter(|n| expect.contains(&n.id)).count();
        // Strategy A reads the index's bucket-ordered vectors by row and
        // stays exact.
        let (res, _) = ds.search(q, pred, &sp, Strategy::A).unwrap();
        assert_eq!(bits(&res), reference_under(&f, Metric::L2, q, pred, 10), "A q{qi}");
    }
    assert!(hit as f32 / 100.0 >= 0.9, "filtered recall {hit}/100");
}

#[test]
fn core_facade_filtered_search_matches_reference() {
    let f = fixture(1_500);
    let milvus = Milvus::new();
    let schema = Schema::single("v", 128, Metric::L2).with_attribute("a");
    let col = milvus.create_collection("filt", schema, CollectionConfig::for_tests()).unwrap();
    col.insert(InsertBatch {
        ids: f.ids.clone(),
        vectors: vec![f.data.clone()],
        attributes: vec![f.values.clone()],
    })
    .unwrap();
    col.flush().unwrap();

    let queries = datagen::queries_from(&f.data, 5, 2.0, 75);
    for qi in 0..queries.len() {
        let q = queries.get(qi);
        let expect = reference(&f, q, RangePredicate::new(1_000.0, 4_000.0), 5);
        let hits = col
            .filtered_search("v", q, "a", 1_000.0, 4_000.0, &SearchParams::top_k(5))
            .unwrap();
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), expect, "q{qi}");
    }
}

#[test]
fn multivector_through_core_facade() {
    let milvus = Milvus::new();
    let schema =
        Schema::single("text", 16, Metric::InnerProduct).with_vector_field("image", 12, Metric::InnerProduct);
    let col = milvus.create_collection("recipes", schema, CollectionConfig::for_tests()).unwrap();

    let n = 1_000;
    let (text, image) = datagen::recipe_like(n, 16, 12, 76);
    col.insert(InsertBatch {
        ids: (0..n as i64).collect(),
        vectors: vec![text.clone(), image.clone()],
        attributes: vec![],
    })
    .unwrap();
    col.flush().unwrap();

    let engine = col.multivector_engine("FLAT", vec![0.5, 0.5], true).unwrap();
    let q0 = text.get(31).to_vec();
    let q1 = image.get(31).to_vec();
    // Inner product is not a metric: the self-entity need not be top-1
    // (bigger-norm cluster-mates can score higher), so validate against the
    // exact reference rather than the query id.
    let exact = engine.exact(&[&q0, &q1], 5).unwrap();
    assert_eq!(exact.len(), 5);

    // Fusion and IMG agree with exact on decomposable IP.
    let fusion = engine.vector_fusion(&[&q0, &q1], &SearchParams::top_k(5)).unwrap();
    assert_eq!(
        fusion.iter().map(|x| x.id).collect::<Vec<_>>(),
        exact.iter().map(|x| x.id).collect::<Vec<_>>()
    );
    let (img, _) = engine
        .iterative_merging(&[&q0, &q1], &SearchParams::top_k(5), 16384)
        .unwrap();
    let tset: std::collections::HashSet<i64> = exact.iter().map(|x| x.id).collect();
    assert!(img.iter().filter(|x| tset.contains(&x.id)).count() >= 4);
}

#[test]
fn multivector_weights_change_the_winner() {
    // Entity 0 great in field0/terrible in field1; entity 1 the reverse.
    let f0 = VectorSet::from_flat(2, vec![1.0, 0.0, 0.0, 1.0]);
    let f1 = VectorSet::from_flat(2, vec![0.0, 1.0, 1.0, 0.0]);
    let registry = IndexRegistry::with_builtins();
    let build = |w: Vec<f32>| {
        milvus_query::multivector::MultiVectorEngine::build(
            Metric::InnerProduct,
            vec![f0.clone(), f1.clone()],
            vec![0, 1],
            w,
            "FLAT",
            &registry,
            &BuildParams::default(),
            false,
        )
        .unwrap()
    };
    let q0: Vec<f32> = vec![1.0, 0.0];
    let q1: Vec<f32> = vec![1.0, 0.0];
    // Weight on field0 → entity 0 wins; weight on field1 → entity 1 wins.
    let e = build(vec![1.0, 0.0]);
    assert_eq!(e.exact(&[&q0, &q1], 1).unwrap()[0].id, 0);
    let e = build(vec![0.0, 1.0]);
    assert_eq!(e.exact(&[&q0, &q1], 1).unwrap()[0].id, 1);
}

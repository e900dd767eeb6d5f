//! `milvus_index_train_distances_total` counts every point–centroid distance
//! that index training and bucket placement compute, exactly. The counter is
//! process-wide, so this binary holds a single test: nothing else builds an
//! index while it reads the counter.

use milvus_index::ivf::{IvfIndex, IvfVariant};
use milvus_index::{kmeans, BuildParams, VectorSet};
use milvus_obs as obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn counted() -> u64 {
    obs::registry().snapshot().counter(obs::INDEX_TRAIN_DISTANCES, "")
}

/// Seeding is `n · k` (one pass per pick), each Lloyd iteration `n · k`, and
/// IVF placement one more `n · k`: an extra pass fails by count.
#[test]
fn training_and_placement_count_every_distance_once() {
    let (n, dim, nlist) = (2000, 16, 32);
    let mut rng = StdRng::seed_from_u64(3);
    let mut data = VectorSet::with_capacity(dim, n);
    for i in 0..n {
        let center = (i % 8) as f32 * 4.0;
        let v: Vec<f32> = (0..dim).map(|_| center + rng.gen_range(-1.0f32..1.0)).collect();
        data.push(&v);
    }
    let params = BuildParams { nlist, kmeans_iters: 10, ..Default::default() };
    assert_eq!(params.effective_nlist(n), nlist);

    let before = counted();
    let km = kmeans::train(&data, nlist, params.kmeans_iters, params.seed).unwrap();
    assert_eq!(km.iterations, 8, "the seeded run stops early, after a fixed number of passes");
    assert_eq!(counted() - before, 2000 * 32 * (1 + 8));

    let ids: Vec<i64> = (0..n as i64).collect();
    let before = counted();
    let index = IvfIndex::build(IvfVariant::Flat, &data, &ids, &params).unwrap();
    assert_eq!(index.centroids(), &km.centroids);
    assert_eq!(counted() - before, 2000 * 32 * (1 + 8 + 1));
}

//! `milvus_index_train_distances_total` counts every point–centroid distance
//! that index training and bucket placement compute, exactly, and
//! `milvus_index_train_tiled_pairs_total` the ones scored in full 4×4 tiles.
//! The counters are process-wide, so this binary holds a single test:
//! nothing else builds an index while it reads them.

use milvus_index::ivf::{IvfIndex, IvfVariant};
use milvus_index::simd::{self, SimdLevel};
use milvus_index::{kmeans, BuildParams, VectorSet};
use milvus_obs as obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn counted() -> u64 {
    obs::registry().snapshot().counter(obs::INDEX_TRAIN_DISTANCES, "")
}

fn tiled() -> u64 {
    obs::registry().snapshot().counter(obs::INDEX_TRAIN_TILED_PAIRS, "")
}

/// Seeding is `n · k` (one pass per pick), each Lloyd iteration `n · k`, and
/// IVF placement one more `n · k`: an extra pass fails by count. With
/// 4 | n and 4 | k every Lloyd and placement pair is tiled and no seeding
/// pair is; SSE has no 4×4 tile.
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

    let tiled_pass = if simd::active_level() == SimdLevel::Sse { 0 } else { 2000 * 32 };

    let (before, tiled_before) = (counted(), tiled());
    let km = kmeans::train(&data, nlist, params.kmeans_iters, params.seed).unwrap();
    assert_eq!(km.iterations, 8, "the seeded run stops early, after a fixed number of passes");
    assert_eq!(counted() - before, 2000 * 32 * (1 + 8));
    assert_eq!(tiled() - tiled_before, tiled_pass * 8);

    let ids: Vec<i64> = (0..n as i64).collect();
    let (before, tiled_before) = (counted(), tiled());
    let index = IvfIndex::build(IvfVariant::Flat, &data, &ids, &params).unwrap();
    assert_eq!(index.centroids(), &km.centroids);
    assert_eq!(counted() - before, 2000 * 32 * (1 + 8 + 1));
    assert_eq!(tiled() - tiled_before, tiled_pass * (8 + 1));
}

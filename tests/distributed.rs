//! Distributed-system integration (§5.3): cluster results must equal a
//! single-node reference; elasticity and crash recovery must preserve them.

use std::sync::Arc;

use milvus_datagen as datagen;
use milvus_distributed::Cluster;
use milvus_index::traits::SearchParams;
use milvus_index::{Metric, TopK};
use milvus_storage::object_store::MemoryStore;
use milvus_storage::{InsertBatch, LsmConfig, Schema};

fn cluster(shards: usize, readers: usize) -> Cluster {
    Cluster::new(
        Schema::single("v", 32, Metric::L2),
        shards,
        readers,
        Arc::new(MemoryStore::new()),
        LsmConfig { auto_merge: false, ..Default::default() },
    )
    .unwrap()
}

#[test]
fn cluster_matches_single_node_reference_exactly() {
    let n = 2_000;
    let data = datagen::clustered(n, 32, 16, -1.0, 1.0, 0.2, 81);
    let c = cluster(8, 3);
    c.insert(InsertBatch::single((0..n as i64).collect(), data.clone())).unwrap();
    c.flush().unwrap();

    let queries = datagen::queries_from(&data, 10, 0.05, 82);
    for qi in 0..queries.len() {
        let q = queries.get(qi);
        // Reference: brute force over all data.
        let mut heap = TopK::new(10);
        for (row, v) in data.iter().enumerate() {
            heap.push(row as i64, milvus_index::distance::l2_sq(q, v));
        }
        let expect: Vec<i64> = heap.into_sorted().iter().map(|x| x.id).collect();
        let got: Vec<i64> = c
            .search("v", q, &SearchParams::top_k(10))
            .unwrap()
            .iter()
            .map(|x| x.id)
            .collect();
        assert_eq!(got, expect, "query {qi}");
    }
}

#[test]
fn results_stable_across_membership_changes() {
    let n = 1_000;
    let data = datagen::clustered(n, 32, 8, -1.0, 1.0, 0.2, 83);
    let c = cluster(12, 2);
    c.insert(InsertBatch::single((0..n as i64).collect(), data.clone())).unwrap();
    c.flush().unwrap();

    let q = data.get(500).to_vec();
    let sp = SearchParams::top_k(5);
    let reference = c.search("v", &q, &sp).unwrap();

    // Scale up twice, crash two different readers, scale up again.
    c.add_reader().unwrap();
    assert_eq!(c.search("v", &q, &sp).unwrap(), reference);
    c.add_reader().unwrap();
    assert_eq!(c.search("v", &q, &sp).unwrap(), reference);
    let victims: Vec<u64> = c.readers().iter().take(2).map(|r| r.id).collect();
    for v in victims {
        assert!(c.crash_reader(v));
        assert_eq!(c.search("v", &q, &sp).unwrap(), reference, "after crash of {v}");
    }
    c.add_reader().unwrap();
    assert_eq!(c.search("v", &q, &sp).unwrap(), reference);
}

#[test]
fn writes_after_crash_still_propagate() {
    let c = cluster(4, 2);
    let data = datagen::clustered(200, 32, 4, -1.0, 1.0, 0.2, 84);
    c.insert(InsertBatch::single((0..200).collect(), data.clone())).unwrap();
    c.flush().unwrap();

    let victim = c.readers()[0].id;
    c.crash_reader(victim);

    // New writes land and are served by the remaining/replacement readers.
    let fresh = datagen::clustered(50, 32, 4, 5.0, 7.0, 0.1, 85);
    c.insert(InsertBatch::single((200..250).collect(), fresh.clone())).unwrap();
    c.flush().unwrap();
    c.add_reader().unwrap();

    let hit = c.search("v", fresh.get(10), &SearchParams::top_k(1)).unwrap();
    assert_eq!(hit[0].id, 210);
    assert_eq!(c.live_rows(), 250);
}

#[test]
fn deletes_and_updates_cluster_wide() {
    let c = cluster(6, 2);
    let data = datagen::clustered(300, 32, 4, -1.0, 1.0, 0.2, 86);
    c.insert(InsertBatch::single((0..300).collect(), data.clone())).unwrap();
    c.flush().unwrap();

    // Delete then re-insert id 42 with a distinctive vector (an update).
    c.delete(&[42]).unwrap();
    let mut vs = milvus_index::VectorSet::new(32);
    vs.push(&[9.0; 32]);
    c.insert(InsertBatch::single(vec![42], vs)).unwrap();
    c.flush().unwrap();

    let hit = c.search("v", &[9.0; 32], &SearchParams::top_k(1)).unwrap();
    assert_eq!(hit[0].id, 42);
    assert!(hit[0].dist < 1e-3);
    assert_eq!(c.live_rows(), 300);
}

#[test]
fn readers_receive_persisted_indexes() {
    use milvus_index::registry::IndexRegistry;
    use milvus_index::traits::BuildParams;

    let c = cluster(4, 2);
    let data = datagen::clustered(800, 32, 8, -1.0, 1.0, 0.2, 89);
    c.insert(InsertBatch::single((0..800).collect(), data.clone())).unwrap();
    c.flush().unwrap();

    // Writer builds IVF indexes; they ship inside the segment blobs.
    let registry = IndexRegistry::with_builtins();
    let params = BuildParams { nlist: 8, kmeans_iters: 4, ..Default::default() };
    let built = c.writer().build_indexes("v", "IVF_FLAT", &registry, &params).unwrap();
    assert!(built >= 4, "one per shard expected, got {built}");

    // Readers refresh and hold the deserialized indexes.
    for r in c.readers() {
        r.refresh().unwrap();
    }
    let sp = SearchParams { k: 3, nprobe: 8, ..Default::default() };
    let res = c.search("v", data.get(321), &sp).unwrap();
    assert_eq!(res[0].id, 321);
    // Every shard's segment arrived with its persisted index attached.
    let indexed: usize = c.readers().iter().map(|r| r.indexed_segments()).sum();
    assert_eq!(indexed, 4, "expected one indexed segment per shard");

    // What the readers loaded from the store answers exactly as the writer's
    // own segments do — the ones whose index was built in place, never
    // through the codec — ids and distance bits.
    let writer = c.writer();
    let built: Vec<_> =
        (0..writer.shards()).flat_map(|s| writer.engine(s).snapshot().segments.clone()).collect();
    let schema = Schema::single("v", 32, Metric::L2);
    let sp = SearchParams { k: 10, nprobe: 3, ..Default::default() };
    for probe in [0, 321, 640, 799] {
        let q = data.get(probe);
        let lists: Vec<_> =
            built.iter().map(|seg| seg.search_field(&schema, "v", q, &sp, None).unwrap()).collect();
        let want = milvus_storage::segment::merge_segment_results(&lists, sp.k);
        let got = c.search("v", q, &sp).unwrap();
        let bits = |n: &milvus_index::Neighbor| (n.id, n.dist.to_bits());
        assert_eq!(
            got.iter().map(bits).collect::<Vec<_>>(),
            want.iter().map(bits).collect::<Vec<_>>(),
            "probe {probe}"
        );
    }
    // And the bufferpool is charged for one copy of the vectors: exactly what
    // an indexed segment reports (the pool's per-segment figure is that of
    // the version it loaded last), well under two copies of its rows.
    let charged: Vec<usize> = c
        .readers()
        .iter()
        .flat_map(|r| r.segment_cache_stats())
        .map(|(_, stats)| stats.resident_bytes)
        .collect();
    assert!(!charged.is_empty());
    for bytes in charged {
        let seg = built.iter().find(|seg| seg.memory_bytes() == bytes);
        let user_bytes = seg.expect("charged what the segment reports").num_rows() * (32 * 4 + 8);
        assert!(bytes < user_bytes * 3 / 2, "{bytes} resident for {user_bytes} user bytes");
    }
}

#[test]
fn writer_failover_via_shipped_logs() {
    use milvus_distributed::coordinator::Coordinator;
    use milvus_distributed::writer::WriterNode;

    let schema = Schema::single("v", 32, Metric::L2);
    let cfg = LsmConfig { auto_merge: false, ..Default::default() };
    let shared: Arc<dyn milvus_storage::object_store::ObjectStore> =
        Arc::new(MemoryStore::new());
    let coordinator = Coordinator::new(4);
    let data = datagen::clustered(300, 32, 6, -1.0, 1.0, 0.2, 88);

    // Primary writer ships logs; some data flushed, some only in the log.
    {
        let writer = WriterNode::with_log_shipping(
            schema.clone(),
            cfg.clone(),
            Arc::clone(&shared),
            Arc::clone(&coordinator),
        )
        .unwrap();
        writer
            .insert(InsertBatch::single((0..200).collect(), data.gather(&(0..200).collect::<Vec<_>>())))
            .unwrap();
        writer.flush().unwrap();
        writer
            .insert(InsertBatch::single(
                (200..300).collect(),
                data.gather(&(200..300).collect::<Vec<_>>()),
            ))
            .unwrap();
        writer.delete(&[50]).unwrap();
        // Crash: rows 200..300 and delete(50) exist only in the shipped log.
    }

    // Standby takes over from shared state alone (the writer is stateless).
    let standby = WriterNode::standby_takeover(
        schema,
        cfg,
        Arc::clone(&shared),
        Arc::clone(&coordinator),
    )
    .unwrap();
    assert_eq!(standby.live_rows(), 299); // 300 - delete(50)

    // The recovered writer keeps serving writes, and checkpointed records
    // can be truncated from the shared log.
    standby.delete(&[299]).unwrap();
    standby.flush().unwrap();
    assert_eq!(standby.live_rows(), 298);
    assert!(standby.truncate_shared_log().unwrap() > 0);

    // A second takeover from the truncated log still converges.
    let third = WriterNode::standby_takeover(
        Schema::single("v", 32, Metric::L2),
        LsmConfig { auto_merge: false, ..Default::default() },
        shared,
        coordinator,
    )
    .unwrap();
    assert_eq!(third.live_rows(), 298);
}

#[test]
fn empty_cluster_and_no_readers_edge_cases() {
    let c = cluster(4, 1);
    // Search before any data: empty results, no panic.
    assert!(c.search("v", &[0.0; 32], &SearchParams::top_k(3)).unwrap().is_empty());
    // Crash the only reader: searches return empty (no coverage) but the
    // system stays alive and a replacement restores service.
    let only = c.readers()[0].id;
    c.crash_reader(only);
    assert_eq!(c.reader_count(), 0);
    assert!(c.search("v", &[0.0; 32], &SearchParams::top_k(3)).unwrap().is_empty());
    c.add_reader().unwrap();
    let data = datagen::clustered(50, 32, 2, -1.0, 1.0, 0.1, 87);
    c.insert(InsertBatch::single((0..50).collect(), data.clone())).unwrap();
    c.flush().unwrap();
    assert_eq!(c.search("v", data.get(0), &SearchParams::top_k(1)).unwrap()[0].id, 0);
}

/// One reader over a shard holding indexed and unindexed segments, with
/// tombstones in both. `search` reads the unindexed ones through the shared
/// pass and the indexed ones each on its own; `search_shards` reads every
/// segment on its own. Both answer exactly what the writer's own segments
/// do searched one by one — an indexed one through its index, an unindexed
/// one by a scalar loop over its live rows — and merged, by id and distance
/// bits, at `k` up to beyond the live rows.
#[test]
fn a_reader_over_indexed_and_unindexed_segments_matches_the_per_segment_reference() {
    use milvus_distributed::reader::ReaderNode;
    use milvus_distributed::writer::WriterNode;
    use milvus_distributed::Coordinator;
    use milvus_index::distance::distance;
    use milvus_index::registry::IndexRegistry;
    use milvus_index::traits::BuildParams;
    use milvus_index::Neighbor;
    use milvus_storage::object_store::ObjectStore;
    use milvus_storage::segment::merge_segment_results;

    const DIM: usize = 16;
    let coordinator = Coordinator::new(1);
    let shared: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let schema = Schema::single("v", DIM, Metric::L2);
    let cfg = LsmConfig { auto_merge: false, ..Default::default() };
    let writer =
        WriterNode::new(schema.clone(), cfg, Arc::clone(&shared), Arc::clone(&coordinator)).unwrap();
    let data = datagen::clustered(4_400, DIM, 8, -1.0, 1.0, 0.2, 35);
    let insert = |ids: std::ops::Range<usize>| {
        let rows: Vec<usize> = ids.clone().collect();
        let ids = ids.map(|id| id as i64).collect();
        writer.insert(InsertBatch::single(ids, data.gather(&rows))).unwrap();
        writer.flush().unwrap();
    };
    insert(0..1_500);
    insert(1_500..3_000);
    let params = BuildParams { nlist: 8, kmeans_iters: 4, ..Default::default() };
    let built = writer.build_indexes("v", "IVF_FLAT", &IndexRegistry::with_builtins(), &params);
    assert_eq!(built.unwrap(), 2);
    insert(3_000..4_100);
    insert(4_100..4_400);
    writer.delete(&(0..4_400).filter(|id| id % 9 == 2).collect::<Vec<i64>>()).unwrap();
    writer.flush().unwrap();

    let reader = ReaderNode::register(schema.clone(), coordinator, shared, 64 << 20);
    reader.refresh().unwrap();
    assert_eq!((reader.loaded_segments(), reader.indexed_segments()), (4, 2));

    let segments = writer.engine(0).snapshot().segments.clone();
    let bits = |list: &[Neighbor]| list.iter().map(|n| (n.id, n.dist.to_bits())).collect::<Vec<_>>();
    for (probe, k) in [(7usize, 1usize), (1_600, 10), (3_333, 37), (4_399, 5_000)] {
        let (q, sp) = (data.get(probe), SearchParams { k, nprobe: 3, ..Default::default() });
        let lists: Vec<_> = segments
            .iter()
            .map(|seg| {
                if seg.index("v").is_some() {
                    return seg.search_field(&schema, "v", q, &sp, None).unwrap();
                }
                let mut heap = TopK::new(k);
                for (row, &id) in seg.data().row_ids.iter().enumerate() {
                    if !seg.is_deleted(id) {
                        heap.push(id, distance(Metric::L2, q, seg.data().vectors[0].get(row)));
                    }
                }
                heap.into_sorted()
            })
            .collect();
        let want = bits(&merge_segment_results(&lists, k));
        assert_eq!(bits(&reader.search("v", q, &sp).unwrap()), want, "search, probe {probe}, k={k}");
        let covered = reader.search_shards("v", q, &sp, &[0]).unwrap();
        assert_eq!(bits(&covered), want, "search_shards, probe {probe}, k={k}");
    }
}

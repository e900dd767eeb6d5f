//! E-commerce attribute filtering (paper §1/§4.1): "finding the T-shirts
//! similar to a given image vector that also cost less than $100".
//! Demonstrates all five filtering strategies, the planner's (A or B)
//! choices across selectivities, and the partition-based speedup.
//!
//! Run with: `cargo run --release -p milvus-examples --bin ecommerce_filtering`

use milvus_datagen as datagen;
use milvus_index::registry::IndexRegistry;
use milvus_index::traits::{BuildParams, SearchParams};
use milvus_index::Metric;
use milvus_query::filtering::{FilterDataset, PartitionedDataset, RangePredicate, Strategy};
use std::time::Instant;

fn main() {
    // Product catalog: 50k items with an image embedding and a price.
    let n = 50_000;
    let embeddings = datagen::sift_like(n, 3003);
    let ids: Vec<i64> = (0..n as i64).collect();
    let prices = datagen::attributes_uniform(n, 0.0, 500.0, 3004);

    let registry = IndexRegistry::with_builtins();
    let params = BuildParams { nlist: 256, kmeans_iters: 5, ..Default::default() };
    let catalog = FilterDataset::build(
        Metric::L2,
        embeddings.clone(),
        ids.clone(),
        prices.clone(),
        "price",
        "IVF_FLAT",
        &registry,
        &params,
    )
    .expect("build catalog");

    // Partitioned by price — the attribute every query filters on (§4.1 E).
    let partitioned = PartitionedDataset::build(
        Metric::L2, &embeddings, &ids, &prices, "price", 10, "IVF_FLAT", &registry, &params,
    )
    .expect("partition catalog");

    let query_image = datagen::queries_from(&embeddings, 1, 2.0, 3005);
    let query = query_image.get(0);
    let sp = SearchParams { k: 10, nprobe: 16, ..Default::default() };

    // "Similar shirts under $100".
    let under_100 = RangePredicate::new(0.0, 100.0);
    println!("similar items priced under $100 (strategy D, planned):");
    let (hits, trace) = catalog.search(query, under_100, &sp, Strategy::D).expect("search");
    println!("  planner chose {:?}", trace.resolved);
    for h in hits.iter().take(5) {
        println!("  item #{:<6} L2²={:.1}", h.id, h.dist);
    }

    // The planner adapts to selectivity.
    println!("\nplanner choices by price range:");
    for (label, hi) in [("< $5", 5.0), ("< $100", 100.0), ("< $400", 400.0), ("any", 500.0)] {
        let pred = RangePredicate::new(0.0, hi);
        let choice = catalog.plan(pred, &sp);
        println!(
            "  price {label:<7} selectivity={:.2} → strategy {choice:?}",
            catalog.selectivity(pred)
        );
    }

    // Strategy comparison on one query.
    println!("\nstrategy timings for 'under $100' (100 queries):");
    let queries = datagen::queries_from(&embeddings, 100, 2.0, 3006);
    for strat in [Strategy::A, Strategy::B, Strategy::C, Strategy::D] {
        let t = Instant::now();
        for i in 0..queries.len() {
            catalog.search(queries.get(i), under_100, &sp, strat).expect("search");
        }
        println!("  {strat:?}: {:?}", t.elapsed());
    }
    let t = Instant::now();
    for i in 0..queries.len() {
        partitioned.search(queries.get(i), under_100, &sp).expect("search");
    }
    println!("  E (partition-based): {:?}", t.elapsed());

    // Partition pruning in action.
    let (_, trace) = partitioned.search(query, under_100, &sp).expect("search");
    println!(
        "\npartition-based execution: {} of {} partitions scanned, {} fully covered \
         (attribute check skipped)",
        trace.partitions_scanned,
        partitioned.rho(),
        trace.partitions_covered
    );
}

//! Attribute filtering (§4.1, Figure 4).
//!
//! A hybrid query has a range constraint `Cα` (`a >= p1 && a <= p2`) and a
//! vector constraint `Cν` (top-k similarity). Five strategies:
//!
//! * **A — attribute-first-vector-full-scan**: resolve `Cα` via the sorted
//!   attribute column (binary search + skip pointers), then exactly scan the
//!   qualifying vectors. Exact; best when `Cα` is highly selective.
//! * **B — attribute-first-vector-search**: resolve `Cα` into a bitmap, then
//!   run the ANN index checking the bitmap per candidate.
//! * **C — vector-first-attribute-full-scan**: ANN search for `θ·k`
//!   candidates, then post-filter on the attribute.
//! * **D — planned**: the paper prices A, B and C (AnalyticDB-V's way);
//!   here it is one rule, [`plan`], that picks A or B. No planner picks C:
//!   a masked index scan scores only the passing rows it reaches.
//! * **E — partition-based (Milvus)**: pre-partition the data on the
//!   frequently-filtered attribute; a query only touches partitions holding
//!   a passing row, and partitions *covered* by the query range (every row
//!   passes) skip the attribute check entirely, running pure vector search.
//!
//! [`plan`] and [`scan_segment`] decide and run A or B per segment, for
//! `Collection`'s segments and for a [`FilterDataset`] (one [`Segment`]).

use milvus_index::registry::IndexRegistry;
use milvus_index::traits::{BuildParams, SearchParams};
use milvus_index::{Metric, Neighbor, RowMask, VectorSet};
use milvus_storage::attribute::AttributeColumn;
use milvus_storage::segment::{Segment, SegmentData};
use milvus_storage::Schema;

use crate::error::{QueryError, Result};

/// The one vector field of a dataset's segment.
const FIELD: &str = "v";

/// Over-fetch factor θ for strategy C (§7.5 uses θ = 1.1).
const THETA: f64 = 1.1;

/// Strategy A's reach: [`plan`] picks the exact scan of the passing rows
/// while at most this many pass per result the query asks for.
pub const PREFILTER_ROWS_PER_K: usize = 8;

/// The inclusive range constraint `Cα`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangePredicate {
    /// Lower bound `p1`.
    pub lo: f64,
    /// Upper bound `p2`.
    pub hi: f64,
}

impl RangePredicate {
    /// Construct; lo > hi yields an always-false predicate.
    pub fn new(lo: f64, hi: f64) -> Self {
        Self { lo, hi }
    }

    /// Whether `v` satisfies the constraint.
    #[inline]
    pub fn matches(self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }
}

/// Strategy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Attribute-first, vector full scan.
    A,
    /// Attribute-first, filtered vector search.
    B,
    /// Vector-first, attribute post-filter.
    C,
    /// The planner's choice between A and B ([`plan`]).
    D,
    /// Partition-based (only valid on a [`PartitionedDataset`]).
    E,
}

/// What a strategy execution did (work counts for tests and benchmarks).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecTrace {
    /// Vectors whose distance was actually computed.
    pub distance_computations: usize,
    /// The concrete strategy that ran (D resolves to A or B).
    pub resolved: Option<Strategy>,
    /// Partitions touched (strategy E).
    pub partitions_scanned: usize,
    /// Partitions where the attribute check was skipped (covered ranges).
    pub partitions_covered: usize,
}

/// Strategy D for one segment in which `passing` rows satisfy the
/// predicate: the exact scan of the passers (A) when at most
/// [`PREFILTER_ROWS_PER_K`]`·k` pass or `field` has no index there, else the
/// index search under the predicate's bitmap (B).
pub fn plan(seg: &Segment, field: &str, passing: usize, k: usize) -> Strategy {
    if passing <= PREFILTER_ROWS_PER_K * k || seg.index(field).is_none() {
        Strategy::A
    } else {
        Strategy::B
    }
}

/// Run strategy A or B on one segment for `queries`, which share `params`
/// and the predicate's bitmap `mask` over the segment's rows. A scans
/// exactly the live rows `mask` sets, per query ([`Segment::visible`], then
/// [`Segment::scan_visible`]); B is the segment's batched search under
/// `mask` ([`Segment::search_batch`]). One result per query, in input order;
/// any other strategy panics.
pub fn scan_segment(
    seg: &Segment,
    schema: &Schema,
    field: &str,
    strategy: Strategy,
    queries: &[&[f32]],
    params: &SearchParams,
    mask: &RowMask,
) -> Vec<milvus_storage::Result<Vec<Neighbor>>> {
    match strategy {
        Strategy::A => {
            let visible = seg.visible(Some(mask));
            let visible = visible.as_deref().unwrap_or(mask);
            queries.iter().map(|q| seg.scan_visible(schema, field, q, params.k, visible)).collect()
        }
        Strategy::B => {
            let ks = vec![params.k; queries.len()];
            seg.search_batch(schema, field, queries, &ks, params, Some(mask))
        }
        other => panic!("a segment runs strategy A or B, not {other:?}"),
    }
}

/// One searchable slice of data: a storage [`Segment`] holding one vector
/// field, one attribute column and an index on the field, searched the way
/// a collection searches its segments.
pub struct FilterDataset {
    schema: Schema,
    segment: Segment,
}

impl FilterDataset {
    /// Build from parallel arrays; constructs the attribute column and the
    /// ANN index (`index_type` from `registry`).
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        metric: Metric,
        vectors: VectorSet,
        ids: Vec<i64>,
        values: Vec<f64>,
        attr_name: &str,
        index_type: &str,
        registry: &IndexRegistry,
        params: &BuildParams,
    ) -> Result<Self> {
        if vectors.len() != ids.len() || ids.len() != values.len() {
            return Err(QueryError::InvalidQuery(format!(
                "misaligned inputs: {} vectors, {} ids, {} values",
                vectors.len(),
                ids.len(),
                values.len()
            )));
        }
        if ids.windows(2).any(|w| w[0] >= w[1]) {
            return Err(QueryError::InvalidQuery("ids must be sorted ascending".into()));
        }
        let schema = Schema::single(FIELD, vectors.dim(), metric).with_attribute(attr_name);
        let attributes = vec![AttributeColumn::build(attr_name, values)];
        let data = SegmentData { row_ids: ids, vectors: vec![vectors.into()], attributes };
        // The ids are sorted, so the segment takes the arrays as its columns;
        // an IVF_FLAT index then becomes the vector column (one copy).
        let plain = Segment::from_parts(0, 1, data, &[]);
        let segment = plain.build_index(&schema, FIELD, index_type, registry, params)?;
        Ok(Self { schema, segment })
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.segment.num_rows()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of rows *failing* the predicate (the paper's definition of
    /// query selectivity in §7.5: higher = fewer rows pass).
    pub fn selectivity(&self, pred: RangePredicate) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        1.0 - self.passing(pred) as f64 / self.len() as f64
    }

    fn column(&self) -> &AttributeColumn {
        &self.segment.data().attributes[0]
    }

    /// Rows satisfying `pred` (never a NaN).
    fn passing(&self, pred: RangePredicate) -> usize {
        self.column().count_range(pred.lo, pred.hi)
    }

    /// Execute under `strategy` (E is invalid here; use
    /// [`PartitionedDataset`]). A, B and D build the predicate's bitmap once
    /// and run [`scan_segment`], D with the strategy [`plan`] picks.
    pub fn search(
        &self,
        query: &[f32],
        pred: RangePredicate,
        params: &SearchParams,
        strategy: Strategy,
    ) -> Result<(Vec<Neighbor>, ExecTrace)> {
        let (res, distance_computations, resolved) = match strategy {
            Strategy::C => {
                let (res, computations) = self.strategy_c(query, pred, params)?;
                (res, computations, strategy)
            }
            Strategy::E => {
                return Err(QueryError::InvalidQuery("strategy E requires a PartitionedDataset".into()))
            }
            _ => {
                let mask = self.column().range_mask(pred.lo, pred.hi);
                let (seg, passing) = (&self.segment, mask.count());
                let resolved = match strategy {
                    Strategy::D => plan(seg, FIELD, passing, params.k),
                    chosen => chosen,
                };
                let mut lists = scan_segment(seg, &self.schema, FIELD, resolved, &[query], params, &mask);
                let res = lists.remove(0)?;
                let computations = match resolved {
                    Strategy::A => passing,
                    _ => self.index_distances(query, params, Some(&mask)),
                };
                (res, computations, resolved)
            }
        };
        Ok((res, ExecTrace { distance_computations, resolved: Some(resolved), ..Default::default() }))
    }

    /// Strategy C: ANN search for θ·k, post-filter on the attribute; retries
    /// with a bigger fetch if fewer than k survive and more data exists.
    fn strategy_c(
        &self,
        query: &[f32],
        pred: RangePredicate,
        params: &SearchParams,
    ) -> Result<(Vec<Neighbor>, usize)> {
        let (ids, column) = (&self.segment.data().row_ids, self.column());
        let passes = |n: &&Neighbor| {
            ids.binary_search(&n.id).is_ok_and(|row| pred.matches(column.value_at(row)))
        };
        let mut fetch = ((params.k as f64 * THETA).ceil() as usize).max(params.k + 1);
        let mut computations = 0usize;
        loop {
            let mut sp = params.clone();
            sp.k = fetch.min(self.len().max(1));
            let cands = self.segment.search_field(&self.schema, FIELD, query, &sp, None)?;
            computations += self.index_distances(query, &sp, None);
            let kept: Vec<Neighbor> = cands.iter().filter(passes).copied().take(params.k).collect();
            if kept.len() >= params.k || sp.k >= self.len() {
                return Ok((kept, computations));
            }
            fetch *= 4;
        }
    }

    /// Strategy D's choice for `pred`: [`plan`] over the dataset's segment.
    pub fn plan(&self, pred: RangePredicate, params: &SearchParams) -> Strategy {
        plan(&self.segment, FIELD, self.passing(pred), params.k)
    }

    /// Distances one index search for `query` scores among the rows `mask`
    /// sets (`None`: all): an IVF index its `nlist` centroids and those rows
    /// of the buckets it probes, a flat index or a column scan those rows, a
    /// graph or tree index roughly `ef·log n` candidates.
    fn index_distances(&self, query: &[f32], params: &SearchParams, mask: Option<&RowMask>) -> usize {
        let (n, index) = (self.len(), self.segment.index(FIELD));
        match index.as_deref().map(|index| (index.name(), index.as_ivf())) {
            Some((_, Some(ivf))) => {
                let visible = |row: &&u32| mask.is_none_or(|mask| mask.get(**row as usize));
                let rows = |b| ivf.bucket_rows(b).iter().filter(visible).count();
                let probed = ivf.probe_buckets(ivf.prepare(query).query(), params.nprobe);
                ivf.nlist() + probed.into_iter().map(rows).sum::<usize>()
            }
            Some(("FLAT", _)) | None => mask.map_or(n, RowMask::count),
            Some(_) => params.ef.max(params.k) * ((n.max(2) as f64).log2() as usize),
        }
    }
}

/// Strategy E: the dataset pre-partitioned on the hot attribute (§4.1).
pub struct PartitionedDataset {
    partitions: Vec<FilterDataset>,
}

impl PartitionedDataset {
    /// Partition `vectors` into `rho` equi-count partitions by attribute
    /// value (offline, from historical data — §4.1 recommends ~1M rows per
    /// partition; tests use small `rho`).
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        metric: Metric,
        vectors: &VectorSet,
        ids: &[i64],
        values: &[f64],
        attr_name: &str,
        rho: usize,
        index_type: &str,
        registry: &IndexRegistry,
        params: &BuildParams,
    ) -> Result<Self> {
        if vectors.len() != ids.len() || ids.len() != values.len() {
            return Err(QueryError::InvalidQuery("misaligned inputs".into()));
        }
        if rho == 0 {
            return Err(QueryError::InvalidQuery("rho must be >= 1".into()));
        }
        // Sort rows by attribute value, slice into rho equal chunks.
        let mut order: Vec<usize> = (0..ids.len()).collect();
        order.sort_by(|&a, &b| values[a].total_cmp(&values[b]).then(ids[a].cmp(&ids[b])));
        let chunk = ids.len().div_ceil(rho).max(1);
        let mut partitions = Vec::new();
        for part in order.chunks(chunk) {
            // Re-sort the partition's rows by id (columnar layout contract).
            let mut rows: Vec<usize> = part.to_vec();
            rows.sort_by_key(|&r| ids[r]);
            let pvec = vectors.gather(&rows);
            let pids: Vec<i64> = rows.iter().map(|&r| ids[r]).collect();
            let pvals: Vec<f64> = rows.iter().map(|&r| values[r]).collect();
            partitions.push(FilterDataset::build(
                metric, pvec, pids, pvals, attr_name, index_type, registry, params,
            )?);
        }
        Ok(Self { partitions })
    }

    /// Number of partitions (ρ).
    pub fn rho(&self) -> usize {
        self.partitions.len()
    }

    /// Strategy E execution, decided per partition by how many of its rows
    /// pass: none — pruned; all — covered, pure vector search without the
    /// attribute check; some — strategy D.
    pub fn search(
        &self,
        query: &[f32],
        pred: RangePredicate,
        params: &SearchParams,
    ) -> Result<(Vec<Neighbor>, ExecTrace)> {
        let mut lists: Vec<Vec<Neighbor>> = Vec::new();
        let mut trace = ExecTrace { resolved: Some(Strategy::E), ..Default::default() };
        for p in &self.partitions {
            let passing = p.passing(pred);
            if passing == 0 {
                continue;
            }
            trace.partitions_scanned += 1;
            if passing == p.len() {
                trace.partitions_covered += 1;
                lists.push(p.segment.search_field(&p.schema, FIELD, query, params, None)?);
                trace.distance_computations += p.index_distances(query, params, None);
            } else {
                let (res, t) = p.search(query, pred, params, Strategy::D)?;
                trace.distance_computations += t.distance_computations;
                lists.push(res);
            }
        }
        Ok((milvus_index::topk::merge_sorted(&lists, params.k), trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milvus_datagen as datagen;
    use milvus_index::distance;

    struct Fixture {
        data: FilterDataset,
        vectors: VectorSet,
        ids: Vec<i64>,
        values: Vec<f64>,
    }

    fn fixture(n: usize, index_type: &str) -> Fixture {
        fixture_of(datagen::attributes_uniform(n, 0.0, 10_000.0, 7), index_type)
    }

    /// One row per attribute value in `values`.
    fn fixture_of(values: Vec<f64>, index_type: &str) -> Fixture {
        let n = values.len();
        let vectors = datagen::clustered(n, 8, 10, -5.0, 5.0, 0.3, 42);
        let ids: Vec<i64> = (0..n as i64).collect();
        let registry = IndexRegistry::with_builtins();
        let params = BuildParams { nlist: 32, kmeans_iters: 5, ..Default::default() };
        let data = FilterDataset::build(
            Metric::L2, vectors.clone(), ids.clone(), values.clone(), "price", index_type, &registry,
            &params,
        )
        .unwrap();
        Fixture { data, vectors, ids, values }
    }

    /// Brute-force reference for filtered top-k.
    fn reference(f: &Fixture, query: &[f32], pred: RangePredicate, k: usize) -> Vec<i64> {
        let mut all: Vec<(i64, f32)> = (0..f.ids.len())
            .filter(|&r| pred.matches(f.values[r]))
            .map(|r| (f.ids[r], distance::l2_sq(query, f.vectors.get(r))))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all.into_iter().map(|(id, _)| id).collect()
    }

    #[test]
    fn all_strategies_agree_with_reference_on_flat_index() {
        let f = fixture(400, "FLAT");
        let query = f.vectors.get(3).to_vec();
        let pred = RangePredicate::new(2000.0, 7000.0);
        let expect = reference(&f, &query, pred, 10);
        let sp = SearchParams { k: 10, nprobe: 32, ..Default::default() };
        for strat in [Strategy::A, Strategy::B, Strategy::C, Strategy::D] {
            let (res, trace) = f.data.search(&query, pred, &sp, strat).unwrap();
            let got: Vec<i64> = res.iter().map(|n| n.id).collect();
            assert_eq!(got, expect, "strategy {strat:?}");
            assert!(trace.resolved.is_some());
        }
    }

    #[test]
    fn results_respect_predicate_on_ivf_index() {
        let f = fixture(500, "IVF_FLAT");
        let query = f.vectors.get(7).to_vec();
        let pred = RangePredicate::new(0.0, 3000.0);
        let sp = SearchParams { k: 10, nprobe: 32, ..Default::default() };
        let passing = f.values.iter().filter(|&&v| pred.matches(v)).count();
        for strat in [Strategy::A, Strategy::B, Strategy::C, Strategy::D] {
            let (res, trace) = f.data.search(&query, pred, &sp, strat).unwrap();
            for n in &res {
                let row = f.ids.binary_search(&n.id).unwrap();
                assert!(pred.matches(f.values[row]), "strategy {strat:?} leaked id {}", n.id);
            }
            // nprobe 32 probes all ⌈√500⌉ = 23 buckets, so B scores the
            // centroids and every passing row, nothing else.
            if strat == Strategy::B {
                assert_eq!(trace.distance_computations, 23 + passing);
            }
        }
    }

    #[test]
    fn strategy_a_work_shrinks_with_selectivity() {
        let f = fixture(1000, "FLAT");
        let query = f.vectors.get(0).to_vec();
        let sp = SearchParams::top_k(5);
        let (_, wide) = f.data.search(&query, RangePredicate::new(0.0, 9999.0), &sp, Strategy::A).unwrap();
        let (_, narrow) =
            f.data.search(&query, RangePredicate::new(0.0, 500.0), &sp, Strategy::A).unwrap();
        assert!(narrow.distance_computations < wide.distance_computations / 5);
    }

    #[test]
    fn planner_picks_a_for_highly_selective_predicates() {
        let f = fixture(1000, "IVF_FLAT");
        let sp = SearchParams { k: 10, nprobe: 4, ..Default::default() };
        // ~0.5% pass → A.
        assert_eq!(f.data.plan(RangePredicate::new(0.0, 50.0), &sp), Strategy::A);
        // Everything passes → a vector-index strategy, not A.
        assert_ne!(f.data.plan(RangePredicate::new(0.0, 10_000.0), &sp), Strategy::A);

        // An attribute equal to the row: `[0, m - 1]` passes exactly m rows,
        // so the rule's edge sits at m = 8·k, and D runs what `plan` picks.
        let f = fixture_of((0..1000).map(f64::from).collect(), "IVF_FLAT");
        let edge = PREFILTER_ROWS_PER_K * sp.k;
        for (passing, want) in [(edge, Strategy::A), (edge + 1, Strategy::B)] {
            let pred = RangePredicate::new(0.0, passing as f64 - 1.0);
            assert_eq!(f.data.plan(pred, &sp), want, "{passing} rows pass");
            let (_, trace) = f.data.search(f.vectors.get(0), pred, &sp, Strategy::D).unwrap();
            assert_eq!(trace.resolved, Some(want), "{passing} rows pass");
        }
    }

    #[test]
    fn strategy_c_retries_until_k_or_exhausted() {
        let f = fixture(300, "FLAT");
        let query = f.vectors.get(1).to_vec();
        // Selective predicate: only ~3% pass; θ·k initial fetch won't cover.
        let pred = RangePredicate::new(0.0, 300.0);
        let sp = SearchParams::top_k(5);
        let (res, _) = f.data.search(&query, pred, &sp, Strategy::C).unwrap();
        let expect = reference(&f, &query, pred, 5);
        let got: Vec<i64> = res.iter().map(|n| n.id).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_predicate_returns_nothing() {
        let f = fixture(100, "FLAT");
        let query = f.vectors.get(0).to_vec();
        let pred = RangePredicate::new(5.0, 1.0); // lo > hi
        let sp = SearchParams::top_k(5);
        for strat in [Strategy::A, Strategy::B, Strategy::C, Strategy::D] {
            let (res, _) = f.data.search(&query, pred, &sp, strat).unwrap();
            assert!(res.is_empty(), "{strat:?}");
        }
    }

    #[test]
    fn partitioned_equals_reference() {
        let f = fixture(600, "FLAT");
        let registry = IndexRegistry::with_builtins();
        let params = BuildParams { nlist: 16, kmeans_iters: 5, ..Default::default() };
        let part = PartitionedDataset::build(
            Metric::L2,
            &f.vectors,
            &f.ids,
            &f.values,
            "price",
            6,
            "FLAT",
            &registry,
            &params,
        )
        .unwrap();
        assert_eq!(part.rho(), 6);
        let query = f.vectors.get(11).to_vec();
        let pred = RangePredicate::new(1500.0, 6500.0);
        let sp = SearchParams { k: 10, nprobe: 16, ..Default::default() };
        let (res, trace) = part.search(&query, pred, &sp).unwrap();
        let got: Vec<i64> = res.iter().map(|n| n.id).collect();
        assert_eq!(got, reference(&f, &query, pred, 10));
        // Half-open interior partitions must be covered (attribute check
        // skipped) and out-of-range partitions pruned.
        assert!(trace.partitions_covered >= 1, "{trace:?}");
        assert!(trace.partitions_scanned < 6, "{trace:?}");
    }

    #[test]
    fn partition_pruning_skips_disjoint_ranges() {
        let f = fixture(500, "FLAT");
        let registry = IndexRegistry::with_builtins();
        let params = BuildParams::default();
        let part = PartitionedDataset::build(
            Metric::L2, &f.vectors, &f.ids, &f.values, "price", 5, "FLAT", &registry, &params,
        )
        .unwrap();
        let query = f.vectors.get(0).to_vec();
        // Range entirely inside the lowest quintile.
        let pred = RangePredicate::new(0.0, 100.0);
        let (_, trace) = part.search(&query, pred, &SearchParams::top_k(3)).unwrap();
        assert_eq!(trace.partitions_scanned, 1);
    }

    /// A NaN attribute fails every predicate, so a partition holding one is
    /// never covered, however wide the range around its numbers.
    #[test]
    fn nan_rows_never_pass_a_partitioned_search() {
        let mut f = fixture(200, "FLAT");
        for r in [5, 77, 150] {
            f.values[r] = f64::NAN;
        }
        let registry = IndexRegistry::with_builtins();
        let part = PartitionedDataset::build(
            Metric::L2, &f.vectors, &f.ids, &f.values, "price", 4, "FLAT", &registry,
            &BuildParams::default(),
        )
        .unwrap();
        let pred = RangePredicate::new(f64::NEG_INFINITY, f64::INFINITY);
        let (res, trace) = part.search(f.vectors.get(5), pred, &SearchParams::top_k(200)).unwrap();
        assert_eq!(res.len(), 197);
        assert!(res.iter().all(|n| !f.values[n.id as usize].is_nan()));
        assert_eq!((trace.partitions_scanned, trace.partitions_covered), (4, 3));
    }

    #[test]
    fn selectivity_definition_matches_paper() {
        let f = fixture(1000, "FLAT");
        // Full range → selectivity ~0 (everything passes).
        assert!(f.data.selectivity(RangePredicate::new(0.0, 10_000.0)) < 0.01);
        // Empty range → selectivity 1.
        assert!(f.data.selectivity(RangePredicate::new(-2.0, -1.0)) > 0.99);
    }

    #[test]
    fn misaligned_inputs_rejected() {
        let registry = IndexRegistry::with_builtins();
        let r = FilterDataset::build(
            Metric::L2,
            VectorSet::from_flat(2, vec![0.0; 4]),
            vec![1],
            vec![1.0, 2.0],
            "a",
            "FLAT",
            &registry,
            &BuildParams::default(),
        );
        assert!(r.is_err());
    }
}

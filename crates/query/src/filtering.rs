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
//! * **D — cost-based**: estimate the cost of A/B/C and run the cheapest
//!   (AnalyticDB-V's approach).
//! * **E — partition-based (Milvus)**: pre-partition the data on the
//!   frequently-filtered attribute; a query only touches partitions holding
//!   a passing row, and partitions *covered* by the query range (every row
//!   passes) skip the attribute check entirely, running pure vector search.
//!
//! Every strategy runs over one storage [`Segment`] per dataset: A is
//! [`Segment::scan_visible`] and B is [`Segment::search_field`] under the
//! predicate's bitmap, the code `Collection` runs for its segments.

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
    /// Cost-based choice among A/B/C.
    D,
    /// Partition-based (only valid on a [`PartitionedDataset`]).
    E,
}

/// What a strategy execution did (assertions + cost-model validation).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecTrace {
    /// Vectors whose distance was actually computed.
    pub distance_computations: usize,
    /// The concrete strategy that ran (D resolves to A/B/C).
    pub resolved: Option<Strategy>,
    /// Partitions touched (strategy E).
    pub partitions_scanned: usize,
    /// Partitions where the attribute check was skipped (covered ranges).
    pub partitions_covered: usize,
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
    /// [`PartitionedDataset`]).
    pub fn search(
        &self,
        query: &[f32],
        pred: RangePredicate,
        params: &SearchParams,
        strategy: Strategy,
    ) -> Result<(Vec<Neighbor>, ExecTrace)> {
        let (res, computations) = match strategy {
            Strategy::A => self.strategy_a(query, pred, params)?,
            Strategy::B => self.strategy_b(query, pred, params)?,
            Strategy::C => self.strategy_c(query, pred, params)?,
            Strategy::D => return self.search(query, pred, params, self.plan(pred, params)),
            Strategy::E => {
                return Err(QueryError::InvalidQuery(
                    "strategy E requires a PartitionedDataset".into(),
                ))
            }
        };
        let trace = ExecTrace {
            distance_computations: computations,
            resolved: Some(strategy),
            ..Default::default()
        };
        Ok((res, trace))
    }

    /// The segment's index search among the rows `allow` sets (`None`: all).
    fn index_search(
        &self,
        query: &[f32],
        params: &SearchParams,
        allow: Option<&RowMask>,
    ) -> Result<Vec<Neighbor>> {
        Ok(self.segment.search_field(&self.schema, FIELD, query, params, allow)?)
    }

    /// Strategy A: the predicate's bitmap from the sorted attribute column
    /// (binary search), then the segment's exact scan of those rows.
    fn strategy_a(
        &self,
        query: &[f32],
        pred: RangePredicate,
        params: &SearchParams,
    ) -> Result<(Vec<Neighbor>, usize)> {
        let mask = self.column().range_mask(pred.lo, pred.hi);
        let visible = self.segment.visible(Some(&mask));
        let visible = visible.as_deref().unwrap_or(&mask);
        let res = self.segment.scan_visible(&self.schema, FIELD, query, params.k, visible)?;
        Ok((res, visible.count()))
    }

    /// Strategy B: bitmap from the attribute, consulted by the ANN search (an
    /// index ordinal is a row position, so the bitmap serves the index).
    fn strategy_b(
        &self,
        query: &[f32],
        pred: RangePredicate,
        params: &SearchParams,
    ) -> Result<(Vec<Neighbor>, usize)> {
        let bitmap = self.column().range_mask(pred.lo, pred.hi);
        let res = self.index_search(query, params, Some(&bitmap))?;
        Ok((res, self.estimated_index_probes(params)))
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
            let cands = self.index_search(query, &sp, None)?;
            computations += self.estimated_index_probes(&sp);
            let kept: Vec<Neighbor> = cands.iter().filter(passes).copied().take(params.k).collect();
            if kept.len() >= params.k || sp.k >= self.len() {
                return Ok((kept, computations));
            }
            fetch *= 4;
        }
    }

    /// The cost model behind strategy D (§4.1, following AnalyticDB-V);
    /// exposed for tests and EXPERIMENTS.md.
    pub fn plan(&self, pred: RangePredicate, params: &SearchParams) -> Strategy {
        let n = self.len().max(1) as f64;
        let passing = self.passing(pred) as f64;
        // Cost A: one exact distance per passing row.
        let cost_a = passing;
        // Cost B/C: the ANN index examines roughly nprobe/nlist of the data
        // (IVF) — use the index-probe estimate; B additionally builds the
        // bitmap (one cheap op per passing row).
        let index_cost = self.estimated_index_probes(params) as f64;
        let cost_b = index_cost + passing * 0.1;
        // Cost C: may re-fetch when the filter is selective; expected fetch
        // inflation is 1/pass_rate.
        let pass_rate = (passing / n).max(1e-9);
        let needed = params.k as f64 * THETA / pass_rate;
        let cost_c = if needed > n { f64::INFINITY } else { index_cost * (1.0 + needed / n) };
        if cost_a <= cost_b && cost_a <= cost_c {
            Strategy::A
        } else if cost_c <= cost_b {
            Strategy::C
        } else {
            Strategy::B
        }
    }

    /// Rough count of distance computations one index search performs.
    fn estimated_index_probes(&self, params: &SearchParams) -> usize {
        let n = self.len();
        match self.segment.index(FIELD).map(|index| index.name()) {
            Some("FLAT") => n,
            Some("IVF_FLAT" | "IVF_SQ8" | "IVF_PQ") => {
                let nlist = (n as f64).sqrt().ceil().max(1.0) as usize;
                (n * params.nprobe.min(nlist)) / nlist.max(1)
            }
            // Graph/tree indexes: ~ef·log n candidate evaluations.
            _ => params.ef.max(params.k) * ((n.max(2) as f64).log2() as usize),
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
    /// attribute check; some — the cost-based strategy D.
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
                lists.push(p.index_search(query, params, None)?);
                trace.distance_computations += p.estimated_index_probes(params);
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
        let vectors = datagen::clustered(n, 8, 10, -5.0, 5.0, 0.3, 42);
        let ids: Vec<i64> = (0..n as i64).collect();
        let values = datagen::attributes_uniform(n, 0.0, 10_000.0, 7);
        let registry = IndexRegistry::with_builtins();
        let params = BuildParams { nlist: 32, kmeans_iters: 5, ..Default::default() };
        let data = FilterDataset::build(
            Metric::L2,
            vectors.clone(),
            ids.clone(),
            values.clone(),
            "price",
            index_type,
            &registry,
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
        for strat in [Strategy::A, Strategy::B, Strategy::C, Strategy::D] {
            let (res, _) = f.data.search(&query, pred, &sp, strat).unwrap();
            for n in &res {
                let row = f.ids.binary_search(&n.id).unwrap();
                assert!(pred.matches(f.values[row]), "strategy {strat:?} leaked id {}", n.id);
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

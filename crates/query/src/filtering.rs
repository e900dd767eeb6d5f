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
//!   frequently-filtered attribute; a query only touches partitions whose
//!   range overlaps, and partitions *covered* by the query range skip the
//!   attribute check entirely, running pure vector search.

use milvus_index::batch::{score_visible, Scorer};
use milvus_index::registry::IndexRegistry;
use milvus_index::traits::{BuildParams, SearchParams};
use milvus_index::{Metric, Neighbor, TopK, VectorIndex, VectorSet};
use milvus_storage::attribute::AttributeColumn;

use crate::error::{QueryError, Result};

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

    /// Whether this predicate fully covers `[min, max]`.
    #[inline]
    pub fn covers(self, min: f64, max: f64) -> bool {
        self.lo <= min && self.hi >= max
    }

    /// Whether this predicate overlaps `[min, max]`.
    #[inline]
    pub fn overlaps(self, min: f64, max: f64) -> bool {
        self.lo <= max && self.hi >= min
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

/// One searchable slice of data: vectors + ids + attribute column + index.
pub struct FilterDataset {
    metric: Metric,
    vectors: VectorSet,
    /// Sorted ascending (the columnar layout of §2.4).
    ids: Vec<i64>,
    /// Attribute values by row position, key-sorted for range queries.
    column: AttributeColumn,
    index: Box<dyn VectorIndex>,
    /// Over-fetch factor θ for strategy C (§7.5 uses θ = 1.1).
    pub theta: f64,
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
        let column = AttributeColumn::build(attr_name, values);
        let mut build = params.clone();
        build.metric = metric;
        let index = registry.build(index_type, &vectors, &ids, &build)?;
        Ok(Self { metric, vectors, ids, column, index, theta: 1.1 })
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Attribute min/max.
    pub fn attr_min_max(&self) -> Option<(f64, f64)> {
        self.column.min_max()
    }

    /// Fraction of rows *failing* the predicate (the paper's definition of
    /// query selectivity in §7.5: higher = fewer rows pass).
    pub fn selectivity(&self, pred: RangePredicate) -> f64 {
        if self.ids.is_empty() {
            return 0.0;
        }
        1.0 - self.column.count_range(pred.lo, pred.hi) as f64 / self.ids.len() as f64
    }

    #[inline]
    fn row_of(&self, id: i64) -> Option<usize> {
        self.ids.binary_search(&id).ok()
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
        match strategy {
            Strategy::A => self.strategy_a(query, pred, params),
            Strategy::B => self.strategy_b(query, pred, params),
            Strategy::C => self.strategy_c(query, pred, params),
            Strategy::D => self.strategy_d(query, pred, params),
            Strategy::E => Err(QueryError::InvalidQuery(
                "strategy E requires a PartitionedDataset".into(),
            )),
        }
    }

    /// [`Self::search`] recording a [`milvus_obs::SpanKind::Filter`] span
    /// (rows = actual distance computations) into a per-query trace.
    pub fn search_traced(
        &self,
        query: &[f32],
        pred: RangePredicate,
        params: &SearchParams,
        strategy: Strategy,
        qtrace: &mut milvus_obs::Trace,
    ) -> Result<(Vec<Neighbor>, ExecTrace)> {
        let t = qtrace.begin();
        let result = self.search(query, pred, params, strategy);
        if let Ok((_, exec)) = &result {
            let rows = exec.distance_computations as u64;
            qtrace.record_with(milvus_obs::SpanKind::Filter, t, |sp| sp.rows_scanned = rows);
        }
        result
    }

    /// Pure vector search, no attribute check (used by strategy E on covered
    /// partitions).
    pub fn vector_only(
        &self,
        query: &[f32],
        params: &SearchParams,
    ) -> Result<(Vec<Neighbor>, ExecTrace)> {
        let res = self.index.search(query, params)?;
        let trace = ExecTrace {
            distance_computations: self.estimated_index_probes(params),
            resolved: Some(Strategy::C),
            ..Default::default()
        };
        Ok((res, trace))
    }

    /// Strategy A: binary-search the attribute column, then exact scan.
    fn strategy_a(
        &self,
        query: &[f32],
        pred: RangePredicate,
        params: &SearchParams,
    ) -> Result<(Vec<Neighbor>, ExecTrace)> {
        let rows = self.column.range_rows(pred.lo, pred.hi);
        let (kern, mut heap) = (Scorer::new(self.metric), TopK::new(params.k.max(1)));
        let visible = rows.iter().map(|&row| (row as usize, self.ids[row as usize]));
        let (flat, heaps) = (self.vectors.as_flat(), std::slice::from_mut(&mut heap));
        score_visible(kern, flat, visible, &[query], heaps);
        let trace = ExecTrace {
            distance_computations: rows.len(),
            resolved: Some(Strategy::A),
            ..Default::default()
        };
        Ok((heap.into_sorted(), trace))
    }

    /// Strategy B: bitmap from the attribute, consulted by the ANN search (the
    /// index was built over the rows in order, so its ordinals are the
    /// column's row positions).
    fn strategy_b(
        &self,
        query: &[f32],
        pred: RangePredicate,
        params: &SearchParams,
    ) -> Result<(Vec<Neighbor>, ExecTrace)> {
        let bitmap = self.column.range_mask(pred.lo, pred.hi);
        let res = self.index.search_masked(query, params, &bitmap)?;
        let trace = ExecTrace {
            distance_computations: self.estimated_index_probes(params),
            resolved: Some(Strategy::B),
            ..Default::default()
        };
        Ok((res, trace))
    }

    /// Strategy C: ANN search for θ·k, post-filter on the attribute; retries
    /// with a bigger fetch if fewer than k survive and more data exists.
    fn strategy_c(
        &self,
        query: &[f32],
        pred: RangePredicate,
        params: &SearchParams,
    ) -> Result<(Vec<Neighbor>, ExecTrace)> {
        let mut fetch = ((params.k as f64 * self.theta).ceil() as usize).max(params.k + 1);
        let mut computations = 0usize;
        loop {
            let mut sp = params.clone();
            sp.k = fetch.min(self.len().max(1));
            let cands = self.index.search(query, &sp)?;
            computations += self.estimated_index_probes(&sp);
            let kept: Vec<Neighbor> = cands
                .iter()
                .filter(|n| {
                    self.row_of(n.id)
                        .is_some_and(|row| pred.matches(self.column.value_at(row)))
                })
                .copied()
                .take(params.k)
                .collect();
            let exhausted = sp.k >= self.len();
            if kept.len() >= params.k || exhausted {
                let trace = ExecTrace {
                    distance_computations: computations,
                    resolved: Some(Strategy::C),
                    ..Default::default()
                };
                return Ok((kept, trace));
            }
            fetch *= 4;
        }
    }

    /// Strategy D: pick A, B or C by estimated cost (§4.1, following
    /// AnalyticDB-V).
    fn strategy_d(
        &self,
        query: &[f32],
        pred: RangePredicate,
        params: &SearchParams,
    ) -> Result<(Vec<Neighbor>, ExecTrace)> {
        let choice = self.plan(pred, params);
        self.search(query, pred, params, choice)
    }

    /// The cost model behind strategy D; exposed for tests and EXPERIMENTS.md.
    pub fn plan(&self, pred: RangePredicate, params: &SearchParams) -> Strategy {
        let n = self.len().max(1) as f64;
        let passing = self.column.count_range(pred.lo, pred.hi) as f64;
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
        let needed = params.k as f64 * self.theta / pass_rate;
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
        match self.index.name() {
            "FLAT" => n,
            "IVF_FLAT" | "IVF_SQ8" | "IVF_PQ" => {
                let nlist = (n as f64).sqrt().ceil().max(1.0) as usize;
                (n * params.nprobe.min(nlist)) / nlist.max(1)
            }
            // Graph/tree indexes: ~ef·log n candidate evaluations.
            _ => params.ef.max(params.k) * ((n.max(2) as f64).log2() as usize),
        }
    }
}

/// Query-frequency tracking (§4.1: "we maintain the frequency of each
/// searched attribute in a hash table").
#[derive(Debug, Default)]
pub struct AttributeFrequency {
    counts: std::collections::HashMap<String, u64>,
}

impl AttributeFrequency {
    /// Record that a query filtered on `attr`.
    pub fn record(&mut self, attr: &str) {
        *self.counts.entry(attr.to_string()).or_insert(0) += 1;
    }

    /// The most frequently filtered attribute, if any.
    pub fn hottest(&self) -> Option<&str> {
        self.counts
            .iter()
            .max_by_key(|(name, c)| (**c, std::cmp::Reverse(name.as_str())))
            .map(|(name, _)| name.as_str())
    }

    /// Times `attr` was filtered on.
    pub fn count(&self, attr: &str) -> u64 {
        self.counts.get(attr).copied().unwrap_or(0)
    }
}

/// Strategy E: the dataset pre-partitioned on the hot attribute (§4.1).
pub struct PartitionedDataset {
    partitions: Vec<FilterDataset>,
    /// `[min, max]` attribute range per partition.
    ranges: Vec<(f64, f64)>,
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
        let mut ranges = Vec::new();
        for part in order.chunks(chunk) {
            // Re-sort the partition's rows by id (columnar layout contract).
            let mut rows: Vec<usize> = part.to_vec();
            rows.sort_by_key(|&r| ids[r]);
            let pvec = vectors.gather(&rows);
            let pids: Vec<i64> = rows.iter().map(|&r| ids[r]).collect();
            let pvals: Vec<f64> = rows.iter().map(|&r| values[r]).collect();
            let lo = pvals.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = pvals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            partitions.push(FilterDataset::build(
                metric, pvec, pids, pvals, attr_name, index_type, registry, params,
            )?);
            ranges.push((lo, hi));
        }
        Ok(Self { partitions, ranges })
    }

    /// Number of partitions (ρ).
    pub fn rho(&self) -> usize {
        self.partitions.len()
    }

    /// Strategy E execution: prune non-overlapping partitions; covered
    /// partitions run pure vector search; boundary partitions run the
    /// cost-based strategy D.
    pub fn search(
        &self,
        query: &[f32],
        pred: RangePredicate,
        params: &SearchParams,
    ) -> Result<(Vec<Neighbor>, ExecTrace)> {
        let mut lists: Vec<Vec<Neighbor>> = Vec::new();
        let mut trace = ExecTrace { resolved: Some(Strategy::E), ..Default::default() };
        for (p, &(lo, hi)) in self.partitions.iter().zip(&self.ranges) {
            if !pred.overlaps(lo, hi) {
                continue;
            }
            trace.partitions_scanned += 1;
            let (res, t) = if pred.covers(lo, hi) {
                trace.partitions_covered += 1;
                p.vector_only(query, params)?
            } else {
                p.search(query, pred, params, Strategy::D)?
            };
            trace.distance_computations += t.distance_computations;
            lists.push(res);
        }
        Ok((milvus_index::topk::merge_sorted(&lists, params.k), trace))
    }

    /// [`Self::search`] recording one [`milvus_obs::SpanKind::Filter`] span
    /// (rows = distance computations across touched partitions) into a
    /// per-query trace.
    pub fn search_traced(
        &self,
        query: &[f32],
        pred: RangePredicate,
        params: &SearchParams,
        qtrace: &mut milvus_obs::Trace,
    ) -> Result<(Vec<Neighbor>, ExecTrace)> {
        let t = qtrace.begin();
        let result = self.search(query, pred, params);
        if let Ok((_, exec)) = &result {
            let rows = exec.distance_computations as u64;
            qtrace.record_with(milvus_obs::SpanKind::Filter, t, |sp| sp.rows_scanned = rows);
        }
        result
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

    #[test]
    fn frequency_tracking() {
        let mut freq = AttributeFrequency::default();
        freq.record("price");
        freq.record("price");
        freq.record("size");
        assert_eq!(freq.hottest(), Some("price"));
        assert_eq!(freq.count("price"), 2);
        assert_eq!(freq.count("missing"), 0);
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

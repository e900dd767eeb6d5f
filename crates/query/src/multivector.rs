//! Multi-vector query processing (§4.2, Algorithm 2, Figure 16).
//!
//! Each entity carries `μ` vectors; a query scores entities with a monotonic
//! aggregation `g` (weighted sum here) over per-field similarities `f`.
//! Four algorithms:
//!
//! * **naive** — per-field top-k, union the candidates, re-score: the
//!   widely-used approach the paper shows can reach recall as low as 0.1;
//! * **NRA-N** — Fagin's No-Random-Access algorithm over per-field streams
//!   of fixed depth `N`;
//! * **vector fusion** — for decomposable `f` (inner product; also weighted
//!   L2 via √w scaling, an extension noted in DESIGN.md): concatenate the
//!   entity vectors once at build time and run a *single* top-k search with
//!   the aggregated query vector;
//! * **iterative merging** (Algorithm 2) — fetch per-field top-k′ lists,
//!   run the NRA determination over them, and double k′ until k results are
//!   fully determined or k′ reaches a threshold.

use std::collections::HashMap;

use milvus_index::registry::IndexRegistry;
use milvus_index::traits::{BuildParams, SearchParams};
use milvus_index::{distance, Metric, Neighbor, TopK, VectorIndex, VectorSet};

use crate::error::{QueryError, Result};

/// Outcome of an iterative-merging run (for tests and the Fig 16 bench).
#[derive(Debug, Clone, Copy)]
pub struct ImgTrace {
    /// Number of k′-doubling rounds executed.
    pub rounds: usize,
    /// Final k′ used.
    pub final_k_prime: usize,
    /// Whether NRA fully determined the top-k (vs best-effort fallback).
    pub fully_determined: bool,
}

/// A multi-vector collection with per-field ANN indexes.
pub struct MultiVectorEngine {
    metric: Metric,
    fields: Vec<VectorSet>,
    ids: Vec<i64>,
    /// id → row lookup for candidate re-scoring.
    row_index: HashMap<i64, usize>,
    weights: Vec<f32>,
    indexes: Vec<Box<dyn VectorIndex>>,
    /// Fusion index over concatenated (scaled) vectors, when built.
    fusion: Option<Box<dyn VectorIndex>>,
}

impl MultiVectorEngine {
    /// Build per-field indexes (`index_type`) and, when `with_fusion` and the
    /// metric is decomposable, the fusion index.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        metric: Metric,
        fields: Vec<VectorSet>,
        ids: Vec<i64>,
        weights: Vec<f32>,
        index_type: &str,
        registry: &IndexRegistry,
        params: &BuildParams,
        with_fusion: bool,
    ) -> Result<Self> {
        if fields.is_empty() {
            return Err(QueryError::InvalidQuery("need at least one vector field".into()));
        }
        if fields.len() != weights.len() {
            return Err(QueryError::InvalidQuery("one weight per field required".into()));
        }
        if weights.iter().any(|&w| w < 0.0) {
            return Err(QueryError::InvalidQuery(
                "weights must be non-negative for monotonic aggregation".into(),
            ));
        }
        for f in &fields {
            if f.len() != ids.len() {
                return Err(QueryError::InvalidQuery("field row count != ids".into()));
            }
        }
        let mut build = params.clone();
        build.metric = metric;
        let indexes = fields
            .iter()
            .map(|f| registry.build(index_type, f, &ids, &build))
            .collect::<std::result::Result<Vec<_>, _>>()?;

        let fusion = if with_fusion {
            Some(Self::build_fusion(metric, &fields, &ids, &weights, index_type, registry, &build)?)
        } else {
            None
        };

        let row_index = ids.iter().enumerate().map(|(row, &id)| (id, row)).collect();
        Ok(Self { metric, fields, ids, row_index, weights, indexes, fusion })
    }

    /// Concatenate each entity's vectors (§4.2 "stores for each entity e its
    /// μ vectors as a concatenated vector"), scaling so the single-index
    /// search computes the weighted aggregate exactly:
    /// * inner product: entity unscaled, query scaled by `w_i`;
    /// * L2: both sides scaled by `√w_i` (Σ w_i‖q_i−e_i‖² = ‖q′−e′‖²).
    fn build_fusion(
        metric: Metric,
        fields: &[VectorSet],
        ids: &[i64],
        weights: &[f32],
        index_type: &str,
        registry: &IndexRegistry,
        params: &BuildParams,
    ) -> Result<Box<dyn VectorIndex>> {
        if !matches!(metric, Metric::InnerProduct | Metric::L2) {
            return Err(QueryError::InvalidQuery(format!(
                "vector fusion requires a decomposable similarity; {metric} is not supported"
            )));
        }
        let total_dim: usize = fields.iter().map(VectorSet::dim).sum();
        let mut concat = VectorSet::with_capacity(total_dim, ids.len());
        let mut row_buf = Vec::with_capacity(total_dim);
        for row in 0..ids.len() {
            row_buf.clear();
            for (f, field) in fields.iter().enumerate() {
                let scale = if metric == Metric::L2 { weights[f].sqrt() } else { 1.0 };
                row_buf.extend(field.get(row).iter().map(|&x| x * scale));
            }
            concat.push(&row_buf);
        }
        Ok(registry.build(index_type, &concat, ids, params)?)
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    fn check_query(&self, query: &[&[f32]]) -> Result<()> {
        if query.len() != self.fields.len() {
            return Err(QueryError::InvalidQuery(format!(
                "query has {} fields, engine has {}",
                query.len(),
                self.fields.len()
            )));
        }
        for (q, f) in query.iter().zip(&self.fields) {
            if q.len() != f.dim() {
                return Err(QueryError::InvalidQuery("query field dimension mismatch".into()));
            }
        }
        Ok(())
    }

    /// Exact aggregated distance of entity at `row`.
    fn aggregate_row(&self, query: &[&[f32]], row: usize) -> f32 {
        self.fields
            .iter()
            .zip(query)
            .zip(&self.weights)
            .map(|((field, q), &w)| w * distance::distance(self.metric, q, field.get(row)))
            .sum()
    }

    #[inline]
    fn row_of(&self, id: i64) -> Option<usize> {
        self.row_index.get(&id).copied()
    }

    /// Exact brute-force top-k (ground truth for Fig 16).
    pub fn exact(&self, query: &[&[f32]], k: usize) -> Result<Vec<Neighbor>> {
        self.check_query(query)?;
        let mut heap = TopK::new(k.max(1));
        for row in 0..self.len() {
            heap.push(self.ids[row], self.aggregate_row(query, row));
        }
        Ok(heap.into_sorted())
    }

    /// The naive approach: per-field top-k union, re-score candidates.
    pub fn naive(&self, query: &[&[f32]], params: &SearchParams) -> Result<Vec<Neighbor>> {
        self.naive_traced(query, params, &mut milvus_obs::Trace::disabled())
    }

    /// [`Self::naive`] recording one [`milvus_obs::SpanKind::IndexSearch`]
    /// span per field probe and a [`milvus_obs::SpanKind::Rerank`] span for
    /// the candidate re-scoring into a caller-supplied trace.
    pub fn naive_traced(
        &self,
        query: &[&[f32]],
        params: &SearchParams,
        qtrace: &mut milvus_obs::Trace,
    ) -> Result<Vec<Neighbor>> {
        self.check_query(query)?;
        let mut candidates: Vec<i64> = Vec::new();
        for (index, q) in self.indexes.iter().zip(query) {
            let t = qtrace.begin();
            let found = index.search(q, params)?;
            qtrace.record_with(milvus_obs::SpanKind::IndexSearch, t, |sp| {
                sp.rows_scanned = found.len() as u64;
            });
            candidates.extend(found.into_iter().map(|n| n.id));
        }
        candidates.sort_unstable();
        candidates.dedup();
        let t = qtrace.begin();
        let ncands = candidates.len() as u64;
        let mut heap = TopK::new(params.k.max(1));
        for id in candidates {
            if let Some(row) = self.row_of(id) {
                heap.push(id, self.aggregate_row(query, row));
            }
        }
        qtrace.record_with(milvus_obs::SpanKind::Rerank, t, |sp| sp.rows_scanned = ncands);
        Ok(heap.into_sorted())
    }

    /// The standard NRA baseline over fixed-depth streams (the paper's
    /// NRA-50 / NRA-2048 series).
    ///
    /// Faithful to Fagin's algorithm as the paper describes its drawbacks:
    /// entries are consumed one sorted position at a time across the μ
    /// streams, and **every access updates the bounds of every candidate
    /// currently tracked** ("it incurs significant overhead to maintain the
    /// heap since every access in NRA needs to update the scores of the
    /// current objects in the heap", §4.2). Stops when the top-k is
    /// determined or the streams are exhausted; returns best-effort results
    /// when determination fails (the source of NRA's low recall).
    pub fn nra_fixed(
        &self,
        query: &[&[f32]],
        params: &SearchParams,
        depth: usize,
    ) -> Result<Vec<Neighbor>> {
        self.check_query(query)?;
        let k = params.k.max(1);
        let lists = self.fetch_lists(query, params, depth)?;
        let mu = lists.len();
        let mut seen: HashMap<i64, Vec<Option<f32>>> = HashMap::new();
        let mut last = vec![0.0f32; mu];
        let max_depth = lists.iter().map(Vec::len).max().unwrap_or(0);

        for pos in 0..max_depth {
            // Sorted access: one entry per stream per step.
            for (f, list) in lists.iter().enumerate() {
                if let Some(n) = list.get(pos) {
                    seen.entry(n.id).or_insert_with(|| vec![None; mu])[f] = Some(n.dist);
                    last[f] = n.dist;
                }
            }
            // Per-access bookkeeping: recompute bounds for EVERY candidate
            // and test the stopping condition (the expensive part).
            let mut exact: Vec<Neighbor> = Vec::new();
            let mut min_partial = f32::INFINITY;
            for (&id, fields) in &seen {
                if fields.iter().all(Option::is_some) {
                    let score: f32 = fields
                        .iter()
                        .zip(&self.weights)
                        .map(|(d, &w)| w * d.expect("checked"))
                        .sum();
                    exact.push(Neighbor::new(id, score));
                } else {
                    let bound: f32 = fields
                        .iter()
                        .zip(&self.weights)
                        .zip(&last)
                        .map(|((d, &w), &l)| w * d.unwrap_or(l))
                        .sum();
                    min_partial = min_partial.min(bound);
                }
            }
            if exact.len() >= k {
                exact.sort_unstable();
                let t_unseen: f32 =
                    self.weights.iter().zip(&last).map(|(&w, &l)| w * l).sum();
                if exact[k - 1].dist <= min_partial.min(t_unseen) {
                    exact.truncate(k);
                    return Ok(exact);
                }
            }
        }

        // Streams exhausted without determination: best-effort re-scoring of
        // the union (the paper's NRA-50 recall ≈ 0.1 comes from here).
        let mut heap = TopK::new(k);
        for &id in seen.keys() {
            if let Some(row) = self.row_of(id) {
                heap.push(id, self.aggregate_row(query, row));
            }
        }
        Ok(heap.into_sorted())
    }

    /// Iterative merging (Algorithm 2): adaptive k′ doubling over NRA.
    pub fn iterative_merging(
        &self,
        query: &[&[f32]],
        params: &SearchParams,
        k_prime_threshold: usize,
    ) -> Result<(Vec<Neighbor>, ImgTrace)> {
        self.check_query(query)?;
        let mut k_prime = params.k.max(1);
        let mut rounds = 0;
        loop {
            rounds += 1;
            let lists = self.fetch_lists(query, params, k_prime)?;
            let (results, determined) = self.nra_determine(query, &lists, params.k);
            let exhausted = k_prime >= self.len();
            if determined || k_prime * 2 > k_prime_threshold || exhausted {
                let trace =
                    ImgTrace { rounds, final_k_prime: k_prime, fully_determined: determined };
                return Ok((results, trace));
            }
            k_prime *= 2;
        }
    }

    /// Vector fusion: one search over the concatenated index (§4.2).
    pub fn vector_fusion(&self, query: &[&[f32]], params: &SearchParams) -> Result<Vec<Neighbor>> {
        self.check_query(query)?;
        let Some(fusion) = &self.fusion else {
            return Err(QueryError::InvalidQuery(
                "engine built without a fusion index".into(),
            ));
        };
        // Aggregated query vector: w_i·q_i for IP, √w_i·q_i for L2.
        let total_dim: usize = self.fields.iter().map(VectorSet::dim).sum();
        let mut agg = Vec::with_capacity(total_dim);
        for (f, q) in query.iter().enumerate() {
            let scale =
                if self.metric == Metric::L2 { self.weights[f].sqrt() } else { self.weights[f] };
            agg.extend(q.iter().map(|&x| x * scale));
        }
        Ok(fusion.search(&agg, params)?)
    }

    /// Top-k′ per field via the per-field ANN indexes (the
    /// `VectorQuery(q.v_i, D_i, k')` of Algorithm 2).
    fn fetch_lists(
        &self,
        query: &[&[f32]],
        params: &SearchParams,
        k_prime: usize,
    ) -> Result<Vec<Vec<Neighbor>>> {
        let mut sp = params.clone();
        sp.k = k_prime.min(self.len()).max(1);
        // Widen the beam with k′ so deep fetches stay accurate.
        sp.ef = sp.ef.max(sp.k);
        self.indexes
            .iter()
            .zip(query)
            .map(|(index, q)| Ok(index.search(q, &sp)?))
            .collect()
    }

    /// The NRA determination step (line 5 of Algorithm 2): given per-field
    /// sorted lists, compute the top-k and whether it is fully determined.
    ///
    /// An entity seen in every list has an exact score. The threshold
    /// `T = Σ w_i · last_i` bounds any entity not seen at all, and a
    /// partially-seen entity is bounded below by its partial sum plus
    /// `w_i · last_i` for unseen fields. Determination succeeds when k
    /// entities have exact scores no greater than every other bound.
    fn nra_determine(
        &self,
        query: &[&[f32]],
        lists: &[Vec<Neighbor>],
        k: usize,
    ) -> (Vec<Neighbor>, bool) {
        let mu = lists.len();
        let mut seen: HashMap<i64, Vec<Option<f32>>> = HashMap::new();
        let mut last = vec![f32::NEG_INFINITY; mu];
        for (f, list) in lists.iter().enumerate() {
            for n in list {
                seen.entry(n.id).or_insert_with(|| vec![None; mu])[f] = Some(n.dist);
            }
            if let Some(tail) = list.last() {
                last[f] = tail.dist;
            }
        }

        // Exact scores for fully-seen entities; lower bounds for the rest.
        let mut exact: Vec<Neighbor> = Vec::new();
        let mut partial_bounds: Vec<f32> = Vec::new();
        for (&id, fields) in &seen {
            if fields.iter().all(Option::is_some) {
                let score: f32 = fields
                    .iter()
                    .zip(&self.weights)
                    .map(|(d, &w)| w * d.expect("checked"))
                    .sum();
                exact.push(Neighbor::new(id, score));
            } else {
                let bound: f32 = fields
                    .iter()
                    .zip(&self.weights)
                    .zip(&last)
                    .map(|((d, &w), &l)| w * d.unwrap_or(l))
                    .sum();
                partial_bounds.push(bound);
            }
        }
        exact.sort_unstable();

        // Threshold for entirely-unseen entities.
        let t_unseen: f32 = self.weights.iter().zip(&last).map(|(&w, &l)| w * l).sum();
        let min_other = partial_bounds
            .iter()
            .copied()
            .fold(t_unseen, f32::min);

        let determined = exact.len() >= k && exact[k - 1].dist <= min_other;
        if determined {
            exact.truncate(k);
            return (exact, true);
        }

        // Best effort: re-score the union exactly (bounded work: the union
        // is at most μ·k′ entities).
        let mut heap = TopK::new(k.max(1));
        for &id in seen.keys() {
            if let Some(row) = self.row_of(id) {
                heap.push(id, self.aggregate_row(query, row));
            }
        }
        (heap.into_sorted(), false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milvus_datagen as datagen;

    fn engine(n: usize, metric: Metric, index_type: &str, fusion: bool) -> MultiVectorEngine {
        let (text, image) = datagen::recipe_like(n, 12, 8, 5);
        let ids: Vec<i64> = (0..n as i64).collect();
        let registry = IndexRegistry::with_builtins();
        let params = BuildParams { nlist: 16, kmeans_iters: 5, ..Default::default() };
        MultiVectorEngine::build(
            metric,
            vec![text, image],
            ids,
            vec![0.6, 0.4],
            index_type,
            &registry,
            &params,
            fusion,
        )
        .unwrap()
    }

    fn query_of(e: &MultiVectorEngine, row: usize) -> (Vec<f32>, Vec<f32>) {
        (e.fields[0].get(row).to_vec(), e.fields[1].get(row).to_vec())
    }

    fn recall_of(expect: &[Neighbor], got: &[Neighbor]) -> f32 {
        let tset: std::collections::HashSet<i64> = expect.iter().map(|n| n.id).collect();
        got.iter().filter(|n| tset.contains(&n.id)).count() as f32 / expect.len() as f32
    }

    #[test]
    fn exact_self_query_returns_self() {
        let e = engine(200, Metric::L2, "FLAT", false);
        let (q0, q1) = query_of(&e, 17);
        let res = e.exact(&[&q0, &q1], 1).unwrap();
        assert_eq!(res[0].id, 17);
        assert!(res[0].dist.abs() < 1e-5);
    }

    #[test]
    fn fusion_matches_exact_for_inner_product() {
        let e = engine(300, Metric::InnerProduct, "FLAT", true);
        let (q0, q1) = query_of(&e, 3);
        let expect = e.exact(&[&q0, &q1], 10).unwrap();
        let got = e.vector_fusion(&[&q0, &q1], &SearchParams::top_k(10)).unwrap();
        assert_eq!(
            expect.iter().map(|n| n.id).collect::<Vec<_>>(),
            got.iter().map(|n| n.id).collect::<Vec<_>>()
        );
        // Scores agree too (decomposability).
        for (a, b) in expect.iter().zip(&got) {
            assert!((a.dist - b.dist).abs() < 1e-3);
        }
    }

    #[test]
    fn fusion_matches_exact_for_weighted_l2() {
        let e = engine(300, Metric::L2, "FLAT", true);
        let (q0, q1) = query_of(&e, 8);
        let expect = e.exact(&[&q0, &q1], 10).unwrap();
        let got = e.vector_fusion(&[&q0, &q1], &SearchParams::top_k(10)).unwrap();
        assert_eq!(
            expect.iter().map(|n| n.id).collect::<Vec<_>>(),
            got.iter().map(|n| n.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fusion_without_index_errors() {
        let e = engine(100, Metric::L2, "FLAT", false);
        let (q0, q1) = query_of(&e, 0);
        assert!(e.vector_fusion(&[&q0, &q1], &SearchParams::top_k(5)).is_err());
    }

    #[test]
    fn iterative_merging_beats_naive_recall() {
        let e = engine(500, Metric::L2, "FLAT", false);
        let mut naive_recall = 0.0;
        let mut img_recall = 0.0;
        for row in [5, 55, 155, 255, 355] {
            let (q0, q1) = query_of(&e, row);
            let sp = SearchParams::top_k(20);
            let expect = e.exact(&[&q0, &q1], 20).unwrap();
            let naive = e.naive(&[&q0, &q1], &sp).unwrap();
            let (img, _) = e.iterative_merging(&[&q0, &q1], &sp, 4096).unwrap();
            naive_recall += recall_of(&expect, &naive);
            img_recall += recall_of(&expect, &img);
        }
        assert!(img_recall >= naive_recall, "IMG {img_recall} < naive {naive_recall}");
        assert!(img_recall / 5.0 >= 0.9, "IMG recall too low: {}", img_recall / 5.0);
    }

    #[test]
    fn img_with_exact_lists_fully_determines() {
        let e = engine(200, Metric::L2, "FLAT", false);
        let (q0, q1) = query_of(&e, 42);
        let sp = SearchParams::top_k(5);
        let (res, trace) = e.iterative_merging(&[&q0, &q1], &sp, 16384).unwrap();
        assert!(trace.fully_determined, "{trace:?}");
        let expect = e.exact(&[&q0, &q1], 5).unwrap();
        assert_eq!(
            res.iter().map(|n| n.id).collect::<Vec<_>>(),
            expect.iter().map(|n| n.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn img_doubles_k_prime_when_needed() {
        let e = engine(400, Metric::L2, "FLAT", false);
        let (q0, q1) = query_of(&e, 9);
        let sp = SearchParams::top_k(10);
        let (_, trace) = e.iterative_merging(&[&q0, &q1], &sp, 16384).unwrap();
        assert!(trace.final_k_prime >= 10);
        assert!(trace.rounds >= 1);
    }

    #[test]
    fn nra_fixed_depth_improves_with_depth() {
        let e = engine(500, Metric::L2, "FLAT", false);
        let mut shallow = 0.0;
        let mut deep = 0.0;
        for row in [1, 101, 201] {
            let (q0, q1) = query_of(&e, row);
            let sp = SearchParams::top_k(20);
            let expect = e.exact(&[&q0, &q1], 20).unwrap();
            shallow += recall_of(&expect, &e.nra_fixed(&[&q0, &q1], &sp, 20).unwrap());
            deep += recall_of(&expect, &e.nra_fixed(&[&q0, &q1], &sp, 200).unwrap());
        }
        assert!(deep >= shallow, "deep {deep} < shallow {shallow}");
    }

    #[test]
    fn invalid_queries_rejected() {
        let e = engine(50, Metric::L2, "FLAT", false);
        let (q0, _) = query_of(&e, 0);
        // Wrong field count.
        assert!(e.exact(&[&q0], 5).is_err());
        // Wrong dimension.
        let bad = vec![0.0f32; 3];
        assert!(e.exact(&[&bad, &bad], 5).is_err());
    }

    #[test]
    fn negative_weights_rejected() {
        let (text, image) = datagen::recipe_like(50, 4, 4, 1);
        let registry = IndexRegistry::with_builtins();
        let r = MultiVectorEngine::build(
            Metric::L2,
            vec![text, image],
            (0..50).collect(),
            vec![0.5, -0.5],
            "FLAT",
            &registry,
            &BuildParams::default(),
            false,
        );
        assert!(r.is_err());
    }

    #[test]
    fn cosine_fusion_rejected() {
        let (text, image) = datagen::recipe_like(50, 4, 4, 2);
        let registry = IndexRegistry::with_builtins();
        let r = MultiVectorEngine::build(
            Metric::Cosine,
            vec![text, image],
            (0..50).collect(),
            vec![0.5, 0.5],
            "FLAT",
            &registry,
            &BuildParams::default(),
            true,
        );
        assert!(r.is_err());
    }
}

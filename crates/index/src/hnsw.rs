//! HNSW: Hierarchical Navigable Small World graph index (§2.2, Malkov &
//! Yashunin, TPAMI 2020).
//!
//! A multi-layer proximity graph. Each node is assigned a top layer drawn
//! from an exponential distribution; upper layers form an expressway for the
//! greedy descent, and layer 0 holds all nodes. Search descends greedily to
//! layer 1, then runs a beam search of width `ef` at layer 0. Construction
//! inserts nodes one at a time, linking each to `M` neighbors chosen with the
//! select-neighbors heuristic and pruning back-links to the degree bound.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::distance;
use crate::error::{IndexError, Result};
use crate::mask::RowMask;
use crate::metric::Metric;
use crate::topk::{Neighbor, TopK};
use crate::traits::{BuildParams, IndexBuilder, SearchParams, VectorIndex};
use crate::vectors::VectorSet;

/// Candidate ordered by ascending distance (for the min-heap frontier).
#[derive(PartialEq)]
struct Candidate {
    dist: f32,
    node: u32,
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want nearest-first.
        other.dist.total_cmp(&self.dist).then(other.node.cmp(&self.node))
    }
}

/// An HNSW graph index.
pub struct HnswIndex {
    metric: Metric,
    inner_metric: Metric,
    dim: usize,
    m: usize,
    m0: usize,
    vectors: VectorSet,
    ids: Vec<i64>,
    /// `layers[node][level]` = neighbor list of `node` at `level`.
    layers: Vec<Vec<Vec<u32>>>,
    entry: u32,
    max_level: usize,
}

impl HnswIndex {
    /// Build the graph over `vectors` (row `i` ↔ `ids[i]`).
    pub fn build(vectors: &VectorSet, ids: &[i64], params: &BuildParams) -> Result<Self> {
        if params.metric.is_binary() {
            return Err(IndexError::UnsupportedMetric {
                metric: params.metric.name(),
                index: "HNSW",
            });
        }
        if vectors.len() != ids.len() {
            return Err(IndexError::invalid(
                "ids",
                format!("{} ids for {} vectors", ids.len(), vectors.len()),
            ));
        }
        if vectors.is_empty() {
            return Err(IndexError::InsufficientTrainingData { need: 1, got: 0 });
        }
        if params.hnsw_m < 2 {
            return Err(IndexError::invalid("hnsw_m", "must be >= 2"));
        }

        let dim = vectors.dim();
        let (inner_metric, data) = if params.metric == Metric::Cosine {
            let mut vs = vectors.clone();
            for i in 0..vs.len() {
                distance::normalize(vs.get_mut(i));
            }
            (Metric::InnerProduct, vs)
        } else {
            (params.metric, vectors.clone())
        };

        let m = params.hnsw_m;
        let mut index = Self {
            metric: params.metric,
            inner_metric,
            dim,
            m,
            m0: m * 2,
            vectors: data,
            ids: ids.to_vec(),
            layers: Vec::with_capacity(ids.len()),
            entry: 0,
            max_level: 0,
        };

        let ml = 1.0 / (m as f64).ln();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let ef_c = params.hnsw_ef_construction.max(m + 1);
        for node in 0..index.vectors.len() {
            let level = (-(rng.gen_range(f64::MIN_POSITIVE..1.0)).ln() * ml).floor() as usize;
            index.insert(node as u32, level.min(16), ef_c);
        }
        Ok(index)
    }

    #[inline]
    fn dist(&self, a: u32, b: &[f32]) -> f32 {
        distance::distance(self.inner_metric, self.vectors.get(a as usize), b)
    }

    fn insert(&mut self, node: u32, level: usize, ef_construction: usize) {
        self.layers.push(vec![Vec::new(); level + 1]);
        if node == 0 {
            self.entry = 0;
            self.max_level = level;
            return;
        }
        let query = self.vectors.get(node as usize).to_vec();
        let mut ep = self.entry;

        // Greedy descent through layers above the node's top level.
        for l in (level + 1..=self.max_level).rev() {
            ep = self.greedy_closest(&query, ep, l);
        }

        // At each level the node occupies, beam-search then link.
        for l in (0..=level.min(self.max_level)).rev() {
            let found = self.search_layer(&query, ep, ef_construction, l);
            ep = found.first().map_or(ep, |c| c.node);
            let cap = if l == 0 { self.m0 } else { self.m };
            let selected = self.select_neighbors(&query, &found, self.m);
            for &n in &selected {
                self.layers[node as usize][l].push(n);
                self.layers[n as usize][l].push(node);
                if self.layers[n as usize][l].len() > cap {
                    self.prune(n, l, cap);
                }
            }
        }

        if level > self.max_level {
            self.max_level = level;
            self.entry = node;
        }
    }

    /// Re-select the best `cap` links of `node` at `level` after an insert
    /// pushed it over the degree bound.
    fn prune(&mut self, node: u32, level: usize, cap: usize) {
        let base = self.vectors.get(node as usize).to_vec();
        let mut cands: Vec<Candidate> = self.layers[node as usize][level]
            .iter()
            .map(|&n| Candidate { dist: self.dist(n, &base), node: n })
            .collect();
        cands.sort_by(|a, b| a.dist.total_cmp(&b.dist));
        let kept = self.select_neighbors(&base, &cands, cap);
        self.layers[node as usize][level] = kept;
    }

    /// Malkov's select-neighbors heuristic: keep a candidate only if it is
    /// closer to the query than to every already-kept neighbor (encourages
    /// spatially diverse links).
    fn select_neighbors(&self, _query: &[f32], sorted: &[Candidate], m: usize) -> Vec<u32> {
        let mut kept: Vec<u32> = Vec::with_capacity(m);
        for c in sorted {
            if kept.len() >= m {
                break;
            }
            let dominated = kept.iter().any(|&k| {
                let d = distance::distance(
                    self.inner_metric,
                    self.vectors.get(c.node as usize),
                    self.vectors.get(k as usize),
                );
                d < c.dist
            });
            if !dominated {
                kept.push(c.node);
            }
        }
        // Backfill with nearest remaining if the heuristic was too strict.
        if kept.len() < m {
            for c in sorted {
                if kept.len() >= m {
                    break;
                }
                if !kept.contains(&c.node) {
                    kept.push(c.node);
                }
            }
        }
        kept
    }

    /// One-step-at-a-time greedy walk toward `query` at `level`.
    fn greedy_closest(&self, query: &[f32], start: u32, level: usize) -> u32 {
        let mut cur = start;
        let mut cur_d = self.dist(cur, query);
        loop {
            let mut improved = false;
            for &n in &self.layers[cur as usize][level] {
                let d = self.dist(n, query);
                if d < cur_d {
                    cur = n;
                    cur_d = d;
                    improved = true;
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    /// Beam search of width `ef` at `level`; returns candidates sorted
    /// ascending by distance.
    fn search_layer(&self, query: &[f32], entry: u32, ef: usize, level: usize) -> Vec<Candidate> {
        let mut visited = vec![false; self.layers.len()];
        let mut frontier = std::collections::BinaryHeap::new();
        let mut best = TopK::new(ef.max(1));
        let d0 = self.dist(entry, query);
        visited[entry as usize] = true;
        frontier.push(Candidate { dist: d0, node: entry });
        best.push(entry as i64, d0);

        while let Some(c) = frontier.pop() {
            if c.dist > best.threshold() {
                break;
            }
            // A node inserted later can reference this one before this node's
            // own layer list grows; guard against levels it doesn't have.
            if level >= self.layers[c.node as usize].len() {
                continue;
            }
            for &n in &self.layers[c.node as usize][level] {
                if !visited[n as usize] {
                    visited[n as usize] = true;
                    let d = self.dist(n, query);
                    if d < best.threshold() {
                        best.push(n as i64, d);
                        frontier.push(Candidate { dist: d, node: n });
                    }
                }
            }
        }
        best.into_sorted()
            .into_iter()
            .map(|n| Candidate { dist: n.dist, node: n.id as u32 })
            .collect()
    }

    fn search_impl(
        &self,
        query: &[f32],
        params: &SearchParams,
        mask: Option<&RowMask>,
    ) -> Result<Vec<Neighbor>> {
        if query.len() != self.dim {
            return Err(IndexError::DimensionMismatch { expected: self.dim, got: query.len() });
        }
        let mut q = query.to_vec();
        if self.metric == Metric::Cosine {
            distance::normalize(&mut q);
        }
        let mut ep = self.entry;
        for l in (1..=self.max_level).rev() {
            ep = self.greedy_closest(&q, ep, l);
        }
        let ef = params.ef.max(params.k);
        let found = self.search_layer(&q, ep, ef, 0);
        let mut heap = TopK::new(params.k.max(1));
        for c in found {
            if mask.is_none_or(|m| m.get(c.node as usize)) {
                heap.push(self.ids[c.node as usize], c.dist);
            }
        }
        Ok(heap.into_sorted())
    }
}

impl VectorIndex for HnswIndex {
    fn name(&self) -> &'static str {
        "HNSW"
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn len(&self) -> usize {
        self.vectors.len()
    }

    fn search(&self, query: &[f32], params: &SearchParams) -> Result<Vec<Neighbor>> {
        self.search_impl(query, params, None)
    }

    fn search_masked(
        &self,
        query: &[f32],
        params: &SearchParams,
        mask: &RowMask,
    ) -> Result<Vec<Neighbor>> {
        mask.check_covers(self.len())?;
        self.search_impl(query, params, Some(mask))
    }

    fn memory_bytes(&self) -> usize {
        let links: usize = self
            .layers
            .iter()
            .map(|node| node.iter().map(|l| l.len() * 4).sum::<usize>())
            .sum();
        self.vectors.memory_bytes() + links + self.ids.len() * 8
    }
}

/// Registry builder for [`HnswIndex`].
pub struct HnswBuilder;

impl IndexBuilder for HnswBuilder {
    fn name(&self) -> &'static str {
        "HNSW"
    }

    fn build(
        &self,
        vectors: &VectorSet,
        ids: &[i64],
        params: &BuildParams,
    ) -> Result<Box<dyn VectorIndex>> {
        Ok(Box::new(HnswIndex::build(vectors, ids, params)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_data(n: usize, dim: usize, seed: u64) -> (VectorSet, Vec<i64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vs = VectorSet::new(dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            vs.push(&v);
        }
        (vs, (0..n as i64).collect())
    }

    fn recall(metric: Metric, ef: usize, n: usize) -> f32 {
        let (vs, ids) = random_data(n, 12, 42);
        let params = BuildParams { metric, hnsw_m: 12, hnsw_ef_construction: 100, ..Default::default() };
        let hnsw = HnswIndex::build(&vs, &ids, &params).unwrap();
        let flat = FlatIndex::build(metric, vs.clone(), ids.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut hits = 0;
        let mut total = 0;
        for _ in 0..30 {
            let q: Vec<f32> = (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let sp = SearchParams { k: 10, ef, ..Default::default() };
            let truth: std::collections::HashSet<i64> =
                flat.search(&q, &sp).unwrap().iter().map(|x| x.id).collect();
            let got = hnsw.search(&q, &sp).unwrap();
            hits += got.iter().filter(|x| truth.contains(&x.id)).count();
            total += truth.len();
        }
        hits as f32 / total as f32
    }

    #[test]
    fn high_recall_l2() {
        assert!(recall(Metric::L2, 128, 500) >= 0.9);
    }

    #[test]
    fn recall_grows_with_ef() {
        let lo = recall(Metric::L2, 10, 500);
        let hi = recall(Metric::L2, 200, 500);
        assert!(hi >= lo);
        assert!(hi >= 0.9);
    }

    #[test]
    fn cosine_supported() {
        assert!(recall(Metric::Cosine, 128, 400) >= 0.85);
    }

    #[test]
    fn single_point_graph() {
        let (vs, ids) = random_data(1, 4, 1);
        let hnsw = HnswIndex::build(&vs, &ids, &BuildParams::default()).unwrap();
        let res = hnsw.search(vs.get(0), &SearchParams::top_k(5)).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].id, 0);
    }

    #[test]
    fn filtered_search() {
        let (vs, ids) = random_data(200, 8, 3);
        let hnsw = HnswIndex::build(&vs, &ids, &BuildParams::default()).unwrap();
        let upper_half = RowMask::from_positions(200, &(100..200).collect::<Vec<u32>>());
        let sp = SearchParams { k: 10, ef: 100, ..Default::default() };
        let res = hnsw.search_masked(vs.get(0), &sp, &upper_half).unwrap();
        assert!(res.iter().all(|n| n.id >= 100));
        assert!(!res.is_empty());
    }

    #[test]
    fn self_query_returns_self_first() {
        let (vs, ids) = random_data(300, 8, 9);
        let hnsw = HnswIndex::build(&vs, &ids, &BuildParams::default()).unwrap();
        let res = hnsw.search(vs.get(42), &SearchParams { k: 1, ef: 64, ..Default::default() }).unwrap();
        assert_eq!(res[0].id, 42);
    }

    #[test]
    fn rejects_small_m() {
        let (vs, ids) = random_data(10, 4, 1);
        let params = BuildParams { hnsw_m: 1, ..Default::default() };
        assert!(HnswIndex::build(&vs, &ids, &params).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let (vs, ids) = random_data(200, 8, 5);
        let p = BuildParams::default();
        let a = HnswIndex::build(&vs, &ids, &p).unwrap();
        let b = HnswIndex::build(&vs, &ids, &p).unwrap();
        let q = vs.get(17);
        let sp = SearchParams { k: 10, ef: 50, ..Default::default() };
        assert_eq!(a.search(q, &sp).unwrap(), b.search(q, &sp).unwrap());
    }
}

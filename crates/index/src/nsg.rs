//! NSG: Navigating Spreading-out Graph index (§2.2, Fu et al., VLDB 2019 — the
//! paper calls it RNSG).
//!
//! A single-layer proximity graph with a designated *navigating node* (the
//! medoid). Construction: (1) an approximate kNN graph is produced with a
//! throw-away HNSW; (2) each node's candidate pool (kNN ∪ nodes visited while
//! searching the node from the medoid) is pruned with the MRNG edge-selection
//! rule bounding out-degree to `R`; (3) a spanning pass from the medoid
//! guarantees connectivity. Search is a beam search from the medoid.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::distance;
use crate::error::{IndexError, Result};
use crate::kmeans::{cores, par_chunks};
use crate::mask::RowMask;
use crate::hnsw::HnswIndex;
use crate::metric::Metric;
use crate::topk::{Neighbor, TopK};
use crate::traits::{graph_build_input, BuildParams, IndexBuilder, SearchParams, VectorIndex};
use crate::vectors::VectorSet;

/// An NSG graph index.
pub struct NsgIndex {
    metric: Metric,
    inner_metric: Metric,
    dim: usize,
    vectors: VectorSet,
    ids: Vec<i64>,
    adjacency: Vec<Vec<u32>>,
    medoid: u32,
}

impl NsgIndex {
    /// Build the graph over `vectors` (row `i` ↔ `ids[i]`).
    pub fn build(vectors: &VectorSet, ids: &[i64], params: &BuildParams) -> Result<Self> {
        let (inner_metric, data) = graph_build_input(vectors, ids, params.metric, "NSG")?;
        let dim = vectors.dim();
        let n = data.len();
        let r = params.nsg_out_degree.max(2);

        // Step 1: approximate kNN lists from a scaffold HNSW over the same
        // (already normalized) data with its internal metric.
        let scaffold_params = BuildParams {
            metric: inner_metric,
            hnsw_m: r.clamp(4, 24),
            hnsw_ef_construction: (2 * r).max(64),
            seed: params.seed ^ 0x004E_5347,
            ..params.clone()
        };
        let scaffold_ids: Vec<i64> = (0..n as i64).collect();
        let scaffold = HnswIndex::build(&data, &scaffold_ids, &scaffold_params)?;

        // Step 2: medoid = point nearest the centroid.
        let mut centroid = vec![0.0f32; dim];
        for row in data.iter() {
            for (d, &x) in row.iter().enumerate() {
                centroid[d] += x;
            }
        }
        for x in centroid.iter_mut() {
            *x /= n as f32;
        }
        let medoid = (0..n)
            .min_by(|&a, &b| {
                distance::l2_sq(data.get(a), &centroid)
                    .total_cmp(&distance::l2_sq(data.get(b), &centroid))
            })
            .expect("non-empty") as u32;

        // Step 3: approximate kNN lists for every node (the base graph).
        let pool_size = (2 * r).max(16);
        let sp = SearchParams { k: pool_size, ef: (2 * pool_size).max(64), ..Default::default() };
        let mut knn: Vec<Vec<u32>> = vec![Vec::new(); n];
        par_chunks(&mut knn, cores(), |first, chunk| {
            for (node, list) in (first..).zip(chunk) {
                *list = scaffold
                    .search(data.get(node), &sp)
                    .unwrap_or_default()
                    .into_iter()
                    .filter(|c| c.id as usize != node)
                    .map(|c| c.id as u32)
                    .collect();
            }
        });

        // Step 4: per-node candidate pool = kNN ∪ nodes visited while
        // searching the node from the medoid over the kNN graph (this is
        // what gives NSG its navigable long-range edges: the visited set
        // spans the route from the navigating node), then MRNG pruning.
        let medoid_u = medoid;
        // A few pseudo-random long-link candidates per node keep the graph
        // navigable even when the data forms well-separated islands (the
        // small-world ingredient; MRNG pruning keeps only the non-dominated
        // directions).
        let n_random = ((n as f64).log2().ceil() as usize).clamp(4, 32);
        let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
        par_chunks(&mut adjacency, cores(), |first, chunk| {
            for (node, links) in (first..).zip(chunk) {
                let query = data.get(node);
                let visited =
                    knn_graph_search(&data, inner_metric, &knn, medoid_u, query, pool_size);
                let mut rng = StdRng::seed_from_u64(
                    params.seed ^ 0x105 ^ (node as u64).wrapping_mul(0x9E37_79B9),
                );
                let randoms = (0..n_random).map(|_| {
                    let c = rng.gen_range(0..n);
                    Neighbor::new(
                        c as i64,
                        distance::distance(inner_metric, query, data.get(c)),
                    )
                });
                let mut pool: Vec<Neighbor> = knn[node]
                    .iter()
                    .map(|&c| {
                        Neighbor::new(
                            c as i64,
                            distance::distance(inner_metric, query, data.get(c as usize)),
                        )
                    })
                    .chain(visited)
                    .chain(randoms)
                    .filter(|c| c.id as usize != node)
                    .collect();
                // Duplicates of an id carry identical distances, so the
                // (dist, id) sort makes them adjacent for dedup.
                pool.sort_unstable();
                pool.dedup_by_key(|c| c.id);
                *links = mrng_prune(&data, inner_metric, query, &pool, r);
            }
        });

        let mut index = Self {
            metric: params.metric,
            inner_metric,
            dim,
            vectors: data,
            ids: ids.to_vec(),
            adjacency,
            medoid,
        };
        index.ensure_connected();
        Ok(index)
    }

    /// DFS from the medoid; any unreached node gets a bridging edge from its
    /// nearest reached candidate (the NSG "spanning" pass).
    fn ensure_connected(&mut self) {
        let n = self.vectors.len();
        let mut seen = vec![false; n];
        let mut stack = vec![self.medoid];
        seen[self.medoid as usize] = true;
        let mut reached = 1usize;
        while let Some(u) = stack.pop() {
            for &v in &self.adjacency[u as usize] {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    reached += 1;
                    stack.push(v);
                }
            }
        }
        if reached == n {
            return;
        }
        for node in 0..n {
            if !seen[node] {
                // Bridge from the nearest reached node (linear scan is fine:
                // unreached nodes are rare on realistic data).
                let query = self.vectors.get(node).to_vec();
                let mut best = (self.medoid, f32::INFINITY);
                for (cand, &reached) in seen.iter().enumerate() {
                    if reached {
                        let d = distance::distance(
                            self.inner_metric,
                            &query,
                            self.vectors.get(cand),
                        );
                        if d < best.1 {
                            best = (cand as u32, d);
                        }
                    }
                }
                self.adjacency[best.0 as usize].push(node as u32);
                self.adjacency[node].push(best.0);
                // Newly reached: flood from it.
                let mut stack = vec![node as u32];
                seen[node] = true;
                while let Some(u) = stack.pop() {
                    for &v in &self.adjacency[u as usize].clone() {
                        if !seen[v as usize] {
                            seen[v as usize] = true;
                            stack.push(v);
                        }
                    }
                }
            }
        }
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
        let ef = params.ef.max(params.k).max(1);
        let n = self.vectors.len();
        let mut visited = vec![false; n];
        let mut best = TopK::new(ef);
        // Min-heap frontier keyed by distance: Reverse(Neighbor) with the
        // node index stored in the id field.
        let mut frontier = std::collections::BinaryHeap::new();
        let d0 = distance::distance(self.inner_metric, &q, self.vectors.get(self.medoid as usize));
        visited[self.medoid as usize] = true;
        best.push(self.medoid as i64, d0);
        frontier.push(std::cmp::Reverse(Neighbor::new(self.medoid as i64, d0)));

        while let Some(std::cmp::Reverse(cur)) = frontier.pop() {
            if cur.dist > best.threshold() && best.len() >= ef {
                break;
            }
            let node = cur.id as u32;
            for &nb in &self.adjacency[node as usize] {
                if !visited[nb as usize] {
                    visited[nb as usize] = true;
                    let dd = distance::distance(
                        self.inner_metric,
                        &q,
                        self.vectors.get(nb as usize),
                    );
                    if dd < best.threshold() {
                        best.push(nb as i64, dd);
                        frontier.push(std::cmp::Reverse(Neighbor::new(nb as i64, dd)));
                    }
                }
            }
        }

        let mut heap = TopK::new(params.k.max(1));
        for cand in best.into_sorted() {
            if mask.is_none_or(|m| m.get(cand.id as usize)) {
                heap.push(self.ids[cand.id as usize], cand.dist);
            }
        }
        Ok(heap.into_sorted())
    }
}

/// Beam search over the intermediate kNN graph from `start`, returning the
/// visited nodes with their distances to `query` (bounded by `4 * width`).
fn knn_graph_search(
    data: &VectorSet,
    metric: Metric,
    knn: &[Vec<u32>],
    start: u32,
    query: &[f32],
    width: usize,
) -> Vec<Neighbor> {
    let n = knn.len();
    let cap = (4 * width).max(8);
    let mut visited_set = vec![false; n];
    let mut visited: Vec<Neighbor> = Vec::with_capacity(cap);
    let mut best = TopK::new(width.max(1));
    let mut frontier = std::collections::BinaryHeap::new();
    let d0 = distance::distance(metric, query, data.get(start as usize));
    visited_set[start as usize] = true;
    visited.push(Neighbor::new(start as i64, d0));
    best.push(start as i64, d0);
    frontier.push(std::cmp::Reverse(Neighbor::new(start as i64, d0)));

    while let Some(std::cmp::Reverse(cur)) = frontier.pop() {
        if cur.dist > best.threshold() || visited.len() >= cap {
            break;
        }
        for &nb in &knn[cur.id as usize] {
            if !visited_set[nb as usize] {
                visited_set[nb as usize] = true;
                let d = distance::distance(metric, query, data.get(nb as usize));
                visited.push(Neighbor::new(nb as i64, d));
                if d < best.threshold() {
                    best.push(nb as i64, d);
                    frontier.push(std::cmp::Reverse(Neighbor::new(nb as i64, d)));
                }
                if visited.len() >= cap {
                    break;
                }
            }
        }
    }
    visited
}

/// MRNG edge selection: keep a candidate only if no already-kept neighbor is
/// closer to it than the query is (same dominance rule HNSW uses).
fn mrng_prune(
    data: &VectorSet,
    metric: Metric,
    _query: &[f32],
    sorted_cands: &[Neighbor],
    r: usize,
) -> Vec<u32> {
    let mut kept: Vec<u32> = Vec::with_capacity(r);
    for c in sorted_cands {
        if kept.len() >= r {
            break;
        }
        let cu = c.id as usize;
        let dominated = kept.iter().any(|&k| {
            distance::distance(metric, data.get(cu), data.get(k as usize)) < c.dist
        });
        if !dominated {
            kept.push(c.id as u32);
        }
    }
    if kept.len() < r {
        for c in sorted_cands {
            if kept.len() >= r {
                break;
            }
            if !kept.contains(&(c.id as u32)) {
                kept.push(c.id as u32);
            }
        }
    }
    kept
}

impl VectorIndex for NsgIndex {
    fn name(&self) -> &'static str {
        "NSG"
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
        let links: usize = self.adjacency.iter().map(|l| l.len() * 4).sum();
        self.vectors.memory_bytes() + links + self.ids.len() * 8
    }
}

/// Registry builder for [`NsgIndex`].
pub struct NsgBuilder;

impl IndexBuilder for NsgBuilder {
    fn name(&self) -> &'static str {
        "NSG"
    }

    fn build(
        &self,
        vectors: &VectorSet,
        ids: &[i64],
        params: &BuildParams,
    ) -> Result<Box<dyn VectorIndex>> {
        Ok(Box::new(NsgIndex::build(vectors, ids, params)?))
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

    #[test]
    fn decent_recall_l2() {
        let (vs, ids) = random_data(400, 10, 21);
        let params = BuildParams { nsg_out_degree: 16, ..Default::default() };
        let nsg = NsgIndex::build(&vs, &ids, &params).unwrap();
        let flat = FlatIndex::build(Metric::L2, vs.clone(), ids.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut hits = 0;
        let mut total = 0;
        for _ in 0..25 {
            let q: Vec<f32> = (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let sp = SearchParams { k: 10, ef: 100, ..Default::default() };
            let truth: std::collections::HashSet<i64> =
                flat.search(&q, &sp).unwrap().iter().map(|x| x.id).collect();
            let got = nsg.search(&q, &sp).unwrap();
            hits += got.iter().filter(|x| truth.contains(&x.id)).count();
            total += truth.len();
        }
        assert!(hits as f32 / total as f32 >= 0.8, "recall {}", hits as f32 / total as f32);
    }

    #[test]
    fn graph_is_connected_from_medoid() {
        let (vs, ids) = random_data(200, 6, 3);
        let nsg = NsgIndex::build(&vs, &ids, &BuildParams::default()).unwrap();
        let n = nsg.vectors.len();
        let mut seen = vec![false; n];
        let mut stack = vec![nsg.medoid];
        seen[nsg.medoid as usize] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in &nsg.adjacency[u as usize] {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        assert_eq!(count, n);
    }

    #[test]
    fn out_degree_mostly_bounded() {
        let (vs, ids) = random_data(300, 6, 9);
        let params = BuildParams { nsg_out_degree: 8, ..Default::default() };
        let nsg = NsgIndex::build(&vs, &ids, &params).unwrap();
        // Bridging edges may exceed R slightly; the bulk must respect it.
        let over = nsg.adjacency.iter().filter(|l| l.len() > 8 + 2).count();
        assert!(over * 10 < 300, "{over} nodes grossly over degree bound");
    }

    #[test]
    fn single_node() {
        let (vs, ids) = random_data(1, 4, 2);
        let nsg = NsgIndex::build(&vs, &ids, &BuildParams::default()).unwrap();
        let res = nsg.search(vs.get(0), &SearchParams::top_k(3)).unwrap();
        assert_eq!(res.len(), 1);
    }

    #[test]
    fn filtered_search() {
        let (vs, ids) = random_data(150, 6, 13);
        let nsg = NsgIndex::build(&vs, &ids, &BuildParams::default()).unwrap();
        let lower_half = RowMask::from_positions(150, &(0..75).collect::<Vec<u32>>());
        let sp = SearchParams { k: 5, ef: 64, ..Default::default() };
        let res = nsg.search_masked(vs.get(0), &sp, &lower_half).unwrap();
        assert!(!res.is_empty());
        assert!(res.iter().all(|x| x.id < 75));
    }
}

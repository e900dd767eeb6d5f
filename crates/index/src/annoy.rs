//! Annoy-style random-projection forest (§2.2 footnote 3: "Milvus also
//! supports tree-based indexes, e.g., ANNOY").
//!
//! Each tree recursively splits the points by the hyperplane equidistant from
//! two randomly chosen points, until leaves hold at most `LEAF_SIZE` points.
//! Search walks every tree with a shared priority queue ordered by hyperplane
//! margin, collecting candidate leaves until `search_nodes` candidates have
//! been gathered, then scores the unique candidates exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::distance;
use crate::error::{IndexError, Result};
use crate::mask::RowMask;
use crate::metric::Metric;
use crate::topk::{Neighbor, TopK};
use crate::traits::{graph_build_input, BuildParams, IndexBuilder, SearchParams, VectorIndex};
use crate::vectors::VectorSet;

const LEAF_SIZE: usize = 16;

/// One node of a projection tree.
enum TreeNode {
    /// Internal split: hyperplane normal + offset, children indices.
    Split { normal: Vec<f32>, offset: f32, left: u32, right: u32 },
    /// Leaf: row indices.
    Leaf(Vec<u32>),
}

/// A forest of random-projection trees.
pub struct AnnoyIndex {
    metric: Metric,
    inner_metric: Metric,
    dim: usize,
    vectors: VectorSet,
    ids: Vec<i64>,
    /// Per-tree node arenas; node 0 is each tree's root.
    trees: Vec<Vec<TreeNode>>,
}

impl AnnoyIndex {
    /// Build `params.annoy_n_trees` trees over `vectors`.
    pub fn build(vectors: &VectorSet, ids: &[i64], params: &BuildParams) -> Result<Self> {
        let (inner_metric, data) = graph_build_input(vectors, ids, params.metric, "ANNOY")?;
        if params.annoy_n_trees == 0 {
            return Err(IndexError::invalid("annoy_n_trees", "must be >= 1"));
        }
        let dim = vectors.dim();

        let mut rng = StdRng::seed_from_u64(params.seed ^ 0xA220);
        let all_rows: Vec<u32> = (0..data.len() as u32).collect();
        let trees = (0..params.annoy_n_trees)
            .map(|_| {
                let mut arena = Vec::new();
                build_subtree(&data, &all_rows, &mut arena, &mut rng);
                arena
            })
            .collect();

        Ok(Self { metric: params.metric, inner_metric, dim, vectors: data, ids: ids.to_vec(), trees })
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
        let budget = params.search_nodes.max(params.k);

        // Max-heap over (priority, tree, node): the near side of a split gets
        // +|margin| (confident, explored first); the far side gets -|margin|,
        // so far sides of *close* splits re-open before far sides of distant
        // ones.
        let mut pq: std::collections::BinaryHeap<(Neighbor, u32, u32)> =
            std::collections::BinaryHeap::new();
        for (t, _) in self.trees.iter().enumerate() {
            pq.push((Neighbor::new(0, f32::INFINITY), t as u32, 0));
        }
        let mut candidates: Vec<u32> = Vec::with_capacity(budget * 2);
        while let Some((_, tree, node)) = pq.pop() {
            if candidates.len() >= budget {
                break;
            }
            match &self.trees[tree as usize][node as usize] {
                TreeNode::Leaf(rows) => candidates.extend_from_slice(rows),
                TreeNode::Split { normal, offset, left, right } => {
                    let margin = distance::inner_product(&q, normal) - offset;
                    let (near, far) = if margin <= 0.0 { (*left, *right) } else { (*right, *left) };
                    pq.push((Neighbor::new(0, margin.abs()), tree, near));
                    pq.push((Neighbor::new(0, -margin.abs()), tree, far));
                }
            }
        }

        candidates.sort_unstable();
        candidates.dedup();
        let mut heap = TopK::new(params.k.max(1));
        for row in candidates {
            if mask.is_none_or(|m| m.get(row as usize)) {
                let d = distance::distance(self.inner_metric, &q, self.vectors.get(row as usize));
                heap.push(self.ids[row as usize], d);
            }
        }
        Ok(heap.into_sorted())
    }
}

/// Recursively build a subtree over `rows`; returns the arena index.
fn build_subtree(
    data: &VectorSet,
    rows: &[u32],
    arena: &mut Vec<TreeNode>,
    rng: &mut StdRng,
) -> u32 {
    let my_idx = arena.len() as u32;
    if rows.len() <= LEAF_SIZE {
        arena.push(TreeNode::Leaf(rows.to_vec()));
        return my_idx;
    }
    // Hyperplane through the midpoint of two random points.
    let _ = data.dim();
    let mut split = None;
    for _ in 0..5 {
        let a = rows[rng.gen_range(0..rows.len())] as usize;
        let b = rows[rng.gen_range(0..rows.len())] as usize;
        if a == b {
            continue;
        }
        let va = data.get(a);
        let vb = data.get(b);
        let normal: Vec<f32> = va.iter().zip(vb).map(|(x, y)| x - y).collect();
        if distance::norm_sq(&normal) == 0.0 {
            continue;
        }
        let mid: Vec<f32> = va.iter().zip(vb).map(|(x, y)| (x + y) / 2.0).collect();
        let offset = distance::inner_product(&normal, &mid);
        split = Some((normal, offset));
        break;
    }
    let Some((normal, offset)) = split else {
        // Degenerate (all points identical): make a leaf even if oversized.
        arena.push(TreeNode::Leaf(rows.to_vec()));
        return my_idx;
    };

    let mut left_rows = Vec::new();
    let mut right_rows = Vec::new();
    for &r in rows {
        let side = distance::inner_product(data.get(r as usize), &normal) - offset;
        if side <= 0.0 {
            left_rows.push(r);
        } else {
            right_rows.push(r);
        }
    }
    if left_rows.is_empty() || right_rows.is_empty() {
        arena.push(TreeNode::Leaf(rows.to_vec()));
        return my_idx;
    }
    // Reserve our slot, then build children.
    arena.push(TreeNode::Leaf(Vec::new()));
    let left = build_subtree(data, &left_rows, arena, rng);
    let right = build_subtree(data, &right_rows, arena, rng);
    arena[my_idx as usize] = TreeNode::Split { normal, offset, left, right };
    my_idx
}

impl VectorIndex for AnnoyIndex {
    fn name(&self) -> &'static str {
        "ANNOY"
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
        let trees: usize = self
            .trees
            .iter()
            .map(|t| {
                t.iter()
                    .map(|n| match n {
                        TreeNode::Split { normal, .. } => normal.len() * 4 + 16,
                        TreeNode::Leaf(rows) => rows.len() * 4,
                    })
                    .sum::<usize>()
            })
            .sum();
        self.vectors.memory_bytes() + trees + self.ids.len() * 8
    }
}

/// Registry builder for [`AnnoyIndex`].
pub struct AnnoyBuilder;

impl IndexBuilder for AnnoyBuilder {
    fn name(&self) -> &'static str {
        "ANNOY"
    }

    fn build(
        &self,
        vectors: &VectorSet,
        ids: &[i64],
        params: &BuildParams,
    ) -> Result<Box<dyn VectorIndex>> {
        Ok(Box::new(AnnoyIndex::build(vectors, ids, params)?))
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
    fn decent_recall() {
        let (vs, ids) = random_data(500, 8, 31);
        let params = BuildParams { annoy_n_trees: 12, ..Default::default() };
        let annoy = AnnoyIndex::build(&vs, &ids, &params).unwrap();
        let flat = FlatIndex::build(Metric::L2, vs.clone(), ids.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let mut hits = 0;
        let mut total = 0;
        for _ in 0..25 {
            let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let sp = SearchParams { k: 10, search_nodes: 300, ..Default::default() };
            let truth: std::collections::HashSet<i64> =
                flat.search(&q, &sp).unwrap().iter().map(|x| x.id).collect();
            let got = annoy.search(&q, &sp).unwrap();
            hits += got.iter().filter(|x| truth.contains(&x.id)).count();
            total += truth.len();
        }
        assert!(hits as f32 / total as f32 >= 0.7, "recall {}", hits as f32 / total as f32);
    }

    #[test]
    fn more_search_nodes_no_worse_recall() {
        let (vs, ids) = random_data(400, 8, 5);
        let annoy = AnnoyIndex::build(&vs, &ids, &BuildParams::default()).unwrap();
        let flat = FlatIndex::build(Metric::L2, vs.clone(), ids.clone()).unwrap();
        let q = vs.get(7).to_vec();
        let truth: std::collections::HashSet<i64> = flat
            .search(&q, &SearchParams::top_k(10))
            .unwrap()
            .iter()
            .map(|x| x.id)
            .collect();
        let r = |nodes| {
            let sp = SearchParams { k: 10, search_nodes: nodes, ..Default::default() };
            annoy
                .search(&q, &sp)
                .unwrap()
                .iter()
                .filter(|x| truth.contains(&x.id))
                .count()
        };
        assert!(r(400) >= r(20));
    }

    #[test]
    fn duplicate_points_build_ok() {
        let mut vs = VectorSet::new(4);
        for _ in 0..100 {
            vs.push(&[1.0, 2.0, 3.0, 4.0]);
        }
        let ids: Vec<i64> = (0..100).collect();
        let annoy = AnnoyIndex::build(&vs, &ids, &BuildParams::default()).unwrap();
        let res = annoy.search(&[1.0, 2.0, 3.0, 4.0], &SearchParams::top_k(5)).unwrap();
        assert_eq!(res.len(), 5);
        assert!(res[0].dist < 1e-6);
    }

    #[test]
    fn filtered_search() {
        let (vs, ids) = random_data(200, 6, 17);
        let annoy = AnnoyIndex::build(&vs, &ids, &BuildParams::default()).unwrap();
        let sp = SearchParams { k: 10, search_nodes: 200, ..Default::default() };
        let thirds: Vec<u32> = (0..200).filter(|r| r % 3 == 0).collect();
        let res = annoy.search_masked(vs.get(0), &sp, &RowMask::from_positions(200, &thirds)).unwrap();
        assert!(!res.is_empty());
        assert!(res.iter().all(|x| x.id % 3 == 0));
    }

    #[test]
    fn zero_trees_rejected() {
        let (vs, ids) = random_data(10, 4, 1);
        let params = BuildParams { annoy_n_trees: 0, ..Default::default() };
        assert!(AnnoyIndex::build(&vs, &ids, &params).is_err());
    }
}

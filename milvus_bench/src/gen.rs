//! Seeded input generation and the benchmark's own exact reference search.
//!
//! Everything the program under test is fed comes from here, derived from
//! `--seed` alone, with the benchmark's own generator (not the repository's
//! `milvus-datagen`), so that a change to the repository cannot change the
//! inputs. The reference search is a plain scalar loop for the same reason:
//! it must not share a distance kernel with the code it checks.

use milvus_index::VectorSet;

/// SplitMix64: small, fast, and good enough for synthetic vectors.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct streams never share state.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Standard normal (Box–Muller).
    pub fn gaussian(&mut self) -> f32 {
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }
}

/// FNV-1a over everything fed to the program, so two runs can prove they
/// used identical inputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn f32s(&mut self, xs: &[f32]) {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    pub fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Attribute values are uniform in `[0, ATTR_MAX)`.
pub const ATTR_MAX: f64 = 10_000.0;

/// The passing fractions the per-layer probes time each strategy at, with
/// their labels.
pub const SELECTIVITIES: [(&str, f64); 4] =
    [("s01", 0.01), ("s10", 0.10), ("s50", 0.50), ("s90", 0.90)];

/// The passing fractions the filtered workload cycles through: the four
/// above and 30 %. Each class of predicate has its own cost, so the latency
/// distribution has one mode per class; with an even number of equally
/// frequent classes the median would sit on the boundary between two modes,
/// where it does not repeat. With five it sits inside the middle one.
pub const SWEEP: [f64; 5] = [0.01, 0.10, 0.30, 0.50, 0.90];

/// One filtered query's range predicate.
#[derive(Debug, Clone, Copy)]
pub struct Predicate {
    /// Share of the attribute range (and so of the rows) that passes.
    pub pass: f64,
    pub lo: f64,
    pub hi: f64,
}

impl Predicate {
    pub fn matches(&self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }
}

/// All inputs of one run.
pub struct Dataset {
    pub dim: usize,
    /// Base rows; row `i` has id `i`.
    pub base: VectorSet,
    /// One attribute value per base row.
    pub attrs: Vec<f64>,
    /// Rows inserted while the run is measured; extra row `j` has id
    /// `base.len() + j`.
    pub extra: VectorSet,
    pub extra_attrs: Vec<f64>,
    pub queries: VectorSet,
    /// One predicate per query slot, cycling [`SWEEP`] in a seeded order.
    pub predicates: Vec<Predicate>,
    pub inputs_fnv: u64,
}

impl Dataset {
    /// `n` base rows around `n / 100` Gaussian clusters (byte-ranged like SIFT
    /// descriptors); `n_extra` extra rows and `nq` queries that are perturbed
    /// base rows.
    pub fn generate(seed: u64, n: usize, n_extra: usize, dim: usize, nq: usize) -> Dataset {
        let n_clusters = (n / 100).clamp(16, 1024);
        let (lo, hi, spread) = (0.0f32, 218.0f32, 70.0f32);
        let mut rng = Rng::new(seed, 1);
        let centers: Vec<f32> = (0..n_clusters * dim)
            .map(|_| lo + (hi - lo) * rng.unit() as f32)
            .collect();
        let point = |rng: &mut Rng, out: &mut VectorSet, row: &mut Vec<f32>| {
            let c = rng.below(n_clusters);
            row.clear();
            row.extend(
                centers[c * dim..(c + 1) * dim]
                    .iter()
                    .map(|&x| (x + rng.gaussian() * spread).clamp(lo, hi)),
            );
            out.push(row);
        };
        let mut row = Vec::with_capacity(dim);
        let mut base = VectorSet::with_capacity(dim, n);
        for _ in 0..n {
            point(&mut rng, &mut base, &mut row);
        }
        // Rows written while the run is measured: each a base row moved a
        // little (uniform noise is all the write path needs, and cheap).
        let mut extra = VectorSet::with_capacity(dim, n_extra);
        let mut rng_extra = Rng::new(seed, 2);
        for _ in 0..n_extra {
            let src = base.get(rng_extra.below(n));
            row.clear();
            row.extend(
                src.iter()
                    .map(|&x| x + (rng_extra.unit() as f32 - 0.5) * 8.0),
            );
            extra.push(&row);
        }

        let mut rng_attr = Rng::new(seed, 3);
        let attrs: Vec<f64> = (0..n).map(|_| rng_attr.unit() * ATTR_MAX).collect();
        let extra_attrs: Vec<f64> = (0..n_extra).map(|_| rng_attr.unit() * ATTR_MAX).collect();

        let mut rng_q = Rng::new(seed, 4);
        let mut queries = VectorSet::with_capacity(dim, nq);
        for _ in 0..nq {
            let src = base.get(rng_q.below(n));
            row.clear();
            row.extend(src.iter().map(|&x| x + rng_q.gaussian() * 2.0));
            queries.push(&row);
        }

        // Each block of five query slots visits the five passing fractions
        // in a seeded order, so every stretch of the run sees the same mix.
        let mut rng_p = Rng::new(seed, 5);
        let mut predicates = Vec::with_capacity(nq);
        let mut order = SWEEP;
        for slot in 0..nq {
            if slot % SWEEP.len() == 0 {
                for i in (1..SWEEP.len()).rev() {
                    order.swap(i, rng_p.below(i + 1));
                }
            }
            let pass = order[slot % SWEEP.len()];
            let width = pass * ATTR_MAX;
            let lo = rng_p.unit() * (ATTR_MAX - width);
            predicates.push(Predicate {
                pass,
                lo,
                hi: lo + width,
            });
        }

        let mut fnv = Fnv::default();
        fnv.f32s(base.as_flat());
        fnv.f32s(extra.as_flat());
        fnv.f64s(&attrs);
        fnv.f64s(&extra_attrs);
        fnv.f32s(queries.as_flat());
        for p in &predicates {
            fnv.f64s(&[p.pass, p.lo, p.hi]);
        }
        Dataset {
            dim,
            base,
            attrs,
            extra,
            extra_attrs,
            queries,
            predicates,
            inputs_fnv: fnv.finish(),
        }
    }

    /// The first `n` base rows, no extra rows, and all the queries: the smaller
    /// inputs the per-layer probes run on.
    pub fn prefix(&self, n: usize) -> Dataset {
        let n = n.min(self.base.len());
        Dataset {
            dim: self.dim,
            base: VectorSet::from_flat(self.dim, self.base.as_flat()[..n * self.dim].to_vec()),
            attrs: self.attrs[..n].to_vec(),
            extra: VectorSet::new(self.dim),
            extra_attrs: Vec::new(),
            queries: self.queries.clone(),
            predicates: self.predicates.clone(),
            inputs_fnv: self.inputs_fnv,
        }
    }

    /// Vector of the row with this id (base or extra).
    pub fn vector_of(&self, id: i64) -> &[f32] {
        let i = id as usize;
        if i < self.base.len() {
            self.base.get(i)
        } else {
            self.extra.get(i - self.base.len())
        }
    }

    /// Attribute of the row with this id (base or extra).
    pub fn attr_of(&self, id: i64) -> f64 {
        let i = id as usize;
        if i < self.attrs.len() {
            self.attrs[i]
        } else {
            self.extra_attrs[i - self.attrs.len()]
        }
    }

    /// Raw bytes a user handed over for one row: its vector and `n_attrs`
    /// attribute values.
    pub fn user_bytes_per_row(&self, n_attrs: usize) -> usize {
        self.dim * 4 + n_attrs * 8
    }
}

/// Squared L2 distance: the benchmark's own plain loop, eight independent
/// partial sums so that the compiler can vectorise it.
pub fn l2_sq(a: &[f32], b: &[f32]) -> f64 {
    let mut lanes = [0.0f32; 8];
    let (a8, b8) = (a.chunks_exact(8), b.chunks_exact(8));
    let tail: f32 = a8
        .remainder()
        .iter()
        .zip(b8.remainder())
        .map(|(x, y)| (x - y) * (x - y))
        .sum();
    for (x, y) in a8.zip(b8) {
        for i in 0..8 {
            lanes[i] += (x[i] - y[i]) * (x[i] - y[i]);
        }
    }
    lanes.iter().map(|&l| l as f64).sum::<f64>() + tail as f64
}

/// Exact top-`k` ids of `query` among `ids`, nearest first; ties broken by
/// id. `keep` filters rows.
pub fn exact_top_k(
    data: &Dataset,
    ids: impl Iterator<Item = i64>,
    query: &[f32],
    k: usize,
    keep: impl Fn(i64) -> bool,
) -> Vec<i64> {
    let mut best: Vec<(f64, i64)> = Vec::with_capacity(k + 1);
    for id in ids.filter(|&id| keep(id)) {
        let d = l2_sq(query, data.vector_of(id));
        if best.len() == k && (d, id) >= *best.last().expect("k >= 1") {
            continue;
        }
        let pos = best.partition_point(|&e| e < (d, id));
        best.insert(pos, (d, id));
        best.truncate(k);
    }
    best.into_iter().map(|(_, id)| id).collect()
}

/// Share of the `truth` ids that `got` contains.
pub fn recall(truth: &[i64], got: &[i64]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    truth.iter().filter(|id| got.contains(id)).count() as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Dataset::generate(7, 500, 50, 8, 16);
        let b = Dataset::generate(7, 500, 50, 8, 16);
        let c = Dataset::generate(8, 500, 50, 8, 16);
        assert_eq!(a.inputs_fnv, b.inputs_fnv);
        assert_ne!(a.inputs_fnv, c.inputs_fnv);
        assert_eq!(a.base.as_flat(), b.base.as_flat());
    }

    #[test]
    fn predicates_cycle_every_passing_fraction_with_the_declared_width() {
        let d = Dataset::generate(3, 500, 0, 4, 40);
        for block in d.predicates.chunks(SWEEP.len()) {
            let mut seen: Vec<f64> = block.iter().map(|p| p.pass).collect();
            seen.sort_by(f64::total_cmp);
            assert_eq!(seen, SWEEP);
        }
        for p in &d.predicates {
            assert!(p.lo >= 0.0 && p.hi <= ATTR_MAX);
            assert!(((p.hi - p.lo) / ATTR_MAX - p.pass).abs() < 1e-9);
        }
        // Every fraction the probes label is part of the sweep.
        assert!(SELECTIVITIES.iter().all(|(_, f)| SWEEP.contains(f)));
    }

    #[test]
    fn exact_top_k_orders_by_distance_and_honours_the_filter() {
        let d = Dataset::generate(1, 300, 20, 4, 4);
        let q = d.base.get(17).to_vec();
        let top = exact_top_k(&d, 0..320, &q, 5, |_| true);
        assert_eq!(top[0], 17);
        let dists: Vec<f64> = top.iter().map(|&id| l2_sq(&q, d.vector_of(id))).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
        let odd = exact_top_k(&d, 0..320, &q, 5, |id| id % 2 == 0);
        assert!(odd.iter().all(|id| id % 2 == 0));
        assert_eq!(recall(&top, &top), 1.0);
        assert_eq!(recall(&[1, 2, 3, 4], &[1, 2]), 0.5);
    }
}

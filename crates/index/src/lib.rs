//! ANN index library for the Milvus reproduction.
//!
//! This crate is the from-scratch substrate that plays the role Facebook Faiss
//! plays for the real Milvus system (SIGMOD'21). It provides:
//!
//! * distance kernels for every similarity function the paper lists
//!   (Euclidean, inner product, cosine, Hamming, Jaccard, Tanimoto) with
//!   scalar, SSE, AVX2 and AVX-512 implementations behind **runtime SIMD
//!   dispatch** (paper §3.2.2 "automatic SIMD-instruction selection");
//! * the k-means coarse quantizer (paper §3.1);
//! * quantization-based indexes `IVF_FLAT`, `IVF_SQ8`, `IVF_PQ` (§2.2, §3.1);
//! * graph-based indexes `HNSW` and `NSG` (§2.2);
//! * a tree-based `Annoy`-style index (§2.2 footnote 3);
//! * an extensible [`VectorIndex`] trait + [`registry`] so new index types can
//!   be plugged in (§2.2 "easily incorporate the new indexes");
//! * the **cache-aware, fine-grained-parallel batch query engine** of §3.2.1
//!   (query blocking per Eq. (1), thread-per-data-range assignment,
//!   per-(thread, query) heaps) alongside the original Faiss-style
//!   thread-per-query engine used as the ablation baseline.
//!
//! Everything here is deterministic given a seed, so higher layers (storage,
//! query, distributed) and the benchmark harness can assert recall bounds.

pub mod annoy;
pub mod batch;
pub mod binary;
pub mod distance;
pub mod error;
pub mod flat;
pub mod hnsw;
pub mod ivf;
pub mod kmeans;
pub mod mask;
pub mod metric;
pub mod nsg;
pub mod registry;
pub mod simd;
pub mod topk;
pub mod traits;
pub mod vectors;

pub use error::{IndexError, Result};
pub use mask::RowMask;
pub use metric::Metric;
pub use simd::SimdLevel;
pub use topk::{Neighbor, TopK};
pub use traits::{BuildParams, SearchParams, VectorIndex};
pub use vectors::VectorSet;

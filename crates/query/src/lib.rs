//! Advanced query processing (paper §4).
//!
//! * [`filtering`] — attribute filtering: the four strategies studied in
//!   AnalyticDB-V (A: attribute-first full scan, B: attribute-first vector
//!   search, C: vector-first post-filter, D: planned) plus Milvus's
//!   partition-based strategy E (§4.1, Figures 4/14/15).
//! * [`multivector`] — multi-vector queries: the naive per-field approach,
//!   Fagin's NRA, **vector fusion** for decomposable similarity functions,
//!   and **iterative merging** (Algorithm 2) with adaptive `k'` doubling
//!   (§4.2, Figure 16).

pub mod error;
pub mod filtering;
pub mod multivector;

pub use error::{QueryError, Result};
pub use filtering::{FilterDataset, PartitionedDataset, RangePredicate, Strategy};
pub use multivector::MultiVectorEngine;

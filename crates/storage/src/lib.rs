//! Storage engine for the Milvus reproduction (paper §2.3, §2.4, §5.2).
//!
//! * **LSM-based dynamic data management** (§2.3): inserts land in a
//!   [`memtable::MemTable`]; when it reaches a size threshold it is flushed
//!   as an immutable [`segment::Segment`]; a tiered [`merge`] policy combines
//!   similar-sized segments up to a configurable cap (default 1 GB), and
//!   deletions are out-of-place tombstones physically removed at merge.
//! * **Snapshot isolation** (§5.2): [`snapshot`] versions the segment set;
//!   every query pins the snapshot current at its start, and obsolete
//!   segments are garbage-collected when their last snapshot drops.
//! * **Columnar storage** (§2.4): vectors are stored contiguously, one
//!   [`column::VectorColumn`] per vector field, read by row position (rows
//!   sorted by id; an IVF_FLAT-indexed column shares the index's
//!   bucket-ordered buffer instead of keeping a second copy); numeric
//!   attributes are sorted `(key, row-id)` arrays with min/max page skip
//!   pointers
//!   ([`attribute::AttributeColumn`]).
//! * **Bufferpool** (§2.4): an LRU cache whose unit is the segment.
//! * **Shared scan passes** (§3.2.1 across callers): [`pass::SharedPass`]
//!   walks a snapshot's unindexed rows in one circular pass that
//!   concurrent queries attach to, so each loaded block is scored once for
//!   every attached query.
//! * **Multi-storage** (§2.4): an [`object_store::ObjectStore`] abstraction
//!   with a local-filesystem backend and an in-memory simulated S3 backend.
//! * **WAL** (§5.1/§5.3): operations are materialized to a log before being
//!   acknowledged; replay reconstructs un-flushed state after a crash.

pub mod attribute;
pub mod bufferpool;
pub mod codec;
pub mod column;
pub mod entity;
pub mod error;
pub mod lsm;
pub mod memtable;
pub mod merge;
pub mod object_store;
pub mod pass;
pub mod segment;
pub mod snapshot;
pub mod wal;

pub use column::VectorColumn;
pub use entity::{InsertBatch, Schema, VectorField};
pub use error::{Result, StorageError};
pub use lsm::{LsmConfig, LsmEngine};
pub use segment::{clear_scan_delays, inject_scan_delay, Segment};
pub use snapshot::Snapshot;

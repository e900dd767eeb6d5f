//! Error type for the storage engine.

use std::fmt;

/// Errors produced by storage operations.
#[derive(Debug)]
pub enum StorageError {
    /// A batch did not match the collection schema.
    SchemaViolation(String),

    /// Underlying filesystem / object-store failure.
    Io(std::io::Error),

    /// Object not present in the object store.
    ObjectNotFound(String),

    /// A persisted blob failed to decode.
    Corrupt(String),

    /// Error bubbled up from the index layer.
    Index(milvus_index::IndexError),

    /// A duplicate primary key was inserted.
    DuplicateId(i64),

    /// A remote endpoint could not be reached (dropped message, partition,
    /// or exhausted RPC retries). Callers may treat this as transient and
    /// retry or fail over, unlike the other variants.
    Unavailable(String),
}

impl StorageError {
    /// True when the error is a transport-level unavailability (timeout,
    /// partition) rather than an application failure — the distinction the
    /// distributed layer uses to decide between fail-over and propagation.
    pub fn is_unavailable(&self) -> bool {
        matches!(self, StorageError::Unavailable(_))
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::SchemaViolation(msg) => write!(f, "schema violation: {msg}"),
            StorageError::Io(e) => write!(f, "io error: {e}"),
            StorageError::ObjectNotFound(key) => write!(f, "object not found: {key}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            StorageError::Index(e) => write!(f, "index error: {e}"),
            StorageError::DuplicateId(id) => write!(f, "duplicate entity id: {id}"),
            StorageError::Unavailable(msg) => write!(f, "unavailable: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Index(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<milvus_index::IndexError> for StorageError {
    fn from(e: milvus_index::IndexError) -> Self {
        StorageError::Index(e)
    }
}

/// Convenience alias used throughout the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;

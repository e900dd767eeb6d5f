//! Snapshot isolation (§5.2).
//!
//! "All the latest segments at any time form a snapshot. Each segment can be
//! referenced by one or more snapshots... There is a background thread to
//! garbage collect the obsolete segments if they are not referenced."
//!
//! A [`Snapshot`] is an immutable `Arc`'d list of segment versions. Queries
//! pin the current snapshot at start; publishing a new snapshot never touches
//! pinned ones, so reads and writes do not interfere. Garbage collection is
//! by reference count: dropping the last `Arc` to a snapshot releases its
//! segment references, and a segment payload is freed when its last version
//! goes. [`SnapshotManager::collect_garbage`] prunes the bookkeeping list and
//! reports how many historical snapshots are still pinned.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::{Mutex, RwLock};

use crate::entity::Schema;
use crate::pass::FieldPass;
use crate::segment::Segment;

/// An immutable view of the collection: a versioned set of segments.
pub struct Snapshot {
    /// Monotonic snapshot version.
    pub version: u64,
    /// The segment versions visible to this snapshot.
    pub segments: Vec<Arc<Segment>>,
    /// The shared scan passes over `segments`, built by the first search.
    passes: OnceLock<Vec<FieldPass>>,
}

/// Resident bytes of a snapshot's segments by component; the parts of
/// [`Segment::memory_bytes`], which states the accounting rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoredBytes {
    /// Payload: ids, vector columns, attribute columns.
    pub segment: usize,
    /// What the indexes hold beyond the payload.
    pub index: usize,
    /// Live-row bitmaps.
    pub tombstones: usize,
}

impl StoredBytes {
    /// All components together.
    pub fn total(&self) -> usize {
        self.segment + self.index + self.tombstones
    }
}

impl Snapshot {
    /// The snapshot's [`FieldPass::split`], built once per snapshot version;
    /// the first caller's `label` names the passes' counter series.
    pub fn passes(&self, schema: &Schema, label: &str) -> &[FieldPass] {
        self.passes.get_or_init(|| FieldPass::split(schema, &self.segments, label))
    }

    /// Total live rows across segments.
    pub fn live_rows(&self) -> usize {
        self.segments.iter().map(|s| s.live_rows()).sum()
    }

    /// Resident bytes across segments, by component.
    pub fn stored_bytes(&self) -> StoredBytes {
        self.segments.iter().fold(StoredBytes::default(), |sum, s| StoredBytes {
            segment: sum.segment + s.data().memory_bytes(),
            index: sum.index + s.index_bytes(),
            tombstones: sum.tombstones + s.tombstone_bytes(),
        })
    }

    /// Find the visible segment holding `id` (not tombstoned).
    pub fn locate(&self, id: i64) -> Option<&Arc<Segment>> {
        self.segments.iter().find(|s| s.contains_id(id) && !s.is_deleted(id))
    }
}

/// Publishes snapshots and tracks which historical ones are still pinned.
pub struct SnapshotManager {
    current: RwLock<Arc<Snapshot>>,
    history: Mutex<Vec<Weak<Snapshot>>>,
    next_version: AtomicU64,
}

impl Default for SnapshotManager {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotManager {
    /// Start with an empty snapshot (version 0, no segments).
    pub fn new() -> Self {
        let initial = Arc::new(Snapshot { version: 0, segments: Vec::new(), passes: OnceLock::new() });
        Self {
            current: RwLock::new(Arc::clone(&initial)),
            history: Mutex::new(vec![Arc::downgrade(&initial)]),
            next_version: AtomicU64::new(1),
        }
    }

    /// Pin the snapshot current right now — "every query only works on the
    /// snapshot when the query starts".
    pub fn current(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read())
    }

    /// Publish a new segment set as the next snapshot version.
    pub fn publish(&self, segments: Vec<Arc<Segment>>) -> Arc<Snapshot> {
        let version = self.next_version.fetch_add(1, Ordering::SeqCst);
        let snap = Arc::new(Snapshot { version, segments, passes: OnceLock::new() });
        *self.current.write() = Arc::clone(&snap);
        self.history.lock().push(Arc::downgrade(&snap));
        snap
    }

    /// Drop bookkeeping entries for snapshots nobody references anymore;
    /// returns `(collected, still_pinned)` counts. (The "background thread to
    /// garbage collect" — actual memory is reclaimed by `Arc` itself.)
    pub fn collect_garbage(&self) -> (usize, usize) {
        let mut history = self.history.lock();
        let before = history.len();
        history.retain(|w| w.strong_count() > 0);
        (before - history.len(), history.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{InsertBatch, Schema};
    use milvus_index::{Metric, VectorSet};

    fn seg(id: u64, ids: Vec<i64>) -> Arc<Segment> {
        let schema = Schema::single("v", 1, Metric::L2);
        let n = ids.len();
        let batch = InsertBatch::single(ids, VectorSet::from_flat(1, vec![0.0; n]));
        Arc::new(Segment::from_batch(id, &schema, &batch).unwrap())
    }

    #[test]
    fn queries_pin_their_snapshot() {
        let mgr = SnapshotManager::new();
        mgr.publish(vec![seg(1, vec![1, 2])]);
        let pinned = mgr.current();
        assert_eq!(pinned.version, 1);
        assert_eq!(pinned.live_rows(), 2);

        // A later publish does not disturb the pinned view.
        mgr.publish(vec![seg(1, vec![1, 2]), seg(2, vec![3])]);
        assert_eq!(pinned.live_rows(), 2);
        assert_eq!(mgr.current().version, 2);
        assert_eq!(mgr.current().live_rows(), 3);
    }

    #[test]
    fn segment_shared_across_snapshots() {
        // The paper's example: snapshot 1 → {seg1}; snapshot 2 → {seg1, seg2};
        // seg1 is referenced by both.
        let mgr = SnapshotManager::new();
        let s1 = seg(1, vec![1]);
        mgr.publish(vec![Arc::clone(&s1)]);
        let snap1 = mgr.current();
        mgr.publish(vec![Arc::clone(&s1), seg(2, vec![2])]);
        let snap2 = mgr.current();
        assert!(Arc::ptr_eq(&snap1.segments[0], &snap2.segments[0]));
        // snapshot refs + our local = 3 strong refs to seg1.
        assert_eq!(Arc::strong_count(&s1), 3);
    }

    #[test]
    fn gc_counts_pinned_snapshots() {
        let mgr = SnapshotManager::new();
        mgr.publish(vec![seg(1, vec![1])]);
        let pinned = mgr.current();
        mgr.publish(vec![seg(2, vec![2])]);
        // v0 (initial) is unpinned, v1 pinned by `pinned`, v2 is current.
        let (collected, alive) = mgr.collect_garbage();
        assert_eq!(collected, 1);
        assert_eq!(alive, 2);
        drop(pinned);
        let (collected, alive) = mgr.collect_garbage();
        assert_eq!(collected, 1);
        assert_eq!(alive, 1);
    }

    #[test]
    fn locate_respects_tombstones() {
        let mgr = SnapshotManager::new();
        let base = seg(1, vec![1, 2]);
        let v2 = Arc::new(base.with_deletes([2]));
        mgr.publish(vec![v2]);
        let snap = mgr.current();
        assert!(snap.locate(1).is_some());
        assert!(snap.locate(2).is_none());
        assert!(snap.locate(99).is_none());
    }
}

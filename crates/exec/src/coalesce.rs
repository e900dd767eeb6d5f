//! Cross-caller query coalescing: a work-conserving rendezvous that turns
//! concurrent single-query calls into batched invocations.
//!
//! The batch engines ([`cache_aware` kernels in `milvus-index`]) amortize
//! each streamed data row across a ×4 tile of resident queries, but only
//! when queries arrive *as a batch*. The [`Coalescer`] lets concurrency
//! itself produce those batches, and only once every core is busy:
//!
//! * **Run slots.** There are as many slots as the host has cores. A
//!   submitter that finds one free claims it and runs its own query itself,
//!   as a batch of one — parallelism *across* queries comes first.
//! * **Baton hand-off.** A submitter that finds every slot taken queues. The
//!   runner that finishes first hands its slot, under the lock, to the queue
//!   head together with up to `max_batch` queued entries; the head wakes as
//!   their *leader* and runs the caller's batch closure on its own thread,
//!   the others block until they are handed their demultiplexed result. So
//!   `queue.is_empty() || running == slots` holds whenever the lock is
//!   released: nobody waits on a clock, no slot idles while work is queued,
//!   and a batch is exactly what piled up while the cores were busy.
//!
//! The closure is supplied per-submit (every caller passes the same logic;
//! whoever leads uses theirs) and must return exactly one result per query
//! in input order. If it panics, the panic reaches the leader's caller only:
//! the slot is released and the batch's followers go back to the queue
//! front, in order, for the next leader to run. Expected failures still
//! belong in the result type `R`.
//!
//! This type is deliberately generic over `(Q, R)` and free of any
//! executor/search dependency: `milvus-core` wraps it per collection and
//! `milvus-distributed` per reader node.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

/// Tuning for one [`Coalescer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalesceConfig {
    /// The cap on how many queued entries one leader is handed.
    pub max_batch: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig { max_batch: 32 }
    }
}

#[derive(Clone)]
struct Pending<Q> {
    id: u64,
    enqueued: Instant,
    query: Q,
}

/// A follower's delivered result: the value plus batch metadata for
/// metrics.
struct Delivered<R> {
    result: R,
    batch: usize,
    /// When the leader started executing the batch — the end of this
    /// query's coalesce wait.
    batch_started: Instant,
}

struct State<Q, R> {
    /// Submitters no slot has been handed to yet.
    queue: VecDeque<Pending<Q>>,
    /// Batches that were handed a slot and whose leader (their first entry)
    /// has not woken up yet.
    handed: Vec<Vec<Pending<Q>>>,
    results: HashMap<u64, Delivered<R>>,
    next_id: u64,
    /// Run slots taken: passthrough callers, batch leaders, and `handed`.
    running: usize,
}

/// What [`Coalescer::submit`] decided for this caller.
pub enum Submitted<'a, Q, R> {
    /// A run slot was free: run [`PassGuard::query`] yourself — a batch of
    /// one — then drop the guard to release the slot.
    Pass(PassGuard<'a, Q, R>),
    /// The query ran inside a coalesced batch.
    Coalesced {
        /// This caller's demultiplexed result.
        result: R,
        /// Number of queries in the batch.
        batch: usize,
        /// True when this caller was the leader that executed the batch
        /// (exactly one per batch — the hook for batch-level metrics).
        led: bool,
        /// Time this query was queued before its batch ran.
        waited: Duration,
    },
}

/// RAII run slot for the passthrough path, holding the submitted query;
/// dropping it (even during unwind) releases the slot or hands it to the
/// queue head.
pub struct PassGuard<'a, Q, R> {
    co: &'a Coalescer<Q, R>,
    query: Q,
}

impl<Q, R> PassGuard<'_, Q, R> {
    /// The query this caller submitted, handed back for it to run itself.
    pub fn query(&self) -> &Q {
        &self.query
    }
}

impl<Q, R> Drop for PassGuard<'_, Q, R> {
    fn drop(&mut self) {
        self.co.release(self.co.inner.lock());
    }
}

/// A leader's hold on its slot. Dropping it scatters `results` to the
/// followers — or, when the batch closure unwound before producing any,
/// puts the followers back at the queue front — and releases the slot.
struct LeadGuard<'a, Q, R> {
    co: &'a Coalescer<Q, R>,
    followers: Vec<Pending<Q>>,
    results: Option<Vec<R>>,
    batch_started: Instant,
}

impl<Q, R> Drop for LeadGuard<'_, Q, R> {
    fn drop(&mut self) {
        let mut st = self.co.inner.lock();
        let batch = self.followers.len() + 1;
        let followers = self.followers.drain(..);
        match self.results.take() {
            Some(results) => {
                for (p, result) in followers.zip(results) {
                    let batch_started = self.batch_started;
                    st.results.insert(p.id, Delivered { result, batch, batch_started });
                }
            }
            None => followers.rev().for_each(|p| st.queue.push_front(p)),
        }
        self.co.release(st);
    }
}

/// The rendezvous point. One per collection (or per reader node); cheap
/// when a slot is free — a single uncontended lock acquisition per submit.
pub struct Coalescer<Q, R> {
    cfg: CoalesceConfig,
    slots: usize,
    inner: Mutex<State<Q, R>>,
    cv: Condvar,
}

impl<Q, R> Coalescer<Q, R> {
    /// Build a coalescer with one run slot per available core.
    pub fn new(cfg: CoalesceConfig) -> Self {
        Self::with_slots(cfg, std::thread::available_parallelism().map_or(1, |p| p.get()))
    }

    fn with_slots(cfg: CoalesceConfig, slots: usize) -> Self {
        Coalescer {
            cfg: CoalesceConfig { max_batch: cfg.max_batch.max(1) },
            slots: slots.max(1),
            inner: Mutex::new(State {
                queue: VecDeque::new(),
                handed: Vec::new(),
                results: HashMap::new(),
                next_id: 0,
                running: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// The configured bounds.
    pub fn config(&self) -> CoalesceConfig {
        self.cfg
    }

    /// Queries queued with no slot handed to them yet (diagnostics/tests).
    pub fn pending(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Run slots nobody holds: the cores a runner may fan its own work out
    /// into. `0` means each core already has a batch to run.
    pub fn idle_slots(&self) -> usize {
        self.slots - self.inner.lock().running
    }

    /// Give up a run slot, or — when submitters are queued — hand it to the
    /// queue head along with the batch that head will lead.
    fn release(&self, mut st: MutexGuard<'_, State<Q, R>>) {
        let n = st.queue.len().min(self.cfg.max_batch);
        if n == 0 {
            st.running -= 1;
        } else {
            let batch = st.queue.drain(..n).collect();
            st.handed.push(batch);
        }
        debug_assert!(st.queue.is_empty() || st.running == self.slots, "a slot idles over a queue");
        // Only a leader not yet awake or a follower not yet served can be
        // waiting; a lone passthrough pays no wake-up call.
        let waiters = !st.handed.is_empty() || !st.results.is_empty();
        drop(st);
        if waiters {
            self.cv.notify_all();
        }
    }

    /// Submit one query. Returns immediately with [`Submitted::Pass`] when a
    /// run slot is free; otherwise blocks until the query's batch has run
    /// and returns [`Submitted::Coalesced`].
    ///
    /// `run` receives the batch in queue order and must return one result
    /// per query, same order. It is invoked by exactly one caller per batch
    /// (the leader), on that caller's thread, with the coalescer lock
    /// released. If it panics, only the leader's caller sees the panic.
    pub fn submit<F>(&self, query: Q, run: F) -> Submitted<'_, Q, R>
    where
        Q: Clone,
        F: FnOnce(Vec<Q>) -> Vec<R>,
    {
        let mut st = self.inner.lock();
        if st.running < self.slots && st.queue.is_empty() {
            st.running += 1;
            drop(st);
            return Submitted::Pass(PassGuard { co: self, query });
        }
        let id = st.next_id;
        st.next_id += 1;
        let enqueued = Instant::now();
        st.queue.push_back(Pending { id, enqueued, query });
        loop {
            if let Some(d) = st.results.remove(&id) {
                return Submitted::Coalesced {
                    result: d.result,
                    batch: d.batch,
                    led: false,
                    waited: d.batch_started.saturating_duration_since(enqueued),
                };
            }
            if let Some(i) = st.handed.iter().position(|batch| batch[0].id == id) {
                let batch = st.handed.swap_remove(i);
                drop(st);
                return self.lead(batch, run);
            }
            // Slot hand-offs and batch completions both notify.
            self.cv.wait(&mut st);
        }
    }

    /// Lead `batch` (this caller's entry first) on the slot it was handed:
    /// execute, scatter results to the followers, return our own.
    fn lead<F>(&self, batch: Vec<Pending<Q>>, run: F) -> Submitted<'_, Q, R>
    where
        Q: Clone,
        F: FnOnce(Vec<Q>) -> Vec<R>,
    {
        let (n, enqueued) = (batch.len(), batch[0].enqueued);
        // The closure consumes the queries; the guard keeps the followers'
        // so they can be queued again should it unwind.
        let mut guard = LeadGuard {
            co: self,
            followers: batch[1..].to_vec(),
            results: None,
            batch_started: Instant::now(),
        };
        let mut results = run(batch.into_iter().map(|p| p.query).collect());
        assert_eq!(results.len(), n, "batch closure must map 1:1");
        let result = results.remove(0);
        guard.results = Some(results);
        Submitted::Coalesced {
            result,
            batch: n,
            led: true,
            waited: guard.batch_started.saturating_duration_since(enqueued),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn coalescer(slots: usize, max_batch: usize) -> Coalescer<u32, u32> {
        Coalescer::with_slots(CoalesceConfig { max_batch }, slots)
    }

    impl<Q, R> Coalescer<Q, R> {
        /// The work-conservation invariant, checked under the lock.
        fn assert_work_conserving(&self) {
            let st = self.inner.lock();
            assert!(
                st.queue.is_empty() || st.running == self.slots,
                "{} queued while only {} of {} slots run",
                st.queue.len(),
                st.running,
                self.slots
            );
        }
    }

    fn pass(co: &Coalescer<u32, u32>, q: u32) -> PassGuard<'_, u32, u32> {
        match co.submit(q, |_| unreachable!("passthrough must not batch")) {
            Submitted::Pass(guard) => guard,
            Submitted::Coalesced { .. } => panic!("a slot is free; must pass"),
        }
    }

    /// Serial submits always pass through, and so do concurrent ones up to
    /// the slot count — no queue, no wait.
    #[test]
    fn submits_pass_through_while_a_slot_is_free() {
        let co = coalescer(3, 8);
        for i in 0..5u32 {
            assert_eq!(*pass(&co, i).query(), i);
            assert_eq!(co.pending(), 0);
        }
        assert_eq!(co.idle_slots(), 3);
        let mut held: Vec<_> = (0..3u32).map(|i| pass(&co, i)).collect();
        assert_eq!(co.idle_slots(), 0);
        assert_eq!(co.pending(), 0);
        held.pop();
        assert_eq!(co.idle_slots(), 1);
        drop(held);
        assert_eq!(co.idle_slots(), 3);
    }

    /// With every slot taken the next submit queues, and it leads the moment
    /// a slot frees: the hand-off is its only wake-up.
    #[test]
    fn queued_submit_leads_the_moment_a_slot_frees() {
        let co = coalescer(3, 64);
        std::thread::scope(|s| {
            let mut held: Vec<_> = (0..3u32).map(|i| pass(&co, i)).collect();
            let w = s.spawn(|| match co.submit(7, |qs| qs.iter().map(|q| q * 3).collect()) {
                Submitted::Coalesced { result, batch, led, .. } => (result, batch, led),
                Submitted::Pass(_) => panic!("every slot is taken; must queue"),
            });
            while co.pending() < 1 {
                std::thread::yield_now();
            }
            drop(held.pop());
            let (result, batch, led) = w.join().unwrap();
            assert_eq!(result, 21);
            assert_eq!(batch, 1);
            assert!(led, "a singleton batch is led by its only member");
            // The slot went back to the pool once the singleton finished.
            assert_eq!(co.idle_slots(), 1);
            drop(pass(&co, 8));
        });
    }

    /// Queries arriving while every slot is taken coalesce into one batch
    /// and each gets its own demultiplexed result.
    #[test]
    fn contending_submits_coalesce_and_demux() {
        let co = coalescer(1, 4);
        let batches = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let holder = pass(&co, 99);
            let workers: Vec<_> = (0..4u32)
                .map(|i| {
                    let co = &co;
                    let batches = &batches;
                    s.spawn(move || match co.submit(i, |qs| {
                        batches.fetch_add(1, Ordering::SeqCst);
                        qs.iter().map(|q| q * 10).collect()
                    }) {
                        Submitted::Coalesced { result, batch, .. } => (i, result, batch),
                        Submitted::Pass(_) => panic!("slot held; must coalesce"),
                    })
                })
                .collect();
            while co.pending() < 4 {
                std::thread::yield_now();
            }
            drop(holder);
            for w in workers {
                let (i, result, batch) = w.join().unwrap();
                assert_eq!(result, i * 10, "wrong result demuxed to query {i}");
                assert_eq!(batch, 4);
            }
        });
        assert_eq!(batches.load(Ordering::SeqCst), 1, "exactly one leader");
    }

    /// `max_batch` caps what one leader is handed; leftovers form the next
    /// batch.
    #[test]
    fn max_batch_splits_into_multiple_batches() {
        let co = coalescer(1, 2);
        let batches = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let holder = pass(&co, 99);
            let workers: Vec<_> = (0..4u32)
                .map(|i| {
                    let co = &co;
                    let batches = &batches;
                    s.spawn(move || match co.submit(i, |qs| {
                        batches.fetch_add(1, Ordering::SeqCst);
                        qs.iter().map(|q| q + 100).collect()
                    }) {
                        Submitted::Coalesced { result, batch, .. } => (i, result, batch),
                        Submitted::Pass(_) => panic!("slot held; must coalesce"),
                    })
                })
                .collect();
            while co.pending() < 4 {
                std::thread::yield_now();
            }
            drop(holder);
            for w in workers {
                let (i, result, batch) = w.join().unwrap();
                assert_eq!(result, i + 100);
                assert_eq!(batch, 2, "batches must be capped at max_batch");
            }
        });
        assert_eq!(batches.load(Ordering::SeqCst), 2);
    }

    /// Exactly one caller per batch reports `led` — the metrics hook.
    #[test]
    fn exactly_one_leader_per_batch() {
        let co = coalescer(1, 3);
        std::thread::scope(|s| {
            let holder = pass(&co, 99);
            let workers: Vec<_> = (0..3u32)
                .map(|i| {
                    let co = &co;
                    s.spawn(move || match co.submit(i, |qs| qs.to_vec()) {
                        Submitted::Coalesced { led, .. } => led,
                        Submitted::Pass(_) => panic!("slot held; must coalesce"),
                    })
                })
                .collect();
            while co.pending() < 3 {
                std::thread::yield_now();
            }
            drop(holder);
            let leaders = workers
                .into_iter()
                .map(|w| w.join().unwrap())
                .filter(|&led| led)
                .count();
            assert_eq!(leaders, 1);
        });
    }

    /// A leader whose closure panics takes only its own caller down: its
    /// followers are led by the next head and get their own results, the
    /// slot is not leaked, and a later lone submit passes through.
    #[test]
    fn panicking_leader_releases_its_slot_and_requeues_its_followers() {
        let co = coalescer(1, 8);
        std::thread::scope(|s| {
            let holder = pass(&co, 99);
            assert_eq!(co.idle_slots(), 0);
            // Queue one at a time so the order — and therefore who leads —
            // is fixed: 0 leads {0, 1, 2} and panics; 1 then leads {1, 2}.
            let workers: Vec<_> = (0..3u32)
                .map(|i| {
                    let co = &co;
                    let w = s.spawn(move || {
                        catch_unwind(AssertUnwindSafe(|| {
                            match co.submit(i, |qs| {
                                assert!(qs[0] != 0, "leader 0 explodes");
                                qs.iter().map(|q| q * 10).collect()
                            }) {
                                Submitted::Coalesced { result, batch, led, .. } => (result, batch, led),
                                Submitted::Pass(_) => panic!("slot held; must coalesce"),
                            }
                        }))
                    });
                    while co.pending() < i as usize + 1 {
                        std::thread::yield_now();
                    }
                    w
                })
                .collect();
            drop(holder);
            let outcomes: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
            assert!(outcomes[0].is_err(), "the panic must reach the leader's caller");
            assert_eq!(*outcomes[1].as_ref().unwrap(), (10, 2, true));
            assert_eq!(*outcomes[2].as_ref().unwrap(), (20, 2, false));
        });
        assert_eq!(co.pending(), 0);
        assert_eq!(co.idle_slots(), 1, "the panicking leader leaked its slot");
        drop(pass(&co, 5));
    }

    /// A seeded storm: 8 threads × 200 submits over 3 slots. Every query
    /// gets its own result, and work conservation — checked under the lock
    /// after every submit, and by `release` itself on every hand-off — holds
    /// throughout.
    #[test]
    fn seeded_storm_is_work_conserving_and_demuxes_every_query() {
        const THREADS: u32 = 8;
        const SUBMITS: u32 = 200;
        let co = coalescer(3, 4);
        let (passed, led, followed) = (AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0));
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (co, passed, led, followed, start) = (&co, &passed, &led, &followed, &start);
                s.spawn(move || {
                    let mut x = 0x9E37_79B9u32.wrapping_mul(t + 1);
                    start.wait();
                    for i in 0..SUBMITS {
                        x ^= x << 13;
                        x ^= x >> 17;
                        x ^= x << 5;
                        let q = t * SUBMITS + i;
                        // Seeded run times, and a yield with the slot held, so
                        // the slots fill up and the others queue behind them.
                        let work = |n: u32| {
                            (0..n % 512).for_each(|_| std::hint::spin_loop());
                            std::thread::yield_now();
                        };
                        let answer = match co.submit(q, |qs| {
                            work(x >> 8);
                            qs.iter().map(|q| q * 7 + 1).collect()
                        }) {
                            Submitted::Pass(guard) => {
                                passed.fetch_add(1, Ordering::Relaxed);
                                work(x >> 8);
                                guard.query() * 7 + 1
                            }
                            Submitted::Coalesced { result, batch, led: is_leader, .. } => {
                                assert!((1..=4).contains(&batch));
                                let kind = if is_leader { led } else { followed };
                                kind.fetch_add(1, Ordering::Relaxed);
                                result
                            }
                        };
                        assert_eq!(answer, q * 7 + 1, "query {q} got somebody else's result");
                        co.assert_work_conserving();
                        if x & 1 == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        let (passed, led, followed) = (passed.into_inner(), led.into_inner(), followed.into_inner());
        assert_eq!(passed + led + followed, (THREADS * SUBMITS) as usize);
        assert!(led > 0, "8 threads over 3 slots never queued: the storm exercised nothing");
        assert_eq!(co.pending(), 0);
        assert_eq!(co.idle_slots(), 3, "a slot leaked");
    }
}

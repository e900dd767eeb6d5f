//! Persistent work-stealing executor — the single parallelism substrate for
//! the query path and the batch engines.
//!
//! The paper's fine-grained-parallelism story (§3.2, Figure 3) assigns
//! threads to *data ranges*; before this crate every parallel site paid a
//! `std::thread::scope` spawn/join per query block, and `Collection::search`
//! scanned segments serially. This executor keeps a fixed set of workers
//! alive for the life of the process, so fan-out costs a queue push instead
//! of an OS thread spawn, and independent segment scans overlap.
//!
//! Design (vendored-deps-only: `std::thread` + lock-based crossbeam-style
//! deques):
//!
//! * **Per-worker injector queues.** Every worker owns a deque. External
//!   submitters distribute tasks round-robin across the worker deques;
//!   a worker submitting from inside a task pushes to its *own* deque
//!   (locality, like crossbeam's `Worker`/`Injector` split).
//! * **Work stealing.** An idle worker first drains its own deque (FIFO),
//!   then steals from its peers' back ends. A thread blocked in
//!   [`Executor::scope`] also steals — but only tasks belonging to its own
//!   scope, so callers help execute while they wait (nested scopes are
//!   deadlock-free even on one core) without an unrelated long task
//!   delaying their join.
//! * **Structured joins.** [`Executor::scope`] mirrors `std::thread::scope`:
//!   tasks may borrow from the enclosing stack frame, the scope does not
//!   return until every spawned task finished — even when the scope closure
//!   itself panics — and panics are re-raised at the join (closure panic
//!   first, then the first task panic).
//! * **Observability.** The pool exports `milvus_exec_tasks_total`,
//!   `milvus_exec_steals_total`, `milvus_exec_queue_depth` and
//!   busy/size worker gauges through `milvus-obs`, labeled by pool name.
//!
//! Determinism: [`Executor::scoped_map`] returns results in task-index
//! order regardless of which worker ran what, so callers (batch engines,
//! segment fan-out) produce bit-identical results to their serial forms.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use milvus_obs as obs;
use parking_lot::{Condvar, Mutex};

pub mod coalesce;

/// A queued unit of work. Scoped tasks are transmuted to `'static`; the
/// scope guarantees they complete before the borrowed frame unwinds.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// A deque entry: the task plus the identity of the scope that spawned it.
/// Workers run anything; a thread blocked in [`Executor::scope`] only helps
/// with its *own* scope's tasks, so an unrelated long-running task can never
/// delay a join and helper threads never skew the busy-worker gauge.
struct QueuedTask {
    /// Address of the owning [`ScopeState`] — unique while any of the
    /// scope's tasks exist, because the scope drains them before returning.
    tag: usize,
    task: Task,
}

/// Process-unique executor ids so a worker thread can tell which pool it
/// belongs to (nested pools in tests).
static NEXT_EXEC_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(executor id, worker index)` when the current thread is a pool worker.
    static CURRENT_WORKER: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
}

/// Scheduling lane for a spawned task. Workers drain every `Normal` task
/// they can see (own deque plus steals) before touching the `Low` lane, so
/// background work (speculative scans, deprioritized queries) only runs on
/// capacity the foreground path is not using.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Foreground lane — the default for all existing callers.
    #[default]
    Normal,
    /// Background lane, drained only when no `Normal` task is available.
    Low,
}

struct Shared {
    id: u64,
    /// One lock-based deque per worker — the "per-worker injector queues".
    deques: Vec<Mutex<VecDeque<QueuedTask>>>,
    /// Second, low-priority lane: same shape, only consulted when the
    /// primary deques (own + stealable) are all empty.
    low_deques: Vec<Mutex<VecDeque<QueuedTask>>>,
    /// Round-robin cursor for external submissions.
    next_queue: AtomicUsize,
    /// Tasks currently queued (not yet picked up).
    queued: AtomicUsize,
    /// Workers currently blocked on `wake` — lets `inject` skip the
    /// lock+notify entirely while the pool is busy.
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
    sleep_lock: Mutex<()>,
    wake: Condvar,
    // Metric handles, resolved once (recording is a bare atomic op).
    tasks_total: Arc<obs::Counter>,
    steals_total: Arc<obs::Counter>,
    queue_depth: Arc<obs::Gauge>,
    busy_workers: Arc<obs::Gauge>,
}

/// Remove the owner-side (front) task, or with a `filter` the frontmost task
/// whose tag matches.
fn pop_matching_front(dq: &mut VecDeque<QueuedTask>, filter: Option<usize>) -> Option<Task> {
    match filter {
        None => dq.pop_front().map(|qt| qt.task),
        Some(tag) => {
            let i = dq.iter().position(|qt| qt.tag == tag)?;
            dq.remove(i).map(|qt| qt.task)
        }
    }
}

/// Remove the steal-side (back) task, or with a `filter` the backmost task
/// whose tag matches.
fn pop_matching_back(dq: &mut VecDeque<QueuedTask>, filter: Option<usize>) -> Option<Task> {
    match filter {
        None => dq.pop_back().map(|qt| qt.task),
        Some(tag) => {
            let i = dq.iter().rposition(|qt| qt.tag == tag)?;
            dq.remove(i).map(|qt| qt.task)
        }
    }
}

impl Shared {
    /// Pop a task. Workers pass their own index and prefer their own deque;
    /// scope waiters additionally pass `filter = Some(scope tag)` so they
    /// only ever execute tasks belonging to their own scope. The whole
    /// primary lane — own front plus every stealable back — is exhausted
    /// before the low-priority lane is consulted at all.
    fn take_task(&self, own: Option<usize>, filter: Option<usize>) -> Option<(Task, bool)> {
        if self.queued.load(Ordering::Acquire) == 0 {
            return None;
        }
        for lane in [&self.deques, &self.low_deques] {
            if let Some(idx) = own {
                if let Some(task) = pop_matching_front(&mut lane[idx].lock(), filter) {
                    self.note_dequeue();
                    return Some((task, false));
                }
            }
            let n = lane.len();
            let start = own.map_or_else(|| self.next_queue.load(Ordering::Relaxed), |i| i + 1);
            for off in 0..n {
                let victim = (start + off) % n;
                if Some(victim) == own {
                    continue;
                }
                // Steal from the back, opposite the owner's pop end.
                if let Some(task) = pop_matching_back(&mut lane[victim].lock(), filter) {
                    self.note_dequeue();
                    self.steals_total.inc();
                    return Some((task, true));
                }
            }
        }
        None
    }

    fn note_dequeue(&self) {
        self.queued.fetch_sub(1, Ordering::AcqRel);
        self.queue_depth.add(-1);
    }

    /// Execute a task on a pool worker. The busy gauge is restored by a drop
    /// guard and the panic contained, so a panicking task can neither leak
    /// the gauge nor unwind through `worker_loop` and shrink the pool.
    /// (Scoped tasks capture their panics internally; a panic reaching here
    /// could only come from a future direct-inject path.)
    fn run(&self, task: Task) {
        struct BusyGuard<'a>(&'a obs::Gauge);
        impl Drop for BusyGuard<'_> {
            fn drop(&mut self) {
                self.0.add(-1);
            }
        }
        self.tasks_total.inc();
        self.busy_workers.add(1);
        let _busy = BusyGuard(&self.busy_workers);
        let _ = catch_unwind(AssertUnwindSafe(task));
    }

    /// Execute a task on a scope-waiter thread: counted in `tasks_total` but
    /// not in `busy_workers` — helpers are not workers, and nested helping on
    /// a worker would double-count it. Panics propagate to the caller (the
    /// scope drain loop), which records them in the scope's panic slot.
    fn run_helper(&self, task: Task) {
        self.tasks_total.inc();
        task();
    }

    fn inject(&self, tag: usize, task: Task, prio: Priority) {
        let idx = match CURRENT_WORKER.with(Cell::get) {
            Some((id, idx)) if id == self.id => idx,
            _ => self.next_queue.fetch_add(1, Ordering::Relaxed) % self.deques.len(),
        };
        let lane = match prio {
            Priority::Normal => &self.deques,
            Priority::Low => &self.low_deques,
        };
        lane[idx].lock().push_back(QueuedTask { tag, task });
        // SeqCst pairs with the sleeper protocol in `worker_loop`: either the
        // worker's queued-recheck sees this increment, or our sleepers-load
        // below sees the worker's registration and we notify.
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.queue_depth.add(1);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // One task, one wake-up (a sleeper that loses the race for the
            // task just re-checks `queued` and sleeps again).
            let _g = self.sleep_lock.lock();
            self.wake.notify_one();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, idx: usize) {
    CURRENT_WORKER.with(|w| w.set(Some((shared.id, idx))));
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match shared.take_task(Some(idx), None) {
            Some((task, _stolen)) => shared.run(task),
            None => {
                let mut guard = shared.sleep_lock.lock();
                // Sleeper protocol: register under the lock, then re-check
                // for work. An injector either sees `queued` already bumped
                // (worker skips the wait) or sees `sleepers > 0` and
                // notifies under the same lock — no lost wakeup. The long
                // timeout is only a defensive fallback, so an idle pool is
                // event-driven instead of polling.
                shared.sleepers.fetch_add(1, Ordering::SeqCst);
                if shared.queued.load(Ordering::SeqCst) == 0
                    && !shared.shutdown.load(Ordering::Acquire)
                {
                    shared.wake.wait_for(&mut guard, Duration::from_millis(500));
                }
                shared.sleepers.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// A persistent pool of worker threads with work-stealing deques.
pub struct Executor {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    threads: usize,
}

impl Executor {
    /// Spin up a pool of `threads` workers. `name` labels the pool's metric
    /// series (`pool="<name>"` in `/metrics`).
    pub fn new(name: &str, threads: usize) -> Executor {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            id: NEXT_EXEC_ID.fetch_add(1, Ordering::Relaxed),
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            low_deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            next_queue: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            sleep_lock: Mutex::new(()),
            wake: Condvar::new(),
            tasks_total: obs::counter(obs::EXEC_TASKS, name),
            steals_total: obs::counter(obs::EXEC_STEALS, name),
            queue_depth: obs::gauge(obs::EXEC_QUEUE_DEPTH, name),
            busy_workers: obs::gauge(obs::EXEC_WORKERS_BUSY, name),
        });
        obs::gauge(obs::EXEC_WORKERS, name).set(threads as i64);
        let handles = (0..threads)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("milvus-exec-{name}-{idx}"))
                    .spawn(move || worker_loop(shared, idx))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor { shared, handles: Mutex::new(handles), threads }
    }

    /// The process-global pool every query-path fan-out schedules onto.
    ///
    /// Sized at `available_parallelism`, floored at 4 so segment fan-out
    /// still overlaps storage waits (injected delays, bufferpool misses) on
    /// small hosts where scans are not compute-bound.
    pub fn global() -> &'static Executor {
        static GLOBAL: OnceLock<Executor> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let threads = std::thread::available_parallelism().map_or(4, |p| p.get()).max(4);
            Executor::new("global", threads)
        })
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run a structured-concurrency scope: tasks spawned on it may borrow
    /// from the caller's stack; the scope blocks (helping to execute its own
    /// queued tasks) until all of them finish. A panic in the closure or in
    /// any task is re-raised here only after every task completed — the
    /// closure's panic takes precedence, then the first task panic.
    pub fn scope<'env, T>(
        &self,
        f: impl for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
    ) -> T {
        let state = Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
        });
        let tag = Arc::as_ptr(&state) as usize;
        let scope = Scope { exec: self, state: Arc::clone(&state), tag, _env: PhantomData };
        // The closure runs under catch_unwind because the drain loop below
        // MUST execute even if it panics: already-queued tasks borrow this
        // stack frame, and unwinding past it while they can still run on a
        // worker would be a use-after-free (std::thread::scope joins in a
        // drop guard for the same reason).
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Help-while-waiting: drain *this scope's* tasks so nested scopes
        // cannot deadlock and a busy pool still makes progress on our tasks.
        // Restricting helpers to their own tag keeps the busy gauge honest
        // and stops an unrelated long task from delaying this join.
        let own = CURRENT_WORKER
            .with(Cell::get)
            .and_then(|(id, idx)| (id == self.shared.id).then_some(idx));
        while state.pending.load(Ordering::Acquire) > 0 {
            match self.shared.take_task(own, Some(tag)) {
                Some((task, _)) => {
                    // Scoped tasks contain their own panics; this guard is
                    // defense in depth so the drain loop itself can't unwind
                    // past the borrowed frame early.
                    if let Err(payload) =
                        catch_unwind(AssertUnwindSafe(|| self.shared.run_helper(task)))
                    {
                        let mut slot = state.panic.lock();
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                    }
                }
                None => {
                    let mut guard = state.done_lock.lock();
                    if state.pending.load(Ordering::Acquire) > 0 {
                        // Event-driven: task completion notifies `done`. The
                        // timeout is a liveness fallback for the rare case
                        // where a sibling task spawns onto this scope right
                        // after our queue scan.
                        state.done.wait_for(&mut guard, Duration::from_millis(25));
                    }
                }
            }
        }
        let task_panic = state.panic.lock().take();
        match result {
            Err(payload) => resume_unwind(payload),
            Ok(out) => {
                if let Some(payload) = task_panic {
                    resume_unwind(payload);
                }
                out
            }
        }
    }

    /// Fan `f(0) … f(n-1)` out across the pool and return the results in
    /// index order — deterministic regardless of execution interleaving.
    /// Tasks `1..n` are queued; the caller runs task 0 itself instead of
    /// sleeping through the join, so `n <= 1` never touches the queue.
    pub fn scoped_map<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.scoped_map_with(n, Priority::Normal, f)
    }

    /// [`Executor::scoped_map`] into an explicit lane. `Priority::Low`
    /// fan-outs (deprioritized scheduler batches) yield the pool to any
    /// concurrently queued foreground work; results and ordering are
    /// otherwise identical.
    pub fn scoped_map_with<R, F>(&self, n: usize, prio: Priority, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.fan_out(n, prio, || (), |i, ()| f(i))
    }

    /// [`Executor::scoped_map`] plus a per-task [`TaskTiming`]: when each
    /// task was enqueued, when a worker started it, and when it finished.
    /// Queue wait (`started - enqueued`) and run time are thereby separable
    /// by observability code; the plain `scoped_map` stays clock-free for
    /// callers that do not need timings. Task 0, run by the caller, reports
    /// a zero queue wait (`enqueued == started`).
    pub fn scoped_map_timed<R, F>(&self, n: usize, f: F) -> Vec<(R, TaskTiming)>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.fan_out(n, Priority::Normal, Instant::now, |i, enqueued| {
            let started = if i == 0 { enqueued } else { Instant::now() };
            let value = f(i);
            (value, TaskTiming { enqueued, started, finished: Instant::now() })
        })
    }

    /// The fan-out behind the `scoped_map` family. `stamp` is taken on the
    /// calling thread as each task is queued and handed to that task.
    fn fan_out<T, R, S, F>(&self, n: usize, prio: Priority, stamp: S, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        S: Fn() -> T,
        F: Fn(usize, T) -> R + Sync,
    {
        if n <= 1 {
            return (0..n).map(|i| f(i, stamp())).collect();
        }
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        {
            let base = SendPtr(slots.as_mut_ptr());
            // SAFETY: each index is run once and writes its own distinct
            // slot, and the scope joins before `slots` is touched again.
            let run = |i: usize, t: T| unsafe { *base.slot(i) = Some(f(i, t)) };
            let run = &run;
            self.scope(|s| {
                for i in 1..n {
                    let t = stamp();
                    s.spawn_prio(prio, move || run(i, t));
                }
                run(0, stamp());
            });
        }
        slots.into_iter().map(|r| r.expect("scoped task completed")).collect()
    }
}

/// Wall-clock milestones of one fanned-out task, captured by
/// [`Executor::scoped_map_timed`].
#[derive(Debug, Clone, Copy)]
pub struct TaskTiming {
    /// When the task was pushed onto the pool.
    pub enqueued: Instant,
    /// When a worker (or a helping joiner) began executing it.
    pub started: Instant,
    /// When the task body returned.
    pub finished: Instant,
}

impl TaskTiming {
    /// Time spent queued before execution began.
    pub fn queue_wait(&self) -> Duration {
        self.started.saturating_duration_since(self.enqueued)
    }

    /// Time the task body ran.
    pub fn run_time(&self) -> Duration {
        self.finished.saturating_duration_since(self.started)
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = self.shared.sleep_lock.lock();
            self.shared.wake.notify_all();
        }
        for handle in self.handles.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done_lock: Mutex<()>,
    done: Condvar,
}

/// Handle passed to [`Executor::scope`] closures; `'env` is the enclosing
/// frame tasks may borrow from.
pub struct Scope<'scope, 'env: 'scope> {
    exec: &'scope Executor,
    state: Arc<ScopeState>,
    /// Scope identity stamped on every spawned task (see [`QueuedTask`]).
    tag: usize,
    _env: PhantomData<&'scope mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Queue a task on the pool. It may borrow anything that outlives the
    /// scope; panics are captured and re-raised at the scope join.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.spawn_prio(Priority::Normal, f)
    }

    /// [`Scope::spawn`] into an explicit lane: `Priority::Low` tasks run
    /// only when no `Normal` task is queued anywhere in the pool.
    pub fn spawn_prio<F>(&self, prio: Priority, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = state.panic.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            if state.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _g = state.done_lock.lock();
                state.done.notify_all();
            }
        });
        // Safety: the scope's join loop guarantees the task runs to
        // completion before `'env` borrows expire (same contract as
        // `std::thread::scope`).
        let task: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(task)
        };
        self.exec.shared.inject(self.tag, task, prio);
    }
}

/// Raw-pointer wrapper so disjoint slot writes can cross the `Send` bound.
/// Accessed only through [`SendPtr::slot`] so closures capture the wrapper
/// (which is `Send`), not the bare pointer field.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    fn slot(&self, i: usize) -> *mut T {
        unsafe { self.0.add(i) }
    }
}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_returns_results_in_index_order() {
        let pool = Executor::new("t_order", 4);
        for round in 0..20 {
            let out = pool.scoped_map(16, |i| i * 2 + round);
            let expect: Vec<usize> = (0..16).map(|i| i * 2 + round).collect();
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn caller_runs_task_zero_and_only_the_rest_are_queued() {
        let pool = Executor::new("t_caller", 2);
        let tasks = obs::counter(obs::EXEC_TASKS, "t_caller");
        let me = std::thread::current().id();
        let before = tasks.get();
        let ran_on = pool.scoped_map(4, |_| std::thread::current().id());
        assert_eq!(ran_on[0], me, "task 0 must run on the calling thread");
        assert_eq!(tasks.get() - before, 3, "a fan-out of 4 queues 3 pool tasks");
        let timed = pool.scoped_map_timed(4, |i| i);
        assert_eq!(timed[0].1.queue_wait(), Duration::ZERO, "task 0 never queues");
        // Nothing to fan out: no pool task at all.
        let before = tasks.get();
        assert_eq!(pool.scoped_map(1, |i| i), vec![0]);
        assert_eq!(pool.scoped_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(tasks.get(), before);
    }

    #[test]
    fn scope_tasks_borrow_stack_data() {
        let pool = Executor::new("t_borrow", 2);
        let data = [1u64, 2, 3, 4, 5];
        let sums = pool.scoped_map(data.len(), |i| data[i] * 10);
        assert_eq!(sums, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn timed_map_matches_plain_map_and_orders_milestones() {
        let pool = Executor::new("t_timed", 2);
        let out = pool.scoped_map_timed(8, |i| {
            std::thread::sleep(Duration::from_millis(2));
            i * 3
        });
        assert_eq!(out.iter().map(|(v, _)| *v).collect::<Vec<_>>(), (0..8).map(|i| i * 3).collect::<Vec<_>>());
        for (_, t) in &out {
            assert!(t.started >= t.enqueued, "started before enqueue");
            assert!(t.finished >= t.started, "finished before start");
            assert!(t.run_time() >= Duration::from_millis(1), "run_time={:?}", t.run_time());
        }
        // With 8 tasks on 2 workers, at least one task waited in queue while
        // earlier tasks held both workers.
        let waited = out.iter().filter(|(_, t)| t.queue_wait() > Duration::ZERO).count();
        assert!(waited >= 1, "no task ever queued");
        // Inline path: n == 1 reports zero queue wait.
        let one = pool.scoped_map_timed(1, |i| i);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].1.queue_wait(), Duration::ZERO);
    }

    #[test]
    fn panic_in_task_propagates_to_scope_caller() {
        let pool = Executor::new("t_panic", 2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| {});
                s.spawn(|| panic!("worker exploded"));
                s.spawn(|| {});
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "worker exploded");
        // The pool survives a propagated panic.
        assert_eq!(pool.scoped_map(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn closure_panic_still_joins_spawned_tasks() {
        // Regression: if the scope closure panics after spawning, the drain
        // loop must still run every queued task (they borrow this frame)
        // before the panic is re-raised.
        let pool = Executor::new("t_unwind", 2);
        let ran = std::sync::atomic::AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        std::thread::sleep(Duration::from_millis(1));
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                }
                panic!("closure exploded");
            });
        }));
        let payload = result.expect_err("closure panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "closure exploded");
        assert_eq!(ran.load(Ordering::SeqCst), 8, "all tasks must finish before unwind");
        // Closure panic wins over a task panic raised in the same scope.
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("task exploded"));
                panic!("closure exploded");
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "closure exploded");
        assert_eq!(pool.scoped_map(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn nested_scopes_complete_even_with_one_worker() {
        let pool = Executor::new("t_nested", 1);
        let out = pool.scoped_map(4, |i| {
            let inner = pool.scoped_map(3, |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        assert_eq!(out, vec![3, 33, 63, 93]);
    }

    #[test]
    fn steal_counter_is_monotonic_and_tasks_are_counted() {
        let pool = Executor::new("t_steal", 4);
        let tasks0 = obs::counter(obs::EXEC_TASKS, "t_steal").get();
        let steals0 = obs::counter(obs::EXEC_STEALS, "t_steal").get();
        let mut last_steals = steals0;
        for _ in 0..10 {
            // Nested fan-out seeds one worker's own deque, giving the other
            // workers something to steal.
            pool.scoped_map(8, |i| pool.scoped_map(4, move |j| i + j).len());
            let s = obs::counter(obs::EXEC_STEALS, "t_steal").get();
            assert!(s >= last_steals, "steal counter went backwards: {s} < {last_steals}");
            last_steals = s;
        }
        let tasks1 = obs::counter(obs::EXEC_TASKS, "t_steal").get();
        assert!(tasks1 >= tasks0 + 10 * 8, "tasks_total barely moved: {tasks0} -> {tasks1}");
    }

    #[test]
    fn queue_depth_returns_to_zero_when_idle() {
        let pool = Executor::new("t_depth", 2);
        pool.scoped_map(32, |i| i * i);
        assert_eq!(obs::gauge(obs::EXEC_QUEUE_DEPTH, "t_depth").get(), 0);
        assert_eq!(obs::gauge(obs::EXEC_WORKERS, "t_depth").get(), 2);
        // Helpers don't touch the busy gauge and workers restore it via a
        // drop guard, so it must settle back to zero (never negative, never
        // leaked above the worker count).
        assert_eq!(obs::gauge(obs::EXEC_WORKERS_BUSY, "t_depth").get(), 0);
    }

    #[test]
    fn busy_gauge_stays_bounded_by_worker_count_under_nested_help() {
        let pool = Executor::new("t_busy", 2);
        let gauge = obs::gauge(obs::EXEC_WORKERS_BUSY, "t_busy");
        let max_seen = std::sync::atomic::AtomicI64::new(0);
        // Nested scoped_map makes workers help from inside tasks; the outer
        // caller helps from a non-worker thread. Neither may overcount.
        pool.scoped_map(8, |i| {
            pool.scoped_map(4, |j| {
                max_seen.fetch_max(gauge.get(), Ordering::SeqCst);
                i + j
            })
            .len()
        });
        assert!(
            max_seen.load(Ordering::SeqCst) <= 2,
            "busy gauge exceeded worker count: {}",
            max_seen.load(Ordering::SeqCst)
        );
        assert_eq!(gauge.get(), 0);
    }

    #[test]
    fn low_priority_runs_after_all_normal_tasks() {
        let pool = Executor::new("t_prio", 1);
        let order: Mutex<Vec<&str>> = Mutex::new(Vec::new());
        let started = AtomicBool::new(false);
        pool.scope(|s| {
            // Pin the single worker until both lanes have drained on the
            // caller's helper thread, so pop order is observable.
            s.spawn(|| {
                started.store(true, Ordering::SeqCst);
                while order.lock().len() < 2 {
                    std::thread::yield_now();
                }
            });
            while !started.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // Low is queued first but must still run last.
            s.spawn_prio(Priority::Low, || order.lock().push("L"));
            s.spawn_prio(Priority::Normal, || order.lock().push("N"));
        });
        assert_eq!(*order.lock(), vec!["N", "L"]);
        // Low-lane fan-out still returns index-ordered results.
        assert_eq!(pool.scoped_map_with(4, Priority::Low, |i| i * 2), vec![0, 2, 4, 6]);
    }

    #[test]
    fn global_pool_is_a_singleton_with_at_least_four_workers() {
        let a = Executor::global() as *const _;
        let b = Executor::global() as *const _;
        assert_eq!(a, b);
        assert!(Executor::global().threads() >= 4);
    }
}

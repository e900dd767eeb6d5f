//! Simulated message-passing boundary for the distributed layer.
//!
//! Every coordinator ↔ writer ↔ reader ↔ client interaction in
//! [`crate::Cluster`] routes through a [`Transport`]. Two implementations:
//!
//! - [`Direct`] — the zero-cost in-process path. [`rpc`] short-circuits to a
//!   plain method call, preserving the original "RPC is a function call"
//!   behaviour bit for bit.
//! - [`SimNet`] — a seeded, deterministic lossy network. Each directed link
//!   `(from, to)` carries a [`FaultPlan`] (drop probability, delay range,
//!   duplication, reordering, hard partition) and its own RNG, so the fault
//!   schedule of a link depends only on the seed and the sequence of
//!   messages offered to that link — two runs of the same seeded workload
//!   observe byte-identical fates.
//!
//! **Determinism contract.** `SimNet` never consults wall-clock time or OS
//! entropy. Delays, timeouts, and retry backoff advance a *virtual clock*
//! ([`SimNet::virtual_time`]) instead of sleeping, so tests are fast and a
//! fault schedule replays exactly. Per-link fate draws happen in a fixed
//! order (partition → loss → duplicate → delay); callers that iterate
//! endpoints deterministically (the cluster fans out over readers in
//! registration order, readers walk shards in sorted order) therefore
//! observe identical outcomes across same-seed runs.
//!
//! **RPC semantics.** [`rpc`] models a request/response exchange: the
//! request leg draws a fate on `from → to`, the response leg on `to → from`.
//! A lost request never executed, so it is always safe to retry; a lost
//! *response* means the operation executed but the caller cannot know — it
//! is retried only when the caller declares the operation idempotent,
//! otherwise the caller gets [`StorageError::Unavailable`] immediately
//! (at-most-once). Retries use bounded exponential backoff charged to the
//! virtual clock.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use milvus_obs as obs;
use milvus_storage::{Result as StorageResult, StorageError};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::hashring::ring_hash;

/// A logical endpoint of the cluster's message fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// The query entry point (the proxy / client fan-out in the paper).
    Client,
    /// The metadata coordinator.
    Coordinator,
    /// The single writer instance.
    Writer,
    /// A promoted standby writer, by takeover generation (1 for the first
    /// takeover). A fresh endpoint: fault schedules that killed the old
    /// writer's links do not apply to its replacement.
    Standby(u64),
    /// A reader instance, by coordinator-assigned id.
    Reader(u64),
    /// The shared object store (S3 in the paper).
    Storage,
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Client => write!(f, "client"),
            NodeId::Coordinator => write!(f, "coordinator"),
            NodeId::Writer => write!(f, "writer"),
            NodeId::Standby(generation) => write!(f, "standby-{generation}"),
            NodeId::Reader(id) => write!(f, "reader-{id}"),
            NodeId::Storage => write!(f, "storage"),
        }
    }
}

/// Metric label of a directed link, e.g. `client->reader-0`.
pub fn link_label(from: NodeId, to: NodeId) -> String {
    format!("{from}->{to}")
}

/// The transport's verdict for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Deliver the message. `duplicates` extra executions model at-least-once
    /// delivery; `delay_us` is injected latency charged to the virtual clock.
    Deliver {
        /// Number of additional deliveries of the same message.
        duplicates: u32,
        /// Injected latency in virtual microseconds.
        delay_us: u64,
    },
    /// The message is lost (loss draw or partition); the sender times out.
    Drop,
}

/// Per-link fault schedule of a [`SimNet`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that a message is silently lost.
    pub loss: f64,
    /// Probability in `[0, 1]` that a message is delivered twice.
    pub duplicate: f64,
    /// Probability in `[0, 1]` that a one-way message is held back and
    /// replayed out of order by [`SimNet::flush_pending`].
    pub reorder: f64,
    /// Injected latency range in virtual microseconds (inclusive).
    pub delay_us: (u64, u64),
    /// Hard partition: every message on this link is dropped.
    pub partitioned: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self { loss: 0.0, duplicate: 0.0, reorder: 0.0, delay_us: (0, 0), partitioned: false }
    }
}

/// The message-passing boundary every cluster interaction routes through.
pub trait Transport: Send + Sync {
    /// True for transports with no fault injection; [`rpc`] then skips all
    /// bookkeeping and degenerates to a plain method call.
    fn is_direct(&self) -> bool {
        false
    }

    /// Decide the fate of one message on the directed link `from → to`.
    fn fate(&self, from: NodeId, to: NodeId) -> Fate;

    /// Fire-and-forget message. The transport may execute `op` immediately,
    /// execute it more than once, drop it, or hold it back for reordered
    /// delivery at the next [`Transport::flush_pending`].
    fn send_oneway(&self, from: NodeId, to: NodeId, op: Box<dyn Fn() + Send>);

    /// Deliver any held-back one-way messages (in seeded, shuffled order).
    fn flush_pending(&self);

    /// Advance the virtual clock (injected delays, timeouts, backoff).
    fn advance_virtual(&self, _us: u64) {}

    /// Bookkeeping hook: an RPC attempt was re-sent after a timeout.
    fn note_retry(&self) {}

    /// Bookkeeping hook: an RPC attempt timed out.
    fn note_timeout(&self) {}
}

/// The zero-cost in-process transport: every message is delivered
/// immediately, exactly once, with no metrics and no clock.
#[derive(Debug, Default, Clone, Copy)]
pub struct Direct;

impl Transport for Direct {
    fn is_direct(&self) -> bool {
        true
    }

    fn fate(&self, _from: NodeId, _to: NodeId) -> Fate {
        Fate::Deliver { duplicates: 0, delay_us: 0 }
    }

    fn send_oneway(&self, _from: NodeId, _to: NodeId, op: Box<dyn Fn() + Send>) {
        op();
    }

    fn flush_pending(&self) {}
}

/// Timeout / retry policy of one RPC.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub attempts: u32,
    /// Virtual time charged per lost attempt.
    pub timeout: Duration,
    /// Initial backoff between attempts (doubles each retry).
    pub backoff_base: Duration,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 4,
            timeout: Duration::from_millis(50),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(80),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (at-most-once with a single attempt).
    pub fn no_retries() -> Self {
        Self { attempts: 1, ..Self::default() }
    }
}

/// Counters of a [`SimNet`] instance (unlike the global `milvus_net_*`
/// families, these are private to one simulation — handy for tests that run
/// in a shared process).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Messages offered to the network.
    pub sent: u64,
    /// Messages lost to loss draws or partitions.
    pub dropped: u64,
    /// Messages delivered more than once.
    pub duplicated: u64,
    /// One-way messages held back for reordered delivery.
    pub reordered: u64,
    /// Messages delivered with injected latency.
    pub delayed: u64,
    /// RPC attempts re-sent after a timeout.
    pub retries: u64,
    /// RPC attempts that timed out.
    pub timeouts: u64,
}

struct LinkState {
    plan: FaultPlan,
    rng: StdRng,
    held: Vec<Box<dyn Fn() + Send>>,
}

/// A seeded, deterministic lossy network.
pub struct SimNet {
    seed: u64,
    links: Mutex<BTreeMap<(NodeId, NodeId), LinkState>>,
    virtual_us: AtomicU64,
    sent: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    reordered: AtomicU64,
    delayed: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
}

impl SimNet {
    /// A fault-free network; faults are injected at runtime via
    /// [`SimNet::partition`], [`SimNet::set_loss`], [`SimNet::set_plan`], …
    pub fn new(seed: u64) -> Arc<Self> {
        Arc::new(Self {
            seed,
            links: Mutex::new(BTreeMap::new()),
            virtual_us: AtomicU64::new(0),
            sent: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            reordered: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
        })
    }

    fn new_link(&self, from: NodeId, to: NodeId) -> LinkState {
        // Register the link as healthy the moment it first carries traffic,
        // so the `milvus_net_link_up` gauge family covers *every* active
        // link — the health model's "N/M links down" denominator would
        // otherwise only count links that had already faulted.
        let label = link_label(from, to);
        obs::gauge(obs::NET_LINK_UP, &label).set(1);
        obs::gauge(obs::NET_LINK_LOSS_PPM, &label).set(0);
        LinkState {
            plan: FaultPlan::default(),
            rng: StdRng::seed_from_u64(self.seed ^ ring_hash(&(from, to))),
            held: Vec::new(),
        }
    }

    fn with_link<T>(
        &self,
        from: NodeId,
        to: NodeId,
        f: impl FnOnce(&mut LinkState) -> T,
    ) -> T {
        let mut links = self.links.lock();
        if let std::collections::btree_map::Entry::Vacant(e) = links.entry((from, to)) {
            e.insert(self.new_link(from, to));
        }
        f(links.get_mut(&(from, to)).expect("link just inserted"))
    }

    /// Replace the whole fault schedule of the directed link `from → to`.
    pub fn set_plan(&self, from: NodeId, to: NodeId, plan: FaultPlan) {
        let label = link_label(from, to);
        let (up, loss_ppm) = (i64::from(!plan.partitioned), (plan.loss * 1e6) as i64);
        self.with_link(from, to, |l| l.plan = plan);
        // Gauges are written after `with_link`: creating a fresh link
        // initialises them to healthy and must not win over the plan.
        obs::gauge(obs::NET_LINK_UP, &label).set(up);
        obs::gauge(obs::NET_LINK_LOSS_PPM, &label).set(loss_ppm);
    }

    /// Cut both directions between `a` and `b` (full partition).
    pub fn partition(&self, a: NodeId, b: NodeId) {
        self.partition_oneway(a, b);
        self.partition_oneway(b, a);
    }

    /// Cut only `from → to` (asymmetric partition: requests lost, responses
    /// fine, or vice versa).
    pub fn partition_oneway(&self, from: NodeId, to: NodeId) {
        self.with_link(from, to, |l| l.plan.partitioned = true);
        obs::gauge(obs::NET_LINK_UP, &link_label(from, to)).set(0);
    }

    /// Set the loss probability of `from → to`.
    pub fn set_loss(&self, from: NodeId, to: NodeId, p: f64) {
        let p = p.clamp(0.0, 1.0);
        self.with_link(from, to, |l| l.plan.loss = p);
        obs::gauge(obs::NET_LINK_LOSS_PPM, &link_label(from, to)).set((p * 1e6) as i64);
    }

    /// Set the duplicate-delivery probability of `from → to`.
    pub fn set_duplicate(&self, from: NodeId, to: NodeId, p: f64) {
        self.with_link(from, to, |l| l.plan.duplicate = p.clamp(0.0, 1.0));
    }

    /// Set the one-way reorder (hold-back) probability of `from → to`.
    pub fn set_reorder(&self, from: NodeId, to: NodeId, p: f64) {
        self.with_link(from, to, |l| l.plan.reorder = p.clamp(0.0, 1.0));
    }

    /// Set the injected latency range of `from → to`.
    pub fn set_delay(&self, from: NodeId, to: NodeId, lo: Duration, hi: Duration) {
        let lo = lo.as_micros() as u64;
        let hi = (hi.as_micros() as u64).max(lo);
        self.with_link(from, to, |l| l.plan.delay_us = (lo, hi));
    }

    /// Restore every link to a fault-free plan. Held-back one-way messages
    /// are *not* delivered — call [`SimNet::flush_pending`] for that. Link
    /// RNG state is preserved, so healing does not perturb determinism.
    pub fn heal(&self) {
        let mut links = self.links.lock();
        for ((from, to), link) in links.iter_mut() {
            link.plan = FaultPlan::default();
            let label = link_label(*from, *to);
            obs::gauge(obs::NET_LINK_UP, &label).set(1);
            obs::gauge(obs::NET_LINK_LOSS_PPM, &label).set(0);
        }
    }

    /// The fault plan currently installed on `from → to`.
    pub fn plan(&self, from: NodeId, to: NodeId) -> FaultPlan {
        self.with_link(from, to, |l| l.plan.clone())
    }

    /// Accumulated virtual time: injected delays plus RPC timeouts/backoff.
    pub fn virtual_time(&self) -> Duration {
        Duration::from_micros(self.virtual_us.load(Ordering::Relaxed))
    }

    /// One-way messages currently held back for reordered delivery.
    pub fn pending(&self) -> usize {
        self.links.lock().values().map(|l| l.held.len()).sum()
    }

    /// Snapshot of this instance's counters.
    pub fn stats(&self) -> NetStats {
        NetStats {
            sent: self.sent.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
        }
    }
}

impl Transport for SimNet {
    fn fate(&self, from: NodeId, to: NodeId) -> Fate {
        let label = link_label(from, to);
        self.sent.fetch_add(1, Ordering::Relaxed);
        obs::counter(obs::NET_SENT, &label).inc();
        let fate = self.with_link(from, to, |link| {
            if link.plan.partitioned {
                return Fate::Drop;
            }
            if link.plan.loss > 0.0 && link.rng.gen_bool(link.plan.loss) {
                return Fate::Drop;
            }
            let duplicates =
                u32::from(link.plan.duplicate > 0.0 && link.rng.gen_bool(link.plan.duplicate));
            let (lo, hi) = link.plan.delay_us;
            let delay_us = if hi > 0 { link.rng.gen_range(lo..=hi) } else { 0 };
            Fate::Deliver { duplicates, delay_us }
        });
        match fate {
            Fate::Drop => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                obs::counter(obs::NET_DROPPED, &label).inc();
            }
            Fate::Deliver { duplicates, delay_us } => {
                if duplicates > 0 {
                    self.duplicated.fetch_add(u64::from(duplicates), Ordering::Relaxed);
                    obs::counter(obs::NET_DUPLICATED, &label).add(u64::from(duplicates));
                }
                if delay_us > 0 {
                    self.delayed.fetch_add(1, Ordering::Relaxed);
                    obs::counter(obs::NET_DELAYED, &label).inc();
                    self.advance_virtual(delay_us);
                }
            }
        }
        fate
    }

    fn send_oneway(&self, from: NodeId, to: NodeId, op: Box<dyn Fn() + Send>) {
        let label = link_label(from, to);
        self.sent.fetch_add(1, Ordering::Relaxed);
        obs::counter(obs::NET_SENT, &label).inc();
        enum Verdict {
            Drop,
            Held,
            Deliver { op: Box<dyn Fn() + Send>, duplicates: u32, delay_us: u64 },
        }
        let verdict = self.with_link(from, to, |link| {
            if link.plan.partitioned || (link.plan.loss > 0.0 && link.rng.gen_bool(link.plan.loss))
            {
                return Verdict::Drop;
            }
            if link.plan.reorder > 0.0 && link.rng.gen_bool(link.plan.reorder) {
                link.held.push(op);
                return Verdict::Held;
            }
            let duplicates =
                u32::from(link.plan.duplicate > 0.0 && link.rng.gen_bool(link.plan.duplicate));
            let (lo, hi) = link.plan.delay_us;
            let delay_us = if hi > 0 { link.rng.gen_range(lo..=hi) } else { 0 };
            Verdict::Deliver { op, duplicates, delay_us }
        });
        match verdict {
            Verdict::Drop => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                obs::counter(obs::NET_DROPPED, &label).inc();
            }
            Verdict::Held => {
                self.reordered.fetch_add(1, Ordering::Relaxed);
                obs::counter(obs::NET_REORDERED, &label).inc();
            }
            Verdict::Deliver { op, duplicates, delay_us } => {
                if duplicates > 0 {
                    self.duplicated.fetch_add(u64::from(duplicates), Ordering::Relaxed);
                    obs::counter(obs::NET_DUPLICATED, &label).add(u64::from(duplicates));
                }
                if delay_us > 0 {
                    self.delayed.fetch_add(1, Ordering::Relaxed);
                    obs::counter(obs::NET_DELAYED, &label).inc();
                    self.advance_virtual(delay_us);
                }
                // The message is out of the transport's hands; execute after
                // releasing the link lock (duplicates model at-least-once).
                op();
                for _ in 0..duplicates {
                    op();
                }
            }
        }
    }

    fn flush_pending(&self) {
        // Drain each link's hold-back queue in link order, shuffling every
        // queue with that link's own RNG so the replay order is seeded.
        let mut batch: Vec<Box<dyn Fn() + Send>> = Vec::new();
        {
            let mut links = self.links.lock();
            for link in links.values_mut() {
                let mut held = std::mem::take(&mut link.held);
                rand::seq::SliceRandom::shuffle(held.as_mut_slice(), &mut link.rng);
                batch.extend(held);
            }
        }
        for op in batch {
            op();
        }
    }

    fn advance_virtual(&self, us: u64) {
        let total = self.virtual_us.fetch_add(us, Ordering::Relaxed) + us;
        obs::gauge(obs::NET_VIRTUAL_TIME_US, "sim").set(total as i64);
    }

    fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    fn note_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }
}

/// How an RPC failed — the caller's failure-handling forks on this:
/// [`RpcFailure::Exhausted`] is the *unreachable peer* signal that drives
/// writer failover, while [`RpcFailure::ResponseLost`] and
/// [`RpcFailure::App`] mean the peer executed (or rejected) the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcFailure {
    /// Every attempt timed out; the peer is unreachable on this link.
    Exhausted,
    /// The request executed but the acknowledgment was lost, and the caller
    /// declared the operation non-idempotent so it was not replayed.
    ResponseLost,
    /// The peer executed the request and returned an application error.
    App,
}

/// Run one request/response RPC over `transport` with per-attempt timeout
/// and bounded exponential backoff.
///
/// `idempotent` controls the lost-response case: the operation *did*
/// execute, so retrying re-executes it — safe for reads, refreshes,
/// deletes, and writer inserts deduplicated by client op id; callers whose
/// operation genuinely cannot be replayed declare `idempotent = false` and
/// surface the timeout instead. Application errors returned by `f`
/// propagate immediately and are never retried.
pub fn rpc<T>(
    transport: &dyn Transport,
    from: NodeId,
    to: NodeId,
    op: &str,
    policy: &RetryPolicy,
    idempotent: bool,
    f: impl FnMut() -> StorageResult<T>,
) -> StorageResult<T> {
    rpc_detailed(transport, from, to, op, policy, idempotent, f).map_err(|(_, e)| e)
}

/// [`rpc`] that also reports *how* the call failed, so callers can
/// distinguish an unreachable peer (failover trigger) from an executed
/// operation whose outcome is merely unknown or rejected.
pub fn rpc_detailed<T>(
    transport: &dyn Transport,
    from: NodeId,
    to: NodeId,
    op: &str,
    policy: &RetryPolicy,
    idempotent: bool,
    mut f: impl FnMut() -> StorageResult<T>,
) -> Result<T, (RpcFailure, StorageError)> {
    if transport.is_direct() {
        return f().map_err(|e| (RpcFailure::App, e));
    }
    let label = link_label(from, to);
    let attempts = policy.attempts.max(1);
    let mut backoff = policy.backoff_base;
    for attempt in 0..attempts {
        // Injected delivery delays are charged to the virtual clock by the
        // transport itself inside `fate`.
        let executed = match transport.fate(from, to) {
            Fate::Deliver { duplicates, .. } => {
                let result = f();
                for _ in 0..duplicates {
                    // At-least-once delivery: the destination sees the
                    // request again; the extra outcome is discarded.
                    let _ = f();
                }
                Some(result)
            }
            Fate::Drop => None,
        };
        if let Some(result) = executed {
            match transport.fate(to, from) {
                Fate::Deliver { .. } => {
                    return result.map_err(|e| (RpcFailure::App, e));
                }
                Fate::Drop => {
                    // Executed, but the ack is lost. Retrying re-executes.
                    if !idempotent {
                        transport.note_timeout();
                        obs::counter(obs::NET_TIMEOUTS, &label).inc();
                        transport.advance_virtual(policy.timeout.as_micros() as u64);
                        return Err((
                            RpcFailure::ResponseLost,
                            StorageError::Unavailable(format!(
                                "rpc {op} {from}->{to}: response lost; not retried (non-idempotent)"
                            )),
                        ));
                    }
                }
            }
        }
        transport.note_timeout();
        obs::counter(obs::NET_TIMEOUTS, &label).inc();
        transport.advance_virtual(policy.timeout.as_micros() as u64);
        if attempt + 1 < attempts {
            transport.note_retry();
            obs::counter(obs::NET_RETRIES, &label).inc();
            transport.advance_virtual(backoff.as_micros() as u64);
            backoff = (backoff * 2).min(policy.backoff_cap);
        }
    }
    Err((
        RpcFailure::Exhausted,
        StorageError::Unavailable(format!(
            "rpc {op} {from}->{to}: {attempts} attempts timed out"
        )),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    const A: NodeId = NodeId::Client;
    const B: NodeId = NodeId::Reader(0);

    fn count_calls(net: &SimNet, policy: &RetryPolicy) -> (StorageResult<u64>, usize) {
        let calls = AtomicUsize::new(0);
        let res = rpc(net, A, B, "op", policy, true, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(7u64)
        });
        (res, calls.load(Ordering::Relaxed))
    }

    #[test]
    fn direct_is_transparent() {
        let d = Direct;
        let res = rpc(&d, A, B, "op", &RetryPolicy::default(), false, || Ok(41u64)).unwrap();
        assert_eq!(res, 41);
        let fired = Arc::new(AtomicUsize::new(0));
        let f2 = Arc::clone(&fired);
        d.send_oneway(A, B, Box::new(move || {
            f2.fetch_add(1, Ordering::Relaxed);
        }));
        assert_eq!(fired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn clean_simnet_delivers_exactly_once() {
        let net = SimNet::new(1);
        let (res, calls) = count_calls(&net, &RetryPolicy::default());
        assert_eq!(res.unwrap(), 7);
        assert_eq!(calls, 1);
        assert_eq!(net.stats().dropped, 0);
    }

    #[test]
    fn partition_times_out_with_bounded_attempts() {
        let net = SimNet::new(2);
        net.partition(A, B);
        let policy = RetryPolicy { attempts: 3, ..Default::default() };
        let (res, calls) = count_calls(&net, &policy);
        assert!(matches!(res, Err(StorageError::Unavailable(_))));
        assert_eq!(calls, 0, "a partitioned request must never execute");
        let s = net.stats();
        assert_eq!(s.dropped, 3);
        assert_eq!(s.timeouts, 3);
        assert_eq!(s.retries, 2);
        assert!(net.virtual_time() >= Duration::from_millis(150));
    }

    #[test]
    fn heal_restores_delivery() {
        let net = SimNet::new(3);
        net.partition(A, B);
        assert!(count_calls(&net, &RetryPolicy::no_retries()).0.is_err());
        net.heal();
        assert_eq!(count_calls(&net, &RetryPolicy::default()).0.unwrap(), 7);
    }

    #[test]
    fn asymmetric_partition_lost_response_not_retried_when_non_idempotent() {
        let net = SimNet::new(4);
        net.partition_oneway(B, A); // responses lost, requests delivered
        let calls = AtomicUsize::new(0);
        let res = rpc(&*net, A, B, "op", &RetryPolicy::default(), false, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        assert!(matches!(res, Err(StorageError::Unavailable(_))));
        assert_eq!(calls.load(Ordering::Relaxed), 1, "executed once, never replayed");
    }

    #[test]
    fn asymmetric_partition_idempotent_retries_until_exhausted() {
        let net = SimNet::new(5);
        net.partition_oneway(B, A);
        let policy = RetryPolicy { attempts: 3, ..Default::default() };
        let (res, calls) = count_calls(&net, &policy);
        assert!(res.is_err());
        assert_eq!(calls, 3, "idempotent op re-executes once per attempt");
    }

    #[test]
    fn application_errors_propagate_without_retry() {
        let net = SimNet::new(6);
        let calls = AtomicUsize::new(0);
        let res: StorageResult<()> =
            rpc(&*net, A, B, "op", &RetryPolicy::default(), true, || {
                calls.fetch_add(1, Ordering::Relaxed);
                Err(StorageError::Corrupt("boom".into()))
            });
        assert!(matches!(res, Err(StorageError::Corrupt(_))));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn loss_draws_are_seed_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let net = SimNet::new(seed);
            net.set_loss(A, B, 0.5);
            (0..64).map(|_| matches!(net.fate(A, B), Fate::Drop)).collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should diverge");
        let drops = run(42).iter().filter(|&&d| d).count();
        assert!((10..=54).contains(&drops), "p=0.5 over 64 draws, got {drops}");
    }

    #[test]
    fn oneway_reorder_holds_until_flush() {
        let net = SimNet::new(7);
        net.set_reorder(A, B, 1.0);
        let fired = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            let f = Arc::clone(&fired);
            net.send_oneway(A, B, Box::new(move || {
                f.fetch_add(1, Ordering::Relaxed);
            }));
        }
        assert_eq!(fired.load(Ordering::Relaxed), 0);
        assert_eq!(net.pending(), 5);
        net.flush_pending();
        assert_eq!(fired.load(Ordering::Relaxed), 5);
        assert_eq!(net.pending(), 0);
        assert_eq!(net.stats().reordered, 5);
    }

    #[test]
    fn oneway_duplicates_execute_twice() {
        let net = SimNet::new(8);
        net.set_duplicate(A, B, 1.0);
        let fired = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fired);
        net.send_oneway(A, B, Box::new(move || {
            f.fetch_add(1, Ordering::Relaxed);
        }));
        assert_eq!(fired.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn delay_advances_virtual_clock_only() {
        let net = SimNet::new(9);
        net.set_delay(A, B, Duration::from_millis(5), Duration::from_millis(9));
        let wall = std::time::Instant::now();
        for _ in 0..100 {
            let _ = net.fate(A, B);
        }
        assert!(net.virtual_time() >= Duration::from_millis(450), "injected delay accumulates");
        assert!(wall.elapsed() < Duration::from_secs(1), "no real sleeping");
        assert_eq!(net.stats().delayed, 100);
    }
}

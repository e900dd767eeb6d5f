//! One run of one workload: set the system up from the seeded inputs, drive
//! the measured phases, check what came back, and work out the metrics.
//!
//! Every workload goes through the same phases, each against its own system
//! and operation, so that every metric exists on every workload.
//!
//! An untraced run (`--trace 0`, the end-to-end metrics):
//!
//! 1. set-up, several times over, for `setup_s`;
//! 2. [`ROUNDS`] rounds, each a closed loop of single searches
//!    (`search_qps`) and one of 32-query batches
//!    (`batch_qps`). The two alternate so that each sees the whole run, and
//!    each metric is a quartile over short windows of all its rounds (see
//!    [`end_to_end`]);
//! 3. recall against the exact reference, stored bytes;
//! 4. write cycles (insert, flush, probe): every new row must be found.
//!
//! A traced run (`--trace 1`, the per-layer metrics) is half as long and
//! replaces the rounds by one closed loop of searches (half
//! with the program's tracing off, half with it on), one of batches, and an
//! open loop at four fixed rates.
//!
//! `ingest_search` differs in that its write cycles run on a second thread
//! throughout the searches instead of afterwards.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use milvus_obs as obs;

use crate::gen::{exact_top_k, recall, Dataset};
use crate::load::{self, Phase, Tracing};
use crate::manifest::STAGES;
use crate::probes::{self, Reading};
use crate::spans::{OpScope, SpanLog, TraceFile};
use crate::stats::{median, percentile_sorted, sliced_percentile, sort};
use crate::systems::{
    write_cycle, ClusterSystem, CollectionSystem, CycleTimes, OpResult, SetupReport, Shape, System,
    WriteLedger, BATCH, K,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Collection(Shape),
    Cluster,
}

/// The frozen shape of one workload. Sizes, rates and the latency limit are
/// constants of the benchmark: identical on every commit it measures.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Base rows and their dimension.
    pub n: usize,
    pub dim: usize,
    /// Rows per write cycle.
    pub write_batch: usize,
    /// `Some`: write cycles run beside the searches, one per this period.
    /// `None`: [`Spec::write_cycles`] of them run after the searches, back
    /// to back.
    pub writer_period: Option<Duration>,
    pub write_cycles: u64,
    /// Open-loop rates in requests per second, ascending: about 20 %, 35 %,
    /// 170 % and 240 % of the rate at which the open loop's backlog began to
    /// grow when the benchmark was written. The first two leave room for the
    /// box to slow by a third without queueing; the last two stay beyond what
    /// it can do when it is at its fastest.
    pub rates: [f64; 4],
    /// A rate is met when its p95 stays at or under this many milliseconds
    /// (five times the p95 measured at the lowest rate when the benchmark
    /// was written) and the generator's backlog does not grow.
    pub limit_ms: f64,
    /// `recall_at_10` below this fails the run.
    pub recall_floor: Option<f64>,
}

/// Load-generating threads in every phase.
pub const CLIENTS: usize = 2;
/// Distinct queries; request `k` uses query `k mod QUERY_SLOTS`.
pub const QUERY_SLOTS: usize = 512;
/// Queries whose answers are compared with the exact reference.
const VERIFY_QUERIES: usize = 256;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Rounds of an untraced run, and the share of `--seconds / ROUNDS` each
/// part of a round gets. Before the first round the clients search for
/// [`WARM_UP`], untimed.
const ROUNDS: usize = 8;
const SINGLE_SHARE: f64 = 0.55;
const BATCH_SHARE: f64 = 0.45;
const WARM_UP: Duration = Duration::from_millis(500);
/// Width of the windows the rounds are cut into, in seconds: a few hundred
/// single searches, or some twenty batches.
const SINGLE_WINDOW_S: f64 = 0.25;
const BATCH_WINDOW_S: f64 = 0.5;

/// Shares of a traced run's (halved) `--seconds` per phase.
const CLOSED_SHARE: f64 = 0.30;
const TRACED_BATCH_SHARE: f64 = 0.20;
const OPEN_SHARES: [f64; 4] = [0.20, 0.20, 0.05, 0.05];

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "ann_read",
        kind: Kind::Collection(Shape::AnnRead),
        n: 60_000,
        dim: 128,
        write_batch: 6000,
        writer_period: None,
        write_cycles: 10,
        rates: [350.0, 600.0, 3000.0, 4200.0],
        limit_ms: 2.1,
        recall_floor: Some(0.80),
    },
    Spec {
        name: "filtered_sweep",
        kind: Kind::Collection(Shape::FilteredSweep),
        n: 60_000,
        dim: 128,
        write_batch: 6000,
        writer_period: None,
        write_cycles: 10,
        rates: [250.0, 440.0, 2100.0, 3000.0],
        limit_ms: 7.9,
        recall_floor: None,
    },
    Spec {
        name: "ingest_search",
        kind: Kind::Collection(Shape::IngestSearch),
        n: 40_000,
        dim: 128,
        write_batch: 1000,
        writer_period: Some(Duration::from_millis(500)),
        write_cycles: 0,
        rates: [140.0, 245.0, 1200.0, 1700.0],
        limit_ms: 7.8,
        recall_floor: None,
    },
    Spec {
        name: "cluster_serve",
        kind: Kind::Cluster,
        n: 60_000,
        dim: 128,
        write_batch: 6000,
        writer_period: None,
        write_cycles: 10,
        rates: [155.0, 270.0, 1300.0, 1900.0],
        limit_ms: 8.0,
        recall_floor: Some(0.80),
    },
];

/// What a run hands back to be printed.
pub struct Outcome {
    pub metrics: Vec<Reading>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Why the run is not correct, and other things worth a line.
    pub notes: Vec<String>,
}

/// Counts operations and keeps the first few failure messages.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn phase(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
    }

    fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

fn set_sampling(rate: f64) {
    obs::set_trace_config(obs::TraceConfig {
        sample_rate: rate,
        ..Default::default()
    });
}

fn setup(
    kind: Kind,
    data: &Arc<Dataset>,
    scratch: &Path,
    instance: usize,
) -> OpResult<(Box<dyn System>, SetupReport)> {
    Ok(match kind {
        Kind::Collection(shape) => {
            let (sys, report) = CollectionSystem::setup(shape, data, scratch, instance)?;
            (Box::new(sys), report)
        }
        Kind::Cluster => {
            let (sys, report) = ClusterSystem::setup(data)?;
            (Box::new(sys), report)
        }
    })
}

/// The checks every search answer goes through, outside the timed call.
struct Checker<'a> {
    data: &'a Dataset,
    ledger: &'a WriteLedger,
    filtered: bool,
    failures: Mutex<Vec<String>>,
}

impl Checker<'_> {
    fn note(&self, msg: String) -> bool {
        let mut f = self.failures.lock().expect("failure list lock");
        if f.len() < 5 {
            f.push(msg);
        }
        false
    }

    /// `completed` is the ledger's count from before the search began: an id
    /// whose delete had been flushed by then must not come back.
    fn ids(&self, k: u64, completed: u64, ids: &[i64], filter_slot: Option<usize>) -> bool {
        if ids.len() != K {
            return self.note(format!("request {k}: {} hits, expected {K}", ids.len()));
        }
        if let Some(&id) = ids
            .iter()
            .find(|&&id| self.ledger.deleted_after(id, completed))
        {
            return self.note(format!("request {k}: deleted id {id} returned"));
        }
        if let Some(slot) = filter_slot {
            let p = self.data.predicates[slot];
            if let Some(&id) = ids.iter().find(|&&id| !p.matches(self.data.attr_of(id))) {
                return self.note(format!("request {k}: id {id} violates its predicate"));
            }
        }
        true
    }

    fn search(&self, k: u64, (completed, result): (u64, OpResult<Vec<i64>>)) -> bool {
        let slot = self
            .filtered
            .then_some(k as usize % self.data.queries.len());
        match result {
            Ok(ids) => self.ids(k, completed, &ids, slot),
            Err(e) => self.note(format!("request {k}: {e}")),
        }
    }

    fn batch(&self, k: u64, (completed, result): (u64, OpResult<Vec<Vec<i64>>>)) -> bool {
        match result {
            Ok(lists) if lists.len() == BATCH => {
                lists.iter().all(|ids| self.ids(k, completed, ids, None))
            }
            Ok(lists) => self.note(format!(
                "batch {k}: {} lists, expected {BATCH}",
                lists.len()
            )),
            Err(e) => self.note(format!("batch {k}: {e}")),
        }
    }
}

/// Runs write cycles until told to stop or out of rows, one per `period`.
fn writer_loop(
    sys: &dyn System,
    ledger: &WriteLedger,
    max_cycles: u64,
    period: Duration,
    stop: &AtomicBool,
    log: &mut SpanLog,
) -> Vec<CycleTimes> {
    let mut cycles = Vec::new();
    while !stop.load(Ordering::SeqCst) && ledger.completed() < max_cycles {
        let began = Instant::now();
        cycles.push(log.op("write_cycle", |scope| write_cycle(sys, ledger, scope)));
        // Paced, so that the same amount is written in every run however
        // fast the system is; a cycle that overruns its period is
        // followed at once by the next.
        while !stop.load(Ordering::SeqCst) && began.elapsed() < period {
            std::thread::sleep(
                (period - began.elapsed().min(period)).min(Duration::from_millis(5)),
            );
        }
    }
    cycles
}

/// The searches of an untraced run, one phase per round and kind.
struct Rounds {
    /// Single searches.
    single: Vec<Phase>,
    /// 32-query batches.
    batch: Vec<Phase>,
}

/// The searches of a traced run.
struct TracedPhases {
    /// Closed loop of single searches, the program's own tracing off.
    closed_untraced: Phase,
    /// The same with it on. The difference between the two is what it costs.
    closed: Phase,
    batch: Phase,
    open: Vec<Phase>,
}

enum Searches {
    Rounds(Rounds),
    Traced(TracedPhases),
}

impl Searches {
    fn phases(&self) -> Vec<&Phase> {
        match self {
            Searches::Rounds(r) => r.single.iter().chain(&r.batch).collect(),
            Searches::Traced(t) => [&t.closed_untraced, &t.closed, &t.batch]
                .into_iter()
                .chain(&t.open)
                .collect(),
        }
    }
}

/// The load generators pointed at one system.
struct Loops<'a> {
    spec: &'a Spec,
    sys: &'a dyn System,
    checker: &'a Checker<'a>,
    trace_epoch: Option<Instant>,
}

impl Loops<'_> {
    /// Load threads that search: a writer beside the searches takes one of
    /// the two.
    fn clients(&self) -> usize {
        if self.spec.writer_period.is_some() {
            CLIENTS - 1
        } else {
            CLIENTS
        }
    }

    fn tracing(&self, first_thread: u64) -> Tracing {
        Tracing {
            epoch: self.trace_epoch,
            first_thread,
        }
    }

    fn search(&self, k: u64, scope: &mut OpScope<'_>) -> (u64, OpResult<Vec<i64>>) {
        (self.checker.ledger.completed(), self.sys.search(k, scope))
    }

    fn searches(&self, duration: Duration, first_thread: u64) -> Phase {
        load::closed_loop(
            "search",
            self.clients(),
            duration,
            self.tracing(first_thread),
            |k, scope| self.search(k, scope),
            |k, r| self.checker.search(k, r),
        )
    }

    fn batches(&self, duration: Duration, first_thread: u64) -> Phase {
        load::closed_loop(
            "search_batch",
            self.clients(),
            duration,
            self.tracing(first_thread),
            |k, scope| {
                (
                    self.checker.ledger.completed(),
                    self.sys.search_batch(k, scope),
                )
            },
            |k, r| self.checker.batch(k, r),
        )
    }

    fn rounds(&self, seconds: f64) -> Rounds {
        let part = |share: f64| Duration::from_secs_f64(seconds / ROUNDS as f64 * share);
        // Untimed: caches fill and lazy set-up finishes.
        self.searches(WARM_UP, 0);
        let mut rounds = Rounds {
            single: Vec::new(),
            batch: Vec::new(),
        };
        for _ in 0..ROUNDS {
            rounds.single.push(self.searches(part(SINGLE_SHARE), 0));
            rounds.batch.push(self.batches(part(BATCH_SHARE), 0));
        }
        rounds
    }

    fn traced(&self, seconds: f64) -> TracedPhases {
        let dur = |share: f64| Duration::from_secs_f64(seconds * share);
        let half = dur(CLOSED_SHARE / 2.0);
        let closed_untraced = self.searches(half, 0);
        set_sampling(1.0);
        let closed = self.searches(half, 10);
        let batch = self.batches(dur(TRACED_BATCH_SHARE), 20);
        let open = (0..4)
            .map(|i| {
                load::open_loop(
                    "search",
                    self.clients(),
                    self.spec.rates[i],
                    dur(OPEN_SHARES[i]),
                    self.tracing(30 + 10 * i as u64),
                    |k, scope| self.search(k, scope),
                    |k, r| self.checker.search(k, r),
                )
            })
            .collect();
        TracedPhases {
            closed_untraced,
            closed,
            batch,
            open,
        }
    }
}

/// Runs `searches` — beside the writer thread, where the workload has one.
/// Returns what it returned, the writer's cycles and its span log.
fn beside_writer<T>(
    loops: &Loops<'_>,
    max_cycles: u64,
    searches: impl FnOnce() -> T,
) -> (T, Vec<CycleTimes>, Option<SpanLog>) {
    let (sys, ledger, trace_epoch) = (loops.sys, loops.checker.ledger, loops.trace_epoch);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = loops.spec.writer_period.map(|period| {
            let stop = &stop;
            s.spawn(move || {
                let mut log = SpanLog::of_run(trace_epoch, 90);
                let cycles = writer_loop(sys, ledger, max_cycles, period, stop, &mut log);
                (cycles, log)
            })
        });
        let out = searches();
        stop.store(true, Ordering::SeqCst);
        let (cycles, writer_log) = writer
            .map(|h| h.join().expect("writer thread panicked"))
            .map_or((Vec::new(), None), |(c, l)| (c, Some(l)));
        (out, cycles, writer_log)
    })
}

/// Counter deltas of the program's own registry over the traced run, written
/// beside the spans.
fn counter_deltas(
    before: &obs::MetricsSnapshot,
    after: &obs::MetricsSnapshot,
) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (key, &now) in &after.counters {
        let was = before.counters.get(key).copied().unwrap_or(0);
        if now > was {
            let segment = key
                .segment
                .map_or(String::new(), |s| format!(",segment={s}"));
            out.insert(
                format!("{}{{{}{}}}", key.name, key.label, segment),
                (now - was) as f64,
            );
        }
    }
    out
}

fn reading(name: &str, value: f64, n: usize) -> Reading {
    (name.to_string(), value, n)
}

/// Whether an open-loop rate was met: nothing failed, its p95 is within the
/// limit and the generator's backlog did not grow.
fn rate_met(spec: &Spec, phase: &Phase) -> bool {
    phase.failed == 0
        && phase.latency_ms(95.0) <= spec.limit_ms
        && load::backlog_bounded(phase, spec.limit_ms)
}

/// Rows acknowledged per second of the writer's time, deletes and flushes
/// included: all the rows over all the time. Cycles differ (some set off a
/// merge, later ones find more segments), so a median over single cycles
/// would sit between their modes.
fn write_cycle_rows_per_s(write_batch: usize, cycles: &[CycleTimes]) -> f64 {
    (cycles.len() * write_batch) as f64 / cycles.iter().map(|c| c.busy_s).sum::<f64>()
}

fn samples(phases: &[Phase]) -> usize {
    phases.iter().map(|ph| ph.samples.len()).sum()
}

/// What a user of the system sees; from a run with tracing off everywhere.
///
/// The two rates of the searches are the upper quartile over the windows of
/// all rounds. The host this runs on takes the
/// processors away for stretches of a tenth of a second to tens of seconds,
/// which slows the windows it hits and never speeds one up; the quarter of
/// the run it disturbed least is what repeats from run to run.
fn end_to_end(
    rounds: &Rounds,
    setups: &[SetupReport],
    recall_at_10: f64,
    bytes_per_user_byte: f64,
    tally: &Tally,
) -> Vec<Reading> {
    let setup_s: Vec<f64> = setups.iter().map(|r| r.total_s).collect();
    let windows = |phases: &[Phase], f: &dyn Fn(&Phase) -> Vec<f64>| -> Vec<f64> {
        let mut all: Vec<f64> = phases.iter().flat_map(f).collect();
        sort(&mut all);
        all
    };
    let rates = windows(&rounds.single, &|ph| ph.window_rates(1.0, SINGLE_WINDOW_S));
    let batch_rates = windows(&rounds.batch, &|ph| {
        ph.window_rates(BATCH as f64, BATCH_WINDOW_S)
    });
    for (r, (single, batch)) in rounds.single.iter().zip(&rounds.batch).enumerate() {
        println!(
            "round {}: search_p50_ms {:.4} search_qps {:.2} batch_qps {:.2}",
            r + 1,
            single.latency_ms(50.0),
            single.rate(1.0, 1),
            batch.rate(BATCH as f64, 1)
        );
    }
    println!(
        "over all windows: search_qps {:.2} batch_qps {:.2}",
        percentile_sorted(&rates, 50.0),
        percentile_sorted(&batch_rates, 50.0)
    );
    let all: Vec<(f64, f64)> = rounds
        .single
        .iter()
        .flat_map(|ph| ph.samples.iter().map(|s| (s.end_s, s.latency_ms)))
        .collect();
    println!(
        "search_p50_ms {:.4} search_p95_ms {:.4} ms n={}",
        sliced_percentile(&all, 50.0, 1),
        sliced_percentile(&all, 95.0, 1),
        all.len()
    );
    vec![
        reading("setup_s", median(&setup_s), setup_s.len()),
        reading(
            "search_qps",
            percentile_sorted(&rates, 75.0),
            samples(&rounds.single),
        ),
        reading(
            "batch_qps",
            percentile_sorted(&batch_rates, 75.0),
            samples(&rounds.batch) * BATCH,
        ),
        reading("recall_at_10", recall_at_10, VERIFY_QUERIES),
        reading(
            "ok_ops_ratio",
            (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
            tally.attempted as usize,
        ),
        reading("bytes_per_user_byte", bytes_per_user_byte, 1),
    ]
}

/// The per-layer metrics that come from the traced run itself: the program's
/// own profiler and counters over the phases, and the overloaded rates.
fn from_traced_run(
    spec: &Spec,
    phases: &TracedPhases,
    cycles: &[CycleTimes],
    profile: &obs::ProfileReport,
    before: &obs::MetricsSnapshot,
    after: &obs::MetricsSnapshot,
) -> Vec<Reading> {
    let (closed, open) = (&phases.closed, &phases.open);
    for (i, phase) in open.iter().enumerate() {
        println!(
            "open rate r{} {}/s: p50 {:.3} ms p95 {:.3} ms n={} met={}",
            i + 1,
            spec.rates[i],
            phase.latency_ms(50.0),
            phase.latency_ms(95.0),
            phase.samples.len(),
            rate_met(spec, phase)
        );
    }
    // No rate met: half the lowest, which still says "below the ladder".
    let max_ok = (0..4)
        .rev()
        .find(|&i| rate_met(spec, &open[i]))
        .map_or(spec.rates[0] / 2.0, |i| spec.rates[i]);
    let lag_ms: Vec<f64> = cycles.iter().map(|c| c.visible_s * 1e3).collect();
    let mut out = vec![
        reading(
            "core.search_p50_ms",
            closed.latency_ms(50.0),
            closed.samples.len(),
        ),
        reading(
            "core.search_p95_ms",
            closed.latency_ms(95.0),
            closed.samples.len(),
        ),
        reading(
            "core.search_p99_ms",
            closed.latency_ms(99.0),
            closed.samples.len(),
        ),
        reading(
            "core.write_cycle_rows_per_s",
            write_cycle_rows_per_s(spec.write_batch, cycles),
            cycles.len(),
        ),
        reading("storage.visible_lag_p50_ms", median(&lag_ms), lag_ms.len()),
        reading(
            "distributed.open_p50_ms_r2",
            open[1].latency_ms(50.0),
            open[1].samples.len(),
        ),
        reading(
            "distributed.open_max_ok_qps",
            max_ok,
            open.iter().map(|ph| ph.samples.len()).sum(),
        ),
    ];
    // Each stage's share of all the time the program's profiler attributed.
    let stages = || profile.ops.iter().flat_map(|o| &o.stages);
    let all_us: u64 = stages().map(|s| s.total_us).sum();
    let traced_queries: u64 = profile.ops.iter().map(|o| o.queries).sum();
    for stage in STAGES {
        let us: u64 = stages()
            .filter(|s| s.kind.as_str() == stage)
            .map(|s| s.total_us)
            .sum();
        out.push(reading(
            &format!("core.stage_share.{stage}"),
            us as f64 / all_us.max(1) as f64,
            traced_queries as usize,
        ));
    }
    let total = |name: &str| (after.counter_total(name) - before.counter_total(name)) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (pass, coalesced, batches) = (
        total(obs::SCHED_PASSTHROUGH),
        total(obs::SCHED_COALESCED_QUERIES),
        total(obs::SCHED_COALESCED_BATCHES),
    );
    let queries = total(obs::QUERY_TOTAL);
    // Lateness at the two rates the system is meant to keep up with.
    let late: Vec<(f64, f64)> = open[..2]
        .iter()
        .flat_map(|ph| ph.samples.iter().map(|s| (s.end_s, s.late_ms)))
        .collect();
    let untraced = &phases.closed_untraced;
    out.extend([
        reading(
            "core.sched_passthrough_ratio",
            ratio(pass, pass + coalesced),
            (pass + coalesced) as usize,
        ),
        reading(
            "core.sched_batch_size_mean",
            ratio(coalesced, batches),
            batches as usize,
        ),
        reading(
            "core.sched_shed_total",
            total(obs::SCHED_SHED),
            queries as usize,
        ),
        reading(
            "index.nprobe_effective_mean",
            ratio(total(obs::QUERY_NPROBE_EFFECTIVE), queries),
            queries as usize,
        ),
        reading(
            "distributed.open_p95_ms_r1",
            open[0].latency_ms(95.0),
            open[0].samples.len(),
        ),
        reading(
            "distributed.open_p95_ms_r2",
            open[1].latency_ms(95.0),
            open[1].samples.len(),
        ),
        reading(
            "distributed.open_p95_ms_r3",
            open[2].latency_ms(95.0),
            open[2].samples.len(),
        ),
        reading(
            "distributed.open_p95_ms_r4",
            open[3].latency_ms(95.0),
            open[3].samples.len(),
        ),
        reading(
            "distributed.generator_late_ms_p95",
            sliced_percentile(&late, 95.0, 1),
            late.len(),
        ),
        reading(
            "obs.trace_overhead_ratio",
            closed.latency_ms(50.0) / untraced.latency_ms(50.0) - 1.0,
            closed.samples.len(),
        ),
    ]);
    out
}

/// Run `spec` once. `traced` selects which family of metrics comes back:
/// end-to-end (tracing off everywhere) or per-layer (the traced run).
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    scratch: &Path,
    out: &Path,
) -> OpResult<Outcome> {
    let seconds = if traced { seconds / 2.0 } else { seconds };
    let max_cycles = match spec.writer_period {
        Some(period) => (seconds * 1.6 / period.as_secs_f64()) as u64 + 16,
        None => spec.write_cycles,
    };
    let data = Arc::new(Dataset::generate(
        seed,
        spec.n,
        max_cycles as usize * spec.write_batch,
        spec.dim,
        QUERY_SLOTS,
    ));
    println!("inputs_fnv {} {:016x}", spec.name, data.inputs_fnv);

    set_sampling(0.0);
    let mut setups: Vec<SetupReport> = Vec::new();
    let mut system = None;
    for instance in 0..if traced { 1 } else { SETUPS } {
        // One system at a time: the previous one is torn down first.
        drop(system.take());
        let (sys, report) = setup(spec.kind, &data, scratch, instance)?;
        setups.push(report);
        system = Some(sys);
    }
    let sys = system.expect("at least one set-up ran");
    let sys: &dyn System = &*sys;
    println!(
        "index_build_s {:.4} s",
        median(&setups.iter().map(|r| r.index_build_s).collect::<Vec<_>>())
    );

    let ledger = WriteLedger::new(spec.n, spec.write_batch);
    let checker = Checker {
        data: &data,
        ledger: &ledger,
        filtered: spec.kind == Kind::Collection(Shape::FilteredSweep),
        failures: Mutex::new(Vec::new()),
    };

    let trace_epoch = traced.then(Instant::now);
    obs::query_profiler().clear();
    let counters_before = obs::registry().snapshot();
    let loops = Loops {
        spec,
        sys,
        checker: &checker,
        trace_epoch,
    };
    let (searches, mut cycles, writer_log) = beside_writer(&loops, max_cycles, || {
        if traced {
            Searches::Traced(loops.traced(seconds))
        } else {
            Searches::Rounds(loops.rounds(seconds))
        }
    });
    let profile = obs::query_profiler().report();
    set_sampling(0.0);
    let counters_after = obs::registry().snapshot();
    let mut tally = Tally::default();
    searches.phases().into_iter().for_each(|ph| tally.phase(ph));

    // Recall against the exact reference over the rows live right now.
    let mut tail_log = SpanLog::of_run(trace_epoch, 95);
    let completed = ledger.completed();
    let live: Vec<i64> = (0..(spec.n + completed as usize * spec.write_batch) as i64)
        .filter(|&id| ledger.live_after(id, completed))
        .collect();
    let mut recalls = Vec::with_capacity(VERIFY_QUERIES);
    for slot in 0..VERIFY_QUERIES {
        let got = tail_log.op("verify", |scope| sys.search(slot as u64, scope));
        let pred = checker.filtered.then(|| data.predicates[slot]);
        let truth = exact_top_k(
            &data,
            live.iter().copied(),
            data.queries.get(slot),
            K,
            |id| pred.is_none_or(|p| p.matches(data.attr_of(id))),
        );
        recalls.push(recall(&truth, got.as_deref().unwrap_or_default()));
        let ok = checker.search(slot as u64, (completed, got));
        tally.gate(ok, || format!("verify query {slot} failed its checks"));
    }
    let recall_at_10 = recalls.iter().sum::<f64>() / recalls.len() as f64;
    if let Some(floor) = spec.recall_floor {
        tally.gate(recall_at_10 >= floor, || {
            format!("recall_at_10 {recall_at_10:.4} is below {floor}")
        });
    }
    let user_bytes = sys.live_rows() * data.user_bytes_per_row(sys.n_attrs());
    let bytes_per_user_byte = sys.stored_bytes() as f64 / user_bytes as f64;

    // Write cycles, where none ran beside the searches: one load thread
    // writes, back to back; the other only yields, which keeps its processor
    // awake (see `load::wait_until`) without competing for it.
    if spec.writer_period.is_none() {
        let never = AtomicBool::new(false);
        cycles = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                writer_loop(
                    sys,
                    &ledger,
                    spec.write_cycles,
                    Duration::ZERO,
                    &never,
                    &mut tail_log,
                )
            });
            while !writer.is_finished() {
                std::thread::yield_now();
            }
            writer.join().expect("writer thread panicked")
        });
    }
    for (c, cycle) in cycles.iter().enumerate() {
        tally.gate(cycle.ok, || {
            format!("write cycle {c}: the new row was not returned after its flush")
        });
    }
    let completed = ledger.completed();
    tally.gate(sys.live_rows() == ledger.live_count(completed), || {
        format!(
            "{} live rows, expected {}",
            sys.live_rows(),
            ledger.live_count(completed)
        )
    });
    tally.notes.extend(
        checker
            .failures
            .lock()
            .expect("failure list lock")
            .drain(..),
    );

    let metrics = match searches {
        Searches::Rounds(rounds) => {
            end_to_end(&rounds, &setups, recall_at_10, bytes_per_user_byte, &tally)
        }
        Searches::Traced(phases) => {
            let mut metrics = from_traced_run(
                spec,
                &phases,
                &cycles,
                &profile,
                &counters_before,
                &counters_after,
            );
            let mut probe_log = SpanLog::of_run(trace_epoch, 99);
            metrics.extend(probes::run(&data, seed, scratch, &mut probe_log)?);

            let mut file = TraceFile::default();
            let TracedPhases {
                closed_untraced,
                closed,
                batch,
                open,
            } = phases;
            let of_phases = [closed_untraced, closed, batch]
                .into_iter()
                .chain(open)
                .flat_map(|ph| ph.logs);
            of_phases
                .chain(writer_log)
                .chain([tail_log, probe_log])
                .for_each(|log| file.add(log));
            let path = out.join(format!("trace_{}.json", spec.name));
            let json = file.to_json(
                spec.name,
                seed,
                &counter_deltas(&counters_before, &obs::registry().snapshot()),
            );
            std::fs::write(&path, json.to_string())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("trace {} spans -> {}", file.span_count(), path.display());
            for (name, t) in file.totals() {
                println!(
                    "span {name}: n={} total {:.3} ms self {:.3} ms",
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                );
            }
            metrics
        }
    };

    Ok(Outcome {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.failed == 0,
        notes: tally.notes,
    })
}

//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's side of each call into a layer
//! (`Collection::search`, `VectorIndex::search`, `LsmEngine::flush`, …): no
//! span is added inside any crate. Each operation gets a root span, each
//! layer call a child. Spans stay in memory — one log per thread, so
//! recording takes no lock — and are written out when the run ends. With
//! tracing off a log hands the closure straight through and reads no clock.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

/// A log stops recording past this many spans and counts what it dropped, so
/// a traced run's file and memory stay bounded.
const MAX_SPANS_PER_LOG: usize = 60_000;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Position of the parent span in the same log; `None` for a root.
    pub parent: Option<usize>,
    /// Spans of one operation share this id.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span log.
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    /// Thread number, folded into operation ids so they are unique per run.
    thread: u64,
    next_op: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanLog {
    pub fn new(enabled: bool, epoch: Instant, thread: u64) -> Self {
        SpanLog {
            enabled,
            epoch,
            thread,
            next_op: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A log that records nothing.
    pub fn off() -> Self {
        Self::new(false, Instant::now(), 0)
    }

    /// Thread `thread`'s log of a run: recording from `trace_epoch` in a
    /// traced run, off otherwise.
    pub fn of_run(trace_epoch: Option<Instant>, thread: u64) -> Self {
        trace_epoch.map_or_else(Self::off, |epoch| Self::new(true, epoch, thread))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= MAX_SPANS_PER_LOG {
            self.dropped += 1;
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns: now,
            end_ns: now,
        });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `f` as a new operation's root span. `f` gets the log back, with
    /// the root as the parent of the children it records.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut OpScope<'_>) -> T) -> T {
        let op = self.thread << 40 | self.next_op;
        self.next_op += 1;
        let root = self.open(name, None, op);
        let out = f(&mut OpScope {
            log: self,
            parent: root,
            op,
        });
        self.close(root);
        out
    }
}

/// The inside of an operation: records children of its root span.
pub struct OpScope<'a> {
    log: &'a mut SpanLog,
    parent: Option<usize>,
    op: u64,
}

impl OpScope<'_> {
    /// Run `f` as a child span: one call the benchmark makes into a layer.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.log.open(name, self.parent, self.op);
        let out = f();
        self.log.close(id);
        out
    }
}

/// Time inside `parent` that none of its `children` cover. Children may
/// overlap each other (parallel calls) and may stick out of the parent; only
/// the part of the parent's interval under their union is subtracted.
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(p0), e.min(p1)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = p0;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (p1 - p0).saturating_sub(covered)
}

/// Per span name: how many, their total time and their total self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// All logs of a run, ready to summarise and write.
#[derive(Default)]
pub struct TraceFile {
    logs: Vec<SpanLog>,
}

impl TraceFile {
    pub fn add(&mut self, log: SpanLog) {
        if log.enabled {
            self.logs.push(log);
        }
    }

    pub fn span_count(&self) -> usize {
        self.logs.iter().map(|l| l.spans.len()).sum()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for log in &self.logs {
            let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); log.spans.len()];
            for s in &log.spans {
                if let Some(p) = s.parent {
                    children[p].push((s.start_ns, s.end_ns));
                }
            }
            for (s, kids) in log.spans.iter().zip(&children) {
                let t = out.entry(s.name).or_default();
                t.count += 1;
                t.total_ns += s.end_ns - s.start_ns;
                t.self_ns += self_time_ns((s.start_ns, s.end_ns), kids);
            }
        }
        out
    }

    /// The file's JSON: the spans (name, start, end, parent, op id), the
    /// per-name totals, and the counter deltas of the same run.
    pub fn to_json(&self, workload: &str, seed: u64, counters: &BTreeMap<String, f64>) -> Value {
        let mut spans = Vec::with_capacity(self.span_count());
        let mut dropped = 0;
        for log in &self.logs {
            dropped += log.dropped;
            // Span ids are unique across logs: thread number and position.
            let id = |i: usize| format!("{}.{}", log.thread, i);
            for (i, s) in log.spans.iter().enumerate() {
                spans.push(json!({
                    "id": id(i),
                    "parent": s.parent.map(id),
                    "op": s.op,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns
                }));
            }
        }
        let totals: serde_json::Map = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    json!({"count": t.count, "total_ns": t.total_ns, "self_ns": t.self_ns}),
                )
            })
            .collect();
        let counters: serde_json::Map = counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(*v)))
            .collect();
        json!({
            "workload": workload,
            "seed": seed,
            "dropped_spans": dropped,
            "totals": Value::Object(totals),
            "counters": Value::Object(counters),
            "spans": Value::Array(spans)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent [0, 100); children [10, 40) and [30, 60) overlap by 10:
        // their union covers 50, not 60.
        assert_eq!(self_time_ns((0, 100), &[(10, 40), (30, 60)]), 50);
        // A child inside another adds nothing.
        assert_eq!(self_time_ns((0, 100), &[(10, 60), (20, 30)]), 50);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time_ns((50, 100), &[(0, 60), (90, 200)]), 30);
        // Children covering everything leave nothing; none leave it all.
        assert_eq!(self_time_ns((0, 100), &[(0, 70), (60, 100)]), 0);
        assert_eq!(self_time_ns((0, 100), &[]), 100);
        // Order of the children does not matter.
        assert_eq!(self_time_ns((0, 100), &[(30, 60), (10, 40)]), 50);
    }

    #[test]
    fn ops_nest_children_under_their_root_and_share_an_op_id() {
        let mut log = SpanLog::new(true, Instant::now(), 3);
        let got = log.op("search_op", |op| {
            op.call("Collection::search", || 1) + op.call("check", || 2)
        });
        assert_eq!(got, 3);
        log.op("search_op", |_| ());
        assert_eq!(log.spans.len(), 4);
        assert_eq!(log.spans[0].parent, None);
        assert_eq!(log.spans[1].parent, Some(0));
        assert_eq!(log.spans[2].parent, Some(0));
        assert_eq!(log.spans[1].op, log.spans[0].op);
        assert_ne!(log.spans[3].op, log.spans[0].op);
        assert!(log.spans[0].end_ns >= log.spans[2].end_ns);

        let mut file = TraceFile::default();
        file.add(log);
        let totals = file.totals();
        assert_eq!(totals["search_op"].count, 2);
        assert!(totals["search_op"].self_ns <= totals["search_op"].total_ns);
        let json = file.to_json("w", 1, &BTreeMap::new());
        assert_eq!(
            json.get("spans").and_then(Value::as_array).map(Vec::len),
            Some(4)
        );
    }

    #[test]
    fn a_log_that_is_off_records_nothing() {
        let mut log = SpanLog::off();
        assert_eq!(log.op("x", |op| op.call("y", || 7)), 7);
        assert!(log.spans.is_empty());
    }
}

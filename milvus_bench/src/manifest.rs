//! What the benchmark declares: its workloads and every metric it prints,
//! with unit, direction and regression bound — and the check that
//! `BENCHMARK.json` says the same and fits the contract it is read under.

use std::collections::BTreeSet;

use serde_json::Value;

use crate::gen::SELECTIVITIES;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may get worse before it counts as a regression.
    pub bound: Option<f64>,
}

fn decl(name: &str, unit: &'static str, better: &'static str) -> MetricDecl {
    MetricDecl {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

/// The workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "ann_read",
        "read-only IVF_FLAT search over 4 indexed segments: index and exec do the work, storage, query and distributed none",
    ),
    (
        "filtered_sweep",
        "range-filtered search cycling 1/10/30/50/90 % of rows passing: the query layer decides at 1 %, the index scan at 90 %",
    ),
    (
        "ingest_search",
        "insert, delete and flush beside search on unindexed data with WAL and merge on: storage does the work, IVF none",
    ),
    (
        "cluster_serve",
        "4 shards, 2 readers over a 1 ms object store: fan-out, reader scans, codec and bufferpool; data fits the reader caches",
    ),
];

/// The filtering strategies of the query layer.
pub const STRATEGIES: [&str; 5] = ["A", "B", "C", "D", "E"];

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them.
pub fn end_to_end() -> Vec<MetricDecl> {
    let m = |name: &str, unit, better, bound: f64| MetricDecl {
        bound: Some(bound),
        ..decl(name, unit, better)
    };
    vec![
        m("setup_s", "s", "lower", 0.25),
        m("search_qps", "1/s", "higher", 0.24),
        m("batch_qps", "1/s", "higher", 0.24),
        m("recall_at_10", "ratio", "higher", 0.04),
        m("ok_ops_ratio", "ratio", "higher", 0.001),
        m("bytes_per_user_byte", "ratio", "lower", 0.04),
    ]
}

/// Per-layer metrics, from the traced run and the direct probes.
pub fn per_layer() -> Vec<MetricDecl> {
    let mut v = vec![
        decl("core.search_call_ms", "ms", "lower"),
        decl("core.overhead_ratio", "ratio", "lower"),
        decl("core.search_p50_ms", "ms", "lower"),
        decl("core.search_p95_ms", "ms", "lower"),
        decl("core.search_p99_ms", "ms", "lower"),
        decl("core.write_cycle_rows_per_s", "1/s", "higher"),
    ];
    for stage in STAGES {
        v.push(decl(&format!("core.stage_share.{stage}"), "ratio", "lower"));
    }
    v.extend([
        decl("core.sched_passthrough_ratio", "ratio", "higher"),
        decl("core.sched_batch_size_mean", "count", "higher"),
        decl("core.sched_shed_total", "count", "lower"),
        decl("index.search_ms", "ms", "lower"),
        decl("index.nprobe_effective_mean", "count", "lower"),
        decl("index.distance_ns_per_vec", "ns", "lower"),
        decl("index.flat_scan_ms", "ms", "lower"),
        decl("index.batch_engine_qps", "1/s", "higher"),
        decl("index.build_s", "s", "lower"),
        decl("index.recall_at_10", "ratio", "higher"),
        decl("index.bytes_per_vector", "B", "lower"),
        decl("storage.insert_rows_per_s", "1/s", "higher"),
        decl("storage.wal_bytes_per_user_byte", "ratio", "lower"),
        decl("storage.codec_encode_mb_per_s", "MB/s", "higher"),
        decl("storage.visible_lag_p50_ms", "ms", "lower"),
        decl("storage.flush_ms", "ms", "lower"),
        decl("storage.merge_ms", "ms", "lower"),
        decl("storage.compactions", "count", "lower"),
        decl("storage.write_amp", "ratio", "lower"),
        decl("storage.segments_end", "count", "lower"),
        decl("storage.segment_load_ms", "ms", "lower"),
        decl("storage.bufferpool_hit_ratio", "ratio", "higher"),
        decl("storage.bufferpool_evictions", "count", "lower"),
    ]);
    for strategy in STRATEGIES {
        for (sel, _) in SELECTIVITIES {
            v.push(decl(
                &format!("query.strategy_ms.{strategy}.{sel}"),
                "ms",
                "lower",
            ));
        }
    }
    v.extend([
        decl("query.plan_regret", "ratio", "lower"),
        decl("query.distance_computations_per_result", "count", "lower"),
        decl("exec.dispatch_us", "us", "lower"),
        decl("exec.queue_wait_us_p50", "us", "lower"),
        decl("exec.tasks_per_search", "count", "lower"),
        decl("exec.steal_ratio", "ratio", "lower"),
        decl("exec.coalesce_submit_us", "us", "lower"),
        decl("distributed.reader_search_ms", "ms", "lower"),
        decl("distributed.fanout_overhead_ms", "ms", "lower"),
        decl("distributed.critical_path_ms", "ms", "lower"),
        decl("distributed.net_sent_per_op", "count", "lower"),
        decl("distributed.coverage_ratio", "ratio", "higher"),
        decl("distributed.open_p50_ms_r2", "ms", "lower"),
        decl("distributed.open_max_ok_qps", "1/s", "higher"),
        decl("distributed.open_p95_ms_r1", "ms", "lower"),
        decl("distributed.open_p95_ms_r2", "ms", "lower"),
        decl("distributed.open_p95_ms_r3", "ms", "lower"),
        decl("distributed.open_p95_ms_r4", "ms", "lower"),
        decl("distributed.generator_late_ms_p95", "ms", "lower"),
        decl("distributed.log_ship_records_per_batch", "count", "lower"),
        decl("distributed.refresh_ms", "ms", "lower"),
        decl("obs.trace_overhead_ratio", "ratio", "lower"),
    ]);
    v
}

/// The query stages whose share of traced time is reported.
pub const STAGES: [&str; 6] = [
    "route",
    "segment_scan",
    "filter",
    "heap_merge",
    "queue_wait",
    "coalesce_wait",
];

// ---------------------------------------------------------------------------
// BENCHMARK.json against the contract and against the tables above
// ---------------------------------------------------------------------------

const KEYS: [&str; 6] = [
    "command",
    "paths",
    "run_seconds",
    "workloads",
    "end_to_end",
    "per_layer",
];

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

fn is_path(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/');
    !s.is_empty()
        && s.len() <= 200
        && s.chars().all(ok)
        && !s.starts_with('/')
        && s.split('/').all(|part| part != "..")
}

fn keys_are(v: &Value, want: &[&str], what: &str, errors: &mut Vec<String>) -> bool {
    let Some(map) = v.as_object() else {
        errors.push(format!("{what}: not an object"));
        return false;
    };
    let got: BTreeSet<&str> = map.keys().map(String::as_str).collect();
    let want: BTreeSet<&str> = want.iter().copied().collect();
    if got != want {
        errors.push(format!("{what}: keys {got:?}, expected exactly {want:?}"));
        return false;
    }
    true
}

fn strings<'a>(v: &'a Value, what: &str, errors: &mut Vec<String>) -> Vec<&'a str> {
    match v.as_array() {
        Some(items) if items.iter().all(|i| i.as_str().is_some()) => {
            items.iter().filter_map(Value::as_str).collect()
        }
        _ => {
            errors.push(format!("{what}: not a list of strings"));
            Vec::new()
        }
    }
}

fn check_metrics(
    v: &Value,
    what: &str,
    with_bound: bool,
    max: usize,
    declared: &[MetricDecl],
    names: &mut BTreeSet<String>,
    errors: &mut Vec<String>,
) {
    let Some(items) = v.as_array() else {
        errors.push(format!("{what}: not a list"));
        return;
    };
    if items.is_empty() || items.len() > max {
        errors.push(format!(
            "{what}: {} metrics, allowed 1 to {max}",
            items.len()
        ));
    }
    let keys: &[&str] = if with_bound {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    let mut listed: BTreeSet<&str> = BTreeSet::new();
    for (i, item) in items.iter().enumerate() {
        let at = format!("{what}[{i}]");
        if !keys_are(item, keys, &at, errors) {
            continue;
        }
        let text = |key: &str| item.get(key).and_then(Value::as_str).unwrap_or("");
        let (name, unit, better) = (text("name"), text("unit"), text("better"));
        if !is_name(name) {
            errors.push(format!("{at}: bad name {name:?}"));
        }
        if !names.insert(name.to_string()) {
            errors.push(format!("{at}: name {name:?} used twice"));
        }
        if !is_unit(unit) {
            errors.push(format!("{at}: bad unit {unit:?}"));
        }
        if better != "lower" && better != "higher" {
            errors.push(format!("{at}: better is {better:?}"));
        }
        let bound = item.get("bound").and_then(Value::as_f64);
        if with_bound && !bound.is_some_and(|b| (0.0..=0.25).contains(&b)) {
            errors.push(format!("{at}: bound must be a number from 0 to 0.25"));
        }
        listed.insert(name);
        if let Some(d) = declared.iter().find(|d| d.name == name) {
            if d.unit != unit || d.better != better || (with_bound && d.bound != bound) {
                errors.push(format!("{at}: {name} is declared {unit}/{better}/{bound:?}, the program prints {}/{}/{:?}", d.unit, d.better, d.bound));
            }
        }
    }
    let want: BTreeSet<&str> = declared.iter().map(|d| d.name.as_str()).collect();
    for missing in want.difference(&listed) {
        errors.push(format!(
            "{what}: the program prints {missing}, the manifest does not declare it"
        ));
    }
    for extra in listed.difference(&want) {
        errors.push(format!(
            "{what}: the manifest declares {extra}, the program does not print it"
        ));
    }
}

/// Every way `text` (the content of `BENCHMARK.json`) breaks the contract or
/// disagrees with what this program prints. Empty means it passes.
pub fn check(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    if text.len() > 64 * 1024 {
        errors.push(format!("file is {} bytes, allowed 65536", text.len()));
    }
    let root: Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return vec![format!("not JSON: {e}")],
    };
    if !keys_are(&root, &KEYS, "manifest", &mut errors) {
        return errors;
    }
    let field = |key: &str| root.get(key).expect("keys checked above");

    let command = strings(field("command"), "command", &mut errors);
    if command.is_empty() || command.len() > 32 || command.iter().any(|s| s.len() > 200) {
        errors.push("command: 1 to 32 strings of at most 200 characters".into());
    }
    if command
        .iter()
        .any(|s| s.starts_with('/') || s.split('/').any(|p| p == ".."))
    {
        errors.push("command: no absolute path and none that leads out through ..".into());
    }
    let paths = strings(field("paths"), "paths", &mut errors);
    if paths.is_empty() || paths.len() > 16 || !paths.iter().all(|p| is_path(p)) {
        errors.push("paths: 1 to 16 relative directories of letters, digits, _ . - /".into());
    }
    match field("run_seconds").as_f64() {
        Some(s) if s.fract() == 0.0 && (1.0..=60.0).contains(&s) => {}
        _ => errors.push("run_seconds: a whole number from 1 to 60".into()),
    }

    let mut names = BTreeSet::new();
    match field("workloads").as_array() {
        Some(items) if (2..=8).contains(&items.len()) => {
            let mut listed = BTreeSet::new();
            for (i, item) in items.iter().enumerate() {
                let at = format!("workloads[{i}]");
                if !keys_are(item, &["name", "why"], &at, &mut errors) {
                    continue;
                }
                let name = item.get("name").and_then(Value::as_str).unwrap_or("");
                let why = item.get("why").and_then(Value::as_str).unwrap_or("");
                if !is_name(name) || !names.insert(name.to_string()) {
                    errors.push(format!("{at}: bad or repeated name {name:?}"));
                }
                if why.is_empty() || why.len() > 200 || why.contains('\n') {
                    errors.push(format!(
                        "{at}: why must be one line of at most 200 characters"
                    ));
                }
                if WORKLOADS.iter().any(|(n, w)| *n == name && *w != why) {
                    errors.push(format!("{at}: why differs from the program's"));
                }
                listed.insert(name.to_string());
            }
            let want: BTreeSet<String> = WORKLOADS.iter().map(|(n, _)| n.to_string()).collect();
            if listed != want {
                errors.push(format!(
                    "workloads: manifest has {listed:?}, the program runs {want:?}"
                ));
            }
        }
        _ => errors.push("workloads: a list of 2 to 8".into()),
    }

    let e2e = end_to_end();
    check_metrics(
        field("end_to_end"),
        "end_to_end",
        true,
        16,
        &e2e,
        &mut names,
        &mut errors,
    );
    check_metrics(
        field("per_layer"),
        "per_layer",
        false,
        128,
        &per_layer(),
        &mut names,
        &mut errors,
    );
    let setup = e2e
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("declared above");
    if setup.unit != "s" || setup.better != "lower" {
        errors.push("setup_s must have unit s and be better lower".into());
    }
    if e2e.iter().any(|d| d.bound > setup.bound) {
        errors.push("setup_s must have the largest bound".into());
    }
    errors
}

/// The manifest the tables above describe, as `BENCHMARK.json` holds it.
#[cfg(test)]
pub fn render(command: &[&str], paths: &[&str], run_seconds: u32) -> String {
    use serde_json::json;
    let metric = |d: &MetricDecl| {
        let mut m = serde_json::Map::new();
        m.insert("name".into(), Value::from(d.name.as_str()));
        m.insert("unit".into(), Value::from(d.unit));
        m.insert("better".into(), Value::from(d.better));
        if let Some(b) = d.bound {
            m.insert("bound".into(), Value::from(b));
        }
        Value::Object(m)
    };
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|(name, why)| json!({"name": *name, "why": *why}))
        .collect();
    let root = json!({
        "command": Value::Array(command.iter().map(|s| Value::from(*s)).collect()),
        "paths": Value::Array(paths.iter().map(|s| Value::from(*s)).collect()),
        "run_seconds": run_seconds,
        "workloads": Value::Array(workloads),
        "end_to_end": Value::Array(end_to_end().iter().map(metric).collect()),
        "per_layer": Value::Array(per_layer().iter().map(metric).collect())
    });
    serde_json::to_string_pretty(&root).expect("rendering cannot fail") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> String {
        render(&["cargo", "run"], &["milvus_bench"], 20)
    }

    #[test]
    fn the_rendered_manifest_passes_its_own_check() {
        assert_eq!(check(&good()), Vec::<String>::new());
        assert!(end_to_end().len() <= 16 && per_layer().len() <= 128 && WORKLOADS.len() <= 8);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|d| d.name)
            .collect();
        all.extend(WORKLOADS.iter().map(|(n, _)| n.to_string()));
        assert!(all.iter().all(|n| is_name(n)), "{all:?}");
        let unique: BTreeSet<&String> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        assert!(!is_name("") && !is_name(".x") && !is_name("a b") && !is_name(&"x".repeat(65)));
        assert!(is_unit("1/s") && is_unit("MB/s") && !is_unit("rows per s") && !is_unit(""));
    }

    #[test]
    fn a_name_the_program_does_not_print_or_one_it_prints_undeclared_fails() {
        // Declared but never printed.
        let extra = good().replace("\"search_qps\"", "\"search_rate\"");
        let errs = check(&extra).join("\n");
        assert!(errs.contains("declares search_rate"), "{errs}");
        assert!(errs.contains("prints search_qps"), "{errs}");

        // A per-layer metric dropped from the manifest.
        let mut v: Value = serde_json::from_str(&good()).unwrap();
        if let Value::Object(root) = &mut v {
            if let Some(Value::Array(items)) = root.get_mut("per_layer") {
                items.pop();
            }
        }
        let errs = check(&serde_json::to_string(&v).unwrap()).join("\n");
        assert!(errs.contains("prints obs.trace_overhead_ratio"), "{errs}");
    }

    #[test]
    fn contract_limits_are_enforced_field_by_field() {
        let bad = |from: &str, to: &str| check(&good().replace(from, to)).join("\n");
        assert!(bad("\"run_seconds\": 20", "\"run_seconds\": 61").contains("run_seconds"));
        assert!(bad("\"bound\": 0.25", "\"bound\": 0.3").contains("bound must be"));
        assert!(bad("\"milvus_bench\"", "\"../milvus_bench\"").contains("paths"));
        assert!(bad("\"unit\": \"1/s\"", "\"unit\": \"per second!\"").contains("bad unit"));
        assert!(bad("\"better\": \"lower\"", "\"better\": \"smaller\"").contains("better is"));
        assert!(bad("\"command\"", "\"cmd\"").contains("expected exactly"));
        assert!(check("{").join("\n").contains("not JSON"));
        // An extra key on a metric is refused.
        let extra = bad(
            "\"name\": \"setup_s\",",
            "\"name\": \"setup_s\", \"note\": \"x\",",
        );
        assert!(extra.contains("expected exactly"), "{extra}");
    }
}

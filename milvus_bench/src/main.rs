//! `milvus_bench`: the repository's end-to-end benchmark.
//!
//! ```text
//! milvus_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! milvus_bench [--traced] [--seed <n>] [--seconds <s>]      every workload
//! milvus_bench --repeat <N> [--seed <n>] [--seconds <s>]    N sets, spreads
//! milvus_bench --check-manifest                             BENCHMARK.json
//! ```
//!
//! The first form is the one `BENCHMARK.json` names: one workload, one run,
//! and as the last line of standard output one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The other forms run
//! that first form in fresh child processes, so that nothing process-wide
//! (the metrics registry, the global executor) leaks from one run to the
//! next. See `README.md` beside this package.

mod gen;
mod load;
mod manifest;
mod probes;
mod run;
mod spans;
mod stats;
mod systems;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use serde_json::Value;

use manifest::MetricDecl;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 42;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 22.0;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    traced: bool,
    repeat: Option<usize>,
    check_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be from 1 to 600".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--traced" => args.traced = true,
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=100).contains(&n) {
                    return Err("--repeat must be from 1 to 100".into());
                }
                args.repeat = Some(n);
            }
            "--check-manifest" => args.check_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where run artefacts go: beside the build output, which `.gitignore`
/// covers, and never the repository root.
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the executable has no target directory")?;
    let out = target.join("milvus_bench_out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(out)
}

/// One run of one workload in this process; prints the result line.
fn run_one(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<bool, String> {
    let spec = run::SPECS
        .iter()
        .find(|s| s.name == workload)
        .ok_or_else(|| {
            format!(
                "no workload {workload}; there are {:?}",
                run::SPECS.map(|s| s.name)
            )
        })?;
    let out = out_dir()?;
    let scratch = out.join(format!("run_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    println!(
        "workload {workload} seed {seed} seconds {seconds} trace {} clients {} cores {}",
        u8::from(traced),
        run::CLIENTS,
        std::thread::available_parallelism().map_or(0, |p| p.get())
    );
    let outcome = run::run(spec, seed, seconds, traced, &scratch, &out);
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = outcome?;

    let declared = if traced {
        manifest::per_layer()
    } else {
        manifest::end_to_end()
    };
    let mut metrics = serde_json::Map::new();
    for (name, value, samples) in &outcome.metrics {
        let decl = declared
            .iter()
            .find(|d| d.name == *name)
            .ok_or(format!("{name} is printed but not declared"))?;
        if !value.is_finite() {
            return Err(format!("{name} is {value}"));
        }
        println!("metric {name} {value} {} n={samples}", decl.unit);
        let entry = serde_json::json!({"value": *value, "unit": decl.unit});
        if metrics.insert(name.clone(), entry).is_some() {
            return Err(format!("{name} is printed twice"));
        }
    }
    if let Some(missing) = declared.iter().find(|d| !metrics.contains_key(&d.name)) {
        return Err(format!("{} is declared but not printed", missing.name));
    }
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "failed_ops_ratio {failed_ratio} ratio n={}",
        outcome.attempted
    );
    for note in &outcome.notes {
        println!("note: {note}");
    }
    let line = serde_json::json!({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Object(metrics)
    });
    println!("{line}");
    Ok(outcome.correct)
}

/// The result line of one child run, parsed.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Run one workload in a fresh process and parse its result line. The
/// child's other output is passed on when `echo` is set.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    echo: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let last = stdout.lines().last().unwrap_or("");
    let parsed: Value = serde_json::from_str(last).map_err(|_| {
        format!(
            "{workload}: the child printed no result (exit {:?})",
            output.status.code()
        )
    })?;
    let metrics = parsed
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: parsed.get("correct").and_then(Value::as_bool) == Some(true),
        metrics,
    })
}

/// Every workload once: untraced and traced, or traced only.
fn run_all(seed: u64, seconds: f64, traced_only: bool) -> Result<bool, String> {
    let mut all_correct = true;
    for (workload, _) in manifest::WORKLOADS {
        for traced in [false, true] {
            if traced || !traced_only {
                all_correct &= run_child(workload, seed, seconds, traced, true)?.correct;
            }
        }
    }
    Ok(all_correct)
}

/// `n` sets of untraced runs, set `i` with seed `seed + i`; then per
/// (metric, workload) the median, the quartiles and whether the quartile
/// spread stays within the metric's bound.
fn repeat(n: usize, seed: u64, seconds: f64) -> Result<bool, String> {
    let declared: Vec<MetricDecl> = manifest::end_to_end();
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for i in 0..n {
        for (workload, _) in manifest::WORKLOADS {
            let result = run_child(workload, seed + i as u64, seconds, false, false)?;
            ok &= result.correct;
            println!("set {} {workload}: correct={}", i + 1, result.correct);
            for (name, value) in result.metrics {
                values
                    .entry((workload.to_string(), name))
                    .or_default()
                    .push(value);
            }
        }
    }
    println!(
        "{:<16} {:<22} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    for ((workload, name), v) in &values {
        let [q1, q2, q3] = stats::quartiles(v);
        let spread = stats::spread(v);
        let bound = declared
            .iter()
            .find(|d| d.name == *name)
            .and_then(|d| d.bound)
            .unwrap_or(0.0);
        // Set-up time is held to its bound between sets, not within one.
        let wide = spread > bound && name != "setup_s";
        ok &= !wide;
        println!(
            "{workload:<16} {name:<22} {q1:>12.4} {q2:>12.4} {q3:>12.4} {spread:>8.4} {bound:>6.3}{}",
            if wide { "  SPREAD EXCEEDS BOUND" } else { "" }
        );
    }
    Ok(ok)
}

/// `BENCHMARK.json` against the contract and this program's tables; then,
/// inside a git repository, that nothing outside the benchmark's own files
/// is left modified or untracked.
fn check_manifest() -> Result<bool, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut errors = manifest::check(&text);
    let paths: Vec<String> = serde_json::from_str::<Value>(&text)
        .ok()
        .and_then(|v| {
            Some(
                v.get("paths")?
                    .as_array()?
                    .iter()
                    .filter_map(|p| p.as_str().map(String::from))
                    .collect(),
            )
        })
        .unwrap_or_default();
    match Command::new("git").args(["status", "--porcelain"]).output() {
        Ok(out) if out.status.success() => {
            // The files a change that defines the benchmark may touch, and
            // the note the driver leaves when it refuses one.
            let allowed = [
                "BENCHMARK.json",
                "BENCHMARK_REFUSED.md",
                ".gitignore",
                "CHANGES.md",
                "ISSUE.md",
                "REVIEW.md",
            ];
            for line in String::from_utf8_lossy(&out.stdout).lines() {
                let file = line.get(3..).unwrap_or("").trim_matches('"');
                let inside = paths
                    .iter()
                    .any(|p| file == p || file.starts_with(&format!("{p}/")));
                if !inside && !allowed.contains(&file) {
                    errors.push(format!(
                        "git status lists {file}, which is outside the benchmark"
                    ));
                }
            }
        }
        _ => println!("not a git repository: the working-tree check is skipped"),
    }
    for e in &errors {
        println!("manifest: {e}");
    }
    println!(
        "manifest: {}",
        if errors.is_empty() { "ok" } else { "FAILED" }
    );
    Ok(errors.is_empty())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let seed = args.seed.unwrap_or(DEFAULT_SEED);
        let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
        if args.check_manifest {
            check_manifest()
        } else if let Some(workload) = &args.workload {
            run_one(workload, seed, seconds, args.trace.unwrap_or(false))
        } else if let Some(n) = args.repeat {
            repeat(n, seed, seconds)
        } else {
            run_all(seed, seconds, args.traced)
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("milvus_bench: {e}");
            ExitCode::from(2)
        }
    }
}

//! `repro-perf` — runs the benchmark defined in `BENCHMARK.json`.
//!
//! ```text
//! repro-perf run <workload> [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! repro-perf run --workload <workload> ...        (the same)
//! repro-perf all [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! repro-perf compare <parent.json>... <change.json>...
//! repro-perf setup <workload> [--seed N]
//! ```
//!
//! `run` prints a report whose last line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; it exits 1 when an
//! output check failed. `setup` only sets a workload up and prints
//! `ready`: `run` times it in fresh processes for `setup_s`. `all` runs
//! every workload in its own process (so
//! peak RSS and allocator state belong to one workload) and writes one
//! `mt-perf-v1` document. `compare` takes an even number of such
//! documents, the parent's runs first, and pairs them in order.

use std::process::{Command, ExitCode, Stdio};

use repro_perf::compare::compare;
use repro_perf::runner::{self, RunArgs, WORKLOADS};
use repro_perf::spec::{self, Outcome, Spec};

const USAGE: &str = "usage:
  repro-perf run <workload> [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
  repro-perf all [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
  repro-perf compare <parent.json>... <change.json>...
  repro-perf setup <workload> [--seed N]
workloads: livermore-xlate, dse-grid, serve-miss, serve-hit";

/// Options shared by `run` and `all`.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|_| format!("bad number {s:?}"))
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: Spec::load().run_seconds as f64,
        traced: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => o.workload = Some(value("--workload")?),
            "--seed" => o.seed = parse_u64(&value("--seed")?)?,
            "--seconds" => {
                let v = value("--seconds")?;
                o.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--out" => o.out = Some(value("--out")?),
            "--trace" => {
                o.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            w if !w.starts_with('-') && o.workload.is_none() => o.workload = Some(w.to_string()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(o)
}

fn write_doc(path: &str, doc: &mt_trace::Json) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.pretty()).map_err(|e| format!("write {path}: {e}"))
}

fn cmd_run(o: Options) -> Result<bool, String> {
    let workload = o.workload.ok_or("run needs a workload")?;
    let outcome = runner::run(&RunArgs {
        workload,
        seed: o.seed,
        seconds: o.seconds,
        traced: o.traced,
    })?;
    if let Some(path) = &o.out {
        write_doc(
            path,
            &spec::perf_doc(o.seed, o.seconds, o.traced, std::slice::from_ref(&outcome)),
        )?;
    }
    println!("{}", outcome.to_json());
    Ok(outcome.correct)
}

fn cmd_all(o: Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate repro-perf: {e}"))?;
    let mut outcomes = Vec::new();
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["run", workload, "--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.traced { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("run {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let outcome = mt_trace::json::parse(last)
            .and_then(|doc| Outcome::from_json(workload, &doc))
            .map_err(|e| format!("{workload} printed no result ({e}; {})", output.status))?;
        outcomes.push(outcome);
    }
    println!("\nsummary (seed {}, {} s per workload):", o.seed, o.seconds);
    for outcome in &outcomes {
        println!(
            "  {:<16} {:<9} error_rate {} (failed {} of {})",
            outcome.workload,
            if outcome.correct {
                "correct"
            } else {
                "INCORRECT"
            },
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
            outcome.failed,
            outcome.attempted
        );
        for (name, value, unit) in &outcome.metrics {
            println!("    {name:<30} {value:>14.4} {unit}");
        }
    }
    let path = o.out.unwrap_or_else(|| {
        repro_perf::out_dir()
            .join(format!("all-{}.json", o.seed))
            .display()
            .to_string()
    });
    write_doc(
        &path,
        &spec::perf_doc(o.seed, o.seconds, o.traced, &outcomes),
    )?;
    println!("wrote {path}");
    Ok(outcomes.iter().all(|o| o.correct))
}

fn cmd_compare(files: &[String]) -> Result<bool, String> {
    if files.is_empty() || !files.len().is_multiple_of(2) {
        return Err("compare needs the parent's documents, then as many of the change's".into());
    }
    let docs = files
        .iter()
        .map(|f| {
            std::fs::read_to_string(f)
                .map_err(|e| format!("read {f}: {e}"))
                .and_then(|t| spec::parse_perf_doc(&t).map_err(|e| format!("{f}: {e}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let (parents, changes) = docs.split_at(docs.len() / 2);
    let rows = compare(&Spec::load(), parents, changes);
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "parent", "change", "p.iqr%", "c.iqr%", "wins"
    );
    for r in &rows {
        println!(
            "{:<16} {:<20} {:>14.4} {:>14.4} {:>8.2} {:>8.2} {:>3}/{:<2}  {}",
            r.workload,
            r.metric,
            r.parent_median,
            r.change_median,
            r.parent_spread * 100.0,
            r.change_spread * 100.0,
            r.wins,
            r.pairs,
            r.verdict.name()
        );
    }
    Ok(!rows.iter().any(|r| r.verdict.is_regression()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_options(&args[1..]).and_then(cmd_run),
        Some("all") => parse_options(&args[1..]).and_then(cmd_all),
        Some("compare") => cmd_compare(&args[1..]),
        Some("setup") => parse_options(&args[1..]).and_then(|o| {
            runner::setup_only(&o.workload.ok_or("setup needs a workload")?, o.seed).map(|()| true)
        }),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("repro-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

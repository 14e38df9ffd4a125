//! One workload run, end to end: set-up (also timed in fresh processes;
//! their median is `setup_s`), the measured phase, the output checks, and
//! the report. Every end-to-end time is reported at nominal host speed
//! ([`crate::host`]), with its wall-clock value next to it in the report.
//!
//! A traced run repeats the workload with a span around each public
//! call, measures the unit costs, and reports the per-layer metrics
//! instead of the end-to-end ones. Layers the workload does not cross are
//! measured by a short probe (a `serve-miss` burst on the simulator
//! workloads, one grid pass outside `dse-grid`), so every traced run
//! reports every per-layer metric.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::gen::SplitMix64;
use crate::host;
use crate::measure::{self, Clock, Phase, StepLog};
use crate::micro;
use crate::servework::{self, Serve, ServeRows, Traffic};
use crate::simwork::{Counts, Grid, Livermore};
use crate::spec::{Outcome, Spec};
use crate::stats;

/// The workloads, as `BENCHMARK.json` names them.
pub const WORKLOADS: [&str; 4] = ["livermore-xlate", "dse-grid", "serve-miss", "serve-hit"];

/// Fresh processes an untraced run sets the workload up in; `setup_s` is
/// the median of their times from spawn to ready, each divided by the
/// host factor probed around it. Each is a cold start, so work moved into
/// set-up, or into process start, shows.
const SETUP_PROCESSES: usize = 5;
/// Share of a traced run's seconds spent untraced and then traced (the
/// rest goes to probes and unit costs).
const TRACED_SHARE: f64 = 0.35;
/// Length of the `serve-miss` probe on the simulator workloads.
const SERVE_PROBE_SECS: f64 = 0.6;
/// Generated programs the unit costs and in-process layer rows use.
const LAYER_PROGRAMS: u64 = 32;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of every generated input and order.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Report the per-layer metrics from a traced run.
    pub traced: bool,
}

/// A set-up workload.
enum Loaded {
    Livermore(Livermore),
    Grid(Grid),
    Serve(Serve),
}

impl Loaded {
    fn setup(workload: &str, seed: u64) -> Result<Loaded, String> {
        Ok(match workload {
            "livermore-xlate" => Loaded::Livermore(Livermore::setup()?),
            "dse-grid" => Loaded::Grid(Grid::setup()?),
            "serve-miss" => Loaded::Serve(Serve::setup(Traffic::Miss, seed)?),
            "serve-hit" => Loaded::Serve(Serve::setup(Traffic::Hit, seed)?),
            other => return Err(format!("unknown workload {other:?}")),
        })
    }

    fn release(self) {
        if let Loaded::Serve(serve) = self {
            serve.shutdown();
        }
    }
}

/// What the passes of a simulator workload's phase covered.
#[derive(Default)]
struct Passes {
    /// Counts of the first pass.
    first: Option<Counts>,
    /// Cold and warm cycles over the whole phase.
    cold_warm_cycles: (u64, u64),
}

impl Passes {
    /// Notes one pass's counts.
    fn tally(&mut self, c: Counts) {
        self.first.get_or_insert(c);
        self.cold_warm_cycles.0 += c.cold_cycles;
        self.cold_warm_cycles.1 += c.warm_cycles;
    }
}

/// One measured phase plus what the layer table needs from it.
struct Measured {
    phase: Phase,
    logs: Vec<StepLog>,
    passes: Passes,
    /// `dse-grid`, when asked for: `(pair, wall time)` of every operation.
    pair_times: Vec<(usize, Duration)>,
}

impl Measured {
    fn new(phase: Phase) -> Measured {
        Measured {
            phase,
            logs: Vec::new(),
            passes: Passes::default(),
            pair_times: Vec::new(),
        }
    }
}

/// Measures `loaded` for `seconds`, with spans when `traced`; on
/// `dse-grid`, `pair_times` keeps every pair's time for the layer table.
/// Nothing else the phase keeps grows with the operations it completes
/// (see [`measure::MAX_SAMPLES`]).
fn measure(
    loaded: &Loaded,
    rng: &mut SplitMix64,
    seconds: f64,
    traced: bool,
    pair_times: bool,
) -> Measured {
    let mut log = traced.then(|| StepLog::new(1));
    let mut passes = Passes::default();
    let mut m = match loaded {
        Loaded::Livermore(lv) => Measured::new(measure::run_rounds(seconds, |p| {
            passes.tally(lv.pass(rng, p, log.as_mut()));
        })),
        Loaded::Grid(grid) => {
            let mut times = Vec::new();
            let phase = measure::run_rounds(seconds, |p| {
                let times = pair_times.then_some(&mut times);
                passes.tally(grid.pass(rng, p, log.as_mut(), times));
            });
            Measured {
                pair_times: times,
                ..Measured::new(phase)
            }
        }
        Loaded::Serve(serve) => {
            let (mut phase, out) = serve.phase(seconds, traced);
            serve.check_after(&mut phase, &out.sampled);
            Measured {
                logs: out.logs,
                ..Measured::new(phase)
            }
        }
    };
    m.passes = passes;
    m.logs.extend(log);
    m
}

/// Runs one workload and prints its report; the returned outcome's JSON
/// is the report's last line.
///
/// # Errors
///
/// An unknown workload, a failed set-up, or a metric the run could not
/// produce. Output-check failures are not errors: they count in the
/// outcome.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let spec = Spec::load();
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (expected one of {})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    measure::single_malloc_arena()?;
    let cpu = crate::pin::pin_to_one_cpu()?;
    println!(
        "repro-perf {}  seed {}  {} s  {}  (pinned to CPU {cpu} of {cores} available)",
        args.workload,
        args.seed,
        args.seconds,
        if args.traced { "traced" } else { "untraced" },
    );
    let mut rng = SplitMix64::new(args.seed);
    let (values, phase) = if args.traced {
        traced_run(args, &spec, &mut rng)?
    } else {
        untraced_run(args, &spec, &mut rng)?
    };
    let metrics = spec
        .metrics(args.traced)
        .iter()
        .map(|m| {
            values
                .get(m.name.as_str())
                .map(|&v| (m.name.clone(), v, m.unit.clone()))
                .ok_or_else(|| format!("the run produced no value for {}", m.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    for message in &phase.failures {
        println!("  FAILED: {message}");
    }
    Ok(Outcome {
        workload: args.workload.clone(),
        correct: phase.failed == 0,
        attempted: phase.attempted,
        failed: phase.failed,
        metrics,
    })
}

type Values = BTreeMap<String, f64>;

/// The line `repro-perf setup` prints once its workload is set up.
const READY: &str = "ready";

/// `repro-perf setup <workload>`: sets the workload up, prints
/// [`READY`], and tears it down again.
///
/// # Errors
///
/// An unknown workload or a failed set-up.
pub fn setup_only(workload: &str, seed: u64) -> Result<(), String> {
    measure::single_malloc_arena()?;
    let loaded = Loaded::setup(workload, seed)?;
    println!("{READY}");
    loaded.release();
    Ok(())
}

/// Runs [`setup_only`] in a fresh process of this executable and returns
/// the seconds from spawning it to its [`READY`] line.
fn timed_setup_process(args: &RunArgs) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate repro-perf: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(["setup", &args.workload, "--seed", &args.seed.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("start a set-up process: {e}"))?;
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut line);
    let took = start.elapsed().as_secs_f64();
    let status = child
        .wait()
        .map_err(|e| format!("wait for the set-up process: {e}"))?;
    match read {
        Ok(_) if status.success() && line.trim_end() == READY => Ok(took),
        Ok(_) => Err(format!("set-up process: {status}, printed {line:?}")),
        Err(e) => Err(format!("read the set-up process: {e}")),
    }
}

/// The unit `BENCHMARK.json` gives metric `name`.
fn unit<'a>(spec: &'a Spec, name: &str) -> Result<&'a str, String> {
    spec.metric(name)
        .map(|m| m.unit.as_str())
        .ok_or_else(|| format!("{name} is not defined"))
}

fn untraced_run(
    args: &RunArgs,
    spec: &Spec,
    rng: &mut SplitMix64,
) -> Result<(Values, Phase), String> {
    // Each set-up process is timed between two probes of the host.
    let mut reference = host::Reference::new();
    let mut before = reference.factor();
    let (mut setup_wall, mut setup_nominal) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_PROCESSES {
        let took = timed_setup_process(args)?;
        let after = reference.factor();
        setup_wall.push(took);
        setup_nominal.push(took / ((before + after) / 2.0));
        before = after;
    }
    let loaded = Loaded::setup(&args.workload, args.seed)?;
    let m = measure(&loaded, rng, args.seconds, false, false);
    // Read before the statistics below allocate their sorted copies.
    let peak_rss_mb = measure::peak_rss_mb()?;
    loaded.release();
    let phase = m.phase;

    // Throughput is the median over rounds, set-up time the median over
    // set-up processes; each is printed with its quartiles and with the
    // median of its wall-clock values.
    let mut values = Values::new();
    for (name, nominal, wall, of) in [
        (
            "sim_mcycles_per_s",
            phase.mcycles_per_s(Clock::Nominal),
            phase.mcycles_per_s(Clock::Wall),
            "rounds",
        ),
        (
            "req_per_s",
            phase.ops_per_s(Clock::Nominal),
            phase.ops_per_s(Clock::Wall),
            "rounds",
        ),
        ("setup_s", setup_nominal, setup_wall, "set-up processes"),
    ] {
        let [q1, med, q3] = stats::quartiles(&nominal);
        values.insert(name.to_string(), med);
        println!(
            "  {name:<18} {med:>14.4} {:<10} (median of {} {of}; q1 {q1:.4}, q3 {q3:.4}; \
             wall-clock {:.4})",
            unit(spec, name)?,
            nominal.len(),
            stats::median(&wall)
        );
    }
    // Latency is taken over every operation of the phase.
    let (lat, wall_lat) = (
        phase.latencies(Clock::Nominal),
        phase.latencies(Clock::Wall),
    );
    for (name, p) in [("latency_p50_us", 50.0), ("latency_p99_us", 99.0)] {
        values.insert(name.to_string(), lat.percentile(p));
        println!(
            "  {name:<18} {:>14.4} {:<10} (of {} operations, {} beyond it; wall-clock {:.4})",
            values[name],
            unit(spec, name)?,
            lat.len(),
            stats::beyond(lat.len(), p),
            wall_lat.percentile(p)
        );
    }
    values.insert("peak_rss_mb".to_string(), peak_rss_mb);
    println!(
        "  {:<18} {:>14.4} {}",
        "peak_rss_mb",
        values["peak_rss_mb"],
        unit(spec, "peak_rss_mb")?
    );
    if let Some(p) = stats::highest_supported_percentile(lat.len()) {
        println!(
            "  highest percentile with ten operations beyond it: p{p} {:.1} us",
            lat.percentile(p)
        );
    }
    let [q1, h, q3] = stats::quartiles(&phase.host_factors());
    println!("  host factor {h:.3} (q1 {q1:.3}, q3 {q3:.3}; 1 is nominal speed, higher is slower)");
    println!(
        "  error_rate {} (failed {} of {} attempted)",
        phase.failed as f64 / phase.attempted.max(1) as f64,
        phase.failed,
        phase.attempted
    );
    Ok((values, phase))
}

fn traced_run(
    args: &RunArgs,
    spec: &Spec,
    rng: &mut SplitMix64,
) -> Result<(Values, Phase), String> {
    let seconds = args.seconds * TRACED_SHARE;
    let loaded = Loaded::setup(&args.workload, args.seed)?;
    let before = match &loaded {
        Loaded::Serve(s) => Some(s.scrape()?),
        _ => None,
    };
    let plain = measure(&loaded, rng, seconds, false, true);
    let traced = measure(&loaded, rng, seconds, true, false);
    let mut values = Values::new();
    let mut phase = plain.phase.clone();
    phase.absorb(traced.phase.clone());
    let ops_per_s = |m: &Measured| stats::median(&m.phase.ops_per_s(Clock::Nominal));
    values.insert(
        "bench.trace_overhead_pct".to_string(),
        (ops_per_s(&plain) / ops_per_s(&traced) - 1.0) * 100.0,
    );
    let mut factors = plain.phase.host_factors();
    factors.extend(traced.phase.host_factors());
    values.insert("bench.host_factor".to_string(), stats::median(&factors));
    let programs = match &loaded {
        Loaded::Serve(serve) => serve.programs(LAYER_PROGRAMS),
        _ => (0..LAYER_PROGRAMS)
            .map(|i| crate::gen::program(args.seed, i))
            .collect(),
    };

    // The simulator, kernel and grid layers.
    match &loaded {
        Loaded::Serve(_) => {
            let mut log = StepLog::new(1);
            let counts = servework::sim_rows(&programs, &mut log)?;
            sim_values(
                &mut values,
                &log,
                counts,
                (counts.cold_cycles, counts.warm_cycles),
            );
        }
        _ => {
            let log = &traced.logs[0];
            let counts = traced.passes.first.unwrap_or_default();
            sim_values(&mut values, log, counts, traced.passes.cold_warm_cycles);
            let lat = traced.phase.latencies(Clock::Wall);
            let op_ns = lat.mean() * lat.len() as f64 * 1e3;
            values.insert(
                "bench.latency_accounted_pct".to_string(),
                log.all_steps_ns() / op_ns * 100.0,
            );
        }
    }
    match &loaded {
        Loaded::Grid(grid) => grid_values(&mut values, grid, &plain.pair_times),
        _ => {
            let grid = Grid::setup()?;
            let (mut probe, mut times) = (Phase::new(), Vec::new());
            grid.pass(rng, &mut probe, None, Some(&mut times));
            grid_values(&mut values, &grid, &times);
            phase.absorb(probe);
        }
    }

    // The service and client layers.
    match &loaded {
        Loaded::Serve(serve) => {
            let rows = ServeRows::between(before.as_ref().expect("scraped"), &serve.scrape()?);
            serve_values(&mut values, &rows, &traced, true);
        }
        _ => {
            let serve = Serve::setup(Traffic::Miss, args.seed)?;
            let before = serve.scrape()?;
            let (mut probe, out) = serve.phase(SERVE_PROBE_SECS, true);
            serve.check_after(&mut probe, &out.sampled);
            let rows = ServeRows::between(&before, &serve.scrape()?);
            serve.shutdown();
            let mut probe = Measured::new(probe);
            probe.logs = out.logs;
            serve_values(&mut values, &rows, &probe, false);
            phase.absorb(probe.phase);
        }
    }
    loaded.release();

    let mut units: Vec<micro::Row> = Vec::new();
    units.extend(micro::fparith(args.seed));
    units.extend(micro::mem());
    units.extend(micro::kernels());
    units.extend(micro::front_end(&programs));
    units.extend(micro::json(&programs[0]));
    units.extend(micro::serve(&programs));
    units.extend(micro::reset_for_new_job(&programs[0]));
    for (name, unit) in &units {
        let scale = match spec.metric(name).map(|m| m.unit.as_str()) {
            Some("us") => 1e-3,
            _ => 1.0,
        };
        values.insert(name.to_string(), unit.min_ns * scale);
    }

    let path = crate::out_dir().join(format!("{}.trace.json", args.workload));
    let doc = measure::chrome_trace(&traced.logs, &format!("repro-perf {}", args.workload));
    std::fs::create_dir_all(crate::out_dir())
        .and_then(|()| std::fs::write(&path, doc.pretty()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    print_layer_table(spec, &values, &units);
    println!("  Chrome trace: {}", path.display());
    Ok((values, phase))
}

/// The `sim.*`, `mem.dcache_misses` and (from the harness steps)
/// per-step rows. `cold_warm` are the cycles the run steps covered.
fn sim_values(values: &mut Values, log: &StepLog, counts: Counts, cold_warm: (u64, u64)) {
    values.insert("sim.new_us".to_string(), log.median_ns("sim.new") / 1e3);
    values.insert(
        "sim.install_us".to_string(),
        log.median_ns("sim.install") / 1e3,
    );
    values.insert(
        "sim.run_ns_per_cycle.cold".to_string(),
        log.total_ns("sim.run-cold") / cold_warm.0 as f64,
    );
    values.insert(
        "sim.run_ns_per_cycle.warm".to_string(),
        log.total_ns("sim.run-warm") / cold_warm.1 as f64,
    );
    values.insert("sim.cycles".to_string(), counts.cycles as f64);
    values.insert("sim.instructions".to_string(), counts.instructions as f64);
    values.insert("sim.flops".to_string(), counts.flops as f64);
    values.insert("sim.stall_cycles".to_string(), counts.stall_cycles as f64);
    values.insert(
        "sim.data_miss_cycles".to_string(),
        counts.data_miss_cycles as f64,
    );
    values.insert("mem.dcache_misses".to_string(), counts.dcache_misses as f64);
}

/// `dse.pair_ms` (median wall time per `(cell, loop)` call) and
/// `dse.serialized_share` (share of grid time in serialized-issue cells).
fn grid_values(values: &mut Values, grid: &Grid, times: &[(usize, Duration)]) {
    let ms: Vec<f64> = times.iter().map(|(_, d)| d.as_secs_f64() * 1e3).collect();
    let total: f64 = ms.iter().sum();
    let serialized: f64 = times
        .iter()
        .zip(&ms)
        .filter(|((i, _), _)| grid.is_serialized(*i))
        .map(|(_, ms)| ms)
        .sum();
    values.insert("dse.pair_ms".to_string(), stats::median(&ms));
    values.insert("dse.serialized_share".to_string(), serialized / total);
}

/// The serve stage rows, the client rows, and — on the serve workloads —
/// how much of a request's latency the client connect plus the server's
/// sequential stages account for.
fn serve_values(values: &mut Values, rows: &ServeRows, m: &Measured, own_workload: bool) {
    println!("  serve stages: interval count, mean; p50 and p99 since start (us)");
    for s in &rows.stages {
        values.insert(format!("serve.{}.mean_us", s.name), s.mean_us);
        println!(
            "    {:<16} {:>8} {:>12.1} {:>10.0} {:>10.0}",
            s.name, s.count, s.mean_us, s.p50_us, s.p99_us
        );
    }
    values.insert("serve.cache_hit_ratio".to_string(), rows.cache_hit_ratio);
    values.insert(
        "serve.worker_busy_share".to_string(),
        rows.worker_busy_share,
    );

    let mut all = StepLog::new(0);
    m.logs.iter().for_each(|l| all.absorb_steps(l));
    let p50_us = |step: &str| stats::median(all.durations_ns(step)) / 1e3;
    values.insert("client.connect_us".to_string(), p50_us("client.connect"));
    values.insert(
        "client.first_byte_us".to_string(),
        p50_us("client.first-byte"),
    );
    values.insert(
        "client.body_read_us".to_string(),
        p50_us("client.body-read"),
    );
    if own_workload {
        let connect = all.durations_ns("client.connect");
        let connect_mean_us = connect.iter().sum::<f64>() / connect.len() as f64 / 1e3;
        let latency = m.phase.latencies(Clock::Wall);
        let stage_means: f64 = rows.sequential().map(|s| s.mean_us).sum();
        values.insert(
            "bench.latency_accounted_pct".to_string(),
            (connect_mean_us + stage_means) / latency.mean() * 100.0,
        );
        let stage_p50s: f64 = rows.sequential().map(|s| s.p50_us).sum();
        println!(
            "  latency accounting (p50): client connect {:.1} us + server stages {:.1} us \
             = {:.1}% of latency_p50 {:.1} us",
            p50_us("client.connect"),
            stage_p50s,
            (p50_us("client.connect") + stage_p50s) / latency.percentile(50.0) * 100.0,
            latency.percentile(50.0)
        );
    }
}

fn print_layer_table(spec: &Spec, values: &Values, units: &[micro::Row]) {
    println!("  per-layer metrics:");
    for m in &spec.per_layer {
        let v = values.get(m.name.as_str()).copied().unwrap_or(f64::NAN);
        let spread = units
            .iter()
            .find(|(n, _)| *n == m.name)
            .map(|(_, u)| format!("  (min of N; median +{:.1}%)", u.spread * 100.0))
            .unwrap_or_default();
        println!("    {:<30} {:>14.4} {}{spread}", m.name, v, m.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_match_the_definition() {
        assert_eq!(Spec::load().workloads, WORKLOADS);
    }

    #[test]
    fn unknown_workloads_are_refused() {
        let err = run(&RunArgs {
            workload: "nope".to_string(),
            seed: 1,
            seconds: 1.0,
            traced: false,
        })
        .unwrap_err();
        assert!(err.contains("unknown workload"));
    }
}

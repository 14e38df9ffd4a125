//! `mtasm` — assemble, lint, disassemble, run, and profile MultiTitan
//! programs.
//!
//! ```text
//! mtasm asm  <file.s> [--base <hex>] [--lint]  assemble; print words as hex
//! mtasm dis  <file.hex> [--base <hex>]         disassemble hex words
//! mtasm lint <file.s> [--base <hex>] [--config knob=value,...]
//!                                              static analysis only
//! mtasm run  <file.s> [--base <hex>] [--lint] [--trace] [--timeline]
//!            [--cold] [--profile] [--top <n>] [--trace-out <file.json>]
//!            [--backend tick|xlate] [--config knob=value,...]
//!                                              assemble and simulate to halt
//! mtasm profile <file.s> [--base <hex>] [--lint] [--cold] [--top <n>]
//!            [--trace-out <file.json>]         simulate; hot-spot report
//! mtasm fault <file.s> [--base <hex>] [--seed <n>] [--injections <n>]
//!            [--json]                          fault-injection campaign
//! ```
//!
//! `run` starts with warm instruction fetch unless `--cold` is given, and
//! prints the run statistics (cycles, MFLOPS, stall breakdown) on exit.
//! `--config knob=value,...` overrides microarchitectural parameters
//! (`fpu_latency`, `fpu_lanes`, `dcache_bytes`, `num_fpu_regs`, … — the
//! `mt_sim::KNOB_NAMES` set); the default is the paper machine, and `mca`
//! and `lint` (also `--lint`) honour the same flag for their static
//! timing model.
//! Initialize memory with `.data <addr>` / `.double` / `.word` directives
//! in the source (see `examples/asm/*.s`); everything else starts zeroed.
//!
//! `profile` (or `--profile` alongside `run`) folds the run's event
//! stream into the per-PC cycle-attribution profiler and prints a
//! hot-spot table with source locations; `--top` limits the rows
//! (default 10, 0 = all). `--trace-out` writes the stream as Chrome
//! trace-event JSON, loadable in Perfetto (`ui.perfetto.dev`) or
//! `chrome://tracing`, with one track per functional unit.
//!
//! `mca` runs the static cycle/throughput analyzer (`mt_lint::mca`) without
//! simulating: the exact cache-warm prediction for straight-line
//! programs, and per-loop steady-state cycles-per-iteration with the
//! binding bottleneck resource. `--json` emits the `mt-mca-v1`
//! document. `--mca` alongside `run`/`profile` appends a
//! predicted-vs-measured table joining the static loop predictions with
//! the run's measured profile.
//!
//! `fault` runs the deterministic fault-injection campaign (`mt-fault`)
//! over the assembled program: seeded single-bit upsets are replayed
//! against a golden run and classified as masked / detected / SDC /
//! crash / hang. With no numeric oracle for a bare program, the golden
//! run's final architectural state (integer registers, FPU registers,
//! PSW) is the reference; memory is not diffed. `--json` emits the
//! `mt-bench-v1` campaign document.
//!
//! `lint` (or `--lint` alongside `asm`/`run`) runs the `mt-lint` static
//! analyzer — the §2.3.2 ordering rule, register dataflow, and structural
//! checks — and prints rustc-style diagnostics with source spans. Errors
//! make the command fail (and stop `run` before simulation); warnings and
//! notes do not. Silence an intentional Fig. 8 recurrence by annotating
//! its line with `; lint: allow(recurrence)`. `--plain` switches the
//! diagnostics to one-line `file:line:col: severity[code]: message`
//! records (no gutters, no carets) for editors and scripts.
//!
//! `client` drives a running `mt-serve` instance as a load generator:
//!
//! ```text
//! mtasm client <file.s> [--url http://host:port] [--endpoint run|assemble]
//!              [--concurrency <n>] [--requests <m>] [--lint] [--profile]
//!              [--trace] [--cold] [--base <hex>] [--cycles <n>]
//!              [--watchdog <n>] [--deadline-ms <n>] [--print-body]
//!              [--config knob=value,...] [--config-axis knob=v1,v2]...
//! ```
//!
//! and prints a stable `mt-serve-bench-v1` JSON summary. `--config`
//! pins one machine configuration for every request; a repeatable
//! `--config-axis knob=v1,v2` instead sweeps the axis across requests —
//! request *i* takes `values[i % len]` from each axis, replaying a
//! configuration sweep through the server's cache. The seeded chaos
//! campaign against a running server is `repro-chaos --url`.

mod client;

use std::process::ExitCode;

use mt_asm::{parse_hex_u32, parse_with_source_map, PlainDiagnostic, SourceMap};
use mt_fault::{parse_u64, run_program_campaign, CampaignConfig};
use mt_isa::Instr;
use mt_lint::cfg::ProgramView;
use mt_lint::{lint_program_with, mca, LintOptions, Severity};
use mt_sim::{Backend, Machine, MachineConfig, Program, SimConfig, Timeline};
use mt_trace::{chrome, Json, Profiler, TraceEvent};

fn usage() -> ExitCode {
    eprintln!(
        "usage: mtasm asm <file.s> [--base <hex>] [--lint] [--plain]\n       mtasm dis <file.hex> [--base <hex>]\n       mtasm lint <file.s> [--base <hex>] [--plain] [--config knob=value,...]\n       mtasm mca <file.s> [--base <hex>] [--lint] [--json] [--config knob=value,...]\n       mtasm run <file.s> [--base <hex>] [--lint] [--trace] [--timeline] [--cold]\n                 [--profile] [--mca] [--top <n>] [--trace-out <file.json>]\n                 [--backend tick|xlate] [--config knob=value,...]\n       mtasm profile <file.s> [--base <hex>] [--lint] [--cold] [--top <n>] [--mca]\n                 [--trace-out <file.json>]\n       mtasm fault <file.s> [--base <hex>] [--seed <n>] [--injections <n>] [--json]\n       mtasm client <file.s> [--url http://host:port] [--endpoint run|assemble]\n                 [--concurrency <n>] [--requests <m>] [--lint] [--profile] [--trace]\n                 [--cold] [--base <hex>] [--cycles <n>] [--watchdog <n>] [--deadline-ms <n>]\n                 [--print-body] [--config knob=value,...] [--config-axis knob=v1,v2]..."
    );
    ExitCode::from(2)
}

struct Options {
    path: String,
    base: u32,
    trace: bool,
    timeline: bool,
    cold: bool,
    lint: bool,
    plain: bool,
    profile: bool,
    top: usize,
    trace_out: Option<String>,
    seed: u64,
    injections: usize,
    json: bool,
    mca: bool,
    backend: Backend,
    config: MachineConfig,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut path = None;
    let mut base = 0x1_0000;
    let mut trace = false;
    let mut timeline = false;
    let mut cold = false;
    let mut lint = false;
    let mut plain = false;
    let mut profile = false;
    let mut top = 10;
    let mut trace_out = None;
    let mut seed = 0xA5;
    let mut injections = 200;
    let mut json = false;
    let mut mca = false;
    let mut backend = Backend::default();
    let mut config = MachineConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--base" => {
                let v = it.next().ok_or("--base needs a value")?;
                base = parse_hex_u32(v).map_err(|e| format!("bad base: {e}"))?;
            }
            "--trace" => trace = true,
            "--timeline" => timeline = true,
            "--cold" => cold = true,
            "--lint" => lint = true,
            "--plain" => plain = true,
            "--profile" => profile = true,
            "--top" => {
                let v = it.next().ok_or("--top needs a value")?;
                top = v.parse().map_err(|e| format!("bad --top: {e}"))?;
            }
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a file name")?;
                trace_out = Some(v.to_string());
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = parse_u64(v).ok_or(format!("bad --seed `{v}`"))?;
            }
            "--injections" => {
                let v = it.next().ok_or("--injections needs a value")?;
                injections = parse_u64(v).ok_or(format!("bad --injections `{v}`"))? as usize;
            }
            "--json" => json = true,
            "--mca" => mca = true,
            "--backend" => {
                let v = it.next().ok_or("--backend needs tick|xlate")?;
                backend = v.parse()?;
            }
            "--config" => {
                let v = it.next().ok_or("--config needs `knob=value,...`")?;
                config = MachineConfig::parse(v).map_err(|e| format!("bad --config: {e}"))?;
            }
            other if !other.starts_with('-') && path.is_none() => {
                path = Some(other.to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Options {
        path: path.ok_or("missing input file")?,
        base,
        trace,
        timeline,
        cold,
        lint,
        plain,
        profile,
        top,
        trace_out,
        seed,
        injections,
        json,
        mca,
        backend,
        config,
    })
}

/// Assembles `src` and runs the seeded fault-injection campaign on it.
fn fault_campaign(src: &str, opts: &Options) -> Result<(), String> {
    let (program, _map) = parse_with_source_map(src, opts.base).map_err(|e| e.to_string())?;
    let cfg = CampaignConfig {
        seed: opts.seed,
        injections: opts.injections,
        backend: opts.backend,
    };
    let result = run_program_campaign(&program, &opts.path, &cfg)?;
    if opts.json {
        println!("{}", result.to_json().pretty());
        return Ok(());
    }
    let c = result.counts;
    println!(
        "{}: seed {:#x}, {} injections: {} masked, {} detected, {} sdc, {} crash, {} hang",
        opts.path,
        result.seed,
        c.total(),
        c.masked,
        c.detected,
        c.sdc,
        c.crash,
        c.hang
    );
    println!();
    println!("{}", result.metrics.render());
    Ok(())
}

/// Lints an assembled program against the `--config` machine, printing
/// diagnostics to stderr — rustc-style spans by default, one-line plain
/// records with `--plain`. Returns an error when any error-severity
/// finding exists.
fn lint(program: &Program, map: &SourceMap, opts: &Options) -> Result<(), String> {
    let path = opts.path.as_str();
    let lint_opts = LintOptions {
        timing: opts.config.timing,
        allow_recurrence: map.allowed_indices("recurrence"),
    };
    let findings = lint_program_with(program, &lint_opts);
    for finding in &findings {
        if opts.plain {
            eprintln!("{}", PlainDiagnostic::from_finding(finding, map, path));
        } else {
            eprintln!("{}", map.render(finding, path));
        }
    }
    let errors = mt_lint::error_count(&findings);
    let warnings = findings
        .iter()
        .filter(|f| f.severity() == Severity::Warning)
        .count();
    if !findings.is_empty() {
        eprintln!(
            "{path}: {} finding(s): {errors} error(s), {warnings} warning(s), {} note(s)",
            findings.len(),
            findings.len() - errors - warnings
        );
    }
    if errors > 0 {
        Err(format!("{errors} lint error(s)"))
    } else {
        Ok(())
    }
}

/// Assembles `src` and runs the static cycle/throughput analyzer
/// (`mt_lint::mca`) without simulating: the exact straight-line prediction
/// when the program is branch-free, and every natural loop's
/// steady-state cycles-per-iteration with its binding bottleneck.
/// `--json` emits the `mt-mca-v1` document instead.
fn mca_analyze(src: &str, opts: &Options) -> Result<(), String> {
    let (program, map) = parse_with_source_map(src, opts.base).map_err(|e| e.to_string())?;
    if opts.lint {
        lint(&program, &map, opts)?;
    }
    let view = ProgramView::decode(&program);
    let timing = opts.config.timing;
    let loops = mca::loops(&view, timing);
    if opts.json {
        let mut doc = Json::obj([("schema", Json::Str(mca::json::SCHEMA.to_string()))]);
        doc.push(
            "program",
            mca::json::program_json(&opts.path, &view, &loops, None),
        );
        println!("{}", doc.pretty());
        return Ok(());
    }
    let resolve = |pc: u32| {
        let idx = pc.checked_sub(program.base)? / 4;
        let span = map.span(idx as usize)?;
        let text = map.line_text(span.line)?.trim().to_string();
        Some((format!("{}:{}", opts.path, span.line), text))
    };
    match mca::straight_line(&view, timing) {
        Ok(pred) => {
            print!(
                "{}",
                mca::report::straight_line_report(&view, &pred, &resolve)
            );
        }
        Err(skip) => println!("whole-program prediction unavailable: {skip}"),
    }
    if !loops.is_empty() {
        println!();
        for l in &loops {
            print!("{}", mca::report::loop_report(&view, l, &resolve));
        }
    }
    Ok(())
}

/// Assembles and simulates `src`, honouring the tracing, timeline,
/// profiling, and export options. `force_profile` is the `profile`
/// subcommand (profiling on regardless of `--profile`).
fn run_program(src: &str, opts: &Options, force_profile: bool) -> Result<(), String> {
    let (program, map) = parse_with_source_map(src, opts.base).map_err(|e| e.to_string())?;
    if opts.lint {
        lint(&program, &map, opts)?;
    }
    opts.config.validate_program(&program)?;
    let profile = force_profile || opts.profile;
    let recording = opts.trace || opts.timeline || profile || opts.mca || opts.trace_out.is_some();
    let mut m = Machine::new(SimConfig {
        backend: opts.backend,
        machine: opts.config,
        ..SimConfig::default()
    });
    m.load_program(&program);
    if !opts.cold {
        m.warm_instructions(&program);
    }
    let mut events: Vec<TraceEvent> = Vec::new();
    let stats = if recording {
        m.run_with_sink(&mut events)
    } else {
        m.run()
    }
    .map_err(|e| e.to_string())?;

    if opts.trace {
        for line in events.iter().filter_map(TraceEvent::cpu_log_line) {
            println!("{line}");
        }
    }
    if opts.timeline {
        let annotate = |idx: u32| {
            map.span(idx as usize)
                .map(|s| format!("{}:{}", opts.path, s.line))
        };
        print!("{}", Timeline::from_events(&events, annotate).render(120));
    }
    if profile {
        let p = Profiler::from_events(&events);
        let resolve = |idx: u32| {
            let span = map.span(idx as usize)?;
            let text = map.line_text(span.line)?.trim().to_string();
            Some((format!("{}:{}", opts.path, span.line), text))
        };
        print!("{}", p.report(&opts.path, opts.top, &resolve));
        println!();
    }
    if opts.mca {
        let view = ProgramView::decode(&program);
        let loops = mca::loops(&view, opts.config.timing);
        let p = Profiler::from_events(&events);
        let resolve = |pc: u32| {
            let idx = pc.checked_sub(program.base)? / 4;
            let span = map.span(idx as usize)?;
            let text = map.line_text(span.line)?.trim().to_string();
            Some((format!("{}:{}", opts.path, span.line), text))
        };
        if loops.is_empty() {
            println!("mca: no loops detected");
        } else {
            print!(
                "{}",
                mca::report::compare_report(&view, &loops, &p, &resolve)
            );
        }
        println!();
    }
    if let Some(out) = &opts.trace_out {
        std::fs::write(out, chrome::trace_string(&events)).map_err(|e| format!("{out}: {e}"))?;
        eprintln!(
            "wrote {} events to {out} (Chrome trace-event JSON)",
            events.len()
        );
    }
    println!("{stats}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    // `client` has its own flag set (URL, concurrency, …), parsed by the
    // module itself.
    if cmd == "client" {
        return match client::run(rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("mtasm: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mtasm: {e}");
            return usage();
        }
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));

    let result = match cmd.as_str() {
        "asm" => read(&opts.path).and_then(|src| {
            let (program, map) =
                parse_with_source_map(&src, opts.base).map_err(|e| e.to_string())?;
            if opts.lint {
                lint(&program, &map, &opts)?;
            }
            for w in &program.words {
                println!("{w:08x}");
            }
            Ok(())
        }),
        "lint" => read(&opts.path).and_then(|src| {
            let (program, map) =
                parse_with_source_map(&src, opts.base).map_err(|e| e.to_string())?;
            lint(&program, &map, &opts)
        }),
        "dis" => read(&opts.path).and_then(|text| {
            let mut addr = opts.base;
            for (lineno, line) in text.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let w = parse_hex_u32(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
                match Instr::decode(w) {
                    Ok(i) => println!("{addr:#07x}: {i}"),
                    Err(e) => println!("{addr:#07x}: .word {w:#010x}  ; {e}"),
                }
                addr += 4;
            }
            Ok(())
        }),
        "run" => read(&opts.path).and_then(|src| run_program(&src, &opts, false)),
        "fault" => read(&opts.path).and_then(|src| fault_campaign(&src, &opts)),
        "profile" => read(&opts.path).and_then(|src| run_program(&src, &opts, true)),
        "mca" => read(&opts.path).and_then(|src| mca_analyze(&src, &opts)),
        _ => return usage(),
    };

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mtasm: {e}");
            ExitCode::FAILURE
        }
    }
}

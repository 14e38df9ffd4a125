//! Job model and execution: the pure function each worker computes.
//!
//! A job is `(endpoint, source, options)`; executing it on a freshly
//! recycled [`Machine`] is deterministic, which is what makes the
//! content-addressed cache (`crate::cache`) legal. Everything here is
//! careful to keep the response body a function of the job alone — no
//! timestamps, no worker identity, no wall-clock — so two workers (or a
//! cache replay) produce identical bytes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use mt_asm::{parse_with_source_map, PlainDiagnostic, SourceMap};
use mt_dse::json::cell_json;
use mt_dse::runner::{CellResult, CellSpec};
use mt_lint::{lint_program_with, LintOptions, Severity};
use mt_sim::json::stats_json;
use mt_sim::{Backend, Machine, MachineConfig, Program, RunError, SimConfig};
use mt_trace::{Json, NullSink, Profiler, TraceEvent};

/// Virtual file name diagnostics carry (request bodies never live on
/// disk).
pub const SOURCE_NAME: &str = "<request>";

/// Schema marker embedded in every response document.
pub const SCHEMA: &str = "mt-serve-v1";

/// Trace lines, or lint findings, included in a response before
/// truncation.
const MAX_LISTED: usize = 2000;

/// Cycles between cooperative cancellation checkpoints during a
/// controlled run ([`execute_controlled`]). At the simulator's release
/// throughput (tens of millions of cycles per second) this is a few
/// milliseconds of wall clock — fine-grained enough for request
/// deadlines, coarse enough that the `Instant::now()` per checkpoint is
/// unmeasurable.
pub const CANCEL_CHECK_CYCLES: u64 = 250_000;

/// Which service operation a job performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /assemble` — assemble only, return the words.
    Assemble,
    /// `POST /run` — assemble and simulate to halt.
    Run,
    /// One `POST /sweep` grid cell: the source is a comma-separated
    /// Livermore loop list (`"1,3,7"`), run under the job's
    /// [`RunOptions::machine`] and [`RunOptions::serialized`] by the
    /// `mt-dse` cell runner.
    Kernel,
}

impl Endpoint {
    /// Stable name used in cache keys and documents.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Assemble => "assemble",
            Endpoint::Run => "run",
            Endpoint::Kernel => "kernel",
        }
    }
}

/// Per-job options (the `?query` knobs of the HTTP API).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOptions {
    /// Text base address.
    pub base: u32,
    /// Start with cold instruction fetch instead of warmed text.
    pub cold: bool,
    /// Run the static analyzer; lint errors fail the job with 422.
    pub lint: bool,
    /// Include the per-PC profile in the response.
    pub profile: bool,
    /// Include the CPU log, one line per completed instruction, built
    /// from the run's recorded events (truncated after `MAX_LISTED`
    /// lines).
    pub trace: bool,
    /// Per-job cycle limit (0 = the simulator default).
    pub max_cycles: u64,
    /// Per-job no-progress watchdog (0 = off).
    pub watchdog: u64,
    /// Execution backend: the simulator default (the translated backend)
    /// unless `?backend=tick` forces the reference interpreter.
    /// Both produce bit-identical responses, so this knob is deliberately
    /// *not* cache-key material. Kernel-cell jobs run on their cell's own
    /// `CellSpec::config` and ignore it.
    pub backend: Backend,
    /// The simulated microarchitecture (`?config=knob=v,...`). Changes
    /// the response body, so its full canonical serialization IS
    /// cache-key material — an `fpu_lanes=2` run can never replay an
    /// `fpu_lanes=1` entry.
    pub machine: MachineConfig,
    /// Serialize the Load/Store and ALU instruction registers
    /// (`?serialized=1`) — the split-register-file ablation proxy.
    pub serialized: bool,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            base: 0x1_0000,
            cold: false,
            lint: false,
            profile: false,
            trace: false,
            max_cycles: 0,
            watchdog: 0,
            backend: Backend::default(),
            machine: MachineConfig::default(),
            serialized: false,
        }
    }
}

impl RunOptions {
    /// The simulator configuration this job runs under.
    pub fn sim_config(&self) -> SimConfig {
        let default = SimConfig::default();
        SimConfig {
            max_cycles: if self.max_cycles == 0 {
                default.max_cycles
            } else {
                self.max_cycles
            },
            watchdog_cycles: self.watchdog,
            backend: self.backend,
            machine: self.machine,
            serialized_issue: self.serialized,
            ..default
        }
    }
}

/// One queued job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRequest {
    /// The operation.
    pub endpoint: Endpoint,
    /// Assembly source text.
    pub source: String,
    /// The knobs.
    pub options: RunOptions,
}

impl JobRequest {
    /// Canonical cache-key material: every response-relevant input,
    /// nothing else. Any field that can change the body must appear here
    /// (`tests` assert sensitivity), and nothing request-incidental
    /// (client id, connection) may. [`RunOptions::backend`] is excluded
    /// on purpose: the backends are bit-identical (the equivalence suite
    /// proves it), so a result computed under either one may be replayed
    /// for both.
    pub fn key_material(&self) -> String {
        let o = &self.options;
        format!(
            "{SCHEMA}|{}|base={:#x}|cold={}|lint={}|profile={}|trace={}|max_cycles={}|watchdog={}|serialized={}|machine={}\n{}",
            self.endpoint.name(),
            o.base,
            o.cold as u8,
            o.lint as u8,
            o.profile as u8,
            o.trace as u8,
            o.max_cycles,
            o.watchdog,
            o.serialized as u8,
            o.machine.key_material(),
            self.source
        )
    }
}

/// A finished job: an HTTP status, a JSON body, and the service cycles
/// when a simulation actually ran (for the latency metrics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// HTTP status the body pairs with.
    pub status: u16,
    /// Rendered JSON document.
    pub body: String,
    /// `RunStats::cycles` when the job simulated to completion.
    pub cycles: Option<u64>,
}

impl JobResult {
    fn new(status: u16, doc: Json) -> JobResult {
        JobResult {
            status,
            body: doc.pretty(),
            cycles: None,
        }
    }
}

/// Wall-clock timing of one execution. Deliberately *not* part of
/// [`JobResult`]: the result must stay a deterministic function of the
/// job (its `PartialEq` underpins the determinism and cache tests), so
/// anything measured off the clock travels in this side channel.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobTiming {
    /// When the simulation section started and how long it ran
    /// (`None` when the job never reached the simulator — assemble
    /// jobs, parse errors, lint rejections).
    pub sim: Option<(Instant, Duration)>,
}

/// External control over one execution: the request's wall-clock
/// deadline and the server's drain flag. Both are observed at
/// [`CANCEL_CHECK_CYCLES`] checkpoints inside the simulator
/// ([`mt_sim::Machine::run_cancellable`]). Every job runs checkpointed;
/// a checkpoint that never fires is invisible, so a job with neither is
/// what [`execute`] runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobControl<'a> {
    /// Absolute deadline from `?deadline-ms=`; expiry abandons the run
    /// with a structured 503 `deadline-exceeded`.
    pub deadline: Option<Instant>,
    /// Server drain flag; a `true` load abandons the run with a
    /// structured 503 `draining`.
    pub cancel: Option<&'a AtomicBool>,
}

impl JobControl<'_> {
    /// Why the job must stop now, if it must: the drain flag wins over
    /// the deadline.
    fn stop(&self) -> Option<CancelKind> {
        if self.cancel.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
            return Some(CancelKind::Draining);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(CancelKind::Deadline);
        }
        None
    }
}

/// Why a controlled run was abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CancelKind {
    Deadline,
    Draining,
}

/// Renders the structured 503 body for a shed or drain-cancelled
/// request. Shared by the mid-run cancel path here and the server's
/// queue-age shed / drain paths, so every 503 has the same shape.
/// Deliberately free of wall-clock detail: shed bodies stay
/// deterministic even though they are never cached.
pub fn shed_body(kind: &str, message: &str) -> String {
    error_doc(kind, [("message", Json::Str(message.to_string()))]).pretty()
}

fn cancel_result(kind: CancelKind) -> JobResult {
    let (kind, message) = match kind {
        CancelKind::Deadline => (
            "deadline-exceeded",
            "request deadline expired during simulation",
        ),
        CancelKind::Draining => ("draining", "server draining; run abandoned"),
    };
    JobResult {
        status: 503,
        body: shed_body(kind, message),
        cycles: None,
    }
}

/// A structured error document: schema, `"status": "error"`, the kind,
/// then the `extra` members in order.
pub(crate) fn error_doc(kind: &str, extra: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut doc = Json::obj([
        ("schema", Json::Str(SCHEMA.to_string())),
        ("status", Json::Str("error".to_string())),
        ("kind", Json::Str(kind.to_string())),
    ]);
    for (k, v) in extra {
        doc.push(k, v);
    }
    doc
}

/// Maps a [`RunError`] to its structured document (all fields are
/// deterministic properties of the program).
fn run_error_doc(err: &RunError) -> Json {
    match err {
        RunError::CycleLimit(limit) => error_doc(
            "cycle-limit",
            [
                ("limit", Json::U64(*limit)),
                ("message", Json::Str(err.to_string())),
            ],
        ),
        RunError::BadInstruction { pc, .. } => error_doc(
            "bad-instruction",
            [
                ("pc", Json::U64(*pc as u64)),
                ("message", Json::Str(err.to_string())),
            ],
        ),
        RunError::MemoryFault { pc, .. } => error_doc(
            "memory-fault",
            [
                ("pc", Json::U64(*pc as u64)),
                ("message", Json::Str(err.to_string())),
            ],
        ),
        RunError::Watchdog { pc, idle_cycles } => error_doc(
            "watchdog",
            [
                ("pc", Json::U64(*pc as u64)),
                ("idle_cycles", Json::U64(*idle_cycles)),
                ("message", Json::Str(err.to_string())),
            ],
        ),
        // Cancellation is intercepted by `execute_controlled` (it knows
        // whether the deadline or the drain flag fired); reaching this
        // arm means an uncontrolled run was cancelled, which cannot
        // happen — render it anyway rather than panic a worker.
        RunError::Cancelled { cycle } => error_doc(
            "cancelled",
            [
                ("cycle", Json::U64(*cycle)),
                ("message", Json::Str(err.to_string())),
            ],
        ),
    }
}

/// The first [`MAX_LISTED`] items as a JSON array, and whether any were
/// left out.
fn capped(items: impl Iterator<Item = Json>) -> (Json, bool) {
    let mut items = items.peekable();
    let listed = items.by_ref().take(MAX_LISTED).collect();
    (Json::Arr(listed), items.peek().is_some())
}

/// Runs the analyzer against the job's machine; returns the first
/// [`MAX_LISTED`] findings as JSON diagnostics, whether any were left
/// out, and whether any error-severity finding exists.
fn lint_diagnostics(
    program: &Program,
    map: &SourceMap,
    machine: &MachineConfig,
) -> (Json, bool, bool) {
    let opts = LintOptions {
        timing: machine.timing,
        allow_recurrence: map.allowed_indices("recurrence"),
    };
    let findings = lint_program_with(program, &opts);
    let has_errors = findings.iter().any(|f| f.severity() == Severity::Error);
    let (diags, truncated) = capped(
        findings
            .iter()
            .map(|f| PlainDiagnostic::from_finding(f, map, SOURCE_NAME).to_json()),
    );
    (diags, truncated, has_errors)
}

/// Per-PC profile rows (PC order, deterministic).
fn profile_json(events: &[TraceEvent]) -> Json {
    let profiler = Profiler::from_events(events);
    Json::Arr(
        profiler
            .rows()
            .map(|(pc, row)| {
                Json::obj([
                    ("pc", Json::U64(pc as u64)),
                    ("instr_index", Json::U64(row.instr_index as u64)),
                    ("completions", Json::U64(row.completions)),
                    ("transfers", Json::U64(row.transfers)),
                    ("elements", Json::U64(row.elements)),
                    ("flops", Json::U64(row.flops)),
                    ("stall_cycles", Json::U64(row.stall_cycles())),
                    ("drain", Json::U64(row.drain)),
                    ("attributed_cycles", Json::U64(row.attributed_cycles())),
                ])
            })
            .collect(),
    )
}

/// Executes one job on a worker's machine. The machine is recycled to
/// the fresh state for the job's configuration first, so results are
/// independent of whatever ran before (`tests/machine_reuse.rs` proves
/// the recycling bit-identical).
pub fn execute(job: &JobRequest, machine: &mut Machine) -> JobResult {
    execute_timed(job, machine).0
}

/// [`execute`] plus wall-clock timing of the simulation section, for
/// the server's request spans and stage latency histograms.
pub fn execute_timed(job: &JobRequest, machine: &mut Machine) -> (JobResult, JobTiming) {
    execute_controlled(job, machine, &JobControl::default())
}

/// [`execute_timed`] under external control: the request deadline and
/// the server drain flag are checked cooperatively inside the simulator
/// every [`CANCEL_CHECK_CYCLES`] cycles; either firing abandons the run
/// and returns a structured 503 (`deadline-exceeded` / `draining`).
/// Every job runs checkpointed, [`execute_timed`]'s with an empty
/// [`JobControl`] too: checkpoint clamps are the proven `run_until`
/// pause path, so a checkpoint that never fires leaves the body
/// bit-identical to an unchecked run (`tests/snapshot_restore.rs` and
/// the `controlled_run_is_bit_identical` test hold it to that).
pub fn execute_controlled(
    job: &JobRequest,
    machine: &mut Machine,
    control: &JobControl,
) -> (JobResult, JobTiming) {
    let mut timing = JobTiming::default();
    // A deadline that already expired (burned in the queue, or between
    // pop and dispatch) sheds before touching the machine.
    if let Some(d) = control.deadline {
        if Instant::now() >= d {
            return (cancel_result(CancelKind::Deadline), timing);
        }
    }
    if job.endpoint == Endpoint::Kernel {
        return execute_kernel_cell(job, control);
    }
    let (program, map) = match parse_with_source_map(&job.source, job.options.base) {
        Ok(pair) => pair,
        Err(e) => {
            let diag = PlainDiagnostic::from_asm_error(&e, SOURCE_NAME);
            return (
                JobResult::new(
                    400,
                    error_doc(
                        "assemble",
                        [("diagnostics", Json::Arr(vec![diag.to_json()]))],
                    ),
                ),
                timing,
            );
        }
    };

    // A run on a bounds-restricted machine (`?config=num_fpu_regs=8`,
    // say) rejects programs that reach beyond the configured register
    // file or vector length — a property of the program, so a 422.
    if job.endpoint == Endpoint::Run {
        if let Err(m) = job.options.machine.validate_program(&program) {
            return (
                JobResult::new(
                    422,
                    error_doc("machine-bounds", [("message", Json::Str(m))]),
                ),
                timing,
            );
        }
    }

    let lint = if job.options.lint {
        let (diags, truncated, has_errors) = lint_diagnostics(&program, &map, &job.options.machine);
        let truncated = Json::Bool(truncated);
        if has_errors {
            let doc = error_doc(
                "lint",
                [("lint_truncated", truncated), ("diagnostics", diags)],
            );
            return (JobResult::new(422, doc), timing);
        }
        Some((truncated, diags))
    } else {
        None
    };

    let mut doc = Json::obj([
        ("schema", Json::Str(SCHEMA.to_string())),
        ("status", Json::Str("ok".to_string())),
        ("endpoint", Json::Str(job.endpoint.name().to_string())),
    ]);

    if job.endpoint == Endpoint::Assemble {
        doc.push(
            "words",
            Json::Arr(
                program
                    .words
                    .iter()
                    .map(|w| Json::Str(format!("{w:08x}")))
                    .collect(),
            ),
        );
        if let Some((truncated, diags)) = lint {
            doc.push("lint_truncated", truncated);
            doc.push("lint", diags);
        }
        return (JobResult::new(200, doc), timing);
    }

    let sim_start = Instant::now();
    machine.reset_for_new_job(job.options.sim_config());
    machine.load_program(&program);
    if !job.options.cold {
        machine.warm_instructions(&program);
    }
    let recording = job.options.profile || job.options.trace;
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut why: Option<CancelKind> = None;
    let mut check = || {
        why = control.stop();
        why.is_some()
    };
    let outcome = if recording {
        machine.run_cancellable(&mut events, CANCEL_CHECK_CYCLES, &mut check)
    } else {
        machine.run_cancellable(&mut NullSink, CANCEL_CHECK_CYCLES, &mut check)
    };
    timing.sim = Some((sim_start, sim_start.elapsed()));
    let stats = match outcome {
        Ok(stats) => stats,
        Err(RunError::Cancelled { .. }) => {
            let kind = why.expect("a cancelled run always records why");
            return (cancel_result(kind), timing);
        }
        Err(e) => return (JobResult::new(422, run_error_doc(&e)), timing),
    };

    doc.push("stats", stats_json(&stats));
    if let Some((truncated, diags)) = lint {
        doc.push("lint_truncated", truncated);
        doc.push("lint", diags);
    }
    if job.options.profile {
        doc.push("profile", profile_json(&events));
    }
    if job.options.trace {
        let log = events.iter().filter_map(TraceEvent::cpu_log_line);
        let (lines, truncated) = capped(log.map(Json::Str));
        doc.push("trace_truncated", Json::Bool(truncated));
        doc.push("trace", lines);
    }
    (
        JobResult {
            status: 200,
            body: doc.pretty(),
            cycles: Some(stats.cycles),
        },
        timing,
    )
}

/// Executes one sweep cell ([`Endpoint::Kernel`]): the Livermore loops
/// of the job's source list, in order on this thread, each through the
/// `mt-dse` cell runner that `run_grid` uses, under the job's machine.
/// The answer is the cell as `mt_dse::json::cell_json` renders it —
/// nameless, because names stay out of the cache key; `POST /sweep`
/// names it — with 422 for a failed cell. The deadline and drain flag
/// are observed between kernels (each is milliseconds of simulation, the
/// same granularity as the in-run checkpoints of `/run`).
fn execute_kernel_cell(job: &JobRequest, control: &JobControl) -> (JobResult, JobTiming) {
    let mut timing = JobTiming::default();
    let loops = match mt_dse::parse_loops(&job.source) {
        Ok(loops) => loops,
        Err(m) => {
            let doc = error_doc("kernel-list", [("message", Json::Str(m))]);
            return (JobResult::new(400, doc), timing);
        }
    };
    if let Err(m) = job.options.machine.validate() {
        let doc = error_doc("machine-config", [("message", Json::Str(m))]);
        return (JobResult::new(422, doc), timing);
    }

    let spec = CellSpec::new(String::new(), job.options.machine, job.options.serialized);
    let sim_start = Instant::now();
    let mut runs = Vec::with_capacity(loops.len());
    for &n in &loops {
        if let Some(kind) = control.stop() {
            timing.sim = Some((sim_start, sim_start.elapsed()));
            return (cancel_result(kind), timing);
        }
        let run = spec.run_loop(n);
        let failed = run.is_err();
        runs.push(run);
        if failed {
            break;
        }
    }
    timing.sim = Some((sim_start, sim_start.elapsed()));
    let cell = CellResult::from_runs(spec, runs);
    let cycles: u64 = cell
        .reports
        .iter()
        .map(|r| r.cold.cycles + r.warm.cycles)
        .sum();
    let result = JobResult {
        status: if cell.error.is_some() { 422 } else { 200 },
        body: cell_json(&cell).pretty(),
        cycles: cell.error.is_none().then_some(cycles),
    };
    (result, timing)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_job(source: &str, options: RunOptions) -> JobResult {
        let mut m = Machine::new(SimConfig::default());
        execute(
            &JobRequest {
                endpoint: Endpoint::Run,
                source: source.to_string(),
                options,
            },
            &mut m,
        )
    }

    const FIB: &str = "\
li   r1, 0x2000
fld  R0, 0(r1)
fld  R1, 8(r1)
fadd R2..R9, R1..R8, R0..R7   ; lint: allow(recurrence)
fadd R10, R10, R10
fst  R9, 16(r1)
halt
";

    #[test]
    fn run_returns_stats_document() {
        let r = run_job(FIB, RunOptions::default());
        assert_eq!(r.status, 200);
        let doc = mt_trace::json::parse(&r.body).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        let cycles = doc.get("stats").unwrap().get("cycles").unwrap();
        assert_eq!(cycles.as_f64().map(|c| c as u64), r.cycles);
    }

    #[test]
    fn execution_is_deterministic_across_machines() {
        let opts = RunOptions {
            lint: true,
            profile: true,
            ..RunOptions::default()
        };
        let a = run_job(FIB, opts.clone());
        let b = run_job(FIB, opts);
        assert_eq!(a, b, "same job, byte-identical response");
    }

    #[test]
    fn assemble_returns_words_without_simulating() {
        let mut m = Machine::new(SimConfig::default());
        let r = execute(
            &JobRequest {
                endpoint: Endpoint::Assemble,
                source: "fadd R2, R0, R1\nhalt\n".to_string(),
                options: RunOptions::default(),
            },
            &mut m,
        );
        assert_eq!(r.status, 200);
        assert_eq!(r.cycles, None);
        let doc = mt_trace::json::parse(&r.body).unwrap();
        assert_eq!(doc.get("words").unwrap().items().len(), 2);
    }

    #[test]
    fn assemble_error_is_a_structured_400() {
        let r = run_job("not an instruction\n", RunOptions::default());
        assert_eq!(r.status, 400);
        let doc = mt_trace::json::parse(&r.body).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("assemble"));
        let diag = &doc.get("diagnostics").unwrap().items()[0];
        assert_eq!(diag.get("line").unwrap().as_f64(), Some(1.0));
        assert!(!r.body.contains('\x1b'), "no ANSI in responses");
    }

    #[test]
    fn lint_errors_fail_with_422() {
        // The §2.3.2 provable ordering violation.
        let src =
            "li r1, 0x2000\nfld R0, 0(r1)\nfadd R16..R23, R0..R7, R8..R15\nfld R5, 64(r1)\nhalt\n";
        let r = run_job(
            src,
            RunOptions {
                lint: true,
                ..RunOptions::default()
            },
        );
        assert_eq!(r.status, 422);
        let doc = mt_trace::json::parse(&r.body).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("lint"));
        assert!(!doc.get("diagnostics").unwrap().items().is_empty());
    }

    /// An answer lists at most `MAX_LISTED` lint findings, in the 200
    /// body and in the 422 `lint` document, and says whether it left any
    /// out.
    #[test]
    fn lint_findings_are_capped_and_flagged() {
        let answer = |src: &str| {
            let r = run_job(
                src,
                RunOptions {
                    lint: true,
                    ..RunOptions::default()
                },
            );
            let doc = mt_trace::json::parse(&r.body).unwrap();
            let list = doc.get("lint").or_else(|| doc.get("diagnostics"));
            let truncated = doc.get("lint_truncated").cloned();
            (r.status, list.unwrap().items().len(), truncated)
        };
        let flag = |truncated| Some(Json::Bool(truncated));
        // Every `halt` after the first is an unreachable block.
        let past_the_cap = "halt\n".repeat(MAX_LISTED + 2);
        assert_eq!(answer(&past_the_cap), (200, MAX_LISTED, flag(true)));
        assert_eq!(answer("halt\nhalt\n"), (200, 1, flag(false)));
        let error = "fadd R16..R19, R0..R3, R8..R11\nfld R2, 0(r0)\nhalt\n";
        assert_eq!(answer(error).0, 422);
        assert_eq!(answer(error).2, flag(false));
    }

    /// Lint proves §2.3.2 violations on the machine the job runs on: a
    /// load that races element 2 of a vector on the one-lane paper
    /// machine finds that element already issued with two lanes.
    #[test]
    fn lint_replays_the_job_machine() {
        let src = "fadd R16..R19, R0..R3, R8..R11\nfld R2, 0(r0)\nhalt\n";
        let lint_on = |machine: MachineConfig| {
            run_job(
                src,
                RunOptions {
                    lint: true,
                    machine,
                    ..RunOptions::default()
                },
            )
            .status
        };
        assert_eq!(lint_on(MachineConfig::default()), 422);
        assert_eq!(lint_on(MachineConfig::parse("fpu_lanes=2").unwrap()), 200);
    }

    /// Regression: `?cycles=` and `?watchdog=` near `u64::MAX` used to
    /// wrap the simulator's boundary sums and wedge the worker forever.
    #[test]
    fn huge_limits_answer_like_the_defaults() {
        let src = "li r1, 5\nloop:\naddi r1, r1, -1\nbne r1, r0, loop\nhalt\n";
        let huge = run_job(
            src,
            RunOptions {
                max_cycles: u64::MAX,
                watchdog: u64::MAX,
                ..RunOptions::default()
            },
        );
        assert_eq!(huge.status, 200);
        assert_eq!(huge, run_job(src, RunOptions::default()));
    }

    #[test]
    fn divergent_program_hits_cycle_limit() {
        let r = run_job(
            "loop:\nbeq r0, r0, loop\nhalt\n",
            RunOptions {
                max_cycles: 10_000,
                ..RunOptions::default()
            },
        );
        assert_eq!(r.status, 422);
        let doc = mt_trace::json::parse(&r.body).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("cycle-limit"));
        assert_eq!(doc.get("limit").unwrap().as_f64(), Some(10_000.0));
    }

    #[test]
    fn wedged_program_hits_watchdog() {
        // Cold fetch with a 1-cycle watchdog: the very first instruction
        // miss (14+ idle cycles) exceeds the no-progress bound.
        let r = run_job(
            "halt\n",
            RunOptions {
                cold: true,
                watchdog: 1,
                ..RunOptions::default()
            },
        );
        assert_eq!(r.status, 422);
        let doc = mt_trace::json::parse(&r.body).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("watchdog"));
        assert!(doc.get("idle_cycles").unwrap().as_f64().unwrap() >= 1.0);
    }

    #[test]
    fn key_material_is_sensitive_to_every_knob() {
        let base = JobRequest {
            endpoint: Endpoint::Run,
            source: FIB.to_string(),
            options: RunOptions::default(),
        };
        let mut variants = vec![
            JobRequest {
                endpoint: Endpoint::Assemble,
                ..base.clone()
            },
            JobRequest {
                source: format!("{FIB}\n"),
                ..base.clone()
            },
        ];
        for f in [
            |o: &mut RunOptions| o.base = 0x2_0000,
            |o: &mut RunOptions| o.cold = true,
            |o: &mut RunOptions| o.lint = true,
            |o: &mut RunOptions| o.profile = true,
            |o: &mut RunOptions| o.trace = true,
            |o: &mut RunOptions| o.max_cycles = 77,
            |o: &mut RunOptions| o.watchdog = 9,
            |o: &mut RunOptions| o.serialized = true,
        ] {
            let mut v = base.clone();
            f(&mut v.options);
            variants.push(v);
        }
        let mut keys: Vec<String> = variants.iter().map(JobRequest::key_material).collect();
        keys.push(base.key_material());
        let distinct: std::collections::HashSet<&String> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len(), "every knob must change the key");
    }

    /// Every machine knob must reach the cache key individually — a run
    /// under any non-default microarchitecture can never replay a result
    /// computed under a different one.
    #[test]
    fn key_material_is_sensitive_to_every_machine_knob() {
        let base = JobRequest {
            endpoint: Endpoint::Run,
            source: FIB.to_string(),
            options: RunOptions::default(),
        };
        let base_key = base.key_material();
        for &knob in mt_sim::KNOB_NAMES {
            let mut v = base.clone();
            let old = v.options.machine.get_knob(knob).unwrap();
            let fresh = if knob.ends_with("_bytes") || knob.ends_with("_line") {
                old * 2
            } else {
                old + 1
            };
            v.options.machine.set_knob(knob, fresh).unwrap();
            assert_ne!(
                v.key_material(),
                base_key,
                "machine knob {knob} must change the cache key"
            );
        }
    }

    /// The regression spelled out: an `fpu_lanes=2` run must
    /// never hit an `fpu_lanes=1` cache entry.
    #[test]
    fn lanes_2_never_hits_a_lanes_1_cache_entry() {
        let mut cache = crate::cache::ResultCache::new(16);
        let lanes1 = JobRequest {
            endpoint: Endpoint::Run,
            source: FIB.to_string(),
            options: RunOptions::default(),
        };
        let mut lanes2 = lanes1.clone();
        lanes2.options.machine.set_knob("fpu_lanes", 2).unwrap();

        let mut m = Machine::new(SimConfig::default());
        let r1 = execute(&lanes1, &mut m);
        cache.insert(lanes1.key_material(), r1.status, r1.body.clone());
        assert!(
            cache.get(&lanes2.key_material()).is_none(),
            "a lanes=2 request replayed a lanes=1 body"
        );
        assert_eq!(
            cache.get(&lanes1.key_material()),
            Some((r1.status, r1.body)),
            "the lanes=1 entry still serves lanes=1"
        );
    }

    /// Runs a kernel-cell job for `loops` on `machine`.
    fn kernel_job(loops: &str, machine: MachineConfig) -> JobResult {
        let mut m = Machine::new(SimConfig::default());
        let job = JobRequest {
            endpoint: Endpoint::Kernel,
            source: loops.to_string(),
            options: RunOptions {
                machine,
                ..RunOptions::default()
            },
        };
        execute(&job, &mut m)
    }

    /// The body `repro-dse`'s runner and renderer give the same
    /// (nameless) cell.
    fn dse_cell_body(machine: MachineConfig, loops: &[u8]) -> String {
        let cell = CellSpec::new(String::new(), machine, false);
        let direct = mt_dse::run_grid(std::slice::from_ref(&cell), loops);
        cell_json(&direct[0]).pretty()
    }

    /// A kernel-cell job answers with the cell `repro-dse` computes and
    /// renders, byte for byte.
    #[test]
    fn kernel_cell_matches_the_dse_runner() {
        let r = kernel_job("7,12", MachineConfig::default());
        assert_eq!(r.status, 200);
        assert_eq!(
            r.body,
            dse_cell_body(MachineConfig::default(), &[7, 12]),
            "service and repro-dse disagree on the same cell"
        );
        let doc = mt_trace::json::parse(&r.body).unwrap();
        assert_eq!(doc.get("kernels").unwrap().items().len(), 2);
        assert!(r.cycles.is_some_and(|c| c > 0));
    }

    #[test]
    fn kernel_cell_rejects_bad_lists_and_tiny_machines() {
        for source in ["0", "25", "seven", ""] {
            let r = kernel_job(source, MachineConfig::default());
            assert_eq!(r.status, 400, "{source:?}");
            let doc = mt_trace::json::parse(&r.body).unwrap();
            assert_eq!(doc.get("kind").unwrap().as_str(), Some("kernel-list"));
        }
        // A machine too small for the kernels is a 422 error cell: too
        // few registers, a 64 KiB memory (the text starts at 64 KiB) or a
        // 1 MiB one (the data starts at 1 MiB). The memory cases used to
        // panic the worker.
        for config in [
            "num_fpu_regs=2",
            "memory_bytes=65536",
            "memory_bytes=1048576",
        ] {
            let tiny = MachineConfig::parse(config).unwrap();
            let r = kernel_job("7", tiny);
            assert_eq!(r.status, 422, "{config}");
            assert_eq!(r.cycles, None);
            assert_eq!(r.body, dse_cell_body(tiny, &[7]), "{config}");
            let doc = mt_trace::json::parse(&r.body).unwrap();
            assert!(doc.get("error").is_some(), "{config}");
        }
        // An invalid machine handed straight to `execute` keeps its
        // structured 422.
        let invalid = MachineConfig {
            num_fpu_regs: 0,
            ..MachineConfig::default()
        };
        let r = kernel_job("7", invalid);
        assert_eq!(r.status, 422);
        let doc = mt_trace::json::parse(&r.body).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("machine-config"));
    }

    /// A bounds-restricted machine rejects over-limit assembly on `/run`:
    /// registers beyond its file, and text beyond its memory (which used
    /// to panic the worker in `Machine::load_program`).
    #[test]
    fn run_rejects_programs_beyond_the_configured_bounds() {
        for (config, src) in [
            ("num_fpu_regs=8", FIB),
            ("memory_bytes=65536", "li r1, 1\naddi r1, r1, 1\nhalt\n"),
        ] {
            let options = RunOptions {
                machine: MachineConfig::parse(config).unwrap(),
                ..RunOptions::default()
            };
            let r = run_job(src, options);
            assert_eq!(r.status, 422, "{config}: {}", r.body);
            let doc = mt_trace::json::parse(&r.body).unwrap();
            assert_eq!(doc.get("kind").unwrap().as_str(), Some("machine-bounds"));
        }
    }

    /// A controlled run that is never cancelled must be bit-identical to
    /// the plain path — deadlines may not perturb results (the cache
    /// stores only uncancelled bodies, replayed for requests with any
    /// deadline).
    #[test]
    fn controlled_run_is_bit_identical() {
        for options in [
            RunOptions::default(),
            RunOptions {
                profile: true,
                trace: true,
                ..RunOptions::default()
            },
        ] {
            let job = JobRequest {
                endpoint: Endpoint::Run,
                source: FIB.to_string(),
                options,
            };
            let mut m = Machine::new(SimConfig::default());
            let plain = execute_timed(&job, &mut m).0;
            let cancel = AtomicBool::new(false);
            let control = JobControl {
                deadline: Some(Instant::now() + Duration::from_secs(600)),
                cancel: Some(&cancel),
            };
            let controlled = execute_controlled(&job, &mut m, &control).0;
            assert_eq!(plain, controlled, "checkpoints leaked into the body");
        }
    }

    #[test]
    fn expired_deadline_cancels_mid_run_with_503() {
        let job = JobRequest {
            endpoint: Endpoint::Run,
            source: "loop:\nbeq r0, r0, loop\nhalt\n".to_string(),
            options: RunOptions {
                max_cycles: 4_000_000_000,
                ..RunOptions::default()
            },
        };
        let mut m = Machine::new(SimConfig::default());
        let control = JobControl {
            deadline: Some(Instant::now() + Duration::from_millis(50)),
            cancel: None,
        };
        let start = Instant::now();
        let (r, _) = execute_controlled(&job, &mut m, &control);
        assert_eq!(r.status, 503);
        assert!(start.elapsed() < Duration::from_secs(30), "never cancelled");
        let doc = mt_trace::json::parse(&r.body).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("deadline-exceeded"));
    }

    #[test]
    fn drain_flag_cancels_mid_run_with_503() {
        let job = JobRequest {
            endpoint: Endpoint::Run,
            source: "loop:\nbeq r0, r0, loop\nhalt\n".to_string(),
            options: RunOptions {
                max_cycles: 4_000_000_000,
                ..RunOptions::default()
            },
        };
        let mut m = Machine::new(SimConfig::default());
        let cancel = AtomicBool::new(true);
        let control = JobControl {
            deadline: None,
            cancel: Some(&cancel),
        };
        let (r, _) = execute_controlled(&job, &mut m, &control);
        assert_eq!(r.status, 503);
        let doc = mt_trace::json::parse(&r.body).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("draining"));
    }

    /// An already-expired deadline sheds before the machine is touched.
    #[test]
    fn pre_expired_deadline_sheds_without_simulating() {
        let job = JobRequest {
            endpoint: Endpoint::Run,
            source: FIB.to_string(),
            options: RunOptions::default(),
        };
        let mut m = Machine::new(SimConfig::default());
        let control = JobControl {
            deadline: Some(Instant::now() - Duration::from_secs(1)),
            cancel: None,
        };
        let (r, timing) = execute_controlled(&job, &mut m, &control);
        assert_eq!(r.status, 503);
        assert!(
            timing.sim.is_none(),
            "shed jobs must not reach the simulator"
        );
    }

    /// The backend knob must NOT reach the cache key: both backends
    /// produce bit-identical bodies, so a cached result serves either.
    #[test]
    fn key_material_ignores_backend() {
        let base = JobRequest {
            endpoint: Endpoint::Run,
            source: FIB.to_string(),
            options: RunOptions::default(),
        };
        let mut tick = base.clone();
        tick.options.backend = Backend::Tick;
        let mut xlate = base.clone();
        xlate.options.backend = Backend::Xlate;
        assert_eq!(tick.key_material(), xlate.key_material());
    }

    /// Same job, both backends: byte-identical response documents (the
    /// service-level face of the equivalence suite, and what makes
    /// excluding the backend from the cache key sound).
    #[test]
    fn backends_produce_identical_responses() {
        for options in [
            RunOptions::default(),
            RunOptions {
                cold: true,
                ..RunOptions::default()
            },
        ] {
            let mut tick_opts = options.clone();
            tick_opts.backend = Backend::Tick;
            let mut xlate_opts = options;
            xlate_opts.backend = Backend::Xlate;
            let tick = run_job(FIB, tick_opts.clone());
            let xlate = run_job(FIB, xlate_opts);
            assert_eq!(tick.status, xlate.status);
            assert_eq!(tick.body, xlate.body, "backend leaked into the body");
        }
    }
}

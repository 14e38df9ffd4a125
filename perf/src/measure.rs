//! What a measured phase records: its rounds with the host factor of
//! each, the latency of every completed operation, failures, and — in a
//! traced run — a span around every public call.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mt_obs::SpanSet;
use mt_trace::{chrome, Json};

use crate::host;
use crate::stats::{self, Latencies};

/// Spans kept per load thread for the Chrome trace (every span still
/// counts in the per-step statistics).
const TRACE_SPANS_PER_THREAD: usize = 4000;

/// Failure messages kept for the report (every failure still counts).
const FAILURE_MESSAGES: usize = 5;

/// Which clock a time is read on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock time as measured, at whatever speed the host ran.
    Wall,
    /// Wall-clock time divided by the host factor of its round: the time
    /// at nominal host speed ([`crate::host`]).
    Nominal,
}

/// Latency samples a measured phase keeps room for. The room is reserved
/// and touched before the phase starts, so the benchmark's own
/// bookkeeping adds the same 2 MiB to `peak_rss_mb` however many
/// operations a run completes: three times what the busiest workload
/// completes in a 20 s phase. Operations beyond it still count in their
/// round, without a latency sample.
pub const MAX_SAMPLES: usize = 1 << 19;

/// Rounds a measured phase keeps room for, likewise (a round lasts at
/// least a few milliseconds).
const MAX_ROUNDS: usize = 1 << 12;

/// One round of a measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Round {
    /// Wall-clock seconds the round's operations took.
    pub seconds: f64,
    /// The host factor over the round: the mean of the probes of the host
    /// reference just before and just after it.
    pub host: f64,
    /// Operations completed in the round.
    pub ops: u64,
    /// Simulated cycles those operations covered.
    pub cycles: u64,
    /// Where its latency samples start in the phase's samples.
    first_sample: usize,
}

impl Round {
    /// The round's length in seconds on `clock`.
    fn seconds_on(&self, clock: Clock) -> f64 {
        match clock {
            Clock::Wall => self.seconds,
            Clock::Nominal => self.seconds / self.host,
        }
    }
}

/// The raw results of one measured phase.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Closed rounds, in order.
    pub rounds: Vec<Round>,
    /// Wall-clock microseconds of each completed operation, round by
    /// round (at most [`MAX_SAMPLES`]).
    samples: Vec<f32>,
    /// Operations and cycles of the round under way.
    open: (u64, u64),
    /// Operations attempted, including those that failed.
    pub attempted: u64,
    /// Operations (or whole-pass output checks) that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Phase {
    /// An empty phase.
    pub fn new() -> Phase {
        Phase::default()
    }

    /// An empty phase with its room for samples and rounds reserved and
    /// touched.
    pub fn reserved() -> Phase {
        let mut samples = vec![1.0f32; MAX_SAMPLES];
        samples.clear();
        Phase {
            rounds: Vec::with_capacity(MAX_ROUNDS),
            samples,
            ..Phase::default()
        }
    }

    /// Records an operation of the round under way that took
    /// `latency_us` and covered `cycles`.
    pub fn record(&mut self, latency_us: f64, cycles: u64) {
        self.open.0 += 1;
        self.open.1 += cycles;
        if self.samples.len() < MAX_SAMPLES {
            self.samples.push(latency_us as f32);
        }
    }

    /// Records an operation of the round under way that ran from `start`
    /// to `end` and covered `cycles`.
    pub fn complete(&mut self, start: Instant, end: Instant, cycles: u64) {
        self.record(
            end.saturating_duration_since(start).as_secs_f64() * 1e6,
            cycles,
        );
    }

    /// Closes the round under way: its operations took `seconds` of wall
    /// time while the host ran at factor `host`.
    pub fn close_round(&mut self, seconds: f64, host: f64) {
        let first_sample = self.rounds.last().map_or(0, |r| {
            (r.first_sample + r.ops as usize).min(self.samples.len())
        });
        let (ops, cycles) = std::mem::take(&mut self.open);
        self.rounds.push(Round {
            seconds,
            host,
            ops,
            cycles,
            first_sample,
        });
    }

    /// Records a failure.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < FAILURE_MESSAGES {
            self.failures.push(message);
        }
    }

    /// Folds another phase's attempts and failures, and the operations of
    /// its round under way, into the round under way of this one (its
    /// closed rounds are not merged).
    pub fn absorb(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = FAILURE_MESSAGES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
        let open_from = other
            .rounds
            .last()
            .map_or(0, |r| r.first_sample + r.ops as usize);
        let room = MAX_SAMPLES.saturating_sub(self.samples.len());
        self.samples
            .extend(other.samples.iter().skip(open_from).take(room));
        self.open.0 += other.open.0;
        self.open.1 += other.open.1;
    }

    /// Operations per second, per round, on `clock`.
    pub fn ops_per_s(&self, clock: Clock) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| r.ops as f64 / r.seconds_on(clock))
            .collect()
    }

    /// Simulated megacycles per second, per round, on `clock`.
    pub fn mcycles_per_s(&self, clock: Clock) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| r.cycles as f64 / r.seconds_on(clock) / 1e6)
            .collect()
    }

    /// The latencies of the operations of the closed rounds, on `clock`.
    pub fn latencies(&self, clock: Clock) -> Latencies {
        let mut out = Vec::with_capacity(self.samples.len());
        for r in &self.rounds {
            let end = (r.first_sample + r.ops as usize).min(self.samples.len());
            let scale = match clock {
                Clock::Wall => 1.0,
                Clock::Nominal => r.host,
            };
            out.extend(
                self.samples[r.first_sample..end]
                    .iter()
                    .map(|&us| f64::from(us) / scale),
            );
        }
        Latencies::new(out)
    }

    /// The host factor of every round.
    pub fn host_factors(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.host).collect()
    }
}

/// Runs `round` again and again, with a probe of the host reference
/// before the first round and after each one, until `seconds` have
/// passed; the round under way then finishes. Each round should take
/// about a tenth of a second or less: short enough that the host's speed
/// changes little within it.
pub fn run_rounds(seconds: f64, mut round: impl FnMut(&mut Phase)) -> Phase {
    let mut reference = host::Reference::new();
    let mut phase = Phase::reserved();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut before = reference.factor();
    loop {
        let start = Instant::now();
        round(&mut phase);
        let took = start.elapsed().as_secs_f64();
        let after = reference.factor();
        phase.close_round(took, (before + after) / 2.0);
        before = after;
        if Instant::now() >= deadline {
            return phase;
        }
    }
}

/// Spans of one load thread in a traced phase: an [`mt_obs::SpanSet`]
/// for the Chrome trace plus every step's duration for the layer table.
#[derive(Debug, Clone)]
pub struct StepLog {
    spans: SpanSet,
    steps: BTreeMap<&'static str, Vec<f64>>,
}

impl StepLog {
    /// A log for load thread `thread`, anchored now.
    pub fn new(thread: u64) -> StepLog {
        StepLog {
            spans: SpanSet::begin(thread),
            steps: BTreeMap::new(),
        }
    }

    /// Records step `name` over `[start, end]`.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.steps
            .entry(name)
            .or_default()
            .push(end.saturating_duration_since(start).as_secs_f64() * 1e9);
        if self.spans.spans().len() < TRACE_SPANS_PER_THREAD {
            self.spans.record(name, start, end);
        }
    }

    /// Runs `f` as step `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now());
        out
    }

    /// Every recorded duration of step `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> &[f64] {
        self.steps.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median duration of step `name` in nanoseconds (NaN if never run).
    pub fn median_ns(&self, name: &str) -> f64 {
        stats::median(self.durations_ns(name))
    }

    /// Total time spent in step `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum()
    }

    /// Total time spent in every step, in nanoseconds.
    pub fn all_steps_ns(&self) -> f64 {
        self.steps.values().flatten().sum()
    }

    /// Merges another thread's step durations (not its spans).
    pub fn absorb_steps(&mut self, other: &StepLog) {
        for (name, durations) in &other.steps {
            self.steps.entry(name).or_default().extend(durations);
        }
    }
}

/// One Chrome trace document over the logs' spans, one track per load
/// thread. Timestamps are microseconds from each log's anchor.
pub fn chrome_trace(logs: &[StepLog], label: &str) -> Json {
    let mut events = vec![chrome::entry(
        "process_name".to_string(),
        "M",
        0,
        0,
        vec![("name".to_string(), Json::Str(label.to_string()))],
    )];
    for log in logs {
        let tid = log.spans.id;
        events.push(chrome::thread_name(tid, &format!("load thread {tid}")));
        events.extend(
            log.spans
                .spans()
                .iter()
                .map(|s| chrome::complete(s.name.to_string(), s.start_us, s.dur_us, tid, vec![])),
        );
    }
    chrome::document(
        events,
        Json::obj([(
            "note",
            Json::Str("1 trace µs = 1 real µs, from the traced phase's start".to_string()),
        )]),
    )
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `M_ARENA_MAX` of the C library's `mallopt`.
const M_ARENA_MAX: i32 = -8;

/// Makes every thread of this process allocate from one malloc arena.
/// Otherwise the C library gives a thread a new arena whenever the others
/// are busy, so the number of arenas — and `peak_rss_mb` with them —
/// depends on how many of mt-serve's per-connection threads happened to
/// overlap. On one CPU ([`crate::pin`]) one arena costs no waiting.
///
/// # Errors
///
/// The C library refusing the setting.
pub fn single_malloc_arena() -> Result<(), String> {
    // SAFETY: `mallopt` takes two integers and only changes the
    // allocator's tuning; it is called before this process starts any
    // thread.
    match unsafe { mallopt(M_ARENA_MAX, 1) } {
        1 => Ok(()),
        _ => Err("mallopt(M_ARENA_MAX, 1) failed".to_string()),
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operations_belong_to_the_round_they_completed_in() {
        let mut phase = Phase::new();
        let t0 = Instant::now();
        phase.complete(t0, t0 + Duration::from_millis(50), 7);
        phase.record(30.0, 5);
        phase.close_round(0.5, 2.0);
        phase.record(10.0, 9);
        phase.close_round(0.25, 1.0);
        assert_eq!(
            phase
                .rounds
                .iter()
                .map(|r| (r.ops, r.cycles))
                .collect::<Vec<_>>(),
            [(2, 12), (1, 9)]
        );
        assert_eq!(phase.ops_per_s(Clock::Wall), [4.0, 4.0]);
        // At nominal speed the first round, run on a host twice as slow,
        // took half the time.
        assert_eq!(phase.ops_per_s(Clock::Nominal), [8.0, 4.0]);
        assert_eq!(phase.mcycles_per_s(Clock::Nominal)[0], 12.0 / 0.25 / 1e6);
        let nominal = phase.latencies(Clock::Nominal);
        assert_eq!(nominal.len(), 3);
        assert_eq!(nominal.percentile(0.0), 10.0);
        assert_eq!(nominal.percentile(50.0), 15.0);
        assert_eq!(nominal.percentile(100.0), 25_000.0);
        assert_eq!(phase.latencies(Clock::Wall).percentile(100.0), 50_000.0);
        assert_eq!(phase.host_factors(), [2.0, 1.0]);
    }

    #[test]
    fn absorbed_operations_join_the_round_under_way() {
        let mut phase = Phase::new();
        phase.record(1.0, 1);
        phase.close_round(0.1, 1.0);
        let mut part = Phase::new();
        part.attempted = 3;
        part.record(5.0, 1);
        part.record(6.0, 1);
        part.fail("lost".to_string());
        phase.absorb(part);
        phase.close_round(0.1, 2.0);
        assert_eq!((phase.attempted, phase.failed), (3, 1));
        assert_eq!((phase.rounds[1].ops, phase.rounds[1].cycles), (2, 2));
        let nominal = phase.latencies(Clock::Nominal);
        assert_eq!(
            [0.0, 50.0, 100.0].map(|p| nominal.percentile(p)),
            [1.0, 2.5, 3.0]
        );
    }

    #[test]
    fn samples_beyond_the_room_still_count_in_their_round() {
        let mut phase = Phase::reserved();
        for _ in 0..MAX_SAMPLES + 3 {
            phase.record(1.0, 2);
        }
        phase.close_round(1.0, 1.0);
        phase.record(4.0, 2);
        phase.close_round(1.0, 1.0);
        assert_eq!(phase.rounds[0].ops, MAX_SAMPLES as u64 + 3);
        assert_eq!(phase.rounds[1].ops, 1);
        assert_eq!(phase.latencies(Clock::Wall).len(), MAX_SAMPLES);
    }

    #[test]
    fn rounds_run_until_the_time_is_up() {
        let mut rounds = 0u64;
        let start = Instant::now();
        let phase = run_rounds(0.02, |p| {
            rounds += 1;
            p.attempted += 1;
            let op = Instant::now();
            std::thread::sleep(Duration::from_micros(300));
            p.complete(op, Instant::now(), 7);
        });
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(phase.rounds.len() as u64, rounds);
        assert_eq!(phase.latencies(Clock::Wall).len() as u64, rounds);
        assert!(phase
            .rounds
            .iter()
            .all(|r| r.ops == 1 && r.seconds >= 300e-6 && r.host > 0.0));
    }

    #[test]
    fn failures_count_beyond_the_kept_messages() {
        let mut phase = Phase::new();
        for i in 0..8 {
            phase.fail(format!("f{i}"));
        }
        assert_eq!(phase.failed, 8);
        assert_eq!(phase.failures.len(), FAILURE_MESSAGES);
    }

    #[test]
    fn step_log_feeds_statistics_and_a_loadable_trace() {
        let mut log = StepLog::new(1);
        for _ in 0..3 {
            log.time("sim.new", || std::hint::black_box(1 + 1));
        }
        assert_eq!(log.durations_ns("sim.new").len(), 3);
        assert!(log.durations_ns("missing").is_empty());
        let doc = chrome_trace(&[log], "test").pretty();
        assert!(mt_trace::json::validate(&doc).is_ok());
        assert!(doc.contains("sim.new") && doc.contains("load thread 1"));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}

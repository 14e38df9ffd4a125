//! Service metrics: counters in the shared [`MetricsRegistry`], bounded
//! HDR latency/service-cycle histograms, sliding-window rates, and the
//! two exposition formats of `GET /metrics` (JSON and Prometheus text).
//!
//! The original implementation kept every service-cycle sample in a
//! `Vec<u64>` for exact percentiles — memory grew without bound under
//! sustained traffic. Every distribution here is now an
//! [`mt_obs::HdrHistogram`]: **O(1) memory in the request count**
//! (`memory_is_constant_in_request_count` pins this) with quantiles
//! within the histogram's documented relative-error bound (≈1.6 %).
//! The exact nearest-rank computation survives only in this module's
//! tests, as the accuracy oracle.
//!
//! Everything in the document is a deterministic function of the
//! request history except the gauges (queue depth, busy workers) and
//! the windowed rates, which are instantaneous reads.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use mt_obs::{HdrHistogram, PromText, WindowedCounter};
use mt_trace::{Json, MetricsRegistry};

/// Sliding-window length for the instantaneous rates.
pub const WINDOW_SECS: u64 = 60;

/// The stage names of the request span tree, in pipeline order. The
/// per-stage latency breakdown renders all of them (empty stages show
/// `count: 0`) so the document schema is traffic-independent.
pub const STAGES: &[&str] = &[
    "total",
    "read-request",
    "parse",
    "cache-lookup",
    "queue-wait",
    "worker-service",
    "sim-run",
    "respond",
];

/// Instantaneous values sampled by the caller at render time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Jobs currently queued.
    pub queue_depth: usize,
    /// Total queue bound.
    pub queue_capacity: usize,
    /// Worker pool size.
    pub workers: usize,
    /// Workers executing a job right now.
    pub busy_workers: usize,
    /// Connections being served right now. Each holds one connection
    /// thread; parked connection threads are not counted.
    pub open_connections: usize,
    /// Connection threads parked, waiting for the next connection.
    pub conn_threads_parked: usize,
    /// True while the server is draining: job POSTs get `503`, GETs
    /// still work so probes can watch the drain instead of a dead port.
    pub draining: bool,
}

#[derive(Debug)]
struct State {
    registry: MetricsRegistry,
    /// Cycle counts of completed simulations (bounded histogram).
    service_cycles: HdrHistogram,
    /// Wall-clock microseconds per request stage.
    stages: BTreeMap<&'static str, HdrHistogram>,
    /// Requests over the trailing window.
    requests_win: WindowedCounter,
    /// Non-2xx responses over the trailing window.
    errors_win: WindowedCounter,
    /// Queue-full rejections over the trailing window.
    rejected_win: WindowedCounter,
    /// Cache hits / misses over the trailing window.
    hits_win: WindowedCounter,
    misses_win: WindowedCounter,
    /// Per-worker `(jobs, busy_us)` — fixed size once the pool exists.
    worker_busy: Vec<(u64, u64)>,
}

impl Default for State {
    fn default() -> State {
        State {
            registry: MetricsRegistry::default(),
            service_cycles: HdrHistogram::default(),
            stages: STAGES
                .iter()
                .map(|&s| (s, HdrHistogram::default()))
                .collect(),
            requests_win: WindowedCounter::new(WINDOW_SECS),
            errors_win: WindowedCounter::new(WINDOW_SECS),
            rejected_win: WindowedCounter::new(WINDOW_SECS),
            hits_win: WindowedCounter::new(WINDOW_SECS),
            misses_win: WindowedCounter::new(WINDOW_SECS),
            worker_busy: Vec::new(),
        }
    }
}

/// Thread-safe service metrics.
#[derive(Debug)]
pub struct ServeMetrics {
    /// Server start — the origin of the window clock and uptime.
    started: Instant,
    state: Mutex<State>,
}

impl Default for ServeMetrics {
    fn default() -> ServeMetrics {
        ServeMetrics {
            started: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }
}

impl ServeMetrics {
    /// An empty registry.
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// Every update leaves the state whole, so a poisoned lock is safe to
    /// take back.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Seconds since the server started (the window clock).
    fn now_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Microseconds since the server started.
    pub fn uptime_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Sizes the per-worker table (called once when the pool spawns).
    pub fn set_workers(&self, workers: usize) {
        self.lock().worker_busy = vec![(0, 0); workers];
    }

    /// Bumps a named counter. Counters with windowed twins
    /// (`requests_total`, `rejected_429`, `cache_hits`, `cache_misses`,
    /// and the non-2xx `responses_*`) feed their sliding window here
    /// too, so the rates can never drift from the totals.
    pub fn add(&self, name: &str, delta: u64) {
        let now = self.now_s();
        let mut s = self.lock();
        s.registry.add(name, delta);
        match name {
            "requests_total" => s.requests_win.add(now, delta),
            "rejected_429" => s.rejected_win.add(now, delta),
            "cache_hits" => s.hits_win.add(now, delta),
            "cache_misses" => s.misses_win.add(now, delta),
            "responses_400" | "responses_422" | "responses_500" | "responses_503"
            | "responses_other" => s.errors_win.add(now, delta),
            _ => {}
        }
    }

    /// Reads a counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().registry.counter(name)
    }

    /// Records one completed simulation's cycle count.
    pub fn record_service_cycles(&self, cycles: u64) {
        let mut s = self.lock();
        s.registry.record("service_cycles", cycles);
        s.service_cycles.record(cycles);
    }

    /// Records one request stage's wall-clock duration. Unknown stage
    /// names are dropped (the set is fixed so memory stays bounded).
    pub fn record_stage_us(&self, stage: &str, us: u64) {
        let mut s = self.lock();
        if let Some(h) = s.stages.get_mut(stage) {
            h.record(us);
        }
    }

    /// Adds one finished job to worker `index`'s utilization tally.
    pub fn record_worker_job(&self, index: usize, busy_us: u64) {
        let mut s = self.lock();
        if let Some(w) = s.worker_busy.get_mut(index) {
            w.0 += 1;
            w.1 += busy_us;
        }
    }

    /// Approximate resident size of all bounded sample storage — a
    /// constant once the worker table exists, regardless of traffic.
    pub fn memory_bytes(&self) -> usize {
        let s = self.lock();
        s.service_cycles.memory_bytes()
            + s.stages
                .values()
                .map(HdrHistogram::memory_bytes)
                .sum::<usize>()
            + s.worker_busy.len() * std::mem::size_of::<(u64, u64)>()
            + (WINDOW_SECS as usize) * 5 * 2 * std::mem::size_of::<u64>()
    }

    /// The `GET /metrics` JSON document.
    pub fn to_json(&self, g: Gauges) -> Json {
        let now = self.now_s();
        let uptime_us = self.uptime_us();
        let s = self.lock();
        let hits = s.registry.counter("cache_hits");
        let misses = s.registry.counter("cache_misses");
        let hit_ratio = if hits + misses == 0 {
            Json::Null
        } else {
            Json::F64(hits as f64 / (hits + misses) as f64)
        };
        let utilization = if g.workers == 0 {
            Json::Null
        } else {
            Json::F64(g.busy_workers as f64 / g.workers as f64)
        };
        let (win_hits, win_misses) = (s.hits_win.total(now), s.misses_win.total(now));
        let window_hit_ratio = if win_hits + win_misses == 0 {
            Json::Null
        } else {
            Json::F64(win_hits as f64 / (win_hits + win_misses) as f64)
        };
        let latency = Json::Obj(
            STAGES
                .iter()
                .map(|&name| (name.to_string(), s.stages[name].to_json()))
                .collect(),
        );
        let workers = Json::Arr(
            s.worker_busy
                .iter()
                .map(|&(jobs, busy_us)| {
                    Json::obj([
                        ("jobs", Json::U64(jobs)),
                        ("busy_us", Json::U64(busy_us)),
                        (
                            "utilization",
                            if uptime_us == 0 {
                                Json::Null
                            } else {
                                Json::F64(busy_us as f64 / uptime_us as f64)
                            },
                        ),
                    ])
                })
                .collect(),
        );
        // The accounting partition: every job that reaches admission
        // (parsed, cache-missed) counts `accepted` and lands in exactly
        // one terminal bucket, so at quiescence
        // `accepted == completed + rejected + shed + failed`.
        let accounting = Json::obj([
            ("accepted", Json::U64(s.registry.counter("jobs_accepted"))),
            ("completed", Json::U64(s.registry.counter("jobs_completed"))),
            ("rejected", Json::U64(s.registry.counter("jobs_rejected"))),
            ("shed", Json::U64(s.registry.counter("jobs_shed"))),
            ("failed", Json::U64(s.registry.counter("jobs_failed"))),
        ]);
        Json::obj([
            ("schema", Json::Str("mt-serve-metrics-v1".to_string())),
            ("queue_depth", Json::U64(g.queue_depth as u64)),
            ("queue_capacity", Json::U64(g.queue_capacity as u64)),
            ("workers", Json::U64(g.workers as u64)),
            ("busy_workers", Json::U64(g.busy_workers as u64)),
            ("open_connections", Json::U64(g.open_connections as u64)),
            (
                "conn_threads_parked",
                Json::U64(g.conn_threads_parked as u64),
            ),
            ("draining", Json::Bool(g.draining)),
            ("worker_utilization", utilization),
            ("accounting", accounting),
            ("cache_hit_ratio", hit_ratio),
            ("service_cycles", s.service_cycles.to_json()),
            ("latency_us", latency),
            (
                "window",
                Json::obj([
                    ("window_secs", Json::U64(WINDOW_SECS)),
                    ("requests_per_second", Json::F64(s.requests_win.rate(now))),
                    ("errors_per_second", Json::F64(s.errors_win.rate(now))),
                    (
                        "rejected_429_per_second",
                        Json::F64(s.rejected_win.rate(now)),
                    ),
                    ("cache_hit_ratio", window_hit_ratio),
                ]),
            ),
            ("per_worker", workers),
            ("registry", s.registry.to_json()),
        ])
    }

    /// The `GET /metrics?format=prometheus` text document
    /// (exposition format 0.0.4).
    pub fn to_prometheus(&self, g: Gauges) -> String {
        let now = self.now_s();
        let uptime_us = self.uptime_us();
        let s = self.lock();
        let mut p = PromText::new();
        p.counter(
            "mtserve_requests_total",
            "Requests routed (all methods and paths).",
            s.registry.counter("requests_total"),
        );
        let statuses: Vec<(String, u64)> = ["200", "400", "422", "500", "503", "other"]
            .iter()
            .map(|&code| {
                (
                    code.to_string(),
                    s.registry.counter(&format!("responses_{code}")),
                )
            })
            .chain(std::iter::once((
                "429".to_string(),
                s.registry.counter("rejected_429"),
            )))
            .collect();
        p.counter_vec(
            "mtserve_responses_total",
            "Job responses by HTTP status class.",
            "status",
            &statuses
                .iter()
                .map(|(code, n)| (code.as_str(), *n))
                .collect::<Vec<_>>(),
        );
        p.counter(
            "mtserve_cache_hits_total",
            "Result-cache hits.",
            s.registry.counter("cache_hits"),
        );
        p.counter(
            "mtserve_cache_misses_total",
            "Result-cache misses.",
            s.registry.counter("cache_misses"),
        );
        p.gauge(
            "mtserve_queue_depth",
            "Jobs queued right now.",
            g.queue_depth as f64,
        );
        p.gauge(
            "mtserve_queue_capacity",
            "Total queue bound.",
            g.queue_capacity as f64,
        );
        p.gauge("mtserve_workers", "Worker pool size.", g.workers as f64);
        p.gauge(
            "mtserve_busy_workers",
            "Workers executing a job right now.",
            g.busy_workers as f64,
        );
        p.gauge(
            "mtserve_open_connections",
            "Connections currently open.",
            g.open_connections as f64,
        );
        p.gauge(
            "mtserve_conn_threads_parked",
            "Connection threads parked, waiting for the next connection.",
            g.conn_threads_parked as f64,
        );
        p.counter(
            "mtserve_conn_threads_spawned_total",
            "Connection threads spawned (a parked thread takes a connection first).",
            s.registry.counter("conn_threads_spawned"),
        );
        p.gauge(
            "mtserve_draining",
            "1 while the server is draining, else 0.",
            if g.draining { 1.0 } else { 0.0 },
        );
        p.counter(
            "mtserve_worker_panics_total",
            "Jobs that panicked on a worker (caught; machine rebuilt).",
            s.registry.counter("worker_panics"),
        );
        p.counter(
            "mtserve_worker_respawns_total",
            "Worker threads respawned by the supervisor after dying.",
            s.registry.counter("worker_respawns"),
        );
        p.counter(
            "mtserve_jobs_shed_total",
            "Jobs shed: deadline expired in queue or mid-run, or drain-orphaned.",
            s.registry.counter("jobs_shed"),
        );
        p.gauge(
            "mtserve_uptime_seconds",
            "Seconds since the server started.",
            uptime_us as f64 / 1e6,
        );
        p.gauge(
            "mtserve_requests_per_second",
            "Requests per second over the trailing window.",
            s.requests_win.rate(now),
        );
        p.gauge(
            "mtserve_errors_per_second",
            "Non-2xx job responses per second over the trailing window.",
            s.errors_win.rate(now),
        );
        p.gauge(
            "mtserve_rejected_429_per_second",
            "Queue-full rejections per second over the trailing window.",
            s.rejected_win.rate(now),
        );
        let (wh, wm) = (s.hits_win.total(now), s.misses_win.total(now));
        p.gauge(
            "mtserve_window_cache_hit_ratio",
            "Cache hit ratio over the trailing window (NaN when idle).",
            if wh + wm == 0 {
                f64::NAN
            } else {
                wh as f64 / (wh + wm) as f64
            },
        );
        let worker_ids: Vec<String> = (0..s.worker_busy.len()).map(|i| i.to_string()).collect();
        let workers = worker_ids.iter().map(String::as_str).zip(&s.worker_busy);
        p.counter_vec(
            "mtserve_worker_busy_microseconds_total",
            "Per-worker time spent executing jobs.",
            "worker",
            &workers
                .clone()
                .map(|(id, &(_, busy_us))| (id, busy_us))
                .collect::<Vec<_>>(),
        );
        p.counter_vec(
            "mtserve_worker_jobs_total",
            "Per-worker jobs executed.",
            "worker",
            &workers
                .map(|(id, &(jobs, _))| (id, jobs))
                .collect::<Vec<_>>(),
        );
        p.summary(
            "mtserve_service_cycles",
            "Simulated cycles per completed job.",
            &s.service_cycles,
        );
        p.summary_vec(
            "mtserve_request_stage_microseconds",
            "Wall-clock request latency by pipeline stage.",
            "stage",
            &STAGES
                .iter()
                .map(|&name| (name, &s.stages[name]))
                .collect::<Vec<_>>(),
        );
        p.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank percentile — retained in tests only, as the
    /// accuracy oracle for the bounded histograms (the satellite task:
    /// the unbounded production path is gone).
    fn exact_percentile(samples: &[u64], p: f64) -> Option<u64> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, sorted.len()) - 1])
    }

    fn get_f64(doc: &Json, path: &[&str]) -> Option<f64> {
        let mut v = doc;
        for k in path {
            v = v.get(k)?;
        }
        v.as_f64()
    }

    #[test]
    fn metrics_document_shape() {
        let m = ServeMetrics::new();
        m.set_workers(4);
        m.add("requests_total", 3);
        m.add("cache_hits", 1);
        m.add("cache_misses", 1);
        m.record_service_cycles(100);
        m.record_service_cycles(300);
        m.record_stage_us("sim-run", 250);
        m.record_worker_job(1, 777);
        m.add("jobs_accepted", 2);
        m.add("jobs_completed", 1);
        m.add("jobs_shed", 1);
        let doc = m.to_json(Gauges {
            queue_depth: 2,
            queue_capacity: 64,
            workers: 4,
            busy_workers: 1,
            ..Gauges::default()
        });
        let parsed = mt_trace::json::parse(&doc.pretty()).unwrap();
        assert_eq!(parsed.get("queue_depth").unwrap().as_f64(), Some(2.0));
        assert_eq!(parsed.get("queue_capacity").unwrap().as_f64(), Some(64.0));
        assert_eq!(
            parsed.get("worker_utilization").unwrap().as_f64(),
            Some(0.25)
        );
        assert_eq!(parsed.get("cache_hit_ratio").unwrap().as_f64(), Some(0.5));
        assert_eq!(get_f64(&parsed, &["accounting", "accepted"]), Some(2.0));
        assert_eq!(get_f64(&parsed, &["accounting", "completed"]), Some(1.0));
        assert_eq!(get_f64(&parsed, &["accounting", "shed"]), Some(1.0));
        assert_eq!(get_f64(&parsed, &["accounting", "failed"]), Some(0.0));
        assert!(matches!(parsed.get("draining"), Some(Json::Bool(false))));

        // Quantiles come from the bounded histogram now: within its
        // documented bound of the exact oracle.
        let samples = [100u64, 300];
        let bound = HdrHistogram::default().relative_error_bound();
        for (p, key) in [(50.0, "p50"), (99.0, "p99"), (99.9, "p999")] {
            let exact = exact_percentile(&samples, p).unwrap() as f64;
            let got = get_f64(&parsed, &["service_cycles", key]).unwrap();
            assert!(
                (got - exact).abs() / exact <= bound,
                "{key}: {got} vs exact {exact}"
            );
        }
        assert_eq!(get_f64(&parsed, &["service_cycles", "count"]), Some(2.0));
        assert_eq!(
            get_f64(&parsed, &["latency_us", "sim-run", "count"]),
            Some(1.0)
        );
        assert_eq!(
            get_f64(&parsed, &["latency_us", "queue-wait", "count"]),
            Some(0.0)
        );
        assert_eq!(get_f64(&parsed, &["window", "window_secs"]), Some(60.0));
        assert_eq!(get_f64(&parsed, &["window", "cache_hit_ratio"]), Some(0.5));
        let worker1 = &parsed.get("per_worker").unwrap().items()[1];
        assert_eq!(worker1.get("jobs").unwrap().as_f64(), Some(1.0));
        assert_eq!(worker1.get("busy_us").unwrap().as_f64(), Some(777.0));
        let counters = parsed.get("registry").unwrap().get("counters").unwrap();
        assert_eq!(counters.get("requests_total").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn empty_metrics_render_nulls() {
        let m = ServeMetrics::new();
        let text = m.to_json(Gauges::default()).pretty();
        assert!(text.contains("\"cache_hit_ratio\": null"));
        assert!(text.contains("\"worker_utilization\": null"));
        assert!(text.contains("\"p50\": null"));
    }

    #[test]
    fn histogram_quantiles_track_the_exact_oracle() {
        // A service-cycles distribution with a long tail; the bounded
        // histogram must stay within its bound of the exact oracle the
        // old Vec-based path computed.
        let m = ServeMetrics::new();
        let samples: Vec<u64> = (1..=5000u64).map(|i| i * 37 % 90_000 + 10).collect();
        for &c in &samples {
            m.record_service_cycles(c);
        }
        let doc = m.to_json(Gauges::default());
        let bound = HdrHistogram::default().relative_error_bound();
        for (p, key) in [(50.0, "p50"), (90.0, "p90"), (99.0, "p99"), (99.9, "p999")] {
            let exact = exact_percentile(&samples, p).unwrap() as f64;
            let got = get_f64(&doc, &["service_cycles", key]).unwrap();
            assert!(
                (got - exact).abs() / exact <= bound,
                "{key}: {got} vs exact {exact}"
            );
        }
    }

    #[test]
    fn memory_is_constant_in_request_count() {
        // The acceptance criterion: serve metrics memory is O(1) in the
        // number of requests. The old Vec<u64> grew 8 bytes per job.
        let m = ServeMetrics::new();
        m.set_workers(8);
        for i in 0..1000u64 {
            m.record_service_cycles(i * 97);
            m.record_stage_us("total", i);
            m.add("requests_total", 1);
        }
        let after_1k = m.memory_bytes();
        for i in 0..100_000u64 {
            m.record_service_cycles(i * 31 + 5);
            m.record_stage_us("total", i % 10_000);
            m.record_stage_us("sim-run", i % 7_000);
            m.add("requests_total", 1);
        }
        assert_eq!(
            m.memory_bytes(),
            after_1k,
            "metrics storage must not grow with traffic"
        );
    }

    #[test]
    fn prometheus_document_is_valid_and_complete() {
        let m = ServeMetrics::new();
        m.set_workers(2);
        m.add("requests_total", 5);
        m.add("responses_200", 4);
        m.add("rejected_429", 1);
        m.add("cache_hits", 2);
        m.add("cache_misses", 2);
        m.record_service_cycles(1234);
        m.record_stage_us("total", 800);
        m.record_worker_job(0, 500);
        m.add("worker_panics", 1);
        m.add("jobs_shed", 2);
        m.add("conn_threads_spawned", 3);
        let text = m.to_prometheus(Gauges {
            queue_depth: 1,
            queue_capacity: 64,
            workers: 2,
            busy_workers: 1,
            open_connections: 3,
            conn_threads_parked: 2,
            draining: true,
        });
        let families = mt_obs::prom::validate(&text).expect("valid exposition format");
        for required in [
            "mtserve_requests_total",
            "mtserve_responses_total",
            "mtserve_cache_hits_total",
            "mtserve_cache_misses_total",
            "mtserve_queue_depth",
            "mtserve_queue_capacity",
            "mtserve_workers",
            "mtserve_busy_workers",
            "mtserve_open_connections",
            "mtserve_conn_threads_parked",
            "mtserve_conn_threads_spawned_total",
            "mtserve_draining",
            "mtserve_worker_panics_total",
            "mtserve_worker_respawns_total",
            "mtserve_jobs_shed_total",
            "mtserve_uptime_seconds",
            "mtserve_requests_per_second",
            "mtserve_errors_per_second",
            "mtserve_rejected_429_per_second",
            "mtserve_window_cache_hit_ratio",
            "mtserve_worker_busy_microseconds_total",
            "mtserve_worker_jobs_total",
            "mtserve_service_cycles",
            "mtserve_request_stage_microseconds",
        ] {
            assert!(
                families.iter().any(|f| f == required),
                "missing family {required}\n{text}"
            );
        }
        assert!(text.contains("mtserve_responses_total{status=\"429\"} 1\n"));
        assert!(text.contains("mtserve_draining 1\n"));
        assert!(text.contains("mtserve_worker_panics_total 1\n"));
        assert!(text.contains("mtserve_jobs_shed_total 2\n"));
        assert!(text.contains("mtserve_conn_threads_spawned_total 3\n"));
        assert!(text.contains("mtserve_conn_threads_parked 2\n"));
        assert!(text.contains("mtserve_request_stage_microseconds_count{stage=\"total\"} 1\n"));
        assert!(text.contains("mtserve_service_cycles{quantile=\"0.5\"}"));
    }

    #[test]
    fn poisoned_metrics_still_count_and_render() {
        let m = ServeMetrics::new();
        m.set_workers(1);
        m.add("requests_total", 1);
        // A thread that panics holding the lock poisons it.
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = m.state.lock();
                panic!("poisoning the metrics lock on purpose");
            });
            assert!(holder.join().is_err());
        });
        assert!(m.state.is_poisoned());
        m.add("requests_total", 2);
        m.record_service_cycles(40);
        m.record_stage_us("total", 9);
        m.record_worker_job(0, 5);
        assert_eq!(m.counter("requests_total"), 3);
        assert!(m.memory_bytes() > 0);
        let doc = m.to_json(Gauges::default());
        assert_eq!(get_f64(&doc, &["service_cycles", "count"]), Some(1.0));
        assert_eq!(get_f64(&doc, &["latency_us", "total", "count"]), Some(1.0));
        let text = m.to_prometheus(Gauges::default());
        mt_obs::prom::validate(&text).expect("valid exposition format");
        assert!(text.contains("mtserve_requests_total 3\n"), "{text}");
    }

    #[test]
    fn windowed_rates_reflect_recent_traffic_only() {
        let m = ServeMetrics::new();
        m.add("requests_total", 120);
        let doc = m.to_json(Gauges::default());
        assert_eq!(
            get_f64(&doc, &["window", "requests_per_second"]),
            Some(2.0),
            "120 requests in the first second of a 60 s window"
        );
        assert_eq!(get_f64(&doc, &["window", "errors_per_second"]), Some(0.0));
    }
}

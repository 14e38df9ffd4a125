//! End-to-end acceptance tests over a real TCP server: the issue's
//! three scenarios.
//!
//! 1. N concurrent clients posting the same program all get
//!    byte-identical bodies, whether cached or computed.
//! 2. A full queue answers `429` immediately and never blocks the
//!    accept loop (health checks still answer while the pool is wedged).
//! 3. A divergent program trips its per-job limit and returns a
//!    structured error while other jobs complete normally.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use mt_chaos::httpc::{self, Reply};
use mt_serve::{serve, ServerConfig};

const DAXPY: &str = include_str!("../../../examples/asm/daxpy.s");

fn post(addr: &str, target: &str, client_id: &str, body: &str) -> Reply {
    httpc::post(addr, target, client_id, body.as_bytes()).expect("POST")
}

fn get(addr: &str, target: &str) -> Reply {
    httpc::get(addr, target).expect("GET")
}

fn metrics_gauge(addr: &str, key: &str) -> u64 {
    let body = get(addr, "/metrics").body;
    let doc = mt_trace::json::parse(&body).expect("metrics parse");
    doc.get(key)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("metrics missing {key}: {body}")) as u64
}

/// Polls until `f` holds or the deadline passes.
fn wait_for(what: &str, mut f: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn concurrent_clients_get_byte_identical_bodies() {
    let handle = serve(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    // The reference body: computed directly, no server involved. The
    // service must return exactly these bytes whether it computes or
    // replays its cache.
    let reference = {
        let mut m = mt_sim::Machine::new(mt_sim::SimConfig::default());
        mt_serve::job::execute(
            &mt_serve::JobRequest {
                endpoint: mt_serve::Endpoint::Run,
                source: DAXPY.to_string(),
                options: mt_serve::RunOptions {
                    profile: true,
                    ..Default::default()
                },
            },
            &mut m,
        )
    };
    assert_eq!(reference.status, 200);

    let bodies: Vec<(Option<String>, String)> = std::thread::scope(|scope| {
        let addr = &addr;
        let threads: Vec<_> = (0..8)
            .map(|i| {
                scope.spawn(move || {
                    let r = post(addr, "/run?profile=1", &format!("c{i}"), DAXPY);
                    assert_eq!(r.status, 200);
                    (r.cache, r.body)
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for (cache, body) in &bodies {
        assert_eq!(
            body, &reference.body,
            "served body (X-Cache: {cache:?}) must match the direct computation"
        );
    }
    // With 8 concurrent identical jobs and 2 workers at least one must
    // have been a cache replay and at least one a computation.
    let hits = bodies
        .iter()
        .filter(|(c, _)| c.as_deref() == Some("hit"))
        .count();
    assert!(hits < bodies.len(), "someone computed it first");

    // A repeat after the dust settles is a guaranteed hit.
    let again = post(&addr, "/run?profile=1", "late", DAXPY);
    assert_eq!(again.cache.as_deref(), Some("hit"));
    assert_eq!(again.body, reference.body);
    handle.shutdown();
}

#[test]
fn full_queue_returns_429_without_blocking_the_accept_loop() {
    // One worker, queue bound 1, cache off: the second slow job fills
    // the queue, the third must bounce.
    let handle = serve(ServerConfig {
        workers: 1,
        queue_depth: 1,
        cache_entries: 0,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    // Distinct divergent programs (cache off anyway, but keep them
    // distinct for clarity); each spins until its 20M-cycle limit —
    // long enough that job A is still running when the third request
    // arrives, even on a slow machine.
    let slow = |tag: u32| format!("li r9, {tag}\nspin:\nbeq r0, r0, spin\nhalt\n");
    let target = "/run?cycles=20000000";

    let (a, b, bounced) = std::thread::scope(|scope| {
        let addr_a = addr.clone();
        let src_a = slow(1);
        let a = scope.spawn(move || post(&addr_a, target, "a", &src_a));
        wait_for("worker to pick up job A", || {
            metrics_gauge(&addr, "busy_workers") == 1
        });

        let addr_b = addr.clone();
        let src_b = slow(2);
        let b = scope.spawn(move || post(&addr_b, target, "b", &src_b));
        wait_for("job B to queue", || {
            metrics_gauge(&addr, "queue_depth") == 1
        });

        // Queue full: an immediate 429 with Retry-After, long before the
        // slow jobs finish.
        let started = Instant::now();
        let bounced = post(&addr, target, "c", &slow(3));
        let rejected_in = started.elapsed();
        assert!(
            rejected_in < Duration::from_secs(5),
            "429 must not wait for the pool (took {rejected_in:?})"
        );
        // A sweep's cells take the same admission path.
        let sweep = post(&addr, "/sweep?loops=12", "s", "fpu_lanes=1\n");
        assert_eq!(sweep.status, 429, "{}", sweep.body);
        let doc = mt_trace::json::parse(&sweep.body).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("queue-full"));

        // The accept loop is alive while the worker is still busy.
        assert_eq!(get(&addr, "/healthz").status, 200);

        (a.join().unwrap(), b.join().unwrap(), bounced)
    });

    assert_eq!(bounced.status, 429);
    let doc = mt_trace::json::parse(&bounced.body).unwrap();
    assert_eq!(doc.get("kind").unwrap().as_str(), Some("queue-full"));

    // The slow jobs were never harmed: both hit their cycle limit.
    for r in [&a, &b] {
        assert_eq!(r.status, 422);
        let doc = mt_trace::json::parse(&r.body).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("cycle-limit"));
    }
    handle.shutdown();
}

#[test]
fn watchdog_job_fails_structured_while_others_complete() {
    let handle = serve(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    let (wedged, fine) = std::thread::scope(|scope| {
        let addr_w = addr.clone();
        // Cold fetch with a 1-cycle no-progress bound: the first
        // instruction-cache miss exceeds it — a "wedged" job from the
        // service's point of view.
        let wedged = scope.spawn(move || post(&addr_w, "/run?cold=1&watchdog=1", "w", "halt\n"));
        let addr_f = addr.clone();
        let fine = scope.spawn(move || post(&addr_f, "/run", "f", DAXPY));
        (wedged.join().unwrap(), fine.join().unwrap())
    });

    assert_eq!(wedged.status, 422);
    let doc = mt_trace::json::parse(&wedged.body).unwrap();
    assert_eq!(doc.get("kind").unwrap().as_str(), Some("watchdog"));
    assert!(doc.get("idle_cycles").unwrap().as_f64().unwrap() >= 1.0);

    assert_eq!(
        fine.status, 200,
        "healthy jobs complete alongside: {}",
        fine.body
    );
    handle.shutdown();
}

#[test]
fn cache_is_sensitive_to_options_and_source() {
    let handle = serve(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    let warm = post(&addr, "/run", "s", DAXPY);
    assert_eq!((warm.status, warm.cache.as_deref()), (200, Some("miss")));
    let replay = post(&addr, "/run", "s", DAXPY);
    assert_eq!(replay.cache.as_deref(), Some("hit"));
    assert_eq!(replay.body, warm.body, "hit replays the computed bytes");

    let cold = post(&addr, "/run?cold=1", "s", DAXPY);
    assert_eq!(cold.cache.as_deref(), Some("miss"), "option change misses");
    assert_ne!(cold.body, warm.body, "cold stats differ");

    let edited = post(&addr, "/run", "s", &format!("{DAXPY}\n; comment\n"));
    assert_eq!(
        edited.cache.as_deref(),
        Some("miss"),
        "source change misses"
    );

    // Metrics reflect the traffic and parse cleanly.
    let metrics = get(&addr, "/metrics");
    assert_eq!(metrics.status, 200);
    let doc = mt_trace::json::parse(&metrics.body).unwrap();
    let counters = doc.get("registry").unwrap().get("counters").unwrap();
    assert_eq!(counters.get("cache_hits").unwrap().as_f64(), Some(1.0));
    assert_eq!(counters.get("cache_misses").unwrap().as_f64(), Some(3.0));
    assert!(doc
        .get("service_cycles")
        .unwrap()
        .get("p50")
        .unwrap()
        .as_f64()
        .is_some());
    handle.shutdown();
}

#[test]
fn metrics_expose_stage_latency_and_windows() {
    let handle = serve(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    let r = post(&addr, "/run", "lat", DAXPY);
    assert_eq!(r.status, 200);

    // The handler folds spans into the histograms *after* writing the
    // response, so poll until the request's stages have landed.
    wait_for("stage histograms to fill", || {
        let body = get(&addr, "/metrics").body;
        let doc = mt_trace::json::parse(&body).expect("metrics parse");
        doc.get("latency_us")
            .and_then(|l| l.get("sim-run"))
            .and_then(|s| s.get("count"))
            .and_then(|c| c.as_f64())
            .is_some_and(|n| n >= 1.0)
    });

    let body = get(&addr, "/metrics").body;
    let doc = mt_trace::json::parse(&body).unwrap();
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some("mt-serve-metrics-v1")
    );
    let latency = doc.get("latency_us").unwrap();
    // Every pipeline stage is present with a full quantile summary.
    for stage in [
        "total",
        "read-request",
        "parse",
        "cache-lookup",
        "queue-wait",
        "worker-service",
        "sim-run",
        "respond",
    ] {
        let s = latency
            .get(stage)
            .unwrap_or_else(|| panic!("missing stage {stage}: {body}"));
        for key in ["count", "min", "max", "mean", "p50", "p90", "p99", "p999"] {
            assert!(s.get(key).is_some(), "stage {stage} missing {key}");
        }
    }
    let total = latency.get("total").unwrap();
    assert!(total.get("count").unwrap().as_f64().unwrap() >= 1.0);
    assert!(total.get("p50").unwrap().as_f64().unwrap() > 0.0);

    // The sliding window saw the traffic.
    let window = doc.get("window").unwrap();
    assert_eq!(window.get("window_secs").unwrap().as_f64(), Some(60.0));
    assert!(window.get("requests_per_second").unwrap().as_f64().unwrap() > 0.0);
    handle.shutdown();
}

#[test]
fn prometheus_exposition_is_valid_and_covers_the_service() {
    let handle = serve(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    let r = post(&addr, "/run", "prom", DAXPY);
    assert_eq!(r.status, 200);

    let prom = get(&addr, "/metrics?format=prometheus");
    assert_eq!(prom.status, 200);
    let families = mt_obs::prom::validate(&prom.body)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{}", prom.body));
    for family in [
        "mtserve_requests_total",
        "mtserve_responses_total",
        "mtserve_queue_depth",
        "mtserve_workers",
        "mtserve_service_cycles",
        "mtserve_request_stage_microseconds",
    ] {
        assert!(
            families.iter().any(|f| f == family),
            "missing family {family}\n{}",
            prom.body
        );
    }
    assert!(prom
        .body
        .contains("mtserve_responses_total{status=\"200\"}"));

    // An unknown format is a structured 400, and JSON stays the default.
    assert_eq!(get(&addr, "/metrics?format=xml").status, 400);
    assert!(mt_trace::json::parse(&get(&addr, "/metrics").body).is_ok());
    handle.shutdown();
}

#[test]
fn span_trace_exports_the_request_journey() {
    let handle = serve(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    // A computed (uncached) request: worker spans included.
    let miss = post(&addr, "/run?span-trace=1", "tr", DAXPY);
    assert_eq!((miss.status, miss.cache.as_deref()), (200, Some("miss")));
    let doc = mt_trace::json::parse(&miss.body).unwrap();
    let trace = doc.get("span_trace").expect("span_trace embedded");
    let rendered = trace.pretty();
    assert!(mt_trace::json::validate(&rendered).is_ok());
    let events = trace.get("traceEvents").unwrap().items();
    for span in [
        "read-request",
        "parse",
        "cache-lookup",
        "queue-wait",
        "worker-service",
        "sim-run",
    ] {
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(|n| n.as_str()) == Some(span)),
            "missing span {span}: {rendered}"
        );
    }
    // The simulation happened inside the worker's service interval.
    let span_of = |name: &str| {
        events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
            .map(|e| {
                (
                    e.get("ts").unwrap().as_f64().unwrap(),
                    e.get("dur").unwrap().as_f64().unwrap(),
                )
            })
            .unwrap()
    };
    let (w_ts, w_dur) = span_of("worker-service");
    let (s_ts, s_dur) = span_of("sim-run");
    assert!(s_ts >= w_ts && s_ts + s_dur <= w_ts + w_dur + 1.0);

    // A cache hit still gets its own trace — but the stored body stays
    // trace-free: the same job without the flag replays cached bytes
    // with no span_trace field.
    let hit = post(&addr, "/run?span-trace=1", "tr", DAXPY);
    assert_eq!(hit.cache.as_deref(), Some("hit"));
    let hit_doc = mt_trace::json::parse(&hit.body).unwrap();
    assert!(hit_doc.get("span_trace").is_some());
    let plain = post(&addr, "/run", "tr", DAXPY);
    assert_eq!(plain.cache.as_deref(), Some("hit"));
    assert!(
        !plain.body.contains("span_trace"),
        "cache must never store span traces"
    );
    handle.shutdown();
}

#[test]
fn committed_golden_matches_the_computation() {
    // The fixture CI byte-diffs against a live server (`ci` serve smoke):
    // regenerating it must be a no-op as long as the simulator and the
    // response schema are unchanged. Regenerate with:
    //   mtasm client examples/asm/daxpy.s --url http://<addr> --print-body
    let golden = include_str!("data/daxpy_run.golden.json");
    let mut m = mt_sim::Machine::new(mt_sim::SimConfig::default());
    let r = mt_serve::job::execute(
        &mt_serve::JobRequest {
            endpoint: mt_serve::Endpoint::Run,
            source: DAXPY.to_string(),
            options: mt_serve::RunOptions::default(),
        },
        &mut m,
    );
    assert_eq!(r.status, 200);
    assert_eq!(r.body, golden, "golden response drifted");
}

#[test]
fn structured_errors_for_bad_requests() {
    let handle = serve(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    let bad_asm = post(&addr, "/run", "e", "not an instruction\n");
    assert_eq!(bad_asm.status, 400);
    let doc = mt_trace::json::parse(&bad_asm.body).unwrap();
    assert_eq!(doc.get("kind").unwrap().as_str(), Some("assemble"));
    let diag = &doc.get("diagnostics").unwrap().items()[0];
    assert_eq!(diag.get("file").unwrap().as_str(), Some("<request>"));
    assert_eq!(diag.get("line").unwrap().as_f64(), Some(1.0));
    assert!(!bad_asm.body.contains('\x1b'), "no ANSI escapes over HTTP");

    // Structured errors are one line, with or without a message.
    let not_found = get(&addr, "/nope");
    assert_eq!(not_found.status, 404);
    assert_eq!(
        not_found.body,
        "{\"schema\": \"mt-serve-v1\", \"status\": \"error\", \"kind\": \"not-found\"}\n"
    );
    let bad_format = get(&addr, "/metrics?format=xml");
    assert_eq!(bad_format.status, 400);
    assert_eq!(
        bad_format.body,
        "{\"schema\": \"mt-serve-v1\", \"status\": \"error\", \"kind\": \"bad-query\", \
         \"message\": \"unknown format `xml`\"}\n"
    );
    assert_eq!(post(&addr, "/metrics", "e", "").status, 405);
    assert_eq!(post(&addr, "/run?base=zzz", "e", "halt\n").status, 400);
    // `?base=` is hex after at most one `0x` or `0X`.
    assert_eq!(post(&addr, "/run?base=0X10000", "e", "halt\n").status, 200);
    assert_eq!(
        post(&addr, "/run?base=0x0x10000", "e", "halt\n").status,
        400
    );
    handle.shutdown();
}

/// A query key its route does not read, or any key given twice, is a
/// `400 bad-query` that names the key, never a silent default: a typo
/// does not run with the default cycle limit, a repeat does not take its
/// first value, and `?config=` is the one spelling of the machine.
#[test]
fn unknown_and_repeated_query_keys_are_bad_queries() {
    let handle = serve(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    let posts = [
        ("/run?cylces=5", "cylces"),
        ("/run?cycles=1&cycles=2", "cycles"),
        ("/run?lanes=2", "lanes"),
        ("/assemble?lint=1&lint=1", "lint"),
        ("/sweep?loops=12&loop=21", "loop"),
    ];
    let gets = [("/metrics?format=json&format=json", "format")];
    let replies = posts
        .iter()
        .map(|&(target, key)| (target, key, post(&addr, target, "q", "halt\n")))
        .chain(gets.iter().map(|&(t, key)| (t, key, get(&addr, t))));
    for (target, key, reply) in replies {
        assert_eq!(reply.status, 400, "{target}: {}", reply.body);
        let doc = mt_trace::json::parse(&reply.body).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("bad-query"));
        let message = doc.get("message").unwrap().as_str().unwrap();
        assert!(message.contains(&format!("`{key}`")), "{target}: {message}");
        assert_eq!(get(&addr, "/healthz").status, 200);
    }
    // Every key a route reads, once each, still runs.
    let all = "/run?base=0&cold=1&lint=1&profile=1&trace=1&cycles=1000&watchdog=100\
               &backend=tick&config=fpu_lanes=2&serialized=0&deadline-ms=60000&span-trace=1";
    assert_eq!(post(&addr, all, "q", "halt\n").status, 200);
    handle.shutdown();
}

/// Satellite regression: a thread that panics while holding the
/// result-cache lock used to poison the mutex, after which every later
/// request's cache lookup re-raised the panic in its handler thread —
/// one bad job took the cache path down for the life of the process.
/// The server now recovers the guard, counts the event, and keeps
/// serving (and caching).
#[test]
fn worker_panic_does_not_poison_the_result_cache() {
    let handle = serve(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    let before = post(&addr, "/run", "p", DAXPY);
    assert_eq!(
        (before.status, before.cache.as_deref()),
        (200, Some("miss"))
    );

    handle.poison_result_cache();

    // The poisoned lock is recovered, and the cached entry replays.
    let hit = post(&addr, "/run", "p", DAXPY);
    assert_eq!((hit.status, hit.cache.as_deref()), (200, Some("hit")));
    assert_eq!(hit.body, before.body);

    // Recovery keeps the cache fully functional: new entries still
    // insert and replay after a second poisoning.
    handle.poison_result_cache();
    let cold = post(&addr, "/run?cold=1", "p", DAXPY);
    assert_eq!((cold.status, cold.cache.as_deref()), (200, Some("miss")));
    let cold_hit = post(&addr, "/run?cold=1", "p", DAXPY);
    assert_eq!(
        (cold_hit.status, cold_hit.cache.as_deref()),
        (200, Some("hit"))
    );

    let doc = mt_trace::json::parse(&get(&addr, "/metrics").body).unwrap();
    let counters = doc.get("registry").unwrap().get("counters").unwrap();
    assert_eq!(counters.get("cache_poisoned").unwrap().as_f64(), Some(2.0));
    handle.shutdown();
}

/// `?backend=` picks the execution backend; both backends produce
/// byte-identical bodies, so they deliberately share cache entries.
#[test]
fn backend_knob_is_parsed_and_shares_the_cache() {
    let handle = serve(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    let xlate = post(&addr, "/run?backend=xlate", "b", DAXPY);
    assert_eq!((xlate.status, xlate.cache.as_deref()), (200, Some("miss")));
    let tick = post(&addr, "/run?backend=tick", "b", DAXPY);
    assert_eq!(
        (tick.status, tick.cache.as_deref()),
        (200, Some("hit")),
        "bit-identical backends share the result cache"
    );
    assert_eq!(tick.body, xlate.body);
    assert_eq!(post(&addr, "/run?backend=bogus", "b", DAXPY).status, 400);
    handle.shutdown();
}

/// A `?config=` cache geometry that would exhaust a worker — a billion
/// 16-byte lines (16 GiB) or 268M ways scanned per access — is refused
/// with a structured 4xx before any worker builds the machine, on
/// `POST /run` and in a `POST /sweep` grid alike, and the server stays
/// up.
#[test]
fn oversized_cache_config_is_refused_and_the_server_stays_up() {
    let handle = serve(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    for config in [
        "dcache_bytes=4294967280,dcache_line=4",
        "dcache_ways=268435456",
    ] {
        let r = post(&addr, &format!("/run?config={config}"), "c", DAXPY);
        assert_eq!(r.status, 400, "{config}: {}", r.body);
        let doc = mt_trace::json::parse(&r.body).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("bad-query"));
        assert_eq!(get(&addr, "/healthz").status, 200);
    }
    let sweep = post(
        &addr,
        "/sweep?loops=12",
        "c",
        "dcache_bytes=4294967280\ndcache_line=4\n",
    );
    assert_eq!(sweep.status, 422, "{}", sweep.body);
    assert_eq!(get(&addr, "/healthz").status, 200);
    assert_eq!(post(&addr, "/run", "c", DAXPY).status, 200);
    handle.shutdown();
}

fn counter(addr: &str, name: &str) -> u64 {
    let body = get(addr, "/metrics").body;
    let doc = mt_trace::json::parse(&body).expect("metrics parse");
    doc.get("registry")
        .and_then(|r| r.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("metrics missing counter {name}: {body}")) as u64
}

/// Sequential connections reuse parked connection threads instead of
/// spawning one each.
#[test]
fn sequential_connections_reuse_connection_threads() {
    let handle = serve(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();
    for _ in 0..40 {
        assert_eq!(get(&addr, "/healthz").status, 200);
    }
    // A thread parks only after it closes its connection, and the
    // client's next connect can arrive first, so a few spawns are
    // expected — but nowhere near one per connection.
    let spawned = counter(&addr, "conn_threads_spawned");
    assert!(
        (1..=10).contains(&spawned),
        "{spawned} connection threads for 41 connections"
    );
    handle.shutdown();
}

/// A connection that never sends its head holds only its own thread: a
/// concurrent request gets another thread at once instead of waiting
/// out the silent one's header deadline.
#[test]
fn silent_connection_does_not_delay_other_requests() {
    let handle = serve(ServerConfig {
        workers: 1,
        header_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();
    // Leave a parked thread behind for the silent connection to take.
    assert_eq!(get(&addr, "/healthz").status, 200);
    let silent = TcpStream::connect(&addr).unwrap();
    // Once accepted, the silent connection is open beside the /metrics
    // request's own.
    wait_for("silent connection to be accepted", || {
        metrics_gauge(&addr, "open_connections") >= 2
    });
    let started = Instant::now();
    assert_eq!(get(&addr, "/healthz").status, 200);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "a silent connection delayed /healthz by {:?}",
        started.elapsed()
    );
    drop(silent);
    handle.shutdown();
}

/// Shutdown with parked connection threads returns within the drain
/// budget, which here is shorter than their idle period. (The server's
/// unit tests check that the parked threads themselves exit at once.)
#[test]
fn shutdown_with_parked_connection_threads_is_prompt() {
    let drain_budget = Duration::from_millis(500);
    assert!(drain_budget < mt_serve::server::CONN_THREAD_IDLE);
    let handle = serve(ServerConfig {
        workers: 1,
        drain_budget,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();
    // Three connections open at once hold three threads, which park
    // when the connections close. The /metrics probe takes one of them.
    let idle: Vec<TcpStream> = (0..3).map(|_| TcpStream::connect(&addr).unwrap()).collect();
    wait_for("idle connections to be accepted", || {
        metrics_gauge(&addr, "open_connections") >= 4
    });
    drop(idle);
    wait_for("parked connection threads", || {
        metrics_gauge(&addr, "conn_threads_parked") >= 1
    });
    let started = Instant::now();
    handle.shutdown();
    assert!(
        started.elapsed() < drain_budget,
        "shutdown took {:?}",
        started.elapsed()
    );
}

//! End-to-end robustness tests over a real TCP server: the mt-chaos
//! acceptance scenarios.
//!
//! 1. A deliberately panicking job leaves the pool at full strength
//!    (`worker_panics >= 1`) and subsequent responses are bit-identical
//!    to a fresh server's.
//! 2. A killed worker thread is respawned by the supervisor; its
//!    in-flight job answers `500 worker-lost`.
//! 3. A request whose deadline expires in the queue is shed with a
//!    structured `503` without ever occupying a worker (per-worker job
//!    counters prove it), and the accounting invariant balances.
//! 4. A running job that overruns its deadline is abandoned at a
//!    cooperative checkpoint with `503 deadline-exceeded`.
//! 5. Graceful drain: during shutdown `/metrics` reports
//!    `draining: true`, new jobs get `503 draining`, in-flight jobs are
//!    cancelled within the budget, and the port closes afterwards.
//! 6. The connection cap answers `503 overloaded` without occupying a
//!    handler, and the gauge recovers when connections close.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use mt_chaos::httpc::{self, Reply};
use mt_serve::{serve, ServerConfig, KILL_MARKER, PANIC_MARKER};

const DAXPY: &str = include_str!("../../../examples/asm/daxpy.s");

fn post(addr: &str, target: &str, client_id: &str, body: &str) -> Reply {
    httpc::post(addr, target, client_id, body.as_bytes()).expect("POST")
}

fn get(addr: &str, target: &str) -> Reply {
    httpc::get(addr, target).expect("GET")
}

fn metrics_doc(addr: &str) -> mt_trace::Json {
    let body = get(addr, "/metrics").body;
    mt_trace::json::parse(&body).expect("metrics parse")
}

fn counter(doc: &mt_trace::Json, name: &str) -> u64 {
    doc.get("registry")
        .and_then(|r| r.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0) as u64
}

fn kind_of(reply: &Reply) -> String {
    mt_trace::json::parse(&reply.body)
        .ok()
        .and_then(|d| d.get("kind").and_then(|k| k.as_str()).map(str::to_string))
        .unwrap_or_default()
}

/// Polls until `f` holds or the deadline passes.
fn wait_for(what: &str, mut f: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A divergent program distinguishable by `tag` (cache-proof).
fn spin(tag: u32) -> String {
    format!("li r9, {tag}\nspin:\nbeq r0, r0, spin\nhalt\n")
}

/// The reference body a fresh server computes for `DAXPY`.
fn fresh_reference() -> String {
    let mut m = mt_sim::Machine::new(mt_sim::SimConfig::default());
    mt_serve::job::execute(
        &mt_serve::JobRequest {
            endpoint: mt_serve::Endpoint::Run,
            source: DAXPY.to_string(),
            options: mt_serve::RunOptions::default(),
        },
        &mut m,
    )
    .body
}

/// Acceptance: a deliberately panicking job is caught, the pool stays
/// at full strength, `worker_panics >= 1`, and subsequent responses are
/// bit-identical to a fresh server's.
#[test]
fn panicking_job_leaves_pool_at_full_strength() {
    let handle = serve(ServerConfig {
        workers: 1,
        chaos_hooks: true,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    let boom = post(&addr, "/run", "p", &format!("; {PANIC_MARKER}\nhalt\n"));
    assert_eq!(boom.status, 500);
    assert_eq!(kind_of(&boom), "worker-panic");

    // The single worker caught the panic, rebuilt its machine, and is
    // the only thread that could serve this next job.
    let after = post(&addr, "/run", "p", DAXPY);
    assert_eq!(after.status, 200, "{}", after.body);
    assert_eq!(
        after.body,
        fresh_reference(),
        "post-panic responses must be bit-identical to a fresh server"
    );

    let doc = metrics_doc(&addr);
    assert!(counter(&doc, "worker_panics") >= 1);
    assert_eq!(counter(&doc, "worker_respawns"), 0, "thread never died");
    assert_eq!(doc.get("workers").unwrap().as_f64(), Some(1.0));
    assert_eq!(doc.get("busy_workers").unwrap().as_f64(), Some(0.0));
    // Terminal buckets: the panic is the one failure; the invariant
    // balances.
    assert_eq!(counter(&doc, "jobs_failed"), 1);
    assert_eq!(
        counter(&doc, "jobs_accepted"),
        counter(&doc, "jobs_completed")
            + counter(&doc, "jobs_rejected")
            + counter(&doc, "jobs_shed")
            + counter(&doc, "jobs_failed")
    );
    handle.shutdown();
}

/// Acceptance: a worker thread that dies outright is respawned by the
/// supervisor; the in-flight job answers `500 worker-lost`; the pool is
/// back to full strength for the next job.
#[test]
fn killed_worker_is_respawned_by_the_supervisor() {
    let handle = serve(ServerConfig {
        workers: 1,
        chaos_hooks: true,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    let lost = post(&addr, "/run", "k", &format!("; {KILL_MARKER}\nhalt\n"));
    assert_eq!(lost.status, 500);
    assert_eq!(kind_of(&lost), "worker-lost");

    wait_for("supervisor respawn", || {
        counter(&metrics_doc(&addr), "worker_respawns") >= 1
    });

    // The respawned worker serves the next job, bit-identical.
    let after = post(&addr, "/run", "k", DAXPY);
    assert_eq!(after.status, 200, "{}", after.body);
    assert_eq!(after.body, fresh_reference());

    let doc = metrics_doc(&addr);
    assert_eq!(counter(&doc, "jobs_failed"), 1);
    assert_eq!(doc.get("busy_workers").unwrap().as_f64(), Some(0.0));
    handle.shutdown();
}

/// Acceptance: a deadline burned entirely in the queue sheds the job
/// with a structured `503` at dequeue — the per-worker job counters
/// prove it never occupied a worker — and the accounting invariant
/// balances.
#[test]
fn queue_aged_deadline_sheds_without_occupying_a_worker() {
    let handle = serve(ServerConfig {
        workers: 1,
        cache_entries: 0,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    let (occupant, doomed) = std::thread::scope(|scope| {
        // Occupy the only worker with a 20M-cycle spin.
        let addr_a = addr.clone();
        let occupant = scope.spawn(move || post(&addr_a, "/run?cycles=20000000", "a", &spin(1)));
        wait_for("worker to pick up the occupant", || {
            metrics_doc(&addr)
                .get("busy_workers")
                .and_then(|v| v.as_f64())
                == Some(1.0)
        });
        // This job's 1 ms deadline burns in the queue while the spin
        // runs; the worker must shed it at dequeue.
        let addr_b = addr.clone();
        let doomed = scope.spawn(move || post(&addr_b, "/run?deadline-ms=1", "b", "halt\n"));
        (occupant.join().unwrap(), doomed.join().unwrap())
    });

    assert_eq!(occupant.status, 422, "{}", occupant.body);
    assert_eq!(kind_of(&occupant), "cycle-limit");
    assert_eq!(doomed.status, 503, "{}", doomed.body);
    assert_eq!(kind_of(&doomed), "deadline-exceeded");

    wait_for("worker to go idle", || {
        metrics_doc(&addr)
            .get("busy_workers")
            .and_then(|v| v.as_f64())
            == Some(0.0)
    });
    let doc = metrics_doc(&addr);
    // The shed job never occupied the worker: only the occupant counts.
    let worker0 = &doc.get("per_worker").unwrap().items()[0];
    assert_eq!(
        worker0.get("jobs").unwrap().as_f64(),
        Some(1.0),
        "shed job must not reach the per-worker job counter"
    );
    assert_eq!(counter(&doc, "jobs_shed"), 1);
    assert_eq!(counter(&doc, "jobs_accepted"), 2);
    assert_eq!(
        counter(&doc, "jobs_accepted"),
        counter(&doc, "jobs_completed")
            + counter(&doc, "jobs_rejected")
            + counter(&doc, "jobs_shed")
            + counter(&doc, "jobs_failed")
    );
    handle.shutdown();
}

/// A job already running when its deadline expires is abandoned at a
/// cooperative checkpoint — long before its 4-billion-cycle limit.
#[test]
fn running_job_is_cancelled_at_its_deadline() {
    let handle = serve(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    let started = Instant::now();
    let r = post(
        &addr,
        "/run?cycles=4000000000&deadline-ms=300",
        "d",
        &spin(7),
    );
    assert_eq!(r.status, 503, "{}", r.body);
    assert_eq!(kind_of(&r), "deadline-exceeded");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "deadline did not interrupt the run: {:?}",
        started.elapsed()
    );
    handle.shutdown();
}

/// Graceful drain under load: `/metrics` reports `draining: true`, new
/// jobs are refused with `503 draining`, the in-flight job is cancelled
/// within the budget, and the port closes once shutdown returns.
#[test]
fn graceful_drain_refuses_new_jobs_and_cancels_in_flight() {
    let handle = serve(ServerConfig {
        workers: 1,
        drain_budget: Duration::from_secs(2),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    let inflight = {
        let addr = addr.clone();
        std::thread::spawn(move || post(&addr, "/run?cycles=4000000000", "load", &spin(9)))
    };
    wait_for("worker to pick up the long job", || {
        metrics_doc(&addr)
            .get("busy_workers")
            .and_then(|v| v.as_f64())
            == Some(1.0)
    });

    let shutdown = std::thread::spawn(move || handle.shutdown());
    wait_for("draining gauge", || {
        metrics_doc(&addr)
            .get("draining")
            .map(|v| matches!(v, mt_trace::Json::Bool(true)))
            .unwrap_or(false)
    });

    // Admission is closed while GETs still serve, for a sweep's cells
    // as for a single job.
    let refused = post(&addr, "/run", "late", "halt\n");
    assert_eq!(refused.status, 503, "{}", refused.body);
    assert_eq!(kind_of(&refused), "draining");
    let sweep = post(&addr, "/sweep?loops=12", "late", "fpu_lanes=1\n");
    assert_eq!(sweep.status, 503, "{}", sweep.body);
    assert_eq!(kind_of(&sweep), "draining");

    // The in-flight run is cancelled at a checkpoint, not run to its
    // 4-billion-cycle limit.
    let r = inflight.join().unwrap();
    assert_eq!(r.status, 503, "{}", r.body);
    assert_eq!(kind_of(&r), "draining");

    shutdown.join().unwrap();
    // The listener is gone: connections fail (allow a beat for the OS).
    wait_for("port to close", || TcpStream::connect(&addr).is_err());
}

/// The max-in-flight connection cap answers `503 overloaded` straight
/// from the accept path, and the gauge recovers once connections close.
#[test]
fn connection_cap_rejects_excess_connections() {
    let handle = serve(ServerConfig {
        workers: 1,
        max_connections: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    // Two idle connections occupy the whole budget (their handlers sit
    // in read_head under the header deadline).
    let idle_a = TcpStream::connect(&addr).unwrap();
    let idle_b = TcpStream::connect(&addr).unwrap();
    // Let the accept loop register both before the third arrives.
    std::thread::sleep(Duration::from_millis(200));

    let refused = get(&addr, "/healthz");
    assert_eq!(refused.status, 503, "{}", refused.body);
    assert_eq!(kind_of(&refused), "overloaded");

    // Freeing the slots restores service. The probe itself needs a
    // slot, and its own connections can transiently re-fill the cap, so
    // the /metrics fetch is part of the retried predicate: a rejected
    // fetch yields a shed body with no `registry` key and counts as
    // "not yet".
    drop(idle_a);
    drop(idle_b);
    wait_for("connection slots to free", || {
        let reply = get(&addr, "/metrics");
        reply.status == 200
            && mt_trace::json::parse(&reply.body)
                .map(|doc| counter(&doc, "rejected_overloaded") >= 1)
                .unwrap_or(false)
    });
    handle.shutdown();
}

//! End-to-end `POST /sweep` acceptance over a real TCP server:
//!
//! 1. a grid's answer is byte for byte the `mt-dse-v1` document
//!    `repro-dse`'s runner and renderer build for the same grid, whether
//!    its cells run or replay from the cache, and a machine too small
//!    for the kernels is one error cell, not a worker panic;
//! 2. an oversized grid answers a structured `422 grid-too-large`
//!    before any cell runs;
//! 3. `?deadline-ms=` is honored per cell (an expired deadline sheds
//!    with `503 deadline-exceeded`);
//! 4. the machine config reaches the result cache: a
//!    `?config=fpu_lanes=2` run never replays an `fpu_lanes=1` body.

use mt_chaos::httpc::{self, Reply};
use mt_dse::json::sweep_json;
use mt_dse::{run_grid, GridSpec};
use mt_serve::{serve, ServerConfig};

fn post(addr: &str, target: &str, body: &str) -> Reply {
    httpc::post(addr, target, "sweeper", body.as_bytes()).expect("POST")
}

fn start() -> (mt_serve::ServerHandle, String) {
    let handle = serve(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();
    (handle, addr)
}

/// The `/sweep` body `repro-dse`'s runner and renderer give `grid_text`
/// over `loops`.
fn expected_body(grid_text: &str, loops: &[u8]) -> String {
    let grid = GridSpec::parse(grid_text).unwrap();
    let results = run_grid(&grid.enumerate().unwrap(), loops);
    format!("{}\n", sweep_json(&grid, loops, &results).pretty())
}

/// A `/metrics` counter; one never bumped is absent, so zero.
fn counter(addr: &str, name: &str) -> u64 {
    let doc = httpc::metrics(addr).expect("metrics");
    httpc::field_u64(&doc, &["registry", "counters", name]).unwrap_or(0)
}

#[test]
fn sweep_aggregates_and_matches_the_dse_runner() {
    let (handle, addr) = start();
    // The CI smoke's grid, a paired grid, and a grid with an error cell
    // (two registers cannot hold the loops).
    for (grid_text, cells) in [
        ("fpu_latency=1,3\nfpu_lanes=1,2\n", 4),
        ("mode=paired\nfpu_latency=1,5\ndcache_miss=7,28\n", 2),
        ("num_fpu_regs=2,52\n", 2),
    ] {
        let expected = expected_body(grid_text, &[12, 21]);
        let reply = post(&addr, "/sweep?loops=12,21", grid_text);
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert_eq!(reply.body, expected, "grid {grid_text:?}");

        // A repeat replays every cell from the cache, to the same bytes.
        let hits = counter(&addr, "cache_hits");
        let again = post(&addr, "/sweep?loops=12,21", grid_text);
        assert_eq!(again.status, 200);
        assert_eq!(again.body, expected, "cached grid {grid_text:?}");
        assert_eq!(counter(&addr, "cache_hits"), hits + cells);
    }
    handle.shutdown();
}

/// Regression: a cell whose memory cannot hold the kernels answered 500
/// for the whole sweep and panicked a worker. It is one error cell now.
#[test]
fn a_machine_too_small_for_the_kernels_is_one_error_cell() {
    let (handle, addr) = start();
    let grid_text = "memory_bytes=65536,4194304\n";
    let reply = post(&addr, "/sweep?loops=12", grid_text);
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.body, expected_body(grid_text, &[12]));
    let doc = mt_trace::json::parse(&reply.body).unwrap();
    let cells = doc.get("cells").unwrap().items();
    assert!(cells[0].get("error").is_some());
    assert!(cells[1].get("error").is_none());
    assert_eq!(counter(&addr, "worker_panics"), 0);
    handle.shutdown();
}

/// The committed `/sweep` answer `./ci` diffs its live smoke against.
/// Regenerate with:
///   printf 'fpu_latency=1,3\nfpu_lanes=1,2\n' | curl -s --data-binary @- \
///       'http://<addr>/sweep?loops=12,21' > crates/serve/tests/data/sweep.golden.json
#[test]
fn committed_sweep_golden_matches_the_computation() {
    let golden = include_str!("data/sweep.golden.json");
    assert_eq!(
        expected_body("fpu_latency=1,3\nfpu_lanes=1,2\n", &[12, 21]),
        golden,
        "sweep golden drifted"
    );
}

#[test]
fn oversized_and_malformed_grids_are_rejected_up_front() {
    let (handle, addr) = start();
    // 65 cells > the 64-cell cap.
    let big: String = format!(
        "fpu_latency={}\n",
        (1..=65)
            .map(|i| (i % 8 + 1).to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let reply = post(&addr, "/sweep", &big);
    assert_eq!(reply.status, 422, "{}", reply.body);
    let doc = mt_trace::json::parse(&reply.body).unwrap();
    assert_eq!(doc.get("kind").unwrap().as_str(), Some("grid-too-large"));
    assert_eq!(doc.get("cells").unwrap().as_f64(), Some(65.0));

    let bad = post(&addr, "/sweep", "not_a_knob=1\n");
    assert_eq!(bad.status, 400);
    let doc = mt_trace::json::parse(&bad.body).unwrap();
    assert_eq!(doc.get("kind").unwrap().as_str(), Some("bad-grid"));

    // Invalid cell geometry parses but fails enumeration: 422.
    let invalid = post(&addr, "/sweep", "dcache_line=24\n");
    assert_eq!(invalid.status, 422, "{}", invalid.body);

    // A loop list names each loop at most once, so no request can make
    // a cell run more than 24 kernels.
    let repeated = post(&addr, "/sweep?loops=7,7", "fpu_lanes=1\n");
    assert_eq!(repeated.status, 400, "{}", repeated.body);
    let doc = mt_trace::json::parse(&repeated.body).unwrap();
    assert_eq!(doc.get("kind").unwrap().as_str(), Some("bad-query"));

    handle.shutdown();
}

#[test]
fn sweep_deadline_is_honored_per_cell() {
    let (handle, addr) = start();
    let reply = post(&addr, "/sweep?loops=12&deadline-ms=0", "fpu_lanes=1,2\n");
    assert_eq!(reply.status, 503, "{}", reply.body);
    let doc = mt_trace::json::parse(&reply.body).unwrap();
    assert_eq!(doc.get("kind").unwrap().as_str(), Some("deadline-exceeded"));
    handle.shutdown();
}

#[test]
fn lanes_query_never_replays_a_different_lane_count() {
    let (handle, addr) = start();
    let src = "li r1, 0x2000\nfld R0, 0(r1)\nfadd R2..R9, R1..R8, R0..R7 ; lint: allow(recurrence)\nhalt\n";
    let lanes1 = post(&addr, "/run", src);
    assert_eq!(lanes1.status, 200);
    assert_eq!(lanes1.cache.as_deref(), Some("miss"));
    // Same source with two lanes must be a cache MISS, not a replay.
    let lanes2 = post(&addr, "/run?config=fpu_lanes=2", src);
    assert_eq!(lanes2.status, 200);
    assert_eq!(
        lanes2.cache.as_deref(),
        Some("miss"),
        "a lanes=2 request hit a lanes=1 cache entry"
    );
    // And each variant replays its own entry.
    assert_eq!(
        post(&addr, "/run?config=fpu_lanes=2", src).cache.as_deref(),
        Some("hit")
    );
    assert_eq!(post(&addr, "/run", src).cache.as_deref(), Some("hit"));
    handle.shutdown();
}

//! End-to-end `POST /sweep` acceptance over a real TCP server:
//!
//! 1. a small grid returns an aggregated `mt-dse-v1` document whose
//!    numbers match the `mt-dse` runner for the same grid;
//! 2. an oversized grid answers a structured `422 grid-too-large`
//!    before any cell runs;
//! 3. `?deadline-ms=` is honored per cell (an expired deadline sheds
//!    with `503 deadline-exceeded`);
//! 4. the machine config reaches the result cache: a `?lanes=2` run
//!    never replays a `lanes=1` body.

use mt_chaos::httpc::{self, Reply};
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

#[test]
fn sweep_aggregates_and_matches_the_dse_runner() {
    let (handle, addr) = start();
    let grid_text = "fpu_latency=1,3\nfpu_lanes=1,2\n";
    let reply = post(&addr, "/sweep?loops=12,21", grid_text);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let doc = mt_trace::json::parse(&reply.body).unwrap();
    assert_eq!(doc.get("schema").unwrap().as_str(), Some("mt-dse-v1"));
    assert_eq!(
        doc.get("grid").unwrap().get("mode").unwrap().as_str(),
        Some("cartesian")
    );
    let cells = doc.get("cells").unwrap().items();
    assert_eq!(cells.len(), 4);

    // The service's numbers are the dse runner's numbers, cell by cell.
    let grid = GridSpec::parse(grid_text).unwrap();
    let direct = run_grid(&grid.enumerate().unwrap(), &[12, 21]);
    for (cell, expect) in cells.iter().zip(&direct) {
        assert_eq!(
            cell.get("name").unwrap().as_str(),
            Some(expect.spec.name.as_str())
        );
        assert_eq!(
            cell.get("warm_hm_mflops").unwrap().as_f64().unwrap(),
            expect.warm_hm_mflops(),
            "cell {}",
            expect.spec.name
        );
        let kernels = cell.get("kernels").unwrap().items();
        assert_eq!(kernels.len(), 2);
        assert_eq!(
            kernels[0]
                .get("warm")
                .unwrap()
                .get("cycles")
                .unwrap()
                .as_f64(),
            Some(expect.reports[0].warm.cycles as f64)
        );
    }
    assert!(!doc.get("pareto").unwrap().items().is_empty());

    // Rerunning the same sweep replays every cell from the cache and
    // aggregates to the same bytes.
    let again = post(&addr, "/sweep?loops=12,21", grid_text);
    assert_eq!(again.status, 200);
    assert_eq!(again.body, reply.body, "sweep is deterministic");

    handle.shutdown();
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
    // Same source with ?lanes=2 must be a cache MISS, not a replay.
    let lanes2 = post(&addr, "/run?lanes=2", src);
    assert_eq!(lanes2.status, 200);
    assert_eq!(
        lanes2.cache.as_deref(),
        Some("miss"),
        "a lanes=2 request hit a lanes=1 cache entry"
    );
    // And each variant replays its own entry.
    assert_eq!(
        post(&addr, "/run?lanes=2", src).cache.as_deref(),
        Some("hit")
    );
    assert_eq!(post(&addr, "/run", src).cache.as_deref(), Some("hit"));
    handle.shutdown();
}

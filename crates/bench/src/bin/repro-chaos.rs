//! `repro-chaos` — the service-level chaos smoke: spawn an in-process
//! `mt-serve` with chaos hooks armed, run the seeded `mt-chaos`
//! campaign against it over real TCP, and report the `mt-chaos-v1`
//! document.
//!
//! The report's structural fields are a pure function of the seed, so
//! CI commits one run as `BENCH_chaos.json` and gates later runs with
//! `repro-benchdiff --profile chaos` (verdicts and scenario plan exact;
//! wall-clock, raw accounting counts, and notes ignored).
//!
//! `--url http://host:port` runs the same campaign against a server
//! that is already running instead. Hooks are then off unless `--hooks`
//! says the target was started with `--chaos-hooks`: a hooks-off plan
//! never draws the worker-panic and worker-kill scenarios, so it only
//! misbehaves as a client (torn requests, half-closes, slow-loris
//! stalls, burned deadlines) and is safe to aim at any server.
//!
//! `--drain` runs the other smoke instead: graceful shutdown under
//! load. It parks long-running spin jobs on the workers and the queue,
//! calls `ServerHandle::shutdown()` mid-flight, and asserts the
//! bounded-drain contract — every in-flight request still gets a
//! structured answer (`503 draining` / `503 deadline-exceeded`), the
//! drain completes within its budget plus scheduling slack, and the
//! port actually closes.
//!
//! Usage: `repro-chaos [--seed N|0xN] [--scenarios N] [--json]
//! [--drain | --url http://host:port [--hooks]]`

use std::net::TcpStream;
use std::time::{Duration, Instant};

use mt_chaos::{httpc, run_campaign, ChaosConfig, CLIENT_ID};
use mt_fault::parse_u64;
use mt_serve::{serve, ServerConfig};
use mt_trace::Json;

fn usage() -> ! {
    eprintln!(
        "usage: repro-chaos [--seed N|0xN] [--scenarios N] [--json] \
         [--drain | --url http://host:port [--hooks]]"
    );
    std::process::exit(2);
}

/// The harnessed server: hooks armed, two workers (so a killed worker
/// is an observable *fraction* of the pool), and a header timeout well
/// under the slow-loris stall so the defense actually fires.
fn harness_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 8,
        header_timeout: Duration::from_millis(250),
        chaos_hooks: true,
        ..ServerConfig::default()
    }
}

fn main() {
    let mut chaos = ChaosConfig::default();
    let mut json = false;
    let mut drain = false;
    let mut url = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--drain" => drain = true,
            "--hooks" => chaos.expect_hooks = true,
            "--url" => match args.next() {
                Some(u) => url = Some(u),
                None => usage(),
            },
            "--seed" => match args.next().as_deref().and_then(parse_u64) {
                Some(seed) => chaos.seed = seed,
                None => usage(),
            },
            "--scenarios" => match args.next().as_deref().and_then(parse_u64) {
                Some(n) => chaos.scenarios = n as usize,
                None => usage(),
            },
            _ => usage(),
        }
    }

    if drain {
        if url.is_some() {
            usage();
        }
        return drain_smoke(json);
    }

    // `--hooks` describes a server named by `--url`; the in-process one
    // always arms its hooks.
    let (addr, handle) = match url {
        Some(url) => {
            let addr = httpc::host_port(&url)
                .unwrap_or_else(|e| {
                    eprintln!("repro-chaos: {e}");
                    usage()
                })
                .to_string();
            (addr, None)
        }
        None => {
            let handle = match serve(harness_config()) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("repro-chaos: bind failed: {e}");
                    std::process::exit(1);
                }
            };
            chaos.expect_hooks = true;
            (handle.addr().to_string(), Some(handle))
        }
    };
    let report = match run_campaign(&addr, &chaos) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro-chaos: {e}");
            std::process::exit(1);
        }
    };
    if let Some(handle) = handle {
        handle.shutdown();
    }

    if json {
        println!("{}", report.json.pretty());
    } else {
        let field = |k: &str| report.json.get(k).cloned().unwrap_or(Json::Null);
        println!(
            "Chaos campaign — seed {:#x}, {} scenarios, {} ok",
            chaos.seed,
            field("scenarios_total"),
            field("scenarios_ok")
        );
        if let Some(Json::Arr(rows)) = report.json.get("scenarios").cloned() {
            for row in &rows {
                let get = |k: &str| row.get(k).cloned().unwrap_or(Json::Null);
                println!(
                    "  [{}] {:<20} {}  {}",
                    get("index"),
                    get("kind").as_str().unwrap_or("?"),
                    if matches!(get("ok"), Json::Bool(true)) {
                        "ok  "
                    } else {
                        "FAIL"
                    },
                    get("note").as_str().unwrap_or("")
                );
            }
        }
        println!("checks: {}", field("checks"));
    }
    if !report.ok {
        eprintln!("repro-chaos: campaign failed (see checks/scenario verdicts)");
        std::process::exit(1);
    }
}

/// The graceful-shutdown-under-load smoke (`--drain`).
fn drain_smoke(json: bool) {
    let config = ServerConfig {
        drain_budget: Duration::from_millis(500),
        ..harness_config()
    };
    let budget = config.drain_budget;
    let handle = match serve(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("repro-chaos: bind failed: {e}");
            std::process::exit(1);
        }
    };
    let addr = handle.addr().to_string();

    // Park more spins than the pool+queue can finish quickly: two land
    // on workers, the rest wait in the queue and must be answered as
    // drain orphans.
    const JOBS: usize = 6;
    let clients: Vec<_> = (0..JOBS)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let source = format!("li r9, {i}\nspin:\nbeq r0, r0, spin\nhalt\n");
                httpc::post(
                    &addr,
                    "/run?cycles=4000000000",
                    CLIENT_ID,
                    source.as_bytes(),
                )
            })
        })
        .collect();
    // Let the jobs reach the workers/queue before pulling the plug.
    std::thread::sleep(Duration::from_millis(300));

    let shutdown_started = Instant::now();
    handle.shutdown();
    let shutdown_ms = shutdown_started.elapsed().as_millis() as u64;

    let mut structured = 0usize;
    let mut statuses = Vec::new();
    for client in clients {
        match client.join().unwrap() {
            Ok(reply) => {
                statuses.push(reply.status);
                // Every in-flight job must end in a *structured* answer:
                // served before the drain, cancelled at a checkpoint, or
                // answered as a queue orphan — never a torn connection.
                if matches!(reply.status, 200 | 422 | 503) {
                    structured += 1;
                }
            }
            Err(e) => eprintln!("repro-chaos: drain client: {e}"),
        }
    }
    let port_closed = TcpStream::connect(&addr).is_err();
    // Generous slack over the 500 ms budget: the spin jobs only notice
    // cancellation at their next checkpoint and the joins are serial.
    let within_budget = shutdown_ms < budget.as_millis() as u64 + 4_500;
    let ok = structured == JOBS && port_closed && within_budget;

    let doc = Json::obj([
        ("schema", Json::Str("mt-chaos-drain-v1".to_string())),
        ("jobs", Json::U64(JOBS as u64)),
        ("structured_answers", Json::U64(structured as u64)),
        (
            "statuses",
            Json::Arr(statuses.iter().map(|&s| Json::U64(s as u64)).collect()),
        ),
        ("shutdown_ms", Json::U64(shutdown_ms)),
        ("port_closed", Json::Bool(port_closed)),
        ("ok", Json::Bool(ok)),
    ]);
    if json {
        println!("{}", doc.pretty());
    } else {
        println!(
            "Drain smoke — {JOBS} in-flight spins, {structured} structured answers, \
             shutdown in {shutdown_ms} ms, port closed: {port_closed}"
        );
    }
    if !ok {
        eprintln!("repro-chaos: drain smoke failed");
        std::process::exit(1);
    }
}

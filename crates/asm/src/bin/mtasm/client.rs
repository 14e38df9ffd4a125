//! `mtasm client` — a load generator for `mt-serve`.
//!
//! Posts one source file to a running server `--requests` times from
//! `--concurrency` threads (each with its own `X-Client-Id`, exercising
//! the server's per-client fairness), retries `429` rejections with a
//! short backoff, and prints a stable `mt-serve-bench-v1` summary —
//! including client-observed wall-clock latency percentiles from
//! per-thread bounded HDR histograms merged losslessly at the end.
//!
//! Failure accounting is deliberately bucketed: `retries_429` counts
//! retry *attempts* absorbed by backoff, `rejected_429_final` counts
//! requests that exhausted their retries and ended as `429`,
//! `shed_503` counts structured server sheds (deadline expired,
//! draining, overloaded — distinct from 429 queue-full pushback),
//! `disconnects` counts requests whose connection died or short-read
//! after the request was sent, and `failed_requests` counts the
//! remaining transport failures (connect/setup errors). `errors`
//! remains the umbrella (any non-2xx outcome).
//!
//! The summary is flat on purpose: every key renders on its own line.
//! CI diffs it with `repro-benchdiff --profile serve`, which enforces
//! key presence everywhere and exactness on the deterministic fields
//! (`requests`, `ok`, `distinct_bodies`, `body_fnv64`, …) while
//! tolerating the wall-clock and cache-luck ones (`elapsed_ms`,
//! `requests_per_second`, `cache_hits`, `cache_misses`, `retries_429`,
//! `rejected_429_final`, `latency_us.*`).
//!
//! Requests go through the workspace's shared client,
//! [`mt_chaos::httpc`], whose error says whether a failed request went
//! out: that is the `disconnects` vs `failed_requests` split.

use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mt_chaos::httpc;
use mt_obs::{fnv1a64, HdrHistogram};
use mt_trace::Json;

struct ClientOptions {
    url: String,
    path: String,
    endpoint: String,
    concurrency: usize,
    requests: usize,
    query: Vec<(String, String)>,
    /// `--config-axis knob=v1,v2` axes: request *i* takes
    /// `values[i % len]` from each axis, so a request stream replays a
    /// configuration sweep (and exercises one cache entry per distinct
    /// configuration).
    config_axes: Vec<(String, Vec<u64>)>,
    print_body: bool,
}

fn parse_client_options(args: &[String]) -> Result<ClientOptions, String> {
    let mut url = "http://127.0.0.1:8315".to_string();
    let mut path = None;
    let mut endpoint = "run".to_string();
    let mut concurrency = 4;
    let mut requests = 16;
    let mut query = Vec::new();
    let mut config_axes: Vec<(String, Vec<u64>)> = Vec::new();
    let mut print_body = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--url" => url = value("--url")?.to_string(),
            "--endpoint" => {
                endpoint = value("--endpoint")?.to_string();
                if endpoint != "run" && endpoint != "assemble" {
                    return Err(format!("bad --endpoint `{endpoint}` (run|assemble)"));
                }
            }
            "--concurrency" => {
                concurrency = value("--concurrency")?
                    .parse()
                    .map_err(|e| format!("bad --concurrency: {e}"))?;
            }
            "--requests" => {
                requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("bad --requests: {e}"))?;
            }
            "--base" => query.push(("base".to_string(), value("--base")?.to_string())),
            "--cycles" => query.push(("cycles".to_string(), value("--cycles")?.to_string())),
            "--watchdog" => query.push(("watchdog".to_string(), value("--watchdog")?.to_string())),
            "--deadline-ms" => query.push((
                "deadline-ms".to_string(),
                value("--deadline-ms")?.to_string(),
            )),
            "--config" => {
                let v = value("--config")?;
                // Validate locally so typos fail before any request.
                mt_sim::MachineConfig::parse(v).map_err(|e| format!("bad --config: {e}"))?;
                query.push(("config".to_string(), v.to_string()));
            }
            "--config-axis" => {
                let v = value("--config-axis")?;
                let (knob, list) = v
                    .split_once('=')
                    .ok_or_else(|| format!("bad --config-axis `{v}` (need knob=v1,v2)"))?;
                let mut values = Vec::new();
                for item in list.split(',') {
                    let n: u64 = item
                        .parse()
                        .map_err(|e| format!("bad --config-axis value `{item}`: {e}"))?;
                    let mut probe = mt_sim::MachineConfig::default();
                    probe
                        .set_knob(knob, n)
                        .and_then(|()| probe.validate())
                        .map_err(|e| format!("bad --config-axis: {e}"))?;
                    values.push(n);
                }
                if values.is_empty() {
                    return Err(format!("--config-axis `{v}` has no values"));
                }
                config_axes.push((knob.to_string(), values));
            }
            "--cold" => query.push(("cold".to_string(), "1".to_string())),
            "--lint" => query.push(("lint".to_string(), "1".to_string())),
            "--profile" => query.push(("profile".to_string(), "1".to_string())),
            "--trace" => query.push(("trace".to_string(), "1".to_string())),
            "--print-body" => print_body = true,
            other if !other.starts_with('-') && path.is_none() => {
                path = Some(other.to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if concurrency == 0 || requests == 0 {
        return Err("--concurrency and --requests must be at least 1".to_string());
    }
    if !config_axes.is_empty() && query.iter().any(|(k, _)| k == "config") {
        return Err("--config and --config-axis are mutually exclusive".to_string());
    }
    Ok(ClientOptions {
        url,
        path: path.ok_or("missing input file")?,
        endpoint,
        concurrency,
        requests,
        query,
        config_axes,
        print_body,
    })
}

#[derive(Default)]
struct Tally {
    ok: usize,
    errors: usize,
    retries_429: usize,
    rejected_429_final: usize,
    shed_503: usize,
    disconnects: usize,
    failed_requests: usize,
    cache_hits: usize,
    cache_misses: usize,
    statuses: BTreeSet<u16>,
    body_hashes: BTreeSet<u64>,
    failures: Vec<String>,
    /// Client-observed per-request wall clock (µs), retries included.
    latency: HdrHistogram,
}

/// Entry point for `mtasm client <file.s> [flags]`.
pub fn run(args: &[String]) -> Result<(), String> {
    let opts = parse_client_options(args)?;
    let source = std::fs::read_to_string(&opts.path).map_err(|e| format!("{}: {e}", opts.path))?;
    let addr = httpc::host_port(&opts.url)?.to_string();
    let query = opts
        .query
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join("&");
    let target = if query.is_empty() {
        format!("/{}", opts.endpoint)
    } else {
        format!("/{}?{query}", opts.endpoint)
    };
    // With `--config-axis` each request carries its own `config=` query
    // parameter, chosen by global request index so the replayed sweep is
    // independent of thread scheduling.
    let target_for = |i: usize| -> String {
        if opts.config_axes.is_empty() {
            return target.clone();
        }
        let cfg = opts
            .config_axes
            .iter()
            .map(|(knob, values)| format!("{knob}={}", values[i % values.len()]))
            .collect::<Vec<_>>()
            .join(",");
        let sep = if target.contains('?') { '&' } else { '?' };
        format!("{target}{sep}config={cfg}")
    };

    let tally = Mutex::new(Tally::default());
    let started = Instant::now();
    std::thread::scope(|scope| {
        let quota = opts.requests / opts.concurrency;
        let remainder = opts.requests % opts.concurrency;
        for worker in 0..opts.concurrency {
            // Spread the request count across threads (first threads take
            // the remainder); each thread owns a contiguous block of
            // global request indices so config axes replay determinately.
            let share = quota + usize::from(worker < remainder);
            let start = worker * quota + worker.min(remainder);
            let (addr, source, tally, target_for) = (&addr, &source, &tally, &target_for);
            scope.spawn(move || {
                let client_id = format!("client-{worker}");
                // Latency is recorded thread-locally and merged once at
                // the end — mergeable histograms make the aggregate
                // independent of thread interleaving.
                let mut latency = HdrHistogram::default();
                for j in 0..share {
                    let target = target_for(start + j);
                    let request_start = Instant::now();
                    let mut retries = 0;
                    let reply = loop {
                        match httpc::post(addr, &target, &client_id, source.as_bytes()) {
                            Ok(r) if r.status == 429 && retries < 200 => {
                                retries += 1;
                                std::thread::sleep(Duration::from_millis(25));
                            }
                            other => break other,
                        }
                    };
                    latency.record(request_start.elapsed().as_micros() as u64);
                    let mut t = tally.lock().unwrap();
                    t.retries_429 += retries;
                    match reply {
                        Ok(r) => {
                            t.statuses.insert(r.status);
                            t.body_hashes.insert(fnv1a64(r.body.as_bytes()));
                            match r.cache.as_deref() {
                                Some("hit") => t.cache_hits += 1,
                                Some("miss") => t.cache_misses += 1,
                                _ => {}
                            }
                            if (200..300).contains(&r.status) {
                                t.ok += 1;
                            } else {
                                t.errors += 1;
                                match r.status {
                                    429 => t.rejected_429_final += 1,
                                    // The server's structured sheds:
                                    // deadline expired, draining, or
                                    // over the connection cap.
                                    503 => t.shed_503 += 1,
                                    _ => {}
                                }
                            }
                        }
                        Err(e) => {
                            t.errors += 1;
                            match e {
                                httpc::Error::NoReply(_) => t.disconnects += 1,
                                httpc::Error::NotSent(_) => t.failed_requests += 1,
                            }
                            if t.failures.len() < 8 {
                                t.failures.push(e.to_string());
                            }
                        }
                    }
                }
                tally.lock().unwrap().latency.merge(&latency);
            });
        }
    });
    let elapsed = started.elapsed();
    let t = tally.into_inner().unwrap();

    if opts.print_body {
        // Replay one request for the body (a cache hit on any healthy
        // server) so scripts can capture the canonical response.
        let reply = httpc::post(&addr, &target, "client-body", source.as_bytes())
            .map_err(|e| e.to_string())?;
        print!("{}", reply.body);
        if !reply.body.ends_with('\n') {
            println!();
        }
        return Ok(());
    }

    let body_fnv64 = if t.body_hashes.len() == 1 {
        Json::Str(format!("{:#018x}", t.body_hashes.iter().next().unwrap()))
    } else {
        Json::Null
    };
    let statuses = Json::Arr(t.statuses.iter().map(|&s| Json::U64(s as u64)).collect());
    let summary = Json::obj([
        ("schema", Json::Str("mt-serve-bench-v1".to_string())),
        ("endpoint", Json::Str(opts.endpoint.clone())),
        ("requests", Json::U64(opts.requests as u64)),
        ("concurrency", Json::U64(opts.concurrency as u64)),
        ("ok", Json::U64(t.ok as u64)),
        ("errors", Json::U64(t.errors as u64)),
        ("statuses", statuses),
        ("distinct_bodies", Json::U64(t.body_hashes.len() as u64)),
        ("body_fnv64", body_fnv64),
        ("cache_hits", Json::U64(t.cache_hits as u64)),
        ("cache_misses", Json::U64(t.cache_misses as u64)),
        ("retries_429", Json::U64(t.retries_429 as u64)),
        ("rejected_429_final", Json::U64(t.rejected_429_final as u64)),
        ("shed_503", Json::U64(t.shed_503 as u64)),
        ("disconnects", Json::U64(t.disconnects as u64)),
        ("failed_requests", Json::U64(t.failed_requests as u64)),
        ("latency_us", t.latency.to_json()),
        ("elapsed_ms", Json::U64(elapsed.as_millis() as u64)),
        (
            "requests_per_second",
            Json::F64(opts.requests as f64 / elapsed.as_secs_f64().max(1e-9)),
        ),
    ]);
    println!("{}", summary.pretty());
    for f in &t.failures {
        eprintln!("mtasm client: {f}");
    }
    if t.errors > 0 {
        return Err(format!("{} request(s) failed", t.errors));
    }
    Ok(())
}

//! The service workloads: `serve-miss` and `serve-hit`.
//!
//! Both run an in-process `mt_serve::serve` (one worker, the default
//! 256-entry cache) on an ephemeral loopback port and drive it closed-loop
//! from two client threads, one connection per request, in rounds of a
//! tenth of a second. `serve-miss` posts a distinct generated program
//! every time, so every request misses, inserts and (past 256) evicts;
//! `serve-hit` cycles over 16 warmed programs, so every request is a
//! cache read.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mt_serve::cache::fnv1a64;
use mt_serve::job::{execute, Endpoint, JobRequest, RunOptions};
use mt_serve::{ServerConfig, ServerHandle};
use mt_sim::{Machine, SimConfig};
use mt_trace::Json;

use crate::client::{self, Reply};
use crate::gen::{self, GenProgram};
use crate::measure::{self, Phase, StepLog};
use crate::simwork::Counts;

/// Load threads, each with one connection at a time.
pub const CLIENTS: usize = 2;
/// Worker threads of the server under test. A run holds one CPU
/// ([`crate::pin`]); one worker fed by two clients always has the next
/// job queued, so the CPU never idles between jobs, and a request's wait
/// for the worker shows in the `queue-wait` stage. With two workers on
/// one CPU, the jobs would share it and that wait would be hidden inside
/// `worker-service`.
pub const WORKERS: usize = 1;
/// Seconds of traffic in one round of a phase: long enough for dozens of
/// `serve-miss` requests, short enough that the host's speed changes
/// little within it ([`crate::host`]).
pub const ROUND_SECONDS: f64 = 0.1;
/// Distinct programs `serve-hit` cycles over ([`gen::hot_program`]).
pub const HOT_PROGRAMS: u64 = 16;
/// Requests of `serve-miss`'s warm-up pass.
const MISS_WARMUP: u64 = 8;
/// One body in this many `serve-miss` replies is re-derived in process.
const SAMPLE_ONE_IN: u64 = 64;
/// Salt separating the sampling stream from the program stream.
const SAMPLE_SALT: u64 = 0x5A3B_1E00;

/// Which cache behaviour the traffic forces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// A distinct program per request: every lookup misses.
    Miss,
    /// A cycle over warmed programs: every lookup hits.
    Hit,
}

/// A warmed `serve-hit` program with what its replies must carry.
#[derive(Debug, Clone)]
struct Hot {
    program: GenProgram,
    body_hash: u64,
    cycles: u64,
}

/// A running server plus the traffic aimed at it.
pub struct Serve {
    traffic: Traffic,
    seed: u64,
    server: ServerHandle,
    hot: Vec<Hot>,
    /// Next program index for `serve-miss`; request counter for
    /// `serve-hit`.
    next: AtomicU64,
}

/// One load thread's state across the rounds of a phase.
struct Client {
    /// Its spans (traced phases only).
    log: Option<StepLog>,
    /// `(program index, body)` of its sampled `serve-miss` replies.
    sampled: Vec<(u64, Vec<u8>)>,
}

/// What the measured traffic leaves for the checks after the timed phase.
#[derive(Debug, Default)]
pub struct Collected {
    /// Per-client-thread spans (traced phases only).
    pub logs: Vec<StepLog>,
    /// `(program index, body)` of the sampled `serve-miss` replies.
    pub sampled: Vec<(u64, Vec<u8>)>,
}

/// The `"cycles"` member of a `/run` reply's `stats` object (the first
/// `"cycles"` key in the document).
fn body_cycles(body: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"cycles\": ";
    let at = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let digits = body[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&body[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// True for the seeded one-in-[`SAMPLE_ONE_IN`] `serve-miss` requests
/// whose bodies are re-derived after the timed phase.
fn sampled(seed: u64, index: u64) -> bool {
    gen::item_rng(seed ^ SAMPLE_SALT, index).below(SAMPLE_ONE_IN) == 0
}

/// The job the server builds for a generated program (`POST /run`, with
/// `?lint=1` when asked): the in-process reference for a reply.
pub fn job_for(program: &GenProgram) -> JobRequest {
    JobRequest {
        endpoint: Endpoint::Run,
        source: program.source.clone(),
        options: RunOptions {
            lint: program.lint,
            ..RunOptions::default()
        },
    }
}

impl Serve {
    /// Starts a server and runs the warm-up pass: for `serve-miss` a few
    /// distinct programs, for `serve-hit` the 16 hot programs (misses)
    /// and then one hit of each, checked against the warm bodies.
    ///
    /// # Errors
    ///
    /// A bind failure or any warm-up request that does not answer as
    /// expected.
    pub fn setup(traffic: Traffic, seed: u64) -> Result<Serve, String> {
        let server = mt_serve::serve(ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("start mt-serve: {e}"))?;
        let mut serve = Serve {
            traffic,
            seed,
            server,
            hot: Vec::new(),
            next: AtomicU64::new(0),
        };
        let warm = |serve: &Serve, program: &GenProgram, want: &str| -> Result<Reply, String> {
            let what = format!("warm-up request ({:?})", program.shape);
            let (reply, _) = client::request(
                serve.addr(),
                "POST",
                program.path(),
                program.source.as_bytes(),
            )
            .map_err(|e| format!("{what}: {e}"))?;
            if reply.status != 200 || reply.x_cache.as_deref() != Some(want) {
                return Err(format!(
                    "{what}: status {} X-Cache {:?}, expected 200 {want}",
                    reply.status, reply.x_cache
                ));
            }
            Ok(reply)
        };
        match traffic {
            Traffic::Miss => {
                for index in 0..MISS_WARMUP {
                    warm(&serve, &gen::program(seed, index), "miss")?;
                }
                serve.next.store(MISS_WARMUP, Ordering::Relaxed);
            }
            Traffic::Hit => {
                for k in 0..HOT_PROGRAMS {
                    let program = gen::hot_program(seed, k);
                    let reply = warm(&serve, &program, "miss")?;
                    serve.hot.push(Hot {
                        program,
                        body_hash: fnv1a64(&reply.body),
                        cycles: body_cycles(&reply.body).ok_or("warm reply without cycles")?,
                    });
                }
                for hot in &serve.hot {
                    let reply = warm(&serve, &hot.program, "hit")?;
                    if fnv1a64(&reply.body) != hot.body_hash {
                        return Err(format!(
                            "hit of {:?} differs from its warm body",
                            hot.program.shape
                        ));
                    }
                }
            }
        }
        Ok(serve)
    }

    /// The first `count` programs this workload posts: the hot programs
    /// for `serve-hit` (at most [`HOT_PROGRAMS`]), the sequence from its
    /// start for `serve-miss`.
    pub fn programs(&self, count: u64) -> Vec<GenProgram> {
        match self.traffic {
            Traffic::Miss => (0..count).map(|i| gen::program(self.seed, i)).collect(),
            Traffic::Hit => self
                .hot
                .iter()
                .take(count as usize)
                .map(|h| h.program.clone())
                .collect(),
        }
    }

    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stops the server (bounded drain; it is idle by then).
    pub fn shutdown(self) {
        self.server.shutdown();
    }

    /// Drives the server from [`CLIENTS`] closed-loop threads in rounds
    /// of [`ROUND_SECONDS`] until `seconds` have passed. Each round starts
    /// the load threads and ends when the last of their requests has
    /// completed, so every request belongs to one round.
    pub fn phase(&self, seconds: f64, traced: bool) -> (Phase, Collected) {
        let mut clients: Vec<Client> = (1..=CLIENTS as u64)
            .map(|thread| Client {
                log: traced.then(|| StepLog::new(thread)),
                sampled: Vec::new(),
            })
            .collect();
        let phase = measure::run_rounds(seconds, |phase| {
            let deadline = Instant::now() + Duration::from_secs_f64(ROUND_SECONDS);
            let parts: Vec<Phase> = std::thread::scope(|scope| {
                let handles: Vec<_> = clients
                    .iter_mut()
                    .map(|client| scope.spawn(move || self.client_round(client, deadline)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client threads do not panic"))
                    .collect()
            });
            parts.into_iter().for_each(|part| phase.absorb(part));
        });
        let mut collected = Collected::default();
        for client in clients {
            collected.logs.extend(client.log);
            collected.sampled.extend(client.sampled);
        }
        (phase, collected)
    }

    /// One load thread's share of a round: requests back to back until
    /// `deadline`; the request under way then finishes.
    fn client_round(&self, client: &mut Client, deadline: Instant) -> Phase {
        let mut phase = Phase::new();
        let addr = self.addr();
        while Instant::now() < deadline {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            let fresh;
            let (program, hot) = match self.traffic {
                Traffic::Miss => {
                    fresh = gen::program(self.seed, index);
                    (&fresh, None)
                }
                Traffic::Hit => {
                    let h = &self.hot[(index % HOT_PROGRAMS) as usize];
                    (&h.program, Some(h))
                }
            };
            phase.attempted += 1;
            let (reply, steps) =
                match client::request(addr, "POST", program.path(), program.source.as_bytes()) {
                    Ok(pair) => pair,
                    Err(e) => {
                        phase.fail(format!("request {index}: {e}"));
                        continue;
                    }
                };
            if let Some(log) = client.log.as_mut() {
                log.record("client.connect", steps.start, steps.connected);
                log.record("client.write", steps.connected, steps.written);
                log.record("client.first-byte", steps.written, steps.first_byte);
                log.record("client.body-read", steps.first_byte, steps.done);
            }
            let cycles = match (hot, reply.status, reply.x_cache.as_deref()) {
                (None, 200, Some("miss")) => body_cycles(&reply.body),
                (Some(h), 200, Some("hit")) if fnv1a64(&reply.body) == h.body_hash => {
                    Some(h.cycles)
                }
                _ => None,
            };
            let Some(cycles) = cycles else {
                phase.fail(format!(
                    "request {index}: status {} X-Cache {:?} ({} body bytes)",
                    reply.status,
                    reply.x_cache,
                    reply.body.len()
                ));
                continue;
            };
            if hot.is_none() && sampled(self.seed, index) {
                client.sampled.push((index, reply.body));
            }
            phase.complete(steps.start, steps.done, cycles);
        }
        phase
    }

    /// The output checks after a timed phase: each sampled `serve-miss`
    /// body must be byte-equal to an in-process `mt_serve::job::execute`
    /// of the same job, and `/metrics` must satisfy the accounting
    /// invariant `accepted == completed + rejected + shed + failed`.
    pub fn check_after(&self, phase: &mut Phase, sampled: &[(u64, Vec<u8>)]) {
        let mut machine = Machine::new(SimConfig::default());
        for (index, body) in sampled {
            let want = execute(&job_for(&gen::program(self.seed, *index)), &mut machine);
            if want.body.as_bytes() != body.as_slice() {
                phase.fail(format!(
                    "request {index}: body differs from in-process execute"
                ));
            }
        }
        match self.scrape() {
            Ok(s) if s.accounting_holds() => {}
            Ok(s) => phase.fail(format!("/metrics accounting broken: {:?}", s.accounting)),
            Err(e) => phase.fail(e),
        }
    }

    /// `GET /metrics`, parsed.
    ///
    /// # Errors
    ///
    /// Transport or parse failures.
    pub fn scrape(&self) -> Result<Scrape, String> {
        let (reply, _) = client::request(self.addr(), "GET", "/metrics", b"")
            .map_err(|e| format!("GET /metrics: {e}"))?;
        let text = String::from_utf8(reply.body).map_err(|_| "non-UTF-8 /metrics")?;
        Scrape::parse(&mt_trace::json::parse(&text)?)
    }
}

/// One stage's latency summary from `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stage {
    /// Samples recorded.
    pub count: u64,
    /// Mean microseconds.
    pub mean_us: f64,
    /// Median microseconds (histogram bucket midpoint).
    pub p50_us: f64,
    /// 99th percentile microseconds (histogram bucket midpoint).
    pub p99_us: f64,
}

/// The parts of the `/metrics` document the layer table uses.
#[derive(Debug, Clone)]
pub struct Scrape {
    /// When it was taken.
    pub at: Instant,
    /// Per stage of [`mt_serve::metrics::STAGES`], in that order.
    pub stages: Vec<Stage>,
    /// Worker busy time summed over workers, microseconds.
    pub busy_us: u64,
    /// Worker pool size.
    pub workers: u64,
    /// Result-cache hits and misses.
    pub cache: (u64, u64),
    /// `[accepted, completed, rejected, shed, failed]`.
    pub accounting: [u64; 5],
}

impl Scrape {
    fn parse(doc: &Json) -> Result<Scrape, String> {
        let num = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(0.0);
        let latency = doc.get("latency_us").ok_or("/metrics without latency_us")?;
        let stages = mt_serve::metrics::STAGES
            .iter()
            .map(|name| {
                let s = latency.get(name);
                let field = |k: &str| num(s.and_then(|s| s.get(k)));
                Stage {
                    count: field("count") as u64,
                    mean_us: field("mean"),
                    p50_us: field("p50"),
                    p99_us: field("p99"),
                }
            })
            .collect();
        let counter = |k: &str| {
            num(doc
                .get("registry")
                .and_then(|r| r.get("counters"))
                .and_then(|c| c.get(k))) as u64
        };
        let acc = |k: &str| num(doc.get("accounting").and_then(|a| a.get(k))) as u64;
        Ok(Scrape {
            at: Instant::now(),
            stages,
            busy_us: doc
                .get("per_worker")
                .map(Json::items)
                .unwrap_or_default()
                .iter()
                .map(|w| num(w.get("busy_us")) as u64)
                .sum(),
            workers: num(doc.get("workers")) as u64,
            cache: (counter("cache_hits"), counter("cache_misses")),
            accounting: [
                acc("accepted"),
                acc("completed"),
                acc("rejected"),
                acc("shed"),
                acc("failed"),
            ],
        })
    }

    /// `accepted == completed + rejected + shed + failed`.
    pub fn accounting_holds(&self) -> bool {
        let [accepted, rest @ ..] = self.accounting;
        accepted == rest.iter().sum::<u64>()
    }
}

/// One request stage between two scrapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageRow {
    /// Stage name, from [`mt_serve::metrics::STAGES`].
    pub name: &'static str,
    /// Requests that passed through the stage in the interval.
    pub count: u64,
    /// Their mean microseconds (0 when none did, as `queue-wait` on cache
    /// hits).
    pub mean_us: f64,
    /// Median since the server started (histogram resolution).
    pub p50_us: f64,
    /// 99th percentile since the server started (histogram resolution).
    pub p99_us: f64,
}

/// The stages that follow one another along a request's path (`total`
/// spans them all and `sim-run` sits inside `worker-service`).
pub const SEQUENTIAL_STAGES: [&str; 6] = [
    "read-request",
    "parse",
    "cache-lookup",
    "queue-wait",
    "worker-service",
    "respond",
];

/// Server-side layer numbers between two scrapes.
#[derive(Debug, Clone)]
pub struct ServeRows {
    /// Every stage, in [`mt_serve::metrics::STAGES`] order.
    pub stages: Vec<StageRow>,
    /// Hits ÷ lookups over the interval.
    pub cache_hit_ratio: f64,
    /// Worker busy time ÷ (workers × interval).
    pub worker_busy_share: f64,
}

impl ServeRows {
    /// The rows for the interval between `before` and `after`.
    pub fn between(before: &Scrape, after: &Scrape) -> ServeRows {
        let stages = mt_serve::metrics::STAGES
            .iter()
            .zip(before.stages.iter().zip(&after.stages))
            .map(|(&name, (b, a))| {
                let count = a.count.saturating_sub(b.count);
                StageRow {
                    name,
                    count,
                    mean_us: if count == 0 {
                        0.0
                    } else {
                        (a.mean_us * a.count as f64 - b.mean_us * b.count as f64) / count as f64
                    },
                    p50_us: a.p50_us,
                    p99_us: a.p99_us,
                }
            })
            .collect();
        let hits = after.cache.0.saturating_sub(before.cache.0);
        let lookups = hits + after.cache.1.saturating_sub(before.cache.1);
        let wall_us = after.at.duration_since(before.at).as_secs_f64() * 1e6;
        ServeRows {
            stages,
            cache_hit_ratio: if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            worker_busy_share: after.busy_us.saturating_sub(before.busy_us) as f64
                / (after.workers.max(1) as f64 * wall_us),
        }
    }

    /// The sequential stages the interval's requests passed through.
    pub fn sequential(&self) -> impl Iterator<Item = &StageRow> {
        self.stages
            .iter()
            .filter(|s| s.count > 0 && SEQUENTIAL_STAGES.contains(&s.name))
    }
}

/// The simulator layer on a serve workload's own programs, run in
/// process the way a worker runs them (assemble, fresh machine, load with
/// translation, warmed text, run), plus a warm re-run of each.
pub fn sim_rows(programs: &[GenProgram], log: &mut StepLog) -> Result<Counts, String> {
    let mut counts = Counts::default();
    for p in programs {
        let job = job_for(p);
        let (program, _) = log
            .time("asm.parse", || {
                mt_asm::parse_with_source_map(&job.source, job.options.base)
            })
            .map_err(|e| e.to_string())?;
        let mut m = log.time("sim.new", || Machine::new(job.options.sim_config()));
        log.time("sim.install", || {
            m.load_program(&program);
            m.warm_instructions(&program);
        });
        let cold = log
            .time("sim.run-cold", || m.run())
            .map_err(|e| e.to_string())?;
        log.time("sim.reset-for-rerun", || m.reset_for_rerun());
        let warm = log
            .time("sim.run-warm", || m.run())
            .map_err(|e| e.to_string())?;
        counts.add_run(&cold, false);
        counts.add_run(&warm, true);
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_come_from_the_stats_object() {
        let body = b"{\n  \"stats\": {\n    \"cycles\": 228123,\n    \"drain_cycles\": 4\n  }\n}";
        assert_eq!(body_cycles(body), Some(228_123));
        assert_eq!(body_cycles(b"{}"), None);
    }

    #[test]
    fn sampling_takes_about_one_in_sixty_four() {
        let n = (0..64_000).filter(|&i| sampled(9, i)).count();
        assert!((800..1200).contains(&n), "{n}");
    }

    #[test]
    fn accounting_invariant() {
        let mut s = Scrape {
            at: Instant::now(),
            stages: Vec::new(),
            busy_us: 0,
            workers: 2,
            cache: (0, 0),
            accounting: [10, 7, 1, 1, 1],
        };
        assert!(s.accounting_holds());
        s.accounting[0] = 11;
        assert!(!s.accounting_holds());
    }

    #[test]
    fn a_short_miss_phase_checks_out() {
        let serve = Serve::setup(Traffic::Miss, 3).unwrap();
        let (mut phase, traced) = serve.phase(0.3, true);
        assert!(phase.attempted > 0);
        serve.check_after(&mut phase, &traced.sampled);
        assert_eq!(phase.failed, 0, "{:?}", phase.failures);
        assert_eq!(traced.logs.len(), CLIENTS);
        let scrape = serve.scrape().unwrap();
        assert_eq!(scrape.cache.0, 0, "distinct programs never hit");
        serve.shutdown();
    }

    #[test]
    fn hit_traffic_only_hits() {
        let serve = Serve::setup(Traffic::Hit, 4).unwrap();
        let before = serve.scrape().unwrap();
        let (phase, _) = serve.phase(0.2, false);
        assert_eq!(phase.failed, 0, "{:?}", phase.failures);
        let rows = ServeRows::between(&before, &serve.scrape().unwrap());
        assert_eq!(rows.cache_hit_ratio, 1.0);
        let queue = rows.stages.iter().find(|s| s.name == "queue-wait").unwrap();
        assert_eq!((queue.count, queue.mean_us), (0, 0.0));
        assert!(rows.sequential().all(|s| s.name != "worker-service"));
        serve.shutdown();
    }
}

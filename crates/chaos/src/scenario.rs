//! Scenario kinds, the seeded plan, and per-scenario execution.
//!
//! Every scenario is one self-contained act of client-side misbehavior
//! (or a hook-triggered server-side fault) followed by a local verdict:
//! did the server respond the way a correct implementation must? The
//! cross-scenario properties — healthz, pool strength, accounting —
//! are checked by [`crate::campaign`], not here.
//!
//! Scenarios draw any randomness they need (unique source tags, burst
//! widths) from the campaign's one [`SplitMix64`] stream, so the whole
//! campaign is a pure function of the seed.

use std::io::Write;
use std::net::Shutdown;
use std::time::Duration;

use mt_fault::SplitMix64;

use crate::httpc::{self, Reply};
use crate::{CLIENT_ID, KILL_MARKER, PANIC_MARKER};

/// One kind of injected trouble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// An open-loop burst of concurrent unique jobs — exercises the
    /// queue, 429 rejection, and per-client fairness under pressure.
    Burst,
    /// A connection that dies mid-request-line.
    TornHead,
    /// A full head promising a body, half the body, then a disconnect.
    MidBodyDisconnect,
    /// A valid request whose write side is shut down before the
    /// response is read (`shutdown(Write)` half-close).
    HalfClose,
    /// A head whose `Content-Length` exceeds the server's hard body
    /// cap — must be refused with `413` without reading the body.
    OversizedBody,
    /// A header dribbled byte-by-byte with a long mid-head stall —
    /// the slow-loris probe for the header read deadline.
    SlowLoris,
    /// A job that panics inside the worker (`--chaos-hooks` only);
    /// expects a structured `500 worker-panic` and a rebuilt machine.
    PanicJob,
    /// A job that kills the worker thread outright (`--chaos-hooks`
    /// only); expects `500 worker-lost` and a supervisor respawn.
    KillWorker,
    /// A job whose deadline is already burned at admission; expects a
    /// `503 deadline-exceeded` shed that never occupies a worker.
    DeadlineShed,
    /// A long-running job with a short deadline; expects cooperative
    /// cancellation at a simulator checkpoint (`503 deadline-exceeded`).
    DeadlineMidRun,
}

impl ScenarioKind {
    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Burst => "burst",
            ScenarioKind::TornHead => "torn-head",
            ScenarioKind::MidBodyDisconnect => "mid-body-disconnect",
            ScenarioKind::HalfClose => "half-close",
            ScenarioKind::OversizedBody => "oversized-body",
            ScenarioKind::SlowLoris => "slow-loris",
            ScenarioKind::PanicJob => "panic-job",
            ScenarioKind::KillWorker => "kill-worker",
            ScenarioKind::DeadlineShed => "deadline-shed",
            ScenarioKind::DeadlineMidRun => "deadline-mid-run",
        }
    }
}

/// The kinds a hooks-off campaign may draw.
const SAFE_MENU: [ScenarioKind; 8] = [
    ScenarioKind::Burst,
    ScenarioKind::TornHead,
    ScenarioKind::MidBodyDisconnect,
    ScenarioKind::HalfClose,
    ScenarioKind::OversizedBody,
    ScenarioKind::SlowLoris,
    ScenarioKind::DeadlineShed,
    ScenarioKind::DeadlineMidRun,
];

/// How long the slow-loris scenario stalls mid-header: past the 250 ms
/// header timeout of `repro-chaos`'s in-process server, so the defense
/// fires there; a server with a longer timeout still shows it survives
/// a dribbled head.
const SLOW_WAIT: Duration = Duration::from_millis(600);

/// The extra kinds unlocked by `--chaos-hooks`.
const HOOKED_MENU: [ScenarioKind; 2] = [ScenarioKind::PanicJob, ScenarioKind::KillWorker];

/// Draws the scenario sequence for a campaign. Pure in `(seed,
/// scenarios, hooks)` — the reproducibility contract.
pub fn plan(seed: u64, scenarios: usize, hooks: bool) -> Vec<ScenarioKind> {
    let mut menu: Vec<ScenarioKind> = SAFE_MENU.to_vec();
    if hooks {
        menu.extend_from_slice(&HOOKED_MENU);
    }
    let mut rng = SplitMix64::new(seed);
    (0..scenarios)
        .map(|_| menu[rng.below(menu.len() as u64) as usize])
        .collect()
}

/// What one scenario did and how it judged the server's reaction.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Local verdict: the server reacted the way a correct one must.
    pub ok: bool,
    /// One-line human note for the report/log.
    pub note: String,
    /// True iff this scenario injected a caught worker panic.
    pub injected_panic: bool,
    /// True iff this scenario injected a worker-thread death.
    pub injected_kill: bool,
}

impl ScenarioOutcome {
    fn plain(ok: bool, note: impl Into<String>) -> ScenarioOutcome {
        ScenarioOutcome {
            ok,
            note: note.into(),
            injected_panic: false,
            injected_kill: false,
        }
    }
}

/// A tiny unique program: distinct tags defeat the response cache so
/// every scenario's job really reaches a worker.
fn tagged_source(rng: &mut SplitMix64) -> String {
    format!("li r9, {}\nhalt\n", rng.below(1 << 20))
}

/// An unbounded spin with a unique tag — only ends via cycle limit,
/// deadline, or drain cancellation.
fn spin_source(rng: &mut SplitMix64) -> String {
    format!(
        "li r9, {}\nspin:\nbeq r0, r0, spin\nhalt\n",
        rng.below(1 << 20)
    )
}

/// Runs one scenario against the target.
pub fn execute(kind: ScenarioKind, addr: &str, rng: &mut SplitMix64) -> ScenarioOutcome {
    match kind {
        ScenarioKind::Burst => burst(addr, rng),
        ScenarioKind::TornHead => torn_head(addr),
        ScenarioKind::MidBodyDisconnect => mid_body_disconnect(addr),
        ScenarioKind::HalfClose => half_close(addr, rng),
        ScenarioKind::OversizedBody => oversized_body(addr),
        ScenarioKind::SlowLoris => slow_loris(addr),
        ScenarioKind::PanicJob => panic_job(addr, rng),
        ScenarioKind::KillWorker => kill_worker(addr, rng),
        ScenarioKind::DeadlineShed => deadline_shed(addr, rng),
        ScenarioKind::DeadlineMidRun => deadline_mid_run(addr, rng),
    }
}

fn burst(addr: &str, rng: &mut SplitMix64) -> ScenarioOutcome {
    // 4..=9 concurrent unique jobs; sources are drawn *before* the
    // threads spawn so the RNG consumption stays deterministic.
    let width = 4 + rng.below(6) as usize;
    let sources: Vec<String> = (0..width).map(|_| tagged_source(rng)).collect();
    let replies: Vec<Result<Reply, httpc::Error>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .iter()
            .map(|src| scope.spawn(|| httpc::post(addr, "/run", CLIENT_ID, src.as_bytes())))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Under pressure every job must still end in a *structured* answer:
    // 200 (served), 429 (queue full), or 503 (shed/overloaded).
    let mut bad = Vec::new();
    for reply in &replies {
        match reply {
            Ok(r) if matches!(r.status, 200 | 429 | 503) => {}
            Ok(r) => bad.push(format!("status {}", r.status)),
            Err(e) => bad.push(e.to_string()),
        }
    }
    ScenarioOutcome::plain(
        bad.is_empty(),
        if bad.is_empty() {
            format!("{width} concurrent jobs all answered")
        } else {
            format!("burst of {width}: {}", bad.join("; "))
        },
    )
}

fn torn_head(addr: &str) -> ScenarioOutcome {
    match httpc::connect(addr) {
        Ok(mut stream) => {
            // Write part of the request line and vanish. Any write
            // error is fine — the point is the *server's* recovery.
            let _ = stream.write_all(b"POST /run HTT");
            drop(stream);
            ScenarioOutcome::plain(true, "request line torn mid-token")
        }
        Err(e) => ScenarioOutcome::plain(false, e.to_string()),
    }
}

fn mid_body_disconnect(addr: &str) -> ScenarioOutcome {
    match httpc::connect(addr) {
        Ok(mut stream) => {
            let _ = write!(
                stream,
                "POST /run HTTP/1.1\r\nHost: {}\r\nContent-Length: 64\r\n\
                 Connection: close\r\n\r\nli r9,",
                addr
            );
            drop(stream);
            ScenarioOutcome::plain(true, "promised 64 body bytes, sent 6, disconnected")
        }
        Err(e) => ScenarioOutcome::plain(false, e.to_string()),
    }
}

fn half_close(addr: &str, rng: &mut SplitMix64) -> ScenarioOutcome {
    let source = tagged_source(rng);
    let stream = match httpc::connect(addr) {
        Ok(s) => s,
        Err(e) => return ScenarioOutcome::plain(false, e.to_string()),
    };
    let _ = httpc::write_request(
        &mut &stream,
        addr,
        "POST",
        "/run",
        CLIENT_ID,
        source.as_bytes(),
    );
    // FIN the write side: a correct server still answers the complete
    // request it already holds.
    let _ = stream.shutdown(Shutdown::Write);
    match httpc::read_reply(stream) {
        Ok(r) if r.status == 200 => ScenarioOutcome::plain(true, "served 200 after half-close"),
        Ok(r) => ScenarioOutcome::plain(false, format!("half-close answered {}", r.status)),
        Err(e) => ScenarioOutcome::plain(false, format!("half-close: {e}")),
    }
}

fn oversized_body(addr: &str) -> ScenarioOutcome {
    let stream = match httpc::connect(addr) {
        Ok(s) => s,
        Err(e) => return ScenarioOutcome::plain(false, e.to_string()),
    };
    // 2 MiB claimed, zero sent: the server must refuse on the header
    // alone instead of waiting for a body that never comes.
    let _ = write!(
        &stream,
        "POST /run HTTP/1.1\r\nHost: {}\r\nContent-Length: 2097152\r\nConnection: close\r\n\r\n",
        addr
    );
    match httpc::read_reply(stream) {
        Ok(r) if r.status == 413 => ScenarioOutcome::plain(true, "413 on claimed 2 MiB body"),
        Ok(r) => ScenarioOutcome::plain(false, format!("oversized body answered {}", r.status)),
        Err(e) => ScenarioOutcome::plain(false, format!("oversized body: {e}")),
    }
}

fn slow_loris(addr: &str) -> ScenarioOutcome {
    let stream = match httpc::connect(addr) {
        Ok(s) => s,
        Err(e) => return ScenarioOutcome::plain(false, e.to_string()),
    };
    let _ = (&stream).write_all(b"POST /run HTTP/1.1\r\nHost: loris\r\n");
    std::thread::sleep(SLOW_WAIT);
    let _ = (&stream).write_all(b"Content-Length: 5\r\nConnection: close\r\n\r\nhalt\n");
    // Either verdict is correct, config-dependent: a 408/closed socket
    // when the stall beat `--header-timeout-ms`, a served request when
    // it did not. The scenario fails only if the server *hangs* — the
    // read below is time-bounded — or answers garbage.
    match httpc::read_reply(stream) {
        Ok(r) if matches!(r.status, 408 | 200 | 400 | 422) => {
            ScenarioOutcome::plain(true, format!("loris answered {}", r.status))
        }
        Ok(r) => ScenarioOutcome::plain(false, format!("loris answered {}", r.status)),
        Err(_) => ScenarioOutcome::plain(true, "loris connection closed by server"),
    }
}

fn panic_job(addr: &str, rng: &mut SplitMix64) -> ScenarioOutcome {
    let source = format!("; {PANIC_MARKER}\n{}", tagged_source(rng));
    match httpc::post(addr, "/run", CLIENT_ID, source.as_bytes()) {
        Ok(r) if r.status == 500 && r.body.contains("worker-panic") => ScenarioOutcome {
            ok: true,
            note: "500 worker-panic, machine quarantined".to_string(),
            injected_panic: true,
            injected_kill: false,
        },
        Ok(r) => ScenarioOutcome::plain(
            false,
            format!("panic hook answered {} (hooks on the server?)", r.status),
        ),
        Err(e) => ScenarioOutcome::plain(false, format!("panic job: {e}")),
    }
}

fn kill_worker(addr: &str, rng: &mut SplitMix64) -> ScenarioOutcome {
    let source = format!("; {KILL_MARKER}\n{}", tagged_source(rng));
    match httpc::post(addr, "/run", CLIENT_ID, source.as_bytes()) {
        Ok(r) if r.status == 500 && r.body.contains("worker-lost") => ScenarioOutcome {
            ok: true,
            note: "500 worker-lost, supervisor owes a respawn".to_string(),
            injected_panic: false,
            injected_kill: true,
        },
        Ok(r) => ScenarioOutcome::plain(
            false,
            format!("kill hook answered {} (hooks on the server?)", r.status),
        ),
        Err(e) => ScenarioOutcome::plain(false, format!("kill worker: {e}")),
    }
}

fn deadline_shed(addr: &str, rng: &mut SplitMix64) -> ScenarioOutcome {
    // A zero budget is expired on arrival: the job must be shed at
    // admission (or at dequeue) with a structured 503 and must never
    // produce a result.
    let source = tagged_source(rng);
    match httpc::post(addr, "/run?deadline-ms=0", CLIENT_ID, source.as_bytes()) {
        Ok(r) if r.status == 503 && r.body.contains("deadline-exceeded") => {
            ScenarioOutcome::plain(true, "503 deadline-exceeded shed")
        }
        Ok(r) => ScenarioOutcome::plain(false, format!("expired deadline answered {}", r.status)),
        Err(e) => ScenarioOutcome::plain(false, format!("deadline shed: {e}")),
    }
}

fn deadline_mid_run(addr: &str, rng: &mut SplitMix64) -> ScenarioOutcome {
    // A spin that would run ~4G cycles against a 75 ms budget: the
    // worker must notice at a cooperative checkpoint and answer 503
    // long before the cycle limit.
    let source = spin_source(rng);
    let target = "/run?cycles=4000000000&deadline-ms=75";
    match httpc::post(addr, target, CLIENT_ID, source.as_bytes()) {
        Ok(r) if r.status == 503 && r.body.contains("deadline-exceeded") => {
            ScenarioOutcome::plain(true, "503 deadline-exceeded mid-run")
        }
        Ok(r) => ScenarioOutcome::plain(false, format!("mid-run deadline answered {}", r.status)),
        Err(e) => ScenarioOutcome::plain(false, format!("deadline mid-run: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_reproducible() {
        let a = plan(0xC4A05, 32, true);
        let b = plan(0xC4A05, 32, true);
        assert_eq!(a, b);
        // A different seed gives a different sequence (overwhelmingly).
        assert_ne!(a, plan(0xC4A06, 32, true));
    }

    #[test]
    fn hooks_off_plan_never_draws_hooked_kinds() {
        for seed in 0..64 {
            for kind in plan(seed, 40, false) {
                assert!(
                    !matches!(kind, ScenarioKind::PanicJob | ScenarioKind::KillWorker),
                    "seed {seed} drew {kind:?} without hooks"
                );
            }
        }
    }

    #[test]
    fn hooked_plan_eventually_draws_every_kind() {
        let drawn = plan(0xC4A05, 200, true);
        for kind in SAFE_MENU.iter().chain(HOOKED_MENU.iter()) {
            assert!(drawn.contains(kind), "200 draws never hit {kind:?}");
        }
    }

    #[test]
    fn default_campaign_draw_covers_every_kind() {
        // The committed BENCH_chaos.json baseline runs the default
        // seed; this pins that the default plan exercises the whole
        // menu, hooks included.
        let cfg = crate::ChaosConfig::default();
        let drawn = plan(cfg.seed, cfg.scenarios, true);
        for kind in SAFE_MENU.iter().chain(HOOKED_MENU.iter()) {
            assert!(drawn.contains(kind), "default draw misses {kind:?}");
        }
    }

    #[test]
    fn kind_names_are_stable() {
        // The names are report schema; renaming one breaks committed
        // BENCH_chaos.json baselines.
        let names: Vec<&str> = SAFE_MENU
            .iter()
            .chain(HOOKED_MENU.iter())
            .map(|k| k.name())
            .collect();
        assert_eq!(
            names,
            [
                "burst",
                "torn-head",
                "mid-body-disconnect",
                "half-close",
                "oversized-body",
                "slow-loris",
                "deadline-shed",
                "deadline-mid-run",
                "panic-job",
                "kill-worker",
            ]
        );
    }

    #[test]
    fn tagged_sources_are_unique_per_draw() {
        let mut rng = SplitMix64::new(7);
        let a = tagged_source(&mut rng);
        let b = tagged_source(&mut rng);
        assert_ne!(a, b);
        assert!(a.starts_with("li r9, ") && a.ends_with("halt\n"));
    }
}

//! The campaign driver: run the seeded scenario plan against a live
//! server and verify the service-level recovery properties.
//!
//! Between scenarios the driver insists the server *quiesces* (no busy
//! workers, an empty queue) and still answers `GET /healthz`; after a
//! worker kill it additionally waits for the supervisor's respawn so
//! the next scenario meets a full-strength pool. The final sweep checks
//! the global properties one scenario alone cannot: the accounting
//! partition balances, every injected kill was matched by a respawn,
//! and a trivial job still runs to a bit-normal `200`.

use std::time::{Duration, Instant};

use mt_fault::SplitMix64;
use mt_trace::Json;

use crate::httpc::{self, field_u64};
use crate::scenario::{self, ScenarioKind};
use crate::{ChaosConfig, CLIENT_ID};

/// The finished campaign: the `mt-chaos-v1` report and a pass verdict.
#[derive(Debug)]
pub struct CampaignReport {
    /// The `mt-chaos-v1` JSON document.
    pub json: Json,
    /// True iff every scenario and every final check passed.
    pub ok: bool,
}

/// One scenario's report row.
struct Row {
    kind: ScenarioKind,
    ok: bool,
    note: String,
}

/// How long to wait for the server to quiesce or respawn a worker between
/// scenarios before declaring it wedged.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(30);

/// Polls `/metrics` until the server is quiescent (no busy workers, an
/// empty queue). Returns an error note on timeout.
fn wait_quiesce(addr: &str) -> Result<(), String> {
    let deadline = Instant::now() + QUIESCE_TIMEOUT;
    loop {
        if let Ok(doc) = httpc::metrics(addr) {
            let busy = field_u64(&doc, &["busy_workers"]).unwrap_or(u64::MAX);
            let depth = field_u64(&doc, &["queue_depth"]).unwrap_or(u64::MAX);
            if busy == 0 && depth == 0 {
                return Ok(());
            }
        }
        if Instant::now() >= deadline {
            return Err("server never quiesced".to_string());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Polls until `registry.counters.worker_respawns` reaches `want`, so a
/// killed worker is back before the next scenario leans on the pool.
fn wait_respawns(addr: &str, want: u64) -> Result<(), String> {
    let deadline = Instant::now() + QUIESCE_TIMEOUT;
    loop {
        if let Ok(doc) = httpc::metrics(addr) {
            if respawn_count(&doc) >= want {
                return Ok(());
            }
        }
        if Instant::now() >= deadline {
            return Err(format!("supervisor never reached {want} respawn(s)"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn respawn_count(metrics: &Json) -> u64 {
    field_u64(metrics, &["registry", "counters", "worker_respawns"]).unwrap_or(0)
}

fn healthz_ok(addr: &str) -> bool {
    matches!(httpc::get(addr, "/healthz"), Ok(r) if r.status == 200)
}

/// Runs the full campaign against the server at `addr` (`host:port`).
/// `Err` means the harness could not even talk to the server; every
/// in-protocol failure lands in the report with `ok: false` instead.
pub fn run_campaign(addr: &str, cfg: &ChaosConfig) -> Result<CampaignReport, String> {
    let started = Instant::now();
    if !healthz_ok(addr) {
        return Err(format!("{addr}: /healthz not answering before campaign"));
    }
    let baseline = httpc::metrics(addr)?;
    let respawns_before = respawn_count(&baseline);

    let kinds = scenario::plan(cfg.seed, cfg.scenarios, cfg.expect_hooks);
    let mut rng = SplitMix64::new(cfg.seed ^ 0x5CEA_A210); // distinct stream from the plan's
    let mut rows = Vec::new();
    let (mut panics, mut kills) = (0u64, 0u64);
    for kind in kinds {
        let outcome = scenario::execute(kind, addr, &mut rng);
        panics += outcome.injected_panic as u64;
        kills += outcome.injected_kill as u64;
        let mut ok = outcome.ok;
        let mut note = outcome.note;
        // The liveness contract holds after *every* scenario, not just
        // at the end: healthz answers and the service drains back to
        // idle. A kill additionally owes a respawn before we move on.
        if !healthz_ok(addr) {
            ok = false;
            note = format!("{note}; /healthz dead after scenario");
        } else if let Err(e) = wait_quiesce(addr) {
            ok = false;
            note = format!("{note}; {e}");
        } else if outcome.injected_kill {
            if let Err(e) = wait_respawns(addr, respawns_before + kills) {
                ok = false;
                note = format!("{note}; {e}");
            }
        }
        rows.push(Row { kind, ok, note });
    }

    // Final sweep. Pool strength is proven by *serving*, not just by
    // liveness: a fresh unique job must still come back 200.
    let final_healthz = healthz_ok(addr);
    let probe = format!("li r9, {}\nhalt\n", rng.below(1 << 20));
    let pool_alive = matches!(
        httpc::post(addr, "/run", CLIENT_ID, probe.as_bytes()),
        Ok(r) if r.status == 200
    );
    let quiesced = wait_quiesce(addr).is_ok();
    let metrics = httpc::metrics(addr)?;
    let acct = |k: &str| field_u64(&metrics, &["accounting", k]).unwrap_or(u64::MAX);
    let (accepted, completed, rejected, shed, failed) = (
        acct("accepted"),
        acct("completed"),
        acct("rejected"),
        acct("shed"),
        acct("failed"),
    );
    let invariant_ok = quiesced && accepted == completed + rejected + shed + failed;
    let respawns_after = respawn_count(&metrics);
    let respawns_match = respawns_after == respawns_before + kills;

    let scenarios_ok = rows.iter().filter(|r| r.ok).count();
    let all_scenarios_ok = scenarios_ok == rows.len();
    let all_ok = all_scenarios_ok && final_healthz && pool_alive && invariant_ok && respawns_match;

    let scenarios = Json::Arr(
        rows.iter()
            .enumerate()
            .map(|(i, r)| {
                Json::obj([
                    ("index", Json::U64(i as u64)),
                    ("kind", Json::Str(r.kind.name().to_string())),
                    ("ok", Json::Bool(r.ok)),
                    ("note", Json::Str(r.note.clone())),
                ])
            })
            .collect(),
    );
    let json = Json::obj([
        ("schema", Json::Str("mt-chaos-v1".to_string())),
        ("seed", Json::Str(format!("{:#x}", cfg.seed))),
        ("chaos_hooks", Json::Bool(cfg.expect_hooks)),
        ("scenarios_total", Json::U64(rows.len() as u64)),
        ("scenarios_ok", Json::U64(scenarios_ok as u64)),
        ("scenarios", scenarios),
        (
            "injected",
            Json::obj([("panics", Json::U64(panics)), ("kills", Json::U64(kills))]),
        ),
        (
            "checks",
            Json::obj([
                ("healthz_ok", Json::Bool(final_healthz)),
                ("pool_alive", Json::Bool(pool_alive)),
                ("invariant_ok", Json::Bool(invariant_ok)),
                ("respawns_match", Json::Bool(respawns_match)),
                ("all_ok", Json::Bool(all_ok)),
            ]),
        ),
        (
            "accounting",
            Json::obj([
                ("accepted", Json::U64(accepted)),
                ("completed", Json::U64(completed)),
                ("rejected", Json::U64(rejected)),
                ("shed", Json::U64(shed)),
                ("failed", Json::U64(failed)),
            ]),
        ),
        (
            "elapsed_ms",
            Json::U64(started.elapsed().as_millis() as u64),
        ),
    ]);
    Ok(CampaignReport { json, ok: all_ok })
}

//! `mtasm chaos` — point the seeded `mt-chaos` campaign at a running
//! `mt-serve` instance.
//!
//! ```text
//! mtasm chaos [--url http://host:port] [--seed N|0xN] [--scenarios N]
//!             [--hooks] [--slow-wait-ms N] [--json]
//! ```
//!
//! Hooks default to **off**: without `--hooks` the plan never draws the
//! worker-panic/worker-kill scenarios, so the command is safe to aim at
//! any server — it only misbehaves as a *client* (torn requests,
//! half-closes, slow-loris stalls, burned deadlines) and verifies the
//! server shrugs every one of them off. Pass `--hooks` only when the
//! target was started with `--chaos-hooks`.
//!
//! Exits nonzero if any scenario or any final check (healthz, pool
//! strength, accounting invariant, respawn match) fails. `--json`
//! prints the full `mt-chaos-v1` report.

use std::time::Duration;

use mt_chaos::{run_campaign, ChaosConfig};
use mt_trace::Json;

fn parse_u64(text: &str) -> Option<u64> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

/// Entry point for `mtasm chaos [flags]`.
pub fn run(args: &[String]) -> Result<(), String> {
    let mut cfg = ChaosConfig::default();
    let mut url = "http://127.0.0.1:8315".to_string();
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--url" => url = value("--url")?.to_string(),
            "--seed" => {
                cfg.seed = parse_u64(value("--seed")?).ok_or("bad --seed (need N or 0xN)")?;
            }
            "--scenarios" => {
                cfg.scenarios = value("--scenarios")?
                    .parse()
                    .map_err(|e| format!("bad --scenarios: {e}"))?;
            }
            "--slow-wait-ms" => {
                let ms: u64 = value("--slow-wait-ms")?
                    .parse()
                    .map_err(|e| format!("bad --slow-wait-ms: {e}"))?;
                cfg.slow_wait = Duration::from_millis(ms);
            }
            "--hooks" => cfg.expect_hooks = true,
            "--json" => json = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    cfg.addr = crate::client::host_port(&url)?.to_string();

    let report = run_campaign(&cfg)?;
    if json {
        println!("{}", report.json.pretty());
    } else {
        let field = |k: &str| report.json.get(k).cloned().unwrap_or(Json::Null);
        println!(
            "chaos: {} — seed {}, {} scenarios, {} ok, checks {}",
            cfg.addr,
            field("seed"),
            field("scenarios_total"),
            field("scenarios_ok"),
            field("checks")
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
    }
    if report.ok {
        Ok(())
    } else {
        Err("chaos campaign failed (see scenario verdicts and checks)".to_string())
    }
}

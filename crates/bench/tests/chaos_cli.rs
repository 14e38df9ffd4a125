//! The `repro-chaos` binary against a server it did not start, as `./ci`
//! drives it: `--url` runs the hooks-off campaign over real TCP, its
//! text report heads with the seed in hex, and `--url` together with
//! `--drain` is a usage error.

use std::process::Command;

use mt_serve::{serve, ServerConfig};
use mt_trace::Json;

#[test]
fn url_runs_the_campaign_against_a_running_server() {
    let handle = serve(ServerConfig::default()).expect("binds an ephemeral port");
    let url = format!("http://{}", handle.addr());
    let out = Command::new(env!("CARGO_BIN_EXE_repro-chaos"))
        .args(["--url", &url, "--scenarios", "4", "--json"])
        .output()
        .expect("repro-chaos runs");
    handle.shutdown();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "repro-chaos --url failed:\n{stdout}");
    let doc = mt_trace::json::parse(&stdout).expect("an mt-chaos-v1 document");
    assert_eq!(doc.get("chaos_hooks"), Some(&Json::Bool(false)));
    let rows = doc.get("scenarios").unwrap().items();
    assert_eq!(rows.len(), 4);
    for row in rows {
        assert_eq!(row.get("ok"), Some(&Json::Bool(true)), "{row:?}");
    }
    let Some(Json::Obj(checks)) = doc.get("checks") else {
        panic!("no checks in {stdout}");
    };
    for (check, verdict) in checks {
        assert_eq!(verdict, &Json::Bool(true), "{check}");
    }
}

#[test]
fn text_report_heads_with_the_seed_in_hex() {
    let handle = serve(ServerConfig::default()).expect("binds an ephemeral port");
    let url = format!("http://{}", handle.addr());
    let out = Command::new(env!("CARGO_BIN_EXE_repro-chaos"))
        .args(["--url", &url, "--seed", "0XC4A19", "--scenarios", "2"])
        .output()
        .expect("repro-chaos runs");
    handle.shutdown();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "repro-chaos --url failed:\n{stdout}");
    assert_eq!(
        stdout.lines().next(),
        Some("Chaos campaign — seed 0xc4a19, 2 scenarios, 2 ok"),
        "{stdout}"
    );
}

#[test]
fn url_with_drain_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro-chaos"))
        .args(["--url", "http://127.0.0.1:1", "--drain"])
        .output()
        .expect("repro-chaos runs");
    assert_eq!(out.status.code(), Some(2));
}

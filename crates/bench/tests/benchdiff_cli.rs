//! The `repro-benchdiff` binary as `./ci` drives it: identical serve
//! documents pass, and one injected regression fails the gate.

use std::path::{Path, PathBuf};
use std::process::Command;

use mt_trace::Json;

const BENCH_SERVE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");

/// Runs `repro-benchdiff --profile serve old new`, returning whether it
/// passed.
fn benchdiff_passes(old: &Path, new: &Path) -> bool {
    Command::new(env!("CARGO_BIN_EXE_repro-benchdiff"))
        .arg("--profile")
        .arg("serve")
        .arg(old)
        .arg(new)
        .output()
        .expect("repro-benchdiff runs")
        .status
        .success()
}

#[test]
fn identical_documents_pass() {
    let bench = Path::new(BENCH_SERVE);
    assert!(
        benchdiff_passes(bench, bench),
        "repro-benchdiff flagged identical documents"
    );
}

#[test]
fn an_injected_regression_fails() {
    let text = std::fs::read_to_string(BENCH_SERVE).expect("BENCH_serve.json is committed");
    let mut doc = mt_trace::json::parse(&text).expect("BENCH_serve.json parses");
    let Json::Obj(members) = &mut doc else {
        panic!("BENCH_serve.json is an object");
    };
    let ok = members
        .iter_mut()
        .find_map(|(k, v)| (k == "ok").then_some(v))
        .expect("BENCH_serve.json has an `ok` count");
    let Json::U64(n) = *ok else {
        panic!("`ok` is a count, got {ok:?}");
    };
    *ok = Json::U64(n - 1);
    let perturbed: PathBuf =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_serve.perturbed.json");
    std::fs::write(&perturbed, doc.pretty()).expect("writes the perturbed copy");
    let passed = benchdiff_passes(Path::new(BENCH_SERVE), &perturbed);
    std::fs::remove_file(&perturbed).ok();
    assert!(!passed, "repro-benchdiff missed an injected regression");
}

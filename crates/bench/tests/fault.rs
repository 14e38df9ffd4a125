//! Campaign-level detection test over the verified kernel set.

use mt_bench::fault::{run_kernel_campaign, standard_fault_kernels};
use mt_fault::{CampaignConfig, Outcome};

/// A pinned seed whose plan is known to contain an organic FPU-register
/// detection over the standard kernel set, proving the campaign
/// classifier wires the §2.3.1 abort signal through to
/// `Outcome::Detected`. (The plan is a pure function of seed and golden
/// cycle counts, so this is deterministic; if a timing change
/// reshuffles plans, re-pin the seed by scanning a few dozen.)
#[test]
fn campaign_classifies_an_organic_abort_as_detected() {
    let cfg = CampaignConfig {
        seed: 0x1234,
        injections: 500,
        ..CampaignConfig::default()
    };
    let result = run_kernel_campaign(&standard_fault_kernels(), &cfg).unwrap();
    let organic = result
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Detected && r.injection.target.structure() == "fpu_reg")
        .count();
    assert!(
        organic >= 1,
        "expected an organic fpu_reg detection at seed {:#x}; breakdown: {:?}",
        cfg.seed,
        result.counts
    );
}

/// The committed `repro-fault --seed 0xA5 --injections 500` campaign
/// lands at least one injection in the §2.3.1 detected class. `./ci`
/// byte-diffs a fresh campaign against this file, so together the two
/// checks hold the fresh run to it.
#[test]
fn committed_fault_campaign_detects_an_injection() {
    let doc = mt_trace::json::parse(include_str!("../../../BENCH_fault.json"))
        .expect("BENCH_fault.json parses");
    let detected = doc
        .get("outcomes")
        .and_then(|o| o.get("detected"))
        .and_then(|d| d.as_f64())
        .expect("BENCH_fault.json has a campaign-total outcomes.detected");
    assert!(
        detected >= 1.0,
        "no detected injections at seed 0xA5 in BENCH_fault.json"
    );
}

/// The standard campaign reproduces byte-identically from its seed.
#[test]
fn standard_campaign_is_reproducible() {
    let cfg = CampaignConfig {
        injections: 100,
        ..CampaignConfig::default()
    };
    let a = run_kernel_campaign(&standard_fault_kernels(), &cfg).unwrap();
    let b = run_kernel_campaign(&standard_fault_kernels(), &cfg).unwrap();
    assert_eq!(a.to_json().pretty(), b.to_json().pretty());
}

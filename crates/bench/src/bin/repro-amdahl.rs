//! Regenerates Fig. 11: "Potential vector performance obtained" — overall
//! performance relative to the scalar machine as a function of the ratio
//! of peak vector to scalar performance, for 20%–100% vectorized code,
//! with the MultiTitan (ratio 2) and Cray-1S (ratio ~10) marked, plus the
//! effective-vectorization fits for the measured Livermore subsets.
//!
//! Run with `cargo run --release -p mt-bench --bin repro-amdahl`;
//! `--json` emits the serialized-issue measurements, the Fig. 11 model
//! curves, and the effective-vectorization fits as an `mt-bench-v1`
//! document.

use mt_baseline::amdahl::{
    effective_vectorization, figure_11_curves, overall_speedup, CRAY_PEAK_RATIO,
    MULTITITAN_PEAK_RATIO,
};
use mt_baseline::published::harmonic_mean;

fn main() {
    if std::env::args().any(|a| a == "--json") {
        json_report();
        return;
    }
    println!("Figure 11 — overall performance vs peak/scalar ratio\n");
    println!("  ratio:   1.0   2.0   4.0   6.0   8.0  10.0");
    for curve in figure_11_curves() {
        let samples: Vec<f64> = [1.0, 2.0, 4.0, 6.0, 8.0, 10.0]
            .iter()
            .map(|&r| overall_speedup(curve.vectorized_percent as f64 / 100.0, r))
            .collect();
        println!(
            "  {:>3}%   {}",
            curve.vectorized_percent,
            samples
                .iter()
                .map(|s| format!("{s:5.2}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    println!(
        "\n  MultiTitan sits at ratio {MULTITITAN_PEAK_RATIO}, the Cray-1S at ~{CRAY_PEAK_RATIO}."
    );
    println!(
        "  At 40% vectorized: MultiTitan {:.2}×, Cray-class {:.2}× — the cheap",
        overall_speedup(0.4, MULTITITAN_PEAK_RATIO),
        overall_speedup(0.4, CRAY_PEAK_RATIO)
    );
    println!(
        "  2× capability captures {:.0}% of the achievable improvement.\n",
        100.0 * (overall_speedup(0.4, MULTITITAN_PEAK_RATIO) - 1.0)
            / (overall_speedup(0.4, CRAY_PEAK_RATIO) - 1.0)
    );

    // Effective vectorization of the measured Livermore subsets: compare
    // the full machine against the serialized-issue ablation (vector
    // overlap disabled — the "scalar machine" stand-in), then invert the
    // Fig. 11 model at the MultiTitan's ratio of 2.
    println!("Effective vectorization fits (measured warm MFLOPS, ratio-2 model):");
    let full = mt_bench::livermore_mflops();
    let loops: Vec<u8> = (1..=24).collect();
    let serialized = mt_dse::sweep::sweep(&loops, |&n| {
        let cfg = mt_sim::SimConfig {
            serialized_issue: true,
            ..mt_sim::SimConfig::default()
        };
        mt_bench::run_with(&mt_kernels::livermore::by_number(n), cfg).mflops_warm()
    });
    let warm: Vec<f64> = full.iter().map(|&(_, _, w)| w).collect();
    for (label, range) in [
        ("loops 1-12 ", 0..12),
        ("loops 13-24", 12..24),
        ("loops 1-24 ", 0..24),
    ] {
        let hm = harmonic_mean(&warm[range.clone()]);
        let hm_s = harmonic_mean(&serialized[range]);
        let speedup = (hm / hm_s).clamp(1.0, 1.999);
        let f = effective_vectorization(speedup, 2.0).unwrap_or(0.0);
        println!(
            "  {label}: {hm:.1} vs {hm_s:.1} MFLOPS serialized → speedup {speedup:.2} → effective f ≈ {:.0}%",
            f * 100.0
        );
    }
}

/// `--json`: the serialized-issue Livermore measurements as `mt-bench-v1`
/// kernel reports, plus the Fig. 11 model curves and the
/// effective-vectorization fits as extra sections.
fn json_report() {
    use mt_trace::Json;
    let cfg = mt_sim::SimConfig {
        serialized_issue: true,
        ..mt_sim::SimConfig::default()
    };
    let loops: Vec<u8> = (1..=24).collect();
    let serialized = mt_dse::sweep::sweep(&loops, |&n| {
        let mut r = mt_bench::run_with(&mt_kernels::livermore::by_number(n), cfg.clone());
        r.name.push_str(" [serialized issue]");
        r
    });
    let mut doc = mt_bench::json::bench_json("amdahl", &serialized);

    let curves: Vec<Json> = figure_11_curves()
        .iter()
        .map(|c| {
            let samples: Vec<Json> = [1.0, 2.0, 4.0, 6.0, 8.0, 10.0]
                .iter()
                .map(|&r| Json::F64(overall_speedup(c.vectorized_percent as f64 / 100.0, r)))
                .collect();
            Json::obj([
                ("vectorized_percent", Json::U64(c.vectorized_percent as u64)),
                ("speedup_at_ratio_1_2_4_6_8_10", Json::Arr(samples)),
            ])
        })
        .collect();
    doc.push("figure_11_curves", Json::Arr(curves));

    let warm: Vec<f64> = mt_bench::livermore_mflops()
        .iter()
        .map(|&(_, _, w)| w)
        .collect();
    let hm_s: Vec<f64> = serialized.iter().map(|r| r.mflops_warm()).collect();
    let fit = |range: std::ops::Range<usize>| {
        let speedup =
            (harmonic_mean(&warm[range.clone()]) / harmonic_mean(&hm_s[range])).clamp(1.0, 1.999);
        Json::F64(effective_vectorization(speedup, 2.0).unwrap_or(0.0))
    };
    doc.push(
        "effective_vectorization",
        Json::obj([
            ("loops_1_12", fit(0..12)),
            ("loops_13_24", fit(12..24)),
            ("loops_1_24", fit(0..24)),
        ]),
    );
    println!("{}", doc.pretty());
}

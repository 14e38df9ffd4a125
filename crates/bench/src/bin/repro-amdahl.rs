//! Regenerates Fig. 11: "Potential vector performance obtained" — overall
//! performance relative to the scalar machine as a function of the ratio
//! of peak vector to scalar performance, for 20%–100% vectorized code,
//! with the MultiTitan (ratio 2) and Cray-1S (ratio ~10) marked, plus the
//! effective-vectorization fits for the measured Livermore subsets.
//!
//! The measurements are one grid, `serialized_issue=0,1` over loops
//! 1–24, run once by `mt_dse::run_grid`. Run with `cargo run --release
//! -p mt-bench --bin repro-amdahl`; `--json` emits that grid's `mt-dse-v1`
//! document plus the Fig. 11 model curves and the effective-vectorization
//! fits (the committed `BENCH_amdahl.json`, byte-gated by `./ci`).

use std::ops::Range;

use mt_baseline::amdahl::{
    effective_vectorization, figure_11_curves, overall_speedup, CRAY_PEAK_RATIO,
    MULTITITAN_PEAK_RATIO,
};
use mt_baseline::published::harmonic_mean;
use mt_bench::Study;
use mt_trace::Json;

/// The peak/scalar ratios each Fig. 11 curve is sampled at.
const RATIOS: [f64; 6] = [1.0, 2.0, 4.0, 6.0, 8.0, 10.0];

/// The measured subsets Fig. 11 places: label, `--json` key, and the
/// range of loop indices (loop n at index n - 1).
const SUBSETS: [(&str, &str, Range<usize>); 3] = [
    ("loops 1-12 ", "loops_1_12", 0..12),
    ("loops 13-24", "loops_13_24", 12..24),
    ("loops 1-24 ", "loops_1_24", 0..24),
];

fn main() {
    let loops: Vec<u8> = (1..=24).collect();
    let study = Study::run("serialized_issue=0,1", &loops);
    // Warm MFLOPS per loop of the grid's cells, in grid order: the full
    // machine, then the serialized-issue ablation (vector overlap
    // disabled — the "scalar machine" stand-in).
    let warm = |cell: usize| -> Vec<f64> {
        let reports = &study.results[cell].reports;
        reports.iter().map(|r| r.mflops_warm()).collect()
    };
    let (full, serialized) = (warm(0), warm(1));
    // Each subset's fit: both harmonic means, the speedup between them,
    // and the Fig. 11 model inverted at the MultiTitan's ratio of 2.
    let fits = SUBSETS.map(|(label, key, range)| {
        let hm = harmonic_mean(&full[range.clone()]);
        let hm_serialized = harmonic_mean(&serialized[range]);
        let speedup = (hm / hm_serialized).clamp(1.0, 1.999);
        let f = effective_vectorization(speedup, 2.0).unwrap_or(0.0);
        (label, key, hm, hm_serialized, speedup, f)
    });
    let curves: Vec<(u32, Vec<f64>)> = figure_11_curves()
        .iter()
        .map(|c| {
            let f = c.vectorized_percent as f64 / 100.0;
            let samples = RATIOS.iter().map(|&r| overall_speedup(f, r)).collect();
            (c.vectorized_percent, samples)
        })
        .collect();

    if std::env::args().any(|a| a == "--json") {
        let mut doc = study.json();
        let curves = curves.iter().map(|(percent, samples)| {
            Json::obj([
                ("vectorized_percent", Json::U64(u64::from(*percent))),
                (
                    "speedup_at_ratio_1_2_4_6_8_10",
                    Json::Arr(samples.iter().map(|&s| Json::F64(s)).collect()),
                ),
            ])
        });
        doc.push("figure_11_curves", Json::Arr(curves.collect()));
        let fits = fits
            .iter()
            .map(|&(_, key, .., f)| (key.to_string(), Json::F64(f)));
        doc.push("effective_vectorization", Json::Obj(fits.collect()));
        println!("{}", doc.pretty());
        return;
    }

    println!("Figure 11 — overall performance vs peak/scalar ratio\n");
    println!("  ratio:   1.0   2.0   4.0   6.0   8.0  10.0");
    for (percent, samples) in &curves {
        let samples: Vec<String> = samples.iter().map(|s| format!("{s:5.2}")).collect();
        println!("  {percent:>3}%   {}", samples.join(" "));
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

    println!("Effective vectorization fits (measured warm MFLOPS, ratio-2 model):");
    for (label, _, hm, hm_serialized, speedup, f) in fits {
        println!(
            "  {label}: {hm:.1} vs {hm_serialized:.1} MFLOPS serialized → speedup {speedup:.2} → effective f ≈ {:.0}%",
            f * 100.0
        );
    }
}

//! The committed design-space sweep behind `BENCH_dse.json`.
//!
//! Two studies over a representative Livermore subset:
//!
//! * **Latency × lanes grid** — FPU latency {1, 3, 5} crossed with
//!   element-issue lanes {1, 2, 4}. The paper's point (latency 3, one
//!   lane) sits in the middle; the sweep shows how much §2.2's "low
//!   latency is essential" buys and how little extra lanes help when one
//!   load/store port feeds them.
//! * **Unified vs classical split file** (§2.1.2) — the unified
//!   52-register design against a classical-vector-machine proxy: issue
//!   serialized (no vector/scalar overlap) and the register state charged
//!   at 8 vector registers × 64 elements × 64 bits = 32768 bits, ten
//!   times the unified file's 3328.
//!
//! `--json` emits the byte-stable `mt-dse-v1` document (plus an
//! `elapsed_ms` wall-clock field the benchdiff `dse` profile ignores);
//! CI regenerates `BENCH_dse.json` from it and byte-diffs.

use mt_dse::grid::GridSpec;
use mt_dse::runner::{pareto_front, run_grid, CellResult, CellSpec, DEFAULT_LOOPS};
use mt_sim::MachineConfig;
use mt_trace::Json;

/// The committed grid: both axes of the tentpole question.
const GRID: &str = "mode=cartesian\nfpu_latency=1,3,5\nfpu_lanes=1,2,4\n";

/// Classical 8×64-element split file: 8 × 64 × 64 bits.
const SPLIT_FILE_BITS: u64 = 8 * 64 * 64;

fn comparison_cells() -> Vec<CellSpec> {
    let unified = CellSpec::new("unified-52".into(), MachineConfig::default(), false);
    let mut split = CellSpec::new("split-8x64".into(), MachineConfig::default(), true);
    split.reg_file_bits = SPLIT_FILE_BITS;
    vec![unified, split]
}

fn json_report(grid: &GridSpec, results: &[CellResult], comparison: &[CellResult], ms: u128) {
    let mut doc = mt_dse::json::sweep_json(grid, &DEFAULT_LOOPS, results);
    doc.push(
        "comparison",
        Json::Arr(comparison.iter().map(mt_dse::json::cell_json).collect()),
    );
    doc.push("elapsed_ms", Json::U64(ms as u64));
    println!("{}", doc.pretty());
}

fn main() {
    let started = std::time::Instant::now();
    let grid = GridSpec::parse(GRID).expect("the committed grid parses");
    let cells = grid.enumerate().expect("the committed grid is valid");
    let results = run_grid(&cells, &DEFAULT_LOOPS);
    let comparison = run_grid(&comparison_cells(), &DEFAULT_LOOPS);

    if std::env::args().any(|a| a == "--json") {
        json_report(&grid, &results, &comparison, started.elapsed().as_millis());
        return;
    }

    println!("Design-space sweep (harmonic-mean MFLOPS over Livermore loops {DEFAULT_LOOPS:?})\n");
    println!("FPU latency × element lanes:");
    println!(
        "  {:<28} {:>12} {:>12} {:>14}",
        "cell", "warm MFLOPS", "cyc/elem", "regfile bits"
    );
    for r in &results {
        match &r.error {
            Some(e) => println!("  {:<28} failed: {e}", r.spec.name),
            None => println!(
                "  {:<28} {:>12.2} {:>12.2} {:>14}",
                r.spec.name,
                r.warm_hm_mflops(),
                r.warm_cycles_per_element(),
                r.spec.reg_file_bits
            ),
        }
    }

    println!("\nPareto front (max MFLOPS, min register bits, min lanes):");
    for i in pareto_front(&results) {
        println!(
            "  {:<28} {:>8.2} MFLOPS",
            results[i].spec.name,
            results[i].warm_hm_mflops()
        );
    }

    println!("\nUnified 52-register file vs classical 8x64 split file (S2.1.2):");
    for r in &comparison {
        println!(
            "  {:<12} {:>8.2} warm MFLOPS at {:>6} register bits",
            r.spec.name,
            r.warm_hm_mflops(),
            r.spec.reg_file_bits
        );
    }
    let (u, s) = (&comparison[0], &comparison[1]);
    println!(
        "  -> the unified file reaches {:.1}x the split proxy's rate with {:.1}x fewer bits",
        u.warm_hm_mflops() / s.warm_hm_mflops(),
        SPLIT_FILE_BITS as f64 / u.spec.reg_file_bits as f64
    );
}

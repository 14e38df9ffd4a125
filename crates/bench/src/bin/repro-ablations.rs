//! Ablation studies over the design choices DESIGN.md calls out:
//!
//! * FPU functional-unit latency sweep (§2.2: "low latency is essential");
//! * data-cache miss-penalty sweep (§3.2's cold/warm gap);
//! * serialized issue — the two-ops-per-cycle overlap disabled (§2.4);
//! * full-range load/store interlock against the current-element one
//!   (§2.3.2);
//! * the context-switch cost of the unified file, and the Cray-class
//!   comparator model: long-vector rates vs short vectors (§2.1.2).
//!
//! The first three are one-axis grids over
//! `mt_dse::runner::DEFAULT_LOOPS`, each run once by `mt_dse::run_grid`.
//! Run with `cargo run --release -p mt-bench --bin repro-ablations`;
//! `--json` emits one object holding each grid's `mt-dse-v1` document
//! under its knob's name (the committed `BENCH_ablations.json`,
//! byte-gated by `./ci`).

use mt_asm::Asm;
use mt_baseline::published::harmonic_mean;
use mt_baseline::{ClassicalVectorMachine, CrayConfig, VectorOp};
use mt_bench::Study;
use mt_dse::runner::DEFAULT_LOOPS;
use mt_dse::CellResult;
use mt_isa::{FReg, IReg};
use mt_kernels::{harness, livermore, KernelReport};
use mt_sim::{Machine, SimConfig};
use mt_trace::Json;

/// The grid studies, one per line: each line is a one-axis grid over
/// `DEFAULT_LOOPS` whose comment titles its table. A new study is one
/// more line.
const STUDIES: &str = "\
fpu_latency=1,2,3,4,6,8   # FPU latency sweep (the machine is 3; §2.2 argues low latency)
dcache_miss=0,7,14,21,28  # Data-cache miss penalty sweep (the machine is 14; §3.2's cold/warm gap)
serialized_issue=0,1      # Dual issue (the 2 ops/cycle overlap of §2.4)
";

/// Harmonic-mean MFLOPS of one pass (`KernelReport::mflops_cold` or
/// `mflops_warm`) over `reports`.
fn hm(reports: &[KernelReport], pass: fn(&KernelReport) -> f64) -> f64 {
    harmonic_mean(&reports.iter().map(pass).collect::<Vec<f64>>())
}

fn main() {
    let studies: Vec<(Study, &str)> = STUDIES
        .lines()
        .map(|line| {
            let title = line.split_once('#').map_or("", |(_, title)| title.trim());
            (Study::run(line, &DEFAULT_LOOPS), title)
        })
        .collect();
    if std::env::args().any(|a| a == "--json") {
        let doc = studies
            .iter()
            .map(|(s, _)| (s.grid.axes[0].knob.clone(), s.json()))
            .collect();
        println!("{}", Json::Obj(doc).pretty());
        return;
    }

    println!("Ablations (harmonic-mean MFLOPS over Livermore loops {DEFAULT_LOOPS:?})");
    for (study, title) in &studies {
        println!("\n{title}:");
        for r in &study.results {
            let cold = hm(&r.reports, KernelReport::mflops_cold);
            let warm = r.warm_hm_mflops();
            println!(
                "  {:<20} cold {cold:>5.2} / warm {warm:>5.2} MFLOPS",
                r.spec.name
            );
        }
    }
    // The dual-issue grid's cells, in grid order: overlapped, serialized.
    let (paper, serialized) = (&studies[2].0.results[0], &studies[2].0.results[1]);
    let loss = 100.0 * (1.0 - serialized.warm_hm_mflops() / paper.warm_hm_mflops());
    println!("  serialized issue loses {loss:.0}% of the warm rate");

    full_range(paper);
    context_switch();

    println!("\nClassical vector machine model (register-file trade, §2.1.2):");
    let cray = ClassicalVectorMachine::new(CrayConfig::cray_1s());
    let body = [
        VectorOp::Load,
        VectorOp::Load,
        VectorOp::Mul,
        VectorOp::Add,
        VectorOp::Store,
        VectorOp::ScalarOverhead(4),
    ];
    for n in [4u32, 8, 16, 64, 256, 1024] {
        println!(
            "  DAXPY n={n:>4}: Cray-class model {:>6.1} MFLOPS (n½ = {})",
            cray.mflops(&body, n, 2),
            cray.n_half(&body)
        );
    }
    println!("  (the MultiTitan holds its scalar-class rate at every n — see repro-figures n½)");
}

/// §2.3.2: the Ardent Titan's full-range load/store comparators against
/// the MultiTitan's current-element one. Full-range interlock is a
/// `SimConfig` flag rather than a grid axis, so the paper cell's loops
/// run once more here with it set, and are compared with that cell's
/// reports (`tests/ordering_rule.rs` holds the two equal).
fn full_range(paper: &CellResult) {
    let config = SimConfig {
        full_range_interlock: true,
        ..paper.spec.config()
    };
    let reports = mt_dse::sweep::sweep(&DEFAULT_LOOPS, |&n| {
        harness::run_kernel_with(&livermore::by_number(n), config.clone())
            .unwrap_or_else(|e| panic!("{e}"))
    });
    let base = paper.warm_hm_mflops();
    let full = hm(&reports, KernelReport::mflops_warm);
    let same = |(f, p): (&KernelReport, &KernelReport)| f.cold == p.cold && f.warm == p.warm;
    let identical = reports.iter().zip(&paper.reports).all(same);
    println!("\nFull-range load/store interlock (the Ardent Titan approach, §2.3.2):");
    println!("  current-element comparator (MultiTitan): {base:.2} MFLOPS");
    println!(
        "  full-range comparators (Ardent-style)  : {full:.2} MFLOPS ({:+.1}%)",
        100.0 * (full / base - 1.0)
    );
    println!("  cold and warm run statistics identical on every loop: {identical}");
    println!(
        "  — compiler-fenced code gains nothing from the extra hardware,\n\
         \x20   which is the paper's §2.3.2 argument for the cheap scheme"
    );
}

/// §2.1.2: "the context switch cost is smaller than that of traditional
/// vector machines when the vector register state must be saved." Measure
/// the save+restore of the full 52-register unified file and compare with
/// the classical 8×64-element file under the same one-operand-per-cycle
/// memory port.
fn context_switch() {
    let mut a = Asm::new();
    let base = IReg::new(1);
    a.li(base, 0x2000);
    for i in 0..52u8 {
        a.fst(FReg::new(i), base, 8 * i as i32); // save
    }
    for i in 0..52u8 {
        a.fld(FReg::new(i), base, 8 * i as i32); // restore
    }
    a.halt();
    let prog = a.assemble(0x1_0000).unwrap();
    let mut m = Machine::new(SimConfig::default());
    m.load_program(&prog);
    m.warm_instructions(&prog);
    for i in 0..52u32 {
        m.mem.load_f64(0x2000 + 8 * i); // warm the 26 lines
    }
    let cycles = m.run().unwrap().cycles;

    // Classical file: 8 vector registers × 64 elements saved and restored
    // through the same port (stores at 1 per 2 cycles, loads at 1/cycle),
    // plus per-register vector memory startup from the Cray-class model.
    let cray = ClassicalVectorMachine::new(CrayConfig::cray_1s());
    let classical =
        cray.loop_cycles(&[VectorOp::Store], 8 * 64) + cray.loop_cycles(&[VectorOp::Load], 8 * 64);

    println!("\nContext-switch cost (§2.1.2 — save + restore the FP register state):");
    println!("  unified 52-register file : {cycles} MultiTitan cycles (measured)");
    println!("  classical 8×64 file      : {classical} cycles (modelled, same-generation port)");
    println!(
        "  ratio {:.1}× — \"an order of magnitude smaller\" register state",
        classical as f64 / cycles as f64
    );
}

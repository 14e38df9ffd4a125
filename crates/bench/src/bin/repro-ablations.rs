//! Ablation studies over the design choices DESIGN.md calls out:
//!
//! * FPU functional-unit latency sweep (§2.2: "low latency is essential");
//! * data-cache miss-penalty sweep (§3.2's cold/warm gap);
//! * serialized issue — the two-ops-per-cycle overlap disabled (§2.4);
//! * the Cray-class comparator model: long-vector rates vs short vectors.
//!
//! Run with `cargo run --release -p mt-bench --bin repro-ablations`;
//! `--json` emits the subset reports plus the sweep harmonic means as an
//! `mt-bench-v1` document.

use mt_asm::Asm;
use mt_baseline::published::harmonic_mean;
use mt_baseline::{ClassicalVectorMachine, CrayConfig, VectorOp};
use mt_isa::{FReg, IReg};
use mt_kernels::livermore;
use mt_mem::CacheConfig;
use mt_sim::{Machine, MachineConfig, SimConfig};

/// A representative subset keeps each sweep fast while spanning the
/// vectorized (1, 7, 12), reduction (3), recurrence (5, 11), and scalar
/// (21, 23) classes.
const SUBSET: [u8; 8] = [1, 3, 5, 7, 11, 12, 21, 23];

fn subset_hm(config: &SimConfig, warm: bool) -> f64 {
    let rates = mt_dse::sweep::sweep(&SUBSET, |&n| {
        let r = mt_bench::run_with(&livermore::by_number(n), config.clone());
        if warm {
            r.mflops_warm()
        } else {
            r.mflops_cold()
        }
    });
    harmonic_mean(&rates)
}

/// `--json`: subset reports at the paper configuration, plus the latency
/// sweep and the serialized-issue ablation as extra sections.
fn json_report() {
    use mt_trace::Json;
    let reports = mt_dse::sweep::sweep(&SUBSET, |&n| mt_bench::run(&livermore::by_number(n)));
    let mut doc = mt_bench::json::bench_json("ablations", &reports);
    let sweep: Vec<Json> = [1u64, 2, 3, 4, 6, 8]
        .iter()
        .map(|&latency| {
            let mut machine = MachineConfig::default();
            machine.timing.fpu_latency = latency;
            let cfg = SimConfig {
                machine,
                ..SimConfig::default()
            };
            Json::obj([
                ("fpu_latency", Json::U64(latency)),
                ("warm_hm_mflops", Json::F64(subset_hm(&cfg, true))),
            ])
        })
        .collect();
    doc.push("fpu_latency_sweep", Json::Arr(sweep));
    let serialized = SimConfig {
        serialized_issue: true,
        ..SimConfig::default()
    };
    doc.push(
        "serialized_issue_warm_hm_mflops",
        Json::F64(subset_hm(&serialized, true)),
    );
    println!("{}", doc.pretty());
}

fn main() {
    if std::env::args().any(|a| a == "--json") {
        json_report();
        return;
    }
    println!("Ablations (harmonic-mean MFLOPS over Livermore loops {SUBSET:?})\n");

    println!("FPU latency sweep (the machine is 3; §2.2 argues low latency):");
    for latency in [1u64, 2, 3, 4, 6, 8] {
        let mut machine = MachineConfig::default();
        machine.timing.fpu_latency = latency;
        let cfg = SimConfig {
            machine,
            ..SimConfig::default()
        };
        println!(
            "  latency {latency}: warm {:.2} MFLOPS",
            subset_hm(&cfg, true)
        );
    }

    println!("\nData-cache miss penalty sweep (the machine is 14):");
    for penalty in [0u64, 7, 14, 21, 28] {
        let mut machine = MachineConfig::default();
        machine.mem.data_cache = CacheConfig {
            miss_penalty: penalty,
            ..machine.mem.data_cache
        };
        let cfg = SimConfig {
            machine,
            ..SimConfig::default()
        };
        println!(
            "  penalty {penalty:>2}: cold {:.2} / warm {:.2} MFLOPS",
            subset_hm(&cfg, false),
            subset_hm(&cfg, true)
        );
    }

    println!("\nDual issue (the 2 ops/cycle overlap of §2.4):");
    let base = subset_hm(&SimConfig::default(), true);
    let serialized = subset_hm(
        &SimConfig {
            serialized_issue: true,
            ..SimConfig::default()
        },
        true,
    );
    println!("  overlapped: {base:.2} MFLOPS");
    println!(
        "  serialized: {serialized:.2} MFLOPS ({:.0}% loss)",
        100.0 * (1.0 - serialized / base)
    );

    println!("\nFull-range load/store interlock (the Ardent Titan approach, §2.3.2):");
    let full_range = subset_hm(
        &SimConfig {
            full_range_interlock: true,
            ..SimConfig::default()
        },
        true,
    );
    println!("  current-element comparator (MultiTitan): {base:.2} MFLOPS");
    println!(
        "  full-range comparators (Ardent-style)  : {full_range:.2} MFLOPS ({:+.1}%)",
        100.0 * (full_range / base - 1.0)
    );
    println!(
        "  — compiler-fenced code gains nothing from the extra hardware,\n\
         \x20   which is the paper's §2.3.2 argument for the cheap scheme"
    );

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

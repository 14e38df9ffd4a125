//! Regenerates the timing figures: Figs. 5–9 (reduction/recurrence/gather
//! codings), Fig. 10 (latency table), Fig. 13 (graphics transform), and
//! the §2.2.1 vector half-performance length n½ ≈ 4.
//!
//! Run with `cargo run --release -p mt-bench --bin repro-figures`;
//! `--json` emits the figure kernels as an `mt-bench-v1` document.

use mt_baseline::{ClassicalVectorMachine, CrayConfig, VectorOp};
use mt_fparith::latency::FIGURE_10;
use mt_fparith::FpOp;
use mt_isa::{FReg, FpuAluInstr, Instr};
use mt_kernels::{gather, graphics, reductions};
use mt_sim::{Machine, Program, SimConfig, Timeline};
use mt_trace::TraceEvent;

fn main() {
    if std::env::args().any(|a| a == "--json") {
        json_report();
        return;
    }
    figures_5_to_8();
    timelines();
    figure_9();
    figure_10();
    figure_13();
    n_half();
}

/// `--json`: the kernels behind Figs. 5–9 and 13 as one `mt-bench-v1`
/// document.
fn json_report() {
    let reports = [
        mt_bench::run(&reductions::scalar_tree_sum()),
        mt_bench::run(&reductions::linear_vector_sum()),
        mt_bench::run(&reductions::vector_tree_sum()),
        mt_bench::run(&reductions::fibonacci(8)),
        mt_bench::run(&gather::fixed_stride(2)),
        mt_bench::run(&gather::linked_list()),
        mt_bench::run(&graphics::transform_points(256)),
    ];
    println!(
        "{}",
        mt_bench::json::bench_json("figures", &reports).pretty()
    );
}

/// Renders Figs. 5 and 7 as actual timing diagrams from the simulator's
/// trace — compare them with the bars in the paper.
fn timelines() {
    let s = |rr: u8, ra: u8, rb: u8| {
        Instr::Falu(FpuAluInstr::scalar(
            FpOp::Add,
            FReg::new(rr),
            FReg::new(ra),
            FReg::new(rb),
        ))
    };
    let v = |rr: u8, ra: u8, rb: u8, vl: u8| {
        Instr::Falu(
            FpuAluInstr::vector(FpOp::Add, FReg::new(rr), FReg::new(ra), FReg::new(rb), vl)
                .unwrap(),
        )
    };
    let render = |title: &str, instrs: &[Instr]| {
        let prog = Program::assemble(instrs).unwrap();
        let mut m = Machine::new(SimConfig::default());
        m.load_program(&prog);
        m.warm_instructions(&prog);
        m.fpu
            .regs_mut()
            .write_vector(FReg::new(0), &[1., 2., 3., 4., 5., 6., 7., 8.]);
        let mut events: Vec<TraceEvent> = Vec::new();
        m.run_with_sink(&mut events).unwrap();
        println!("{title}");
        println!("{}", Timeline::from_events(&events, |_| None).render(48));
    };
    render(
        "Figure 5 as a timing diagram (T transfer, i issue, R result):",
        &[
            s(8, 0, 1),
            s(9, 2, 3),
            s(10, 4, 5),
            s(11, 6, 7),
            s(12, 8, 9),
            s(13, 10, 11),
            s(14, 12, 13),
            Instr::Halt,
        ],
    );
    render(
        "Figure 7 as a timing diagram (3 transfers do the same reduction):",
        &[
            v(8, 0, 4, 4),
            v(12, 8, 10, 2),
            v(14, 12, 13, 1),
            Instr::Halt,
        ],
    );
}

fn kernel_cycles(k: &mt_kernels::Kernel) -> (u64, u64) {
    let r = mt_bench::run(k);
    (r.warm.cycles, r.warm.fpu.instructions_transferred)
}

fn figures_5_to_8() {
    println!("Figures 5–8 — three codings of an 8-element sum, and the");
    println!("Fibonacci recurrence (register-only cycle anchors in brackets)\n");

    // Register-only anchors (the figures' own setting).
    let anchor = |instrs: &[Instr]| -> u64 {
        let prog = Program::assemble(instrs).unwrap();
        let mut m = Machine::new(SimConfig::default());
        m.load_program(&prog);
        m.warm_instructions(&prog);
        m.fpu
            .regs_mut()
            .write_vector(FReg::new(0), &[1., 2., 3., 4., 5., 6., 7., 8.]);
        m.run().unwrap().cycles
    };
    let s = |rr: u8, ra: u8, rb: u8| {
        Instr::Falu(FpuAluInstr::scalar(
            FpOp::Add,
            FReg::new(rr),
            FReg::new(ra),
            FReg::new(rb),
        ))
    };
    let v = |rr: u8, ra: u8, rb: u8, vl: u8| {
        Instr::Falu(
            FpuAluInstr::vector(FpOp::Add, FReg::new(rr), FReg::new(ra), FReg::new(rb), vl)
                .unwrap(),
        )
    };
    let fig5 = anchor(&[
        s(8, 0, 1),
        s(9, 2, 3),
        s(10, 4, 5),
        s(11, 6, 7),
        s(12, 8, 9),
        s(13, 10, 11),
        s(14, 12, 13),
        Instr::Halt,
    ]);
    let fig6 = anchor(&[v(9, 8, 0, 8), Instr::Halt]);
    let fig7 = anchor(&[
        v(8, 0, 4, 4),
        v(12, 8, 10, 2),
        v(14, 12, 13, 1),
        Instr::Halt,
    ]);
    let fig8 = anchor(&[v(2, 1, 0, 8), Instr::Halt]);

    let (c5, t5) = kernel_cycles(&reductions::scalar_tree_sum());
    let (c6, t6) = kernel_cycles(&reductions::linear_vector_sum());
    let (c7, t7) = kernel_cycles(&reductions::vector_tree_sum());
    let (c8, t8) = kernel_cycles(&reductions::fibonacci(8));
    println!("  Fig. 5 scalar tree : {c5:>3} cycles with loads/stores  [{fig5} reg-only; paper 12], {t5} ALU transfers");
    println!("  Fig. 6 linear vec  : {c6:>3} cycles with loads/stores  [{fig6} reg-only; paper 24], {t6} ALU transfers");
    println!("  Fig. 7 vector tree : {c7:>3} cycles with loads/stores  [{fig7} reg-only; paper 12], {t7} ALU transfers");
    println!("  Fig. 8 Fibonacci   : {c8:>3} cycles with loads/stores  [{fig8} reg-only; paper 24], {t8} ALU transfer\n");
}

fn figure_9() {
    println!("Figure 9 — loading vectors with scalar loads");
    let direct = mt_bench::run(&gather::fixed_stride(2));
    let list = mt_bench::run(&gather::linked_list());
    println!(
        "  fixed stride : {} cycles for 8 elements ({} FPU loads, 1/cycle)",
        direct.warm.cycles, direct.warm.fpu.loads
    );
    println!(
        "  linked list  : {} cycles for 8 elements ({} FPU + 8 pointer loads, delay slots hidden: {} interlock stalls)",
        list.warm.cycles, list.warm.fpu.loads, list.warm.stalls.int_load_hazard
    );
    println!(
        "  ratio {:.2} — the paper: \"only a doubling of the time otherwise required\"\n",
        list.warm.cycles as f64 / direct.warm.cycles as f64
    );
}

fn figure_10() {
    println!("Figure 10 — MultiTitan FPU and Cray X-MP latencies (ns)");
    for r in FIGURE_10 {
        println!("  {:<24} {:>6.1}  {:>6.1}", r.operation, r.fpu_ns, r.xmp_ns);
    }
    println!();
}

fn figure_13() {
    println!("Figure 13 — graphics transform");
    let rep = mt_bench::run(&graphics::transform_points(256));
    let per_point = rep.warm.cycles as f64 / 256.0;
    println!(
        "  256 points: {:.1} cycles/point (paper: 35 straight-line), {:.1} MFLOPS (paper: 20)\n",
        per_point,
        rep.mflops_warm()
    );
}

/// §2.2.1: the MultiTitan's n½ ≈ 4 vs the Cray class' ~15+.
fn n_half() {
    println!("Vector half-performance length n½ (§2.2.1)");
    // Measure: a VL-n vector add on registers; rate = n / cycles; asymptote
    // at 1 element/cycle issue → find n where rate reaches half of the
    // machine's long-vector rate.
    let measure = |n: u8| -> f64 {
        let i =
            FpuAluInstr::vector(FpOp::Add, FReg::new(16), FReg::new(0), FReg::new(16), n).unwrap();
        let prog = Program::assemble(&[Instr::Falu(i), Instr::Halt]).unwrap();
        let mut m = Machine::new(SimConfig::default());
        m.load_program(&prog);
        m.warm_instructions(&prog);
        let stats = m.run().unwrap();
        n as f64 / stats.cycles as f64
    };
    // The asymptotic issue rate is one element per cycle; n½ is the length
    // first achieving half of it.
    let peak = 1.0;
    let mut nh = 16;
    for n in 1..=16u8 {
        if measure(n) >= peak / 2.0 {
            nh = n;
            break;
        }
    }
    println!(
        "  measured MultiTitan n½ = {nh} on register-resident adds (paper: ≈4 \
         including the single-cycle load/store path)"
    );
    let cray = ClassicalVectorMachine::new(CrayConfig::cray_1s());
    println!(
        "  modelled Cray-class n½ = {} (paper cites Cray-1 ≈ 15)\n",
        cray.n_half(&[VectorOp::Load, VectorOp::Add])
    );
}

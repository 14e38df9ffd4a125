//! Differential validation of the static analyzer (`mt_lint::mca`) against
//! the simulator, over the full kernel suite.
//!
//! For every kernel, the program's natural loops are statically analyzed
//! for their steady-state cycles-per-iteration and binding bottleneck,
//! then joined with the *measured* warm-pass profile of the same program
//! (latch completions give the iteration count; the body's attributed
//! cycles give the measured cost). The table prints predicted vs
//! measured CPI per loop; `--json` emits the `mt-mca-v1` document
//! (committed as `BENCH_mca.json`, byte-stable — no wall-clock fields).
//! Either way the run exits 1 when no loop was compared or fewer than
//! [`MIN_WITHIN_TOLERANCE_PCT`] percent of the compared loops land
//! within the tolerance band.

use std::process::ExitCode;

use mt_isa::cost::IssueTiming;
use mt_kernels::harness::run_kernel_recorded;
use mt_kernels::{gather, graphics, linpack, livermore, reductions, Kernel};
use mt_lint::cfg::ProgramView;
use mt_lint::mca::report::measured_loop;
use mt_lint::mca::{self, loops, LoopAnalysis};
use mt_sim::SimConfig;
use mt_trace::{Json, Profiler};

/// The error band a predicted loop must land in to count as validated.
const TOLERANCE_PCT: f64 = 5.0;

/// The accuracy gate: the share of compared loops, in percent, that must
/// land within [`TOLERANCE_PCT`].
const MIN_WITHIN_TOLERANCE_PCT: u64 = 90;

fn kernel_suite() -> Vec<Kernel> {
    let mut ks: Vec<Kernel> = (1..=24).map(livermore::by_number).collect();
    ks.push(linpack::linpack(100, true));
    ks.push(linpack::linpack(100, false));
    ks.push(gather::fixed_stride(1));
    ks.push(gather::fixed_stride(4));
    ks.push(gather::linked_list());
    ks.push(graphics::transform_points(64));
    ks.push(reductions::scalar_tree_sum());
    ks.push(reductions::linear_vector_sum());
    ks.push(reductions::vector_tree_sum());
    ks.push(reductions::fibonacci(8));
    ks
}

struct KernelAnalysis {
    name: String,
    view: ProgramView,
    loops: Vec<LoopAnalysis>,
    profile: Profiler,
}

fn analyze(kernel: &Kernel) -> KernelAnalysis {
    let traced =
        run_kernel_recorded(kernel, SimConfig::default()).unwrap_or_else(|e| panic!("{e}"));
    let view = ProgramView::decode(&kernel.routine.program);
    let found = loops(&view, IssueTiming::multititan());
    KernelAnalysis {
        name: kernel.name.clone(),
        view,
        loops: found,
        profile: Profiler::from_events(&traced.warm_events),
    }
}

/// Counts over all analyzed kernels: detected loops, analyzable loops,
/// loops that ran in the warm pass, and loops within tolerance.
#[derive(Default)]
struct Tally {
    detected: u64,
    analyzable: u64,
    compared: u64,
    within_tolerance: u64,
}

impl Tally {
    /// Checks the accuracy gate.
    fn gate(&self) -> Result<(), String> {
        if self.compared == 0 {
            return Err("no loops were compared".to_string());
        }
        if self.within_tolerance * 100 < self.compared * MIN_WITHIN_TOLERANCE_PCT {
            return Err(format!(
                "only {} of {} compared loops are within ±{TOLERANCE_PCT}% \
                 (the gate is {MIN_WITHIN_TOLERANCE_PCT}%)",
                self.within_tolerance, self.compared
            ));
        }
        Ok(())
    }
}

fn tally(results: &[KernelAnalysis]) -> Tally {
    let mut t = Tally::default();
    for r in results {
        for l in &r.loops {
            t.detected += 1;
            let Ok(ss) = &l.result else { continue };
            t.analyzable += 1;
            let Some((meas, _)) = measured_loop(&r.view, l, &r.profile) else {
                continue;
            };
            t.compared += 1;
            let err = 100.0 * (ss.cycles_per_iteration() - meas).abs() / meas;
            if err <= TOLERANCE_PCT {
                t.within_tolerance += 1;
            }
        }
    }
    t
}

fn main() -> ExitCode {
    let suite = kernel_suite();
    let results: Vec<KernelAnalysis> = mt_dse::sweep::sweep(&suite, analyze);
    let t = tally(&results);

    if std::env::args().any(|a| a == "--json") {
        let mut doc = Json::obj([("schema", Json::Str(mca::json::SCHEMA.to_string()))]);
        doc.push(
            "summary",
            Json::obj([
                ("loops_detected", Json::U64(t.detected)),
                ("loops_analyzable", Json::U64(t.analyzable)),
                ("loops_compared", Json::U64(t.compared)),
                ("loops_within_5pct", Json::U64(t.within_tolerance)),
            ]),
        );
        doc.push(
            "kernels",
            Json::Arr(
                results
                    .iter()
                    .map(|r| mca::json::program_json(&r.name, &r.view, &r.loops, Some(&r.profile)))
                    .collect(),
            ),
        );
        println!("{}", doc.pretty());
    } else {
        print_table(&results, &t);
    }
    match t.gate() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro-mca: accuracy gate failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The human-readable report: one predicted-vs-measured table per
/// kernel with loops, then the tally.
fn print_table(results: &[KernelAnalysis], t: &Tally) {
    println!("Static loop predictions vs measured warm profile (±{TOLERANCE_PCT}% gate)\n");
    for r in results {
        if r.loops.is_empty() {
            continue;
        }
        println!("{}", r.name);
        let resolve = |_pc: u32| None;
        print!(
            "{}",
            mca::report::compare_report(&r.view, &r.loops, &r.profile, &resolve)
        );
        println!();
    }
    println!(
        "{} loops detected, {} analyzable, {} compared, {} within ±{TOLERANCE_PCT}% ({:.0}%)",
        t.detected,
        t.analyzable,
        t.compared,
        t.within_tolerance,
        if t.compared == 0 {
            0.0
        } else {
            100.0 * t.within_tolerance as f64 / t.compared as f64
        }
    );
}

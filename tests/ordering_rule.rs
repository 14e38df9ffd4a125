//! §2.3.2 compliance: every generated workload must be free of the
//! out-of-order load/store hazards the hardware cannot interlock.
//! `ordering_violations` finds them in a recorded run; the mini-Mahler
//! fences are what should prevent them. Any violation here is a
//! code-generator bug.

use multititan::kernels::harness::{self, Kernel};
use multititan::kernels::{gather, graphics, linpack, livermore, reductions};
use multititan::sim::{ordering_violations, OrderingViolation, SimConfig};

/// The violations of each pass of a §3.2 run.
struct Checked {
    cold: Vec<OrderingViolation>,
    warm: Vec<OrderingViolation>,
}

/// Runs `kernel` with both passes recorded and applies the §2.3.2 view.
fn checked(kernel: &Kernel) -> Result<Checked, String> {
    let traced = harness::run_kernel_recorded(kernel, SimConfig::default())?;
    Ok(Checked {
        cold: ordering_violations(&traced.cold_events),
        warm: ordering_violations(&traced.warm_events),
    })
}

#[test]
fn vectorized_livermore_loops_are_ordering_clean() {
    // The loops with real vector work are the ones at risk.
    for n in [1u8, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 18, 21] {
        let kernel = livermore::by_number(n);
        let report = checked(&kernel).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            report.cold.is_empty() && report.warm.is_empty(),
            "loop {n}: ordering violations {:?}",
            report.cold
        );
    }
}

#[test]
fn vector_linpack_is_ordering_clean() {
    let report = checked(&linpack::linpack(24, true)).unwrap();
    assert!(report.warm.is_empty(), "violations: {:?}", report.warm);
}

/// The paper's figure kernels (Figs. 5–9, 12/13).
fn figure_kernels() -> [Kernel; 7] {
    [
        reductions::scalar_tree_sum(),
        reductions::linear_vector_sum(),
        reductions::vector_tree_sum(),
        reductions::fibonacci(16),
        gather::fixed_stride(2),
        gather::linked_list(),
        graphics::transform_points(8),
    ]
}

#[test]
fn figure_kernels_are_ordering_clean() {
    for kernel in figure_kernels() {
        let name = kernel.name.clone();
        let report = checked(&kernel).unwrap_or_else(|e| panic!("{e}"));
        assert!(report.warm.is_empty(), "{name}: {:?}", report.warm);
    }
}

/// §2.3.2: the Ardent Titan's full-range load/store comparators buy
/// nothing on code that obeys the ordering rule. On every kernel this
/// file checks, and on all 24 Livermore loops, they leave the cold and
/// warm run statistics exactly as the MultiTitan's current-element
/// comparator does. `repro-ablations` prints this comparison.
#[test]
fn full_range_interlock_is_free_on_ordering_clean_code() {
    let full_range = SimConfig {
        full_range_interlock: true,
        ..SimConfig::default()
    };
    let kernels = (1..=24)
        .map(livermore::by_number)
        .chain([linpack::linpack(24, true)])
        .chain(figure_kernels());
    for kernel in kernels {
        let run = |config: SimConfig| {
            harness::run_kernel_with(&kernel, config).unwrap_or_else(|e| panic!("{e}"))
        };
        let (current, full) = (run(SimConfig::default()), run(full_range.clone()));
        assert_eq!(full.cold, current.cold, "{}: cold pass", kernel.name);
        assert_eq!(full.warm, current.warm, "{}: warm pass", kernel.name);
    }
}

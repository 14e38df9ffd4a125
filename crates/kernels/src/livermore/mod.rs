//! The 24 Livermore Fortran Kernels, recoded for the MultiTitan (Fig. 14).
//!
//! Following the paper's methodology (§3): loops whose bodies the
//! MultiTitan vectorizes — including the reductions (3, 4, 6, 21) and
//! first-order recurrences (11) that classical vector machines cannot —
//! are coded with the mini-Mahler vector primitives in strips of 8 with a
//! compile-time remainder; the "larger and more complex kernels" 13–24 are
//! mostly scalar codings (the paper coded 13, 15, 17, 19, 20, 22, 23 in
//! Modula-2, i.e. plain scalar code). Loop 22 calls the scalar `exp`
//! subroutine, loop 15 the scalar `sqrt` — both from [`crate::mathlib`].
//!
//! Each kernel is verified against a pure-Rust reference that mirrors the
//! MultiTitan coding's operation order. Workload sizes follow the classic
//! LFK scale (inner loops of ~100–1000 iterations); loops 13–16 keep the
//! reference computation structure (indirect gathers/scatters, branchy
//! searches) at modestly reduced grid sizes, which DESIGN.md documents.

mod part1;
mod part2;

pub use part1::{
    loop01, loop02, loop03, loop04, loop05, loop06, loop07, loop08, loop09, loop10, loop11, loop12,
};
pub use part2::{
    loop13, loop14, loop15, loop16, loop17, loop18, loop19, loop20, loop21, loop22, loop23, loop24,
};

use crate::harness::Kernel;

/// Builds all 24 kernels in order.
pub fn all() -> Vec<Kernel> {
    (1..=24).map(by_number).collect()
}

/// Builds one kernel by loop number (1–24).
///
/// # Panics
///
/// Panics for numbers outside 1–24.
pub fn by_number(n: u8) -> Kernel {
    match n {
        1 => loop01(),
        2 => loop02(),
        3 => loop03(),
        4 => loop04(),
        5 => loop05(),
        6 => loop06(),
        7 => loop07(),
        8 => loop08(),
        9 => loop09(),
        10 => loop10(),
        11 => loop11(),
        12 => loop12(),
        13 => loop13(),
        14 => loop14(),
        15 => loop15(),
        16 => loop16(),
        17 => loop17(),
        18 => loop18(),
        19 => loop19(),
        20 => loop20(),
        21 => loop21(),
        22 => loop22(),
        23 => loop23(),
        24 => loop24(),
        _ => panic!("Livermore loops are numbered 1–24, got {n}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_kernel;

    // Each loop gets its own test so failures localize; they validate both
    // the cold and warm passes against the Rust reference.
    macro_rules! loop_test {
        ($name:ident, $n:expr) => {
            #[test]
            fn $name() {
                let k = by_number($n);
                let report = run_kernel(&k).unwrap_or_else(|e| panic!("{e}"));
                assert!(report.warm.cycles > 0);
                assert!(
                    report.warm.cycles <= report.cold.cycles,
                    "warm ({}) must not exceed cold ({})",
                    report.warm.cycles,
                    report.cold.cycles
                );
            }
        };
    }

    loop_test!(ll01_hydro, 1);
    loop_test!(ll02_iccg, 2);
    loop_test!(ll03_inner_product, 3);
    loop_test!(ll04_banded, 4);
    loop_test!(ll05_tridiag, 5);
    loop_test!(ll06_recurrence, 6);
    loop_test!(ll07_eos, 7);
    loop_test!(ll08_adi, 8);
    loop_test!(ll09_integrate, 9);
    loop_test!(ll10_differences, 10);
    loop_test!(ll11_partial_sums, 11);
    loop_test!(ll12_first_diff, 12);
    loop_test!(ll13_pic2d, 13);
    loop_test!(ll14_pic1d, 14);
    loop_test!(ll15_casual, 15);
    loop_test!(ll16_monte_carlo, 16);
    loop_test!(ll17_conditional, 17);
    loop_test!(ll18_hydro2d, 18);
    loop_test!(ll19_linear_recurrence, 19);
    loop_test!(ll20_transport, 20);
    loop_test!(ll21_matmul, 21);
    loop_test!(ll22_planckian, 22);
    loop_test!(ll23_implicit_hydro, 23);
    loop_test!(ll24_first_min, 24);
}

//! Reproduction harness for every table and figure in the paper's
//! evaluation (§3), plus the ablation studies DESIGN.md calls out.
//!
//! The `repro-*` binaries print the regenerated tables side by side with
//! the paper's published numbers. Absolute
//! MFLOPS are simulated at the paper's machine parameters (40 ns clock,
//! 3-cycle FPU, 64 KB caches); the claim being reproduced is *shape* —
//! who wins, by roughly what factor, and where the crossovers sit.
//!
//! Every parameter study (`repro-ablations`, `repro-amdahl`) is grid text
//! run by [`mt_dse::run_grid`], the runner behind `repro-dse` and
//! `POST /sweep`, and rendered by [`mt_dse::json::sweep_json`]: see
//! [`Study`].

pub mod fault;
pub mod json;

use mt_dse::{run_grid, CellResult, GridSpec};
use mt_kernels::{harness, Kernel, KernelReport};
use mt_trace::Json;

/// Runs one kernel under the default configuration, panicking with context
/// on any failure (benches want loud failures).
pub fn run(kernel: &Kernel) -> KernelReport {
    harness::run_kernel(kernel).unwrap_or_else(|e| panic!("{e}"))
}

/// A parameter study: grid text run once by [`run_grid`] over a list of
/// Livermore loops. A binary prints its tables and renders its `--json`
/// document from the same results.
pub struct Study {
    /// The parsed grid.
    pub grid: GridSpec,
    /// The Livermore loops every cell ran, in report order.
    pub loops: Vec<u8>,
    /// One result per grid cell, in cell order.
    pub results: Vec<CellResult>,
}

impl Study {
    /// Parses `text` as a [`GridSpec`] and runs every cell over `loops`,
    /// panicking with context on a malformed grid or a failed cell.
    pub fn run(text: &str, loops: &[u8]) -> Study {
        let grid = GridSpec::parse(text).unwrap_or_else(|e| panic!("{e}"));
        let cells = grid.enumerate().unwrap_or_else(|e| panic!("{e}"));
        let results = run_grid(&cells, loops);
        for r in &results {
            if let Some(e) = &r.error {
                panic!("{}: {e}", r.spec.name);
            }
        }
        Study {
            grid,
            loops: loops.to_vec(),
            results,
        }
    }

    /// The study as an `mt-dse-v1` document.
    pub fn json(&self) -> Json {
        mt_dse::json::sweep_json(&self.grid, &self.loops, &self.results)
    }
}

/// Formats one row of a fixed-width table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// `x.y` with one decimal, the paper's table format.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_formats_right_aligned() {
        let s = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(s, "  a    bb");
    }

    #[test]
    fn one_kernel_roundtrips_through_the_helper() {
        let r = run(&mt_kernels::reductions::fibonacci(8));
        assert!(r.warm.cycles > 0);
    }
}

//! The sweep runner: grid cells × kernels → per-cell results with a
//! Pareto summary.
//!
//! Every (cell, kernel) pair is an independent simulation, so the runner
//! flattens the full grid into one work list and fans it across cores
//! with [`crate::sweep::sweep`] — a slow cell does not serialize the
//! cheap ones behind it, and results come back in deterministic order.

use mt_kernels::{harness, livermore, KernelReport};
use mt_sim::{MachineConfig, SimConfig};

/// One concrete machine to measure: a point in the design space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    /// Self-describing name — the swept `knob=value` list, or a label
    /// like `"unified-52"` for hand-built comparison cells.
    pub name: String,
    /// The machine at this point.
    pub machine: MachineConfig,
    /// Run with the Load/Store and ALU instruction registers serialized
    /// (the split-register-file proxy: no vector/scalar overlap).
    pub serialized_issue: bool,
    /// Register-file bits charged to this design on the Pareto cost axis.
    /// Defaults to [`MachineConfig::reg_file_bits`]; comparison cells that
    /// model a *different* register organization at the same simulated
    /// timing (the classical 8×64-element split file) override it.
    pub reg_file_bits: u64,
}

impl CellSpec {
    /// A cell charged its machine's own register-file bits.
    pub fn new(name: String, machine: MachineConfig, serialized_issue: bool) -> CellSpec {
        CellSpec {
            name,
            reg_file_bits: machine.reg_file_bits(),
            machine,
            serialized_issue,
        }
    }

    /// The `SimConfig` this cell runs under: default everything except the
    /// machine and the issue-policy ablation.
    pub fn config(&self) -> SimConfig {
        SimConfig {
            machine: self.machine,
            serialized_issue: self.serialized_issue,
            ..SimConfig::default()
        }
    }

    /// Runs one Livermore loop (by number) on this cell through the
    /// ordinary kernel harness: the one cell runner behind [`run_grid`]
    /// and `POST /sweep`'s kernel-cell jobs. A program beyond the
    /// machine's bounds, or data beyond its memory, is an `Err`.
    pub fn run_loop(&self, n: u8) -> Result<KernelReport, String> {
        let kernel = livermore::by_number(n);
        self.machine
            .validate_program(&kernel.routine.program)
            .and_then(|()| harness::run_kernel_with(&kernel, self.config()))
    }
}

/// One cell's measurements over every kernel in the sweep.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The design point that was measured.
    pub spec: CellSpec,
    /// Per-kernel cold/warm reports, in kernel order. Empty iff `error`.
    pub reports: Vec<KernelReport>,
    /// The failure, if any kernel failed to run or verify under this
    /// machine (a sweep does not abort because one corner is broken).
    pub error: Option<String>,
}

impl CellResult {
    /// Folds a cell's per-loop runs, in loop order, into its result. The
    /// first failure wins and a failed cell reports no numbers (partial
    /// means would silently skew the summary).
    pub fn from_runs(
        spec: CellSpec,
        runs: impl IntoIterator<Item = Result<KernelReport, String>>,
    ) -> CellResult {
        let (reports, error) = match runs.into_iter().collect() {
            Ok(reports) => (reports, None),
            Err(e) => (Vec::new(), Some(e)),
        };
        CellResult {
            spec,
            reports,
            error,
        }
    }

    /// Harmonic-mean warm MFLOPS over the kernels — the paper's summary
    /// statistic (a harmonic mean weights the slow kernels, as total
    /// runtime does).
    pub fn warm_hm_mflops(&self) -> f64 {
        harmonic_mean(self.reports.iter().map(|r| r.mflops_warm()))
    }

    /// Warm cycles per issued FPU element, summed over the kernels — the
    /// CPI-style axis for lane sweeps.
    pub fn warm_cycles_per_element(&self) -> f64 {
        let cycles: u64 = self.reports.iter().map(|r| r.warm.cycles).sum();
        let elements: u64 = self
            .reports
            .iter()
            .map(|r| r.warm.fpu.elements_issued)
            .sum();
        if elements == 0 {
            0.0
        } else {
            cycles as f64 / elements as f64
        }
    }
}

fn harmonic_mean(rates: impl Iterator<Item = f64>) -> f64 {
    let (mut n, mut sum) = (0u32, 0.0f64);
    for r in rates {
        n += 1;
        sum += 1.0 / r;
    }
    if n == 0 {
        0.0
    } else {
        n as f64 / sum
    }
}

/// The Livermore loops a sweep measures by default: the vectorizable
/// (1, 7, 12), reduction (3), recurrence (5, 11) and scalar (21, 23)
/// classes — `BENCH_dse.json`'s subset (also `repro-ablations`'), and
/// `POST /sweep`'s without `?loops=`.
pub const DEFAULT_LOOPS: [u8; 8] = [1, 3, 5, 7, 11, 12, 21, 23];

/// Parses a comma-separated Livermore loop list (`"1,3,7"`): the
/// `?loops=` of `POST /sweep` and the source of its kernel-cell jobs.
pub fn parse_loops(text: &str) -> Result<Vec<u8>, String> {
    let loops = text
        .split(',')
        .map(|t| {
            t.trim()
                .parse::<u8>()
                .map_err(|_| format!("bad loop number {t:?}"))
        })
        .collect::<Result<Vec<u8>, String>>()?;
    if !loops.iter().all(|n| (1..=24).contains(n)) {
        return Err("loop numbers must be 1..=24".to_string());
    }
    Ok(loops)
}

/// Runs every cell over the given Livermore loops (by number), fanning
/// all (cell × kernel) pairs across cores at once. Results are in cell
/// order, each with reports in kernel order; per-cell failures are
/// recorded, not propagated.
pub fn run_grid(cells: &[CellSpec], loops: &[u8]) -> Vec<CellResult> {
    let work: Vec<(&CellSpec, u8)> = cells
        .iter()
        .flat_map(|cell| loops.iter().map(move |&n| (cell, n)))
        .collect();
    let mut runs = crate::sweep::sweep(&work, |&(cell, n)| cell.run_loop(n)).into_iter();
    cells
        .iter()
        .map(|spec| {
            let cell_runs: Vec<_> = runs.by_ref().take(loops.len()).collect();
            CellResult::from_runs(spec.clone(), cell_runs)
        })
        .collect()
}

/// Indices of the Pareto-optimal cells: no other successful cell is at
/// least as fast (harmonic-mean warm MFLOPS) with at most as many
/// register-file bits *and* at most as many element lanes, strictly
/// better somewhere. Failed cells never qualify.
pub fn pareto_front(results: &[CellResult]) -> Vec<usize> {
    pareto_of(
        results
            .iter()
            .map(|r| (&r.spec, r.error.is_none().then(|| r.warm_hm_mflops()))),
    )
}

/// [`pareto_front`] over `(cell, warm MFLOPS)` pairs, `None` for a
/// failed cell.
pub(crate) fn pareto_of<'a>(
    cells: impl Iterator<Item = (&'a CellSpec, Option<f64>)>,
) -> Vec<usize> {
    let points: Vec<Option<(f64, u64, u64)>> = cells
        .map(|(spec, mflops)| {
            mflops.map(|m| (m, spec.reg_file_bits, spec.machine.timing.fpu_lanes))
        })
        .collect();
    let dominates = |a: (f64, u64, u64), b: (f64, u64, u64)| {
        a.0 >= b.0 && a.1 <= b.1 && a.2 <= b.2 && (a.0 > b.0 || a.1 < b.1 || a.2 < b.2)
    };
    (0..points.len())
        .filter(|&i| {
            points[i].is_some_and(|p| {
                !points
                    .iter()
                    .enumerate()
                    .any(|(j, other)| j != i && other.is_some_and(|o| dominates(o, p)))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;

    #[test]
    fn default_cell_matches_the_plain_harness() {
        let cell = CellSpec::new("default".into(), MachineConfig::default(), false);
        let results = run_grid(std::slice::from_ref(&cell), &[7]);
        assert_eq!(results.len(), 1);
        assert!(results[0].error.is_none());
        let direct = harness::run_kernel(&livermore::by_number(7)).unwrap();
        assert_eq!(results[0].reports[0].warm.cycles, direct.warm.cycles);
        assert_eq!(results[0].reports[0].cold.cycles, direct.cold.cycles);
        assert!(results[0].warm_hm_mflops() > 0.0);
        assert!(results[0].warm_cycles_per_element() > 0.0);
        assert_eq!(results[0].spec.reg_file_bits, 52 * 64);
    }

    #[test]
    fn grid_results_line_up_cell_by_cell() {
        let cells = GridSpec::parse("fpu_latency=1,6")
            .unwrap()
            .enumerate()
            .unwrap();
        let results = run_grid(&cells, &[3, 7]);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.reports.len(), 2, "{}", r.spec.name);
            assert!(r.error.is_none());
        }
        // Longer FPU latency can never speed a kernel up.
        assert!(
            results[1].reports[1].warm.cycles >= results[0].reports[1].warm.cycles,
            "latency 6 at least as slow as latency 1"
        );
    }

    /// Too few registers, or a memory that cannot hold the kernel's text
    /// (64 KiB: the text starts at 64 KiB) or data (1 MiB: the data
    /// starts at 1 MiB), make error cells. The memory cases used to abort
    /// the whole sweep with a worker panic.
    #[test]
    fn a_cell_too_small_for_the_kernel_reports_an_error() {
        let tiny = |knob: &str, value: u64| {
            let mut machine = MachineConfig::default();
            machine.set_knob(knob, value).unwrap();
            CellSpec::new(format!("{knob}={value}"), machine, false)
        };
        let cells = [
            tiny("num_fpu_regs", 2),
            tiny("memory_bytes", 64 << 10),
            tiny("memory_bytes", 1 << 20),
            CellSpec::new("default".into(), MachineConfig::default(), false),
        ];
        let results = run_grid(&cells, &[7]);
        for r in &results[..3] {
            assert!(r.error.is_some(), "{} cannot hold LL7", r.spec.name);
            assert!(r.reports.is_empty());
        }
        for r in &results[1..3] {
            let error = r.error.as_deref().unwrap();
            assert!(
                error.contains("beyond the configured memory_bytes"),
                "{error}"
            );
        }
        assert!(results[3].error.is_none(), "other cells unaffected");
    }

    #[test]
    fn parse_loops_accepts_lists_and_rejects_the_rest() {
        assert_eq!(parse_loops("1, 7,24"), Ok(vec![1, 7, 24]));
        assert_eq!(parse_loops("3,x"), Err("bad loop number \"x\"".to_string()));
        assert_eq!(parse_loops(""), Err("bad loop number \"\"".to_string()));
        for bad in ["0", "25", "7,300"] {
            assert!(parse_loops(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn pareto_front_drops_dominated_cells() {
        let mk = |name: &str, mflops: f64, bits: u64| {
            let mut r = CellResult {
                spec: CellSpec::new(name.into(), MachineConfig::default(), false),
                reports: Vec::new(),
                error: None,
            };
            r.spec.reg_file_bits = bits;
            // Fake a single-report cell with the desired rate: mflops()
            // is flops-per-cycle scaled, so craft stats directly.
            let mut report = harness::run_kernel(&livermore::by_number(12)).unwrap();
            report.warm.fpu.flops = (mflops * report.warm.cycles as f64 / 25.0) as u64;
            r.reports.push(report);
            r
        };
        let results = vec![
            mk("fast-cheap", 20.0, 1000),  // dominates everything
            mk("fast-costly", 20.0, 2000), // dominated: same speed, more bits
            mk("slow-cheap", 5.0, 1000),   // dominated: slower, same bits
        ];
        let front = pareto_front(&results);
        assert_eq!(front, vec![0]);
    }
}

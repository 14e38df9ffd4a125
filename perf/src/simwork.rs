//! The simulator workloads: `livermore-xlate` (Fig. 14 on the translated
//! backend) and `dse-grid` (the committed `repro-dse` grid on the tick
//! interpreter with fast-forward).
//!
//! Both measure whole passes over their inputs in a seeded order. Every
//! operation's statistics must equal the warm-up pass's, and every pass
//! must reproduce the committed documents: `BENCH_sim.json`'s cycle totals
//! and `BENCH_dse.json`'s per-cell harmonic-mean MFLOPS, bit for bit.

use std::time::{Duration, Instant};

use mt_dse::runner::{CellResult, CellSpec};
use mt_kernels::harness::run_kernel_with;
use mt_kernels::{livermore, Kernel, KernelReport};
use mt_sim::{Backend, Machine, MachineConfig, RunStats, SimConfig};
use mt_trace::Json;

use crate::gen::SplitMix64;
use crate::measure::{Phase, StepLog};

/// `repro-livermore --json`, the source of the per-pass cycle totals.
const BENCH_SIM: &str = include_str!("../../BENCH_sim.json");
/// `repro-dse --json`, the source of the grid and its expected MFLOPS.
const BENCH_DSE: &str = include_str!("../../BENCH_dse.json");

/// Deterministic work counts of one pass: the `sim.*` count rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulated cycles, cold and warm runs together.
    pub cycles: u64,
    /// Cycles of the cold runs alone.
    pub cold_cycles: u64,
    /// Cycles of the warm runs alone.
    pub warm_cycles: u64,
    /// CPU instructions completed.
    pub instructions: u64,
    /// Floating-point operations.
    pub flops: u64,
    /// Stall cycles of every cause.
    pub stall_cycles: u64,
    /// Stall cycles waiting on data-cache misses.
    pub data_miss_cycles: u64,
    /// Data-cache misses.
    pub dcache_misses: u64,
}

impl Counts {
    /// Adds one run's statistics; `warm` picks the column it lands in.
    pub fn add_run(&mut self, s: &RunStats, warm: bool) {
        self.cycles += s.cycles;
        if warm {
            self.warm_cycles += s.cycles;
        } else {
            self.cold_cycles += s.cycles;
        }
        self.instructions += s.instructions;
        self.flops += s.fpu.flops;
        self.stall_cycles += s.stalls.total();
        self.data_miss_cycles += s.stalls.data_miss;
        self.dcache_misses += s.dcache.misses;
    }

    fn add_report(&mut self, r: &KernelReport) {
        self.add_run(&r.cold, false);
        self.add_run(&r.warm, true);
    }
}

fn same_stats(a: &KernelReport, b: &KernelReport) -> bool {
    a.name == b.name && a.cold == b.cold && a.warm == b.warm
}

/// [`mt_kernels::harness::run_kernel_with`] step by step, with a span
/// around every public call it makes. The steps are the harness's own,
/// in its order, so the statistics are the harness's (the workloads check
/// them against untraced runs).
pub fn run_kernel_traced(
    kernel: &Kernel,
    config: SimConfig,
    log: &mut StepLog,
) -> Result<KernelReport, String> {
    let tag = |e: String| format!("{}: {e}", kernel.name);
    let mut m = log.time("sim.new", || Machine::new(config));
    log.time("sim.install", || kernel.routine.install(&mut m));
    log.time("kernels.init", || (kernel.init)(&mut m));
    let cold = log
        .time("sim.run-cold", || m.run())
        .map_err(|e| tag(e.to_string()))?;
    log.time("kernels.verify", || (kernel.verify)(&m))
        .map_err(tag)?;
    log.time("kernels.init", || (kernel.init)(&mut m));
    log.time("sim.reset-for-rerun", || m.reset_for_rerun());
    let warm = log
        .time("sim.run-warm", || m.run())
        .map_err(|e| tag(e.to_string()))?;
    log.time("kernels.verify", || (kernel.verify)(&m))
        .map_err(tag)?;
    Ok(KernelReport {
        name: kernel.name.clone(),
        cold,
        warm,
    })
}

/// The 24 Livermore loops on the translated backend.
pub struct Livermore {
    kernels: Vec<Kernel>,
    reference: Vec<KernelReport>,
    config: SimConfig,
    /// `BENCH_sim.json`'s `(simulated_cycles, warm_cycles_total)`.
    expected: (u64, u64),
}

impl Livermore {
    /// Builds the kernels (once) and runs the warm-up pass, whose reports
    /// every measured operation must reproduce.
    ///
    /// # Errors
    ///
    /// A kernel failing to run or verify, or totals that differ from
    /// `BENCH_sim.json`.
    pub fn setup() -> Result<Livermore, String> {
        let kernels: Vec<Kernel> = (1..=24).map(livermore::by_number).collect();
        let config = SimConfig {
            backend: Backend::Xlate,
            ..SimConfig::default()
        };
        let reference = kernels
            .iter()
            .map(|k| run_kernel_with(k, config.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        let workload = Livermore {
            kernels,
            reference,
            config,
            expected: bench_sim_totals()?,
        };
        let mut counts = Counts::default();
        workload.reference.iter().for_each(|r| counts.add_report(r));
        workload.check_totals(&counts)?;
        Ok(workload)
    }

    fn check_totals(&self, c: &Counts) -> Result<(), String> {
        if (c.cycles, c.warm_cycles) == self.expected {
            Ok(())
        } else {
            Err(format!(
                "pass totals (simulated {}, warm {}) differ from BENCH_sim.json {:?}",
                c.cycles, c.warm_cycles, self.expected
            ))
        }
    }

    /// One pass over the 24 kernels in seeded order, traced when `log` is
    /// given.
    pub fn pass(
        &self,
        rng: &mut SplitMix64,
        phase: &mut Phase,
        mut log: Option<&mut StepLog>,
    ) -> Counts {
        let mut order: Vec<usize> = (0..self.kernels.len()).collect();
        crate::gen::shuffle(rng, &mut order);
        let failed_before = phase.failed;
        let mut counts = Counts::default();
        for i in order {
            let kernel = &self.kernels[i];
            let start = Instant::now();
            let run = match log.as_deref_mut() {
                Some(log) => run_kernel_traced(kernel, self.config.clone(), log),
                None => run_kernel_with(kernel, self.config.clone()),
            };
            let end = Instant::now();
            phase.attempted += 1;
            match run {
                Ok(r) if same_stats(&r, &self.reference[i]) => {
                    phase.complete(start, end, r.cold.cycles + r.warm.cycles);
                    counts.add_report(&r);
                }
                Ok(_) => phase.fail(format!(
                    "{}: stats differ from the warm-up pass",
                    kernel.name
                )),
                Err(e) => phase.fail(e),
            }
        }
        if phase.failed == failed_before {
            if let Err(e) = self.check_totals(&counts) {
                phase.fail(e);
            }
        }
        counts
    }
}

fn bench_sim_totals() -> Result<(u64, u64), String> {
    let doc = mt_trace::json::parse(BENCH_SIM)?;
    let number = |path: &[&str]| {
        path.iter()
            .try_fold(&doc, |d, k| d.get(k))
            .and_then(Json::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("BENCH_sim.json has no {}", path.join(".")))
    };
    Ok((
        number(&["sim_throughput", "simulated_cycles"])?,
        number(&["metrics", "counters", "warm_cycles_total"])?,
    ))
}

/// The committed design-space grid: every cell of `BENCH_dse.json`
/// (the latency × lanes cells, then the unified and split comparison
/// cells) over its loops, one `(cell, loop)` pair per operation.
pub struct Grid {
    cells: Vec<CellSpec>,
    /// `warm_hm_mflops` per cell, as committed.
    expected_mflops: Vec<f64>,
    loops: Vec<u8>,
    /// Warm-up reports, indexed `cell * loops + loop`.
    reference: Vec<KernelReport>,
}

impl Grid {
    /// Reads the grid from `BENCH_dse.json` and runs the warm-up pass.
    ///
    /// # Errors
    ///
    /// A malformed document, a failing pair, or a cell whose MFLOPS differ
    /// from the document.
    pub fn setup() -> Result<Grid, String> {
        let doc = mt_trace::json::parse(BENCH_DSE)?;
        let mut cells = Vec::new();
        let mut expected_mflops = Vec::new();
        for entry in ["cells", "comparison"]
            .iter()
            .flat_map(|k| doc.get(k).map_or(&[][..], Json::items))
        {
            let text = |k: &str| {
                entry
                    .get(k)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("BENCH_dse.json cell without {k}"))
            };
            let machine = MachineConfig::parse(text("machine")?)?;
            let serialized = matches!(entry.get("serialized_issue"), Some(Json::Bool(true)));
            cells.push(CellSpec::new(
                text("name")?.to_string(),
                machine,
                serialized,
            ));
            expected_mflops.push(
                entry
                    .get("warm_hm_mflops")
                    .and_then(Json::as_f64)
                    .ok_or("BENCH_dse.json cell without warm_hm_mflops")?,
            );
        }
        let loops: Vec<u8> = doc
            .get("loops")
            .map(Json::items)
            .unwrap_or_default()
            .iter()
            .filter_map(|n| n.as_f64().map(|n| n as u8))
            .collect();
        if cells.is_empty() || loops.is_empty() {
            return Err("BENCH_dse.json lists no cells or loops".to_string());
        }
        let mut grid = Grid {
            cells,
            expected_mflops,
            loops,
            reference: Vec::new(),
        };
        grid.reference = (0..grid.pairs())
            .map(|i| {
                let (cell, n) = grid.pair(i);
                run_pair(cell, n)
            })
            .collect::<Result<_, _>>()?;
        grid.check_cells(&grid.reference)?;
        Ok(grid)
    }

    /// `(cell, loop)` pairs per pass.
    pub fn pairs(&self) -> usize {
        self.cells.len() * self.loops.len()
    }

    fn pair(&self, i: usize) -> (&CellSpec, u8) {
        (
            &self.cells[i / self.loops.len()],
            self.loops[i % self.loops.len()],
        )
    }

    /// True when pair `i` runs with serialized issue (the split-file proxy).
    pub fn is_serialized(&self, i: usize) -> bool {
        self.pair(i).0.serialized_issue
    }

    /// Holds every cell's harmonic-mean warm MFLOPS, computed from
    /// `reports` in loop order, to the committed value.
    fn check_cells(&self, reports: &[KernelReport]) -> Result<(), String> {
        for ((spec, want), chunk) in self
            .cells
            .iter()
            .zip(&self.expected_mflops)
            .zip(reports.chunks(self.loops.len()))
        {
            let got = CellResult {
                spec: spec.clone(),
                reports: chunk.to_vec(),
                error: None,
            }
            .warm_hm_mflops();
            if got != *want {
                return Err(format!(
                    "{}: warm_hm_mflops {got} differs from BENCH_dse.json {want}",
                    spec.name
                ));
            }
        }
        Ok(())
    }

    /// One pass over every pair in seeded order, traced when `log` is
    /// given. Each pair's wall time is appended to `pair_times`, when
    /// given, as `(pair index, time)`.
    pub fn pass(
        &self,
        rng: &mut SplitMix64,
        phase: &mut Phase,
        mut log: Option<&mut StepLog>,
        mut pair_times: Option<&mut Vec<(usize, Duration)>>,
    ) -> Counts {
        let mut order: Vec<usize> = (0..self.pairs()).collect();
        crate::gen::shuffle(rng, &mut order);
        let failed_before = phase.failed;
        let mut reports: Vec<Option<KernelReport>> = vec![None; self.pairs()];
        let mut counts = Counts::default();
        for i in order {
            let (cell, n) = self.pair(i);
            let start = Instant::now();
            let run = match log.as_deref_mut() {
                Some(log) => run_pair_traced(cell, n, log),
                None => run_pair(cell, n),
            };
            let end = Instant::now();
            phase.attempted += 1;
            if let Some(times) = pair_times.as_deref_mut() {
                times.push((i, end - start));
            }
            match run {
                Ok(r) if same_stats(&r, &self.reference[i]) => {
                    phase.complete(start, end, r.cold.cycles + r.warm.cycles);
                    counts.add_report(&r);
                    reports[i] = Some(r);
                }
                Ok(_) => phase.fail(format!(
                    "{} / loop {n}: stats differ from the warm-up pass",
                    cell.name
                )),
                Err(e) => phase.fail(format!("{} / loop {n}: {e}", cell.name)),
            }
        }
        if phase.failed == failed_before {
            let reports: Vec<KernelReport> = reports.into_iter().flatten().collect();
            if let Err(e) = self.check_cells(&reports) {
                phase.fail(e);
            }
        }
        counts
    }
}

/// One `(cell, loop)` pair through the public sweep entry point, exactly
/// as `repro-dse` runs it (a single input runs inline on this thread).
fn run_pair(cell: &CellSpec, n: u8) -> Result<KernelReport, String> {
    let result = mt_dse::run_grid(std::slice::from_ref(cell), &[n])
        .pop()
        .ok_or("run_grid returned no cell")?;
    match result.error {
        Some(e) => Err(e),
        None => result
            .reports
            .into_iter()
            .next()
            .ok_or_else(|| "run_grid returned no report".to_string()),
    }
}

/// [`run_pair`]'s work — build the kernel, check it fits the machine, run
/// the harness under the cell's configuration — with spans.
fn run_pair_traced(cell: &CellSpec, n: u8, log: &mut StepLog) -> Result<KernelReport, String> {
    let kernel = log.time("kernels.build", || livermore::by_number(n));
    cell.machine.validate_program(&kernel.routine.program)?;
    run_kernel_traced(&kernel, cell.config(), log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_harness_matches_the_harness() {
        let kernel = livermore::by_number(3);
        let config = SimConfig {
            backend: Backend::Xlate,
            ..SimConfig::default()
        };
        let mut log = StepLog::new(1);
        let traced = run_kernel_traced(&kernel, config.clone(), &mut log).unwrap();
        let plain = run_kernel_with(&kernel, config).unwrap();
        assert!(same_stats(&traced, &plain));
        for step in ["sim.new", "sim.install", "sim.run-cold", "sim.run-warm"] {
            assert_eq!(log.durations_ns(step).len(), 1, "{step}");
        }
        assert_eq!(log.durations_ns("kernels.verify").len(), 2);
    }

    #[test]
    fn committed_totals_are_readable() {
        assert_eq!(bench_sim_totals().unwrap(), (1_077_841, 378_731));
    }

    #[test]
    fn a_traced_grid_pair_matches_run_grid() {
        let cell = CellSpec::new("serialized".into(), MachineConfig::default(), true);
        let mut log = StepLog::new(1);
        let traced = run_pair_traced(&cell, 12, &mut log).unwrap();
        assert!(same_stats(&traced, &run_pair(&cell, 12).unwrap()));
    }
}

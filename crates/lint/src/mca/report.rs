//! Human-readable rendering of the static analysis, in the style of the
//! measured hot-spot profile so the two can be read side by side.

use std::fmt::Write;

use mt_trace::{Profiler, SourceResolver, StallCause};

use super::{Counters, LoopAnalysis, Prediction};
use crate::cfg::ProgramView;

/// Renders the exact straight-line prediction: totals, stall breakdown,
/// and a per-instruction attribution table with source locations from
/// `resolve` (disassembly fallback).
pub fn straight_line_report(
    view: &ProgramView,
    p: &Prediction,
    resolve: SourceResolver<'_>,
) -> String {
    let mut out = String::new();
    let c = &p.counters;
    let _ = writeln!(
        out,
        "static timing (exact, cache-warm): {} cycles, {} instructions, {} stall, {} drain",
        p.cycles,
        c.instructions,
        c.stalls.total(),
        c.drain_cycles
    );
    let _ = writeln!(
        out,
        "{} transfers, {} elements, {} flops, {} scoreboard-stall cycles (concurrent)\n",
        c.transfers, c.elements, c.flops, c.scoreboard_stalls
    );
    let _ = writeln!(
        out,
        "{:>8} {:>6}  {:>6} {:>6} {:>6}  {:<18} source",
        "cycles", "%", "compl", "stall", "elems", "hottest-stall"
    );
    let mut rows: Vec<_> = p.per_pc.iter().collect();
    rows.sort_by_key(|&(idx, row)| (std::cmp::Reverse(row.attributed_cycles()), *idx));
    for (&idx, row) in rows {
        let cycles = row.attributed_cycles();
        let pct = if p.cycles == 0 {
            0.0
        } else {
            100.0 * cycles as f64 / p.cycles as f64
        };
        let cause = StallCause::ALL
            .iter()
            .map(|&c| (c, row.stalls[c.index()]))
            .max_by_key(|&(_, n)| n)
            .filter(|&(_, n)| n > 0)
            .map(|(c, n)| format!("{} ({n})", c.name()))
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "{cycles:>8} {pct:>5.1}%  {:>6} {:>6} {:>6}  {cause:<18} {}",
            row.completions,
            row.stall_cycles(),
            row.elements,
            source_of(view, idx, resolve),
        );
    }
    out
}

/// Renders one loop's steady-state analysis: the headline, the binding
/// bottleneck, and the per-instruction share of the iteration.
pub fn loop_report(view: &ProgramView, l: &LoopAnalysis, resolve: SourceResolver<'_>) -> String {
    let mut out = String::new();
    let header_pc = view.pc(l.header);
    match &l.result {
        Err(skip) => {
            let _ = writeln!(
                out,
                "loop at {header_pc:#07x} ({}): not statically timed — {skip}",
                source_loc(view, l.header, resolve)
            );
        }
        Ok(ss) => {
            let _ = writeln!(
                out,
                "loop at {header_pc:#07x} ({}): steady state {:.2} cycles/iteration \
                 ({} cycles / {} iterations, after {} warm-up), bound by {}",
                source_loc(view, l.header, resolve),
                ss.cycles_per_iteration(),
                ss.cycles,
                ss.iterations,
                ss.warmup_iterations,
                ss.bottleneck,
            );
            let per_iter = |v: u64| v as f64 / ss.iterations as f64;
            let c = &ss.counters;
            let _ = writeln!(
                out,
                "  per iteration: {:.2} instructions, {:.2} stall ({}), {:.2} elements, \
                 {:.2} scoreboard-stall (concurrent)",
                per_iter(c.instructions),
                per_iter(c.stalls.total()),
                stall_summary(c),
                per_iter(c.elements),
                per_iter(c.scoreboard_stalls),
            );
            let mut rows: Vec<_> = ss.per_pc.iter().collect();
            rows.sort_by_key(|&(idx, row)| (std::cmp::Reverse(row.attributed_cycles()), *idx));
            for (&idx, row) in rows {
                let cycles = row.attributed_cycles();
                if cycles == 0 {
                    continue;
                }
                let share = 100.0 * cycles as f64 / ss.cycles as f64;
                let _ = writeln!(
                    out,
                    "  {share:>5.1}%  {:>5.2} cyc/iter  {}",
                    cycles as f64 / ss.iterations as f64,
                    source_of(view, idx, resolve),
                );
            }
        }
    }
    out
}

/// A predicted-vs-measured table: each analyzed loop's steady-state CPI
/// against the measured warm profile (`iterations` taken from latch
/// completions, measured cycles from the body's attributed cycles).
pub fn compare_report(
    view: &ProgramView,
    loops: &[LoopAnalysis],
    profiler: &Profiler,
    resolve: SourceResolver<'_>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>9} {:>10} {:>10} {:>7}  {:<10} loop",
        "pred-cpi", "meas-cpi", "iters", "err", "bound-by"
    );
    for l in loops {
        let loc = source_loc(view, l.header, resolve);
        match (&l.result, measured_loop(view, l, profiler)) {
            (Ok(ss), Some((meas_cpi, iters))) => {
                let pred = ss.cycles_per_iteration();
                let err = 100.0 * (pred - meas_cpi) / meas_cpi;
                let _ = writeln!(
                    out,
                    "{pred:>9.2} {meas_cpi:>10.2} {iters:>10} {err:>+6.1}%  {:<10} {loc}",
                    ss.bottleneck
                );
            }
            (Ok(ss), None) => {
                let _ = writeln!(
                    out,
                    "{:>9.2} {:>10} {:>10} {:>7}  {:<10} {loc}",
                    ss.cycles_per_iteration(),
                    "-",
                    "-",
                    "-",
                    ss.bottleneck
                );
            }
            (Err(skip), _) => {
                let _ = writeln!(
                    out,
                    "{:>9} {:>10} {:>10} {:>7}  {:<10} {loc} — {skip}",
                    "-", "-", "-", "-", "-"
                );
            }
        }
    }
    out
}

/// Measured warm cycles-per-iteration of an analyzed loop, on the same
/// terms as the static model: iterations from the latch instruction's
/// completions, cycles as the sum of attributed cycles over the body
/// PCs **minus the cache-penalty stalls** (dcache-miss and fetch). The
/// static machine is the cache-warm machine, so memory-system stalls a
/// warm pass still takes — working sets larger than the 64 KB data
/// cache — are outside its model by construction; [`measured_loop_raw`]
/// keeps them. `None` when the loop never ran in the profile.
pub fn measured_loop(
    view: &ProgramView,
    l: &LoopAnalysis,
    profiler: &Profiler,
) -> Option<(f64, u64)> {
    let (raw, iters) = measured_loop_raw(view, l, profiler)?;
    let cache_stalls: u64 = l
        .body
        .iter()
        .filter_map(|&idx| profiler.pc(view.pc(idx)))
        .map(|row| row.stalls_by(StallCause::DataMiss) + row.stalls_by(StallCause::Fetch))
        .sum();
    Some((raw - cache_stalls as f64 / iters as f64, iters))
}

/// Measured warm cycles-per-iteration with every stall included, cache
/// penalties and all.
pub fn measured_loop_raw(
    view: &ProgramView,
    l: &LoopAnalysis,
    profiler: &Profiler,
) -> Option<(f64, u64)> {
    let iters = profiler.pc(view.pc(l.latch))?.completions;
    if iters == 0 {
        return None;
    }
    let cycles: u64 = l
        .body
        .iter()
        .filter_map(|&idx| profiler.pc(view.pc(idx)))
        .map(|row| row.attributed_cycles())
        .sum();
    Some((cycles as f64 / iters as f64, iters))
}

fn stall_summary(c: &Counters) -> String {
    let parts: Vec<String> = [
        ("ir-busy", c.stalls.ir_busy),
        ("ls-port", c.stalls.ls_port_busy),
        ("fpu-hazard", c.stalls.fpu_reg_hazard),
        ("int-hazard", c.stalls.int_load_hazard),
        ("branch", c.stalls.branch),
    ]
    .iter()
    .filter(|&&(_, n)| n > 0)
    .map(|&(name, n)| format!("{name} {n}"))
    .collect();
    if parts.is_empty() {
        "none".to_string()
    } else {
        parts.join(", ")
    }
}

fn source_loc(view: &ProgramView, idx: usize, resolve: SourceResolver<'_>) -> String {
    resolve(view.pc(idx))
        .map(|(loc, _)| loc)
        .unwrap_or_else(|| format!("pc {:#07x}", view.pc(idx)))
}

fn source_of(view: &ProgramView, idx: usize, resolve: SourceResolver<'_>) -> String {
    resolve(view.pc(idx))
        .map(|(loc, text)| format!("{loc}: {text}"))
        .unwrap_or_else(|| match view.slots[idx].instr {
            Some(i) => format!("{:#07x}: {i}", view.pc(idx)),
            None => format!("{:#07x}: <undecodable>", view.pc(idx)),
        })
}

//! `mt-mca-v1` JSON export: the static loop predictions, optionally
//! joined with measured warm profiles, rendered byte-stable (no
//! wall-clock fields) so CI can plain byte-diff the committed
//! `BENCH_mca.json`.

use mt_trace::{Json, Profiler};

use super::report::{measured_loop, measured_loop_raw};
use super::LoopAnalysis;
use crate::cfg::ProgramView;

/// Schema identifier for the mca export.
pub const SCHEMA: &str = "mt-mca-v1";

/// One loop's prediction (and, when a profile is supplied, the measured
/// comparison) as a JSON object.
pub fn loop_json(view: &ProgramView, l: &LoopAnalysis, profile: Option<&Profiler>) -> Json {
    let mut obj = Json::obj([
        ("header_pc", Json::U64(view.pc(l.header) as u64)),
        ("latch_pc", Json::U64(view.pc(l.latch) as u64)),
        ("body_instructions", Json::U64(l.body.len() as u64)),
    ]);
    match &l.result {
        Err(skip) => {
            obj.push("analyzable", Json::Bool(false));
            obj.push("skip_reason", Json::Str(skip.to_string()));
        }
        Ok(ss) => {
            obj.push("analyzable", Json::Bool(true));
            obj.push("predicted_cpi", Json::F64(ss.cycles_per_iteration()));
            obj.push("period_cycles", Json::U64(ss.cycles));
            obj.push("period_iterations", Json::U64(ss.iterations));
            obj.push("warmup_iterations", Json::U64(ss.warmup_iterations));
            obj.push("bottleneck", Json::Str(ss.bottleneck.to_string()));
            let per_iter = |v: u64| Json::F64(v as f64 / ss.iterations as f64);
            let c = &ss.counters;
            obj.push(
                "per_iteration",
                Json::obj([
                    ("instructions", per_iter(c.instructions)),
                    ("elements", per_iter(c.elements)),
                    ("flops", per_iter(c.flops)),
                    ("stall_ir_busy", per_iter(c.stalls.ir_busy)),
                    ("stall_ls_port", per_iter(c.stalls.ls_port_busy)),
                    ("stall_fpu_hazard", per_iter(c.stalls.fpu_reg_hazard)),
                    ("stall_int_hazard", per_iter(c.stalls.int_load_hazard)),
                    ("stall_branch", per_iter(c.stalls.branch)),
                    ("scoreboard_stalls", per_iter(c.scoreboard_stalls)),
                ]),
            );
        }
    }
    if let Some(profiler) = profile {
        match (&l.result, measured_loop(view, l, profiler)) {
            (Ok(ss), Some((meas_cpi, iters))) => {
                let pred = ss.cycles_per_iteration();
                obj.push("measured_cpi", Json::F64(meas_cpi));
                if let Some((raw, _)) = measured_loop_raw(view, l, profiler) {
                    obj.push("measured_cpi_raw", Json::F64(raw));
                }
                obj.push("measured_iterations", Json::U64(iters));
                obj.push("error_pct", Json::F64(100.0 * (pred - meas_cpi) / meas_cpi));
            }
            _ => obj.push("measured_cpi", Json::Null),
        }
    }
    obj
}

/// The per-program object: every detected loop, in header order.
pub fn program_json(
    name: &str,
    view: &ProgramView,
    loops: &[LoopAnalysis],
    profile: Option<&Profiler>,
) -> Json {
    Json::obj([
        ("name", Json::Str(name.to_string())),
        ("loops_detected", Json::U64(loops.len() as u64)),
        (
            "loops",
            Json::Arr(loops.iter().map(|l| loop_json(view, l, profile)).collect()),
        ),
    ])
}

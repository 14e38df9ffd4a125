//! The stable `mt-dse-v1` JSON schema: one document per sweep.
//!
//! `BENCH_dse.json` is regenerated by `repro-dse --json` and gated
//! byte-for-byte in CI. `POST /sweep` returns the same renderer's
//! output: each of its kernel-cell jobs answers with its cell as
//! [`cell_json`] renders it, and [`sweep_doc`] assembles those cells
//! into the document [`sweep_json`] builds. So the document must be
//! byte-stable across runs: no timestamps inside the gated sections, no
//! hash-map ordering, floats rendered by the one shared formatter
//! (`mt_trace::Json`). Wall-clock fields live at the top level under
//! names the `dse` benchdiff profile ignores (`elapsed_ms`).

use mt_kernels::KernelReport;
use mt_sim::json::stats_json;
use mt_trace::Json;

use crate::grid::GridSpec;
use crate::runner::{pareto_of, CellResult, CellSpec};

/// Schema identifier embedded in every document.
pub const SCHEMA: &str = "mt-dse-v1";

/// One kernel's cold/warm pair — the `mt-bench-v1` per-kernel shape, so
/// dse cells and `BENCH_sim.json` (whose documents render kernels here
/// too) read identically.
pub fn report_json(r: &KernelReport) -> Json {
    Json::obj([
        ("name", Json::Str(r.name.clone())),
        ("cold", stats_json(&r.cold)),
        ("warm", stats_json(&r.warm)),
    ])
}

/// The grid section: mode plus every axis with its values.
fn grid_json(grid: &GridSpec) -> Json {
    Json::obj([
        ("mode", Json::Str(grid.mode.name().to_string())),
        (
            "axes",
            Json::Arr(
                grid.axes
                    .iter()
                    .map(|a| {
                        Json::obj([
                            ("knob", Json::Str(a.knob.clone())),
                            (
                                "values",
                                Json::Arr(a.values.iter().map(|&v| Json::U64(v)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One cell: its identity (name, full machine key material, ablation
/// flag, cost axes), its summary statistics, and its per-kernel reports.
pub fn cell_json(r: &CellResult) -> Json {
    let mut cell = Json::obj([
        ("name", Json::Str(r.spec.name.clone())),
        ("machine", Json::Str(r.spec.machine.key_material())),
        ("serialized_issue", Json::Bool(r.spec.serialized_issue)),
        ("reg_file_bits", Json::U64(r.spec.reg_file_bits)),
    ]);
    match &r.error {
        Some(e) => cell.push("error", Json::Str(e.clone())),
        None => {
            cell.push("warm_hm_mflops", Json::F64(r.warm_hm_mflops()));
            cell.push(
                "warm_cycles_per_element",
                Json::F64(r.warm_cycles_per_element()),
            );
            cell.push(
                "kernels",
                Json::Arr(r.reports.iter().map(report_json).collect()),
            );
        }
    }
    cell
}

/// The whole sweep document. `comparison` cells (the unified-52 vs
/// classical-split study) are rendered with the same cell shape but kept
/// in their own section; the Pareto front is computed over the grid cells
/// only.
pub fn sweep_json(grid: &GridSpec, loops: &[u8], results: &[CellResult]) -> Json {
    sweep_doc(grid, loops, results.iter().map(|r| (&r.spec, cell_json(r))))
}

/// [`sweep_json`] over cells already rendered by [`cell_json`], each
/// with the spec it measured, in grid order: `POST /sweep` assembles its
/// kernel-cell jobs' bodies here. A cell takes its spec's name (a job
/// renders its cell nameless, because names stay out of the cache key),
/// and the Pareto front is read off the rendered summaries, so the two
/// faces emit the same bytes.
pub fn sweep_doc<'a>(
    grid: &GridSpec,
    loops: &[u8],
    cells: impl IntoIterator<Item = (&'a CellSpec, Json)>,
) -> Json {
    let (specs, cells): (Vec<&CellSpec>, Vec<Json>) = cells
        .into_iter()
        .map(|(spec, cell)| (spec, named(cell, &spec.name)))
        .unzip();
    let summary = |i: usize, key: &str| cells[i].get(key).cloned().unwrap_or(Json::Null);
    let mflops = |cell: &Json| cell.get("warm_hm_mflops").and_then(Json::as_f64);
    let pareto = pareto_of(specs.iter().copied().zip(cells.iter().map(mflops)))
        .into_iter()
        .map(|i| {
            Json::obj([
                ("name", Json::Str(specs[i].name.clone())),
                ("reg_file_bits", Json::U64(specs[i].reg_file_bits)),
                ("fpu_lanes", Json::U64(specs[i].machine.timing.fpu_lanes)),
                ("warm_hm_mflops", summary(i, "warm_hm_mflops")),
                (
                    "warm_cycles_per_element",
                    summary(i, "warm_cycles_per_element"),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::Str(SCHEMA.to_string())),
        ("grid", grid_json(grid)),
        (
            "loops",
            Json::Arr(loops.iter().map(|&n| Json::U64(n as u64)).collect()),
        ),
        ("cells", Json::Arr(cells)),
        ("pareto", Json::Arr(pareto)),
    ])
}

/// A rendered cell under another name.
fn named(mut cell: Json, name: &str) -> Json {
    if let Json::Obj(members) = &mut cell {
        if let Some((_, value)) = members.iter_mut().find(|(key, _)| key == "name") {
            *value = Json::Str(name.to_string());
        }
    }
    cell
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;
    use crate::runner::run_grid;

    #[test]
    fn sweep_document_is_valid_and_byte_stable() {
        let grid = GridSpec::parse("fpu_lanes=1,2").unwrap();
        let cells = grid.enumerate().unwrap();
        let loops = [12u8];
        let results = run_grid(&cells, &loops);
        let doc = sweep_json(&grid, &loops, &results);
        let text = doc.pretty();
        assert_eq!(
            text,
            sweep_json(&grid, &loops, &run_grid(&cells, &loops)).pretty(),
            "byte-stable across reruns"
        );
        let parsed = mt_trace::json::parse(&text).unwrap();
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(parsed.get("cells").unwrap().items().len(), 2);
        let cell = &parsed.get("cells").unwrap().items()[0];
        assert!(cell
            .get("machine")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("fpu_lanes=1"));
        assert!(cell.get("warm_hm_mflops").unwrap().as_f64().unwrap() > 0.0);
        let kernels = cell.get("kernels").unwrap().items();
        assert_eq!(kernels.len(), 1);
        assert!(kernels[0].get("warm").unwrap().get("cycles").is_some());
        assert!(!parsed.get("pareto").unwrap().items().is_empty());
    }

    #[test]
    fn failed_cells_render_an_error_not_numbers() {
        let grid = GridSpec::parse("num_fpu_regs=2,52").unwrap();
        let results = run_grid(&grid.enumerate().unwrap(), &[7]);
        let doc = sweep_json(&grid, &[7], &results);
        let parsed = mt_trace::json::parse(&doc.pretty()).unwrap();
        let cells = parsed.get("cells").unwrap().items();
        assert!(cells[0].get("error").is_some());
        assert!(cells[0].get("warm_hm_mflops").is_none());
        assert!(cells[1].get("error").is_none());
        // The broken corner is excluded from the front.
        let pareto = parsed.get("pareto").unwrap().items();
        assert_eq!(pareto.len(), 1);
        assert_eq!(
            pareto[0].get("name").unwrap().as_str(),
            Some("num_fpu_regs=52")
        );
    }
}

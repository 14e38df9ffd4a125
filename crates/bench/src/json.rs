//! The stable `mt-bench-v1` JSON stats schema behind the repro binaries'
//! `--json` flag. The parameter studies (`repro-ablations`,
//! `repro-amdahl`) emit `mt_dse::json`'s `mt-dse-v1` grids instead.
//!
//! CI regenerates `BENCH_sim.json` from `repro-livermore --json`, so the
//! document must be byte-stable across runs: no timestamps, no hash-map
//! ordering, floats rendered by one formatter (`mt_trace::Json`). The
//! schema string is versioned; additive changes keep `-v1`, anything that
//! renames or re-types a field bumps it.

use mt_dse::json::report_json;
use mt_kernels::KernelReport;
use mt_trace::{Json, MetricsRegistry};

/// Schema identifier embedded in every document.
pub const SCHEMA: &str = "mt-bench-v1";

/// A whole benchmark document: schema marker, per-kernel reports, and a
/// [`MetricsRegistry`] of cross-kernel aggregates. Callers may `push`
/// extra benchmark-specific sections onto the returned object.
pub fn bench_json(bench: &str, reports: &[KernelReport]) -> Json {
    let mut metrics = MetricsRegistry::new();
    for r in reports {
        metrics.add("kernels", 1);
        metrics.add("warm_cycles_total", r.warm.cycles);
        metrics.add("warm_flops_total", r.warm.fpu.flops);
        metrics.add("warm_stall_cycles_total", r.warm.stalls.total());
        metrics.record("cold_cycles", r.cold.cycles);
        metrics.record("warm_cycles", r.warm.cycles);
        // MFLOPS ×100 so the integer histogram keeps two decimals.
        metrics.record("warm_mflops_x100", (r.warm.mflops() * 100.0).round() as u64);
    }
    Json::obj([
        ("schema", Json::Str(SCHEMA.to_string())),
        ("bench", Json::Str(bench.to_string())),
        (
            "kernels",
            Json::Arr(reports.iter().map(report_json).collect()),
        ),
        ("metrics", metrics.to_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_document_is_valid_and_stable() {
        let r = crate::run(&mt_kernels::reductions::fibonacci(8));
        let doc = bench_json("test", std::slice::from_ref(&r));
        let text = doc.pretty();
        assert_eq!(text, bench_json("test", &[r]).pretty(), "byte-stable");
        let parsed = mt_trace::json::parse(&text).unwrap();
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some(SCHEMA));
        let kernels = parsed.get("kernels").unwrap().items();
        assert_eq!(kernels.len(), 1);
        let warm = kernels[0].get("warm").unwrap();
        assert!(warm.get("cycles").unwrap().as_f64().unwrap() > 0.0);
        let stalls = warm.get("stalls").unwrap();
        assert!(stalls.get("total").is_some());
    }
}

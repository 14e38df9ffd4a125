//! Fuzz the sweep grid text, the body of `POST /sweep`: any text parses
//! to a grid or a structured error, a grid enumerates to validated cells
//! or a structured error, and running a cell gives a measured cell or an
//! error cell — never a panic.
//!
//! Lines name every `KNOB_NAMES` entry, `serialized_issue` and `mode`.
//! Most values come from inside a knob's valid range (cache geometry as
//! powers of two), some from outside it, plus `u64` extremes and
//! garbage tokens.

use mt_dse::{run_grid, GridSpec};
use mt_sim::KNOB_NAMES;
use proptest::prelude::*;

/// A value inside `knob`'s valid range, picked by `raw`.
fn in_range(knob: &str, raw: u64) -> u64 {
    match knob {
        "fpu_lanes" | "max_vector_len" => 1 + raw % 16,
        "int_load_delay_cycles" | "branch_penalty" => raw % 65,
        "num_fpu_regs" => 1 + raw % 52,
        "serialized_issue" => raw % 2,
        // 64 KiB to 4 MiB: the kernels' data starts at 1 MiB.
        "memory_bytes" => 1 << (16 + raw % 7),
        k if k.ends_with("_bytes") => 1 << (8 + raw % 9),
        k if k.ends_with("_line") => 1 << (2 + raw % 5),
        k if k.ends_with("_ways") => 1 << (raw % 3),
        k if k.ends_with("_miss") => raw % 100,
        _ => 1 + raw % 64,
    }
}

/// `u64` extremes.
const EXTREMES: [u64; 5] = [u64::MAX, u64::MAX - 1, 1 << 32, (1 << 32) - 1, 1 << 63];

/// Tokens that are not a `u64`.
const GARBAGE: [&str; 8] = [
    "",
    "-1",
    "0x10",
    "1e3",
    "x",
    " 7 ",
    "18446744073709551616",
    "\u{967}",
];

/// One value token for `knob`: in range, out of range, an extreme, or
/// garbage.
fn value(knob: &str, pick: u32, raw: u64) -> String {
    let outside = [0, 65 + raw % 10_000, 3 * in_range(knob, raw) + 1];
    match pick {
        0..=79 => in_range(knob, raw).to_string(),
        80..=91 => outside[(raw % 3) as usize].to_string(),
        92..=96 => EXTREMES[(raw % 5) as usize].to_string(),
        _ => GARBAGE[(raw % 8) as usize].to_string(),
    }
}

/// One line of grid text.
fn line() -> impl Strategy<Value = String> {
    let axis = (
        0..KNOB_NAMES.len() + 1,
        prop::collection::vec((0u32..100, any::<u64>()), 1..=3),
    )
        .prop_map(|(k, picks)| {
            let knob = KNOB_NAMES.get(k).copied().unwrap_or("serialized_issue");
            let values: Vec<String> = picks
                .into_iter()
                .map(|(pick, raw)| value(knob, pick, raw))
                .collect();
            format!("{knob}={}", values.join(","))
        });
    let mode = (0usize..6).prop_map(|i| {
        [
            "mode=cartesian",
            "mode=paired",
            " mode = paired # zip",
            "mode=diagonal",
            "mode",
            "# a comment",
        ][i]
            .to_string()
    });
    prop_oneof![
        12 => axis,
        3 => mode,
        1 => "[ -~]{0,16}",
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn grid_text_parses_enumerates_and_runs_without_panicking(
        lines in prop::collection::vec(line(), 1..5),
        loop_number in 1u8..=24,
    ) {
        let text = lines.join("\n");
        let Ok(grid) = GridSpec::parse(&text) else {
            return Ok(());
        };
        let count = grid.cell_count();
        let Ok(cells) = grid.enumerate() else {
            return Ok(());
        };
        prop_assert_eq!(cells.len(), count, "{:?}", text);
        for cell in &cells {
            prop_assert!(cell.machine.validate().is_ok(), "{}", cell.name);
        }
        // Two cells per case keep the debug-build test quick.
        let run = &cells[..cells.len().min(2)];
        let results = run_grid(run, &[loop_number]);
        prop_assert_eq!(results.len(), run.len());
        for (result, spec) in results.iter().zip(run) {
            prop_assert_eq!(&result.spec, spec);
            prop_assert!(
                result.error.is_some() != (result.reports.len() == 1),
                "{} on loop {}: neither a measured nor an error cell",
                spec.name,
                loop_number
            );
        }
    }
}

//! Fuzz the sweep grid text, the body of `POST /sweep`: any text parses
//! to a grid or a structured error, a grid enumerates to validated cells
//! or a structured error, and running a cell gives a measured cell or an
//! error cell — never a panic.
//!
//! Lines name every `KNOB_NAMES` entry, `serialized_issue` and `mode`.
//! Most values come from inside a knob's valid range (cache geometry as
//! powers of two), some from outside it, plus `u64` extremes and
//! garbage tokens. A grid has up to 22 distinct axes, as many as there
//! are, so some grids name more cells than `MAX_GRID_CELLS` and must be
//! an error rather than an allocation failure.

use mt_dse::{run_grid, GridSpec, MAX_GRID_CELLS};
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

/// One axis line for `knob`.
fn axis_line(knob: &str, picks: Vec<(u32, u64)>) -> String {
    let values: Vec<String> = picks
        .into_iter()
        .map(|(pick, raw)| value(knob, pick, raw))
        .collect();
    format!("{knob}={}", values.join(","))
}

/// One line that is not a fresh axis: a mode line, a comment, printable
/// noise or a repeated axis.
fn other_line() -> impl Strategy<Value = String> {
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
    let repeat = (0..KNOB_NAMES.len(), 0u64..100)
        .prop_map(|(k, raw)| axis_line(KNOB_NAMES[k], vec![(0, raw)]));
    prop_oneof![
        6 => mode,
        2 => "[ -~]{0,16}",
        1 => repeat,
    ]
}

/// Grid text: up to 22 distinct axes (every knob and `serialized_issue`)
/// in random order, and at most one other line at a random place. Most
/// grids have a few axes of one to three values, so most parse and run;
/// a fifth have 16 or more axes of up to eight values, mostly past
/// `MAX_GRID_CELLS` and some past what memory could hold.
fn grid_text() -> impl Strategy<Value = String> {
    let axes = KNOB_NAMES.len() + 1;
    (
        prop::collection::vec(
            (
                any::<u64>(),
                prop::collection::vec((0u32..100, any::<u64>()), 1..=8),
            ),
            axes,
        ),
        // (axes, most values per axis)
        prop_oneof![
            6 => (1..=4usize, Just(3usize)),
            1 => (5..=15, Just(3)),
            2 => (16..=axes, Just(8)),
        ],
        prop::collection::vec((any::<u64>(), other_line()), 0..=1),
    )
        .prop_map(|(drawn, (n, most), others)| {
            let mut lines: Vec<(u64, String)> = drawn
                .into_iter()
                .enumerate()
                .map(|(k, (key, mut picks))| {
                    let knob = KNOB_NAMES.get(k).copied().unwrap_or("serialized_issue");
                    picks.truncate(most);
                    (key, axis_line(knob, picks))
                })
                .collect();
            lines.sort();
            lines.truncate(n);
            lines.extend(others);
            lines.sort_by_key(|&(key, _)| key);
            lines
                .into_iter()
                .map(|(_, line)| line)
                .collect::<Vec<_>>()
                .join("\n")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn grid_text_parses_enumerates_and_runs_without_panicking(
        text in grid_text(),
        loop_number in 1u8..=24,
    ) {
        let Ok(grid) = GridSpec::parse(&text) else {
            return Ok(());
        };
        let count = grid.cell_count();
        let Ok(cells) = grid.enumerate() else {
            return Ok(());
        };
        prop_assert!(count <= MAX_GRID_CELLS, "{:?}", text);
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

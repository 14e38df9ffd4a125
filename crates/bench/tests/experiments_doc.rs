//! EXPERIMENTS.md quotes the gated documents, not memory of them: every
//! number in its Figure 14 table, its Fig. 11 effective-vectorization
//! table and its ablation table must equal the committed
//! `BENCH_sim.json`, `BENCH_amdahl.json` and `BENCH_ablations.json` at
//! the precision the binary that regenerates it prints, and its memo
//! coverage table must equal what a Livermore pass's runs report.

use mt_baseline::published::harmonic_mean;
use mt_kernels::livermore;
use mt_sim::{Machine, MemoCounts, SimConfig};
use mt_trace::Json;

const EXPERIMENTS: &str = include_str!("../../../EXPERIMENTS.md");
const BENCH_SIM: &str = include_str!("../../../BENCH_sim.json");
const BENCH_AMDAHL: &str = include_str!("../../../BENCH_amdahl.json");
const BENCH_ABLATIONS: &str = include_str!("../../../BENCH_ablations.json");

/// The body rows of the first table under the `## {heading}` (or
/// `### {heading}`) section, each cell trimmed and stripped of bold and
/// code marks.
fn table(heading: &str) -> Vec<Vec<String>> {
    let start = EXPERIMENTS
        .match_indices(heading)
        .map(|(i, _)| i)
        .find(|&i| EXPERIMENTS[..i].ends_with("\n## ") || EXPERIMENTS[..i].ends_with("\n### "))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no section {heading:?}"));
    let rows: Vec<Vec<String>> = EXPERIMENTS[start..]
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .skip(2) // the header and its separator
        .map(|line| {
            line.trim_matches('|')
                .split('|')
                .map(|cell| cell.trim().replace(['*', '`'], ""))
                .collect()
        })
        .collect();
    assert!(!rows.is_empty(), "no table under {heading:?}");
    rows
}

fn parse(doc: &str) -> Json {
    mt_trace::json::parse(doc).expect("committed documents parse")
}

/// One kernel's MFLOPS in one pass (`"cold"` or `"warm"`).
fn mflops(kernel: &Json, pass: &str) -> f64 {
    kernel
        .get(pass)
        .and_then(|stats| stats.get("mflops"))
        .and_then(Json::as_f64)
        .expect("every kernel has cold and warm MFLOPS")
}

/// The harmonic mean of a pass's MFLOPS over `kernels`.
fn hm(kernels: &[Json], pass: &str) -> f64 {
    let rates: Vec<f64> = kernels.iter().map(|k| mflops(k, pass)).collect();
    harmonic_mean(&rates)
}

/// Asserts that a table cell prints `value` to `decimals` places.
fn assert_quotes(row: &[String], column: usize, value: f64, decimals: usize) {
    assert_eq!(
        row[column],
        format!("{value:.decimals$}"),
        "EXPERIMENTS.md row {row:?}, column {column}"
    );
}

#[test]
fn figure_14_table_quotes_bench_sim() {
    let doc = parse(BENCH_SIM);
    let kernels = doc.get("kernels").unwrap().items();
    assert_eq!(kernels.len(), 24);
    let rows = table("Figure 14");
    assert_eq!(rows.len(), 24 + 3, "24 loops and three hm rows");
    for row in &rows {
        // A loop row is `n` (starred if the Cray vectorized it); a summary
        // row is `hm a-b`.
        let range = match row[0].strip_prefix("hm ") {
            Some(span) => {
                let (a, b) = span.split_once('-').unwrap();
                a.parse::<usize>().unwrap() - 1..b.parse::<usize>().unwrap()
            }
            None => {
                let n: usize = row[0].parse().unwrap();
                n - 1..n
            }
        };
        assert_quotes(row, 1, hm(&kernels[range.clone()], "cold"), 1);
        assert_quotes(row, 2, hm(&kernels[range], "warm"), 1);
    }
}

#[test]
fn figure_11_fits_quote_bench_amdahl() {
    let doc = parse(BENCH_AMDAHL);
    let cells = doc.get("cells").unwrap().items();
    let name = |cell: &Json| cell.get("name").unwrap().as_str().unwrap().to_string();
    assert_eq!(
        cells.iter().map(name).collect::<Vec<_>>(),
        ["serialized_issue=0", "serialized_issue=1"]
    );
    let (full, serialized) = (
        cells[0].get("kernels").unwrap().items(),
        cells[1].get("kernels").unwrap().items(),
    );
    let fits = doc.get("effective_vectorization").unwrap();
    let rows = table("Figure 11");
    assert_eq!(rows.len(), 3);
    for (row, (range, key)) in rows.iter().zip([
        (0..12, "loops_1_12"),
        (12..24, "loops_13_24"),
        (0..24, "loops_1_24"),
    ]) {
        assert_quotes(row, 1, hm(&full[range.clone()], "warm"), 1);
        assert_quotes(row, 2, hm(&serialized[range], "warm"), 1);
        let f = fits.get(key).unwrap().as_f64().unwrap();
        let percent = row[3].strip_suffix('%').expect("f is a percentage");
        assert_eq!(percent, format!("{:.0}", f * 100.0), "{key}");
    }
}

#[test]
fn ablation_table_quotes_bench_ablations() {
    let doc = parse(BENCH_ABLATIONS);
    let Json::Obj(studies) = &doc else {
        panic!("BENCH_ablations.json is an object of grids")
    };
    let cells: Vec<&Json> = studies
        .iter()
        .flat_map(|(_, grid)| grid.get("cells").unwrap().items())
        .collect();
    let rows = table("Ablations");
    assert_eq!(rows.len(), cells.len(), "one row per gated cell");
    for (row, cell) in rows.iter().zip(cells) {
        assert_eq!(Some(row[0].as_str()), cell.get("name").unwrap().as_str());
        let warm = cell.get("warm_hm_mflops").unwrap().as_f64().unwrap();
        assert_quotes(row, 1, warm, 2);
        assert_quotes(row, 2, hm(cell.get("kernels").unwrap().items(), "cold"), 2);
    }
}

/// A coverage row's numbers: instructions, replayed instructions,
/// recorded, replays, rollbacks, dropped, busy heads, given-up heads.
fn coverage(instructions: u64, c: &MemoCounts) -> [u64; 8] {
    [
        instructions,
        c.instructions_replayed,
        c.recorded,
        c.replayed,
        c.rolled_back,
        c.dropped,
        c.skipped_busy,
        c.skipped_cut,
    ]
}

/// Asserts that a coverage row prints `numbers`, with the replayed
/// share to one decimal after the replayed instructions.
fn assert_coverage(row: &[String], numbers: [u64; 8]) {
    let share = 100.0 * numbers[1] as f64 / numbers[0] as f64;
    let mut cells: Vec<String> = numbers.iter().map(u64::to_string).collect();
    cells.insert(2, format!("{share:.1}%"));
    assert_eq!(row[1..], cells, "EXPERIMENTS.md memo coverage row {row:?}");
}

#[test]
fn memo_coverage_table_quotes_a_livermore_pass() {
    let rows = table("The loop-iteration memo: coverage");
    assert_eq!(rows.len(), 24 + 1, "24 loops and the all row");
    let mut all = [0u64; 8];
    for (n, row) in (1..=24u8).zip(&rows) {
        // Each loop on its own paper machine, cold then warm.
        let kernel = livermore::by_number(n);
        let mut m = Machine::new(SimConfig::default());
        kernel.routine.install(&mut m);
        (kernel.init)(&mut m);
        let cold = m.run().unwrap();
        (kernel.init)(&mut m);
        m.reset_for_rerun();
        let warm = m.run().unwrap();
        let numbers = coverage(cold.instructions + warm.instructions, &m.memo_counts());
        assert_eq!(row[0], n.to_string());
        assert_coverage(row, numbers);
        for (sum, x) in all.iter_mut().zip(numbers) {
            *sum += x;
        }
    }
    assert_eq!(rows[24][0], "all");
    assert_coverage(&rows[24], all);
}

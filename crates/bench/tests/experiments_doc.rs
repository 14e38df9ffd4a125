//! EXPERIMENTS.md quotes the gated documents, not memory of them: every
//! number in its Figure 14 table, its Fig. 11 effective-vectorization
//! table and its ablation table must equal the committed
//! `BENCH_sim.json`, `BENCH_amdahl.json` and `BENCH_ablations.json` at
//! the precision the binary that regenerates it prints.

use mt_baseline::published::harmonic_mean;
use mt_trace::Json;

const EXPERIMENTS: &str = include_str!("../../../EXPERIMENTS.md");
const BENCH_SIM: &str = include_str!("../../../BENCH_sim.json");
const BENCH_AMDAHL: &str = include_str!("../../../BENCH_amdahl.json");
const BENCH_ABLATIONS: &str = include_str!("../../../BENCH_ablations.json");

/// The body rows of the first table under the `## {heading}` section,
/// each cell trimmed and stripped of bold and code marks.
fn table(heading: &str) -> Vec<Vec<String>> {
    let start = EXPERIMENTS
        .find(&format!("\n## {heading}"))
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

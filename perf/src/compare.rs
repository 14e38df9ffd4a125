//! `repro-perf compare`: judges a change against its parent from
//! alternating runs of both.
//!
//! The rules are choosing-metrics §8. A gain needs at least ten pairs,
//! wins in at least nine tenths of them, and a median gap wider than the
//! parent's interquartile range. Otherwise each end-to-end metric of each
//! workload is unchanged or worse by its `BENCHMARK.json` bound. It is
//! unresolved when either side spreads wider than the bound, unless every
//! change run beats every parent run. Exact counts must simply repeat.

use crate::spec::{MetricSpec, Outcome, Spec};
use crate::stats;

/// Pairs a gain needs.
pub const MIN_PAIRS: usize = 10;

/// The judgement on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the §8 rule.
    Improved,
    /// Not worse by more than the bound.
    Unchanged,
    /// Worse by more than the bound.
    Worse,
    /// Spread wider than the bound; no claim either way.
    Unresolved,
    /// An exact count that repeated on both sides.
    Same,
    /// An exact count that differs.
    Changed,
}

impl Verdict {
    /// Lower-case name as printed.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Changed => "changed",
        }
    }

    /// True for verdicts a change must not have.
    pub fn is_regression(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Changed)
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median over the parent's runs.
    pub parent_median: f64,
    /// Median over the change's runs.
    pub change_median: f64,
    /// Interquartile range over median, parent side.
    pub parent_spread: f64,
    /// Interquartile range over median, change side.
    pub change_spread: f64,
    /// Pairs the change won, of `pairs`.
    pub wins: usize,
    /// Alternating pairs compared.
    pub pairs: usize,
    /// The judgement.
    pub verdict: Verdict,
}

/// True when `a` is a better reading of `metric` than `b`.
fn better(metric: &MetricSpec, a: f64, b: f64) -> bool {
    if metric.higher_is_better {
        a > b
    } else {
        a < b
    }
}

/// Pairs in which the change read better than the parent.
fn wins(metric: &MetricSpec, parent: &[f64], change: &[f64]) -> usize {
    parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(metric, c, p))
        .count()
}

/// Judges `change` against `parent` for one bounded metric.
pub fn judge(metric: &MetricSpec, parent: &[f64], change: &[f64]) -> Verdict {
    let better = |a: f64, b: f64| better(metric, a, b);
    let (pm, cm) = (stats::median(parent), stats::median(change));
    let [pq1, _, pq3] = stats::quartiles(parent);
    let pairs = parent.len().min(change.len());
    let wins = wins(metric, parent, change);
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && better(cm, pm) && (cm - pm).abs() > pq3 - pq1
    {
        return Verdict::Improved;
    }
    let bound = metric.bound.unwrap_or(0.0);
    let every_change_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if (stats::spread(parent) > bound || stats::spread(change) > bound) && !every_change_better {
        return Verdict::Unresolved;
    }
    let worse_by = if metric.higher_is_better {
        (pm - cm) / pm
    } else {
        (cm - pm) / pm
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// Compares runs of the parent with runs of the change; `parents[i]` and
/// `changes[i]` form pair `i`, run with the same seed. Rows come per
/// workload, end-to-end metrics first, then every exact count the
/// documents carry. A count may differ between seeds (the serve workloads
/// generate their programs from the seed), so it is compared pair by pair.
pub fn compare(spec: &Spec, parents: &[Vec<Outcome>], changes: &[Vec<Outcome>]) -> Vec<Row> {
    let value = |doc: &[Outcome], workload: &str, metric: &str| {
        doc.iter()
            .find(|o| o.workload == workload)
            .and_then(|o| o.value(metric))
    };
    let counts = spec.per_layer.iter().filter(|m| m.is_count());
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for metric in spec.end_to_end.iter().chain(counts.clone()) {
            let (p, c): (Vec<f64>, Vec<f64>) = parents
                .iter()
                .zip(changes)
                .filter_map(|(pd, cd)| {
                    Some((
                        value(pd, workload, &metric.name)?,
                        value(cd, workload, &metric.name)?,
                    ))
                })
                .unzip();
            if p.is_empty() {
                continue;
            }
            let verdict = if metric.is_count() {
                if p == c {
                    Verdict::Same
                } else {
                    Verdict::Changed
                }
            } else {
                judge(metric, &p, &c)
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name.clone(),
                parent_median: stats::median(&p),
                change_median: stats::median(&c),
                parent_spread: stats::spread(&p),
                change_spread: stats::spread(&c),
                wins: wins(metric, &p, &c),
                pairs: p.len().min(c.len()),
                verdict,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(workload: &str, metrics: &[(&str, f64)]) -> Outcome {
        let spec = Spec::load();
        Outcome {
            workload: workload.to_string(),
            correct: true,
            attempted: 100,
            failed: 0,
            metrics: metrics
                .iter()
                .map(|&(n, v)| (n.to_string(), v, spec.metric(n).unwrap().unit.clone()))
                .collect(),
        }
    }

    /// Ten runs a side: `f(side, run)` gives each run's metrics.
    fn runs(f: impl Fn(usize, usize) -> Vec<Outcome>) -> (Vec<Vec<Outcome>>, Vec<Vec<Outcome>>) {
        (
            (0..10).map(|i| f(0, i)).collect(),
            (0..10).map(|i| f(1, i)).collect(),
        )
    }

    /// ±1% deterministic wobble, different per run.
    fn wobble(i: usize) -> f64 {
        1.0 + ((i * 7) % 5) as f64 * 0.005 - 0.01
    }

    fn verdict(rows: &[Row], workload: &str, metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.workload == workload && r.metric == metric)
            .unwrap_or_else(|| panic!("no row for {workload} {metric}"))
            .verdict
    }

    #[test]
    fn synthetic_parent_and_change() {
        let (parents, changes) = runs(|side, i| {
            let w = wobble(i);
            vec![
                outcome(
                    "serve-miss",
                    &[
                        // Injected regression: 30% fewer requests.
                        ("req_per_s", 600.0 * w * if side == 1 { 0.7 } else { 1.0 }),
                        // A 30% gain in every run.
                        (
                            "latency_p50_us",
                            3300.0 * w * if side == 1 { 0.7 } else { 1.0 },
                        ),
                        // Wider than its bound on both sides.
                        (
                            "latency_p99_us",
                            7000.0 * (1.0 + ((i % 4) as f64 - 1.5) * 0.2),
                        ),
                        ("setup_s", 0.05 * w),
                    ],
                ),
                outcome(
                    "livermore-xlate",
                    &[
                        ("sim_mcycles_per_s", 55.0 * w),
                        (
                            "sim.cycles",
                            if side == 1 { 1_077_842.0 } else { 1_077_841.0 },
                        ),
                        ("sim.flops", 142_683.0),
                        // Differs between seeds, agrees within each pair.
                        ("mem.dcache_misses", 3_000.0 + i as f64),
                    ],
                ),
            ]
        });
        let rows = compare(&Spec::load(), &parents, &changes);
        assert_eq!(verdict(&rows, "serve-miss", "req_per_s"), Verdict::Worse);
        assert_eq!(
            verdict(&rows, "serve-miss", "latency_p50_us"),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&rows, "serve-miss", "latency_p99_us"),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&rows, "serve-miss", "setup_s"), Verdict::Unchanged);
        assert_eq!(
            verdict(&rows, "livermore-xlate", "sim_mcycles_per_s"),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&rows, "livermore-xlate", "sim.cycles"),
            Verdict::Changed
        );
        assert_eq!(
            verdict(&rows, "livermore-xlate", "sim.flops"),
            Verdict::Same
        );
        assert_eq!(
            verdict(&rows, "livermore-xlate", "mem.dcache_misses"),
            Verdict::Same
        );
        assert!(
            rows.iter().all(|r| r.workload != "dse-grid"),
            "no runs, no rows"
        );
    }

    #[test]
    fn a_wide_spread_still_resolves_when_every_change_run_wins() {
        let spec = Spec::load();
        let metric = spec.metric("latency_p99_us").unwrap();
        let parent: Vec<f64> = (0..10).map(|i| 1000.0 + 60.0 * i as f64).collect();
        let change: Vec<f64> = parent.iter().map(|p| p - 700.0).collect();
        assert!(stats::spread(&parent) > metric.bound.unwrap());
        assert_eq!(judge(metric, &parent, &change), Verdict::Improved);
        // Too few pairs to claim the gain: no longer unresolved either,
        // because every change run beats every parent run.
        assert_eq!(
            judge(metric, &parent[..5], &change[..5]),
            Verdict::Unchanged
        );
    }

    #[test]
    fn nine_of_ten_wins_are_required() {
        let spec = Spec::load();
        let metric = spec.metric("req_per_s").unwrap();
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let mut change: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
        assert_eq!(judge(metric, &parent, &change), Verdict::Improved);
        change[0] = 90.0;
        change[1] = 90.0;
        assert_ne!(judge(metric, &parent, &change), Verdict::Improved);
    }
}

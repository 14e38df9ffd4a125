//! Prometheus text-format exposition (version 0.0.4).
//!
//! A tiny writer for the subset the service emits: `counter` families
//! (unlabeled, or with one label), unlabeled `gauge` families, and
//! `summary` families (the same) rendered from [`HdrHistogram`]
//! quantiles. Families are written in call order; each gets its
//! `# HELP`/`# TYPE` header exactly once.
//! A matching [`validate`] checks the line grammar so tests and the CI
//! smoke can assert the document is scrapeable without a real
//! Prometheus binary.

use std::fmt::Write as _;

use crate::hdr::HdrHistogram;

/// Builds one exposition document.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

/// Escapes a HELP string (backslash and newline, per the format spec).
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value (backslash, quote, newline).
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders a sample value: integers stay integral, floats keep a point.
fn num(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl PromText {
    /// An empty document.
    pub fn new() -> PromText {
        PromText::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        debug_assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
                && !name.starts_with(|c: char| c.is_ascii_digit()),
            "invalid metric name {name}"
        );
        let _ = writeln!(self.out, "# HELP {name} {}", escape_help(help));
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        if labels.is_empty() {
            let _ = writeln!(self.out, "{name} {}", num(value));
        } else {
            let rendered: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
                .collect();
            let _ = writeln!(self.out, "{name}{{{}}} {}", rendered.join(","), num(value));
        }
    }

    /// A single-sample counter family.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.sample(name, &[], value as f64);
    }

    /// A counter family with one sample per value of its one `label`.
    pub fn counter_vec(&mut self, name: &str, help: &str, label: &str, samples: &[(&str, u64)]) {
        self.header(name, help, "counter");
        for &(value, n) in samples {
            self.sample(name, &[(label, value)], n as f64);
        }
    }

    /// A single-sample gauge family.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        self.sample(name, &[], value);
    }

    /// A summary family from a histogram: p50/p90/p99/p999 quantile
    /// samples plus `_sum` and `_count`. Empty histograms still emit
    /// `_sum`/`_count` (zero) so the family is always present.
    pub fn summary(&mut self, name: &str, help: &str, h: &HdrHistogram) {
        self.header(name, help, "summary");
        self.summary_samples(name, &[], h);
    }

    /// A summary family with one histogram per value of its one `label`
    /// (e.g. one per request stage).
    pub fn summary_vec(
        &mut self,
        name: &str,
        help: &str,
        label: &str,
        samples: &[(&str, &HdrHistogram)],
    ) {
        self.header(name, help, "summary");
        for &(value, h) in samples {
            self.summary_samples(name, &[(label, value)], h);
        }
    }

    /// One histogram's quantile samples, `_sum` and `_count`, under
    /// `labels`.
    fn summary_samples(&mut self, name: &str, labels: &[(&str, &str)], h: &HdrHistogram) {
        for (q, p) in [
            ("0.5", 50.0),
            ("0.9", 90.0),
            ("0.99", 99.0),
            ("0.999", 99.9),
        ] {
            if let Some(v) = h.quantile(p) {
                let mut with_q = labels.to_vec();
                with_q.push(("quantile", q));
                self.sample(name, &with_q, v as f64);
            }
        }
        self.sample(&format!("{name}_sum"), labels, h.sum() as f64);
        self.sample(&format!("{name}_count"), labels, h.count() as f64);
    }

    /// The finished document (ends with a newline).
    pub fn render(self) -> String {
        self.out
    }
}

/// Checks `text` against the exposition-format line grammar: every line
/// is a comment or `name[{labels}] value`, every samples' family has a
/// preceding `# TYPE`, and values parse as floats. Returns the list of
/// family names with a `# TYPE` line.
///
/// # Errors
///
/// Returns the first offending line.
pub fn validate(text: &str) -> Result<Vec<String>, String> {
    let mut families: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts.next().ok_or_else(|| format!("bad TYPE: {line}"))?;
                let kind = parts.next().ok_or_else(|| format!("bad TYPE: {line}"))?;
                if !matches!(
                    kind,
                    "counter" | "gauge" | "summary" | "histogram" | "untyped"
                ) {
                    return Err(format!("unknown family type: {line}"));
                }
                families.push(name.to_string());
            } else if !rest.starts_with("HELP ") {
                return Err(format!("unknown comment: {line}"));
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_part, value_part) = match line.find('}') {
            Some(i) => {
                let (head, tail) = line.split_at(i + 1);
                let name = head.split('{').next().unwrap_or_default();
                (name, tail.trim())
            }
            None => {
                let mut it = line.split_whitespace();
                (it.next().unwrap_or_default(), it.next().unwrap_or_default())
            }
        };
        if name_part.is_empty()
            || !name_part
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("bad metric name: {line}"));
        }
        if value_part != "NaN" && value_part.parse::<f64>().is_err() {
            return Err(format!("bad sample value: {line}"));
        }
        // `_sum`/`_count` samples belong to their summary family.
        let base = name_part
            .strip_suffix("_sum")
            .or_else(|| name_part.strip_suffix("_count"))
            .unwrap_or(name_part);
        if !families.iter().any(|f| f == base || f == name_part) {
            return Err(format!("sample without a TYPE declaration: {line}"));
        }
    }
    Ok(families)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_counters_gauges_and_labels() {
        let mut p = PromText::new();
        p.counter("mtserve_requests_total", "Requests accepted.", 17);
        p.gauge("mtserve_queue_depth", "Jobs queued.", 3.0);
        p.counter_vec(
            "mtserve_responses_total",
            "Responses by status.",
            "status",
            &[("200", 12), ("429", 5)],
        );
        let text = p.render();
        assert!(text.contains("# TYPE mtserve_requests_total counter\n"));
        assert!(text.contains("mtserve_requests_total 17\n"));
        assert!(text.contains("mtserve_responses_total{status=\"429\"} 5\n"));
        let fams = validate(&text).unwrap();
        assert_eq!(fams.len(), 3);
    }

    #[test]
    fn summary_from_histogram() {
        let mut h = HdrHistogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let mut p = PromText::new();
        p.summary("mtserve_latency_us", "Request latency.", &h);
        let text = p.render();
        assert!(text.contains("# TYPE mtserve_latency_us summary\n"));
        assert!(text.contains("mtserve_latency_us{quantile=\"0.99\"}"));
        assert!(text.contains("mtserve_latency_us_count 1000\n"));
        validate(&text).unwrap();
    }

    #[test]
    fn labeled_summaries_share_one_family() {
        let mut fast = HdrHistogram::default();
        let mut slow = HdrHistogram::default();
        fast.record(10);
        slow.record(1000);
        let mut p = PromText::new();
        p.summary_vec(
            "stage_us",
            "Per-stage latency.",
            "stage",
            &[("parse", &fast), ("sim-run", &slow)],
        );
        let text = p.render();
        assert_eq!(text.matches("# TYPE stage_us summary").count(), 1);
        assert!(text.contains("stage_us{stage=\"parse\",quantile=\"0.5\"} 10\n"));
        assert!(text.contains("stage_us_count{stage=\"sim-run\"} 1\n"));
        validate(&text).unwrap();
    }

    #[test]
    fn empty_summary_still_exposes_count() {
        let mut p = PromText::new();
        p.summary("x_us", "Empty.", &HdrHistogram::default());
        let text = p.render();
        assert!(text.contains("x_us_count 0\n"));
        assert!(!text.contains("quantile"));
        validate(&text).unwrap();
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate("mtserve_requests_total 1\n").is_err(), "no TYPE");
        assert!(validate("# TYPE a counter\na zzz\n").is_err(), "bad value");
        assert!(validate("# TYPE a counter\n9bad 1\n").is_err(), "bad name");
        assert!(validate("# TYPE a frobnicator\n").is_err(), "bad kind");
    }

    #[test]
    fn label_values_are_escaped() {
        let mut p = PromText::new();
        p.counter_vec("g", "Help with \\ and\nnewline.", "k", &[("a\"b\\c\nd", 2)]);
        let text = p.render();
        assert!(text.contains("# HELP g Help with \\\\ and\\nnewline.\n"));
        assert!(text.contains("g{k=\"a\\\"b\\\\c\\nd\"} 2\n"));
        validate(&text).unwrap();
    }
}

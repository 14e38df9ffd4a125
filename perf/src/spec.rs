//! The benchmark's definition (`BENCHMARK.json` at the repository root)
//! and the documents a run produces.
//!
//! `BENCHMARK.json` is the one list of workloads and metrics: the runner
//! takes every unit from it, `compare` takes every bound from it, and the
//! tests hold the metrics a run emits to exactly its lists.

use mt_trace::Json;

/// The benchmark definition, compiled in.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Schema marker of the documents `run --out` and `all` write.
pub const PERF_SCHEMA: &str = "mt-perf-v1";

/// One metric of the definition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name (`req_per_s`, `sim.cycles`, …).
    pub name: String,
    /// Unit as printed (`1/s`, `us`, `count`, …).
    pub unit: String,
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// True for exact counts: deterministic, compared for equality.
    pub fn is_count(&self) -> bool {
        self.unit == "count"
    }
}

/// The parsed definition.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names, in definition order.
    pub workloads: Vec<String>,
    /// Metrics a user of the system sees (untraced runs).
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of single layers (traced runs).
    pub per_layer: Vec<MetricSpec>,
    /// Seconds one run measures by default.
    pub run_seconds: u64,
}

impl Spec {
    /// The compiled-in definition.
    ///
    /// # Panics
    ///
    /// Panics when `BENCHMARK.json` is malformed — the tests parse it, so
    /// this only fires on a broken build.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    /// Parses a definition document.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or mistyped field.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = mt_trace::json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            field(&doc, key)?
                .items()
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: str_field(m, "name")?.to_string(),
                        unit: str_field(m, "unit")?.to_string(),
                        higher_is_better: match str_field(m, "better")? {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("bad direction {other:?}")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: field(&doc, "workloads")?
                .items()
                .iter()
                .map(|w| str_field(w, "name").map(str::to_string))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: field(&doc, "run_seconds")?
                .as_f64()
                .ok_or("run_seconds is not a number")? as u64,
        })
    }

    /// The metrics a run reports: end-to-end untraced, per-layer traced.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Looks a metric up in either list.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn str_field<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    field(doc, key)?
        .as_str()
        .ok_or_else(|| format!("`{key}` is not a string"))
}

/// The result of one workload run: the last line of `run`'s output.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// True when every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed (transport error, wrong status, or a failed
    /// output check).
    pub failed: u64,
    /// `(name, value, unit)` per reported metric, in definition order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    /// The value of metric `name`, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// The result object: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if unit == "count" && value.fract() == 0.0 {
                    Json::U64(*value as u64)
                } else {
                    Json::F64(*value)
                };
                (
                    name.clone(),
                    Json::obj([("value", value), ("unit", Json::Str(unit.clone()))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Reads a result object back.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or mistyped field.
    pub fn from_json(workload: &str, doc: &Json) -> Result<Outcome, String> {
        let count = |key: &str| {
            field(doc, key)?
                .as_f64()
                .map(|v| v as u64)
                .ok_or_else(|| format!("`{key}` is not a number"))
        };
        let metrics = match field(doc, "metrics")? {
            Json::Obj(members) => members
                .iter()
                .map(|(name, m)| {
                    let value = field(m, "value")?
                        .as_f64()
                        .ok_or_else(|| format!("{name}: value is not a number"))?;
                    Ok((name.clone(), value, str_field(m, "unit")?.to_string()))
                })
                .collect::<Result<_, String>>()?,
            _ => return Err("`metrics` is not an object".to_string()),
        };
        Ok(Outcome {
            workload: workload.to_string(),
            correct: matches!(field(doc, "correct")?, Json::Bool(true)),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// An `mt-perf-v1` document: the outcomes of one `run` or `all`.
pub fn perf_doc(seed: u64, seconds: f64, traced: bool, outcomes: &[Outcome]) -> Json {
    Json::obj([
        ("schema", Json::Str(PERF_SCHEMA.to_string())),
        ("seed", Json::U64(seed)),
        ("seconds", Json::F64(seconds)),
        ("trace", Json::Bool(traced)),
        (
            "workloads",
            Json::Arr(
                outcomes
                    .iter()
                    .map(|o| {
                        let mut doc = Json::obj([("name", Json::Str(o.workload.clone()))]);
                        if let Json::Obj(members) = o.to_json() {
                            for (k, v) in members {
                                doc.push(k, v);
                            }
                        }
                        doc
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Reads the outcomes of an `mt-perf-v1` document.
///
/// # Errors
///
/// A message when the text is not such a document.
pub fn parse_perf_doc(text: &str) -> Result<Vec<Outcome>, String> {
    let doc = mt_trace::json::parse(text)?;
    if doc.get("schema").and_then(Json::as_str) != Some(PERF_SCHEMA) {
        return Err(format!("not an {PERF_SCHEMA} document"));
    }
    field(&doc, "workloads")?
        .items()
        .iter()
        .map(|w| Outcome::from_json(str_field(w, "name")?, w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_definition_parses_and_is_self_consistent() {
        let spec = Spec::load();
        assert_eq!(
            spec.workloads,
            ["livermore-xlate", "dse-grid", "serve-miss", "serve-hit"]
        );
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        let setup = spec.metric("setup_s").expect("setup_s is defined");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let widest = spec
            .end_to_end
            .iter()
            .map(|m| m.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are unique");
        assert!(spec.per_layer.len() <= 128);
    }

    #[test]
    fn outcomes_round_trip_through_a_perf_document() {
        let outcome = Outcome {
            workload: "serve-hit".to_string(),
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                ("req_per_s".to_string(), 8123.25, "1/s".to_string()),
                ("sim.cycles".to_string(), 1077841.0, "count".to_string()),
            ],
        };
        let line = outcome.to_json().to_string();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0"));
        assert!(line.contains("\"sim.cycles\": {\"value\": 1077841, \"unit\": \"count\"}"));
        let doc = perf_doc(7, 10.0, false, std::slice::from_ref(&outcome)).pretty();
        assert_eq!(parse_perf_doc(&doc).unwrap(), vec![outcome]);
        assert!(parse_perf_doc("{\"schema\": \"other\"}").is_err());
    }
}

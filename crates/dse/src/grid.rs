//! Declarative sweep grids: knob axes → concrete machine cells.
//!
//! A grid spec is a tiny line-oriented text format (also the body of
//! `POST /sweep`):
//!
//! ```text
//! # one knob per line; '#' starts a comment
//! mode=cartesian            # or "paired"; cartesian is the default
//! fpu_latency=1,3,5
//! fpu_lanes=1,2,4
//! serialized_issue=0,1      # cell-level ablation knob (not a machine knob)
//! ```
//!
//! `cartesian` expands the cross product of every axis; `paired` requires
//! equal-length axes and takes one value per axis per cell (cell *i* is
//! column *i*), for sweeps along a diagonal. Every expanded cell is
//! validated through [`MachineConfig::validate`], so an axis cannot smuggle
//! in an inconsistent machine.

use mt_sim::{MachineConfig, KNOB_NAMES};

use crate::runner::CellSpec;

/// How axes combine into cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GridMode {
    /// Cross product of all axes.
    #[default]
    Cartesian,
    /// One value per axis per cell; all axes must have equal length.
    Paired,
}

impl GridMode {
    /// Lower-case name, as written in the spec text.
    pub fn name(self) -> &'static str {
        match self {
            GridMode::Cartesian => "cartesian",
            GridMode::Paired => "paired",
        }
    }
}

/// The cell-level ablation axis: serialize the Load/Store and ALU
/// instruction registers (`SimConfig::serialized_issue`), the proxy for a
/// classical split register file with no vector/scalar overlap. Not a
/// [`MachineConfig`] knob — it changes issue policy, not geometry.
pub const SERIALIZED_ISSUE_AXIS: &str = "serialized_issue";

/// Most cells [`GridSpec::enumerate`] expands a grid to. A few hundred
/// bytes of grid text can name billions of cells, and expanding them
/// would fail the allocation; `repro-dse`'s grid has 9 cells and
/// `POST /sweep` caps its grids at 64.
pub const MAX_GRID_CELLS: usize = 65_536;

/// One sweep axis: a knob name and the values it takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    /// A [`KNOB_NAMES`] entry or [`SERIALIZED_ISSUE_AXIS`].
    pub knob: String,
    /// The values this axis sweeps over, in spec order.
    pub values: Vec<u64>,
}

/// A parsed sweep specification.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GridSpec {
    /// Axis combination rule.
    pub mode: GridMode,
    /// The axes, in spec order (the order determines cell enumeration
    /// order: the last axis varies fastest under [`GridMode::Cartesian`]).
    pub axes: Vec<Axis>,
}

impl GridSpec {
    /// Parses the line-oriented spec text. Unknown knobs, duplicate axes,
    /// empty value lists, and malformed numbers are errors; the *geometry*
    /// of each resulting machine is checked later, in
    /// [`GridSpec::enumerate`].
    pub fn parse(text: &str) -> Result<GridSpec, String> {
        let mut spec = GridSpec::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: String| format!("grid line {}: {msg}", lineno + 1);
            let (name, rhs) = line
                .split_once('=')
                .ok_or_else(|| err(format!("expected knob=v1,v2,... in {line:?}")))?;
            let name = name.trim();
            if name == "mode" {
                spec.mode = match rhs.trim() {
                    "cartesian" => GridMode::Cartesian,
                    "paired" => GridMode::Paired,
                    other => {
                        return Err(err(format!(
                            "unknown mode {other:?} (expected cartesian or paired)"
                        )))
                    }
                };
                continue;
            }
            if name != SERIALIZED_ISSUE_AXIS && !KNOB_NAMES.contains(&name) {
                return Err(err(format!(
                    "unknown knob {name:?} (expected one of: {}, {SERIALIZED_ISSUE_AXIS})",
                    KNOB_NAMES.join(", ")
                )));
            }
            if spec.axes.iter().any(|a| a.knob == name) {
                return Err(err(format!("duplicate axis {name:?}")));
            }
            let values = rhs
                .split(',')
                .map(|v| {
                    let v = v.trim();
                    v.parse::<u64>()
                        .map_err(|_| err(format!("axis {name:?} has non-numeric value {v:?}")))
                })
                .collect::<Result<Vec<u64>, String>>()?;
            if values.is_empty() {
                return Err(err(format!("axis {name:?} has no values")));
            }
            if name == SERIALIZED_ISSUE_AXIS && values.iter().any(|&v| v > 1) {
                return Err(err(format!(
                    "{SERIALIZED_ISSUE_AXIS} values must be 0 or 1"
                )));
            }
            spec.axes.push(Axis {
                knob: name.to_string(),
                values,
            });
        }
        if spec.axes.is_empty() {
            return Err("grid spec has no axes".to_string());
        }
        if spec.mode == GridMode::Paired {
            let len = spec.axes[0].values.len();
            if spec.axes.iter().any(|a| a.values.len() != len) {
                return Err("paired mode requires equal-length axes".to_string());
            }
        }
        Ok(spec)
    }

    /// Number of cells this spec expands to, without expanding it —
    /// callers with a budget (the service caps grids) check this first.
    pub fn cell_count(&self) -> usize {
        match self.mode {
            GridMode::Cartesian => self
                .axes
                .iter()
                .fold(1usize, |n, a| n.saturating_mul(a.values.len())),
            GridMode::Paired => self.axes.first().map_or(0, |a| a.values.len()),
        }
    }

    /// Expands the spec into concrete, validated cells. Each cell starts
    /// from the default (paper) machine and applies one value per axis;
    /// the cell name is the canonical `knob=value` list of *swept* knobs
    /// only, so grid cells are self-describing in reports. A grid of more
    /// than [`MAX_GRID_CELLS`] cells is an error.
    pub fn enumerate(&self) -> Result<Vec<CellSpec>, String> {
        let count = self.cell_count();
        if count > MAX_GRID_CELLS {
            return Err(format!(
                "grid has {count} cells, more than the {MAX_GRID_CELLS} a grid may expand to"
            ));
        }
        let mut cells = Vec::with_capacity(count);
        for i in 0..count {
            let mut machine = MachineConfig::default();
            let mut serialized_issue = false;
            let mut parts = Vec::with_capacity(self.axes.len());
            // Index into each axis for cell i: mixed-radix digits under
            // cartesian (last axis fastest), the shared column under paired.
            let mut rest = i;
            for (k, axis) in self.axes.iter().enumerate().rev() {
                let j = match self.mode {
                    GridMode::Cartesian => {
                        let j = rest % axis.values.len();
                        rest /= axis.values.len();
                        j
                    }
                    GridMode::Paired => i,
                };
                let value = axis.values[j];
                if axis.knob == SERIALIZED_ISSUE_AXIS {
                    serialized_issue = value != 0;
                } else {
                    machine.set_knob(&axis.knob, value)?;
                }
                parts.push((k, format!("{}={value}", axis.knob)));
            }
            machine.validate().map_err(|e| format!("cell {i}: {e}"))?;
            parts.sort_by_key(|&(k, _)| k);
            let name = parts
                .into_iter()
                .map(|(_, p)| p)
                .collect::<Vec<_>>()
                .join(",");
            cells.push(CellSpec::new(name, machine, serialized_issue));
        }
        Ok(cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cartesian_expands_the_cross_product_last_axis_fastest() {
        let spec = GridSpec::parse("fpu_latency=1,3\nfpu_lanes=1,2,4\n").unwrap();
        assert_eq!(spec.mode, GridMode::Cartesian);
        assert_eq!(spec.cell_count(), 6);
        let cells = spec.enumerate().unwrap();
        let names: Vec<&str> = cells.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "fpu_latency=1,fpu_lanes=1",
                "fpu_latency=1,fpu_lanes=2",
                "fpu_latency=1,fpu_lanes=4",
                "fpu_latency=3,fpu_lanes=1",
                "fpu_latency=3,fpu_lanes=2",
                "fpu_latency=3,fpu_lanes=4",
            ]
        );
        assert_eq!(cells[0].machine.timing.fpu_latency, 1);
        assert_eq!(cells[2].machine.timing.fpu_lanes, 4);
        assert_eq!(cells[5].machine.timing.fpu_latency, 3);
    }

    #[test]
    fn paired_takes_one_column_per_cell() {
        let spec = GridSpec::parse("mode=paired\nfpu_latency=1,5\ndcache_miss=7,28\n").unwrap();
        let cells = spec.enumerate().unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].machine.timing.fpu_latency, 1);
        assert_eq!(cells[0].machine.mem.data_cache.miss_penalty, 7);
        assert_eq!(cells[1].machine.timing.fpu_latency, 5);
        assert_eq!(cells[1].machine.mem.data_cache.miss_penalty, 28);
    }

    #[test]
    fn serialized_issue_is_a_cell_flag_not_a_machine_knob() {
        let spec = GridSpec::parse("serialized_issue=0,1\n").unwrap();
        let cells = spec.enumerate().unwrap();
        assert!(!cells[0].serialized_issue);
        assert!(cells[1].serialized_issue);
        assert_eq!(cells[0].machine, MachineConfig::default());
        assert_eq!(cells[1].machine, MachineConfig::default());
        assert!(GridSpec::parse("serialized_issue=2").is_err());
    }

    #[test]
    fn comments_blank_lines_and_whitespace_are_tolerated() {
        let spec = GridSpec::parse(
            "# a comment\n\n  fpu_lanes = 1, 2  # trailing comment\nmode=cartesian\n",
        )
        .unwrap();
        assert_eq!(spec.axes.len(), 1);
        assert_eq!(spec.axes[0].values, [1, 2]);
    }

    #[test]
    fn malformed_specs_are_rejected_with_line_numbers() {
        assert!(GridSpec::parse("").is_err(), "no axes");
        assert!(GridSpec::parse("bogus_knob=1").is_err(), "unknown knob");
        assert!(
            GridSpec::parse("fpu_latency=1\nfpu_latency=2").is_err(),
            "dup"
        );
        assert!(GridSpec::parse("fpu_latency=a").is_err(), "non-numeric");
        assert!(GridSpec::parse("fpu_latency=").is_err(), "empty value");
        assert!(GridSpec::parse("mode=diagonal").is_err(), "unknown mode");
        assert!(
            GridSpec::parse("mode=paired\nfpu_latency=1,2\nfpu_lanes=1").is_err(),
            "unequal paired axes"
        );
        let err = GridSpec::parse("fpu_lanes=1\nfpu_latency=oops").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn a_grid_over_the_cap_is_an_error_not_an_allocation() {
        let text: String = KNOB_NAMES[..9]
            .iter()
            .map(|k| format!("{k}=1,2,3,4,5,6,7,8\n"))
            .collect();
        let spec = GridSpec::parse(&text).unwrap();
        assert_eq!(spec.cell_count(), 1 << 27);
        let err = spec.enumerate().unwrap_err();
        assert!(err.contains("134217728 cells"), "{err}");
    }

    #[test]
    fn invalid_cell_geometry_fails_at_enumeration() {
        // Parses fine (24 is a number) but 24-byte lines are not a
        // power of two, so the expanded machine fails validation.
        let spec = GridSpec::parse("dcache_line=24").unwrap();
        assert!(spec.enumerate().is_err());
    }
}

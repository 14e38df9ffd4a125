//! Per-cycle timeline rendering, in the style of the paper's Figs. 5–8
//! timing diagrams: one row per instruction transfer, FPU ALU element,
//! load, or store, with a bar from issue to completion.
//!
//! The timeline is one *consumer* of the machine's typed event stream:
//! [`Timeline::from_events`] folds the events a `Vec<TraceEvent>` sink
//! recorded ([`crate::Machine::run_with_sink`]) into rows, optionally
//! annotating each with its source location. Rendered by
//! [`Timeline::render`].
//! Legend:
//!
//! ```text
//! T    FPU ALU instruction transfer from the CPU (the address-bus cycle)
//! i══R FPU ALU element: issue, in flight, result written (readable)
//! L·w  FPU load: port cycle, data written next cycle
//! S»   FPU store: port cycle plus the second bus cycle
//! c    CPU instruction completing (integer/branch/control)
//! ```

use std::fmt::Write as _;

use mt_isa::Instr;
use mt_trace::{EventKind, TraceEvent};

/// One rendered row.
#[derive(Debug, Clone)]
pub struct TimelineRow {
    /// Row label (disassembly-like).
    pub label: String,
    /// Cycle of the first event in the row.
    pub start: u64,
    /// `(cycle, glyph)` marks.
    pub marks: Vec<(u64, char)>,
}

/// A recorded run timeline.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    rows: Vec<TimelineRow>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Timeline {
        Timeline::default()
    }

    /// Folds a recorded event stream into timeline rows. `resolve` maps an
    /// instruction index to a source annotation (for example
    /// `daxpy.s:7`); rows whose instruction resolves gain an ` @ location`
    /// suffix, so an assembler-produced source map makes the diagram
    /// span-aware. Pass `|_| None` for bare rows.
    ///
    /// Transfers become `T` rows, element issues become `i══R` bars
    /// labelled with their register dataflow, FPU loads and stores become
    /// port rows, and every other completing CPU instruction becomes a
    /// `c` row (`halt` is omitted, as is the `Falu` completion its `T`
    /// row already shows).
    pub fn from_events(events: &[TraceEvent], resolve: impl Fn(u32) -> Option<String>) -> Timeline {
        let suffix = |idx: u32| match resolve(idx) {
            Some(loc) => format!(" @ {loc}"),
            None => String::new(),
        };
        let mut t = Timeline::new();
        for ev in events {
            match ev.kind {
                EventKind::Transfer {
                    instr_index, instr, ..
                } => {
                    t.event(
                        ev.cycle,
                        'T',
                        format!("xfer {instr}{}", suffix(instr_index)),
                    );
                }
                EventKind::ElementIssue {
                    instr_index,
                    op,
                    refs,
                    latency,
                    ..
                } => {
                    // Paper-style operator symbols for the dataflow labels.
                    let sym = match op {
                        mt_fparith::FpOp::Add => "+",
                        mt_fparith::FpOp::Sub => "-",
                        mt_fparith::FpOp::Mul => "*",
                        mt_fparith::FpOp::IntMul => "i*",
                        mt_fparith::FpOp::IterStep => "istep",
                        mt_fparith::FpOp::Float => "float",
                        mt_fparith::FpOp::Truncate => "trunc",
                        mt_fparith::FpOp::Recip => "1/~",
                    };
                    let label = if op.is_unary() {
                        format!("{} := {sym} {}{}", refs.rr, refs.ra, suffix(instr_index))
                    } else {
                        format!(
                            "{} := {} {sym} {}{}",
                            refs.rr,
                            refs.ra,
                            refs.rb,
                            suffix(instr_index)
                        )
                    };
                    t.element(ev.cycle, latency, label);
                }
                EventKind::CpuComplete {
                    instr_index, instr, ..
                } => match instr {
                    // The transfer event already made the `T` row; halt has
                    // no row at all.
                    Instr::Falu(_) | Instr::Halt => {}
                    Instr::Fld { fr, .. } => {
                        t.load(ev.cycle, format!("fld {fr}{}", suffix(instr_index)));
                    }
                    Instr::Fst { fr, .. } => {
                        t.store(ev.cycle, format!("fst {fr}{}", suffix(instr_index)));
                    }
                    other => t.event(ev.cycle, 'c', format!("{other}{}", suffix(instr_index))),
                },
                _ => {}
            }
        }
        t
    }

    /// Adds a single-glyph event row (CPU instruction, transfer).
    pub fn event(&mut self, cycle: u64, glyph: char, label: String) {
        self.rows.push(TimelineRow {
            label,
            start: cycle,
            marks: vec![(cycle, glyph)],
        });
    }

    /// Adds an FPU ALU element row: issue at `cycle`, result visible at
    /// `cycle + latency`.
    pub fn element(&mut self, cycle: u64, latency: u64, label: String) {
        let mut marks = vec![(cycle, 'i')];
        for c in cycle + 1..cycle + latency {
            marks.push((c, '═'));
        }
        marks.push((cycle + latency, 'R'));
        self.rows.push(TimelineRow {
            label,
            start: cycle,
            marks,
        });
    }

    /// Adds a load row: port cycle plus the write a cycle later.
    pub fn load(&mut self, cycle: u64, label: String) {
        self.rows.push(TimelineRow {
            label,
            start: cycle,
            marks: vec![(cycle, 'L'), (cycle + 1, 'w')],
        });
    }

    /// Adds a store row: the two bus cycles.
    pub fn store(&mut self, cycle: u64, label: String) {
        self.rows.push(TimelineRow {
            label,
            start: cycle,
            marks: vec![(cycle, 'S'), (cycle + 1, '»')],
        });
    }

    /// Number of rows recorded.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The recorded rows (issue order).
    pub fn rows(&self) -> &[TimelineRow] {
        &self.rows
    }

    /// Renders the diagram. Rows are sorted by first event; the cycle ruler
    /// is printed every ten columns. `max_cycles` truncates wide runs.
    pub fn render(&self, max_cycles: u64) -> String {
        let mut rows: Vec<&TimelineRow> = self.rows.iter().collect();
        rows.sort_by_key(|r| r.start);
        let label_w = rows.iter().map(|r| r.label.len()).max().unwrap_or(0).max(5);
        let last = rows
            .iter()
            .flat_map(|r| r.marks.iter().map(|&(c, _)| c))
            .max()
            .unwrap_or(0)
            .min(max_cycles);

        let mut out = String::new();
        // Ruler: tens line and units line.
        let mut tens = String::new();
        let mut units = String::new();
        for c in 0..=last {
            tens.push(if c % 10 == 0 {
                char::from_digit(((c / 10) % 10) as u32, 10).unwrap()
            } else {
                ' '
            });
            units.push(char::from_digit((c % 10) as u32, 10).unwrap());
        }
        let _ = writeln!(out, "{:label_w$}  {}", "cycle", tens);
        let _ = writeln!(out, "{:label_w$}  {}", "", units);

        for row in rows {
            let mut line = vec![' '; (last + 1) as usize];
            for &(c, g) in &row.marks {
                if c <= last {
                    line[c as usize] = g;
                }
            }
            let _ = writeln!(
                out,
                "{:label_w$}  {}",
                row.label,
                line.into_iter().collect::<String>()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_rows_and_ruler() {
        let mut t = Timeline::new();
        t.event(0, 'T', "xfer".into());
        t.element(1, 3, "R2 := R0 + R1".into());
        t.load(2, "fld R3".into());
        t.store(5, "fst R2".into());
        let s = t.render(64);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 6, "ruler (2) + 4 rows");
        assert!(lines[0].starts_with("cycle"));
        assert!(lines[2].contains('T'));
        assert!(lines[3].contains("i══R"));
        assert!(lines[4].contains("Lw"));
        assert!(lines[5].contains("S»"));
    }

    #[test]
    fn rows_sort_by_start_cycle() {
        let mut t = Timeline::new();
        t.event(9, 'c', "later".into());
        t.event(1, 'c', "earlier".into());
        let s = t.render(64);
        let earlier = s.find("earlier").unwrap();
        let later = s.find("later").unwrap();
        assert!(earlier < later);
    }

    #[test]
    fn truncation_respects_max_cycles() {
        let mut t = Timeline::new();
        t.element(0, 3, "a".into());
        t.event(1000, 'c', "far".into());
        let s = t.render(20);
        // Count characters, not bytes — '═' is multi-byte UTF-8.
        assert!(s.lines().all(|l| l.chars().count() <= 5 + 2 + 21));
    }
}

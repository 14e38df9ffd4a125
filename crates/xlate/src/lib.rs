//! Translation of MultiTitan programs for execution.
//!
//! [`translate`] decodes each text word once into a micro-op ([`Uop`]):
//! the decoded instruction and its issue-cost/hazard metadata
//! ([`mt_isa::InstrCost`] — guard registers, port use, stall classes).
//! The simulator's fetch reads these, so neither of its engines decodes
//! or derives a cost row per instruction; the table is indexed directly
//! by PC.
//!
//! Translation is purely static: it never changes architectural or timing
//! semantics (the executor re-checks every dynamic hazard each cycle and
//! computes every control-flow target), it only removes re-derivation of
//! static facts from the hot loop.

pub mod translate;

pub use translate::{TranslatedProgram, Uop};

//! The register write reservation table (§2.3.1).
//!
//! One bit per register: set when an outstanding operation (ALU element or
//! FPU load) will write the register, cleared at retirement. The same table
//! interlocks scalar operations, vector elements, and loads/stores — reusing
//! it for vector elements is what makes the vector capability nearly free.

use mt_isa::FReg;

/// The 52-bit reservation table.
///
/// ```
/// use mt_core::Scoreboard;
/// use mt_isa::FReg;
/// let mut sb = Scoreboard::new();
/// sb.reserve(FReg::new(4));
/// assert!(sb.is_reserved(FReg::new(4)));
/// sb.clear(FReg::new(4));
/// assert!(!sb.is_reserved(FReg::new(4)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scoreboard {
    bits: u64,
}

impl Scoreboard {
    /// Creates an empty table.
    pub fn new() -> Scoreboard {
        Scoreboard { bits: 0 }
    }

    /// Returns `true` if an outstanding operation will write `r`.
    #[inline]
    pub fn is_reserved(&self, r: FReg) -> bool {
        self.bits & (1 << r.index()) != 0
    }

    /// Reserves `r` at operation issue.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) on double reservation — the issue logic must
    /// stall on a reserved destination, because a single reservation bit
    /// cannot track two outstanding writes (§2.3.1's single-ended set/clear
    /// write discipline).
    #[inline]
    pub fn reserve(&mut self, r: FReg) {
        debug_assert!(
            !self.is_reserved(r),
            "double reservation of {r}: issue logic must stall on reserved destinations"
        );
        self.bits |= 1 << r.index();
    }

    /// Clears `r` at operation retirement.
    #[inline]
    pub fn clear(&mut self, r: FReg) {
        self.bits &= !(1 << r.index());
    }

    /// Fault-injection hook: flips `r`'s reservation bit unconditionally.
    /// A spuriously *set* bit models a stuck reservation (the issue logic
    /// will wait forever on a write that is not coming — the watchdog's
    /// canonical prey); a spuriously *cleared* bit lets a dependent read
    /// see a stale value.
    pub fn toggle(&mut self, r: FReg) {
        self.bits ^= 1 << r.index();
    }

    /// Number of outstanding reservations.
    pub fn count(&self) -> u32 {
        self.bits.count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_clear() {
        let mut sb = Scoreboard::new();
        assert_eq!(sb.count(), 0);
        sb.reserve(FReg::new(0));
        sb.reserve(FReg::new(51));
        assert_eq!(sb.count(), 2);
        assert!(sb.is_reserved(FReg::new(0)));
        assert!(!sb.is_reserved(FReg::new(1)));
        sb.clear(FReg::new(0));
        assert_eq!(sb.count(), 1);
        assert!(sb.is_reserved(FReg::new(51)));
    }

    #[test]
    fn clear_is_idempotent() {
        let mut sb = Scoreboard::new();
        sb.clear(FReg::new(3));
        assert_eq!(sb.count(), 0);
    }

    #[test]
    #[should_panic(expected = "double reservation")]
    #[cfg(debug_assertions)]
    fn double_reserve_panics() {
        let mut sb = Scoreboard::new();
        sb.reserve(FReg::new(9));
        sb.reserve(FReg::new(9));
    }
}

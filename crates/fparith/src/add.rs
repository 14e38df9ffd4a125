//! The MultiTitan add unit: addition, subtraction (and, in hardware, the
//! conversions — see [`crate::convert`]).
//!
//! [`fp_add`] and [`fp_sub`] return the host FPU's sum for two finite
//! operands below 2^1023 in magnitude (zeros and subnormals included). There
//! the sum cannot overflow, and a sum in the subnormal range is exact, so
//! INEXACT is the only flag; it is set when the TwoSum error term is
//! nonzero. Every other operand pair takes the general path, which is also
//! the bit-level specification the host path is tested against.
//!
//! The paper (§2.2.3) notes that the add unit "uses separate specialized
//! paths for aligned operands and normalized results" after Farmwald's
//! dual-path design. The general path models that structure explicitly:
//!
//! * the **near path** handles effective subtractions whose exponents differ
//!   by at most one — the only case where massive cancellation can occur and
//!   a full-width leading-zero normalization shift is needed, but where the
//!   alignment shift is at most one bit (so the subtraction is exact);
//! * the **far path** handles everything else — the alignment shift may be
//!   large, but the post-operation normalization shift is at most one bit.
//!
//! Both paths compute the exact difference/sum in `u128` (alignment distances
//! beyond 61 bits are clamped, which affects only sticky information) and
//! meet in the shared rounding logic, making the unit bit-exact IEEE-754
//! round-to-nearest-even. This is property-tested against the host FPU.

use crate::bits::{self, Class};
use crate::exception::Exceptions;
use crate::round::{round_pack, GRS_BITS};

/// Maximum alignment distance carried exactly; beyond this the smaller
/// operand only contributes sticky information, so clamping preserves the
/// rounded result.
const MAX_ALIGN: i32 = 61;

/// Magnitude bits (sign stripped) of 2^1023, the smallest value with biased
/// exponent 2046: operands strictly below it take the host path.
const HOST_ADD_LIMIT: u64 = 2046 << bits::MANT_BITS;

/// IEEE-754 binary64 addition with round-to-nearest-even.
///
/// Returns the result bit pattern and any raised exceptions. A NaN operand
/// propagates as the canonical quiet NaN without raising `INVALID`;
/// `(+inf) + (−inf)` produces NaN with `INVALID`.
///
/// ```
/// use mt_fparith::fp_add;
/// let (r, _) = fp_add(0.1f64.to_bits(), 0.2f64.to_bits());
/// assert_eq!(f64::from_bits(r), 0.1 + 0.2);
/// ```
#[inline]
pub fn fp_add(a: u64, b: u64) -> (u64, Exceptions) {
    add_impl(a, b, false)
}

/// IEEE-754 binary64 subtraction with round-to-nearest-even.
///
/// Identical to [`fp_add`] with the sign of `b` flipped (which is exactly how
/// the hardware implements it).
#[inline]
pub fn fp_sub(a: u64, b: u64) -> (u64, Exceptions) {
    add_impl(a, b, true)
}

#[inline]
fn add_impl(a: u64, b: u64, negate_b: bool) -> (u64, Exceptions) {
    let b = if negate_b { b ^ bits::SIGN_MASK } else { b };
    if (a & !bits::SIGN_MASK) < HOST_ADD_LIMIT && (b & !bits::SIGN_MASK) < HOST_ADD_LIMIT {
        let (x, y) = (f64::from_bits(a), f64::from_bits(b));
        let s = x + y;
        // TwoSum: `err` is exactly `(x + y) − s`. Below 2^1023 no step
        // can overflow, and a sum's rounding error is representable even
        // under gradual underflow.
        let y_part = s - x;
        let err = (x - (s - y_part)) + (y - y_part);
        let flags = if err != 0.0 {
            Exceptions::INEXACT
        } else {
            Exceptions::empty()
        };
        return (s.to_bits(), flags);
    }
    add_general(a, b)
}

/// General path: full operand-class decision tree and exact `u128`
/// datapath. Handles every operand class; [`fp_add`] and [`fp_sub`] defer
/// to it outside the host path's domain, and tests hold the host path to it.
pub(crate) fn add_general(a: u64, b: u64) -> (u64, Exceptions) {
    let (ca, cb) = (bits::classify(a), bits::classify(b));

    // Special-case decision tree (resolved before the datapath in hardware).
    if ca == Class::Nan || cb == Class::Nan {
        return (bits::QNAN, Exceptions::empty());
    }
    match (ca, cb) {
        (Class::Infinite, Class::Infinite) => {
            return if bits::sign_of(a) == bits::sign_of(b) {
                (a, Exceptions::empty())
            } else {
                (bits::QNAN, Exceptions::INVALID)
            };
        }
        (Class::Infinite, _) => return (a, Exceptions::empty()),
        (_, Class::Infinite) => return (b, Exceptions::empty()),
        (Class::Zero, Class::Zero) => {
            // +0 + −0 = +0 under round-to-nearest.
            let sign = bits::sign_of(a) && bits::sign_of(b);
            return (bits::zero(sign), Exceptions::empty());
        }
        (Class::Zero, _) => return (b, Exceptions::empty()),
        (_, Class::Zero) => return (a, Exceptions::empty()),
        _ => {}
    }

    let ua = bits::unpack(a);
    let ub = bits::unpack(b);

    // Order so `hi` has the larger magnitude.
    let (hi, lo) = if (ua.exp, ua.sig) >= (ub.exp, ub.sig) {
        (ua, ub)
    } else {
        (ub, ua)
    };
    let d = hi.exp - lo.exp;
    let effective_subtract = hi.sign != lo.sign;

    if effective_subtract && d <= 1 {
        near_path(hi, lo, d)
    } else {
        far_path(hi, lo, d, effective_subtract)
    }
}

/// Near path: effective subtraction with exponent difference 0 or 1.
///
/// The alignment shift is at most one bit so the subtraction is exact; the
/// result may cancel down to zero and need a full leading-zero normalization
/// (performed inside `round_pack`).
fn near_path(hi: bits::Unpacked, lo: bits::Unpacked, d: i32) -> (u64, Exceptions) {
    debug_assert!((0..=1).contains(&d));
    let a = (hi.sig as u128) << (GRS_BITS + d as u32);
    let b = (lo.sig as u128) << GRS_BITS;
    debug_assert!(a >= b);
    let diff = a - b;
    if diff == 0 {
        // Exact cancellation yields +0 under round-to-nearest.
        return (bits::POS_ZERO, Exceptions::empty());
    }
    // Scale: value = diff × 2^(lo.exp − 55).
    round_pack(hi.sign, lo.exp, diff)
}

/// Far path: effective addition at any distance, or effective subtraction
/// with exponent difference ≥ 2 (post-normalization shift ≤ 1 bit).
fn far_path(
    hi: bits::Unpacked,
    lo: bits::Unpacked,
    d: i32,
    effective_subtract: bool,
) -> (u64, Exceptions) {
    let d_eff = d.min(MAX_ALIGN) as u32;
    let a = (hi.sig as u128) << (GRS_BITS + d_eff);
    let b = (lo.sig as u128) << GRS_BITS;
    let exp = hi.exp - d_eff as i32;
    let sig = if effective_subtract { a - b } else { a + b };
    debug_assert_ne!(sig, 0, "far-path subtraction cannot cancel to zero");
    round_pack(hi.sign, exp, sig)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(a: f64, b: f64) -> f64 {
        f64::from_bits(fp_add(a.to_bits(), b.to_bits()).0)
    }

    fn sub(a: f64, b: f64) -> f64 {
        f64::from_bits(fp_sub(a.to_bits(), b.to_bits()).0)
    }

    #[test]
    fn simple_sums() {
        assert_eq!(add(1.0, 2.0), 3.0);
        assert_eq!(add(0.1, 0.2), 0.1 + 0.2);
        assert_eq!(sub(3.0, 1.0), 2.0);
        assert_eq!(add(-1.5, -2.5), -4.0);
    }

    #[test]
    fn exact_cancellation_is_positive_zero() {
        let r = fp_sub(5.0f64.to_bits(), 5.0f64.to_bits());
        assert_eq!(r.0, bits::POS_ZERO);
        assert!(r.1.is_empty());
        let r = fp_add((-5.0f64).to_bits(), 5.0f64.to_bits());
        assert_eq!(r.0, bits::POS_ZERO);
    }

    #[test]
    fn near_path_massive_cancellation() {
        // Adjacent representable values differ by 1 ulp.
        let a = 1.0 + f64::EPSILON;
        assert_eq!(sub(a, 1.0), f64::EPSILON);
        // Exponent difference of one with deep cancellation.
        assert_eq!(sub(2.0, 1.9999999999999998), 2.0 - 1.9999999999999998);
    }

    #[test]
    fn far_path_total_absorption() {
        // b is far below one ulp of a: result is a, inexact.
        let (r, exc) = fp_add(1e300f64.to_bits(), 1.0f64.to_bits());
        assert_eq!(f64::from_bits(r), 1e300);
        assert!(exc.contains(Exceptions::INEXACT));

        let (r, exc) = fp_sub(1e300f64.to_bits(), 1.0f64.to_bits());
        assert_eq!(f64::from_bits(r), 1e300);
        assert!(exc.contains(Exceptions::INEXACT));
    }

    #[test]
    fn absorption_below_power_of_two_boundary() {
        // 2^60 − tiny rounds back to 2^60 (crosses a binade boundary).
        let a = 2f64.powi(60);
        assert_eq!(sub(a, 1e-30), a);
        // But subtracting half an ulp of the *lower* binade is representable.
        let ulp = 2f64.powi(60 - 52);
        assert_eq!(sub(a, ulp / 2.0), a - ulp / 2.0);
    }

    #[test]
    fn carry_propagation() {
        // 1.111…1 + 1 ulp → 2.0
        let just_below_2 = f64::from_bits(2.0f64.to_bits() - 1);
        assert_eq!(add(just_below_2, f64::EPSILON), 2.0);
    }

    #[test]
    fn infinities() {
        assert_eq!(add(f64::INFINITY, 1.0), f64::INFINITY);
        assert_eq!(add(1.0, f64::NEG_INFINITY), f64::NEG_INFINITY);
        assert_eq!(sub(1.0, f64::INFINITY), f64::NEG_INFINITY);
        let (r, exc) = fp_add(bits::POS_INF, bits::NEG_INF);
        assert!(f64::from_bits(r).is_nan());
        assert!(exc.contains(Exceptions::INVALID));
        let (r, exc) = fp_sub(bits::POS_INF, bits::POS_INF);
        assert!(f64::from_bits(r).is_nan());
        assert!(exc.contains(Exceptions::INVALID));
    }

    #[test]
    fn nan_propagates_without_invalid() {
        let (r, exc) = fp_add(f64::NAN.to_bits(), 1.0f64.to_bits());
        assert!(f64::from_bits(r).is_nan());
        assert!(exc.is_empty());
    }

    #[test]
    fn signed_zeros() {
        assert_eq!(fp_add(bits::POS_ZERO, bits::NEG_ZERO).0, bits::POS_ZERO);
        assert_eq!(fp_add(bits::NEG_ZERO, bits::NEG_ZERO).0, bits::NEG_ZERO);
        assert_eq!(fp_sub(bits::NEG_ZERO, bits::POS_ZERO).0, bits::NEG_ZERO);
        assert_eq!(add(0.0, -3.5), -3.5);
        assert_eq!(add(-3.5, 0.0), -3.5);
    }

    #[test]
    fn overflow_to_infinity() {
        let (r, exc) = fp_add(f64::MAX.to_bits(), f64::MAX.to_bits());
        assert_eq!(f64::from_bits(r), f64::INFINITY);
        assert!(exc.contains(Exceptions::OVERFLOW));
    }

    #[test]
    fn subnormal_arithmetic() {
        let tiny = f64::from_bits(1);
        assert_eq!(add(tiny, tiny), 2.0 * tiny);
        assert_eq!(sub(tiny, tiny), 0.0);
        let min_normal = f64::MIN_POSITIVE;
        assert_eq!(sub(min_normal, tiny), min_normal - tiny);
    }

    #[test]
    fn matches_host_on_targeted_patterns() {
        let interesting = [
            0.0f64,
            -0.0,
            1.0,
            -1.0,
            0.5,
            2.0,
            f64::EPSILON,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            1.0 + f64::EPSILON,
            2.0 - f64::EPSILON,
            1e308,
            -1e308,
            3.5e-310,
        ];
        for &x in &interesting {
            for &y in &interesting {
                let (got, _) = fp_add(x.to_bits(), y.to_bits());
                let want = (x + y).to_bits();
                assert_eq!(got, want, "add({x:e}, {y:e})");
                let (got, _) = fp_sub(x.to_bits(), y.to_bits());
                let want = (x - y).to_bits();
                assert_eq!(got, want, "sub({x:e}, {y:e})");
            }
        }
    }
}

#[cfg(test)]
mod fast_path_tests {
    use super::*;
    use crate::bits::sample::{lcg, operand};

    /// The host path must agree with the exact u128 general path — bit
    /// pattern AND exception flags — for a million seeded pairs per
    /// operation across every operand class, and with the host FPU on the
    /// value (any NaN matching any NaN).
    #[test]
    fn fast_path_matches_general_and_host() {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..1_000_000u64 {
            let near = 1 + lcg(&mut s) % 2046;
            let a = operand(&mut s, near);
            let b = operand(&mut s, bits::biased_exp(a));
            let (x, y) = (f64::from_bits(a), f64::from_bits(b));
            let neg_b = b ^ bits::SIGN_MASK;
            for (got, general, host, op) in [
                (fp_add(a, b), add_general(a, b), x + y, "add"),
                (fp_sub(a, b), add_general(a, neg_b), x - y, "sub"),
            ] {
                assert_eq!(got, general, "{op}({a:#018x}, {b:#018x}) vs general");
                assert!(
                    got.0 == host.to_bits() || (host.is_nan() && bits::is_nan(got.0)),
                    "{op}({a:#018x}, {b:#018x}) vs host"
                );
            }
        }
    }

    /// Mantissa corner patterns at every alignment distance, both effective
    /// operations — the sticky boundaries the random sweep may miss.
    #[test]
    fn fast_path_jam_boundaries_match_general() {
        let mants = [
            0u64,
            1,
            0xF_FFFF_FFFF_FFFF,
            0x8_0000_0000_0000,
            0x8_0000_0000_0001,
            0x7_FFFF_FFFF_FFFF,
        ];
        for d in 0..=70u64 {
            let ea = 1000 + d;
            for &ma in &mants {
                for &mb in &mants {
                    let a = (ea << bits::MANT_BITS) | ma;
                    let b = (1000u64 << bits::MANT_BITS) | mb;
                    for (x, y) in [(a, b), (a, b | bits::SIGN_MASK), (a | bits::SIGN_MASK, b)] {
                        assert_eq!(
                            fp_add(x, y),
                            add_general(x, y),
                            "add({x:#018x}, {y:#018x}) at distance {d}"
                        );
                    }
                }
            }
        }
    }

    /// Zeros, subnormals, the ends of the normal range, the edges of the
    /// host path's domain, and the cancellation and tie cases agree between
    /// the paths; the flags of the targeted sums are pinned.
    #[test]
    fn fast_path_edge_ranges_match_general() {
        let edges = [
            0.0,
            f64::from_bits(1),
            f64::from_bits(0xF_FFFF_FFFF_FFFF),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE * 1.5,
            f64::MIN_POSITIVE * 2.0,
            1.0,
            1.0 + f64::EPSILON,
            f64::EPSILON,
            f64::EPSILON / 2.0,
            f64::MAX,
            f64::MAX / 2.0,
            f64::from_bits((2045u64 << 52) | 0xF_FFFF_FFFF_FFFF),
            f64::from_bits(2046u64 << 52),
            f64::from_bits((2046u64 << 52) | 0xF_FFFF_FFFF_FFFF),
            f64::INFINITY,
            f64::NAN,
        ];
        for &x in &edges {
            for &y in &edges {
                for (p, q) in [(x, y), (x, -y), (-x, y), (-x, -y)] {
                    let (pb, qb) = (p.to_bits(), q.to_bits());
                    assert_eq!(fp_add(pb, qb), add_general(pb, qb), "add({p:e}, {q:e})");
                }
            }
        }
        let none = Exceptions::empty();
        let inexact = Exceptions::INEXACT;
        let (eps, half_eps) = (f64::EPSILON, f64::EPSILON / 2.0);
        let (tiny, largest_subnormal) = (f64::from_bits(1), f64::from_bits(0xF_FFFF_FFFF_FFFF));
        for (a, b, want, flags) in [
            (1.0, eps, 1.0 + eps, none),
            (1.0, half_eps, 1.0, inexact),
            (1.0 + eps, half_eps, 1.0 + 2.0 * eps, inexact),
            (1.0 + eps, -(1.0 + eps), 0.0, none),
            (0.1, 0.2, 0.1 + 0.2, inexact),
            (f64::MIN_POSITIVE, -tiny, largest_subnormal, none),
        ] {
            let got = fp_add(a.to_bits(), b.to_bits());
            assert_eq!(got, (want.to_bits(), flags), "add({a:e}, {b:e})");
        }
    }
}

#[cfg(test)]
mod alignment_boundary_tests {
    use super::*;

    /// Exercises every alignment distance around the significand width and
    /// the MAX_ALIGN clamp, where sticky handling is most delicate.
    #[test]
    fn every_alignment_distance_matches_host() {
        for d in 0..=70i32 {
            for mant_a in [0u64, 1, 0xF_FFFF_FFFF_FFFF, 0x8_0000_0000_0001] {
                for mant_b in [0u64, 1, 0xF_FFFF_FFFF_FFFF] {
                    let a = f64::from_bits(((1023 + d) as u64) << 52 | mant_a);
                    let b = f64::from_bits(1023u64 << 52 | mant_b);
                    for (x, y) in [(a, b), (b, a), (a, -b), (-a, b)] {
                        let (got, _) = fp_add(x.to_bits(), y.to_bits());
                        assert_eq!(got, (x + y).to_bits(), "add({x:e}, {y:e}) at distance {d}");
                        let (got, _) = fp_sub(x.to_bits(), y.to_bits());
                        assert_eq!(got, (x - y).to_bits(), "sub({x:e}, {y:e}) at distance {d}");
                    }
                }
            }
        }
    }

    /// Half-ulp boundaries at distance 53–55: the classic double-rounding
    /// trap for adders.
    #[test]
    fn half_ulp_boundaries() {
        let one = 1.0f64;
        for exp in [-53, -54, -55, -56] {
            let tiny = 2f64.powi(exp);
            for sign in [1.0, -1.0] {
                let t = sign * tiny;
                let (got, _) = fp_add(one.to_bits(), t.to_bits());
                assert_eq!(got, (one + t).to_bits(), "1 + {t:e}");
                // Also against the just-above-one value with odd LSB.
                let odd = f64::from_bits(one.to_bits() | 1);
                let (got, _) = fp_add(odd.to_bits(), t.to_bits());
                assert_eq!(got, (odd + t).to_bits(), "odd + {t:e}");
            }
        }
    }
}

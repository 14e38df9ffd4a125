//! The MultiTitan multiply unit: multiplication, the Newton–Raphson
//! *iteration step*, and (in hardware) integer multiply.
//!
//! [`fp_mul`] returns the host FPU's product when both operands and the
//! product are normal. The product then can neither overflow nor underflow,
//! and it is exact exactly when the operands' significands carry enough
//! trailing zeros between them, so INEXACT is decided from the exponents and
//! trailing-zero counts. Every other operand pair takes the general path,
//! which is also the bit-level specification the host path is tested
//! against.
//!
//! The paper (§2.2.3) describes the multiplier's partial products being
//! reduced through a novel "chunky binary tree" that is faster in practice
//! than a Wallace tree. The general path models the structure: partial
//! products are generated one per multiplier bit and reduced pairwise
//! through a binary tree of carry-save (3:2) compressors before a single
//! carry-propagate addition — see [`significand_product`]. The tree is
//! property-tested bit-equal to plain `u128` multiplication, which is what
//! the general path computes; the result is rounded once, making [`fp_mul`]
//! bit-exact IEEE-754 round-to-nearest-even (also property-tested against
//! the host FPU).

use crate::bits::{self, Class};
use crate::exception::Exceptions;
use crate::round::round_pack;

/// Multiplies two 53-bit significands through an explicit partial-product
/// carry-save tree, modelling the hardware reduction structure.
///
/// Returns the exact 106-bit product. Equivalent to
/// `(a as u128) * (b as u128)` (and tested to be), but computed the way the
/// multiply unit does: one partial product per multiplier bit, reduced in a
/// binary tree of 3:2 carry-save compressor layers, followed by one
/// carry-propagate add.
pub fn significand_product(a: u64, b: u64) -> u128 {
    // Generate one partial product per set bit of `b`.
    let mut terms: Vec<u128> = (0..64)
        .filter(|i| (b >> i) & 1 == 1)
        .map(|i| (a as u128) << i)
        .collect();
    if terms.is_empty() {
        return 0;
    }
    // Reduce with layers of 3:2 carry-save compressors ("chunky" binary
    // tree): each layer maps every group of three terms to a sum/carry pair.
    while terms.len() > 2 {
        let mut next = Vec::with_capacity(2 * terms.len() / 3 + 2);
        let mut chunks = terms.chunks_exact(3);
        for c in &mut chunks {
            let (s, carry) = carry_save_add(c[0], c[1], c[2]);
            next.push(s);
            next.push(carry);
        }
        next.extend_from_slice(chunks.remainder());
        terms = next;
    }
    // Final carry-propagate addition.
    terms.iter().sum()
}

/// One 3:2 carry-save compressor layer over full words: returns the
/// bitwise sum and the carry word (shifted up one position).
#[inline]
fn carry_save_add(x: u128, y: u128, z: u128) -> (u128, u128) {
    let sum = x ^ y ^ z;
    let carry = ((x & y) | (x & z) | (y & z)) << 1;
    (sum, carry)
}

/// IEEE-754 binary64 multiplication with round-to-nearest-even.
///
/// Returns the result bit pattern and any raised exceptions. A NaN operand
/// propagates as the canonical quiet NaN without raising `INVALID`;
/// `0 × inf` produces NaN with `INVALID`.
///
/// ```
/// use mt_fparith::fp_mul;
/// let (r, _) = fp_mul(1.5f64.to_bits(), (-2.0f64).to_bits());
/// assert_eq!(f64::from_bits(r), -3.0);
/// ```
#[inline]
pub fn fp_mul(a: u64, b: u64) -> (u64, Exceptions) {
    let p = (f64::from_bits(a) * f64::from_bits(b)).to_bits();
    let (ea, eb, ep) = (
        bits::biased_exp(a),
        bits::biased_exp(b),
        bits::biased_exp(p),
    );
    if ea.wrapping_sub(1) < 2046 && eb.wrapping_sub(1) < 2046 && ep.wrapping_sub(1) < 2046 {
        // The significand product has 105 bits plus one per binade the
        // result sits above `ea + eb − 1023` (a carry, or rounding up into
        // the next binade, which is inexact anyway). It fits the result's
        // 53 bits exactly when its trailing zeros cover the excess.
        let tz = (a | bits::HIDDEN_BIT).trailing_zeros() + (b | bits::HIDDEN_BIT).trailing_zeros();
        let flags = if (tz as i32) < 52 + ep as i32 - (ea as i32 + eb as i32 - bits::EXP_BIAS) {
            Exceptions::INEXACT
        } else {
            Exceptions::empty()
        };
        return (p, flags);
    }
    fp_mul_general(a, b)
}

/// General path of [`fp_mul`]: full operand-class decision tree and exact
/// `u128` datapath, handling every operand class; tests hold the host path
/// to it.
pub(crate) fn fp_mul_general(a: u64, b: u64) -> (u64, Exceptions) {
    let (ca, cb) = (bits::classify(a), bits::classify(b));
    let sign = bits::sign_of(a) ^ bits::sign_of(b);

    if ca == Class::Nan || cb == Class::Nan {
        return (bits::QNAN, Exceptions::empty());
    }
    match (ca, cb) {
        (Class::Infinite, Class::Zero) | (Class::Zero, Class::Infinite) => {
            return (bits::QNAN, Exceptions::INVALID)
        }
        (Class::Infinite, _) | (_, Class::Infinite) => {
            return (bits::infinity(sign), Exceptions::empty())
        }
        (Class::Zero, _) | (_, Class::Zero) => return (bits::zero(sign), Exceptions::empty()),
        _ => {}
    }

    let ua = bits::unpack(a);
    let ub = bits::unpack(b);
    // The hardware's reduction structure is modelled (and property-tested
    // bit-equal to this) in [`significand_product`]; the datapath takes the
    // plain product rather than walking the explicit compressor tree.
    let prod = (ua.sig as u128) * (ub.sig as u128);
    // prod = siga × sigb ∈ [2^104, 2^106); value = prod × 2^(ea + eb − 104),
    // so present it to round_pack at scale 2^(exp − 55).
    round_pack(sign, ua.exp + ub.exp - 104 + 55, prod)
}

/// The Newton–Raphson *iteration step* operation (unit 2, func 2 in Fig. 4):
/// computes `2.0 − a·b`.
///
/// This is the support operation that makes division exactly six 3-cycle
/// operations (`recip, istep, mul, istep, mul, mul`). The multiply and the
/// subtraction from 2.0 are each individually rounded (two roundings, as two
/// passes through the datapath would give); the cancellation near 1.0 is
/// benign for Newton–Raphson convergence.
pub fn fp_iteration_step(a: u64, b: u64) -> (u64, Exceptions) {
    const TWO: u64 = 0x4000_0000_0000_0000;
    let (p, e1) = fp_mul(a, b);
    let (r, e2) = crate::add::fp_sub(TWO, p);
    (r, e1 | e2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mul(a: f64, b: f64) -> f64 {
        f64::from_bits(fp_mul(a.to_bits(), b.to_bits()).0)
    }

    #[test]
    fn tree_matches_plain_multiply() {
        let cases = [
            (0u64, 0u64),
            (1, 1),
            (0x10_0000_0000_0000, 0x10_0000_0000_0000),
            (0x1F_FFFF_FFFF_FFFF, 0x1F_FFFF_FFFF_FFFF),
            (0x15_5555_5555_5555, 0x0A_AAAA_AAAA_AAAA),
            (u64::MAX, u64::MAX),
            (0xDEAD_BEEF_CAFE_F00D, 0x0123_4567_89AB_CDEF),
        ];
        for (a, b) in cases {
            assert_eq!(
                significand_product(a, b),
                (a as u128) * (b as u128),
                "tree product of {a:#x} × {b:#x}"
            );
        }
    }

    #[test]
    fn simple_products() {
        assert_eq!(mul(1.5, 2.0), 3.0);
        assert_eq!(mul(-1.5, 2.0), -3.0);
        assert_eq!(mul(-1.5, -2.0), 3.0);
        assert_eq!(mul(0.1, 0.2), 0.1 * 0.2);
        assert_eq!(mul(1.0, 1.0), 1.0);
    }

    #[test]
    fn specials() {
        assert!(mul(f64::NAN, 1.0).is_nan());
        assert_eq!(mul(f64::INFINITY, -2.0), f64::NEG_INFINITY);
        assert_eq!(mul(0.0, -2.0).to_bits(), bits::NEG_ZERO);
        let (r, exc) = fp_mul(bits::POS_INF, bits::POS_ZERO);
        assert!(f64::from_bits(r).is_nan());
        assert!(exc.contains(Exceptions::INVALID));
    }

    #[test]
    fn overflow_and_underflow() {
        let (r, exc) = fp_mul(1e200f64.to_bits(), 1e200f64.to_bits());
        assert_eq!(f64::from_bits(r), f64::INFINITY);
        assert!(exc.contains(Exceptions::OVERFLOW));

        let (r, exc) = fp_mul(1e-200f64.to_bits(), 1e-200f64.to_bits());
        assert_eq!(f64::from_bits(r), 1e-200 * 1e-200); // subnormal
        assert!(exc.contains(Exceptions::UNDERFLOW));
    }

    #[test]
    fn subnormal_operands() {
        let tiny = f64::from_bits(0x000F_0000_0000_0000);
        assert_eq!(mul(tiny, 2.0), tiny * 2.0);
        assert_eq!(mul(tiny, 0.5), tiny * 0.5);
        assert_eq!(mul(f64::from_bits(1), 0.5), f64::from_bits(1) * 0.5);
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
            1.0 + f64::EPSILON,
            1e308,
            1e-308,
            3.5e-310,
            std::f64::consts::PI,
        ];
        for &x in &interesting {
            for &y in &interesting {
                let (got, _) = fp_mul(x.to_bits(), y.to_bits());
                assert_eq!(got, (x * y).to_bits(), "mul({x:e}, {y:e})");
            }
        }
    }

    /// The host path must agree with the general `u128` path — bit pattern
    /// AND exception flags — for a million seeded pairs each of `fp_mul`
    /// and `fp_iteration_step` across every operand class, with exponents
    /// drawn to put many products near the underflow and overflow
    /// thresholds, and with the host FPU on the product's value (any NaN
    /// matching any NaN).
    #[test]
    fn fast_path_matches_general_and_host() {
        use crate::add::add_general;
        use crate::bits::sample::{lcg, operand};
        const TWO: u64 = 0x4000_0000_0000_0000;
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..1_000_000u64 {
            let near = 1 + lcg(&mut s) % 2046;
            let a = operand(&mut s, near);
            let edge = if i % 2 == 0 { 1024 } else { 3069 };
            let b = operand(&mut s, edge - bits::biased_exp(a).min(edge - 1));
            let got = fp_mul(a, b);
            assert_eq!(got, fp_mul_general(a, b), "mul({a:#018x}, {b:#018x})");
            let host = f64::from_bits(a) * f64::from_bits(b);
            assert!(
                got.0 == host.to_bits() || (host.is_nan() && bits::is_nan(got.0)),
                "host mismatch: mul({a:#018x}, {b:#018x})"
            );
            let (p, e1) = fp_mul_general(a, b);
            let (r, e2) = add_general(TWO, p ^ bits::SIGN_MASK);
            assert_eq!(
                fp_iteration_step(a, b),
                (r, e1 | e2),
                "istep({a:#018x}, {b:#018x})"
            );
        }
    }

    /// Zeros, subnormals, products at, just below and just above the
    /// normal range's ends, and overflowing products agree between the
    /// paths; the flags of the targeted products are pinned.
    #[test]
    fn fast_path_edge_ranges_match_general() {
        let below_one = 1.0 - f64::EPSILON / 2.0;
        let edges = [
            0.0,
            f64::from_bits(1),
            f64::from_bits(0xF_FFFF_FFFF_FFFF),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE * (1.0 + f64::EPSILON),
            below_one,
            1.0 - f64::EPSILON,
            0.5,
            0.75,
            1.0,
            1.5,
            2f64.powi(-511),
            2f64.powi(511),
            2f64.powi(512),
            f64::MAX,
            f64::from_bits(2046u64 << 52),
            f64::INFINITY,
            f64::NAN,
        ];
        for &x in &edges {
            for &y in &edges {
                for (p, q) in [(x, y), (x, -y), (-x, y), (-x, -y)] {
                    let (pb, qb) = (p.to_bits(), q.to_bits());
                    assert_eq!(fp_mul(pb, qb), fp_mul_general(pb, qb), "mul({p:e}, {q:e})");
                }
            }
        }
        let none = Exceptions::empty();
        let inexact = Exceptions::INEXACT;
        let overflow = Exceptions::OVERFLOW | Exceptions::INEXACT;
        let largest_subnormal = f64::from_bits(0xF_FFFF_FFFF_FFFF);
        for (a, b, want, flags) in [
            (2f64.powi(-511), 2f64.powi(-511), f64::MIN_POSITIVE, none),
            (f64::MIN_POSITIVE, below_one, f64::MIN_POSITIVE, inexact),
            (
                f64::MIN_POSITIVE,
                1.0 - f64::EPSILON,
                largest_subnormal,
                none,
            ),
            (f64::MIN_POSITIVE, 0.75, f64::MIN_POSITIVE * 0.75, none),
            (
                2f64.powi(511),
                2f64.powi(512),
                f64::from_bits(2046u64 << 52),
                none,
            ),
            (2f64.powi(512), 2f64.powi(512), f64::INFINITY, overflow),
            (f64::MAX, 1.5, f64::INFINITY, overflow),
            (1.5, 1.5, 2.25, none),
            (0.1, 3.0, 0.1 * 3.0, inexact),
        ] {
            let got = fp_mul(a.to_bits(), b.to_bits());
            assert_eq!(got, (want.to_bits(), flags), "mul({a:e}, {b:e})");
        }
    }

    #[test]
    fn iteration_step_value() {
        // istep(x, r) = 2 − x·r; with r ≈ 1/x the result is ≈ 1.
        let (r, _) = fp_iteration_step(4.0f64.to_bits(), 0.25f64.to_bits());
        assert_eq!(f64::from_bits(r), 1.0);
        let (r, _) = fp_iteration_step(3.0f64.to_bits(), 0.5f64.to_bits());
        assert_eq!(f64::from_bits(r), 0.5);
    }
}

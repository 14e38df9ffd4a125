//! Bit-level IEEE-754 double-precision arithmetic for the MultiTitan FPU.
//!
//! This crate implements the three fully pipelined functional units of the
//! MultiTitan floating-point unit described in *"A Unified Vector/Scalar
//! Floating-Point Architecture"* (Jouppi, Bertoni, Wall; ASPLOS-III 1989):
//!
//! * the **add** unit (add, subtract, integer→float, float→integer), modelled
//!   after the dual-path design the paper cites: a *far* path for aligned
//!   operands and a *near* path for effective subtractions that may cancel
//!   catastrophically (see [`add`]);
//! * the **multiply** unit (multiply, integer multiply, Newton–Raphson
//!   *iteration step*), whose partial products are reduced through an explicit
//!   binary carry-save tree modelling the paper's "chunky binary tree"
//!   (see [`mul`]);
//! * the **reciprocal approximation** unit, which develops a 16-bit
//!   reciprocal approximation by table lookup plus linear interpolation
//!   (see [`recip`]).
//!
//! Division is not a primitive: as in the paper it is a macro-sequence of six
//! 3-cycle operations (`recip, istep, mul, istep, mul, mul`), provided by
//! [`div`].
//!
//! All operations take and return raw `u64` bit patterns (the FPU register
//! file holds 64-bit words), along with an [`Exceptions`] flag set. The
//! add/subtract/multiply operations are bit-exact IEEE-754 binary64 with
//! round-to-nearest-even, which is property-tested against the host FPU.
//!
//! The near/far-path adder and the carry-save multiplier are the *general*
//! paths: they handle every operand class and are the specification. Where
//! the flags follow from the operands and the result alone — add/subtract
//! of finite operands below 2^1023, multiply of normals with a normal
//! product — [`fp_add`], [`fp_sub`] and [`fp_mul`] return the host FPU's
//! result with exactly computed flags instead, and the unit tests hold those
//! host paths to the general ones on value and flags.
//!
//! # Example
//!
//! ```
//! use mt_fparith::{FpOp, execute};
//!
//! let a = 1.5f64.to_bits();
//! let b = 2.25f64.to_bits();
//! let (bits, exc) = execute(FpOp::Add, a, b);
//! assert_eq!(f64::from_bits(bits), 3.75);
//! assert!(exc.is_empty());
//! ```

pub mod add;
pub mod bits;
pub mod convert;
pub mod div;
pub mod exception;
pub mod intmul;
pub mod latency;
pub mod mul;
pub mod op;
pub mod recip;
mod round;

pub use add::{fp_add, fp_sub};
pub use convert::{fp_float, fp_truncate};
pub use div::{fp_divide, DivStep, DIV_SEQUENCE_LEN};
pub use exception::Exceptions;
pub use intmul::int_multiply;
pub use latency::{CYCLE_NS, DIV_LATENCY_CYCLES, OP_LATENCY_CYCLES};
pub use mul::{fp_iteration_step, fp_mul};
pub use op::{execute, FpOp, FuncUnit};
pub use recip::fp_recip_approx;

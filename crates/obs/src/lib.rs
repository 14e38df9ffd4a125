//! `mt-obs` — end-to-end service telemetry for the MultiTitan
//! reproduction.
//!
//! PR 2 (`mt-trace`) gave the *simulator core* its measurement substrate:
//! typed per-cycle events, a profiler, and Chrome trace export. This
//! crate gives the *serving path* the same discipline, because the
//! ROADMAP's 100k-req/s push is blocked on measurement, not mechanism —
//! you cannot scale what you cannot observe, and you cannot keep a win
//! you cannot gate. Four pieces, all std-only and dependency-free beyond
//! `mt-trace`'s JSON layer:
//!
//! * [`hdr`] — bounded log-linear (HDR-style) histograms: fixed memory
//!   over the full `u64` range, mergeable, p50/p99/p999 within a proven
//!   relative-error bound (`2^-(SUB_BITS+1)` ≈ 1.6 %).
//!   Replaces the unbounded exact sample buffer in the serve metrics.
//! * [`span`] — request-scoped span trees (`read-request` →
//!   `queue-wait` → `worker-service` ⊃ `sim-run` → `respond`) with
//!   monotonic timing, exported as Chrome trace JSON through the PR 2
//!   exporter so Perfetto loads service spans next to cycle traces.
//! * [`window`] — sliding-window counters for instantaneous rates
//!   (req/s, error rate, 429 rate) with deterministic, injectable time.
//! * [`prom`] — Prometheus text-format exposition (counters, gauges,
//!   histogram-backed summaries) plus a grammar validator for CI.
//! * [`benchdiff`] — per-metric-tolerance diffing of committed
//!   `mt-*-v1` BENCH documents; `repro-benchdiff` turns it into the
//!   regression gate `./ci` runs on every PR.

pub mod benchdiff;
pub mod hdr;
pub mod prom;
pub mod span;
pub mod window;

pub use benchdiff::{diff, Finding, Rule, Tolerance};
pub use hdr::HdrHistogram;
pub use prom::PromText;
pub use span::{Span, SpanSet};
pub use window::WindowedCounter;

/// FNV-1a 64-bit — the repo's standard content hash (no dependencies,
/// stable across platforms): `mt-serve` keys its result cache with it
/// and `mtasm client` fingerprints response bodies.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}

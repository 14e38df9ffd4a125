//! Collection strategies (`prop::collection::vec`).

use std::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A length specification for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max_inclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(exact: usize) -> SizeRange {
        SizeRange {
            min: exact,
            max_inclusive: exact,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.end > r.start, "empty collection size range");
        SizeRange {
            min: r.start,
            max_inclusive: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> SizeRange {
        SizeRange {
            min: *r.start(),
            max_inclusive: *r.end(),
        }
    }
}

/// Generates `Vec`s whose elements come from `element` and whose length
/// falls in `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.max_inclusive - self.size.min) as u64 + 1;
        let len = self.size.min + rng.below(span) as usize;
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::TestRng;

    #[test]
    fn vec_lengths_respect_size_spec() {
        let mut rng = TestRng::from_name("collection-tests");
        let exact = vec(0u8..10, 52);
        assert_eq!(exact.sample(&mut rng).len(), 52);

        let ranged = vec(0u8..10, 1..12);
        for _ in 0..200 {
            let v = ranged.sample(&mut rng);
            assert!((1..12).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }

        let inclusive = vec(0u8..10, 3..=4);
        for _ in 0..50 {
            let v = inclusive.sample(&mut rng);
            assert!((3..=4).contains(&v.len()));
        }
    }
}

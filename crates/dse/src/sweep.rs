//! Parallel sweep driver for independent simulation points.
//!
//! Every sweep in the workspace — `repro-livermore`'s 24 loops and the
//! (cell × kernel) pairs of every grid [`crate::run_grid`] measures: the
//! `repro-dse`, `repro-ablations` and `repro-amdahl` studies and
//! `POST /sweep` — is embarrassingly parallel: each point builds its own
//! [`mt_sim::Machine`] and shares nothing. This module fans the points
//! out over `std::thread::scope` workers and collects the results **in
//! deterministic input order**, so documents built from them
//! (`BENCH_sim.json`, `BENCH_dse.json`, `BENCH_ablations.json` and
//! `BENCH_amdahl.json`) are byte-stable no matter how many workers ran
//! or how the OS scheduled them.
//!
//! Workers pull indices from a shared atomic counter (work stealing), so
//! an expensive point (say, a cold Linpack) does not serialize the cheap
//! ones behind it. With one available core, or one input, the driver runs
//! inline with zero threading overhead.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on worker threads: sweeps are compute-bound, so more
/// workers than cores only adds scheduling noise.
fn worker_count(inputs: usize) -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(inputs)
}

/// Applies `f` to every input, in parallel across the machine's cores,
/// returning the results in input order (deterministic regardless of
/// scheduling). `f` must be `Sync` because all workers share it; inputs
/// are read in place.
pub fn sweep<I, T, F>(inputs: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let workers = worker_count(inputs.len());
    if workers <= 1 {
        return inputs.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(input) = inputs.get(i) else { break };
                        out.push((i, f(input)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    tagged.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), inputs.len());
    tagged.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let out = sweep(&inputs, |&n| n * n);
        assert_eq!(out, inputs.iter().map(|n| n * n).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(sweep(&none, |&n| n).is_empty());
        assert_eq!(sweep(&[7u32], |&n| n + 1), vec![8]);
    }

    #[test]
    fn parallel_matches_sequential_on_a_real_kernel() {
        let run = |n: u8| {
            mt_kernels::harness::run_kernel(&mt_kernels::livermore::by_number(n))
                .unwrap()
                .warm
                .cycles
        };
        let nums = [3u8, 11];
        let parallel = sweep(&nums, |&n| run(n));
        let sequential: Vec<u64> = nums.iter().map(|&n| run(n)).collect();
        assert_eq!(parallel, sequential);
    }
}

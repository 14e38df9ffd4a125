//! Holds a run on one CPU.
//!
//! On a small shared VM, the host's other tenants slow each virtual CPU
//! by different amounts at different times. A run whose threads move
//! between CPUs, or talk across them (every loopback request of the serve
//! workloads wakes a thread, and a thread started per connection sends
//! TLB-shootdown interrupts to the other CPU), varies far more from run to
//! run than one held on a single CPU. The load threads, the server's
//! threads and the set-up processes all start after the pin and inherit
//! it, so one run of any workload uses exactly one CPU.

use std::io;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of a CPU mask: 1024 CPUs, the size of the C library's
/// `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// Pins the calling thread, and every thread and process it starts from
/// now on, to the highest-numbered CPU it may run on; returns that CPU.
///
/// # Errors
///
/// The system refusing to report or change the thread's CPU mask.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) };
    if got != 0 {
        return Err(format!("sched_getaffinity: {}", io::Error::last_os_error()));
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the CPU mask is empty")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let set = unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) };
    if set != 0 {
        return Err(format!("sched_setaffinity: {}", io::Error::last_os_error()));
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_and_its_children_see_one_cpu() {
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().unwrap();
            let child = std::thread::spawn(std::thread::available_parallelism)
                .join()
                .unwrap();
            assert_eq!(child.unwrap().get(), 1);
            assert_eq!(
                pin_to_one_cpu().unwrap(),
                cpu,
                "pinning again keeps the CPU"
            );
        })
        .join()
        .unwrap();
    }
}

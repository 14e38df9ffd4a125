//! The kernel harness: cold/warm runs with numeric validation.

use mt_mahler::CompiledRoutine;
use mt_sim::{Machine, RunStats, SimConfig};
use mt_trace::{EventSink, NullSink, TraceEvent};

/// Closure type writing a machine's input arrays.
pub type InitFn = Box<dyn Fn(&mut Machine) + Send + Sync>;
/// Closure type checking a machine's outputs against the reference.
pub type VerifyFn = Box<dyn Fn(&Machine) -> Result<(), String> + Send + Sync>;

/// A runnable, verifiable workload.
pub struct Kernel {
    /// Display name (e.g. `"LL 3: inner product"`).
    pub name: String,
    /// The compiled MultiTitan program plus constant pool.
    pub routine: CompiledRoutine,
    /// Writes the input arrays into machine memory. Called before each
    /// measured pass (plain memory writes do not disturb cache residency,
    /// so re-initialization between the cold and warm passes is free).
    pub init: InitFn,
    /// Checks the outputs in machine memory against the Rust reference.
    pub verify: VerifyFn,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Kernel({}, {} words)",
            self.name,
            self.routine.program.len()
        )
    }
}

/// Cold and warm statistics of one kernel.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Kernel name.
    pub name: String,
    /// First pass: empty caches (§3.2's cold-cache column).
    pub cold: RunStats,
    /// Second pass: caches primed by the first (warm column).
    pub warm: RunStats,
}

impl KernelReport {
    /// Cold-cache MFLOPS.
    pub fn mflops_cold(&self) -> f64 {
        self.cold.mflops()
    }

    /// Warm-cache MFLOPS.
    pub fn mflops_warm(&self) -> f64 {
        self.warm.mflops()
    }
}

/// Runs a kernel with the §3.2 protocol under a given configuration.
///
/// # Errors
///
/// Propagates simulator errors and verification mismatches (with the kernel
/// name attached).
pub fn run_kernel_with(kernel: &Kernel, config: SimConfig) -> Result<KernelReport, String> {
    run_protocol(kernel, config, &mut NullSink, &mut NullSink)
}

/// The §3.2 protocol, once: install, cold pass, verify, re-initialize,
/// warm pass, verify — each pass watched by its own sink. Generic over
/// both sinks, so with [`NullSink`] the untraced run loop is the one
/// monomorphized.
fn run_protocol<C: EventSink, W: EventSink>(
    kernel: &Kernel,
    config: SimConfig,
    cold_sink: &mut C,
    warm_sink: &mut W,
) -> Result<KernelReport, String> {
    let tag = |e: String| format!("{}: {e}", kernel.name);
    check_data_fits(kernel, &config).map_err(tag)?;
    let mut m = Machine::new(config);
    kernel.routine.install(&mut m);
    (kernel.init)(&mut m);
    let cold = m.run_with_sink(cold_sink).map_err(|e| tag(e.to_string()))?;
    (kernel.verify)(&m).map_err(tag)?;

    (kernel.init)(&mut m);
    m.reset_for_rerun();
    let warm = m.run_with_sink(warm_sink).map_err(|e| tag(e.to_string()))?;
    (kernel.verify)(&m).map_err(tag)?;

    Ok(KernelReport {
        name: kernel.name.clone(),
        cold,
        warm,
    })
}

/// Refuses a machine whose memory cannot hold the kernel's data. Set-up
/// (`install`, then `init`) writes through the infallible memory
/// accessors, which panic past the end of memory, so on a machine with
/// less memory than the paper machine — which holds every kernel — it is
/// replayed first on a paper-machine probe and its highest write
/// compared against the configured size.
fn check_data_fits(kernel: &Kernel, config: &SimConfig) -> Result<(), String> {
    let size = config.machine.mem.memory_bytes;
    if size >= SimConfig::default().machine.mem.memory_bytes {
        return Ok(());
    }
    let mut probe = Machine::new(SimConfig::default());
    kernel.routine.install(&mut probe);
    (kernel.init)(&mut probe);
    let end = probe.mem.memory.high_water();
    if end > size {
        return Err(format!(
            "set-up writes up to {end:#x}, beyond the configured memory_bytes {size}"
        ));
    }
    Ok(())
}

/// Runs a kernel with the default (paper) configuration.
///
/// # Errors
///
/// See [`run_kernel_with`].
pub fn run_kernel(kernel: &Kernel) -> Result<KernelReport, String> {
    run_kernel_with(kernel, SimConfig::default())
}

/// A kernel report plus the full event stream of each measured pass —
/// input for profilers, Chrome-trace exporters, and timeline rendering.
#[derive(Debug, Clone)]
pub struct TracedReport {
    /// The cold/warm statistics, as from [`run_kernel_with`].
    pub report: KernelReport,
    /// Every event of the cold pass, in emission order.
    pub cold_events: Vec<TraceEvent>,
    /// Every event of the warm pass.
    pub warm_events: Vec<TraceEvent>,
}

/// Runs a kernel with the §3.2 protocol, recording the complete event
/// stream of both passes.
///
/// # Errors
///
/// See [`run_kernel_with`].
pub fn run_kernel_recorded(kernel: &Kernel, config: SimConfig) -> Result<TracedReport, String> {
    let mut cold_events: Vec<TraceEvent> = Vec::new();
    let mut warm_events: Vec<TraceEvent> = Vec::new();
    let report = run_protocol(kernel, config, &mut cold_events, &mut warm_events)?;
    Ok(TracedReport {
        report,
        cold_events,
        warm_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_fparith::FpOp;
    use mt_mahler::Mahler;

    /// A trivial kernel: out[i] = a[i] + b[i] over one strip of 8.
    fn tiny_kernel() -> Kernel {
        let base = crate::layout::DATA_BASE;
        let mut m = Mahler::new();
        let a = m.vector(8).unwrap();
        let b = m.vector(8).unwrap();
        let p = m.ivar().unwrap();
        m.set_i(p, base as i32);
        m.load(a, p, 0, 8).unwrap();
        m.load(b, p, 64, 8).unwrap();
        m.vop(FpOp::Add, a, a, b).unwrap();
        m.store(a, p, 128, 8).unwrap();
        let routine = m.finish().unwrap();

        let xs: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..8).map(|i| 100.0 + i as f64).collect();
        let want: Vec<f64> = xs.iter().zip(&ys).map(|(x, y)| x + y).collect();
        let (xs2, ys2) = (xs.clone(), ys.clone());
        Kernel {
            name: "tiny".into(),
            routine,
            init: Box::new(move |m| {
                m.mem.memory.write_f64_slice(base, &xs2);
                m.mem.memory.write_f64_slice(base + 64, &ys2);
            }),
            verify: Box::new(move |m| {
                crate::layout::compare_slices(
                    &m.mem.memory.read_f64_slice(base + 128, 8),
                    &want,
                    0.0,
                    "out",
                )
            }),
        }
    }

    #[test]
    fn cold_then_warm() {
        let report = run_kernel(&tiny_kernel()).unwrap();
        assert!(report.cold.cycles > report.warm.cycles, "warm is faster");
        assert!(report.warm.dcache.misses == 0, "second pass hits");
        assert!(report.mflops_warm() > report.mflops_cold());
        assert_eq!(report.warm.fpu.flops, 8);
    }

    /// The data sits at `DATA_BASE` (1 MiB): a 1 MiB machine holds the
    /// text but not the data, which is an error, not a panic.
    #[test]
    fn data_beyond_memory_is_an_error() {
        let with_memory = |bytes: u64| {
            let mut config = SimConfig::default();
            config.machine.set_knob("memory_bytes", bytes).unwrap();
            run_kernel_with(&tiny_kernel(), config)
        };
        let err = with_memory(1 << 20).unwrap_err();
        assert!(
            err.starts_with("tiny: set-up writes up to 0x100080, beyond"),
            "{err}"
        );
        let fits = with_memory(2 << 20).unwrap();
        assert_eq!(fits.warm, run_kernel(&tiny_kernel()).unwrap().warm);
    }

    #[test]
    fn verification_failure_is_reported() {
        let mut k = tiny_kernel();
        k.verify = Box::new(|_| Err("forced".into()));
        let err = run_kernel(&k).unwrap_err();
        assert!(err.contains("tiny: forced"));
    }
}

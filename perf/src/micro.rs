//! Unit costs: one public call of each layer, timed from outside with
//! `std::time::Instant` and reported as the minimum over repetitions (the
//! least-disturbed sample), with the median's distance from it as the
//! spread.

use std::hint::black_box;
use std::io::BufReader;
use std::time::{Duration, Instant};

use mt_fparith::{fp_add, fp_iteration_step, fp_mul, fp_recip_approx};
use mt_kernels::{livermore, Kernel};
use mt_lint::LintOptions;
use mt_mem::{AccessKind, Cache, CacheConfig, MemConfig, MemorySystem};
use mt_serve::job::execute_timed;
use mt_serve::{JobQueue, ResultCache};
use mt_sim::{Machine, SimConfig};
use mt_xlate::TranslatedProgram;

use crate::gen::{self, GenProgram, SplitMix64};
use crate::servework::job_for;
use crate::stats;

/// A unit cost: nanoseconds per operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unit {
    /// Fastest repetition.
    pub min_ns: f64,
    /// `(median − min) / min` over the repetitions.
    pub spread: f64,
}

/// Runs `sample` `reps` times; each call measures `ops` operations and
/// returns the time they took (so set-up inside a sample stays untimed).
pub fn min_of_n(reps: usize, ops: usize, mut sample: impl FnMut() -> Duration) -> Unit {
    let per_op: Vec<f64> = (0..reps)
        .map(|_| sample().as_secs_f64() * 1e9 / ops as f64)
        .collect();
    let min_ns = per_op.iter().copied().fold(f64::INFINITY, f64::min);
    Unit {
        min_ns,
        spread: (stats::median(&per_op) - min_ns) / min_ns,
    }
}

/// Times `f` once.
fn timed(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// One row: the metric it feeds and its cost.
pub type Row = (&'static str, Unit);

/// Seeded FP operands: normal doubles across ±2^20 with 1% specials
/// (signed zeros, infinities, NaN, subnormals, extremes).
fn fp_operands(seed: u64, n: usize) -> Vec<(u64, u64)> {
    const SPECIALS: [f64; 8] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
    ];
    let mut rng = SplitMix64::new(seed ^ 0xF0F0);
    let mut one = || {
        if rng.below(100) == 0 {
            gen::pick(&mut rng, &SPECIALS).to_bits()
        } else {
            let sign = rng.next_u64() & (1 << 63);
            let exp = (1023 - 20 + rng.below(41)) << 52;
            sign | exp | (rng.next_u64() >> 12)
        }
    };
    (0..n).map(|_| (one(), one())).collect()
}

/// The bit-level FP layer: ns per `fp_add`, `fp_mul`, `fp_recip_approx`
/// and `fp_iteration_step`.
pub fn fparith(seed: u64) -> Vec<Row> {
    let ops = fp_operands(seed, 4096);
    let binary = |f: fn(u64, u64) -> (u64, mt_fparith::Exceptions)| {
        min_of_n(61, ops.len(), || {
            timed(|| {
                for &(a, b) in &ops {
                    black_box(f(black_box(a), black_box(b)));
                }
            })
        })
    };
    vec![
        ("fparith.add_ns", binary(fp_add)),
        ("fparith.mul_ns", binary(fp_mul)),
        (
            "fparith.recip_ns",
            min_of_n(61, ops.len(), || {
                timed(|| {
                    for &(a, _) in &ops {
                        black_box(fp_recip_approx(black_box(a)));
                    }
                })
            }),
        ),
        ("fparith.istep_ns", binary(fp_iteration_step)),
    ]
}

/// The memory layer: a data-cache tag probe that hits, one that misses
/// (two lines 64 KB apart evicting each other in the direct-mapped data
/// cache), and a `MemorySystem::load_f64` that hits.
pub fn mem() -> Vec<Row> {
    let hot: Vec<u32> = (0..256).map(|i| i * 16).collect();
    let conflict: Vec<u32> = (0..512)
        .map(|i| (i % 2) * 0x1_0000 + (i / 2 % 64) * 16)
        .collect();
    let mut cache = Cache::new(CacheConfig::multititan_data());
    for &a in &hot {
        cache.access(a, AccessKind::Read);
    }
    let mut probe = |addrs: &[u32]| {
        min_of_n(61, addrs.len(), || {
            timed(|| {
                for &a in addrs {
                    black_box(cache.access(black_box(a), AccessKind::Read));
                }
            })
        })
    };
    let hit = probe(&hot);
    let miss = probe(&conflict);
    let mut system = MemorySystem::new(MemConfig::multititan());
    let loads: Vec<u32> = (0..512).map(|i| 0x2000 + i * 8).collect();
    let load = min_of_n(61, loads.len(), || {
        timed(|| {
            for &a in &loads {
                black_box(system.load_f64(black_box(a)));
            }
        })
    });
    vec![
        ("mem.cache_hit_ns", hit),
        ("mem.cache_miss_ns", miss),
        ("mem.load_f64_ns", load),
    ]
}

/// The kernel layer, per Livermore kernel on average: building it
/// (`livermore::by_number`), and its `init` and `verify` closures.
pub fn kernels() -> Vec<Row> {
    let build = min_of_n(3, 24, || {
        timed(|| {
            for n in 1..=24 {
                black_box(livermore::by_number(n));
            }
        })
    });
    // One machine per kernel, run once, so `verify` checks real outputs.
    let mut ready: Vec<(Kernel, Machine)> = (1..=24)
        .map(|n| {
            let kernel = livermore::by_number(n);
            let mut m = Machine::new(SimConfig::default());
            kernel.routine.install(&mut m);
            (kernel.init)(&mut m);
            m.run().expect("every Livermore kernel runs");
            (kernel, m)
        })
        .collect();
    let verify = min_of_n(5, ready.len(), || {
        timed(|| {
            for (kernel, m) in &ready {
                let _ = black_box((kernel.verify)(m));
            }
        })
    });
    // After `verify`: `init` rewrites inputs that in-place kernels compute
    // into.
    let init = min_of_n(5, ready.len(), || {
        timed(|| {
            for (kernel, m) in &mut ready {
                (kernel.init)(m);
            }
        })
    });
    vec![
        ("kernels.build_us", build),
        ("kernels.init_us", init),
        ("kernels.verify_us", verify),
    ]
}

/// The front end on a serve workload's programs: assembling, block
/// translation, and linting, each per program.
pub fn front_end(programs: &[GenProgram]) -> Vec<Row> {
    let n = programs.len();
    let parse = min_of_n(7, n, || {
        timed(|| {
            for p in programs {
                let _ = black_box(mt_asm::parse_with_source_map(&p.source, 0x1_0000));
            }
        })
    });
    let parsed: Vec<_> = programs
        .iter()
        .filter_map(|p| mt_asm::parse_with_source_map(&p.source, 0x1_0000).ok())
        .collect();
    let translate = min_of_n(7, parsed.len(), || {
        timed(|| {
            for (program, _) in &parsed {
                black_box(TranslatedProgram::translate(program));
            }
        })
    });
    let opts: Vec<LintOptions> = parsed
        .iter()
        .map(|(_, map)| LintOptions {
            allow_recurrence: map.allowed_indices("recurrence"),
            ..LintOptions::default()
        })
        .collect();
    let lint = min_of_n(7, parsed.len(), || {
        timed(|| {
            for ((program, _), o) in parsed.iter().zip(&opts) {
                black_box(mt_lint::lint_program_with(program, o));
            }
        })
    });
    vec![
        ("asm.parse_us", parse),
        ("xlate.translate_us", translate),
        ("lint.program_us", lint),
    ]
}

/// JSON rendering and parsing, on the documents the service produces: a
/// `RunStats` rendered as `/run` renders it, and a whole `/run` reply
/// parsed back.
pub fn json(program: &GenProgram) -> Vec<Row> {
    let mut m = Machine::new(SimConfig::default());
    let (result, _) = execute_timed(&job_for(program), &mut m);
    let kernel = livermore::by_number(1);
    let report = mt_kernels::run_kernel(&kernel).expect("Livermore loop 1 runs");
    let render = min_of_n(31, 16, || {
        timed(|| {
            for _ in 0..16 {
                black_box(mt_sim::json::stats_json(black_box(&report.warm)).pretty());
            }
        })
    });
    let parse = min_of_n(31, 8, || {
        timed(|| {
            for _ in 0..8 {
                let _ = black_box(mt_trace::json::parse(black_box(&result.body)));
            }
        })
    });
    vec![
        ("trace.stats_render_us", render),
        ("trace.json_parse_us", parse),
    ]
}

/// The service's parts without the network: reading a request off a
/// buffer, result-cache reads and evicting inserts at the default 256
/// entries, a queue hand-off, and a job's non-simulation work
/// (`execute_timed` minus its timed simulation section).
pub fn serve(programs: &[GenProgram]) -> Vec<Row> {
    let wire: Vec<Vec<u8>> = programs
        .iter()
        .map(|p| {
            format!(
                "POST {} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{}",
                p.path(),
                p.source.len(),
                p.source
            )
            .into_bytes()
        })
        .collect();
    let read = min_of_n(21, wire.len(), || {
        timed(|| {
            for w in &wire {
                let _ = black_box(mt_serve::http::read_request(&mut BufReader::new(&w[..])));
            }
        })
    });

    const CAPACITY: usize = 256;
    let mut m = Machine::new(SimConfig::default());
    let body = execute_timed(&job_for(&programs[0]), &mut m).0.body;
    let key = |i: usize| {
        let mut job = job_for(&programs[i % programs.len()]);
        job.source.push_str(&format!("; {i}\n"));
        job.key_material()
    };
    let resident: Vec<String> = (0..CAPACITY).map(key).collect();
    let mut cache = ResultCache::new(CAPACITY);
    for k in &resident {
        cache.insert(k.clone(), 200, body.clone());
    }
    let get = min_of_n(21, CAPACITY, || {
        timed(|| {
            for k in &resident {
                black_box(cache.get(k));
            }
        })
    });
    // Alternate two key sets so every insert misses and evicts.
    let fresh: [Vec<String>; 2] = [
        (CAPACITY..2 * CAPACITY).map(key).collect(),
        resident.clone(),
    ];
    let mut turn = 0;
    let insert = min_of_n(21, CAPACITY, || {
        let batch: Vec<(String, String)> = fresh[turn % 2]
            .iter()
            .map(|k| (k.clone(), body.clone()))
            .collect();
        turn += 1;
        timed(|| {
            for (k, b) in batch {
                cache.insert(k, 200, b);
            }
        })
    });

    let queue: JobQueue<u64> = JobQueue::new(64);
    let hand_off = min_of_n(21, 1024, || {
        timed(|| {
            for i in 0..1024 {
                let _ = queue.push("perf", black_box(i));
                black_box(queue.pop());
            }
        })
    });

    let jobs: Vec<_> = programs.iter().take(16).map(job_for).collect();
    let nonsim = min_of_n(3, jobs.len(), || {
        jobs.iter()
            .map(|job| {
                let start = Instant::now();
                let (_, timing) = execute_timed(job, &mut m);
                let total = start.elapsed();
                total.saturating_sub(timing.sim.map_or(Duration::ZERO, |(_, d)| d))
            })
            .sum()
    });
    vec![
        ("serve.http_read_request_ns", read),
        ("serve.cache_get_ns", get),
        ("serve.cache_insert_evict_ns", insert),
        ("serve.queue_push_pop_ns", hand_off),
        ("serve.execute_nonsim_us", nonsim),
    ]
}

/// `Machine::reset_for_new_job` after a job dirtied the machine — the
/// recycling step every service job starts with.
pub fn reset_for_new_job(program: &GenProgram) -> Vec<Row> {
    let job = job_for(program);
    let (code, _) = mt_asm::parse_with_source_map(&job.source, job.options.base)
        .expect("generated programs assemble");
    let mut m = Machine::new(job.options.sim_config());
    let reset = min_of_n(7, 1, || {
        m.load_program(&code);
        let _ = m.run();
        timed(|| m.reset_for_new_job(job.options.sim_config()))
    });
    vec![("sim.reset_for_new_job_us", reset)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_of_n_reports_the_fastest_repetition() {
        let mut samples = [40u64, 10, 30, 20, 50].into_iter();
        let u = min_of_n(5, 10, || Duration::from_nanos(samples.next().unwrap()));
        assert_eq!(u.min_ns, 1.0);
        assert!((u.spread - 2.0).abs() < 1e-12, "median 3 ns vs min 1 ns");
    }

    #[test]
    fn operands_include_specials() {
        let ops = fp_operands(1, 4096);
        let special = ops
            .iter()
            .filter(|(a, _)| {
                let x = f64::from_bits(*a);
                !x.is_normal() || x.abs() > 1e300
            })
            .count();
        assert!((10..100).contains(&special), "{special}");
    }
}

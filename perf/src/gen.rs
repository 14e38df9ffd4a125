//! Seeded inputs: SplitMix64 streams and the generator of the assembly
//! programs the serve workloads post to `POST /run`.
//!
//! A program is a pure function of `(seed, index)`. Its *shape* — the
//! template, the working set against the model's 64 KB data cache, the
//! element count and the pass count — comes from a small fixed table, so
//! the tests can simulate every shape once and prove that every program
//! halts inside the cycle band. Only data values vary beyond the shape,
//! and the simulated timing does not depend on them. The first data value
//! encodes the index exactly, which makes every program of one seed a
//! distinct cache key.

pub use mt_fault::SplitMix64;

/// A stream for item `index` of the sequence named by `seed`.
pub fn item_rng(seed: u64, index: u64) -> SplitMix64 {
    let mut base = SplitMix64::new(seed);
    SplitMix64::new(base.next_u64() ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// A value in `0..n` as an index.
fn index_below(rng: &mut SplitMix64, n: usize) -> usize {
    rng.below(n as u64) as usize
}

/// One element of `items`, uniformly.
pub fn pick<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[index_below(rng, items.len())]
}

/// Fisher–Yates shuffle in place.
pub fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, index_below(rng, i + 1));
    }
}

/// What a generated program computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Template {
    /// `y = a·x + y` in vector strips of 8 (the Linpack inner loop).
    Daxpy,
    /// Eight vector partial sums of `x`, then a tree reduction.
    Reduction,
    /// The scalar first-order recurrence `x[i] = a·x[i-1] + y[i]`.
    Recurrence,
    /// `x[i] = x[i] / y[i]` through the six-op reciprocal divide.
    Division,
}

/// Every template, in table order.
pub const TEMPLATES: [Template; 4] = [
    Template::Daxpy,
    Template::Reduction,
    Template::Recurrence,
    Template::Division,
];

/// The model's data cache (`dcache_bytes`); "fits" shapes stay well under
/// it, "streams" shapes are at least twice its size.
pub const DCACHE_BYTES: u32 = 64 * 1024;

/// The size of a program's inputs and outputs: everything the generated
/// code executes depends on these alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    /// The computation.
    pub template: Template,
    /// Elements per array (a multiple of 16).
    pub elements: u32,
    /// How many times the compute loop sweeps the arrays.
    pub passes: u32,
}

impl Shape {
    /// Arrays the template touches (`x`, and `y` unless it is a reduction).
    pub fn arrays(self) -> u32 {
        match self.template {
            Template::Reduction => 1,
            _ => 2,
        }
    }

    /// Bytes of array data: the working set the data cache sees.
    pub fn working_set_bytes(self) -> u32 {
        8 * self.elements * self.arrays()
    }

    /// True when the working set exceeds the data cache.
    pub fn streams(self) -> bool {
        self.working_set_bytes() > DCACHE_BYTES
    }
}

/// `(elements, passes)` choices per template: the first three fit the data
/// cache, the rest stream through it. Sized so that every shape simulates
/// in 50k–300k cycles (the tests hold every shape to it).
fn size_table(template: Template) -> &'static [(u32, u32)] {
    match template {
        Template::Daxpy => &[(1024, 20), (2048, 8), (3072, 5), (5120, 1), (8192, 1)],
        Template::Reduction => &[(2048, 24), (4096, 12), (6144, 8), (10240, 1), (12288, 1)],
        Template::Recurrence => &[(1024, 10), (2048, 6), (3072, 4), (4608, 1), (5120, 1)],
        // Streaming division misses twice per element pair and overshoots
        // the band at any size past the cache, so it only fits.
        Template::Division => &[(512, 10), (1024, 6), (2048, 3)],
    }
}

/// Every shape the generator can produce.
pub fn all_shapes() -> Vec<Shape> {
    TEMPLATES
        .iter()
        .flat_map(|&template| {
            size_table(template)
                .iter()
                .map(move |&(elements, passes)| Shape {
                    template,
                    elements,
                    passes,
                })
        })
        .collect()
}

/// Where the parameter block lives; text sits at the service's default
/// base (0x10000) and the arrays start above the block, so no store can
/// reach the text.
const PARAM_BASE: u32 = 0x3_0000;
/// The first array; the second follows it directly.
const ARRAY_BASE: u32 = 0x4_0000;

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct GenProgram {
    /// What the source computes.
    pub shape: Shape,
    /// Whether the request asks for `?lint=1` (one in four).
    pub lint: bool,
    /// The assembly source (the request body).
    pub source: String,
}

impl GenProgram {
    /// The request path this program is posted to.
    pub fn path(&self) -> &'static str {
        if self.lint {
            "/run?lint=1"
        } else {
            "/run"
        }
    }
}

/// Program `index` of the sequence named by `seed`: every property drawn
/// from the seed stream.
pub fn program(seed: u64, index: u64) -> GenProgram {
    let mut rng = item_rng(seed, index);
    let template = pick(&mut rng, &TEMPLATES);
    let (elements, passes) = pick(&mut rng, size_table(template));
    let lint = rng.below(4) == 0;
    let shape = Shape {
        template,
        elements,
        passes,
    };
    build(&mut rng, index, shape, lint)
}

/// Hot program `k` of `seed` (the programs `serve-hit` warms): shape `k`
/// of the table and `?lint=1` on every fourth, so every seed serves the
/// same mix of work; only the data values, hence the bodies and cache
/// keys, come from the seed.
pub fn hot_program(seed: u64, k: u64) -> GenProgram {
    let shapes = all_shapes();
    let shape = shapes[k as usize % shapes.len()];
    build(&mut item_rng(seed, k), k, shape, k.is_multiple_of(4))
}

fn build(rng: &mut SplitMix64, index: u64, shape: Shape, lint: bool) -> GenProgram {
    // Index-exact first value: 1 + (index+1)·2^-32 is representable for
    // every index below 2^52, so distinct indices give distinct sources.
    let x0 = 1.0 + (index as f64 + 1.0) * (-32f64).exp2();
    let dx = (-((2 + rng.below(6)) as f64)).exp2();
    let y0 = 2.0 + rng.below(64) as f64 / 64.0;
    let dy = (-((3 + rng.below(6)) as f64)).exp2();
    let a = match shape.template {
        // A contraction keeps the recurrence bounded.
        Template::Recurrence => 0.25 + rng.below(32) as f64 / 64.0,
        _ => 0.5 + rng.below(64) as f64 / 64.0,
    };
    GenProgram {
        shape,
        lint,
        source: render(shape, [x0, dx, y0, dy, a]),
    }
}

/// Renders the source of one program: the parameter block, the vector
/// initialization loop, and the template's compute loop.
fn render(shape: Shape, [x0, dx, y0, dy, a]: [f64; 5]) -> String {
    let x = ARRAY_BASE;
    let y = x + 8 * shape.elements;
    let x_end = y;
    let two_arrays = shape.arrays() == 2;
    let strip = |v0: f64, dv: f64| {
        (0..8)
            .map(|k| format!("{:?}", v0 + k as f64 * dv))
            .collect::<Vec<_>>()
            .join(", ")
    };

    let mut s = String::with_capacity(1024);
    s += &format!(
        "; {:?}: {} elements x {} passes, {} bytes ({})\n",
        shape.template,
        shape.elements,
        shape.passes,
        shape.working_set_bytes(),
        if shape.streams() { "streams" } else { "fits" }
    );
    s += &format!(".data {PARAM_BASE:#x}\n");
    s += &format!(".double {}\n", strip(x0, dx));
    s += &format!(".double {}\n", strip(y0, dy));
    s += &format!(".double {:?}, {:?}, {a:?}\n", 8.0 * dx, 8.0 * dy);
    s += &format!("    li   r10, {PARAM_BASE:#x}\n");
    s += &format!("    li   r1, {x:#x}\n");
    s += &format!("    li   r2, {y:#x}\n");
    s += &format!("    li   r3, {x_end:#x}\n");
    s += "    fldv R24..R31, 0(r10), 8\n";
    s += "    fldv R40..R47, 64(r10), 8\n";
    s += "    fld  R32, 128(r10)\n";
    s += "    fld  R33, 136(r10)\n";
    s += "    fld  R16, 144(r10)\n";
    // Fill the arrays with x[i] = x0 + i·dx and y[i] = y0 + i·dy.
    s += "init:\n";
    if two_arrays {
        s += "    fstv R40..R47, 0(r2), 8\n";
    }
    s += "    fstv R24..R31, 0(r1), 8\n";
    if two_arrays {
        s += "    fadd R40..R47, R40..R47, R33\n";
    }
    s += "    fadd R24..R31, R24..R31, R32\n";
    s += "    addi r1, r1, 64\n";
    s += "    addi r2, r2, 64\n";
    s += "    blt  r1, r3, init\n";
    s += "    li   r5, 0\n";
    s += &format!("    li   r6, {}\n", shape.passes);
    s += "pass:\n";
    s += &format!("    li   r1, {x:#x}\n");
    s += &format!("    li   r2, {y:#x}\n");
    match shape.template {
        Template::Daxpy => {
            s += "strip:\n";
            s += "    fldv R0..R7, 0(r1), 8\n";
            s += "    fmul R0..R7, R0..R7, R16\n";
            s += "    fldv R8..R15, 0(r2), 8\n";
            s += "    fadd R8..R15, R8..R15, R0..R7\n";
            s += "    fstv R8..R15, 0(r2), 8\n";
            s += "    addi r1, r1, 64\n";
            s += "    addi r2, r2, 64\n";
            s += "    blt  r1, r3, strip\n";
        }
        Template::Reduction => {
            s += "strip:\n";
            s += "    fldv R0..R7, 0(r1), 8\n";
            s += "    fadd R8..R15, R8..R15, R0..R7\n";
            s += "    fldv R24..R31, 64(r1), 8\n";
            s += "    fadd R8..R15, R8..R15, R24..R31\n";
            s += "    addi r1, r1, 128\n";
            s += "    blt  r1, r3, strip\n";
        }
        Template::Recurrence => {
            s += "    fld  R1, 0(r1)\n";
            s += "    addi r1, r1, 8\n";
            s += "    addi r2, r2, 8\n";
            s += "rec:\n";
            s += "    fld  R4, 0(r2)\n";
            s += "    fmul R1, R1, R16\n";
            s += "    fadd R1, R1, R4\n";
            s += "    fst  R1, 0(r1)\n";
            s += "    addi r1, r1, 8\n";
            s += "    addi r2, r2, 8\n";
            s += "    blt  r1, r3, rec\n";
        }
        Template::Division => {
            s += "div:\n";
            s += "    fld  R0, 0(r1)\n";
            s += "    fld  R1, 0(r2)\n";
            s += "    fdiv R2, R0, R1, R48, R49\n";
            s += "    fst  R2, 0(r1)\n";
            s += "    addi r1, r1, 8\n";
            s += "    addi r2, r2, 8\n";
            s += "    blt  r1, r3, div\n";
        }
    }
    s += "    addi r5, r5, 1\n";
    s += "    blt  r5, r6, pass\n";
    if shape.template == Template::Reduction {
        s += "    fadd R34..R37, R8..R11, R12..R15\n";
        s += "    fadd R38..R39, R34..R35, R36..R37\n";
        s += "    fadd R34, R38, R39\n";
        s += "    fst  R34, 0(r2)\n";
    }
    s += "    halt\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    use mt_lint::{LintOptions, Severity};
    use mt_sim::{Backend, Machine, SimConfig};

    /// Simulated cycles of each shape, the way mt-serve runs a job
    /// (translated backend, warmed text).
    fn shape_cycles() -> HashMap<Shape, u64> {
        all_shapes()
            .into_iter()
            .map(|shape| {
                let source = render(shape, [1.5, 0.25, 2.0, 0.125, 0.75]);
                (shape, simulate(&source))
            })
            .collect()
    }

    fn simulate(source: &str) -> u64 {
        let program = mt_asm::parse(source, 0x1_0000).expect("assembles");
        let mut m = Machine::new(SimConfig {
            backend: Backend::Xlate,
            ..SimConfig::default()
        });
        m.load_program(&program);
        m.warm_instructions(&program);
        m.run().expect("halts").cycles
    }

    fn lint_errors(source: &str) -> usize {
        let (program, map) = mt_asm::parse_with_source_map(source, 0x1_0000).expect("assembles");
        let opts = LintOptions {
            allow_recurrence: map.allowed_indices("recurrence"),
            ..LintOptions::default()
        };
        mt_lint::lint_program_with(&program, &opts)
            .iter()
            .filter(|f| f.severity() == Severity::Error)
            .count()
    }

    #[test]
    fn every_shape_halts_inside_the_cycle_band() {
        let cycles = shape_cycles();
        for (shape, c) in &cycles {
            assert!(
                (50_000..=300_000).contains(c),
                "{shape:?} runs {c} cycles, outside 50k–300k"
            );
        }
        for template in TEMPLATES {
            let shapes: Vec<&Shape> = cycles.keys().filter(|s| s.template == template).collect();
            assert!(
                shapes.iter().any(|s| !s.streams()),
                "{template:?} has a fitting shape"
            );
        }
        assert!(cycles.keys().filter(|s| s.streams()).count() >= 6);
        assert!(
            cycles
                .keys()
                .all(|s| s.working_set_bytes() <= 48 * 1024 || s.working_set_bytes() > DCACHE_BYTES),
            "a shape either fits with room to spare or streams"
        );
    }

    /// Generates `n` programs of `seed` and checks each: a distinct cache
    /// key, assembly, no lint error, a shape from the table (so it halts
    /// inside the band), and — for a seeded sample — the shape's exact
    /// cycle count, since data values never change the timing.
    fn check_seed(seed: u64, n: u64, cycles: &HashMap<Shape, u64>) {
        let mut keys = HashSet::new();
        let mut rng = SplitMix64::new(seed);
        let mut lint_requests = 0;
        for index in 0..n {
            let p = program(seed, index);
            assert_eq!(p, program(seed, index), "generation is deterministic");
            let job = crate::servework::job_for(&p);
            assert!(keys.insert(job.key_material()), "duplicate key at {index}");
            assert_eq!(lint_errors(&p.source), 0, "program {index} fails lint");
            let want = cycles.get(&p.shape).expect("shape from the table");
            if rng.below(400) == 0 {
                assert_eq!(simulate(&p.source), *want, "program {index}");
            }
            lint_requests += u64::from(p.lint);
        }
        let quarter = n as f64 / 4.0;
        assert!((lint_requests as f64 - quarter).abs() < quarter * 0.1);
    }

    #[test]
    fn twenty_thousand_programs_of_one_seed_are_distinct_and_valid() {
        check_seed(1, 20_000, &shape_cycles());
    }

    #[test]
    fn a_held_out_seed_meets_the_same_properties() {
        check_seed(0xC0FFEE, 20_000, &shape_cycles());
    }

    #[test]
    fn data_stays_clear_of_the_text() {
        for shape in all_shapes() {
            let program = mt_asm::parse(&render(shape, [1.0; 5]), 0x1_0000).expect("assembles");
            let text_end = program.base + 4 * program.words.len() as u32;
            assert!(text_end <= PARAM_BASE, "{shape:?}");
            let data_end = ARRAY_BASE + shape.working_set_bytes() + 8;
            let memory = mt_sim::MachineConfig::default().mem.memory_bytes as u32;
            assert!(data_end <= memory, "{shape:?}");
        }
    }

    #[test]
    fn hot_programs_carry_the_same_work_for_every_seed() {
        let mix = |seed| {
            let programs: Vec<GenProgram> = (0..16).map(|k| hot_program(seed, k)).collect();
            let keys: HashSet<String> = programs
                .iter()
                .map(|p| crate::servework::job_for(p).key_material())
                .collect();
            assert_eq!(keys.len(), 16, "distinct programs");
            programs
                .iter()
                .map(|p| (p.shape, p.lint))
                .collect::<Vec<_>>()
        };
        assert_eq!(mix(1), mix(0xC0FFEE));
        assert_ne!(hot_program(1, 3).source, hot_program(2, 3).source);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..24).collect();
        let mut b = a.clone();
        shuffle(&mut SplitMix64::new(5), &mut a);
        shuffle(&mut SplitMix64::new(5), &mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<_>>());
        shuffle(&mut SplitMix64::new(6), &mut b);
        assert_ne!(a, b);
    }
}

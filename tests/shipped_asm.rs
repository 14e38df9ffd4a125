//! The shipped assembly examples under `examples/asm/` must assemble, run,
//! and produce their documented results.

use multititan::asm::parse;
use multititan::sim::{Machine, SimConfig};

fn run(path: &str) -> Machine {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let program = parse(&src, 0x1_0000).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut m = Machine::new(SimConfig::default());
    m.load_program(&program);
    m.warm_instructions(&program);
    m.run().unwrap_or_else(|e| panic!("{path}: {e}"));
    m
}

#[test]
fn fibonacci_s() {
    let m = run("examples/asm/fibonacci.s");
    assert_eq!(m.mem.memory.read_f64(0x2010), 2584.0); // Fib(17)
}

#[test]
fn daxpy_s() {
    let m = run("examples/asm/daxpy.s");
    for i in 0..16u32 {
        assert_eq!(
            m.mem.memory.read_f64(0x3000 + 8 * i),
            100.0 + 2.5 * i as f64,
            "y[{i}]"
        );
    }
}

#[test]
fn dotprod_s() {
    let m = run("examples/asm/dotprod.s");
    let want: f64 = (1..=8).map(|k| (k * (9 - k)) as f64).sum();
    assert_eq!(m.mem.memory.read_f64(0x2200), want);
}

#[test]
fn stream_s() {
    let m = run("examples/asm/stream.s");
    for i in 0..160u32 {
        assert_eq!(
            m.mem.memory.read_f64(0x3_0000 + 8 * i),
            100.0 + 2.5 * i as f64,
            "y[{i}]"
        );
    }
    // The example exists to put the loop-iteration memo on the CI's
    // tick-vs-xlate smoke: its strips record, replay, and roll back at
    // the data-dependent exit.
    let memo = m.memo_counts();
    assert!(
        memo.recorded > 0 && memo.replayed >= 10 && memo.rolled_back > 0,
        "{memo:?}"
    );
}

#[test]
fn reduce_s() {
    let m = run("examples/asm/reduce.s");
    // Eight passes over x[i] = i + 1, i < 128.
    assert_eq!(m.mem.memory.read_f64(0x2_0800), 8.0 * 128.0 * 129.0 / 2.0);
    // The example puts loop heads with writes in flight and a vector
    // still issuing on the CI's tick-vs-xlate smoke: the memo replays
    // its strips from them.
    let memo = m.memo_counts();
    assert!(memo.replayed > 0, "{memo:?}");
}

#[test]
fn selfmod_s() {
    let m = run("examples/asm/selfmod.s");
    // 29 trips before the patch, the 30th, then ten of the patched word.
    assert_eq!(m.mem.memory.read_u32(0x2_0000), 30 + 10 * 100);
    // The example puts a text write inside a replayed loop on the CI's
    // tick-vs-xlate smoke: the memo replays the trips before the patch.
    let memo = m.memo_counts();
    assert!(memo.replayed > 0, "{memo:?}");
}

#[test]
fn every_shipped_program_assembles() {
    for entry in std::fs::read_dir("examples/asm").unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) == Some("s") {
            let src = std::fs::read_to_string(&path).unwrap();
            parse(&src, 0x1_0000).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        }
    }
}

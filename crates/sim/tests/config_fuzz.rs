//! Fuzz `MachineConfig::parse`, the `?config=` text of `POST /run` and
//! `mtasm --config`: any text parses to a valid machine or a structured
//! error, never a panic, and every machine it accepts builds and runs.
//!
//! Specs are comma lists over every `KNOB_NAMES` entry plus unknown
//! names, stray `=`, `,` and whitespace. Values are in range, at a
//! bound, just past one, `u64::MAX`, or not a number.

use mt_isa::{FReg, IReg, Instr};
use mt_sim::{Backend, Machine, MachineConfig, Program, SimConfig, KNOB_NAMES};
use proptest::prelude::*;

/// The lowest and highest value `knob` takes on a valid machine. Cache
/// sizes, lines and ways must also agree with each other, so their
/// bounds are only the extremes one of them can reach.
fn bounds(knob: &str) -> (u64, u64) {
    match knob {
        "fpu_lanes" | "max_vector_len" => (1, 16),
        "int_load_delay_cycles" | "branch_penalty" => (0, 64),
        "num_fpu_regs" => (1, 52),
        "memory_bytes" => (64 << 10, 1 << 30),
        k if k.ends_with("_bytes") => (4, 16 << 20),
        k if k.ends_with("_line") => (4, 1 << 16),
        k if k.ends_with("_ways") => (1, 64),
        k if k.ends_with("_miss") => (0, 10_000),
        _ => (1, 64),
    }
}

/// A value inside `knob`'s range, picked by `raw`: cache geometry as
/// powers of two, `memory_bytes` as a multiple of 4.
fn in_range(knob: &str, raw: u64) -> u64 {
    let (lo, hi) = bounds(knob);
    let power_of_two = |lo: u64, hi: u64| {
        let (a, b) = (lo.trailing_zeros() as u64, hi.trailing_zeros() as u64);
        1 << (a + raw % (b - a + 1))
    };
    match knob {
        "memory_bytes" => lo + 4 * (raw % ((hi - lo) / 4 + 1)),
        k if k.ends_with("_bytes") => power_of_two(256, 1 << 16),
        k if k.ends_with("_line") || k.ends_with("_ways") => power_of_two(lo, 16),
        _ => lo + raw % (hi - lo + 1),
    }
}

/// Tokens that are not a `u64`.
const GARBAGE: [&str; 7] = [
    "",
    "-1",
    "0x10",
    "1e3",
    "x",
    "18446744073709551616",
    "\u{967}",
];

/// One value token for `knob`.
fn value(knob: &str, pick: u32, raw: u64) -> String {
    let (lo, hi) = bounds(knob);
    match pick {
        0..=59 => in_range(knob, raw).to_string(),
        60..=79 => [lo, hi][(raw % 2) as usize].to_string(),
        80..=84 => [lo.wrapping_sub(1), hi + 1][(raw % 2) as usize].to_string(),
        85..=89 => u64::MAX.to_string(),
        _ => GARBAGE[(raw % 7) as usize].to_string(),
    }
}

/// Whitespace `parse` should trim.
const SPACE: [&str; 4] = ["", " ", "\t", "  "];

/// One comma-separated entry: usually `knob=value` with optional
/// whitespace, `memory_bytes` more often than the other knobs, sometimes
/// an unknown name or a stray `=`.
fn entry() -> impl Strategy<Value = String> {
    let memory = KNOB_NAMES
        .iter()
        .position(|&k| k == "memory_bytes")
        .unwrap();
    let knob = (
        prop_oneof![3 => 0..KNOB_NAMES.len(), 1 => Just(memory)],
        0u32..100,
        any::<u64>(),
        0usize..4,
    )
        .prop_map(|(k, pick, raw, space)| {
            let name = KNOB_NAMES[k];
            let ws = SPACE[space];
            format!("{ws}{name}{ws}={ws}{}{ws}", value(name, pick, raw))
        });
    let stray = (0usize..9).prop_map(|i| {
        [
            "=",
            "==",
            "fpu_latency==3",
            "fpu_latency",
            "=3",
            " ",
            "bogus=1",
            "FPU_LATENCY=3",
            "fpu_latency =3=4",
        ][i]
            .to_string()
    });
    prop_oneof![
        24 => knob,
        2 => stray,
        1 => "[ -~]{0,12}",
    ]
}

/// Stores to the last doubleword of `memory_bytes`, text at 0 so it fits
/// the smallest machine: `fst f0` zeroes it, then `sw` sets its upper
/// word.
fn store_to_the_top(memory_bytes: usize) -> (Program, u32) {
    let top = ((memory_bytes - 8) & !7) as u32;
    let r = IReg::new;
    let instrs = [
        Instr::Lui {
            rd: r(1),
            imm: top >> 14,
        },
        Instr::Addi {
            rd: r(1),
            rs1: r(1),
            imm: (top & 0x3FFF) as i32,
        },
        Instr::Addi {
            rd: r(2),
            rs1: r(0),
            imm: 0x1234,
        },
        Instr::Fst {
            fr: FReg::new(0),
            base: r(1),
            offset: 0,
        },
        Instr::Sw {
            rs: r(2),
            base: r(1),
            offset: 4,
        },
        Instr::Halt,
    ];
    (Program::assemble_at(&instrs, 0).unwrap(), top)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn parse_never_panics_and_every_accepted_machine_runs(
        entries in prop::collection::vec(entry(), 0..8),
        trailing_comma in any::<bool>(),
    ) {
        let mut spec = entries.join(",");
        if trailing_comma {
            spec.push(',');
        }
        let Ok(machine) = MachineConfig::parse(&spec) else {
            return Ok(());
        };
        prop_assert!(machine.validate().is_ok(), "{:?}", spec);
        prop_assert_eq!(MachineConfig::parse(&machine.key_material()), Ok(machine));
        let (program, top) = store_to_the_top(machine.mem.memory_bytes);
        prop_assert!(machine.validate_program(&program).is_ok(), "{:?}", spec);
        let mut runs = Vec::new();
        for backend in [Backend::Tick, Backend::Xlate] {
            let mut m = Machine::new(SimConfig {
                machine,
                backend,
                ..SimConfig::default()
            });
            m.load_program(&program);
            let stats = m.run();
            prop_assert!(stats.is_ok(), "{:?} on {:?}: {:?}", spec, backend, stats);
            prop_assert_eq!(m.mem.memory.read_u64(top), 0x1234 << 32, "{:?}", spec);
            prop_assert_eq!(m.mem.memory.high_water(), top as usize + 8);
            runs.push(stats.unwrap());
        }
        prop_assert_eq!(&runs[0], &runs[1], "{:?}", spec);
    }
}

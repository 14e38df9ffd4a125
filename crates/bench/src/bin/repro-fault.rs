//! Runs the deterministic fault-injection campaign over the standard
//! kernel set and reports the outcome taxonomy (masked / detected /
//! SDC / crash / hang).
//!
//! The campaign is a pure function of the seed: the same
//! `--seed`/`--injections` pair reproduces the same plan, the same
//! per-injection classifications, and (with `--json`) a byte-identical
//! `mt-bench-v1` document (CI commits it as `BENCH_fault.json`).
//!
//! Usage: `cargo run --release -p mt-bench --bin repro-fault --
//! [--seed 0xA5] [--injections 500] [--json]`

use mt_bench::fault::{run_kernel_campaign, standard_fault_kernels};
use mt_fault::{parse_u64, CampaignConfig, OutcomeCounts};

fn usage() -> ! {
    eprintln!("usage: repro-fault [--seed N|0xN] [--injections N] [--json]");
    std::process::exit(2);
}

fn main() {
    let mut cfg = CampaignConfig::default();
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--seed" => match args.next().as_deref().and_then(parse_u64) {
                Some(seed) => cfg.seed = seed,
                None => usage(),
            },
            "--injections" => match args.next().as_deref().and_then(parse_u64) {
                Some(n) => cfg.injections = n as usize,
                None => usage(),
            },
            _ => usage(),
        }
    }

    let kernels = standard_fault_kernels();
    let result = match run_kernel_campaign(&kernels, &cfg) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("fault campaign failed: {e}");
            std::process::exit(1);
        }
    };

    if json {
        println!("{}", result.to_json().pretty());
        return;
    }

    println!(
        "Fault campaign — seed {:#x}, {} injections over {} kernels",
        result.seed,
        result.counts.total(),
        kernels.len()
    );
    println!();
    let line = |name: &str, c: &OutcomeCounts| {
        println!(
            "  {name:<28} masked {:>4}  detected {:>3}  sdc {:>3}  crash {:>3}  hang {:>3}",
            c.masked, c.detected, c.sdc, c.crash, c.hang
        );
    };
    for (name, counts) in &result.per_workload {
        line(name, counts);
    }
    println!();
    line("total", &result.counts);
    println!();
    println!("{}", result.metrics.render());
}

//! The `mtasm` binary's command line: `--seed` and `--injections` read
//! decimal, or hex after `0x` or `0X`, as `repro-fault` reads them.

use std::process::Command;

fn fault(seed: &str) -> std::process::Output {
    let daxpy = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/asm/daxpy.s");
    Command::new(env!("CARGO_BIN_EXE_mtasm"))
        .args(["fault", daxpy, "--seed", seed, "--injections", "0x2"])
        .output()
        .expect("mtasm runs")
}

#[test]
fn fault_seed_reads_either_hex_prefix() {
    let upper = fault("0XA5");
    let lower = fault("0xa5");
    let stderr = String::from_utf8_lossy(&upper.stderr);
    assert!(upper.status.success(), "mtasm fault --seed 0XA5: {stderr}");
    assert!(lower.status.success());
    assert_eq!(upper.stdout, lower.stdout);
    let stdout = String::from_utf8_lossy(&upper.stdout);
    assert!(stdout.contains("seed 0xa5, 2 injections"), "{stdout}");
}

//! The `mtasm` binary's command line: `--seed` and `--injections` read
//! decimal, or hex after `0x` or `0X`, as `repro-fault` reads them;
//! `--base` and `mtasm dis` read hex after at most one `0x` or `0X`.

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

#[test]
fn base_and_dis_read_hex_after_one_prefix_of_either_case() {
    let mtasm = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_mtasm"))
            .args(args)
            .output()
            .expect("mtasm runs");
        (out.status.code(), out.stdout)
    };
    let daxpy = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/asm/daxpy.s");
    let upper = mtasm(&["asm", daxpy, "--base", "0X10000"]);
    assert_eq!(upper.0, Some(0));
    assert_eq!(upper, mtasm(&["asm", daxpy, "--base", "0x10000"]));
    assert_eq!(mtasm(&["asm", daxpy, "--base", "0x0x10000"]).0, Some(2));

    let words = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("dis_words.hex");
    std::fs::write(&words, "0X00000001\n").unwrap();
    let (code, stdout) = mtasm(&["dis", words.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    assert!(String::from_utf8_lossy(&stdout).starts_with("0x10000: "));
}

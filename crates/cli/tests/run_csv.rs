//! `ckptsim run --csv --quiet` is a pure function of the spec: two runs
//! of the same command print the same bytes.

use std::process::Command;

fn run_csv_quiet() -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_ckptsim"))
        .args([
            "run",
            "--processors",
            "4096",
            "--reps",
            "3",
            "--hours",
            "300",
            "--transient",
            "30",
            "--jobs",
            "2",
            "--csv",
            "--quiet",
        ])
        .output()
        .expect("run ckptsim");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn run_csv_quiet_prints_the_same_bytes_twice() {
    let first = run_csv_quiet();
    let second = run_csv_quiet();
    assert!(String::from_utf8_lossy(&first).starts_with("metric,mean,ci_half_width\n"));
    assert_eq!(
        String::from_utf8_lossy(&first),
        String::from_utf8_lossy(&second)
    );
}

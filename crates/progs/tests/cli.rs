//! `meek-progs` reports bad input as errors with the exit-code rule the
//! MEEK command lines share (0 success, 1 failed run, 2 usage error),
//! never as a panic.

use std::process::{Command, Output};

fn progs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_meek-progs")).args(args).output().expect("meek-progs runs")
}

fn source(name: &str, text: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("meek-progs-cli-{}-{name}.s", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

fn assert_error(out: &Output, code: i32) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(code), "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    stderr
}

#[test]
fn a_program_that_runs_off_its_code_is_an_error() {
    let path = source("off", "lui a0, -1\n");
    for system in [false, true] {
        let mut args = vec!["run", path.to_str().unwrap()];
        args.extend(system.then_some("--system"));
        let stderr = assert_error(&progs(&args), 1);
        assert!(stderr.contains("program trapped: illegal instruction"), "{stderr}");
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn data_that_overflows_the_window_is_an_error() {
    let path = source("big", "_start:\n    li a7, 93\n    ecall\n.data\n    .zero 70000\n");
    let stderr = assert_error(&progs(&["run", path.to_str().unwrap()]), 1);
    assert!(stderr.contains("overflow the 65536-byte window"), "{stderr}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn unknown_commands_and_options_are_usage_errors() {
    assert_error(&progs(&["bogus"]), 2);
    assert_error(&progs(&["run", "memcpy", "--no-such-flag"]), 2);
    assert_eq!(progs(&["--help"]).status.code(), Some(0));
}

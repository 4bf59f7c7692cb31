//! The `dreamcoder` binary refuses a command line it cannot read in full
//! (a numeric flag it cannot parse, an unknown token, a value flag with
//! no value) instead of running with defaults, and a run it does read
//! explains each task's search.

use std::process::{Command, Output};

/// Run the binary on `command`, split at spaces.
fn dreamcoder(command: &str) -> Output {
    // A run that wrongly went ahead would write its telemetry into the
    // working directory, so keep that out of the repository.
    Command::new(env!("CARGO_BIN_EXE_dreamcoder"))
        .args(command.split(' '))
        .current_dir(std::env::temp_dir())
        .output()
        .expect("the binary starts")
}

/// Each command must exit 1 with a message containing its string.
fn assert_refused(cases: &[(&str, &str)]) {
    for &(message, command) in cases {
        let output = dreamcoder(command);
        assert_eq!(output.status.code(), Some(1), "{command:?} was not refused");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(message), "{command:?}: {stderr}");
    }
}

#[test]
fn unparsable_numeric_flags_are_errors() {
    assert_refused(&[
        ("--cycles must be a number", "run --domain list --cycles 1x"),
        (
            "--test-nats must be a number",
            "run --domain list --test-nats 1.2.3",
        ),
        (
            "--wake-nats must be a number",
            "solve --domain list --task head --wake-nats 9x",
        ),
    ]);
}

#[test]
fn unknown_arguments_are_errors() {
    assert_refused(&[
        (
            "unknown argument \"--bogus-flag\"",
            "run --domain list --cycles 0 --bogus-flag 7 --cycle 1",
        ),
        (
            "unknown argument \"--cycle\"",
            "run --domain list --cycles 0 --cycle 1",
        ),
        (
            "unknown argument \"--resume\"",
            "solve --domain list --task head --resume",
        ),
        (
            "unknown argument \"stray\"",
            "run --domain list --cycles 0 stray",
        ),
    ]);
}

#[test]
fn value_flags_without_a_value_are_errors() {
    assert_refused(&[
        (
            "--events needs a value",
            "run --domain list --cycles 0 --events",
        ),
        (
            "--summary-out needs a value",
            "run --domain list --summary-out --cycles 0",
        ),
        (
            "--wake-nats needs a value",
            "solve --domain list --task head --wake-nats",
        ),
    ]);
}

#[test]
fn a_run_prints_its_search_forensics() {
    // A run writes `results/telemetry.json` into its working directory.
    let dir = std::env::temp_dir().join(format!("dc-cli-forensics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_dreamcoder"))
        .args(
            "run --domain list --cycles 1 --condition enumeration \
             --wake-nats 6 --test-nats 6 --minibatch 3"
                .split_whitespace(),
        )
        .current_dir(&dir)
        .output()
        .expect("the binary starts");
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let header = stdout
        .lines()
        .find(|line| line.starts_with("task "))
        .unwrap_or_else(|| panic!("no forensics table in {stdout}"));
    for column in ["outcome", "nats", "enum", "typed-out", "best logP"] {
        assert!(header.contains(column), "{header}");
    }
}

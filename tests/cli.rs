//! The `dreamcoder` binary refuses a command line it cannot read in full
//! (a numeric flag it cannot parse, an unknown token, a value flag with
//! no value, a domain it does not know) instead of running with
//! defaults, lists its domains, and a run it does read explains each
//! task's search.

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

#[test]
fn domains_lists_every_domain_with_its_corpus() {
    let output = dreamcoder("domains");
    assert!(output.status.success(), "{output:?}");
    assert_eq!(
        String::from_utf8_lossy(&output.stdout),
        "available domains:
  list      46 train / 23 test tasks, 23 primitives
  text      20 train / 10 test tasks, 38 primitives
  logo       8 train /  8 test tasks, 23 primitives
  tower      7 train /  7 test tasks, 12 primitives
  regex     10 train /  5 test tasks, 18 primitives
  symreg    12 train /  6 test tasks, 8 primitives
  physics   60 train /  0 test tasks, 15 primitives
  origami   20 train /  0 test tasks, 13 primitives
"
    );
}

#[test]
fn unknown_domains_are_errors() {
    assert_refused(&[
        ("unknown domain \"nope\"", "run --domain nope"),
        ("unknown domain \"nope\"", "solve --domain nope --task head"),
    ]);
}

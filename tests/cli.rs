//! The `dreamcoder` binary refuses a numeric flag it cannot parse instead
//! of running with the flag's default.

use std::process::Command;

#[test]
fn unparsable_numeric_flags_are_errors() {
    for (flag, command) in [
        ("--cycles", "run --domain list --cycles 1x"),
        ("--test-nats", "run --domain list --test-nats 1.2.3"),
        (
            "--wake-nats",
            "solve --domain list --task head --wake-nats 9x",
        ),
    ] {
        let args: Vec<&str> = command.split(' ').collect();
        // A run that wrongly went ahead would write its telemetry into
        // the working directory, so keep that out of the repository.
        let output = Command::new(env!("CARGO_BIN_EXE_dreamcoder"))
            .args(&args)
            .current_dir(std::env::temp_dir())
            .output()
            .expect("the binary starts");
        assert!(!output.status.success(), "{args:?} succeeded");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("{flag} must be a number")),
            "{args:?}: {stderr}"
        );
    }
}

//! # dc-bench
//!
//! The binaries that regenerate the tables and figures of the DreamCoder
//! paper (see DESIGN.md's experiment index), one per figure
//! (`cargo run --release -p dc-bench --bin fig7_accuracy`). The claims
//! that reproduce at this scale (Figs 2, 6 and 11B and the inverse-β
//! ablation) are assertions in `tests/claims.rs` instead, whose budgets
//! are nats and counts rather than wall clock. Performance is
//! measured by the repository benchmark in `dcbench/` (see
//! `BENCHMARK.json`), which reports end-to-end and per-layer figures.
//!
//! Budgets are laptop-scale: this reproduction runs on a single CPU where
//! the paper used 20–128, so absolute numbers are smaller while the
//! qualitative shape (who wins, by roughly what factor) is preserved.
//! Results are also dumped as JSON under `results/`.

#![warn(missing_docs)]

use std::path::PathBuf;
use std::time::Duration;

use dc_grammar::enumeration::EnumerationConfig;
use dc_vspace::CompressionConfig;
use dc_wakesleep::{Condition, DreamCoderConfig, RecognitionConfig};

/// Scale factor for benchmark budgets, settable via `DC_BENCH_SCALE`
/// (default 1.0). `DC_BENCH_SCALE=4 cargo run ...` runs 4× longer
/// searches for higher-fidelity reproductions.
pub fn scale() -> f64 {
    std::env::var("DC_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// A laptop-scale configuration for figure benchmarks. Also switches the
/// telemetry subsystem on, so every figure binary's `write_report` call
/// drops a `results/telemetry.json` beside its JSON report.
pub fn bench_config(condition: Condition, seed: u64) -> DreamCoderConfig {
    dc_telemetry::enable();
    let s = scale();
    DreamCoderConfig {
        condition,
        cycles: 3,
        minibatch: 12,
        compression_beam: 2,
        enumeration: EnumerationConfig {
            timeout: Some(Duration::from_millis((700.0 * s) as u64)),
            ..EnumerationConfig::default()
        },
        test_enumeration: EnumerationConfig {
            timeout: Some(Duration::from_millis((300.0 * s) as u64)),
            ..EnumerationConfig::default()
        },
        compression: CompressionConfig {
            refactor_steps: 2,
            top_candidates: 25,
            structure_penalty: 0.75,
            max_inventions: 3,
            ..CompressionConfig::default()
        },
        recognition: RecognitionConfig {
            fantasies: 60,
            epochs: 40,
            hidden_dim: 48,
            ..RecognitionConfig::default()
        },
        seed,
        ..DreamCoderConfig::default()
    }
}

/// Write a JSON report under `results/<name>.json` (best effort).
pub fn write_report<T: serde::Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from("results");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if std::fs::write(&path, json).is_ok() {
                println!("[report written to {}]", path.display());
            }
        }
        Err(e) => eprintln!("could not serialize report: {e}"),
    }
    // Drop the metrics captured while producing this report next to it.
    if dc_telemetry::is_enabled() {
        let tpath = dir.join("telemetry.json");
        if dc_telemetry::export_to_file(&tpath).is_ok() {
            println!("[telemetry written to {}]", tpath.display());
        }
    }
}

/// Pearson correlation coefficient (used for the Fig 7C "r = 0.79" style
/// depth-vs-performance statistic).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx * vy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_known_values() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0], &[1.0]), 0.0);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn bench_config_respects_condition() {
        let c = bench_config(Condition::NoRecognition, 0);
        assert!(!c.condition.uses_recognition());
        assert!(c.enumeration.timeout.is_some());
    }
}

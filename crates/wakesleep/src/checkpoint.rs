//! Crash-safe checkpointing of a wake-sleep run (DESIGN.md §8).
//!
//! At the end of every cycle the driver can serialize a [`Checkpoint`] —
//! the grammar, all stored frontiers (as surface syntax), the recognition
//! model's weights and optimizer moments, how many words the seeded RNG
//! has drawn, and the metrics accumulated so far — and write it
//! atomically (temp file + `fsync` + rename) into a checkpoint directory.
//! [`crate::DreamCoder::resume`] restores the run mid-trajectory,
//! bit-identical to an uninterrupted one.
//! Each fact is stored once: the RNG is the seed plus a word position,
//! the inventions are the grammar's, and the cycle count is the number of
//! per-cycle stats.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use dc_grammar::persist::{SavedFrontier, SavedGrammar};
use dc_recognition::Mlp;
use serde::{Deserialize, Serialize};

use crate::run::CycleStats;

/// Version stamp written into every checkpoint. Bump on any change to
/// the serialized shape; loaders refuse other versions outright rather
/// than misinterpreting fields.
///
/// v2: `CycleStats` gained per-task `search_traces` forensics.
/// v3: the wall-clock solve times, per cycle and per trace, gave way to
/// each trace's `programs_to_first_hit` and `first_hit_nats`.
/// v4: a trace's `outcome` can no longer be `Timeout`.
/// v5: the RNG is stored as `rng_word_pos`, its word position under
/// `seed`; `inventions` and `cycles_completed` went, since the grammar
/// and `stats` already say them.
/// v6: `recognition` is the network alone (layers of weights, biases and
/// Adam moments); the head comes from the condition, the prior bias from
/// `grammar`, the widths from the layers.
pub const CHECKPOINT_VERSION: u32 = 6;

/// One stored frontier, keyed by its train-task index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskFrontier {
    /// Index into the domain's `train_tasks()`.
    pub task: usize,
    /// The beam, in surface syntax.
    pub frontier: SavedFrontier,
}

/// Everything needed to restore a wake-sleep run mid-trajectory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Domain name, validated on resume.
    pub domain: String,
    /// Condition label, validated on resume.
    pub condition: String,
    /// The run's RNG seed, validated on resume.
    pub seed: u64,
    /// The generative model `(D, θ)`.
    pub grammar: SavedGrammar,
    /// All stored frontiers, sorted by task index.
    pub frontiers: Vec<TaskFrontier>,
    /// The recognition model's network (weights and Adam moments), when
    /// the condition trains one.
    pub recognition: Option<Mlp>,
    /// Words drawn from the seeded ChaCha8 stream by the end of the
    /// checkpointed cycle.
    pub rng_word_pos: u64,
    /// Per-cycle metrics accumulated so far, one per completed cycle.
    pub stats: Vec<CycleStats>,
}

/// The version stamp alone, read first so a file of another version is
/// refused as such rather than as corrupt.
#[derive(Deserialize)]
struct VersionStamp {
    version: u32,
}

/// Error writing, reading, or restoring a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is not valid checkpoint JSON.
    Corrupt(String),
    /// The file's format version is not supported.
    Version {
        /// Version found in the file.
        found: u32,
    },
    /// The checkpoint does not match the run being resumed (different
    /// domain, condition, or seed — or a task index out of range).
    Mismatch(String),
    /// The grammar or a frontier failed to reload.
    Grammar(dc_grammar::persist::LoadError),
    /// The recognition model's network does not fit the domain, the
    /// library or the condition's head.
    Recognition(dc_recognition::ModelLoadError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::Version { found } => write!(
                f,
                "unsupported checkpoint version {found} (supported: {CHECKPOINT_VERSION})"
            ),
            CheckpointError::Mismatch(msg) => write!(f, "checkpoint mismatch: {msg}"),
            CheckpointError::Grammar(e) => write!(f, "checkpoint grammar: {e}"),
            CheckpointError::Recognition(e) => write!(f, "checkpoint recognition model: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

/// `checkpoint-cycle-00042.json` — zero-padded so lexicographic order is
/// cycle order.
fn file_name(cycles_completed: usize) -> String {
    format!("checkpoint-cycle-{cycles_completed:05}.json")
}

/// Parse the cycle count out of a checkpoint file name.
fn parse_cycle(name: &str) -> Option<usize> {
    name.strip_prefix("checkpoint-cycle-")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

impl Checkpoint {
    /// Cycles fully completed before this checkpoint was taken; resume
    /// continues at this cycle index.
    pub fn cycles_completed(&self) -> usize {
        self.stats.len()
    }

    /// Write this checkpoint into `dir` atomically: serialize to a
    /// temporary file in the same directory, `fsync`, then rename onto
    /// `checkpoint-cycle-NNNNN.json`. A crash at any point leaves either
    /// the previous checkpoint set or the complete new file — never a
    /// torn one. Returns the final path.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] on any filesystem failure.
    pub fn write_atomic(&self, dir: &Path) -> Result<PathBuf, CheckpointError> {
        let span = dc_telemetry::span("checkpoint.write_time");
        fs::create_dir_all(dir)?;
        let json = serde_json::to_string(self)
            .map_err(|e| CheckpointError::Corrupt(format!("serialize failed: {e}")))?;
        let final_path = dir.join(file_name(self.cycles_completed()));
        let tmp_path = dir.join(format!(".{}.tmp", file_name(self.cycles_completed())));
        {
            let mut tmp = fs::File::create(&tmp_path)?;
            tmp.write_all(json.as_bytes())?;
            tmp.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        dc_telemetry::add("checkpoint.bytes_written", json.len() as u64);
        dc_telemetry::incr("checkpoint.writes");
        dc_telemetry::event(
            dc_telemetry::Level::Info,
            "checkpoint.written",
            &[
                ("cycles_completed", self.cycles_completed().into()),
                ("bytes", json.len().into()),
                ("ms", (span.elapsed().as_millis() as u64).into()),
            ],
        );
        drop(span);
        Ok(final_path)
    }

    /// Read and validate a checkpoint file.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] / [`CheckpointError::Corrupt`] /
    /// [`CheckpointError::Version`].
    pub fn read(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let text = fs::read_to_string(path)?;
        let corrupt =
            |e: serde_json::Error| CheckpointError::Corrupt(format!("{}: {e}", path.display()));
        let VersionStamp { version } = serde_json::from_str(&text).map_err(corrupt)?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version { found: version });
        }
        serde_json::from_str(&text).map_err(corrupt)
    }
}

/// The checkpoints in `dir` as `(completed cycles, path)` pairs, oldest
/// first; a missing directory holds none. Files whose names do not parse
/// (a torn `.tmp` write, anything unrelated) are not checkpoints.
fn checkpoints(dir: &Path) -> Result<Vec<(usize, PathBuf)>, std::io::Error> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry?;
        if let Some(cycle) = entry.file_name().to_str().and_then(parse_cycle) {
            found.push((cycle, entry.path()));
        }
    }
    found.sort();
    Ok(found)
}

/// The newest checkpoint in `dir` (highest completed-cycle count), if any.
///
/// # Errors
/// Propagates directory-listing failures; a missing directory reads as
/// "no checkpoints".
pub fn latest_checkpoint(dir: &Path) -> Result<Option<PathBuf>, std::io::Error> {
    Ok(checkpoints(dir)?.pop().map(|(_, path)| path))
}

/// Delete all but the `keep` newest checkpoints in `dir`; returns the
/// paths removed. `keep == 0` is treated as 1 (never delete the only
/// recovery point).
///
/// # Errors
/// Propagates directory-listing and unlink failures.
pub fn prune_checkpoints(dir: &Path, keep: usize) -> Result<Vec<PathBuf>, std::io::Error> {
    let keep = keep.max(1);
    let found = checkpoints(dir)?;
    let excess = found.len().saturating_sub(keep);
    let mut removed = Vec::with_capacity(excess);
    for (_, path) in found.into_iter().take(excess) {
        fs::remove_file(&path)?;
        dc_telemetry::incr("checkpoint.pruned");
        removed.push(path);
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(cycles_completed: usize) -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            domain: "list".into(),
            condition: "DreamCoder".into(),
            seed: 7,
            grammar: SavedGrammar {
                primitives: vec!["+".into()],
                inventions: vec![],
                log_variable: -0.5,
                log_productions: vec![0.25],
            },
            frontiers: vec![],
            recognition: None,
            rng_word_pos: 0,
            stats: (0..cycles_completed)
                .map(|cycle| CycleStats {
                    cycle,
                    train_solved: 0,
                    test_solved: 0.0,
                    library_size: 1,
                    library_depth: 0,
                    new_inventions: vec![],
                    search_traces: vec![],
                })
                .collect(),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dc-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_read_round_trip_and_latest() {
        let dir = tmpdir("roundtrip");
        for c in 1..=3 {
            dummy(c).write_atomic(&dir).unwrap();
        }
        let latest = latest_checkpoint(&dir).unwrap().expect("some checkpoint");
        assert!(latest.ends_with("checkpoint-cycle-00003.json"));
        let back = Checkpoint::read(&latest).unwrap();
        assert_eq!(back.cycles_completed(), 3);
        assert_eq!(back.seed, 7);
        // No stray temp files survive a successful write.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pruning_keeps_newest() {
        let dir = tmpdir("prune");
        for c in 1..=5 {
            dummy(c).write_atomic(&dir).unwrap();
        }
        let removed = prune_checkpoints(&dir, 2).unwrap();
        assert_eq!(removed.len(), 3);
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 2);
        assert!(names.contains(&"checkpoint-cycle-00004.json".to_owned()));
        assert!(names.contains(&"checkpoint-cycle-00005.json".to_owned()));
        // keep == 0 still retains the newest recovery point.
        let removed = prune_checkpoints(&dir, 0).unwrap();
        assert_eq!(removed.len(), 1);
        assert!(latest_checkpoint(&dir).unwrap().is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_directory_scan_skips_what_is_not_a_checkpoint() {
        let dir = tmpdir("scan");
        assert_eq!(latest_checkpoint(&dir).unwrap(), None);
        assert!(prune_checkpoints(&dir, 1).unwrap().is_empty());
        for c in 1..=3 {
            dummy(c).write_atomic(&dir).unwrap();
        }
        let strays = [
            ".checkpoint-cycle-00009.json.tmp",
            "notes.txt",
            "checkpoint-cycle-xyz.json",
        ];
        for name in strays {
            fs::write(dir.join(name), "{ torn").unwrap();
        }
        let latest = latest_checkpoint(&dir).unwrap().expect("some checkpoint");
        assert!(latest.ends_with("checkpoint-cycle-00003.json"));
        let removed = prune_checkpoints(&dir, 1).unwrap();
        assert_eq!(removed.len(), 2);
        for name in strays {
            assert!(dir.join(name).exists(), "{name} was pruned");
        }
        assert_eq!(latest_checkpoint(&dir).unwrap(), Some(latest));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_and_corruption_are_rejected() {
        let dir = tmpdir("badfiles");
        let mut bad = dummy(1);
        bad.version = 999;
        let path = bad.write_atomic(&dir).unwrap();
        assert!(matches!(
            Checkpoint::read(&path),
            Err(CheckpointError::Version { found: 999 })
        ));
        // A version-4 file has another shape (`cycles_completed`, `rng`,
        // `inventions`): it is refused for its version, not as corrupt.
        let v4 = r#"{"version":4,"domain":"list","condition":"DreamCoder","seed":7,
            "cycles_completed":1,"rng":{"key":[],"counter":0,"block":[],"index":16},
            "inventions":[]}"#;
        fs::write(&path, v4).unwrap();
        assert!(matches!(
            Checkpoint::read(&path),
            Err(CheckpointError::Version { found: 4 })
        ));
        fs::write(&path, "{ not json").unwrap();
        assert!(matches!(
            Checkpoint::read(&path),
            Err(CheckpointError::Corrupt(_))
        ));
        assert!(matches!(
            Checkpoint::read(&dir.join("no-such-file.json")),
            Err(CheckpointError::Io(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}

//! Crash-safe checkpointing of a wake-sleep run (DESIGN.md §8).
//!
//! At the end of every cycle the driver can serialize a [`Checkpoint`] —
//! the grammar, all stored frontiers (as surface syntax), the recognition
//! model's weights and optimizer moments, the RNG state, and the metrics
//! accumulated so far — and write it atomically (temp file + `fsync` +
//! rename) into a checkpoint directory. [`crate::DreamCoder::resume`]
//! restores the run mid-trajectory; with wall-clock budgets disabled the
//! resumed run is bit-identical to an uninterrupted one.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use dc_grammar::persist::{SavedFrontier, SavedGrammar};
use dc_recognition::SavedRecognitionModel;
use serde::{Deserialize, Serialize};

use crate::run::CycleStats;

/// Version stamp written into every checkpoint. Bump on any change to
/// the serialized shape; loaders refuse other versions outright rather
/// than misinterpreting fields.
///
/// v2: `CycleStats` gained per-task `search_traces` forensics.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Serialized ChaCha8 generator state (see `rand_chacha::ChaCha8State`).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SavedRngState {
    /// Key words (8 entries).
    pub key: Vec<u32>,
    /// Block counter.
    pub counter: u64,
    /// Buffered keystream block (16 entries).
    pub block: Vec<u32>,
    /// Next unread word in `block`.
    pub index: usize,
}

impl SavedRngState {
    /// Snapshot a generator.
    pub fn capture(rng: &rand_chacha::ChaCha8Rng) -> SavedRngState {
        let s = rng.state();
        SavedRngState {
            key: s.key.to_vec(),
            counter: s.counter,
            block: s.block.to_vec(),
            index: s.index,
        }
    }

    /// Rebuild the generator this state was captured from.
    ///
    /// # Errors
    /// [`CheckpointError::Corrupt`] when the word vectors have the wrong
    /// lengths (a mangled or hand-edited checkpoint).
    pub fn restore(&self) -> Result<rand_chacha::ChaCha8Rng, CheckpointError> {
        let key: [u32; 8] = self.key.as_slice().try_into().map_err(|_| {
            CheckpointError::Corrupt(format!("rng key has {} words", self.key.len()))
        })?;
        let block: [u32; 16] = self.block.as_slice().try_into().map_err(|_| {
            CheckpointError::Corrupt(format!("rng block has {} words", self.block.len()))
        })?;
        Ok(rand_chacha::ChaCha8Rng::from_state(
            &rand_chacha::ChaCha8State {
                key,
                counter: self.counter,
                block,
                index: self.index,
            },
        ))
    }
}

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
    /// Cycles fully completed before this checkpoint was taken; resume
    /// continues at this cycle index.
    pub cycles_completed: usize,
    /// The generative model `(D, θ)`.
    pub grammar: SavedGrammar,
    /// All stored frontiers, sorted by task index.
    pub frontiers: Vec<TaskFrontier>,
    /// Recognition-model weights, when the condition trains one.
    pub recognition: Option<SavedRecognitionModel>,
    /// RNG state at the end of the checkpointed cycle.
    pub rng: SavedRngState,
    /// Per-cycle metrics accumulated so far.
    pub stats: Vec<CycleStats>,
    /// Invention names in discovery order.
    pub inventions: Vec<String>,
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
    /// The recognition model failed to reload.
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
        let final_path = dir.join(file_name(self.cycles_completed));
        let tmp_path = dir.join(format!(".{}.tmp", file_name(self.cycles_completed)));
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
                ("cycles_completed", self.cycles_completed.into()),
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
        let ckpt: Checkpoint = serde_json::from_str(&text)
            .map_err(|e| CheckpointError::Corrupt(format!("{}: {e}", path.display())))?;
        if ckpt.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version {
                found: ckpt.version,
            });
        }
        Ok(ckpt)
    }
}

/// The newest checkpoint in `dir` (highest completed-cycle count), if any.
///
/// # Errors
/// Propagates directory-listing failures; a missing directory reads as
/// "no checkpoints".
pub fn latest_checkpoint(dir: &Path) -> Result<Option<PathBuf>, std::io::Error> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut best: Option<(usize, PathBuf)> = None;
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(cycle) = name.to_str().and_then(parse_cycle) else {
            continue;
        };
        if best.as_ref().is_none_or(|(c, _)| cycle > *c) {
            best = Some((cycle, entry.path()));
        }
    }
    Ok(best.map(|(_, p)| p))
}

/// Delete all but the `keep` newest checkpoints in `dir`; returns the
/// paths removed. `keep == 0` is treated as 1 (never delete the only
/// recovery point).
///
/// # Errors
/// Propagates directory-listing and unlink failures.
pub fn prune_checkpoints(dir: &Path, keep: usize) -> Result<Vec<PathBuf>, std::io::Error> {
    let keep = keep.max(1);
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut found: Vec<(usize, PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(cycle) = name.to_str().and_then(parse_cycle) {
            found.push((cycle, entry.path()));
        }
    }
    found.sort_by_key(|(c, _)| *c);
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
    use rand::{RngCore, SeedableRng};

    fn dummy(cycles_completed: usize) -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            domain: "list".into(),
            condition: "DreamCoder".into(),
            seed: 7,
            cycles_completed,
            grammar: SavedGrammar {
                primitives: vec!["+".into()],
                inventions: vec![],
                log_variable: -0.5,
                log_productions: vec![0.25],
            },
            frontiers: vec![],
            recognition: None,
            rng: SavedRngState::capture(&rand_chacha::ChaCha8Rng::seed_from_u64(7)),
            stats: vec![],
            inventions: vec![],
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
        assert_eq!(back.cycles_completed, 3);
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
    fn version_and_corruption_are_rejected() {
        let dir = tmpdir("badfiles");
        let mut bad = dummy(1);
        bad.version = 999;
        let path = bad.write_atomic(&dir).unwrap();
        assert!(matches!(
            Checkpoint::read(&path),
            Err(CheckpointError::Version { found: 999 })
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

    #[test]
    fn rng_state_round_trips_through_json() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
        for _ in 0..7 {
            rng.next_u32();
        }
        let saved = SavedRngState::capture(&rng);
        let json = serde_json::to_string(&saved).unwrap();
        let back: SavedRngState = serde_json::from_str(&json).unwrap();
        let mut restored = back.restore().unwrap();
        let a: Vec<u64> = (0..32).map(|_| rng.next_u64()).collect();
        let b: Vec<u64> = (0..32).map(|_| restored.next_u64()).collect();
        assert_eq!(a, b);
        // Wrong-length vectors are rejected, not misread.
        let mangled = SavedRngState {
            key: vec![0; 3],
            ..saved
        };
        assert!(matches!(
            mangled.restore(),
            Err(CheckpointError::Corrupt(_))
        ));
    }
}

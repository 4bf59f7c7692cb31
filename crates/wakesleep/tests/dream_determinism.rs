//! Thread-count invariance of dream sleep (DESIGN.md §9): a seeded run
//! must produce bit-identical fantasies, losses, and summaries whether it
//! dreams on one thread or many — and a checkpoint written by a
//! multi-threaded run must resume identically on any thread count.

use std::path::PathBuf;
use std::sync::Mutex;

use dc_grammar::enumeration::EnumerationConfig;
use dc_grammar::grammar::Grammar;
use dc_tasks::domain::Domain;
use dc_tasks::domains::list::ListDomain;
use dc_wakesleep::checkpoint::{latest_checkpoint, Checkpoint};
use dc_wakesleep::{generate_fantasies, Condition, DreamCoder, DreamCoderConfig};

/// Serializes tests that re-cap the process-global rayon thread limit.
static CAP_LOCK: Mutex<()> = Mutex::new(());

/// Wall clock removed from the loop, MAP fantasies bounded by nats so the
/// dream phase itself is deterministic (DESIGN.md §8).
fn dream_config(cycles: usize, seed: u64) -> DreamCoderConfig {
    DreamCoderConfig {
        condition: Condition::Full,
        cycles,
        minibatch: 5,
        enumeration: EnumerationConfig {
            timeout: None,
            max_budget: 8.0,
        },
        test_enumeration: EnumerationConfig {
            timeout: None,
            max_budget: 6.5,
        },
        compression: dc_vspace::CompressionConfig {
            refactor_steps: 1,
            top_candidates: 10,
            max_inventions: 1,
            ..dc_vspace::CompressionConfig::default()
        },
        recognition: dc_wakesleep::RecognitionConfig {
            fantasies: 4,
            epochs: 2,
            hidden_dim: 8,
            map_fantasies: true,
            map_fantasy_budget: Some(6.0),
        },
        seed,
        deterministic_timing: true,
        ..DreamCoderConfig::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dc-dream-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A printable fingerprint of a fantasy set: every float down to its bits.
fn fingerprint(examples: &[dc_recognition::TrainingExample]) -> Vec<String> {
    examples
        .iter()
        .map(|ex| {
            let feats: Vec<u64> = ex.features.iter().map(|f| f.to_bits()).collect();
            let progs: Vec<String> = ex
                .programs
                .iter()
                .map(|(e, w)| format!("{e}@{}", w.to_bits()))
                .collect();
            format!("{:?} | {:?} | {:?}", ex.request, feats, progs)
        })
        .collect()
}

#[test]
fn fantasy_sets_are_identical_at_any_thread_count() {
    let _guard = CAP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let domain = ListDomain::new(0);
    let lib = domain.initial_library();
    let grammar = Grammar::uniform(lib);
    let rcfg = dc_wakesleep::RecognitionConfig {
        fantasies: 8,
        map_fantasies: true,
        map_fantasy_budget: Some(6.0),
        ..dc_wakesleep::RecognitionConfig::default()
    };
    let stream_key = 0x5eed_cafe_f00d_u64;
    let single = rayon::with_max_threads(Some(1), || {
        generate_fantasies(&domain, &grammar, &rcfg, stream_key)
    });
    let many = rayon::with_max_threads(Some(4), || {
        generate_fantasies(&domain, &grammar, &rcfg, stream_key)
    });
    assert!(!single.is_empty(), "list domain should dream something");
    assert_eq!(
        fingerprint(&single),
        fingerprint(&many),
        "fantasy set depends on thread count"
    );
}

#[test]
fn seeded_full_runs_are_byte_identical_across_thread_counts() {
    let _guard = CAP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let run_with = |cap: Option<usize>| {
        rayon::with_max_threads(cap, || {
            let domain = ListDomain::new(0);
            let mut dc = DreamCoder::new(&domain, dream_config(2, 23));
            serde_json::to_string(&dc.run()).unwrap()
        })
    };
    let single = run_with(Some(1));
    let many = run_with(Some(4));
    assert_eq!(
        single, many,
        "summary JSON diverged between DC_THREADS=1 and 4"
    );
}

#[test]
fn checkpoint_from_a_parallel_dream_resumes_identically_on_one_thread() {
    let _guard = CAP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmpdir("xthread");
    // Reference: two cycles straight through, multi-threaded.
    let uninterrupted = rayon::with_max_threads(Some(4), || {
        let domain = ListDomain::new(0);
        let mut dc = DreamCoder::new(&domain, dream_config(2, 29));
        let summary = serde_json::to_string(&dc.run()).unwrap();
        // Also produce the mid-run checkpoint the resume will use:
        // cycle 1 with checkpointing on, same seed and threads.
        let mut cfg = dream_config(1, 29);
        cfg.checkpoint_dir = Some(dir.clone());
        let mut dc = DreamCoder::new(&domain, cfg);
        dc.run();
        summary
    });
    // Resume the parallel run's checkpoint on a single thread: the dream
    // substreams make the remaining trajectory identical anyway.
    let resumed = rayon::with_max_threads(Some(1), || {
        let path = latest_checkpoint(&dir).unwrap().expect("checkpoint");
        let ckpt = Checkpoint::read(&path).unwrap();
        assert_eq!(ckpt.cycles_completed, 1);
        let domain = ListDomain::new(0);
        let mut dc = DreamCoder::resume(&domain, dream_config(2, 29), &ckpt).expect("resume");
        serde_json::to_string(&dc.run()).unwrap()
    });
    assert_eq!(
        resumed, uninterrupted,
        "single-threaded resume diverged from the multi-threaded run"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

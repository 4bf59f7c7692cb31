//! End-to-end checkpoint/resume tests (DESIGN.md §8): a resumed run must
//! be indistinguishable — bit for bit — from one that never stopped.

use std::path::PathBuf;
use std::sync::Arc;

use dc_grammar::enumeration::EnumerationConfig;
use dc_lambda::expr::{Expr, Invented};
use dc_wakesleep::checkpoint::{latest_checkpoint, Checkpoint, CheckpointError};
use dc_wakesleep::{Condition, DreamCoder, DreamCoderConfig};

use dc_tasks::domain::Domain;
use dc_tasks::domains::list::ListDomain;

/// Small nats budgets and few fantasies, for a quick seeded run.
fn deterministic_config(condition: Condition, cycles: usize, seed: u64) -> DreamCoderConfig {
    DreamCoderConfig {
        condition,
        cycles,
        minibatch: 5,
        enumeration: EnumerationConfig {
            max_budget: 8.0,
            ..EnumerationConfig::default()
        },
        test_enumeration: EnumerationConfig {
            max_budget: 6.5,
            ..EnumerationConfig::default()
        },
        compression: dc_vspace::CompressionConfig {
            refactor_steps: 1,
            top_candidates: 10,
            max_inventions: 1,
            ..dc_vspace::CompressionConfig::default()
        },
        recognition: dc_wakesleep::RecognitionConfig {
            fantasies: 3,
            epochs: 2,
            hidden_dim: 8,
            ..dc_wakesleep::RecognitionConfig::default()
        },
        seed,
        ..DreamCoderConfig::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dc-resume-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn resume_after_interrupt_matches_uninterrupted_run() {
    let dir = tmpdir("interrupt");
    // Reference: three cycles straight through.
    let uninterrupted = {
        let domain = ListDomain::new(0);
        let mut dc = DreamCoder::new(&domain, deterministic_config(Condition::Full, 3, 11));
        serde_json::to_string(&dc.run()).unwrap()
    };
    // Interrupted: run one cycle with checkpointing on, "crash", then
    // resume from the newest checkpoint and finish the other two.
    {
        let domain = ListDomain::new(0);
        let mut cfg = deterministic_config(Condition::Full, 1, 11);
        cfg.checkpoint_dir = Some(dir.clone());
        let mut dc = DreamCoder::new(&domain, cfg);
        dc.run();
    }
    let resumed = {
        let path = latest_checkpoint(&dir)
            .unwrap()
            .expect("checkpoint written");
        let ckpt = Checkpoint::read(&path).unwrap();
        assert_eq!(ckpt.cycles_completed(), 1);
        let domain = ListDomain::new(0);
        let mut dc =
            DreamCoder::resume(&domain, deterministic_config(Condition::Full, 3, 11), &ckpt)
                .expect("resume");
        serde_json::to_string(&dc.run()).unwrap()
    };
    assert_eq!(
        resumed, uninterrupted,
        "resumed trajectory diverged from the uninterrupted one"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_survives_disk_round_trip_bit_for_bit() {
    // EC2 stores the unigram `L_post` head; every other recognition
    // condition the bigram `L_MAP` one.
    for (tag, condition) in [("full", Condition::Full), ("ec2", Condition::Ec2)] {
        let dir = tmpdir(&format!("bitexact-{tag}"));
        let domain = ListDomain::new(0);
        let mut dc = DreamCoder::new(&domain, deterministic_config(condition, 1, 5));
        dc.run();
        let ckpt = dc.checkpoint();
        assert!(!ckpt.frontiers.is_empty(), "should have solved something");
        assert!(
            ckpt.recognition.is_some(),
            "{condition:?} trains a recognition model"
        );
        let path = ckpt.write_atomic(&dir).unwrap();
        let back = Checkpoint::read(&path).unwrap();
        // Resuming from the file and immediately re-checkpointing must
        // reproduce the identical bytes: grammar θ, frontier scores,
        // recognition weights + Adam moments, and RNG state all survive.
        let resumed = DreamCoder::resume(&domain, deterministic_config(condition, 1, 5), &back)
            .expect("resume");
        let again = resumed.checkpoint();
        assert_eq!(
            serde_json::to_string(&ckpt).unwrap(),
            serde_json::to_string(&again).unwrap(),
            "checkpoint → disk → resume → checkpoint must be a fixed point ({condition:?})"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn nested_inventions_survive_a_checkpoint() {
    let domain = ListDomain::new(0);
    let prims = domain.primitives();
    let mut dc = DreamCoder::new(
        &domain,
        deterministic_config(Condition::NoRecognition, 1, 3),
    );
    // Splice a two-layer library into the snapshot: quad calls double.
    let mut ckpt = dc.checkpoint();
    let double_body = Expr::parse("(lambda (+ $0 $0))", prims).unwrap();
    let double = Invented::new("#(lambda (+ $0 $0))", double_body).unwrap();
    let quad_body = Expr::abstraction(Expr::application(
        Expr::Invented(Arc::clone(&double)),
        Expr::application(Expr::Invented(double), Expr::Index(0)),
    ));
    ckpt.grammar.inventions.push("(lambda (+ $0 $0))".into());
    ckpt.grammar.inventions.push(quad_body.to_string());
    ckpt.grammar.log_productions.push(-0.25);
    ckpt.grammar.log_productions.push(-1.5);

    dc = DreamCoder::resume(
        &domain,
        deterministic_config(Condition::NoRecognition, 1, 3),
        &ckpt,
    )
    .expect("resume with nested inventions");
    assert_eq!(dc.grammar.library.depth(), 2, "nesting must survive");
    let again = dc.checkpoint();
    assert_eq!(
        serde_json::to_string(&ckpt).unwrap(),
        serde_json::to_string(&again).unwrap()
    );
    // The summary's library is the grammar's inventions, in order.
    let library = dc.run().library;
    assert_eq!(
        library[..2],
        ["#(lambda (+ $0 $0))".to_owned(), format!("#{quad_body}")]
    );
}

#[test]
fn resume_rejects_mismatched_runs() {
    let domain = ListDomain::new(0);
    let dc = DreamCoder::new(&domain, deterministic_config(Condition::Full, 1, 5));
    let ckpt = dc.checkpoint();

    let wrong_seed = deterministic_config(Condition::Full, 1, 6);
    assert!(matches!(
        DreamCoder::resume(&domain, wrong_seed, &ckpt),
        Err(CheckpointError::Mismatch(_))
    ));

    let wrong_condition = deterministic_config(Condition::EnumerationOnly, 1, 5);
    assert!(matches!(
        DreamCoder::resume(&domain, wrong_condition, &ckpt),
        Err(CheckpointError::Mismatch(_))
    ));

    let mut wrong_version = ckpt.clone();
    wrong_version.version = 99;
    assert!(matches!(
        DreamCoder::resume(
            &domain,
            deterministic_config(Condition::Full, 1, 5),
            &wrong_version
        ),
        Err(CheckpointError::Version { found: 99 })
    ));

    // A recognition head other than the condition's: an EC2 checkpoint
    // holding the bigram `L_MAP` head, as EC2 runs once trained.
    let mut wrong_head = ckpt.clone();
    wrong_head.condition = Condition::Ec2.label().to_owned();
    assert!(matches!(
        DreamCoder::resume(
            &domain,
            deterministic_config(Condition::Ec2, 1, 5),
            &wrong_head
        ),
        Err(CheckpointError::Mismatch(_))
    ));

    let mut bad_task = ckpt.clone();
    bad_task
        .frontiers
        .push(dc_wakesleep::checkpoint::TaskFrontier {
            task: usize::MAX,
            frontier: dc_grammar::persist::SavedFrontier { entries: vec![] },
        });
    assert!(matches!(
        DreamCoder::resume(
            &domain,
            deterministic_config(Condition::Full, 1, 5),
            &bad_task
        ),
        Err(CheckpointError::Mismatch(_))
    ));
}

//! Deterministic fault-injection over the checkpoint rotation layer.
//!
//! The crash model: every file operation the rotation performs is counted
//! by [`ChaosIo`], and a [`FaultPlan`] kills (or corrupts) the sequence at
//! one chosen operation index. The central invariant — *kill-anywhere
//! safety* — is swept exhaustively: at **every** injection index of a
//! multi-save scenario, the directory must still resolve to a complete,
//! checksummed checkpoint whenever any save ever completed.

use prim_core::{ModelInputs, PrimConfig, PrimModel};
use prim_data::{Dataset, Scale};
use prim_serve::{encode_checkpoint, ChaosIo, CkptRotator, Fault, FaultPlan, FileIo, LATEST};
use std::sync::OnceLock;

mod common;
use common::Scratch;

/// A small valid checkpoint payload shared by every scenario.
fn payload() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let ds = Dataset::beijing(Scale::Quick).subsample(0.1, 3);
        let cfg = PrimConfig {
            dim: 8,
            cat_dim: 4,
            epochs: 1,
            val_check_every: 0,
            ..PrimConfig::quick()
        };
        let inputs = ModelInputs::build(
            &ds.graph,
            &ds.taxonomy,
            &ds.attrs,
            ds.graph.edges(),
            None,
            &cfg,
        );
        let model = PrimModel::new(cfg, &inputs);
        encode_checkpoint(
            "chaos",
            &model,
            &ds.graph,
            &ds.taxonomy,
            &ds.attrs,
            &ds.relation_names,
            None,
            None,
        )
    })
}

/// Kill-anywhere sweep: run a four-save rotation scenario, killing the
/// process at every single file-operation index in turn. After each kill,
/// `latest_valid` must return a decodable checkpoint whenever at least one
/// save fully completed — and when it returns one, the checkpoint must
/// decode end to end.
#[test]
fn kill_at_every_op_index_leaves_a_valid_latest() {
    let bytes = payload();

    // Clean run first: measure how many operation indices the sweep must
    // cover, and sanity-check the happy path.
    let scratch = Scratch::new("chaos-tests");
    let base = scratch.path("sweep-clean");
    let rot = CkptRotator::new(&base, 2).unwrap();
    let counter = ChaosIo::counting();
    for epoch in 0..4 {
        rot.save(&counter, epoch, bytes).unwrap();
    }
    let total_ops = counter.ops();
    assert!(
        total_ops >= 16,
        "4 saves must cost >= 16 ops, got {total_ops}"
    );
    let (path, ckpt) = rot.latest_valid().expect("clean run resolves");
    assert_eq!(path, rot.slot_path(3));
    assert_eq!(ckpt.run, "chaos");
    assert_eq!(
        std::fs::read_to_string(base.join(LATEST)).unwrap().trim(),
        "ckpt-000003.prim"
    );
    std::fs::remove_dir_all(&base).unwrap();

    for at in 0..total_ops {
        let dir = scratch.path(&format!("sweep-{at}"));
        let rot = CkptRotator::new(&dir, 2).unwrap();
        let io = ChaosIo::with_plan(FaultPlan::kill_at(at));
        let mut completed = 0usize;
        for epoch in 0..4 {
            match rot.save(&io, epoch, bytes) {
                Ok(_) => completed += 1,
                Err(_) => break,
            }
        }
        assert!(completed < 4, "kill at op {at} must interrupt the scenario");
        match rot.latest_valid() {
            Some((path, ckpt)) => {
                // Whatever survives must be a *complete* checkpoint.
                assert_eq!(ckpt.run, "chaos", "kill at op {at}");
                assert!(path.exists(), "kill at op {at}");
            }
            None => {
                // Only acceptable before the very first save finished.
                assert_eq!(
                    completed, 0,
                    "kill at op {at}: {completed} saves completed but nothing resolves"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A torn slot write (prefix lands on disk, then the process dies) must
/// not shadow the previous checkpoint: the temp-sibling discipline keeps
/// the half-written bytes out of the slot namespace entirely.
#[test]
fn torn_slot_write_keeps_the_previous_checkpoint() {
    let bytes = payload();
    let scratch = Scratch::new("chaos-tests");
    let dir = scratch.path("torn");
    let rot = CkptRotator::new(&dir, 3).unwrap();
    rot.save_real(0, bytes).unwrap();

    let io = ChaosIo::with_plan(FaultPlan::torn_at(0, bytes.len() / 2));
    assert!(rot.save(&io, 1, bytes).is_err());

    let (path, ckpt) = rot.latest_valid().expect("previous slot survives");
    assert_eq!(path, rot.slot_path(0));
    assert_eq!(ckpt.run, "chaos");
}

/// Silent corruption (a bit flip that defeats the write discipline, e.g.
/// media rot) in the slot `LATEST` names: the pointer target fails its
/// checksum, and recovery falls back to the newest slot that decodes.
#[test]
fn bit_flip_in_pointed_slot_falls_back_to_predecessor() {
    let bytes = payload();
    let scratch = Scratch::new("chaos-tests");
    let dir = scratch.path("flip");
    let rot = CkptRotator::new(&dir, 3).unwrap();
    rot.save_real(0, bytes).unwrap();
    rot.save_real(1, bytes).unwrap();

    // Corrupt one byte in the middle of the newest slot, in place.
    let victim = rot.slot_path(1);
    let mut data = std::fs::read(&victim).unwrap();
    let mid = data.len() / 2;
    data[mid] ^= 0x01;
    std::fs::write(&victim, &data).unwrap();

    assert!(
        rot.pointer_error().is_some(),
        "the pointer target must fail to decode"
    );
    let (path, ckpt) = rot.latest_valid().expect("fallback to older slot");
    assert_eq!(path, rot.slot_path(0));
    assert_eq!(ckpt.run, "chaos");
}

/// Rotation retention: old slots are pruned, the pointer always names the
/// newest, and pruning never removes the pointer's target.
#[test]
fn retention_prunes_old_slots_but_never_the_pointer_target() {
    let bytes = payload();
    let scratch = Scratch::new("chaos-tests");
    let dir = scratch.path("retain");
    let rot = CkptRotator::new(&dir, 2).unwrap();
    for epoch in 0..5 {
        rot.save_real(epoch, bytes).unwrap();
    }
    let slots: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().to_str().map(String::from))
        .filter(|n| n.starts_with("ckpt-"))
        .collect();
    assert_eq!(slots.len(), 2, "retain=2 keeps two slots: {slots:?}");
    assert_eq!(
        std::fs::read_to_string(dir.join(LATEST)).unwrap().trim(),
        "ckpt-000004.prim"
    );
    assert!(rot.latest_valid().is_some());
}

/// Short reads through the fault layer surface as decode errors, not
/// panics — the read half of the taxonomy-totality property.
#[test]
fn short_read_surfaces_as_structured_decode_failure() {
    let bytes = payload();
    let scratch = Scratch::new("chaos-tests");
    let path = scratch.path("ck.prim");
    prim_serve::atomic_write(&path, bytes).unwrap();

    let io = ChaosIo::with_plan(FaultPlan {
        at_op: 0,
        fault: Fault::ShortRead {
            keep: bytes.len() / 3,
        },
        then_dead: false,
    });
    let short = io.read(&path).unwrap();
    assert_eq!(short.len(), bytes.len() / 3);
    assert!(prim_serve::decode_bytes(&short).is_err());
}

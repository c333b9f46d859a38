//! The snapshot corruption test matrix (ISSUE 5).
//!
//! A valid snapshot of a small mined store is replayed through every
//! mutation the fault injector can generate — every truncation length,
//! every byte inverted once, seeded single-bit flips, torn writes, and
//! section swaps — and each mutated byte string must yield a clean typed
//! [`SnapshotError`]: never a panic, hang, or silently different store.
//! Every mutation class runs on both format versions of the fixture (v1,
//! and v2 with its embedded relation section), through the one reader
//! that accepts both, [`snapshot::read_snapshot`].
//!
//! The matrix is exhaustive for the small store (truncations and byte
//! flips cover *every* offset), and [`matrix_is_not_vacuous`] pins a
//! case-count floor so CI fails if the suite ever degenerates (fixture
//! shrinks, a generator is disabled, the test is filtered out). CI
//! additionally greps this file's test count — see `.github/workflows`.

use cape::core::mining::{Miner, ShareGrpMiner};
use cape::core::snapshot::{self, inject, SnapshotError};
use cape::core::{MiningConfig, PatternStore, Thresholds};
use cape::data::{Relation, Schema, Value, ValueType};

/// Pinned floor for the total matrix size over both versions. The
/// fixture store encodes to ~4.2 KiB as v1 and ~5.4 KiB as v2, and
/// exhaustive truncation + exhaustive byte flips contribute 2× each
/// length (~20.8k cases with the rest); a drop below this floor means the
/// fixture collapsed, a version went missing, or a mutation class did.
const CASE_FLOOR: usize = 20_000;
const BIT_FLIP_SAMPLES: usize = 512;
const TORN_EXTRA_CUTS: usize = 64;
const SEED: u64 = 0xCAFE_F00D;

fn mined() -> (Relation, MiningConfig, PatternStore) {
    let schema = Schema::new([
        ("author", ValueType::Str),
        ("year", ValueType::Int),
        ("venue", ValueType::Str),
    ])
    .unwrap();
    let mut rel = Relation::new(schema);
    for a in 0..4 {
        for y in 0..6 {
            for p in 0..3 {
                rel.push_row(vec![
                    Value::str(format!("a{a}")),
                    Value::Int(2000 + y),
                    Value::str(if p % 2 == 0 { "KDD" } else { "ICDE" }),
                ])
                .unwrap();
            }
        }
    }
    let cfg = MiningConfig {
        thresholds: Thresholds::new(0.2, 3, 0.4, 2),
        psi: 3,
        ..MiningConfig::default()
    };
    let store = ShareGrpMiner.mine(&rel, &cfg).unwrap().store;
    assert!(!store.is_empty(), "fixture mined no patterns — matrix would be vacuous");
    (rel, cfg, store)
}

/// `(label, bytes)` of the store encoded as each format version.
type Encodings = [(&'static str, Vec<u8>); 2];

fn encode_both(rel: &Relation, cfg: &MiningConfig, store: &PatternStore) -> Encodings {
    [
        ("v1", snapshot::encode_snapshot(rel.schema(), cfg, store)),
        ("v2", snapshot::v2::encode_snapshot_v2(rel.schema(), cfg, store, rel)),
    ]
}

fn valid_snapshots() -> (Relation, Encodings) {
    let (rel, cfg, store) = mined();
    let encodings = encode_both(&rel, &cfg, &store);
    (rel, encodings)
}

/// Run one mutation class; every case must be rejected with a typed
/// error. Returns the number of cases exercised.
fn assert_all_rejected(
    label: &str,
    rel: &Relation,
    bytes: &[u8],
    faults: &[inject::Fault],
    check: impl Fn(&inject::Fault, &SnapshotError),
) -> usize {
    for fault in faults {
        let mutated = fault.apply(bytes);
        match snapshot::read_snapshot(&mutated, rel) {
            Err(e) => check(fault, &e),
            Ok(_) => panic!("{label}: {fault:?} produced a loadable snapshot"),
        }
    }
    faults.len()
}

#[test]
fn truncation_at_every_length_is_truncated_error() {
    let (rel, encodings) = valid_snapshots();
    for (version, bytes) in &encodings {
        let faults = inject::exhaustive_truncations(bytes.len());
        let n = assert_all_rejected(
            &format!("{version} truncate"),
            &rel,
            bytes,
            &faults,
            |fault, e| {
                assert_eq!(
                    *e,
                    SnapshotError::Truncated,
                    "{version} {fault:?}: every prefix of a valid snapshot is a truncation"
                );
            },
        );
        assert_eq!(n, bytes.len());
        // Boundary truncations are a subset; run them against the parsed
        // layout to prove the layout parser and the reader agree.
        let layout = snapshot::layout(bytes).unwrap();
        assert_all_rejected(
            &format!("{version} truncate-at-boundary"),
            &rel,
            bytes,
            &inject::boundary_truncations(&layout),
            |_, e| assert_eq!(*e, SnapshotError::Truncated),
        );
    }
}

#[test]
fn every_byte_flip_is_rejected_with_the_right_class() {
    let (rel, encodings) = valid_snapshots();
    for (version, bytes) in &encodings {
        let faults = inject::exhaustive_byte_flips(bytes.len());
        let n = assert_all_rejected(
            &format!("{version} byte-flip"),
            &rel,
            bytes,
            &faults,
            |fault, e| {
                let offset = match fault {
                    inject::Fault::FlipByte(o) => *o,
                    _ => unreachable!(),
                };
                match offset {
                    // File magic.
                    0..=7 => assert_eq!(*e, SnapshotError::BadMagic, "{version} offset {offset}"),
                    // Version field.
                    8..=11 => assert!(
                        matches!(e, SnapshotError::VersionUnsupported { .. }),
                        "{version} offset {offset}: {e:?}"
                    ),
                    // Section count.
                    12..=15 => assert!(
                        matches!(
                            e,
                            SnapshotError::SectionCorrupt { section: "header" }
                                | SnapshotError::Truncated
                        ),
                        "{version} offset {offset}: {e:?}"
                    ),
                    // Anything else: a typed error, never a panic. (A flipped
                    // section length can surface as Truncated; flipped payload
                    // bytes or CRCs surface as SectionCorrupt; bytes inside the
                    // footer surface as Truncated or footer corruption.)
                    _ => assert!(
                        matches!(
                            e,
                            SnapshotError::SectionCorrupt { .. } | SnapshotError::Truncated
                        ),
                        "{version} offset {offset}: {e:?}"
                    ),
                }
            },
        );
        assert_eq!(n, bytes.len());
    }
}

#[test]
fn seeded_bit_flips_are_rejected() {
    let (rel, encodings) = valid_snapshots();
    for (version, bytes) in &encodings {
        let faults = inject::seeded_bit_flips(bytes.len(), BIT_FLIP_SAMPLES, SEED);
        let n =
            assert_all_rejected(&format!("{version} bit-flip"), &rel, bytes, &faults, |_, _| {});
        assert_eq!(n, BIT_FLIP_SAMPLES);
        // Determinism: the same seed reproduces the same faults.
        assert_eq!(faults, inject::seeded_bit_flips(bytes.len(), BIT_FLIP_SAMPLES, SEED));
    }
}

#[test]
fn torn_writes_are_rejected() {
    let (rel, encodings) = valid_snapshots();
    for (version, bytes) in &encodings {
        let layout = snapshot::layout(bytes).unwrap();
        let faults = inject::torn_writes(&layout, TORN_EXTRA_CUTS, SEED);
        assert_all_rejected(&format!("{version} torn-write"), &rel, bytes, &faults, |fault, e| {
            // A zero-filled tail is either caught by the leading magic
            // (nothing flushed), a CRC, or the missing commit marker.
            assert!(
                matches!(
                    e,
                    SnapshotError::Truncated
                        | SnapshotError::BadMagic
                        | SnapshotError::SectionCorrupt { .. }
                        | SnapshotError::VersionUnsupported { .. }
                ),
                "{version} {fault:?}: {e:?}"
            );
        });
    }
}

#[test]
fn section_swaps_are_rejected() {
    let (rel, encodings) = valid_snapshots();
    // Three sections give three unordered pairs, four give six.
    for ((version, bytes), pairs) in encodings.iter().zip([3, 6]) {
        let layout = snapshot::layout(bytes).unwrap();
        let faults = inject::section_swaps(&layout);
        assert_eq!(faults.len(), pairs, "{version}: section pairs");
        assert_all_rejected(
            &format!("{version} section-swap"),
            &rel,
            bytes,
            &faults,
            |fault, e| {
                assert!(
                matches!(e, SnapshotError::SectionCorrupt { .. }),
                "{version} {fault:?}: swapped sections must fail the tag-order check, got {e:?}"
            );
            },
        );
    }
}

/// The whole matrix over both versions, counted, with the
/// `store.corrupt_rejects` counter audited against the number of
/// rejections, and each valid snapshot proven to still load (the matrix
/// must not reject everything because the fixture itself is broken).
#[test]
fn matrix_is_not_vacuous() {
    let (rel, cfg, store) = mined();
    let mut cases: Vec<(&[u8], inject::Fault)> = Vec::new();
    let encodings = encode_both(&rel, &cfg, &store);
    for (_, bytes) in &encodings {
        let layout = snapshot::layout(bytes).unwrap();
        let mut faults = inject::exhaustive_truncations(bytes.len());
        faults.extend(inject::exhaustive_byte_flips(bytes.len()));
        faults.extend(inject::seeded_bit_flips(bytes.len(), BIT_FLIP_SAMPLES, SEED));
        faults.extend(inject::torn_writes(&layout, TORN_EXTRA_CUTS, SEED));
        faults.extend(inject::section_swaps(&layout));
        cases.extend(faults.into_iter().map(|f| (bytes.as_slice(), f)));
    }
    assert!(
        cases.len() >= CASE_FLOOR,
        "corruption matrix shrank to {} cases (floor {CASE_FLOOR})",
        cases.len()
    );

    let recorder = cape_obs::Recorder::new();
    let install = recorder.install();
    let mut rejects = 0u64;
    for (bytes, fault) in &cases {
        if snapshot::read_snapshot(&fault.apply(bytes), &rel).is_err() {
            rejects += 1;
        }
    }
    // The untouched snapshots still load, and the loaded stores answer
    // like the original (guards against "rejects everything" fixtures
    // and against silent wrong answers on the happy path).
    for (version, bytes) in &encodings {
        let loaded = snapshot::read_snapshot(bytes, &rel).expect("valid snapshot loads");
        assert_eq!(loaded.store.len(), store.len(), "{version}");
        for ((_, a), (_, b)) in store.iter().zip(loaded.store.iter()) {
            assert_eq!(a.arp, b.arp, "{version}");
            assert_eq!(a.locals, b.locals, "{version}");
        }
    }
    drop(install);

    assert_eq!(rejects, cases.len() as u64, "every mutation must be rejected");
    assert_eq!(
        recorder.snapshot().counter("store.corrupt_rejects"),
        rejects,
        "store.corrupt_rejects must count every rejection"
    );
}

/// The empty store is the smallest legal snapshot; its matrix is fully
/// exhaustive in both truncation and byte-flip dimensions too.
#[test]
fn empty_store_matrix() {
    let rel = Relation::new(Schema::new([("a", ValueType::Str)]).unwrap());
    for (version, bytes) in encode_both(&rel, &MiningConfig::default(), &PatternStore::new()) {
        assert!(snapshot::read_snapshot(&bytes, &rel).is_ok(), "{version}");
        let mut faults = inject::exhaustive_truncations(bytes.len());
        faults.extend(inject::exhaustive_byte_flips(bytes.len()));
        assert_all_rejected(&format!("{version} empty-store"), &rel, &bytes, &faults, |_, _| {});
    }
}

//! Deterministic structured-mutation fuzzing of every on-disk decoder.
//!
//! The durability story of this repo rests on four binary formats — the
//! `R2D2LAKE` v5 column file, the `R2D2SNAP` v5 session snapshot, the
//! `R2D2WAL` v5 segment, and the graph codec inside snapshots — all of
//! which must treat arbitrary bytes as *data, never as trusted structure*.
//! This module drives each decoder with a seeded stream of structured
//! mutations of a known-good artifact (truncations, byte flips,
//! length-field inflation, version skews, zero windows, insertions) and
//! classifies every outcome:
//!
//! * **rejected** — the decoder returned a typed error (the common case),
//! * **accepted** — the decoder returned `Ok` *and* passed its round-trip
//!   oracle (re-encode → re-decode → equality), proving the accepted bytes
//!   were decoded faithfully rather than silently misread,
//! * **misdecode** — `Ok` but the round-trip oracle failed,
//! * **panic** — the decoder (or the oracle on its output) panicked.
//!
//! Whole-file mutations of a snapshot almost never get past its body
//! checksum, so three more sweeps mutate only a body and re-stamp the
//! checksum, which puts the body decoders themselves under fire: the full
//! snapshot body, a delta generation's body restored from a persistence
//! directory, and a `snapshot::put_update` payload (the WAL batch record
//! vocabulary) decoded by `snapshot::get_update`.
//!
//! The `fuzz-sweep` experiment asserts `panics == 0 && misdecodes == 0`
//! over thousands of mutations per format. Everything is deterministic:
//! mutation `i` under seed `s` is the same bytes on every run, so a failure
//! reproduces with [`mutate`]`(base, s, i)`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use bytes::{Buf, Bytes, BytesMut};
use r2d2_core::{PersistenceConfig, PipelineConfig, R2d2Session, SessionSnapshot};
use r2d2_graph::codec as graph_codec;
use r2d2_lake::{
    snapshot, storage, wal, AccessProfile, DataLake, DatasetId, LakeUpdate, Lineage, Meter,
    PartitionedTable, Predicate, Value,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tally of one format's sweep.
#[derive(Debug, Clone)]
pub struct FormatOutcome {
    /// Which decoder was swept (`"lake"`, `"snapshot"`, `"wal"`, `"graph"`,
    /// `"snapshot-body"`, `"delta-body"`, `"update"`).
    pub format: &'static str,
    /// Mutations evaluated.
    pub mutations: usize,
    /// `Ok` decodes that also passed the round-trip oracle.
    pub accepted: usize,
    /// Typed-error rejections.
    pub rejected: usize,
    /// Panics caught from the decoder or its oracle.
    pub panics: usize,
    /// `Ok` decodes whose round-trip oracle failed (silent misreads).
    pub misdecodes: usize,
}

impl FormatOutcome {
    fn new(format: &'static str) -> Self {
        FormatOutcome {
            format,
            mutations: 0,
            accepted: 0,
            rejected: 0,
            panics: 0,
            misdecodes: 0,
        }
    }

    /// True when no mutation panicked or silently misdecoded.
    pub fn clean(&self) -> bool {
        self.panics == 0 && self.misdecodes == 0
    }
}

/// What one mutation evaluation concluded (before tallying).
enum Verdict {
    Accepted,
    Rejected,
    Misdecode,
}

/// Produce mutation `index` of `base` under `seed` — deterministic, so any
/// failure is replayable from its `(seed, index)` pair alone. Six mutation
/// classes: truncation, 1–4 non-zero byte flips, u32 length inflation, u64
/// inflation, version-field skew (bytes 8..12, where all three file formats
/// keep their version), and zero-window / junk insertion.
pub fn mutate(base: &[u8], seed: u64, index: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut bytes = base.to_vec();
    match rng.gen_range(0..6u32) {
        // Truncate at a random position (including to empty).
        0 => {
            let at = rng.gen_range(0..bytes.len().max(1));
            bytes.truncate(at);
        }
        // Flip 1–4 bytes with non-zero xor masks.
        1 => {
            for _ in 0..rng.gen_range(1..5u32) {
                if bytes.is_empty() {
                    break;
                }
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= rng.gen_range(1..256u32) as u8;
            }
        }
        // Inflate a 4-byte window to a huge little-endian u32 — attacks
        // length prefixes (row counts, string lengths, record lengths).
        2 => {
            if bytes.len() >= 4 {
                let at = rng.gen_range(0..bytes.len() - 3);
                let huge: u32 = u32::MAX - rng.gen_range(0..1024u32);
                bytes[at..at + 4].copy_from_slice(&huge.to_le_bytes());
            }
        }
        // Inflate an 8-byte window to a huge little-endian u64 — attacks
        // row counts and offsets stored as u64.
        3 => {
            if bytes.len() >= 8 {
                let at = rng.gen_range(0..bytes.len() - 7);
                let huge: u64 = u64::MAX / 2 + rng.gen_range(0..1024u32) as u64;
                bytes[at..at + 8].copy_from_slice(&huge.to_le_bytes());
            }
        }
        // Version skew: all three file formats keep a u32 version at bytes
        // 8..12 right after their magic.
        4 => {
            if bytes.len() >= 12 {
                let version: u32 = rng.gen_range(0..64u32);
                bytes[8..12].copy_from_slice(&version.to_le_bytes());
            }
        }
        // Zero out a window, or insert a run of junk bytes mid-stream.
        _ => {
            if bytes.is_empty() {
                bytes.extend([0u8; 16]);
            } else if rng.gen_bool(0.5) {
                let at = rng.gen_range(0..bytes.len());
                let len = rng.gen_range(1..33usize).min(bytes.len() - at);
                bytes[at..at + len].fill(0);
            } else {
                let at = rng.gen_range(0..bytes.len());
                let junk: Vec<u8> = (0..rng.gen_range(1..17usize))
                    .map(|_| rng.gen_range(0..256u32) as u8)
                    .collect();
                bytes.splice(at..at, junk);
            }
        }
    }
    bytes
}

/// Run `eval` over `mutations` seeded mutations of `base`, catching panics
/// (with the global panic hook silenced for the duration so rejected inputs
/// don't spam stderr) and tallying verdicts.
fn sweep(
    format: &'static str,
    base: &[u8],
    mutations: usize,
    seed: u64,
    eval: impl Fn(Vec<u8>) -> Verdict,
) -> FormatOutcome {
    let mut outcome = FormatOutcome::new(format);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for index in 0..mutations as u64 {
        let mutated = mutate(base, seed, index);
        outcome.mutations += 1;
        match catch_unwind(AssertUnwindSafe(|| eval(mutated))) {
            Ok(Verdict::Accepted) => outcome.accepted += 1,
            Ok(Verdict::Rejected) => outcome.rejected += 1,
            Ok(Verdict::Misdecode) => outcome.misdecodes += 1,
            Err(_) => outcome.panics += 1,
        }
    }
    std::panic::set_hook(hook);
    outcome
}

/// The base table: the committed `R2D2LAKE` format fixture, whose encoding
/// exercises all three page layouts (packed ints and bools, a tagged Float
/// column carrying mixed `Int` variants and nulls, dictionary-friendly
/// repetitive strings with unicode, and timestamps) over four row groups.
fn base_partitioned_table() -> PartitionedTable {
    const FIXTURE: &[u8] = include_bytes!("../../../tests/fixtures/table.r2d2lake");
    storage::decode(&Bytes::from_static(FIXTURE), &Meter::new()).expect("fixture table decodes")
}

/// Collect every value of every partition column, or `None` when any page
/// fails to materialize (lazy decode surfaces corruption here).
fn materialize(table: &PartitionedTable) -> Option<Vec<Vec<Value>>> {
    let mut all = Vec::new();
    for part in table.partitions() {
        for column in part.columns() {
            match column.try_values() {
                Ok(values) => all.push(values.to_vec()),
                Err(_) => return None,
            }
        }
    }
    Some(all)
}

/// Sweep the `R2D2LAKE` v5 column-file decoder. Oracle: an accepted decode
/// must materialize every page, and re-encoding the decoded table must
/// decode back to the same values and schema.
pub fn sweep_lake(mutations: usize, seed: u64) -> FormatOutcome {
    let base = storage::encode(&base_partitioned_table());
    sweep("lake", &base, mutations, seed, |mutated| {
        let meter = Meter::new();
        let decoded = match storage::decode(&Bytes::from(mutated), &meter) {
            Ok(t) => t,
            Err(_) => return Verdict::Rejected,
        };
        let Some(values) = materialize(&decoded) else {
            return Verdict::Rejected;
        };
        let reencoded = storage::encode(&decoded);
        let Ok(second) = storage::decode(&reencoded, &meter) else {
            return Verdict::Misdecode;
        };
        match materialize(&second) {
            Some(second_values) if second_values == values => Verdict::Accepted,
            _ => Verdict::Misdecode,
        }
    })
}

/// A tiny two-dataset session whose snapshot, WAL and graph serve as the
/// base artifacts for the session-level sweeps.
fn base_session() -> R2d2Session {
    let mut lake = DataLake::new();
    let root = base_partitioned_table();
    lake.add_dataset("fuzz/root", root.clone(), Default::default(), None)
        .expect("add root");
    let head = root.partitions()[0].clone();
    lake.add_dataset(
        "fuzz/derived",
        PartitionedTable::single(head),
        Default::default(),
        None,
    )
    .expect("add derived");
    R2d2Session::bootstrap(lake, PipelineConfig::default().with_seed(0xF0)).expect("bootstrap")
}

/// Sweep the `R2D2SNAP` v5 snapshot decoder. Oracle: a snapshot that
/// restores `Ok` must be *stable* — snapshotting the restored session and
/// restoring again must reproduce identical snapshot bytes (otherwise the
/// accepted bytes were misread into a different session state).
pub fn sweep_snapshot(mutations: usize, seed: u64) -> FormatOutcome {
    let base = base_session().snapshot();
    sweep("snapshot", base.as_bytes(), mutations, seed, |mutated| {
        stable(SessionSnapshot::from_bytes(mutated).restore())
    })
}

/// Sweep `mutations` body-only mutations of a snapshot file image whose
/// body sits between a `header`-byte prefix and the 16-byte trailer
/// (`checksum u64 | magic`): each mutated body is re-framed with its own
/// checksum, so it reaches the body decoder instead of failing the
/// checksum.
fn sweep_body(
    format: &'static str,
    file: &[u8],
    header: usize,
    mutations: usize,
    seed: u64,
    eval: impl Fn(Vec<u8>) -> Verdict,
) -> FormatOutcome {
    let (head, rest) = file.split_at(header);
    let (body, trailer) = rest.split_at(rest.len() - 16);
    sweep(format, body, mutations, seed, |body| {
        let mut image = head.to_vec();
        image.extend_from_slice(&body);
        image.extend_from_slice(&wal::checksum(&body).to_le_bytes());
        image.extend_from_slice(&trailer[8..]);
        eval(image)
    })
}

/// The snapshot oracle: a restored session must be *stable* — snapshotting
/// it and restoring again reproduces identical snapshot bytes (otherwise the
/// accepted bytes were misread into a different session state).
fn stable(restored: Result<R2d2Session, r2d2_lake::LakeError>) -> Verdict {
    let Ok(restored) = restored else {
        return Verdict::Rejected;
    };
    let first = restored.snapshot();
    match SessionSnapshot::from_bytes(first.as_bytes().to_vec()).restore() {
        Ok(again) if again.snapshot().as_bytes() == first.as_bytes() => Verdict::Accepted,
        _ => Verdict::Misdecode,
    }
}

/// Sweep the full snapshot *body* decoder (magic, version, kind byte and
/// checksum stay valid). Oracle as [`sweep_snapshot`].
pub fn sweep_snapshot_body(mutations: usize, seed: u64) -> FormatOutcome {
    let base = base_session().snapshot();
    sweep_body(
        "snapshot-body",
        base.as_bytes(),
        13,
        mutations,
        seed,
        |image| stable(SessionSnapshot::from_bytes(image).restore()),
    )
}

/// Sweep a delta generation's body as [`R2d2Session::restore`] reads it:
/// a persistence directory holds full generation 1 and delta generation 2,
/// and every mutation rewrites the directory with a re-checksummed mutant
/// of the delta body before restoring. A rejected delta makes the restore
/// fall back to generation 1 and its WAL, which counts as a rejection; an
/// accepted one must pass the stability check of [`sweep_snapshot`].
pub fn sweep_delta_body(mutations: usize, seed: u64, scratch: &Path) -> FormatOutcome {
    let dir = scratch.join("fuzz_delta_base");
    std::fs::remove_dir_all(&dir).ok();
    let mut session = base_session();
    session
        .enable_persistence(PersistenceConfig::new(&dir))
        .expect("enable persistence");
    for update in base_updates() {
        session.apply(update).expect("apply");
    }
    assert_eq!(session.checkpoint().expect("checkpoint"), 2);
    let mut files: Vec<(std::path::PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("persistence dir")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let bytes = std::fs::read(&path).expect("read persisted file");
            (path, bytes)
        })
        .collect();
    files.sort();
    let delta = files
        .iter()
        .position(|(p, _)| p.ends_with("snapshot-000002.r2d2snap"))
        .expect("delta generation 2");
    let (delta_path, delta_file) = files.remove(delta);
    // magic + version + kind + base sequence + base checksum
    let outcome = sweep_body("delta-body", &delta_file, 29, mutations, seed, |image| {
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("recreate persistence dir");
        for (path, bytes) in &files {
            std::fs::write(path, bytes).expect("restore persisted file");
        }
        std::fs::write(&delta_path, image).expect("write mutant delta");
        match R2d2Session::restore(&dir) {
            // A session restored from a directory snapshots with the
            // persistence policy its files carry, which a standalone
            // snapshot drops: go through one standalone snapshot first so
            // the policy cannot differ.
            Ok(s) if s.persistence_generation() == Some(2) => stable(s.snapshot().restore()),
            // The delta was rejected: restore fell back to generation 1 and
            // rotated to a fresh generation, or failed with a typed error.
            _ => Verdict::Rejected,
        }
    });
    std::fs::remove_dir_all(&dir).ok();
    outcome
}

/// One update of every kind, valid against [`base_session`]'s lake.
fn base_updates() -> Vec<LakeUpdate> {
    let table = base_partitioned_table();
    let rows = table.partitions()[1].clone();
    vec![
        LakeUpdate::AddDataset {
            name: "fuzz/extra".into(),
            data: table,
            access: AccessProfile {
                accesses_per_period: 3.0,
                maintenance_per_period: 0.5,
            },
            lineage: Some(Lineage {
                parent: DatasetId(0),
                transform: "copy of the fuzz base table".into(),
            }),
        },
        LakeUpdate::AppendRows {
            id: DatasetId(1),
            rows,
        },
        LakeUpdate::DeleteRows {
            id: DatasetId(2),
            predicate: Predicate::and(vec![
                Predicate::between("id", Value::Int(8), Value::Int(12)),
                Predicate::eq("label", Value::Str("🦀".into())),
            ]),
        },
        LakeUpdate::DropDataset { id: DatasetId(2) },
    ]
}

/// Whether every page of an update's table decodes (appended rows are
/// materialized by the decoder itself; a new dataset's pages stay lazy).
fn materializes(update: &LakeUpdate) -> bool {
    match update {
        LakeUpdate::AddDataset { data, .. } => materialize(data).is_some(),
        _ => true,
    }
}

/// Sweep a `snapshot::put_update` payload — one update of every kind, back
/// to back — decoded by `snapshot::get_update` until the payload is spent.
/// Oracle: accepted updates materialize, and re-encoding them decodes back
/// to equal updates.
pub fn sweep_update(mutations: usize, seed: u64) -> FormatOutcome {
    let encode = |updates: &[LakeUpdate]| {
        let mut buf = BytesMut::new();
        for update in updates {
            snapshot::put_update(&mut buf, update);
        }
        buf.freeze()
    };
    let decode = |mut buf: Bytes| {
        let mut updates = Vec::new();
        while buf.remaining() > 0 {
            let update = snapshot::get_update(&mut buf).ok()?;
            if !materializes(&update) {
                return None;
            }
            updates.push(update);
        }
        Some(updates)
    };
    let base = encode(&base_updates());
    sweep("update", &base, mutations, seed, |mutated| {
        let Some(updates) = decode(Bytes::from(mutated)) else {
            return Verdict::Rejected;
        };
        match decode(encode(&updates)) {
            Some(again) if again == updates => Verdict::Accepted,
            _ => Verdict::Misdecode,
        }
    })
}

/// Sweep the `R2D2WAL` v5 segment reader, using `scratch` for the one file
/// the reader needs on disk. Oracle: every mutation must either read `Ok`
/// (intact prefix, possibly with a dropped tail — that is the torn-append
/// contract) or return a typed error; record checksums make a silently
/// corrupted payload unreachable, so `Ok` contents are accepted as-is.
pub fn sweep_wal(mutations: usize, seed: u64, scratch: &Path) -> FormatOutcome {
    // Build a real segment: a persisted session with uncommitted tail
    // updates leaves wal records behind.
    let wal_dir = scratch.join("fuzz_wal_base");
    std::fs::remove_dir_all(&wal_dir).ok();
    let mut session = base_session();
    session
        .enable_persistence(PersistenceConfig::new(&wal_dir))
        .expect("enable persistence");
    session.apply(base_updates().swap_remove(0)).expect("apply");
    let mut segments: Vec<_> = std::fs::read_dir(&wal_dir)
        .expect("wal dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "r2d2wal"))
        .collect();
    segments.sort();
    let base = std::fs::read(segments.first().expect("one wal segment")).expect("read segment");
    std::fs::remove_dir_all(&wal_dir).ok();

    let file = scratch.join("fuzz_wal_mutant.r2d2wal");
    let outcome = sweep("wal", &base, mutations, seed, |mutated| {
        std::fs::write(&file, &mutated).expect("write mutant");
        match wal::read_records(&file) {
            Ok(_) => Verdict::Accepted,
            Err(_) => Verdict::Rejected,
        }
    });
    std::fs::remove_file(&file).ok();
    outcome
}

/// Sweep the graph codec. Oracle: an accepted graph must re-encode and
/// re-decode to an equal [`r2d2_graph::ContainmentGraph`].
pub fn sweep_graph(mutations: usize, seed: u64) -> FormatOutcome {
    let base = graph_codec::encode(base_session().graph());
    sweep("graph", &base, mutations, seed, |mutated| {
        let mut cursor = Bytes::from(mutated);
        let decoded = match graph_codec::decode(&mut cursor) {
            Ok(g) => g,
            Err(_) => return Verdict::Rejected,
        };
        let mut reencoded = graph_codec::encode(&decoded);
        match graph_codec::decode(&mut reencoded) {
            Ok(second) if second == decoded => Verdict::Accepted,
            _ => Verdict::Misdecode,
        }
    })
}

/// Sweep all four formats and the three body-level targets with
/// `mutations` mutations each.
pub fn sweep_all(mutations: usize, seed: u64, scratch: &Path) -> Vec<FormatOutcome> {
    vec![
        sweep_lake(mutations, seed),
        sweep_snapshot(mutations, seed),
        sweep_wal(mutations, seed, scratch),
        sweep_graph(mutations, seed),
        sweep_snapshot_body(mutations, seed),
        sweep_delta_body(mutations, seed, scratch),
        sweep_update(mutations, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutations_are_deterministic_and_diverse() {
        let base = vec![7u8; 64];
        let a: Vec<_> = (0..32).map(|i| mutate(&base, 42, i)).collect();
        let b: Vec<_> = (0..32).map(|i| mutate(&base, 42, i)).collect();
        assert_eq!(a, b, "same (seed, index) must produce the same bytes");
        let distinct: std::collections::BTreeSet<_> = a.iter().collect();
        assert!(distinct.len() > 16, "mutations must be diverse");
        let c = mutate(&base, 43, 0);
        assert!(
            a.contains(&c) || c != a[0] || a[0] == base,
            "seed must matter"
        );
    }

    #[test]
    fn small_sweeps_are_clean_on_every_format() {
        let scratch = std::env::temp_dir().join("r2d2_fuzz_unit");
        std::fs::create_dir_all(&scratch).unwrap();
        for outcome in sweep_all(64, 0xD15EA5E, &scratch) {
            assert!(
                outcome.clean(),
                "{}: {} panics, {} misdecodes",
                outcome.format,
                outcome.panics,
                outcome.misdecodes
            );
            assert_eq!(outcome.mutations, 64);
            assert!(outcome.rejected + outcome.accepted > 0);
        }
        std::fs::remove_dir_all(&scratch).ok();
    }
}

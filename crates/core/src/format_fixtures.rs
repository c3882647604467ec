//! Byte-exact format fixtures.
//!
//! `tests/fixtures/` at the repository root holds one small artifact of every
//! durable format: an `R2D2LAKE` table (the base table the decoder fuzz sweep
//! mutates), a full and a delta `R2D2SNAP` generation of one persistence
//! directory, an `R2D2WAL` segment, and a graph-codec blob. The test below
//! decodes each one and re-encodes it, and the bytes must come back
//! identical. Fixtures rather than digests of a live session: snapshots carry
//! stage durations, so two runs never write the same bytes, while a decoded
//! fixture re-encodes exactly.
//!
//! Regenerate the files (only when a format version is bumped on purpose)
//! with `R2D2_BLESS_FIXTURES=1 cargo test -p r2d2-core format_fixtures`.

use crate::persist::{self, DecodedSnapshot, SnapshotKind, SnapshotParts, WalRecord};
use crate::{PersistenceConfig, PipelineConfig, R2d2Session};
use bytes::{Buf, Bytes};
use r2d2_graph::codec as graph_codec;
use r2d2_lake::{
    storage, wal, AccessProfile, Column, DataLake, DataType, DatasetId, LakeUpdate, Meter,
    PartitionSpec, PartitionedTable, Predicate, Schema, Table, Value,
};
use r2d2_opt::advisor::AdvisorConfig;
use r2d2_opt::CostModel;
use std::path::{Path, PathBuf};

const TABLE: &str = "table.r2d2lake";
const FULL: &str = "snapshot-full.r2d2snap";
const DELTA: &str = "snapshot-delta.r2d2snap";
const WAL: &str = "wal-segment.r2d2wal";
const GRAPH: &str = "graph.r2d2graph";

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

fn read(name: &str) -> Bytes {
    let path = fixture_dir().join(name);
    Bytes::from(std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
}

/// Five columns over 64 rows in four row groups, so the encoding carries all
/// three page layouts: packed ints, bools and timestamps, a tagged Float
/// column mixing `Int` values and nulls, and dictionary-friendly repetitive
/// strings with multi-byte UTF-8.
fn fixture_table() -> PartitionedTable {
    let schema = Schema::flat(&[
        ("id", DataType::Int),
        ("score", DataType::Float),
        ("label", DataType::Utf8),
        ("flag", DataType::Bool),
        ("seen", DataType::Timestamp),
    ])
    .unwrap();
    let labels = ["alpha", "βeta", "🦀", "alpha"];
    let column = |dt, values: Vec<Value>| Column::new(dt, values).unwrap();
    let columns = vec![
        column(DataType::Int, (0..64).map(Value::Int).collect()),
        column(
            DataType::Float,
            (0..64)
                .map(|i| match i % 4 {
                    0 => Value::Float(i as f64 + 0.5),
                    1 => Value::Int(i),
                    2 => Value::Null,
                    _ => Value::Float(-(i as f64)),
                })
                .collect(),
        ),
        column(
            DataType::Utf8,
            (0..64)
                .map(|i| Value::Str(labels[i % labels.len()].to_string()))
                .collect(),
        ),
        column(
            DataType::Bool,
            (0..64).map(|i| Value::Bool(i % 3 == 0)).collect(),
        ),
        column(
            DataType::Timestamp,
            (0..64).map(|i| Value::Timestamp(i * 1000)).collect(),
        ),
    ];
    PartitionedTable::from_table(
        Table::new(schema, columns).unwrap(),
        PartitionSpec::ByRowCount {
            rows_per_partition: 16,
        },
    )
    .unwrap()
}

/// Rows `range` of the fixture table as a plain table.
fn rows(range: std::ops::Range<usize>) -> Table {
    let whole = fixture_table().to_table(&Meter::new()).unwrap();
    let columns = whole
        .columns()
        .iter()
        .map(|c| Column::new(c.data_type(), c.values()[range.clone()].to_vec()).unwrap())
        .collect();
    Table::new(whole.schema().clone(), columns).unwrap()
}

/// Write the fixtures: a session with the advisor on and one update in its
/// log turns on persistence, which writes full generation 1; a batch of every update kind plus an access refresh
/// goes through its WAL, a checkpoint writes delta generation 2, and a second
/// round of updates fills generation 2's WAL segment.
fn bless() {
    let scratch = std::env::temp_dir().join(format!("r2d2_fixtures_{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    let mut lake = DataLake::new();
    lake.add_dataset(
        "fixture/base",
        fixture_table(),
        AccessProfile::default(),
        None,
    )
    .unwrap();
    lake.add_dataset(
        "fixture/head",
        PartitionedTable::single(rows(0..16)),
        AccessProfile::default(),
        None,
    )
    .unwrap();
    let mut session =
        R2d2Session::bootstrap(lake, PipelineConfig::default().with_seed(0xF0)).unwrap();
    session
        .enable_advisor(CostModel::default(), AdvisorConfig::default())
        .unwrap();
    session
        .apply(LakeUpdate::AppendRows {
            id: DatasetId(1),
            rows: rows(16..20),
        })
        .unwrap();
    session.advise().unwrap();
    session
        .enable_persistence(PersistenceConfig::new(&scratch))
        .unwrap();
    let add = |name: &str, range| LakeUpdate::AddDataset {
        name: name.into(),
        data: PartitionedTable::single(rows(range)),
        access: AccessProfile {
            accesses_per_period: 2.0,
            maintenance_per_period: 1.0,
        },
        lineage: None,
    };
    session
        .apply_batch(&[
            add("fixture/tail", 40..64),
            LakeUpdate::AppendRows {
                id: DatasetId(1),
                rows: rows(20..24),
            },
        ])
        .unwrap();
    session
        .apply(LakeUpdate::DeleteRows {
            id: DatasetId(2),
            predicate: Predicate::between("id", Value::Int(60), Value::Int(63)),
        })
        .unwrap();
    session.lake().record_access(DatasetId(0));
    session.refresh_access_profiles().unwrap();
    session.advise().unwrap();
    assert_eq!(session.checkpoint().unwrap(), 2);
    session.apply(add("fixture/mid", 20..30)).unwrap();
    session
        .apply(LakeUpdate::DropDataset { id: DatasetId(2) })
        .unwrap();
    session.lake().record_access(DatasetId(1));
    session.refresh_access_profiles().unwrap();

    let out = fixture_dir();
    std::fs::create_dir_all(&out).unwrap();
    std::fs::write(out.join(TABLE), storage::encode(&fixture_table())).unwrap();
    std::fs::copy(persist::snapshot_path(&scratch, 1), out.join(FULL)).unwrap();
    std::fs::copy(persist::snapshot_path(&scratch, 2), out.join(DELTA)).unwrap();
    std::fs::copy(persist::wal_segment_path(&scratch, 2, 0), out.join(WAL)).unwrap();
    std::fs::write(out.join(GRAPH), graph_codec::encode(session.graph())).unwrap();
    std::fs::remove_dir_all(&scratch).ok();
}

fn parts(d: &DecodedSnapshot) -> SnapshotParts<'_> {
    SnapshotParts {
        config: &d.config,
        snapshot_every_n_updates: d.snapshot_every_n_updates,
        rebase_every_k_deltas: d.rebase_every_k_deltas,
        wal_segment_max_bytes: d.wal_segment_max_bytes,
        lake: &d.lake,
        graph: &d.graph,
        interner: &d.interner,
        cache: &d.cache,
        bootstrap: &d.bootstrap,
        updates_applied: d.updates_applied,
        log: &d.log,
        advisor: d.advisor.as_ref(),
    }
}

#[test]
fn every_format_fixture_reencodes_byte_for_byte() {
    if std::env::var_os("R2D2_BLESS_FIXTURES").is_some() {
        bless();
    }

    // R2D2LAKE: the lazy decode re-emits its pages verbatim, and a full
    // materialization re-encoded from scratch reproduces them too.
    let table = read(TABLE);
    let decoded = storage::decode(&table, &Meter::new()).unwrap();
    assert_eq!(storage::encode(&decoded), table, "lazy table re-encode");
    let materialized = PartitionedTable::from_table(
        decoded.to_table(&Meter::new()).unwrap(),
        PartitionSpec::ByRowCount {
            rows_per_partition: 16,
        },
    )
    .unwrap();
    assert_eq!(
        storage::encode(&materialized),
        table,
        "materialized re-encode"
    );

    // R2D2SNAP full generation.
    let full = read(FULL);
    let full_file = persist::read_snapshot_file(&full).unwrap();
    assert_eq!(full_file.kind, SnapshotKind::Full);
    let mut state = persist::decode_snapshot_body(full_file.body.clone()).unwrap();
    assert!(state.advisor.is_some() && !state.log.is_empty());
    let body = persist::encode_snapshot_body(&parts(&state));
    assert_eq!(
        persist::frame_snapshot(SnapshotKind::Full, body),
        full,
        "full snapshot"
    );

    // R2D2SNAP delta generation, applied onto the decoded full base and
    // re-diffed against that base's capture.
    let delta = read(DELTA);
    let delta_file = persist::read_snapshot_file(&delta).unwrap();
    assert_eq!(
        delta_file.kind,
        SnapshotKind::Delta {
            base_seq: 1,
            base_checksum: full_file.body_checksum
        }
    );
    let base = persist::capture_base(1, full_file.body_checksum, &parts(&state));
    persist::apply_delta_body(delta_file.body, &mut state).unwrap();
    let body = persist::encode_delta_body(&parts(&state), &base);
    assert_eq!(
        persist::frame_snapshot(delta_file.kind, body),
        delta,
        "delta snapshot"
    );

    // R2D2WAL segment: every record payload re-encodes exactly, and the
    // payloads re-appended to a fresh segment rebuild the file.
    let segment = read(WAL);
    let path = std::env::temp_dir().join(format!("r2d2_fixture_{}.r2d2wal", std::process::id()));
    std::fs::write(&path, &segment).unwrap();
    let contents = wal::read_records(&path).unwrap();
    assert!(!contents.dropped_tail);
    assert!(contents.records.len() >= 3);
    let mut writer = wal::WalWriter::create(&path, contents.generation, contents.segment).unwrap();
    for raw in &contents.records {
        let mut cursor = Bytes::from(raw.clone());
        let record = WalRecord::decode(&mut cursor).unwrap();
        assert_eq!(cursor.remaining(), 0);
        assert_eq!(record.encode()[..], raw[..], "wal record payload");
        writer.append(raw).unwrap();
    }
    drop(writer);
    assert_eq!(std::fs::read(&path).unwrap(), segment[..], "wal segment");
    std::fs::remove_file(&path).ok();

    // Graph codec.
    let graph = read(GRAPH);
    let mut cursor = graph.clone();
    let decoded = graph_codec::decode(&mut cursor).unwrap();
    assert_eq!(cursor.remaining(), 0);
    assert!(decoded.edge_count() > 0);
    assert_eq!(graph_codec::encode(&decoded), graph, "graph blob");
}

//! Operation metering: row scans, byte scans, metadata lookups.
//!
//! Table 3 of the paper compares the number of *pairwise row-level
//! operations* each stage of R2D2 performs against the brute-force ground
//! truth, and Table 7 reports GDPR row-scan savings. To reproduce those
//! numbers faithfully the substrate meters every operation: each query,
//! sampling call, anti-join and metadata lookup reports how many rows /
//! bytes / metadata entries it touched into a shared [`Meter`].
//!
//! The meter is cheaply cloneable (an `Arc` of atomics) and thread-safe so
//! that pipeline stages running on worker threads can share one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Immutable snapshot of a [`Meter`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Rows read from table data (full scans, predicate scans, joins).
    pub rows_scanned: u64,
    /// Approximate bytes read from table data.
    pub bytes_scanned: u64,
    /// Row tuples hashed (for containment checks / ground truth).
    pub rows_hashed: u64,
    /// Pairwise row-to-row comparisons (hash probes count as one comparison).
    pub row_comparisons: u64,
    /// Partition / column metadata entries consulted (min/max lookups).
    pub metadata_lookups: u64,
    /// Partitions skipped thanks to metadata pruning.
    pub partitions_pruned: u64,
    /// Partitions whose rows were actually read.
    pub partitions_scanned: u64,
    /// Schema-set comparisons (pairs of schemas checked for containment).
    pub schema_comparisons: u64,
    /// Edges pruned by the MMP distinct-count gate (metadata only).
    pub distinct_prunes: u64,
    /// Bloom-sketch membership probes performed by CLP gating.
    pub sketch_probes: u64,
    /// Edges pruned by the CLP bloom-sketch gate (before any parent
    /// multiset was built).
    pub sketch_prunes: u64,
    /// Lazy column pages materialized from their encoded bytes (first touch
    /// of a column decoded with `storage::decode`).
    pub pages_decoded: u64,
    /// Column pages left as undecoded byte ranges by `storage::decode`
    /// (footer-backed lazy tables). `pages_skipped - pages_decoded` is the
    /// number of pages never touched.
    pub pages_skipped: u64,
    /// Distinct string values hashed (one per distinct value per hashing
    /// call, not one per cell — dictionary-style dedup makes repeated
    /// strings hash once).
    pub string_hash_ops: u64,
    /// String cells covered by row hashing (what `string_hash_ops` would be
    /// without per-distinct-value dedup; the ratio is the savings).
    pub string_cells_hashed: u64,
    /// Candidate pairs probed by the approximate (MinHash) candidate tier.
    pub approx_probes: u64,
    /// Candidate pairs pruned by the approximate tier before exact
    /// verification (`approx_probes - approx_prunes` pairs went on to the
    /// exact subset check).
    pub approx_prunes: u64,
}

impl OpCounts {
    /// Total row-level work: scans + hashes + comparisons. This is the
    /// quantity Table 3 reports ("pairwise row-level operations").
    pub fn row_level_ops(&self) -> u64 {
        self.rows_scanned + self.rows_hashed + self.row_comparisons
    }

    /// Element-wise difference (`self - earlier`), saturating at zero. Useful
    /// to attribute work to a pipeline stage given snapshots before/after.
    pub fn since(&self, earlier: &OpCounts) -> OpCounts {
        OpCounts {
            rows_scanned: self.rows_scanned.saturating_sub(earlier.rows_scanned),
            bytes_scanned: self.bytes_scanned.saturating_sub(earlier.bytes_scanned),
            rows_hashed: self.rows_hashed.saturating_sub(earlier.rows_hashed),
            row_comparisons: self.row_comparisons.saturating_sub(earlier.row_comparisons),
            metadata_lookups: self
                .metadata_lookups
                .saturating_sub(earlier.metadata_lookups),
            partitions_pruned: self
                .partitions_pruned
                .saturating_sub(earlier.partitions_pruned),
            partitions_scanned: self
                .partitions_scanned
                .saturating_sub(earlier.partitions_scanned),
            schema_comparisons: self
                .schema_comparisons
                .saturating_sub(earlier.schema_comparisons),
            distinct_prunes: self.distinct_prunes.saturating_sub(earlier.distinct_prunes),
            sketch_probes: self.sketch_probes.saturating_sub(earlier.sketch_probes),
            sketch_prunes: self.sketch_prunes.saturating_sub(earlier.sketch_prunes),
            pages_decoded: self.pages_decoded.saturating_sub(earlier.pages_decoded),
            pages_skipped: self.pages_skipped.saturating_sub(earlier.pages_skipped),
            string_hash_ops: self.string_hash_ops.saturating_sub(earlier.string_hash_ops),
            string_cells_hashed: self
                .string_cells_hashed
                .saturating_sub(earlier.string_cells_hashed),
            approx_probes: self.approx_probes.saturating_sub(earlier.approx_probes),
            approx_prunes: self.approx_prunes.saturating_sub(earlier.approx_prunes),
        }
    }

    /// Element-wise sum.
    pub fn plus(&self, other: &OpCounts) -> OpCounts {
        OpCounts {
            rows_scanned: self.rows_scanned + other.rows_scanned,
            bytes_scanned: self.bytes_scanned + other.bytes_scanned,
            rows_hashed: self.rows_hashed + other.rows_hashed,
            row_comparisons: self.row_comparisons + other.row_comparisons,
            metadata_lookups: self.metadata_lookups + other.metadata_lookups,
            partitions_pruned: self.partitions_pruned + other.partitions_pruned,
            partitions_scanned: self.partitions_scanned + other.partitions_scanned,
            schema_comparisons: self.schema_comparisons + other.schema_comparisons,
            distinct_prunes: self.distinct_prunes + other.distinct_prunes,
            sketch_probes: self.sketch_probes + other.sketch_probes,
            sketch_prunes: self.sketch_prunes + other.sketch_prunes,
            pages_decoded: self.pages_decoded + other.pages_decoded,
            pages_skipped: self.pages_skipped + other.pages_skipped,
            string_hash_ops: self.string_hash_ops + other.string_hash_ops,
            string_cells_hashed: self.string_cells_hashed + other.string_cells_hashed,
            approx_probes: self.approx_probes + other.approx_probes,
            approx_prunes: self.approx_prunes + other.approx_prunes,
        }
    }

    /// This snapshot with the lazy-page counters (`pages_decoded`,
    /// `pages_skipped`) zeroed. Page materialization is an artifact of *how*
    /// a table entered memory (eager construction, lazy decode, snapshot
    /// restore), not of what logical work was done on it, so equivalence
    /// oracles — restored-vs-live sessions, lazy-vs-eager decode — compare
    /// meters modulo these two counters.
    pub fn without_page_counters(&self) -> OpCounts {
        OpCounts {
            pages_decoded: 0,
            pages_skipped: 0,
            ..*self
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    rows_scanned: AtomicU64,
    bytes_scanned: AtomicU64,
    rows_hashed: AtomicU64,
    row_comparisons: AtomicU64,
    metadata_lookups: AtomicU64,
    partitions_pruned: AtomicU64,
    partitions_scanned: AtomicU64,
    schema_comparisons: AtomicU64,
    distinct_prunes: AtomicU64,
    sketch_probes: AtomicU64,
    sketch_prunes: AtomicU64,
    pages_decoded: AtomicU64,
    pages_skipped: AtomicU64,
    string_hash_ops: AtomicU64,
    string_cells_hashed: AtomicU64,
    approx_probes: AtomicU64,
    approx_prunes: AtomicU64,
}

/// A shared, thread-safe operation meter.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    counters: Arc<Counters>,
}

impl Meter {
    /// Create a fresh meter with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` rows scanned.
    pub fn add_rows_scanned(&self, n: u64) {
        self.counters.rows_scanned.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` bytes scanned.
    pub fn add_bytes_scanned(&self, n: u64) {
        self.counters.bytes_scanned.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` rows hashed.
    pub fn add_rows_hashed(&self, n: u64) {
        self.counters.rows_hashed.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` pairwise row comparisons / hash probes.
    pub fn add_row_comparisons(&self, n: u64) {
        self.counters
            .row_comparisons
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` metadata (min/max) lookups.
    pub fn add_metadata_lookups(&self, n: u64) {
        self.counters
            .metadata_lookups
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` partitions pruned via metadata.
    pub fn add_partitions_pruned(&self, n: u64) {
        self.counters
            .partitions_pruned
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` partitions scanned.
    pub fn add_partitions_scanned(&self, n: u64) {
        self.counters
            .partitions_scanned
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` schema-pair comparisons.
    pub fn add_schema_comparisons(&self, n: u64) {
        self.counters
            .schema_comparisons
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` edges pruned by the MMP distinct-count gate.
    pub fn add_distinct_prunes(&self, n: u64) {
        self.counters
            .distinct_prunes
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` bloom-sketch membership probes.
    pub fn add_sketch_probes(&self, n: u64) {
        self.counters.sketch_probes.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` edges pruned by the CLP bloom-sketch gate.
    pub fn add_sketch_prunes(&self, n: u64) {
        self.counters.sketch_prunes.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` lazy column pages materialized.
    pub fn add_pages_decoded(&self, n: u64) {
        self.counters.pages_decoded.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` column pages left undecoded by a lazy decode.
    pub fn add_pages_skipped(&self, n: u64) {
        self.counters.pages_skipped.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` distinct string values hashed.
    pub fn add_string_hash_ops(&self, n: u64) {
        self.counters
            .string_hash_ops
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` string cells covered by row hashing.
    pub fn add_string_cells_hashed(&self, n: u64) {
        self.counters
            .string_cells_hashed
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` candidate pairs probed by the approximate candidate tier.
    pub fn add_approx_probes(&self, n: u64) {
        self.counters.approx_probes.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` candidate pairs pruned by the approximate candidate tier.
    pub fn add_approx_prunes(&self, n: u64) {
        self.counters.approx_prunes.fetch_add(n, Ordering::Relaxed);
    }

    /// Take a snapshot of the counters.
    pub fn snapshot(&self) -> OpCounts {
        OpCounts {
            rows_scanned: self.counters.rows_scanned.load(Ordering::Relaxed),
            bytes_scanned: self.counters.bytes_scanned.load(Ordering::Relaxed),
            rows_hashed: self.counters.rows_hashed.load(Ordering::Relaxed),
            row_comparisons: self.counters.row_comparisons.load(Ordering::Relaxed),
            metadata_lookups: self.counters.metadata_lookups.load(Ordering::Relaxed),
            partitions_pruned: self.counters.partitions_pruned.load(Ordering::Relaxed),
            partitions_scanned: self.counters.partitions_scanned.load(Ordering::Relaxed),
            schema_comparisons: self.counters.schema_comparisons.load(Ordering::Relaxed),
            distinct_prunes: self.counters.distinct_prunes.load(Ordering::Relaxed),
            sketch_probes: self.counters.sketch_probes.load(Ordering::Relaxed),
            sketch_prunes: self.counters.sketch_prunes.load(Ordering::Relaxed),
            pages_decoded: self.counters.pages_decoded.load(Ordering::Relaxed),
            pages_skipped: self.counters.pages_skipped.load(Ordering::Relaxed),
            string_hash_ops: self.counters.string_hash_ops.load(Ordering::Relaxed),
            string_cells_hashed: self.counters.string_cells_hashed.load(Ordering::Relaxed),
            approx_probes: self.counters.approx_probes.load(Ordering::Relaxed),
            approx_prunes: self.counters.approx_prunes.load(Ordering::Relaxed),
        }
    }

    /// Add a whole [`OpCounts`] snapshot onto the counters at once. Used by
    /// snapshot restore to seed a fresh meter with the totals a session had
    /// accumulated when it was persisted.
    pub fn add_counts(&self, counts: &OpCounts) {
        self.add_rows_scanned(counts.rows_scanned);
        self.add_bytes_scanned(counts.bytes_scanned);
        self.add_rows_hashed(counts.rows_hashed);
        self.add_row_comparisons(counts.row_comparisons);
        self.add_metadata_lookups(counts.metadata_lookups);
        self.add_partitions_pruned(counts.partitions_pruned);
        self.add_partitions_scanned(counts.partitions_scanned);
        self.add_schema_comparisons(counts.schema_comparisons);
        self.add_distinct_prunes(counts.distinct_prunes);
        self.add_sketch_probes(counts.sketch_probes);
        self.add_sketch_prunes(counts.sketch_prunes);
        self.add_pages_decoded(counts.pages_decoded);
        self.add_pages_skipped(counts.pages_skipped);
        self.add_string_hash_ops(counts.string_hash_ops);
        self.add_string_cells_hashed(counts.string_cells_hashed);
        self.add_approx_probes(counts.approx_probes);
        self.add_approx_prunes(counts.approx_prunes);
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        self.counters.rows_scanned.store(0, Ordering::Relaxed);
        self.counters.bytes_scanned.store(0, Ordering::Relaxed);
        self.counters.rows_hashed.store(0, Ordering::Relaxed);
        self.counters.row_comparisons.store(0, Ordering::Relaxed);
        self.counters.metadata_lookups.store(0, Ordering::Relaxed);
        self.counters.partitions_pruned.store(0, Ordering::Relaxed);
        self.counters.partitions_scanned.store(0, Ordering::Relaxed);
        self.counters.schema_comparisons.store(0, Ordering::Relaxed);
        self.counters.distinct_prunes.store(0, Ordering::Relaxed);
        self.counters.sketch_probes.store(0, Ordering::Relaxed);
        self.counters.sketch_prunes.store(0, Ordering::Relaxed);
        self.counters.pages_decoded.store(0, Ordering::Relaxed);
        self.counters.pages_skipped.store(0, Ordering::Relaxed);
        self.counters.string_hash_ops.store(0, Ordering::Relaxed);
        self.counters
            .string_cells_hashed
            .store(0, Ordering::Relaxed);
        self.counters.approx_probes.store(0, Ordering::Relaxed);
        self.counters.approx_prunes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Meter::new();
        m.add_rows_scanned(10);
        m.add_rows_scanned(5);
        m.add_bytes_scanned(100);
        m.add_metadata_lookups(3);
        let s = m.snapshot();
        assert_eq!(s.rows_scanned, 15);
        assert_eq!(s.bytes_scanned, 100);
        assert_eq!(s.metadata_lookups, 3);
    }

    #[test]
    fn clones_share_counters() {
        let m = Meter::new();
        let m2 = m.clone();
        m2.add_rows_hashed(7);
        assert_eq!(m.snapshot().rows_hashed, 7);
    }

    #[test]
    fn since_attributes_stage_work() {
        let m = Meter::new();
        m.add_rows_scanned(10);
        let before = m.snapshot();
        m.add_rows_scanned(32);
        m.add_row_comparisons(4);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.rows_scanned, 32);
        assert_eq!(delta.row_comparisons, 4);
        assert_eq!(delta.bytes_scanned, 0);
    }

    #[test]
    fn plus_and_row_level_ops() {
        let a = OpCounts {
            rows_scanned: 1,
            rows_hashed: 2,
            row_comparisons: 3,
            ..Default::default()
        };
        let b = OpCounts {
            rows_scanned: 10,
            ..Default::default()
        };
        assert_eq!(a.row_level_ops(), 6);
        assert_eq!(a.plus(&b).rows_scanned, 11);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = Meter::new();
        m.add_schema_comparisons(9);
        m.add_partitions_pruned(2);
        m.reset();
        assert_eq!(m.snapshot(), OpCounts::default());
    }

    #[test]
    fn page_and_string_counters_accumulate_and_mask() {
        let m = Meter::new();
        m.add_pages_skipped(10);
        m.add_pages_decoded(3);
        m.add_string_hash_ops(4);
        m.add_string_cells_hashed(40);
        m.add_approx_probes(6);
        m.add_approx_prunes(2);
        let s = m.snapshot();
        assert_eq!(s.approx_probes, 6);
        assert_eq!(s.approx_prunes, 2);
        assert_eq!(s.pages_decoded, 3);
        assert_eq!(s.pages_skipped, 10);
        assert_eq!(s.string_hash_ops, 4);
        assert_eq!(s.string_cells_hashed, 40);
        let masked = s.without_page_counters();
        assert_eq!(masked.pages_decoded, 0);
        assert_eq!(masked.pages_skipped, 0);
        assert_eq!(masked.string_hash_ops, 4, "only page counters are masked");
        let m2 = Meter::new();
        m2.add_counts(&s);
        assert_eq!(m2.snapshot(), s, "add_counts covers every counter");
        m2.reset();
        assert_eq!(m2.snapshot(), OpCounts::default());
    }

    #[test]
    fn thread_safety() {
        let m = Meter::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.add_rows_scanned(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.snapshot().rows_scanned, 8000);
    }
}

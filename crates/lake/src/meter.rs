//! Operation metering: row scans, byte scans, metadata lookups.
//!
//! Table 3 of the paper compares the number of *pairwise row-level
//! operations* each stage of R2D2 performs against the brute-force ground
//! truth, and Table 7 reports GDPR row-scan savings. To reproduce those
//! numbers faithfully the substrate meters every operation: each query,
//! sampling call, anti-join and metadata lookup reports how many rows /
//! bytes / metadata entries it touched into a shared [`Meter`].
//!
//! Every counter is declared once, in the `counters!` table below, which
//! generates [`Counter`], the [`OpCounts`] fields and the accessors between
//! them. Declaration order is the snapshot wire order, so a new counter
//! goes last and bumps the snapshot and WAL format versions.
//!
//! The meter is cheaply cloneable (an `Arc` of atomics) and thread-safe so
//! that pipeline stages running on worker threads can share one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

macro_rules! counters {
    ($($(#[doc = $doc:literal])+ $field:ident => $variant:ident,)+) => {
        /// Number of counters (the length of [`Counter::ALL`]).
        pub(crate) const COUNTERS: usize = [$(stringify!($field)),+].len();

        /// One metered quantity; each names the [`OpCounts`] field of the
        /// same meaning.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Counter {
            $($(#[doc = $doc])+ $variant,)+
        }

        impl Counter {
            /// Every counter, in declaration order (= wire order).
            pub const ALL: [Counter; COUNTERS] = [$(Counter::$variant),+];
        }

        /// Immutable snapshot of a [`Meter`]'s counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct OpCounts {
            $($(#[doc = $doc])+ pub $field: u64,)+
        }

        impl OpCounts {
            /// The value of counter `c`.
            pub fn get(&self, c: Counter) -> u64 {
                match c {
                    $(Counter::$variant => self.$field,)+
                }
            }

            /// Build a snapshot by asking `value` for each counter, in
            /// [`Counter::ALL`] order.
            pub(crate) fn from_fn(mut value: impl FnMut(Counter) -> u64) -> OpCounts {
                OpCounts {
                    $($field: value(Counter::$variant),)+
                }
            }
        }
    };
}

counters! {
    /// Rows read from table data (full scans, predicate scans, joins).
    rows_scanned => RowsScanned,
    /// Approximate bytes read from table data.
    bytes_scanned => BytesScanned,
    /// Row tuples hashed (for containment checks / ground truth).
    rows_hashed => RowsHashed,
    /// Pairwise row-to-row comparisons (hash probes count as one comparison).
    row_comparisons => RowComparisons,
    /// Partition / column metadata entries consulted (min/max lookups).
    metadata_lookups => MetadataLookups,
    /// Partitions skipped thanks to metadata pruning.
    partitions_pruned => PartitionsPruned,
    /// Partitions whose rows were actually read.
    partitions_scanned => PartitionsScanned,
    /// Schema-set comparisons (pairs of schemas checked for containment).
    schema_comparisons => SchemaComparisons,
    /// Edges pruned by the MMP distinct-count gate (metadata only).
    distinct_prunes => DistinctPrunes,
    /// Bloom-sketch membership probes performed by CLP gating.
    sketch_probes => SketchProbes,
    /// Edges pruned by the CLP bloom-sketch gate (before any parent
    /// multiset was built).
    sketch_prunes => SketchPrunes,
    /// Lazy column pages materialized from their encoded bytes (first touch
    /// of a column decoded with `storage::decode`).
    pages_decoded => PagesDecoded,
    /// Column pages left as undecoded byte ranges by `storage::decode`
    /// (footer-backed lazy tables). `pages_skipped - pages_decoded` is the
    /// number of pages never touched.
    pages_skipped => PagesSkipped,
    /// Distinct string values hashed (one per distinct value per hashing
    /// call, not one per cell — dictionary-style dedup makes repeated
    /// strings hash once).
    string_hash_ops => StringHashOps,
    /// String cells covered by row hashing (what `string_hash_ops` would be
    /// without per-distinct-value dedup; the ratio is the savings).
    string_cells_hashed => StringCellsHashed,
    /// Candidate pairs probed by the approximate (MinHash) candidate tier.
    approx_probes => ApproxProbes,
    /// Candidate pairs pruned by the approximate tier before exact
    /// verification (`approx_probes - approx_prunes` pairs went on to the
    /// exact subset check).
    approx_prunes => ApproxPrunes,
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
        OpCounts::from_fn(|c| self.get(c).saturating_sub(earlier.get(c)))
    }

    /// Element-wise sum.
    pub fn plus(&self, other: &OpCounts) -> OpCounts {
        OpCounts::from_fn(|c| self.get(c) + other.get(c))
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

/// A shared, thread-safe operation meter.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    counters: Arc<[AtomicU64; COUNTERS]>,
}

impl Meter {
    /// Create a fresh meter with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` units of counter `c`.
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Take a snapshot of the counters.
    pub fn snapshot(&self) -> OpCounts {
        OpCounts::from_fn(|c| self.counters[c as usize].load(Ordering::Relaxed))
    }

    /// Add a whole [`OpCounts`] snapshot onto the counters at once. Used by
    /// snapshot restore to seed a fresh meter with the totals a session had
    /// accumulated when it was persisted.
    pub fn add_counts(&self, counts: &OpCounts) {
        for c in Counter::ALL {
            self.add(c, counts.get(c));
        }
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        for counter in self.counters.iter() {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Meter::new();
        m.add(Counter::RowsScanned, 10);
        m.add(Counter::RowsScanned, 5);
        m.add(Counter::BytesScanned, 100);
        m.add(Counter::MetadataLookups, 3);
        let s = m.snapshot();
        assert_eq!(s.rows_scanned, 15);
        assert_eq!(s.bytes_scanned, 100);
        assert_eq!(s.metadata_lookups, 3);
    }

    #[test]
    fn clones_share_counters() {
        let m = Meter::new();
        let m2 = m.clone();
        m2.add(Counter::RowsHashed, 7);
        assert_eq!(m.snapshot().rows_hashed, 7);
    }

    #[test]
    fn since_attributes_stage_work() {
        let m = Meter::new();
        m.add(Counter::RowsScanned, 10);
        let before = m.snapshot();
        m.add(Counter::RowsScanned, 32);
        m.add(Counter::RowComparisons, 4);
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
        m.add(Counter::SchemaComparisons, 9);
        m.add(Counter::PartitionsPruned, 2);
        m.reset();
        assert_eq!(m.snapshot(), OpCounts::default());
    }

    #[test]
    fn page_and_string_counters_accumulate_and_mask() {
        let m = Meter::new();
        m.add(Counter::PagesSkipped, 10);
        m.add(Counter::PagesDecoded, 3);
        m.add(Counter::StringHashOps, 4);
        m.add(Counter::StringCellsHashed, 40);
        m.add(Counter::ApproxProbes, 6);
        m.add(Counter::ApproxPrunes, 2);
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
                        m.add(Counter::RowsScanned, 1);
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

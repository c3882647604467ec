//! The metrics every workload reports, with the names `BENCHMARK.json`
//! lists.
//!
//! Every workload prints the same set: all [`EndToEnd`] metrics from an
//! untraced run, all [`Layers`] metrics from a traced one. A layer a
//! workload never calls reads 0 in its counters (no CSV is parsed on
//! `discover`, no batch is committed on `restart`); the per-layer timings
//! are only those of calls every workload makes, so none of them is a
//! constant 0.

use crate::metrics::{ms, Failure, Outcome};
use crate::trace::Tracer;
use r2d2_core::{R2d2Session, SessionView};
use r2d2_graph::ContainmentGraph;
use r2d2_lake::wal::WalStats;
use r2d2_lake::{DataLake, Meter, OpCounts, Predicate};
use std::collections::BTreeSet;

/// End-to-end metrics of an untraced run.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Median of the workload's set-up repetitions (the program's work
    /// before the timed phase), in seconds.
    pub setup_s: f64,
    /// Peak resident memory of the program's work, in MiB: read before the
    /// benchmark's own closing work (ground truth, storage figures).
    pub peak_rss_mb: f64,
    /// Median latency of the workload's unit operation, in milliseconds.
    pub op_p50_ms: f64,
    /// Advised Eq. 3 total cost over the retain-all cost.
    pub cost_ratio: f64,
    /// Share of the containment graph's edges that hold in the lake's
    /// content ground truth.
    pub edge_precision: f64,
    /// Persistence directory bytes over the lake's logical bytes.
    pub stored_bytes_per_user_byte: f64,
}

impl EndToEnd {
    pub fn outcome(&self, attempted: u64, failed: u64) -> Outcome {
        let mut out = Outcome::new(attempted, failed);
        out.put("setup_s", self.setup_s, "s");
        out.put("peak_rss_mb", self.peak_rss_mb, "MiB");
        out.put("op_p50_ms", self.op_p50_ms, "ms");
        out.put("cost_ratio", self.cost_ratio, "ratio");
        out.put("edge_precision", self.edge_precision, "ratio");
        out.put(
            "stored_bytes_per_user_byte",
            self.stored_bytes_per_user_byte,
            "ratio",
        );
        out
    }
}

/// Precision of `graph` against `truth`: the share of its edges that are
/// true containment edges. A graph without edges fails the run.
pub fn precision(graph: &ContainmentGraph, truth: &BTreeSet<(u64, u64)>) -> Result<f64, Failure> {
    let found = graph.edges();
    crate::check!(!found.is_empty(), "the containment graph has no edges");
    let hits = found.iter().filter(|e| truth.contains(e)).count();
    Ok(hits as f64 / found.len() as f64)
}

/// Every true containment edge of `lake`, by brute force. The benchmark's
/// own work: never timed.
pub fn ground_truth(lake: &DataLake) -> Result<BTreeSet<(u64, u64)>, Failure> {
    let truth = r2d2_baselines::ground_truth::content_ground_truth(lake, &Meter::new())?;
    Ok(truth.containment_graph.edges().into_iter().collect())
}

/// A lake and the graph the program discovered over it, kept for
/// [`Discovered::precision`] at the end of a run, after the peak memory of
/// the program's work has been read.
pub struct Discovered {
    pub lake: DataLake,
    pub graph: ContainmentGraph,
}

impl Discovered {
    pub fn of(view: &SessionView) -> Discovered {
        Discovered {
            lake: view.lake().reader_view(),
            graph: view.graph().clone(),
        }
    }

    /// Edge precision against the lake's content ground truth.
    pub fn precision(&self) -> Result<f64, Failure> {
        precision(&self.graph, &ground_truth(&self.lake)?)
    }
}

/// Per-layer metrics of a traced run.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Time in the persistence calls the workload makes itself
    /// (`enable_persistence`, `checkpoint`, `restore`).
    pub persist_ms: f64,
    /// Time in `advise` (summed over a replay's commits).
    pub advise_ms: f64,
    /// One full scan of every dataset of the workload's final state.
    pub scan_ms: f64,
    /// Traced minus untraced time of the same work.
    pub overhead_ms: f64,
    pub csv_rows: u64,
    pub csv_rows_quarantined: u64,
    pub csv_bytes: u64,
    /// The session's writer-side counters.
    pub ops: OpCounts,
    pub updates_applied: u64,
    pub join_cache_sides: u64,
    pub edges: u64,
    pub components_resolved: u64,
    pub components_reused: u64,
    pub largest_component: u64,
    pub wal: WalStats,
    pub checkpoints: u64,
    pub dir_bytes: u64,
    pub wal_tail_updates: u64,
    /// Read-side counters of the full scan.
    pub reads: OpCounts,
    pub commits: u64,
    pub queue_depth_max: u64,
}

impl Layers {
    /// Read the counters a session keeps: writer meter, update count, join
    /// cache, graph, the last `advise` pass, WAL and persistence.
    pub fn read_session(&mut self, s: &mut R2d2Session) -> Result<(), Failure> {
        self.ops = s.ops();
        self.updates_applied = s.report().updates_applied as u64;
        self.join_cache_sides = s.cached_build_sides() as u64;
        self.edges = s.graph().edge_count() as u64;
        let resolve = s.advisor_stats().unwrap_or_default();
        self.components_resolved = resolve.components_resolved as u64;
        self.components_reused = resolve.components_reused as u64;
        self.largest_component = crate::inputs::largest_component(&s.advisor_problem()?) as u64;
        self.wal = s.wal_stats().unwrap_or_default();
        self.wal_tail_updates = s.wal_tail_updates().unwrap_or(0) as u64;
        Ok(())
    }

    /// Scan every dataset of `view` once, in full, with a span per query;
    /// records the scan's time and read counters and returns the rows read.
    pub fn scan(
        &mut self,
        tracer: &mut Tracer,
        op: u64,
        parent: Option<usize>,
        view: &SessionView,
    ) -> Result<usize, Failure> {
        let before = view.read_ops();
        let span = tracer.open("lake.scan", op, parent);
        let mut rows = 0;
        for id in view.lake().ids() {
            let (table, _) = tracer.leaf("lake.query", op, Some(span), || {
                view.query_dataset(id, &Predicate::True, None)
            });
            rows += table?.num_rows();
        }
        self.scan_ms = ms(tracer.close(span));
        self.reads = view.read_ops().since(&before);
        crate::check!(
            rows == view.lake().total_rows(),
            "a full scan read {rows} rows of {}",
            view.lake().total_rows()
        );
        Ok(rows)
    }

    pub fn outcome(&self, attempted: u64, failed: u64) -> Outcome {
        let mut out = Outcome::new(attempted, failed);
        let mut count = |name: &str, v: u64| out.put(name, v as f64, "count");
        count("lake.csv.rows", self.csv_rows);
        count("lake.csv.rows_quarantined", self.csv_rows_quarantined);
        count("lake.stats.string_hash_ops", self.ops.string_hash_ops);
        count("core.session.updates_applied", self.updates_applied);
        count("core.session.join_cache_sides", self.join_cache_sides);
        count("core.sgb.schema_comparisons", self.ops.schema_comparisons);
        count("core.mmp.distinct_prunes", self.ops.distinct_prunes);
        count("core.mmp.metadata_lookups", self.ops.metadata_lookups);
        count("core.clp.rows_hashed", self.ops.rows_hashed);
        count("core.clp.row_comparisons", self.ops.row_comparisons);
        count("core.clp.sketch_probes", self.ops.sketch_probes);
        count("core.clp.sketch_prunes", self.ops.sketch_prunes);
        count("core.graph.edges", self.edges);
        count("opt.advisor.components_resolved", self.components_resolved);
        count("opt.advisor.components_reused", self.components_reused);
        count("opt.advisor.largest_component", self.largest_component);
        count("lake.wal.records", self.wal.records);
        count("lake.wal.fsyncs", self.wal.fsyncs);
        count("lake.wal.segments_compacted", self.wal.segments_compacted);
        count("core.persist.checkpoints", self.checkpoints);
        count("core.persist.wal_tail_updates", self.wal_tail_updates);
        count(
            "lake.storage.pages_decoded",
            self.ops.pages_decoded + self.reads.pages_decoded,
        );
        count(
            "lake.storage.pages_skipped",
            self.ops.pages_skipped + self.reads.pages_skipped,
        );
        count("lake.query.rows_scanned", self.reads.rows_scanned);
        count(
            "lake.query.partitions_scanned",
            self.reads.partitions_scanned,
        );
        count("serve.commits", self.commits);
        count("serve.queue_depth_max", self.queue_depth_max);
        out.put("lake.csv.bytes", self.csv_bytes as f64, "B");
        out.put("core.persist.dir_bytes", self.dir_bytes as f64, "B");
        out.put(
            "lake.query.bytes_scanned",
            self.reads.bytes_scanned as f64,
            "B",
        );
        out.put("core.persist.ms", self.persist_ms, "ms");
        out.put("opt.advisor.advise_ms", self.advise_ms, "ms");
        out.put("lake.query.scan_ms", self.scan_ms, "ms");
        out.put("trace.overhead_ms", self.overhead_ms, "ms");
        out
    }
}

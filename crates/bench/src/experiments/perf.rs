//! Performance snapshot (`BENCH_pipeline.json`): sequential vs parallel
//! pipeline runs plus before/after measurements of the hot paths this repo
//! optimised (interned SGB comparisons, pre-sized scan gathering, O(k)
//! sampling, build-side hash caching).
//!
//! The "legacy" variants below reproduce the seed implementation's cost
//! shape (fold-over-`concat` accumulation, full-shuffle sampling, uncached
//! per-probe build hashing) so the speedups stay measurable after the
//! originals were replaced. They use only public lake APIs.

use super::time_best;
use crate::report::TextTable;
use r2d2_core::sgb::{build_schema_graph, build_schema_graph_string};
use r2d2_core::{PipelineConfig, R2d2Pipeline};
use r2d2_lake::query::{left_anti_join, left_anti_join_cached, scan, Predicate};
use r2d2_lake::{
    Column, Counter, DataType, HashJoinCache, LakeError, Meter, PartitionSpec, PartitionedTable,
    Result, Schema, SchemaSet, Table,
};
use r2d2_synth::corpus::{generate, CorpusSpec};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// One before/after measurement.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// What is being compared.
    pub name: String,
    /// Baseline (seed-shaped) wall clock.
    pub before: Duration,
    /// Current implementation wall clock.
    pub after: Duration,
}

impl Comparison {
    /// `before / after` (> 1 means the current code is faster).
    pub fn speedup(&self) -> f64 {
        let after = self.after.as_secs_f64();
        if after == 0.0 {
            f64::INFINITY
        } else {
            self.before.as_secs_f64() / after
        }
    }
}

/// The full snapshot serialised into `BENCH_pipeline.json`.
#[derive(Debug, Clone)]
pub struct PerfSnapshot {
    /// Hardware threads the machine reports.
    pub hardware_threads: usize,
    /// Name of the corpus the pipeline measurements ran on.
    pub corpus_name: String,
    /// Datasets in that corpus.
    pub corpus_datasets: usize,
    /// Total rows in that corpus.
    pub corpus_rows: usize,
    /// Full-pipeline sequential (`threads = 1`) vs parallel
    /// (`threads = 0`, i.e. all hardware threads) wall clock. `None` on a
    /// single-hardware-thread machine, where the two configurations run the
    /// same code and the "speedup" would be noise — the JSON marks the
    /// comparison as skipped with the reason instead.
    pub pipeline: Option<Comparison>,
    /// Seed-shaped full pipeline (string SGB + uncached sequential CLP with
    /// legacy sampling) vs the current pipeline at all hardware threads.
    pub pipeline_vs_seed: Comparison,
    /// Row-level operation count of the sequential pipeline run (identical
    /// for the parallel run — asserted by the determinism tests).
    pub pipeline_row_level_ops: u64,
    /// SGB with string `BTreeSet` subset checks vs interned id merge-walks.
    pub sgb: Comparison,
    /// Schema comparisons SGB performed (equal for both variants).
    pub sgb_comparisons: u64,
    /// Predicate scan: fold-over-concat accumulation vs pre-sized gather.
    pub scan: Comparison,
    /// Uniform sampling: full-shuffle vs partial Fisher–Yates.
    pub random_rows: Comparison,
    /// CLP-style anti-join sweep: per-probe build hashing vs shared cache.
    pub anti_join: Comparison,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1_000.0
}

fn fmt_ms(d: Duration) -> String {
    format!("{:.3}", ms(d))
}

impl PerfSnapshot {
    /// Render as a stable, hand-rolled JSON document.
    pub fn to_json(&self) -> String {
        let cmp = |c: &Comparison| {
            format!(
                "{{ \"before_ms\": {}, \"after_ms\": {}, \"speedup\": {:.2} }}",
                fmt_ms(c.before),
                fmt_ms(c.after),
                c.speedup()
            )
        };
        let seq_vs_par = match &self.pipeline {
            Some(c) => cmp(c),
            None => "{ \"skipped\": true, \"reason\": \"hardware_threads == 1: sequential and parallel run the same code, the ratio is noise\" }".to_string(),
        };
        format!(
            "{{\n  \"generated_by\": \"cargo run -p r2d2-bench --release --bin experiments -- bench-pipeline\",\n  \"hardware_threads\": {},\n  \"corpus\": {{ \"name\": \"{}\", \"datasets\": {}, \"rows\": {} }},\n  \"full_pipeline_seq_vs_par\": {},\n  \"full_pipeline_seed_vs_current\": {},\n  \"pipeline_row_level_ops\": {},\n  \"sgb_string_vs_interned\": {},\n  \"sgb_schema_comparisons\": {},\n  \"scan_fold_concat_vs_presized\": {},\n  \"random_rows_shuffle_vs_index_sample\": {},\n  \"anti_join_uncached_vs_cached\": {}\n}}\n",
            self.hardware_threads,
            self.corpus_name,
            self.corpus_datasets,
            self.corpus_rows,
            seq_vs_par,
            cmp(&self.pipeline_vs_seed),
            self.pipeline_row_level_ops,
            cmp(&self.sgb),
            self.sgb_comparisons,
            cmp(&self.scan),
            cmp(&self.random_rows),
            cmp(&self.anti_join),
        )
    }

    /// Render as an aligned text table for the console.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["measurement", "before (ms)", "after (ms)", "speedup"]);
        if self.pipeline.is_none() {
            t.add_row([
                "full pipeline threads=1 vs par".to_string(),
                "-".to_string(),
                "-".to_string(),
                "skipped (1 hw thread)".to_string(),
            ]);
        }
        for c in [
            self.pipeline.as_ref(),
            Some(&self.pipeline_vs_seed),
            Some(&self.sgb),
            Some(&self.scan),
            Some(&self.random_rows),
            Some(&self.anti_join),
        ]
        .into_iter()
        .flatten()
        {
            t.add_row([
                c.name.clone(),
                fmt_ms(c.before),
                fmt_ms(c.after),
                format!("{:.2}x", c.speedup()),
            ]);
        }
        t.render()
    }
}

// ---------------------------------------------------------------------------
// Legacy (seed-shaped) implementations, kept only for benchmarking.
// ---------------------------------------------------------------------------

/// The seed's scan: re-derives the predicate columns per partition and
/// accumulates matches by folding `Table::concat` (O(P²) values moved).
pub fn legacy_scan(
    table: &PartitionedTable,
    predicate: &Predicate,
    limit: Option<usize>,
    meter: &Meter,
) -> Result<Table> {
    for c in predicate.columns() {
        if table.schema().index_of(c).is_none() {
            return Err(LakeError::ColumnNotFound(c.to_string()));
        }
    }
    let mut out: Option<Table> = None;
    let mut collected = 0usize;
    for (part, meta) in table.partitions().iter().zip(table.partition_meta()) {
        if let Some(lim) = limit {
            if collected >= lim {
                break;
            }
        }
        meter.add(
            Counter::MetadataLookups,
            predicate.columns().len().max(1) as u64,
        );
        if !predicate.could_match_partition(meta) {
            meter.add(Counter::PartitionsPruned, 1);
            continue;
        }
        meter.add(Counter::PartitionsScanned, 1);
        meter.add(Counter::RowsScanned, part.num_rows() as u64);
        meter.add(Counter::BytesScanned, part.byte_size() as u64);
        let mut keep = Vec::new();
        for i in 0..part.num_rows() {
            if predicate.matches(part, i)? {
                keep.push(i);
                collected += 1;
                if let Some(lim) = limit {
                    if collected >= lim {
                        break;
                    }
                }
            }
        }
        let chunk = part.take(&keep)?;
        out = Some(match out {
            None => chunk,
            Some(acc) => acc.concat(&chunk)?,
        });
    }
    Ok(out.unwrap_or_else(|| Table::empty(table.schema().clone())))
}

/// The seed's sampler: shuffles a full `0..n` index vector to draw `k` rows,
/// then materialises them one `take` + `concat` at a time.
pub fn legacy_random_rows<R: Rng + ?Sized>(
    table: &PartitionedTable,
    k: usize,
    rng: &mut R,
    meter: &Meter,
) -> Result<Table> {
    let n = table.num_rows();
    let k = k.min(n);
    if k == 0 {
        return Ok(Table::empty(table.schema().clone()));
    }
    let mut global_indices: Vec<usize> = (0..n).collect();
    global_indices.shuffle(rng);
    let chosen: Vec<usize> = global_indices.into_iter().take(k).collect();

    let mut boundaries = Vec::with_capacity(table.num_partitions());
    let mut acc = 0usize;
    for p in table.partitions() {
        boundaries.push(acc);
        acc += p.num_rows();
    }
    let mut out: Option<Table> = None;
    for &g in &chosen {
        let pi = match boundaries.binary_search(&g) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let local = g - boundaries[pi];
        let part = &table.partitions()[pi];
        let row_tbl = part.take(&[local])?;
        out = Some(match out {
            None => row_tbl,
            Some(acc) => acc.concat(&row_tbl)?,
        });
    }
    meter.add(Counter::RowsScanned, k as u64);
    meter.add(
        Counter::BytesScanned,
        out.as_ref().map(|t| t.byte_size() as u64).unwrap_or(0),
    );
    Ok(out.unwrap_or_else(|| Table::empty(table.schema().clone())))
}

/// The seed's sequential CLP: one shared RNG, a fresh parent materialisation
/// and hash per edge (no build-side cache), legacy sampling primitives.
fn legacy_clp(
    lake: &r2d2_lake::DataLake,
    graph: &mut r2d2_graph::ContainmentGraph,
    config: &PipelineConfig,
    meter: &Meter,
) -> Result<()> {
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0xC1B0_5EED);
    for (parent_id, child_id) in graph.edges() {
        let parent = lake.dataset(r2d2_lake::DatasetId(parent_id))?;
        let child = lake.dataset(r2d2_lake::DatasetId(child_id))?;
        let child_schema = child.data.schema();
        let parent_set = parent.data.schema().schema_set();
        let common: Vec<String> = child_schema.schema_set().intersection(&parent_set);
        if common.len() < child_schema.len() {
            graph.remove_edge(parent_id, child_id);
            continue;
        }
        let join_cols: Vec<&str> = common.iter().map(String::as_str).collect();
        for _round in 0..config.clp_rounds.max(1) {
            // Seed-shaped predicate sampling: one random seed row, equality
            // clauses over up to `s` preferred columns, fall back to uniform
            // row sampling.
            let seed_row = legacy_random_rows(&child.data, 1, &mut rng, meter)?;
            let filter = if seed_row.is_empty() {
                None
            } else {
                let mut cols: Vec<&String> = common.iter().collect();
                cols.shuffle(&mut rng);
                let clauses: Vec<Predicate> = cols
                    .into_iter()
                    .take(config.clp_columns)
                    .filter_map(|col| {
                        let idx = seed_row.schema().index_of(col)?;
                        let value = seed_row.row(0).expect("one row").values()[idx].clone();
                        (!value.is_null()).then(|| Predicate::eq(col.clone(), value))
                    })
                    .collect();
                (!clauses.is_empty()).then(|| Predicate::and(clauses))
            };
            let sample = match &filter {
                Some(f) => {
                    let rows = legacy_scan(&child.data, f, Some(config.clp_rows), meter)?;
                    if rows.is_empty() {
                        legacy_random_rows(&child.data, config.clp_rows, &mut rng, meter)?
                    } else {
                        rows
                    }
                }
                None => legacy_random_rows(&child.data, config.clp_rows, &mut rng, meter)?,
            };
            if sample.is_empty() {
                continue;
            }
            let missing = left_anti_join(&sample, &parent.data, &join_cols, meter)?;
            if !missing.is_empty() {
                graph.remove_edge(parent_id, child_id);
                break;
            }
        }
    }
    Ok(())
}

/// The seed's full sequential pipeline: string-set SGB, sequential MMP,
/// uncached sequential CLP with legacy sampling.
fn legacy_full_pipeline(lake: &r2d2_lake::DataLake, config: &PipelineConfig) -> Result<()> {
    let meter = Meter::new();
    let schemas: Vec<(u64, SchemaSet)> = R2d2Pipeline::schema_sets(lake);
    let sgb = build_schema_graph_string(&schemas, &meter);
    let mut graph = sgb.graph;
    r2d2_core::mmp::min_max_prune(
        lake,
        &mut graph,
        r2d2_core::mmp::MmpOptions {
            typed_columns_only: config.mmp_typed_columns_only,
            // Seed-shaped baseline: no distinct-count gate.
            distinct_gate: false,
        },
        &meter,
    )?;
    legacy_clp(lake, &mut graph, config, &meter)
}

// ---------------------------------------------------------------------------
// Measurements.
// ---------------------------------------------------------------------------

fn micro_table(rows: i64, rows_per_partition: usize) -> PartitionedTable {
    let schema = Schema::flat(&[
        ("id", DataType::Int),
        ("grp", DataType::Utf8),
        ("amount", DataType::Float),
    ])
    .unwrap();
    let table = Table::new(
        schema,
        vec![
            Column::from_ints(0..rows),
            Column::from_strs((0..rows).map(|i| format!("g{}", i % 7))),
            Column::from_floats((0..rows).map(|i| i as f64 * 0.5)),
        ],
    )
    .unwrap();
    PartitionedTable::from_table(table, PartitionSpec::ByRowCount { rows_per_partition }).unwrap()
}

/// Run every measurement and assemble the snapshot.
///
/// `smoke` shrinks the inputs so integration tests can exercise this path in
/// seconds; the checked-in `BENCH_pipeline.json` is generated at full size.
pub fn collect(smoke: bool) -> PerfSnapshot {
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (corpus_rows, reps) = if smoke { (96, 1) } else { (1600, 3) };

    // Full pipeline: sequential vs all-hardware-threads on the largest
    // enterprise-like corpus.
    let spec = CorpusSpec::enterprise_like(0, corpus_rows);
    let corpus = generate(&spec).unwrap();
    let seq_pipeline = R2d2Pipeline::new(PipelineConfig::default().with_threads(1));
    let par_pipeline = R2d2Pipeline::new(PipelineConfig::default().with_threads(0));
    let par_time = time_best(reps, || {
        par_pipeline.run(&corpus.lake).unwrap();
    });
    // On one hardware thread "sequential vs parallel" compares a run
    // against itself; skip it instead of publishing a meaningless ratio.
    let seq_vs_par = (hardware_threads > 1).then(|| Comparison {
        name: format!("full pipeline threads=1 vs threads={hardware_threads}"),
        before: time_best(reps, || {
            seq_pipeline.run(&corpus.lake).unwrap();
        }),
        after: par_time,
    });
    corpus.lake.meter().reset();
    let report = seq_pipeline.run(&corpus.lake).unwrap();
    let row_level_ops = report
        .stages
        .iter()
        .map(|s| s.ops.row_level_ops())
        .sum::<u64>();

    // Seed-shaped full pipeline vs the current one (all hardware threads).
    let seed_time = time_best(reps, || {
        legacy_full_pipeline(&corpus.lake, &PipelineConfig::default()).unwrap();
    });

    // SGB: string vs interned containment checks (single-threaded).
    let schemas: Vec<(u64, SchemaSet)> = R2d2Pipeline::schema_sets(&corpus.lake);
    let sgb_string_time = time_best(reps * 3, || {
        build_schema_graph_string(&schemas, &Meter::new());
    });
    let sgb_interned_time = time_best(reps * 3, || {
        build_schema_graph(&schemas, &Meter::new());
    });
    let sgb_comparisons = build_schema_graph(&schemas, &Meter::new()).schema_comparisons;

    // Scan: fold-concat vs pre-sized gather over a many-partition table.
    let (scan_rows, scan_parts) = if smoke { (20_000, 100) } else { (120_000, 400) };
    let scan_table = micro_table(scan_rows, scan_rows as usize / scan_parts);
    let scan_legacy_time = time_best(reps, || {
        legacy_scan(&scan_table, &Predicate::True, None, &Meter::new()).unwrap();
    });
    let scan_new_time = time_best(reps, || {
        scan(&scan_table, &Predicate::True, None, &Meter::new()).unwrap();
    });

    // Sampling: full shuffle vs O(k) index sample, k ≪ n.
    let sample_k = 10usize;
    let sample_legacy_time = time_best(reps * 10, || {
        let mut rng = SmallRng::seed_from_u64(1);
        legacy_random_rows(&scan_table, sample_k, &mut rng, &Meter::new()).unwrap();
    });
    let sample_new_time = time_best(reps * 10, || {
        let mut rng = SmallRng::seed_from_u64(1);
        r2d2_lake::query::random_rows(&scan_table, sample_k, &mut rng, &Meter::new()).unwrap();
    });

    // CLP-style anti-join sweep: many probes against one parent.
    let probe_count = if smoke { 8 } else { 24 };
    let cols = ["id", "grp", "amount"];
    let probes: Vec<Table> = (0..probe_count)
        .map(|i| {
            let mut rng = SmallRng::seed_from_u64(100 + i as u64);
            r2d2_lake::query::random_rows(&scan_table, 10, &mut rng, &Meter::new()).unwrap()
        })
        .collect();
    let anti_uncached_time = time_best(reps, || {
        for p in &probes {
            left_anti_join(p, &scan_table, &cols, &Meter::new()).unwrap();
        }
    });
    let anti_cached_time = time_best(reps, || {
        let cache = HashJoinCache::new();
        for p in &probes {
            left_anti_join_cached(p, 1, 0, &scan_table, &cols, &Meter::new(), &cache).unwrap();
        }
    });

    PerfSnapshot {
        hardware_threads,
        corpus_name: corpus.name.clone(),
        corpus_datasets: corpus.dataset_count(),
        corpus_rows: corpus.lake.total_rows(),
        pipeline: seq_vs_par,
        pipeline_vs_seed: Comparison {
            name: "full pipeline seed-shaped vs current".to_string(),
            before: seed_time,
            after: par_time,
        },
        pipeline_row_level_ops: row_level_ops,
        sgb: Comparison {
            name: "SGB string sets vs interned ids".to_string(),
            before: sgb_string_time,
            after: sgb_interned_time,
        },
        sgb_comparisons,
        scan: Comparison {
            name: format!("scan {scan_rows} rows / {scan_parts} partitions"),
            before: scan_legacy_time,
            after: scan_new_time,
        },
        random_rows: Comparison {
            name: format!("random_rows k={sample_k} of n={scan_rows}"),
            before: sample_legacy_time,
            after: sample_new_time,
        },
        anti_join: Comparison {
            name: format!("{probe_count} anti-join probes, shared parent"),
            before: anti_uncached_time,
            after: anti_cached_time,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_variants_agree_with_current() {
        let pt = micro_table(500, 50);
        let pred = Predicate::eq("grp", r2d2_lake::Value::Str("g3".into()));
        let legacy = legacy_scan(&pt, &pred, None, &Meter::new()).unwrap();
        let current = scan(&pt, &pred, None, &Meter::new()).unwrap();
        assert_eq!(legacy.num_rows(), current.num_rows());
        let a = legacy
            .row_hash_multiset(&["id", "grp", "amount"], &Meter::new())
            .unwrap();
        let b = current
            .row_hash_multiset(&["id", "grp", "amount"], &Meter::new())
            .unwrap();
        assert_eq!(a, b);

        let mut rng = SmallRng::seed_from_u64(5);
        let s1 = legacy_random_rows(&pt, 20, &mut rng, &Meter::new()).unwrap();
        assert_eq!(s1.num_rows(), 20);
    }

    #[test]
    fn snapshot_renders_json_and_table() {
        let snap = collect(true);
        let json = snap.to_json();
        assert!(json.contains("full_pipeline_seq_vs_par"));
        assert!(json.contains("sgb_string_vs_interned"));
        assert!(json.contains("\"speedup\""));
        let table = snap.render();
        assert!(table.contains("speedup"));
        assert!(snap.sgb_comparisons > 0);
        assert!(snap.pipeline_row_level_ops > 0);
    }
}

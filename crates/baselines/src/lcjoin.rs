//! LCJoin-style set-containment baselines (§6.4.2).
//!
//! LCJoin \[9\] finds subset relations between sets from two collections.
//! The paper explains two ways to map table containment onto that problem,
//! and why both give inaccurate results:
//!
//! * **columns as sets** — treat every column as a set of values and declare
//!   table containment when every child column is a subset of the matching
//!   parent column. This ignores row-tuple structure (footnote 6's
//!   `(June, 20), (May, 12)` example), so it over-reports containment.
//! * **rows as sets** — treat every table as a set whose elements are whole
//!   row tuples. Because the elements of the two tables have different
//!   arities when the schemas differ, genuine containment across a column
//!   subset is missed, so it under-reports containment.
//!
//! Both variants are implemented so the experiment harness can show their
//! failure modes next to R2D2's results.

use r2d2_graph::ContainmentGraph;
use r2d2_lake::{Counter, DataLake, Meter, Result, RowHash};
use std::collections::HashSet;

/// Columns-as-sets variant: for a candidate edge, require every common
/// column of the child to be a value-subset of the parent's same-named
/// column. Applied to every schema-containment pair.
pub fn columns_as_sets_graph(lake: &DataLake, meter: &Meter) -> Result<ContainmentGraph> {
    let entries: Vec<_> = lake.iter().collect();
    let mut graph = ContainmentGraph::new();
    for e in &entries {
        graph.add_dataset(e.id.0);
    }
    for child in &entries {
        for parent in &entries {
            if child.id == parent.id {
                continue;
            }
            let child_set = child.data.schema().schema_set();
            let parent_set = parent.data.schema().schema_set();
            if !child_set.is_contained_in(&parent_set) {
                continue;
            }
            meter.add(Counter::SchemaComparisons, 1);
            let child_table = child.data.to_table(meter)?;
            let parent_table = parent.data.to_table(meter)?;
            let mut all_contained = true;
            for col in child_table.schema().names() {
                let child_vals: HashSet<RowHash> =
                    child_table.row_hashes(&[col], meter)?.into_iter().collect();
                let parent_vals: HashSet<RowHash> = parent_table
                    .row_hashes(&[col], meter)?
                    .into_iter()
                    .collect();
                meter.add(Counter::RowComparisons, child_vals.len() as u64);
                if !child_vals.is_subset(&parent_vals) {
                    all_contained = false;
                    break;
                }
            }
            if all_contained {
                graph.add_edge(parent.id.0, child.id.0);
            }
        }
    }
    Ok(graph)
}

/// Rows-as-sets variant: hash every full row tuple of each table (over the
/// table's *own* schema) and declare containment when the child's hash set
/// is a subset of the parent's. Misses containment whenever the schemas
/// differ, because the tuples have different widths.
pub fn rows_as_sets_graph(lake: &DataLake, meter: &Meter) -> Result<ContainmentGraph> {
    let entries: Vec<_> = lake.iter().collect();
    let mut graph = ContainmentGraph::new();
    let mut row_sets: Vec<(u64, HashSet<RowHash>)> = Vec::with_capacity(entries.len());
    for e in &entries {
        graph.add_dataset(e.id.0);
        let cols = e.data.schema().names();
        let table = e.data.to_table(meter)?;
        let hashes: HashSet<RowHash> = table.row_hashes(&cols, meter)?.into_iter().collect();
        row_sets.push((e.id.0, hashes));
    }
    for (child_id, child_rows) in &row_sets {
        for (parent_id, parent_rows) in &row_sets {
            if child_id == parent_id {
                continue;
            }
            meter.add(Counter::RowComparisons, child_rows.len() as u64);
            if child_rows.is_subset(parent_rows) {
                graph.add_edge(*parent_id, *child_id);
            }
        }
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_graph::diff::diff;
    use r2d2_lake::{AccessProfile, Column, DataType, PartitionedTable, Schema, Table};

    /// Footnote-6 style lake: two tables whose columns are mutually contained
    /// as value sets but whose row tuples are not, plus a genuine
    /// parent/child pair over a column subset.
    fn lake() -> (DataLake, u64, u64, u64, u64) {
        let schema2 = Schema::flat(&[("month", DataType::Utf8), ("day", DataType::Int)]).unwrap();
        let t1 = Table::new(
            schema2.clone(),
            vec![
                Column::from_strs(["June", "May"]),
                Column::from_ints([20, 12]),
            ],
        )
        .unwrap();
        let t2 = Table::new(
            schema2,
            vec![
                Column::from_strs(["June", "May"]),
                Column::from_ints([12, 20]),
            ],
        )
        .unwrap();

        let wide_schema = Schema::flat(&[
            ("id", DataType::Int),
            ("name", DataType::Utf8),
            ("score", DataType::Float),
        ])
        .unwrap();
        let parent = Table::new(
            wide_schema,
            vec![
                Column::from_ints(0..20),
                Column::from_strs((0..20).map(|i| format!("n{i}"))),
                Column::from_floats((0..20).map(|i| i as f64)),
            ],
        )
        .unwrap();
        // Child: a projection (fewer columns) of the first 8 rows.
        let child = parent
            .project(&["id", "name"])
            .unwrap()
            .take(&(0..8).collect::<Vec<_>>())
            .unwrap();

        let mut lake = DataLake::new();
        let a = lake
            .add_dataset(
                "t1",
                PartitionedTable::single(t1),
                AccessProfile::default(),
                None,
            )
            .unwrap()
            .0;
        let b = lake
            .add_dataset(
                "t2",
                PartitionedTable::single(t2),
                AccessProfile::default(),
                None,
            )
            .unwrap()
            .0;
        let p = lake
            .add_dataset(
                "parent",
                PartitionedTable::single(parent),
                AccessProfile::default(),
                None,
            )
            .unwrap()
            .0;
        let c = lake
            .add_dataset(
                "child",
                PartitionedTable::single(child),
                AccessProfile::default(),
                None,
            )
            .unwrap()
            .0;
        (lake, a, b, p, c)
    }

    #[test]
    fn columns_as_sets_over_reports_containment() {
        let (lake, a, b, ..) = lake();
        let g = columns_as_sets_graph(&lake, &Meter::new()).unwrap();
        // Footnote 6: column-wise both tables look contained in each other,
        // even though no row tuple matches.
        assert!(g.has_edge(a, b));
        assert!(g.has_edge(b, a));
    }

    #[test]
    fn rows_as_sets_misses_projection_containment() {
        let (lake, _, _, p, c) = lake();
        let g = rows_as_sets_graph(&lake, &Meter::new()).unwrap();
        // The child is genuinely contained in the parent (over its own
        // schema), but the whole-row-tuple view cannot see it.
        assert!(!g.has_edge(p, c));
    }

    #[test]
    fn rows_as_sets_finds_same_schema_containment() {
        // When schemas match exactly, the rows-as-sets view works.
        let schema = Schema::flat(&[("x", DataType::Int)]).unwrap();
        let parent = Table::new(schema.clone(), vec![Column::from_ints(0..10)]).unwrap();
        let child = Table::new(schema, vec![Column::from_ints(2..5)]).unwrap();
        let mut lake = DataLake::new();
        let p = lake
            .add_dataset(
                "p",
                PartitionedTable::single(parent),
                AccessProfile::default(),
                None,
            )
            .unwrap()
            .0;
        let c = lake
            .add_dataset(
                "c",
                PartitionedTable::single(child),
                AccessProfile::default(),
                None,
            )
            .unwrap()
            .0;
        let g = rows_as_sets_graph(&lake, &Meter::new()).unwrap();
        assert!(g.has_edge(p, c));
        assert!(!g.has_edge(c, p));
    }

    #[test]
    fn both_baselines_differ_from_true_containment() {
        let (lake, ..) = lake();
        let truth = crate::ground_truth::content_ground_truth(&lake, &Meter::new())
            .unwrap()
            .containment_graph;
        let cols = columns_as_sets_graph(&lake, &Meter::new()).unwrap();
        let rows = rows_as_sets_graph(&lake, &Meter::new()).unwrap();
        let d_cols = diff(&cols, &truth);
        let d_rows = diff(&rows, &truth);
        assert!(
            d_cols.incorrect > 0,
            "columns-as-sets should report spurious edges"
        );
        assert!(
            d_rows.not_detected > 0,
            "rows-as-sets should miss the projection edge"
        );
    }
}

//! A stationary update stream for the serve and restart workloads.
//!
//! The stream repeats four-update cycles so that the lake neither grows nor
//! shrinks over a run. Its updates target the *base* datasets: the growth
//! subsets of the serve lake, which all have the same size and all sit in
//! the advisor's largest component, so every update costs about the same
//! and every publish re-solves that component.
//!
//! 1. `AddDataset`: half the rows of a random base dataset, as a new
//!    dataset. Catalog ids are handed out sequentially, so the id it gets is
//!    known in advance.
//! 2. `DeleteRows`: the rows of a random base dataset whose first column
//!    equals one of its values.
//! 3. `AppendRows`: exactly those rows back into the same dataset, so the
//!    delete and the append balance.
//! 4. `DropDataset`: the dataset added [`DROP_LAG`] cycles earlier.
//!
//! A stream ends with the drops of the datasets still added, so it leaves
//! the lake with the content it started from. Every update succeeds against
//! the lake it was generated from, applied in order, whether the updates
//! arrive one per batch or grouped.

use crate::metrics::Failure;
use r2d2_lake::{
    AccessProfile, DataLake, DatasetId, LakeUpdate, Meter, PartitionedTable, Predicate, Table,
    Value,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Cycles an added dataset lives before it is dropped.
pub const DROP_LAG: usize = 2;

pub struct StreamSource {
    base: Vec<DatasetId>,
    tables: BTreeMap<DatasetId, Table>,
    next_id: u64,
}

impl StreamSource {
    /// Materialise the base datasets (those named with `base_prefix`) once.
    /// `lake` must be the lake the stream will be applied to, before any
    /// update.
    pub fn new(lake: &DataLake, base_prefix: &str) -> Result<StreamSource, Failure> {
        let meter = Meter::new();
        let mut tables = BTreeMap::new();
        for entry in lake.iter() {
            if entry.name.starts_with(base_prefix) && entry.num_rows() >= 2 {
                tables.insert(entry.id, entry.data.to_table(&meter)?);
            }
        }
        let next_id = lake.ids().iter().map(|id| id.0 + 1).max().unwrap_or(0);
        if tables.is_empty() {
            return Err(Failure::from(format!(
                "no base datasets named {base_prefix}*"
            )));
        }
        Ok(StreamSource {
            base: tables.keys().copied().collect(),
            tables,
            next_id,
        })
    }

    /// The stream for `seed`: whole cycles until at least `n` updates, then
    /// the closing drops. Streams of one seed share their prefix.
    pub fn updates(&self, n: usize, seed: u64) -> Result<Vec<LakeUpdate>, Failure> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(n + 3);
        let mut cycle = 0usize;
        while out.len() < n {
            // 1. Add a subset.
            let source = self.base[rng.gen_range(0..self.base.len())];
            let t = &self.tables[&source];
            let half: Vec<usize> = (0..t.num_rows() / 2).collect();
            out.push(LakeUpdate::AddDataset {
                name: format!("stream/add_{cycle}"),
                data: PartitionedTable::single(t.take(&half)?),
                access: AccessProfile::default(),
                lineage: None,
            });
            // 2 + 3. Delete a value's rows, then append them back.
            let (id, predicate, rows) = self.delete_target(&mut rng)?;
            out.push(LakeUpdate::DeleteRows { id, predicate });
            out.push(LakeUpdate::AppendRows { id, rows });
            // 4. Drop an earlier add.
            if cycle >= DROP_LAG {
                out.push(LakeUpdate::DropDataset {
                    id: DatasetId(self.next_id + (cycle - DROP_LAG) as u64),
                });
            }
            cycle += 1;
        }
        for live in cycle.saturating_sub(DROP_LAG)..cycle {
            out.push(LakeUpdate::DropDataset {
                id: DatasetId(self.next_id + live as u64),
            });
        }
        Ok(out)
    }

    /// A base dataset, an equality predicate on its first column that
    /// matches at least one row, and the rows it matches.
    fn delete_target(&self, rng: &mut SmallRng) -> Result<(DatasetId, Predicate, Table), Failure> {
        for _ in 0..64 {
            let id = self.base[rng.gen_range(0..self.base.len())];
            let t = &self.tables[&id];
            let name = t.schema().names()[0].to_string();
            let values = t.column(&name)?.values();
            let v = values[rng.gen_range(0..values.len())].clone();
            let usable = match &v {
                Value::Null => false,
                Value::Float(f) => f.is_finite(),
                _ => true,
            };
            if !usable {
                continue;
            }
            let idx: Vec<usize> = (0..values.len()).filter(|&i| values[i] == v).collect();
            // Keep the dataset non-empty between the delete and the append.
            if idx.len() == values.len() {
                continue;
            }
            let rows = t.take(&idx)?;
            return Ok((id, Predicate::eq(name, v), rows));
        }
        Err(Failure::from(
            "no base dataset has a usable delete predicate",
        ))
    }
}

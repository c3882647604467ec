//! The environment record printed with every result: machine, build,
//! seed, flush policy and the sizes of the inputs the run measured.

use crate::Args;

/// Snapshot every `SNAPSHOT_EVERY` updates (auto-checkpoint cadence).
pub const SNAPSHOT_EVERY: usize = 64;
/// Rebase to a full snapshot after this many deltas.
pub const REBASE_EVERY: usize = 8;
/// Rotate the active WAL segment past this many bytes.
pub const WAL_SEGMENT_MAX_BYTES: u64 = 256 * 1024;

/// The persistence policy every persisted workload runs with.
pub fn persistence(dir: &std::path::Path) -> r2d2_core::PersistenceConfig {
    r2d2_core::PersistenceConfig::new(dir)
        .with_snapshot_every(SNAPSHOT_EVERY)
        .with_rebase_every(REBASE_EVERY)
        .with_wal_segment_max_bytes(WAL_SEGMENT_MAX_BYTES)
}

/// Hardware threads of this machine.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[derive(Debug, Clone)]
pub struct Environment {
    /// `(key, JSON value)` in insertion order.
    fields: Vec<(String, String)>,
}

impl Environment {
    pub fn new(args: &Args) -> Environment {
        let mut env = Environment { fields: Vec::new() };
        env.text("workload", &args.workload);
        env.num("seed", args.seed as f64);
        env.num("seconds", args.seconds);
        env.num("trace", if args.trace { 1.0 } else { 0.0 });
        env.num("nproc", nproc() as f64);
        env.text(
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        );
        env.text("commit", &args.commit);
        env.text("rustc", &args.rustc);
        env.raw(
            "flush_policy",
            format!(
                "{{\"wal_fsync\": \"per commit\", \"snapshot_every_updates\": {SNAPSHOT_EVERY}, \"rebase_every_deltas\": {REBASE_EVERY}, \"wal_segment_max_bytes\": {WAL_SEGMENT_MAX_BYTES}}}"
            ),
        );
        env
    }

    pub fn raw(&mut self, key: &str, json: String) {
        self.fields.retain(|(k, _)| k != key);
        self.fields.push((key.to_string(), json));
    }

    pub fn num(&mut self, key: &str, v: f64) {
        self.raw(key, crate::metrics::json_number(v));
    }

    pub fn text(&mut self, key: &str, v: &str) {
        let escaped: String = v
            .chars()
            .filter(|c| !c.is_control())
            .collect::<String>()
            .replace('\\', "\\\\")
            .replace('"', "\\\"");
        self.raw(key, format!("\"{escaped}\""));
    }

    /// Corpus size fields under `prefix`.
    pub fn corpus(&mut self, prefix: &str, lake: &r2d2_lake::DataLake) {
        self.raw(
            prefix,
            format!(
                "{{\"datasets\": {}, \"rows\": {}, \"bytes\": {}}}",
                lake.len(),
                lake.total_rows(),
                lake.total_bytes()
            ),
        );
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"environment\": {{{}}}}}", body.join(", "))
    }
}

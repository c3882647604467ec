//! Input generation, cached on disk.
//!
//! Each workload runs over one fixed lake, so that runs at different seeds
//! measure the same amount and shape of work; `--seed` draws everything
//! sampled over that lake: the sabotage rows appended to the ingest CSV
//! files, the pipeline's sampling seed (CLP column and row samples), the
//! serve and restart update streams and the reader's query sequence.
//!
//! Generating a corpus and its content ground truth is the benchmark's own
//! work, never the program's: it is timed separately (reported in the
//! environment record as `inputs_s`) and kept out of `setup_s`. What can be
//! stored on disk — the sabotaged CSV directory (per seed) and the wide
//! corpus' content ground truth — is written once under `.bench_cache/` and
//! reused by later runs.

use crate::metrics::Failure;
use crate::Dirs;
use r2d2_core::{IngestOptions, PipelineConfig, R2d2Session};
use r2d2_lake::{DataLake, Meter};
use r2d2_synth::corpus::{generate, Corpus, CorpusSpec};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Hostile ingest corpus: roots × rows per root (5 datasets per root).
pub const HOSTILE_ROOTS: usize = 32;
pub const HOSTILE_ROWS_PER_ROOT: usize = 768;
/// Wide discovery corpus: families × rows per root (5 datasets per family).
pub const WIDE_FAMILIES: usize = 96;
pub const WIDE_ROWS_PER_ROOT: usize = 1024;
/// Serve/restart lake: the Customer-1-like enterprise corpus, variant 0.
pub const SERVE_ROWS_PER_ROOT: usize = 600;
/// Subset datasets added to the serve lake before bootstrap, so that its
/// largest advisor component exceeds the exact solver's limit and the
/// greedy solver runs on every publish.
pub const SERVE_GROWTH_SUBSETS: usize = 28;
/// Name prefix of those subsets: the base datasets of the update streams.
pub const GROWTH_PREFIX: &str = "growth/";

/// SplitMix64 finaliser: decorrelates nearby seeds.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// CLP samplings the `ingest` and `discover` passes cycle through; their
/// quality figures are the mean over the samplings.
pub const SAMPLINGS: usize = 8;

/// The pipeline seed of pass `i`: passes cycle through [`SAMPLINGS`] CLP
/// samplings drawn from the run's seed.
pub fn sampling_seed(seed: u64, i: usize) -> u64 {
    mix(seed).wrapping_add((i % SAMPLINGS) as u64)
}

/// What one sampling found, kept from its first pass.
pub struct Sampling {
    pub counters: String,
    pub precision: f64,
    pub cost_ratio: f64,
}

/// Pipeline configuration of every session the benchmark builds.
pub fn pipeline_config(seed: u64, threads: usize) -> PipelineConfig {
    PipelineConfig::default()
        .with_seed(mix(seed ^ 0xC1_A55E5))
        .with_threads(threads)
}

fn seed_dir(dirs: &Dirs, seed: u64) -> PathBuf {
    dirs.cache.join(format!("seed-{seed}"))
}

/// The emitted hostile CSV directory and what ingesting it must yield.
#[derive(Debug, Clone)]
pub struct HostileCsv {
    pub dir: PathBuf,
    pub files: usize,
    /// Rows of the source lake: exactly the rows that must survive.
    pub rows: usize,
    /// Sabotage rows appended by the emitter: exactly the rows that must be
    /// quarantined.
    pub sabotage_rows: usize,
    pub bytes: u64,
}

/// Emit (or reuse) the sabotaged hostile CSV corpus for `seed`.
pub fn hostile_csv(dirs: &Dirs, seed: u64) -> Result<HostileCsv, Failure> {
    let root =
        seed_dir(dirs, seed).join(format!("hostile-{HOSTILE_ROOTS}x{HOSTILE_ROWS_PER_ROOT}"));
    let dir = root.join("csv");
    let meta = root.join("meta.txt");
    if let Ok(text) = std::fs::read_to_string(&meta) {
        let v: Vec<usize> = text
            .split_whitespace()
            .filter_map(|w| w.parse().ok())
            .collect();
        if let [files, rows, sabotage_rows] = v[..] {
            return Ok(HostileCsv {
                bytes: crate::metrics::dir_bytes(&dir),
                dir,
                files,
                rows,
                sabotage_rows,
            });
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&dir)?;
    let corpus = generate(&CorpusSpec::hostile(HOSTILE_ROOTS, HOSTILE_ROWS_PER_ROOT))?;
    let files = r2d2_synth::emit::write_lake_csv(&corpus.lake, &dir, Some(mix(seed ^ 0x5AB0)))?;
    // The emitter appends a too-long and a dangling-quote row to every
    // file, plus a too-short row when the table has more than one column.
    let sabotage_rows: usize = corpus
        .lake
        .iter()
        .map(|e| 2 + usize::from(e.data.schema().len() > 1))
        .sum();
    let rows = corpus.lake.total_rows();
    std::fs::write(&meta, format!("{files} {rows} {sabotage_rows}\n"))?;
    Ok(HostileCsv {
        bytes: crate::metrics::dir_bytes(&dir),
        dir,
        files,
        rows,
        sabotage_rows,
    })
}

/// The wide discovery corpus.
pub fn wide_corpus() -> Result<Corpus, Failure> {
    Ok(generate(&CorpusSpec::wide(
        WIDE_FAMILIES,
        WIDE_ROWS_PER_ROOT,
    ))?)
}

/// Content ground truth of the wide corpus (every true containment edge),
/// computed by brute force once and cached.
pub fn wide_truth(dirs: &Dirs, lake: &DataLake) -> Result<BTreeSet<(u64, u64)>, Failure> {
    let path = dirs.cache.join(format!(
        "wide-{WIDE_FAMILIES}x{WIDE_ROWS_PER_ROOT}-truth.txt"
    ));
    cached_truth(&path, || Ok(lake.reader_view()))
}

/// Content ground truth of the lake that ingesting `csv` yields, cached
/// beside the CSV directory. The lake comes from an ingest without
/// persistence or advisor, which numbers datasets as every pass does.
pub fn ingest_truth(csv: &HostileCsv) -> Result<BTreeSet<(u64, u64)>, Failure> {
    let path = csv.dir.with_file_name("truth.txt");
    cached_truth(&path, || {
        let mut s = R2d2Session::bootstrap(DataLake::new(), pipeline_config(0, 1))?;
        s.ingest_dir(&csv.dir, &IngestOptions::default())?;
        Ok(s.lake().reader_view())
    })
}

/// The ground truth stored at `path`, or computed over `lake()` and stored.
fn cached_truth(
    path: &Path,
    lake: impl FnOnce() -> Result<DataLake, Failure>,
) -> Result<BTreeSet<(u64, u64)>, Failure> {
    if let Ok(text) = std::fs::read_to_string(path) {
        if let Some(body) = text.strip_prefix("edges\n") {
            let mut edges = BTreeSet::new();
            for line in body.lines() {
                let mut it = line.split(' ').map(|w| w.parse::<u64>());
                if let (Some(Ok(p)), Some(Ok(c))) = (it.next(), it.next()) {
                    edges.insert((p, c));
                }
            }
            return Ok(edges);
        }
    }
    let edges = crate::report::ground_truth(&lake()?)?;
    let mut text = String::from("edges\n");
    for (p, c) in &edges {
        text.push_str(&format!("{p} {c}\n"));
    }
    write_atomic(path, &text)?;
    Ok(edges)
}

/// The serve/restart lake: the Customer-1-like corpus plus
/// [`SERVE_GROWTH_SUBSETS`] sliding-window subsets of its largest dataset,
/// added straight to the catalog before any session exists.
pub fn serve_lake() -> Result<DataLake, Failure> {
    let corpus = generate(&CorpusSpec::enterprise_like(0, SERVE_ROWS_PER_ROOT))?;
    let mut lake = corpus.lake;
    let meter = Meter::new();
    let (hub, table) = {
        let entry = lake
            .iter()
            .max_by_key(|e| (e.num_rows(), std::cmp::Reverse(e.id)))
            .ok_or("empty serve corpus")?;
        (entry.id, entry.data.to_table(&meter)?)
    };
    let n = table.num_rows();
    let window = (n / 2).max(1);
    for g in 0..SERVE_GROWTH_SUBSETS {
        let start = g * (n - window) / SERVE_GROWTH_SUBSETS.max(1);
        let idx: Vec<usize> = (start..start + window).collect();
        lake.add_dataset(
            format!("{GROWTH_PREFIX}{}_{g}", hub.0),
            r2d2_lake::PartitionedTable::single(table.take(&idx)?),
            r2d2_lake::AccessProfile::default(),
            None,
        )?;
    }
    Ok(lake)
}

/// Exact-repeat record: the run's deterministic counters, stored per
/// (workload, seed, source digest). A later run with the same key must
/// print the same text, or the run fails.
pub fn check_repeat(dirs: &Dirs, key: &str, counters: &str) -> Result<bool, Failure> {
    let path = dirs.out.join(format!("counters-{key}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(previous) => {
            crate::check!(
                previous == counters,
                "deterministic counters differ from an earlier run with the same seed ({}):\nearlier:\n{previous}\nnow:\n{counters}",
                path.display()
            );
            Ok(true)
        }
        Err(_) => {
            write_atomic(&path, counters)?;
            Ok(false)
        }
    }
}

fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// The storage advisor every workload attaches: default Eq. 3 prices,
/// containment edges admitted without lineage records (synthetic and
/// ingested lakes carry none).
pub fn advisor() -> (r2d2_opt::CostModel, r2d2_core::AdvisorConfig) {
    (
        r2d2_opt::CostModel::default(),
        r2d2_core::AdvisorConfig::default()
            .with_knowledge(r2d2_opt::preprocess::TransformKnowledge::AssumeKnown),
    )
}

/// Nodes in the largest weakly connected component of an Opt-Ret instance
/// (the unit the advisor solves, exactly up to
/// `r2d2_opt::solver::EXACT_COMPONENT_LIMIT` nodes and greedily beyond).
pub fn largest_component(problem: &r2d2_opt::OptRetProblem) -> usize {
    let ids: Vec<u64> = problem.nodes.keys().copied().collect();
    let index: std::collections::BTreeMap<u64, usize> =
        ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut parent: Vec<usize> = (0..ids.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for e in &problem.edges {
        if let (Some(&a), Some(&b)) = (index.get(&e.parent), index.get(&e.child)) {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            parent[ra] = rb;
        }
    }
    let mut sizes = vec![0usize; ids.len()];
    for i in 0..ids.len() {
        let r = find(&mut parent, i);
        sizes[r] += 1;
    }
    sizes.into_iter().max().unwrap_or(0)
}

/// Advised Eq. 3 total cost over the retain-all cost (lower is better).
pub fn cost_ratio(session: &mut r2d2_core::R2d2Session) -> Result<f64, Failure> {
    let report = session.advisor_report()?;
    crate::check!(
        report.retain_all_cost > 0.0,
        "retain-all cost must be positive"
    );
    Ok(report.total_cost / report.retain_all_cost)
}

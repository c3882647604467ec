//! `ingest`: a CSV directory becoming the first served epoch — cold and
//! write-heavy, and the only workload where `lake::csv` runs.
//!
//! A pass attaches persistence and the advisor to an empty session, then
//! times `ingest_dir` → `advise` → `R2d2Server::start` →
//! `handle().epoch()` over the sabotaged hostile corpus, at one pipeline
//! thread; `op_p50_ms` is the median pass. Passes cycle through the CLP
//! samplings drawn from the seed, and the quality figures are their mean.

use crate::inputs::{
    self, advisor, largest_component, sampling_seed, HostileCsv, Sampling, SAMPLINGS,
};
use crate::metrics::{median, ms, Failure, Outcome};
use crate::report::{self, EndToEnd, Layers};
use crate::trace::Tracer;
use crate::{check, env, Args, Dirs};
use r2d2_core::{IngestOptions, IngestReport, R2d2Session};
use r2d2_lake::csv::read_csv;
use r2d2_lake::{AccessProfile, DataLake, LakeUpdate, PartitionSpec, PartitionedTable};
use r2d2_serve::{R2d2Server, ServeConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Untimed warm-up passes before the timed loop; the median of their full
/// duration (set-up plus ingest) is `setup_s`. Attaching persistence and the
/// advisor alone takes about a millisecond of fsyncs, too little to compare
/// across runs on a shared disk.
const WARMUP_PASSES: usize = 5;
/// Passes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Untraced and traced passes of the traced run.
const TRACED_PASSES: usize = 2;

/// An empty persisted session with the advisor attached: the state the
/// timed phase starts from.
fn setup(seed: u64, dir: &Path) -> Result<(R2d2Session, Duration), Failure> {
    crate::metrics::remove_dir(dir)?;
    let t0 = Instant::now();
    let mut session = R2d2Session::bootstrap(DataLake::new(), inputs::pipeline_config(seed, 1))?;
    session.enable_persistence(env::persistence(dir))?;
    let (model, config) = advisor();
    session.enable_advisor(model, config)?;
    Ok((session, t0.elapsed()))
}

struct Pass {
    session: R2d2Session,
    report: IngestReport,
    setup: Duration,
    elapsed: Duration,
}

fn pass(seed: u64, csv: &HostileCsv, dir: &Path) -> Result<Pass, Failure> {
    let (mut session, setup) = setup(seed, dir)?;
    let t0 = Instant::now();
    let report = session.ingest_dir(&csv.dir, &IngestOptions::default())?;
    session.advise()?;
    let server = R2d2Server::start(session, ServeConfig::default());
    let epoch = server.handle().epoch();
    let elapsed = t0.elapsed();
    check!(
        epoch.datasets() == report.datasets_added(),
        "first served epoch has {} datasets, ingest added {}",
        epoch.datasets(),
        report.datasets_added()
    );
    drop(epoch);
    Ok(Pass {
        session: server.shutdown(),
        report,
        setup,
        elapsed,
    })
}

/// The counters two runs at one seed must reproduce exactly.
fn counters(session: &R2d2Session) -> String {
    let wal = session.wal_stats().unwrap_or_default();
    format!(
        "edges {}\nops {:?}\nwal records {} fsyncs {}\nresolve {:?}\n",
        session.graph().edge_count(),
        session.ops().without_page_counters(),
        wal.records,
        wal.fsyncs,
        session.advisor_stats().unwrap_or_default()
    )
}

/// Quarantine exactness: no file fails, the surviving rows are exactly the
/// emitted lake's rows, and exactly the sabotage rows are quarantined.
fn check_report(report: &IngestReport, csv: &HostileCsv) -> Result<(), Failure> {
    check!(
        report.files_failed() == 0,
        "{} of {} files failed to ingest",
        report.files_failed(),
        report.files.len()
    );
    check!(
        report.datasets_added() == csv.files,
        "{} datasets added from {} files",
        report.datasets_added(),
        csv.files
    );
    check!(
        report.rows_ingested() == csv.rows,
        "{} rows ingested, {} emitted",
        report.rows_ingested(),
        csv.rows
    );
    check!(
        report.rows_quarantined() == csv.sabotage_rows,
        "{} rows quarantined, {} sabotage rows emitted",
        report.rows_quarantined(),
        csv.sabotage_rows
    );
    Ok(())
}

pub fn run(args: &Args, dirs: &Dirs, envr: &mut env::Environment) -> Result<Outcome, Failure> {
    let t_inputs = Instant::now();
    let csv = inputs::hostile_csv(dirs, args.seed)?;
    let truth = inputs::ingest_truth(&csv)?;
    envr.num("inputs_s", t_inputs.elapsed().as_secs_f64());
    envr.raw(
        "corpus",
        format!(
            "{{\"files\": {}, \"rows\": {}, \"sabotage_rows\": {}, \"csv_bytes\": {}}}",
            csv.files, csv.rows, csv.sabotage_rows, csv.bytes
        ),
    );
    envr.num("threads", 1.0);
    crate::metrics::reset_peak_rss();
    let dir = dirs.work.join("ingest");
    if args.trace {
        return traced(args, &csv, &dir);
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut setup_s, mut times) = (Vec::new(), Vec::new());
    for i in 0..WARMUP_PASSES {
        let p = pass(sampling_seed(args.seed, i), &csv, &dir)?;
        attempted += p.report.files.len() as u64;
        failed += p.report.files_failed() as u64;
        check_report(&p.report, &csv)?;
        setup_s.push((p.setup + p.elapsed).as_secs_f64());
    }
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut samplings: Vec<Sampling> = Vec::new();
    let mut stored = f64::NAN;
    while times.len() < MIN_PASSES.max(SAMPLINGS) || start.elapsed() < budget {
        let i = times.len();
        let pipeline_seed = sampling_seed(args.seed, i);
        let mut p = pass(pipeline_seed, &csv, &dir)?;
        attempted += p.report.files.len() as u64;
        failed += p.report.files_failed() as u64;
        check_report(&p.report, &csv)?;
        times.push(ms(p.elapsed));
        let c = counters(&p.session);
        if let Some(first) = samplings.get(i % SAMPLINGS) {
            check!(
                c == first.counters,
                "pass counters differ:\n{}\nvs\n{c}",
                first.counters
            );
            continue;
        }
        // First pass of a sampling: batch parity, advice and quality.
        attempted += 1;
        let batch = R2d2Session::bootstrap(
            p.session.lake().reader_view(),
            inputs::pipeline_config(pipeline_seed, 1),
        )?;
        check!(
            batch.graph() == p.session.graph(),
            "batch bootstrap over the ingested lake differs from the incremental graph"
        );
        samplings.push(Sampling {
            counters: c,
            precision: report::precision(p.session.graph(), &truth)?,
            cost_ratio: inputs::cost_ratio(&mut p.session)?,
        });
        if i == 0 {
            stored = crate::metrics::dir_bytes(&dir) as f64 / p.session.lake().total_bytes() as f64;
            envr.num("edges", p.session.graph().edge_count() as f64);
            envr.corpus("lake", p.session.lake());
            envr.num(
                "largest_component",
                largest_component(&p.session.advisor_problem()?) as f64,
            );
            envr.num("persist_dir_bytes", crate::metrics::dir_bytes(&dir) as f64);
        }
    }
    let all: String = samplings.iter().map(|s| s.counters.as_str()).collect();
    inputs::check_repeat(dirs, &format!("ingest-{}-{}", args.seed, args.source), &all)?;
    let mean =
        |f: fn(&Sampling) -> f64| samplings.iter().map(f).sum::<f64>() / samplings.len() as f64;
    envr.num("passes", times.len() as f64);
    envr.num("samplings", SAMPLINGS as f64);
    envr.num("rows_per_s", csv.rows as f64 / (median(&mut times) / 1e3));
    Ok(EndToEnd {
        setup_s: median(&mut setup_s),
        peak_rss_mb: crate::metrics::peak_rss_mb(),
        op_p50_ms: median(&mut times),
        cost_ratio: mean(|s| s.cost_ratio),
        edge_precision: mean(|s| s.precision),
        stored_bytes_per_user_byte: stored,
    }
    .outcome(attempted, failed))
}

/// Every `.csv` file under `dir`, in the sorted order `ingest_dir` walks.
fn csv_files(dir: &Path) -> Result<Vec<PathBuf>, Failure> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path
                .extension()
                .is_some_and(|e| e.eq_ignore_ascii_case("csv"))
            {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// The dataset name `ingest_dir` gives a file.
fn dataset_name(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file).with_extension("");
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// One pass decomposed the way `ingest_dir` works — read, `read_csv`,
/// `PartitionedTable::from_table`, `apply` per file — with a span around
/// each call; then, outside the pass, a full scan of the first served
/// epoch. Returns the session, its layer figures and the pass's duration.
fn traced_pass(
    tracer: &mut Tracer,
    seed: u64,
    csv: &HostileCsv,
    dir: &Path,
) -> Result<(R2d2Session, Layers, f64), Failure> {
    let options = IngestOptions::default();
    let mut layers = Layers::default();
    crate::metrics::remove_dir(dir)?;
    let mut session = R2d2Session::bootstrap(DataLake::new(), inputs::pipeline_config(seed, 1))?;
    let (r, d) = tracer.leaf("core.persist", 0, None, || {
        session.enable_persistence(env::persistence(dir))
    });
    r?;
    layers.persist_ms = ms(d);
    let generation_after_setup = session.persistence_generation().unwrap_or(0);
    let (model, config) = advisor();
    session.enable_advisor(model, config)?;
    let root = tracer.open("ingest.pass", 0, None);
    for (i, path) in csv_files(&csv.dir)?.into_iter().enumerate() {
        let op = i as u64 + 1;
        let file = tracer.open("ingest.file", op, Some(root));
        let (text, _) = tracer.leaf("fs.read", op, Some(file), || std::fs::read_to_string(&path));
        let text = text?;
        layers.csv_bytes += text.len() as u64;
        let (parsed, _) = tracer.leaf("lake.csv", op, Some(file), || read_csv(&text, &options.csv));
        let parsed = parsed.map_err(|e| Failure::from(format!("{}: {e:?}", path.display())))?;
        layers.csv_rows += parsed.table.num_rows() as u64;
        layers.csv_rows_quarantined += parsed.quarantined.len() as u64;
        let (data, _) = tracer.leaf("lake.partition", op, Some(file), || {
            PartitionedTable::from_table(
                parsed.table,
                PartitionSpec::ByRowCount {
                    rows_per_partition: options.rows_per_partition.max(1),
                },
            )
        });
        let update = LakeUpdate::AddDataset {
            name: dataset_name(&csv.dir, &path),
            data: data?,
            access: AccessProfile::default(),
            lineage: None,
        };
        let (r, _) = tracer.leaf("core.session", op, Some(file), || session.apply(update));
        r?;
        tracer.close(file);
    }
    let (r, d) = tracer.leaf("opt.advisor", 0, Some(root), || session.advise());
    r?;
    layers.advise_ms = ms(d);
    let (server, _) = tracer.leaf("serve.start", 0, Some(root), || {
        let server = R2d2Server::start(session, ServeConfig::default());
        let _ = server.handle().epoch();
        server
    });
    let total_ms = ms(tracer.close(root));
    let epoch = server.handle().epoch();
    layers.scan(tracer, 0, None, &epoch)?;
    drop(epoch);
    let mut session = server.shutdown();
    layers.read_session(&mut session)?;
    layers.checkpoints = session.persistence_generation().unwrap_or(0) - generation_after_setup;
    layers.dir_bytes = crate::metrics::dir_bytes(dir);
    Ok((session, layers, total_ms))
}

fn traced(args: &Args, csv: &HostileCsv, dir: &Path) -> Result<Outcome, Failure> {
    let mut attempted = 0u64;
    let mut untraced = Vec::new();
    let mut reference = None;
    for _ in 0..TRACED_PASSES {
        let p = pass(args.seed, csv, dir)?;
        attempted += p.report.files.len() as u64;
        check_report(&p.report, csv)?;
        untraced.push(ms(p.elapsed));
        reference = Some(p.session);
    }
    let reference = reference.expect("passes ran");
    let mut tracer = Tracer::new();
    let mut totals = Vec::new();
    let mut last = None;
    for _ in 0..TRACED_PASSES {
        let (session, layers, total_ms) = traced_pass(&mut tracer, args.seed, csv, dir)?;
        attempted += csv.files as u64;
        check!(
            session.graph() == reference.graph(),
            "traced ingest graph differs from the untraced ingest graph"
        );
        check!(
            session.ops().without_page_counters() == reference.ops().without_page_counters(),
            "traced ingest counters differ from the untraced ingest"
        );
        check!(
            layers.csv_rows == csv.rows as u64
                && layers.csv_rows_quarantined == csv.sabotage_rows as u64,
            "traced ingest kept {} rows and quarantined {}",
            layers.csv_rows,
            layers.csv_rows_quarantined
        );
        totals.push(total_ms);
        last = Some(layers);
    }
    tracer.write(&crate::trace_path(args))?;
    eprint!("{}", tracer.render_totals());
    let mut layers = last.expect("traced passes ran");
    layers.overhead_ms = median(&mut totals) - median(&mut untraced);
    Ok(layers.outcome(attempted, 0))
}

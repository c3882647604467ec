//! `restart`: warm restart from a delta chain and a WAL tail. The only
//! workload that runs the decoders (snapshot chain, graph codec, advisor
//! state, WAL replay) and lazy page decode.
//!
//! Before timing, the run builds the history: the grown Customer-1 lake
//! with the advisor and persistence attached (the part timed as `setup_s`),
//! then the stationary update stream applied one update at a time, which
//! leaves full + delta snapshots and a WAL tail. Each
//! timed pass restores from a pristine copy of that directory (a restored
//! session resumes persisting into its directory), runs
//! `R2d2Session::restore` → `R2d2Server::start` → `epoch` (the unit timed
//! as `op_p50_ms`), then scans every dataset once, cold.

use crate::inputs::{self, largest_component};
use crate::metrics::{copy_dir, median, ms, quantile, Failure, Outcome};
use crate::report::{self, EndToEnd, Layers};
use crate::stream::StreamSource;
use crate::trace::Tracer;
use crate::{check, env, Args, Dirs};
use r2d2_core::R2d2Session;
use r2d2_lake::{DataLake, OpCounts, Predicate};
use r2d2_opt::Solution;
use r2d2_serve::{R2d2Server, ServeConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// Updates in the history; with a 64-update snapshot cadence this leaves a
/// chain of checkpoints and a WAL tail of `HISTORY_UPDATES % 64` updates.
pub const HISTORY_UPDATES: usize = 300;
/// Distinct update streams drawn from the seed, one history each. The
/// quality figures (cost ratio, edge precision) are their mean: CLP's row
/// samples, and so the false-positive edges that survive, differ with the
/// stream.
const HISTORY_STREAMS: usize = 4;
/// History builds per run: one per stream, then stream 0 again, which must
/// reproduce the first build's counters exactly and is the history the
/// passes restore. The set-up part of each build — bootstrap, persistence
/// and advisor attached, before any update — is timed, as are
/// [`SETUP_REPS`] set-ups on their own; their median is `setup_s`.
const HISTORY_BUILDS: usize = HISTORY_STREAMS + 1;
/// Set-ups timed on their own, on top of one per history build.
const SETUP_REPS: usize = 30;
/// Passes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 5;
/// Passes of each arm of the traced run.
const TRACED_PASSES: usize = 3;

/// What restore must reproduce.
struct Live {
    graph: r2d2_graph::ContainmentGraph,
    ops: OpCounts,
    log: usize,
    advice: Solution,
    counters: String,
    lake_bytes: usize,
    largest_component: usize,
    wal_tail: usize,
    cost_ratio: f64,
    /// Edge precision against the live lake's ground truth.
    precision: f64,
}

fn build_history(
    seed: u64,
    lake: &DataLake,
    dir: &Path,
    stream: usize,
) -> Result<(Live, f64), Failure> {
    let updates = StreamSource::new(lake, inputs::GROWTH_PREFIX)?.updates(
        HISTORY_UPDATES,
        inputs::mix(seed ^ 0x4157).wrapping_add(stream as u64),
    )?;
    crate::metrics::remove_dir(dir)?;
    let t0 = Instant::now();
    let mut s = crate::serve::session(seed, lake, Some(dir))?;
    let setup = t0.elapsed().as_secs_f64();
    for u in updates {
        s.apply(u)?;
    }
    let advice = s.advise()?;
    let wal = s.wal_stats().unwrap_or_default();
    let counters = format!(
        "edges {}\nops {:?}\nwal records {} fsyncs {} segments {} compacted {}\nresolve {:?}\ngeneration {:?} tail {:?}\n",
        s.graph().edge_count(),
        s.ops().without_page_counters(),
        wal.records,
        wal.fsyncs,
        wal.segments,
        wal.segments_compacted,
        s.advisor_stats().unwrap_or_default(),
        s.persistence_generation(),
        s.wal_tail_updates(),
    );
    let live = Live {
        graph: s.graph().clone(),
        ops: s.ops(),
        log: s.update_log().len(),
        advice,
        counters,
        lake_bytes: s.lake().total_bytes(),
        largest_component: largest_component(&s.advisor_problem()?),
        wal_tail: s.wal_tail_updates().unwrap_or(0),
        cost_ratio: inputs::cost_ratio(&mut s)?,
        precision: report::precision(s.graph(), &report::ground_truth(s.lake())?)?,
    };
    Ok((live, setup))
}

struct Pass {
    restore: Duration,
    scan: Duration,
    pages: (u64, u64),
}

/// Restore → serve → first epoch, then one cold scan of every dataset;
/// afterwards (untimed) the restored session must equal the live one.
fn pass(pristine: &Path, dir: &Path, live: &Live) -> Result<Pass, Failure> {
    copy_dir(pristine, dir)?;
    let t0 = Instant::now();
    let s = R2d2Session::restore(dir)?;
    let server = R2d2Server::start(s, ServeConfig::default());
    let epoch = server.handle().epoch();
    let restore = t0.elapsed();
    let t1 = Instant::now();
    for id in epoch.lake().ids() {
        epoch.query_dataset(id, &Predicate::True, None)?;
    }
    let scan = t1.elapsed();
    let reads = epoch.read_ops();
    drop(epoch);
    let mut s = server.shutdown();
    check_restored(&mut s, live)?;
    Ok(Pass {
        restore,
        scan,
        pages: (
            reads.pages_decoded + s.ops().pages_decoded,
            reads.pages_skipped + s.ops().pages_skipped,
        ),
    })
}

/// Restored == live for graph, counters, update log and advice.
fn check_restored(s: &mut R2d2Session, live: &Live) -> Result<(), Failure> {
    check!(s.graph() == &live.graph, "restored graph differs from live");
    check!(
        s.ops().without_page_counters() == live.ops.without_page_counters(),
        "restored counters differ from live"
    );
    check!(
        s.update_log().len() == live.log,
        "restored update log has {} batches, live {}",
        s.update_log().len(),
        live.log
    );
    check!(
        s.advise()? == live.advice,
        "restored advice differs from live"
    );
    Ok(())
}

pub fn run(args: &Args, dirs: &Dirs, envr: &mut env::Environment) -> Result<Outcome, Failure> {
    let t_inputs = Instant::now();
    let lake = inputs::serve_lake()?;
    envr.num("inputs_s", t_inputs.elapsed().as_secs_f64());
    envr.corpus("corpus", &lake);
    envr.num("history_updates", HISTORY_UPDATES as f64);
    crate::metrics::reset_peak_rss();

    let pristine = dirs.work.join("restart-pristine");
    let mut setup = Vec::new();
    for i in 0..SETUP_REPS {
        let dir = dirs.work.join(format!("restart-setup{i}"));
        crate::metrics::remove_dir(&dir)?;
        let t0 = Instant::now();
        let s = crate::serve::session(args.seed, &lake, Some(&dir))?;
        setup.push(t0.elapsed().as_secs_f64());
        drop(s);
        crate::metrics::remove_dir(&dir)?;
    }
    let mut histories: Vec<Live> = Vec::new();
    for i in 0..HISTORY_BUILDS {
        let (l, secs) = build_history(args.seed, &lake, &pristine, i % HISTORY_STREAMS)?;
        setup.push(secs);
        histories.push(l);
    }
    let live = histories.pop().expect("history built");
    check!(
        live.counters == histories[0].counters,
        "history counters differ between builds of one stream:\n{}\nvs\n{}",
        histories[0].counters,
        live.counters
    );
    let stored = crate::metrics::dir_bytes(&pristine) as f64 / live.lake_bytes as f64;
    envr.num("largest_component", live.largest_component as f64);
    envr.num("wal_tail_updates", live.wal_tail as f64);
    let dir = dirs.work.join("restart-pass");
    let mut attempted = HISTORY_BUILDS as u64 * HISTORY_UPDATES as u64;
    if args.trace {
        return traced(args, &pristine, &dir, &live, attempted);
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (mut restore, mut scan) = (Vec::new(), Vec::new());
    let mut pages = None;
    while restore.len() < MIN_PASSES || start.elapsed() < budget {
        attempted += 1;
        let p = pass(&pristine, &dir, &live)?;
        restore.push(ms(p.restore));
        scan.push(ms(p.scan));
        match pages {
            None => pages = Some(p.pages),
            Some(first) => check!(
                first == p.pages,
                "pages decoded/skipped differ between passes: {first:?} vs {:?}",
                p.pages
            ),
        }
    }
    let (decoded, skipped) = pages.expect("passes ran");
    inputs::check_repeat(
        dirs,
        &format!("restart-{}-{}", args.seed, args.source),
        &format!(
            "{}pages decoded {decoded} skipped {skipped}\n",
            live.counters
        ),
    )?;
    let peak_rss_mb = crate::metrics::peak_rss_mb();
    envr.num("passes", restore.len() as f64);
    envr.num("history_streams", HISTORY_STREAMS as f64);
    envr.num("cold_scan_ms", median(&mut scan));
    Ok(EndToEnd {
        setup_s: median(&mut setup),
        peak_rss_mb,
        op_p50_ms: quantile(&mut restore, 0.5),
        cost_ratio: histories.iter().map(|h| h.cost_ratio).sum::<f64>() / histories.len() as f64,
        edge_precision: histories.iter().map(|h| h.precision).sum::<f64>() / histories.len() as f64,
        stored_bytes_per_user_byte: stored,
    }
    .outcome(attempted, 0))
}

fn traced(
    args: &Args,
    pristine: &Path,
    dir: &Path,
    live: &Live,
    mut attempted: u64,
) -> Result<Outcome, Failure> {
    let mut untraced = Vec::new();
    for _ in 0..TRACED_PASSES {
        attempted += 1;
        let p = pass(pristine, dir, live)?;
        untraced.push(ms(p.restore + p.scan));
    }
    let mut tracer = Tracer::new();
    let (mut restore_ms, mut advise_ms, mut totals) = (Vec::new(), Vec::new(), Vec::new());
    let mut layers = Layers::default();
    for i in 0..TRACED_PASSES {
        attempted += 1;
        copy_dir(pristine, dir)?;
        let op = i as u64;
        let root = tracer.open("restart.pass", op, None);
        let (s, d) = tracer.leaf("core.persist", op, Some(root), || R2d2Session::restore(dir));
        let mut s = s?;
        restore_ms.push(ms(d));
        let generation = s.persistence_generation().unwrap_or(0);
        let (r, d) = tracer.leaf("opt.advisor", op, Some(root), || s.advise().map(|_| ()));
        r?;
        advise_ms.push(ms(d));
        let (server, _) = tracer.leaf("serve.start", op, Some(root), || {
            let server = R2d2Server::start(s, ServeConfig::default());
            let _ = server.handle().epoch();
            server
        });
        let epoch = server.handle().epoch();
        layers.scan(&mut tracer, op, Some(root), &epoch)?;
        totals.push(ms(tracer.close(root)));
        drop(epoch);
        let mut s = server.shutdown();
        check_restored(&mut s, live)?;
        layers.read_session(&mut s)?;
        layers.wal_tail_updates = live.wal_tail as u64;
        layers.checkpoints = s.persistence_generation().unwrap_or(0) - generation;
        layers.dir_bytes = crate::metrics::dir_bytes(dir);
    }
    tracer.write(&crate::trace_path(args))?;
    eprint!("{}", tracer.render_totals());
    layers.persist_ms = median(&mut restore_ms);
    layers.advise_ms = median(&mut advise_ms);
    layers.overhead_ms = median(&mut totals) - median(&mut untraced);
    Ok(layers.outcome(attempted, 0))
}

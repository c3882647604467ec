//! `serve`: open-loop single-update batches into `R2d2Server` at a fixed
//! ladder of rates, with persistence and the advisor on, while one
//! closed-loop reader makes zipf(1.1) `query_dataset(id, True, Some(64))`
//! calls on pinned epochs. The only workload where the commit queue, group
//! commit, epoch publish (`session.view()`, which re-advises),
//! auto-checkpoints and warm reads run together.
//!
//! Each rung of the ladder starts from a fresh server over the grown
//! Customer-1 lake. A batch's visible latency runs from its *scheduled* send
//! time, so a stall also charges the batches queued behind it, to the moment
//! an acker thread — a reader that waits on each ticket in submission order
//! and then reads the published generation through its own handle — sees
//! the generation covering it. The server publishes before it acks, so this
//! spans submit → ack → visible. A rung meets the limit when the p99
//! visible latency, the p99 generator lateness and the drain after the last
//! send all stay within [`LIMIT_MS`] and no batch fails.
//!
//! The unit operation behind `op_p50_ms` is the reader's query. Visible
//! latencies and the read tail swing by 2-4x with the load of the machine
//! the benchmark shares (measured on a 2-thread VM), so both runs record
//! them, unbounded, in the environment record, with the highest rung that
//! met the limit (`sustained_ups`).

use crate::inputs::{self, advisor, largest_component};
use crate::metrics::{median, ms, quantile, Failure, Outcome};
use crate::report::{Discovered, EndToEnd, Layers};
use crate::stream::StreamSource;
use crate::trace::Tracer;
use crate::{check, env, Args, Dirs};
use r2d2_core::R2d2Session;
use r2d2_lake::{DataLake, DatasetId, LakeUpdate, Predicate};
use r2d2_serve::{CommitTicket, R2d2Server, ServeConfig};
use r2d2_synth::zipf::Zipf;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered update rates (updates per second, one update per batch). Fixed
/// constants, derived once from the capacity measured on seeds 1-3 on a
/// 2-thread machine: group commit sustains 500-800 updates/s depending on
/// the machine's moment-to-moment speed, with a p99 visible latency of
/// 60-90 ms at 400/s. The ladder stops below that capacity, so that
/// `sustained_ups` does not flip between rungs with the machine's speed: it
/// guards against a capacity regression below 400/s rather than measuring
/// gains above it.
pub const LADDER: [f64; 4] = [50.0, 100.0, 200.0, 400.0];
/// The rung whose latencies are reported as `visible_*` and `read_*`.
pub const NOMINAL: usize = 2;
/// Latency limit of a rung, in milliseconds.
pub const LIMIT_MS: f64 = 250.0;
/// Share of `--seconds` the nominal rung runs.
const NOMINAL_SHARE: f64 = 0.6;
/// Share of `--seconds` each other rung runs.
const RUNG_SHARE: f64 = 0.2;
/// Zipf exponent of the reader.
const READ_SKEW: f64 = 1.1;
/// Server set-ups timed before the ladder, on top of one per rung; their
/// median is `setup_s`.
const SETUP_REPS: usize = 30;
/// Think time of the closed-loop reader between queries, so that it takes
/// a bounded share of the machine instead of spinning on a core.
const READ_THINK: Duration = Duration::from_millis(1);
/// Rows a reader query returns at most.
const READ_LIMIT: usize = 64;

/// What one rung measured.
#[derive(Default)]
struct Rung {
    batches: usize,
    visible_ms: Vec<f64>,
    late_ms: Vec<f64>,
    read_us: Vec<f64>,
    failed: u64,
    queue_depth_max: u64,
    drain_ms: f64,
    /// Updates made visible per second, from the first scheduled send to
    /// the reader observing the last commit.
    achieved: f64,
    commits: u64,
    setup_s: f64,
    transcript: Vec<Vec<LakeUpdate>>,
    final_edges: Vec<(u64, u64)>,
    final_ops: r2d2_lake::OpCounts,
    updates_visible: usize,
    /// Mean size of the persistence directory over the rung.
    persist_bytes: f64,
    cost_ratio: f64,
    /// The final epoch's lake and graph, for the edge precision.
    discovered: Option<Discovered>,
    counters: String,
}

impl Rung {
    fn meets_limit(&self) -> bool {
        self.failed == 0
            && quantile(&mut self.visible_ms.clone(), 0.99) <= LIMIT_MS
            && quantile(&mut self.late_ms.clone(), 0.99) <= LIMIT_MS
            && self.drain_ms <= LIMIT_MS
    }
}

/// A persisted session over `lake` with the advisor attached.
pub fn session(seed: u64, lake: &DataLake, dir: Option<&Path>) -> Result<R2d2Session, Failure> {
    let mut s = R2d2Session::bootstrap(lake.reader_view(), inputs::pipeline_config(seed, 1))?;
    if let Some(dir) = dir {
        s.enable_persistence(env::persistence(dir))?;
    }
    let (model, config) = advisor();
    s.enable_advisor(model, config)?;
    Ok(s)
}

/// Offer `updates` at `rate` to a fresh server while the reader runs.
/// `record` keeps the commit transcript for the correctness checks.
fn run_rung(
    seed: u64,
    lake: &DataLake,
    read_ids: &[DatasetId],
    updates: &[LakeUpdate],
    rate: f64,
    dir: &Path,
    record: bool,
) -> Result<Rung, Failure> {
    crate::metrics::remove_dir(dir)?;
    let t_setup = Instant::now();
    let s = session(seed, lake, Some(dir))?;
    let server = R2d2Server::start(s, ServeConfig::default().with_record_commits(record));
    let handle = server.handle();
    let setup_s = t_setup.elapsed().as_secs_f64();

    let done = AtomicBool::new(false);
    let zipf = Zipf::new(read_ids.len(), READ_SKEW);
    let mut rung = Rung {
        batches: updates.len(),
        setup_s,
        ..Rung::default()
    };
    // Sample the persistence directory's size about ten times a second.
    let sample_every = ((rate / 10.0) as usize).max(1);
    let t0 = Instant::now() + Duration::from_millis(5);
    let (tx, rx) = mpsc::channel::<(Instant, CommitTicket)>();
    let (acks, read_us) = std::thread::scope(|scope| {
        // The reader: closed loop, zipf over the base datasets, each query
        // on a freshly pinned epoch.
        let reader = scope.spawn(|| {
            let mut rng = SmallRng::seed_from_u64(inputs::mix(seed ^ 0x2EAD));
            let mut lat = Vec::new();
            while !done.load(Ordering::Acquire) {
                let q0 = Instant::now();
                let epoch = handle.epoch();
                let id = read_ids[zipf.sample(&mut rng)];
                let r = epoch.query_dataset(id, &Predicate::True, Some(READ_LIMIT));
                lat.push(q0.elapsed().as_secs_f64() * 1e6);
                if r.is_err() {
                    return Err(format!("reader query on {id:?} failed"));
                }
                std::thread::sleep(READ_THINK);
            }
            Ok(lat)
        });
        // The acker: waits for each ticket in submission order, then reads
        // the published generation through its own handle.
        let acker = scope.spawn(|| {
            let watch = server.handle();
            let mut acks = Vec::new();
            for (due, ticket) in rx {
                let receipt = ticket.wait();
                let visible_at = Instant::now();
                let observed = watch.generation();
                acks.push((due, receipt, visible_at, observed));
            }
            acks
        });

        // The open-loop generator: batch i is due at t0 + i / rate.
        let mut depth_max = 0u64;
        let mut dir_sizes = Vec::new();
        for (i, u) in updates.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            rung.late_ms
                .push(ms(Instant::now().saturating_duration_since(due)));
            let _ = tx.send((due, server.submit(vec![u.clone()])));
            let st = server.stats();
            depth_max =
                depth_max.max(st.batches_submitted - st.batches_committed - st.batches_failed);
            if i % sample_every == 0 {
                dir_sizes.push(crate::metrics::dir_bytes(dir) as f64);
            }
        }
        let last_due = t0 + Duration::from_secs_f64((updates.len() - 1) as f64 / rate);
        drop(tx);
        let acks = acker.join().expect("acker thread panicked");
        let drained = Instant::now();
        done.store(true, Ordering::Release);
        let read = reader.join().expect("reader thread panicked");
        rung.queue_depth_max = depth_max;
        rung.drain_ms = ms(drained.saturating_duration_since(last_due));
        rung.persist_bytes = dir_sizes.iter().sum::<f64>() / dir_sizes.len().max(1) as f64;
        read.map(|lat| (acks, lat))
    })?;

    let mut last_visible = t0;
    for (due, receipt, at, observed) in &acks {
        match receipt {
            Ok(r) => {
                check!(
                    *observed >= r.generation,
                    "acked generation {} not yet visible (observed {observed})",
                    r.generation
                );
                rung.visible_ms.push(ms(at.saturating_duration_since(*due)));
                last_visible = last_visible.max(*at);
            }
            Err(_) => rung.failed += 1,
        }
    }
    rung.achieved =
        rung.visible_ms.len() as f64 / last_visible.saturating_duration_since(t0).as_secs_f64();
    rung.read_us = read_us;

    let epoch = server.handle().epoch();
    rung.commits = epoch.generation();
    rung.transcript = server.commit_log();
    rung.final_edges = sorted_edges(epoch.graph());
    rung.final_ops = epoch.ops();
    rung.updates_visible = epoch.updates_applied();
    rung.discovered = Some(Discovered::of(&epoch));
    drop(epoch);
    let mut s = server.shutdown();
    rung.cost_ratio = inputs::cost_ratio(&mut s)?;
    let wal = s.wal_stats().unwrap_or_default();
    rung.counters = format!(
        "commits {} wal records {} fsyncs {}",
        rung.commits, wal.records, wal.fsyncs
    );
    Ok(rung)
}

fn sorted_edges(g: &r2d2_graph::ContainmentGraph) -> Vec<(u64, u64)> {
    let mut e = g.edges();
    e.sort_unstable();
    e
}

/// The grown lake, the ids the reader draws from and the update-stream
/// source.
struct Prepared {
    lake: DataLake,
    read_ids: Vec<DatasetId>,
    stream: StreamSource,
}

fn prepare(envr: &mut env::Environment) -> Result<Prepared, Failure> {
    let t_inputs = Instant::now();
    let lake = inputs::serve_lake()?;
    let stream = StreamSource::new(&lake, inputs::GROWTH_PREFIX)?;
    envr.num("inputs_s", t_inputs.elapsed().as_secs_f64());
    envr.corpus("corpus", &lake);
    let read_ids = lake.ids();
    Ok(Prepared {
        lake,
        read_ids,
        stream,
    })
}

/// Correctness of the nominal rung: the final epoch equals a sequential
/// replay of the commit transcript, and every acked batch is present after
/// shutdown + `restore`.
fn check_rung(seed: u64, lake: &DataLake, rung: &Rung, dir: &Path) -> Result<(), Failure> {
    let mut replay = session(seed, lake, None)?;
    for commit in &rung.transcript {
        replay.apply_batch(commit)?;
    }
    check!(
        sorted_edges(replay.graph()) == rung.final_edges,
        "final epoch graph differs from the transcript replay"
    );
    check!(
        replay.ops().without_page_counters() == rung.final_ops.without_page_counters(),
        "final epoch counters differ from the transcript replay"
    );
    check!(
        replay.report().updates_applied == rung.updates_visible,
        "final epoch covers {} updates, replay {}",
        rung.updates_visible,
        replay.report().updates_applied
    );
    let acked = rung.visible_ms.len();
    check!(
        rung.updates_visible == acked,
        "{} batches acked, {} updates visible",
        acked,
        rung.updates_visible
    );
    let restored = R2d2Session::restore(dir)?;
    check!(
        restored.report().updates_applied == acked,
        "restore recovered {} of {} acked updates",
        restored.report().updates_applied,
        acked
    );
    check!(
        sorted_edges(restored.graph()) == rung.final_edges,
        "restored graph differs from the final epoch"
    );
    Ok(())
}

pub fn run(args: &Args, dirs: &Dirs, envr: &mut env::Environment) -> Result<Outcome, Failure> {
    let prep = prepare(envr)?;
    let nominal_s = args.seconds * NOMINAL_SHARE;
    let other_s = args.seconds * RUNG_SHARE;
    let stream_seed = inputs::mix(args.seed ^ 0x57EA);
    let stream = |rate: f64, secs: f64| {
        prep.stream
            .updates((rate * secs).ceil() as usize, stream_seed)
    };
    envr.num(
        "largest_component",
        largest_component(&session(args.seed, &prep.lake, None)?.advisor_problem()?) as f64,
    );
    envr.raw("ladder_ups", format!("{LADDER:?}"));
    envr.num("limit_ms", LIMIT_MS);
    crate::metrics::reset_peak_rss();
    if args.trace {
        let updates = stream(LADDER[NOMINAL], nominal_s)?;
        return traced(args, dirs, envr, &prep, &updates);
    }

    // The nominal rung first; then up the ladder while rungs meet the
    // limit, or down it until one does.
    let mut next = Some(NOMINAL);
    let mut up = true;
    let mut nominal: Option<Rung> = None;
    let mut setup = Vec::new();
    for i in 0..SETUP_REPS {
        let dir = dirs.work.join(format!("serve-setup{i}"));
        crate::metrics::remove_dir(&dir)?;
        let t0 = Instant::now();
        let server = R2d2Server::start(
            session(args.seed, &prep.lake, Some(&dir))?,
            ServeConfig::default(),
        );
        setup.push(t0.elapsed().as_secs_f64());
        drop(server.shutdown());
        crate::metrics::remove_dir(&dir)?;
    }
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut sustained = None;
    // Each rung's final lake and graph, and its cost ratio: the quality
    // figures are their mean.
    let mut finals: Vec<(Discovered, f64)> = Vec::new();
    while let Some(i) = next.take() {
        let rate = LADDER[i];
        let secs = if i == NOMINAL { nominal_s } else { other_s };
        let updates = stream(rate, secs)?;
        let dir = dirs.work.join(format!("serve-rung{i}"));
        let mut rung = run_rung(
            args.seed,
            &prep.lake,
            &prep.read_ids,
            &updates,
            rate,
            &dir,
            i == NOMINAL,
        )?;
        attempted += rung.batches as u64;
        failed += rung.failed;
        setup.push(rung.setup_s);
        finals.push((
            rung.discovered.take().expect("set by run_rung"),
            rung.cost_ratio,
        ));
        // The nominal rung's directory stays for its check, after the
        // ladder.
        if i != NOMINAL {
            crate::metrics::remove_dir(&dir)?;
        }
        let ok = rung.meets_limit();
        eprintln!(
            "rung {rate:>6} ups: visible p50 {:.2} ms p99 {:.2} ms, late p99 {:.2} ms, drain {:.2} ms, {} commits / {} batches, achieved {:.1} ups -> {}",
            quantile(&mut rung.visible_ms.clone(), 0.5),
            quantile(&mut rung.visible_ms.clone(), 0.99),
            quantile(&mut rung.late_ms.clone(), 0.99),
            rung.drain_ms,
            rung.commits,
            rung.batches,
            rung.achieved,
            if ok { "meets limit" } else { "over limit" }
        );
        if i == NOMINAL {
            up = ok;
        }
        if ok && sustained.is_none_or(|(j, _)| j < i) {
            sustained = Some((i, rung.achieved));
        }
        next = if up {
            (ok && i + 1 < LADDER.len()).then_some(i + 1)
        } else {
            (!ok && i > 0).then_some(i - 1)
        };
        if i == NOMINAL {
            nominal = Some(rung);
        }
    }
    let peak_rss_mb = crate::metrics::peak_rss_mb();
    let mut nominal = nominal.expect("the nominal rung ran");
    let dir = dirs.work.join(format!("serve-rung{NOMINAL}"));
    check_rung(args.seed, &prep.lake, &nominal, &dir)?;
    crate::metrics::remove_dir(&dir)?;
    attempted += 1;
    let mut precision = 0.0;
    for (d, _) in &finals {
        precision += d.precision()? / finals.len() as f64;
    }
    let cost_ratio = finals.iter().map(|(_, c)| c).sum::<f64>() / finals.len() as f64;
    // With no rung meeting the limit, the nominal rung's achieved rate.
    envr.num(
        "sustained_ups",
        sustained.map_or(nominal.achieved, |(_, achieved)| achieved),
    );
    envr.raw("sustained_limit_met", sustained.is_some().to_string());
    envr.text("timing_dependent_counters", &nominal.counters);
    record_tails(envr, &nominal);
    Ok(EndToEnd {
        setup_s: median(&mut setup),
        peak_rss_mb,
        op_p50_ms: quantile(&mut nominal.read_us, 0.5) / 1e3,
        cost_ratio,
        edge_precision: precision,
        stored_bytes_per_user_byte: nominal.persist_bytes / prep.lake.total_bytes() as f64,
    }
    .outcome(attempted, failed))
}

/// The nominal rung's latency tails and generator figures, which swing too
/// much with the machine's load to carry a bound, go to the environment
/// record.
fn record_tails(envr: &mut env::Environment, rung: &Rung) {
    let q = |v: &[f64], p: f64| quantile(&mut v.to_vec(), p);
    envr.num("visible_p50_ms", q(&rung.visible_ms, 0.5));
    envr.num("visible_p99_ms", q(&rung.visible_ms, 0.99));
    envr.num("read_p99_us", q(&rung.read_us, 0.99));
    envr.num("generator_late_p99_ms", q(&rung.late_ms, 0.99));
    envr.num("queue_depth_max", rung.queue_depth_max as f64);
    envr.num(
        "batches_per_commit",
        rung.batches as f64 / rung.commits.max(1) as f64,
    );
}

/// Per-commit figures of a sequential transcript replay.
#[derive(Default)]
struct Replay {
    advise_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    resolved: usize,
    reused: usize,
    total_ms: f64,
}

/// Replay `transcript` commit by commit — `apply_group`, `advise`, `view`,
/// and a checkpoint at the auto-checkpoint cadence — timing each call,
/// with spans when a tracer is given.
fn replay(
    seed: u64,
    lake: &DataLake,
    transcript: &[Vec<LakeUpdate>],
    dir: &Path,
    mut tracer: Option<&mut Tracer>,
) -> Result<(R2d2Session, Replay), Failure> {
    crate::metrics::remove_dir(dir)?;
    let mut s = R2d2Session::bootstrap(lake.reader_view(), inputs::pipeline_config(seed, 1))?;
    s.enable_persistence(env::persistence(dir).with_snapshot_every(0))?;
    let (model, config) = advisor();
    s.enable_advisor(model, config)?;
    s.view();
    let mut r = Replay::default();
    let mut since_checkpoint = 0usize;
    let t_all = Instant::now();
    let timed = |tracer: &mut Option<&mut Tracer>,
                 name: &'static str,
                 op: u64,
                 parent: Option<usize>,
                 f: &mut dyn FnMut() -> Result<(), Failure>|
     -> Result<f64, Failure> {
        match tracer {
            Some(t) => {
                let (res, d) = t.leaf(name, op, parent, f);
                res.map(|_| ms(d))
            }
            None => {
                let t0 = Instant::now();
                f()?;
                Ok(ms(t0.elapsed()))
            }
        }
    };
    for (i, commit) in transcript.iter().enumerate() {
        let op = i as u64 + 1;
        let root = tracer
            .as_deref_mut()
            .map(|t| t.open("serve.commit", op, None));
        let batch = [commit.clone()];
        timed(&mut tracer, "core.session", op, root, &mut || {
            let outcome = s.apply_group(&batch);
            check!(
                outcome.results.iter().all(|r| r.is_ok()),
                "replayed commit {i} failed"
            );
            Ok(())
        })?;
        r.advise_ms
            .push(timed(&mut tracer, "opt.advisor", op, root, &mut || {
                s.advise()?;
                Ok(())
            })?);
        let st = s.advisor_stats().unwrap_or_default();
        r.resolved += st.components_resolved;
        r.reused += st.components_reused;
        timed(&mut tracer, "serve.publish", op, root, &mut || {
            let _ = s.view();
            Ok(())
        })?;
        since_checkpoint += commit.len();
        if since_checkpoint >= env::SNAPSHOT_EVERY {
            since_checkpoint = 0;
            r.checkpoint_ms
                .push(timed(&mut tracer, "core.persist", op, root, &mut || {
                    s.checkpoint()?;
                    Ok(())
                })?);
        }
        if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
            t.close(root);
        }
    }
    r.total_ms = ms(t_all.elapsed());
    Ok((s, r))
}

fn traced(
    args: &Args,
    dirs: &Dirs,
    envr: &mut env::Environment,
    prep: &Prepared,
    updates: &[LakeUpdate],
) -> Result<Outcome, Failure> {
    let rate = LADDER[NOMINAL];
    let dir = dirs.work.join("serve-traced");
    let live = run_rung(
        args.seed,
        &prep.lake,
        &prep.read_ids,
        updates,
        rate,
        &dir,
        true,
    )?;
    check_rung(args.seed, &prep.lake, &live, &dir)?;
    record_tails(envr, &live);
    let mut attempted = live.batches as u64 + 1;

    // Untraced replays before and after the traced one: the overhead is
    // measured against their mean, so drift during the run cancels.
    let replay_dir = dirs.work.join("serve-replay");
    let (_, plain_before) = replay(args.seed, &prep.lake, &live.transcript, &replay_dir, None)?;
    let mut tracer = Tracer::new();
    let (mut s, r) = replay(
        args.seed,
        &prep.lake,
        &live.transcript,
        &replay_dir,
        Some(&mut tracer),
    )?;
    let (_, plain_after) = replay(args.seed, &prep.lake, &live.transcript, &replay_dir, None)?;
    attempted += 3 * live.transcript.len() as u64;
    check!(
        sorted_edges(s.graph()) == live.final_edges,
        "traced replay graph differs from the served epoch"
    );

    let mut layers = Layers::default();
    let view = s.view();
    layers.scan(&mut tracer, 0, None, &view)?;
    drop(view);
    tracer.write(&crate::trace_path(args))?;
    eprint!("{}", tracer.render_totals());

    layers.read_session(&mut s)?;
    layers.persist_ms = r.checkpoint_ms.iter().sum();
    layers.advise_ms = r.advise_ms.iter().sum();
    layers.components_resolved = r.resolved as u64;
    layers.components_reused = r.reused as u64;
    layers.checkpoints = r.checkpoint_ms.len() as u64;
    layers.dir_bytes = crate::metrics::dir_bytes(&replay_dir);
    layers.commits = live.commits;
    layers.queue_depth_max = live.queue_depth_max;
    layers.overhead_ms = r.total_ms - (plain_before.total_ms + plain_after.total_ms) / 2.0;
    Ok(layers.outcome(attempted, live.failed))
}

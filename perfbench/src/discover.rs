//! `discover`: batch containment discovery plus advice over an in-memory
//! lake — CPU-bound, no I/O. The only workload where the batch
//! `core::pipeline` / `fanout` path runs.
//!
//! One pass is `R2d2Session::bootstrap` at `nproc` threads, then
//! `enable_advisor` + `advise`, on a clone of the wide corpus;
//! `op_p50_ms` is the median pass.

use crate::inputs::{self, advisor, largest_component, sampling_seed, Sampling, SAMPLINGS};
use crate::metrics::{median, ms, quantile, Failure, Outcome};
use crate::report::{EndToEnd, Layers};
use crate::trace::Tracer;
use crate::{check, env, Args, Dirs};
use r2d2_core::clp::content_level_prune;
use r2d2_core::mmp::{min_max_prune_threaded, MmpOptions};
use r2d2_core::{R2d2Pipeline, R2d2Session};
use r2d2_lake::{DataLake, Meter};
use r2d2_opt::AdvisorState;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Warm-up passes before timing; their median is `setup_s`.
const WARMUP_PASSES: usize = 9;
/// Passes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 5;
/// Passes of each arm of the traced run.
const TRACED_PASSES: usize = 3;

struct Pass {
    session: R2d2Session,
    elapsed: Duration,
}

fn pass(lake: &DataLake, seed: u64, threads: usize) -> Result<Pass, Failure> {
    let lake = lake.reader_view();
    let t0 = Instant::now();
    let mut session = R2d2Session::bootstrap(lake, inputs::pipeline_config(seed, threads))?;
    let (model, config) = advisor();
    session.enable_advisor(model, config)?;
    session.advise()?;
    let elapsed = t0.elapsed();
    Ok(Pass { session, elapsed })
}

/// The counters two runs at one seed must reproduce exactly.
fn counters(session: &R2d2Session) -> String {
    let stats = session.advisor_stats().unwrap_or_default();
    format!(
        "edges {}\nops {:?}\nresolve {:?}\n",
        session.graph().edge_count(),
        session.ops().without_page_counters(),
        stats
    )
}

pub fn run(args: &Args, dirs: &Dirs, envr: &mut env::Environment) -> Result<Outcome, Failure> {
    let threads = env::nproc();
    let t_inputs = Instant::now();
    let corpus = inputs::wide_corpus()?;
    let truth = inputs::wide_truth(dirs, &corpus.lake)?;
    envr.num("inputs_s", t_inputs.elapsed().as_secs_f64());
    envr.corpus("corpus", &corpus.lake);
    envr.num("threads", threads as f64);
    envr.num("true_edges", truth.len() as f64);
    let lake = corpus.lake;
    crate::metrics::reset_peak_rss();

    let mut attempted = 0u64;
    let mut setup = Vec::new();
    for i in 0..WARMUP_PASSES {
        attempted += 1;
        setup.push(
            pass(&lake, sampling_seed(args.seed, i), threads)?
                .elapsed
                .as_secs_f64(),
        );
    }
    if args.trace {
        let mut out = traced(args, dirs, &lake, threads, &mut attempted)?;
        out.attempted = attempted;
        return Ok(out);
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut times = Vec::new();
    let mut samplings: Vec<Sampling> = Vec::new();
    while times.len() < MIN_PASSES.max(SAMPLINGS) || start.elapsed() < budget {
        let i = times.len();
        attempted += 1;
        let mut p = pass(&lake, sampling_seed(args.seed, i), threads)?;
        times.push(ms(p.elapsed));
        let c = counters(&p.session);
        if let Some(first) = samplings.get(i % SAMPLINGS) {
            // Exact repeat within the run: a sampling meters the same work
            // every time it runs.
            check!(
                c == first.counters,
                "pass counters differ:\n{}\nvs\n{c}",
                first.counters
            );
            continue;
        }
        // First pass of a sampling: correctness and quality, untimed.
        attempted += 1;
        check_pass(args.seed, i, &lake, &corpus.expected, &p.session, &c)?;
        let found: BTreeSet<(u64, u64)> = p.session.graph().edges().into_iter().collect();
        check!(!found.is_empty(), "discovery found no edges");
        samplings.push(Sampling {
            counters: c,
            precision: found.intersection(&truth).count() as f64 / found.len() as f64,
            cost_ratio: inputs::cost_ratio(&mut p.session)?,
        });
        if i == 0 {
            envr.num("edges", found.len() as f64);
            envr.num(
                "largest_component",
                largest_component(&p.session.advisor_problem()?) as f64,
            );
        }
    }
    let all: String = samplings.iter().map(|s| s.counters.as_str()).collect();
    inputs::check_repeat(
        dirs,
        &format!("discover-{}-{}", args.seed, args.source),
        &all,
    )?;
    let mean =
        |f: fn(&Sampling) -> f64| samplings.iter().map(f).sum::<f64>() / samplings.len() as f64;
    envr.num("passes", times.len() as f64);
    // The tail swings with the load of a shared machine (IQR/median up to
    // 0.21 over ten runs), so it is recorded here, unbounded.
    envr.num("discover_p90_ms", quantile(&mut times, 0.9));
    envr.num("samplings", SAMPLINGS as f64);
    let peak_rss_mb = crate::metrics::peak_rss_mb();
    // Storage, once, after the peak memory is read: persist the state one
    // more pass discovers.
    attempted += 1;
    let mut p = pass(&lake, sampling_seed(args.seed, 0), threads)?;
    let dir = dirs.work.join("discover-persist");
    crate::metrics::remove_dir(&dir)?;
    p.session.enable_persistence(env::persistence(&dir))?;
    let stored = crate::metrics::dir_bytes(&dir) as f64 / lake.total_bytes() as f64;
    Ok(EndToEnd {
        setup_s: median(&mut setup),
        peak_rss_mb,
        op_p50_ms: quantile(&mut times, 0.5),
        cost_ratio: mean(|s| s.cost_ratio),
        edge_precision: mean(|s| s.precision),
        stored_bytes_per_user_byte: stored,
    }
    .outcome(attempted, 0))
}

/// Correctness of one sampling, outside the timed loop: recall 1.0 against
/// the corpus' construction-implied edges, and the graph and counters at
/// one thread equal those at `nproc` threads.
fn check_pass(
    seed: u64,
    i: usize,
    lake: &DataLake,
    expected: &r2d2_graph::ContainmentGraph,
    session: &R2d2Session,
    counters_text: &str,
) -> Result<(), Failure> {
    let graph = session.graph();
    let missed: Vec<(u64, u64)> = expected
        .edges()
        .into_iter()
        .filter(|&(p, c)| !graph.has_edge(p, c))
        .collect();
    check!(
        missed.is_empty(),
        "recall below 1.0: {} of {} expected edges missed, e.g. {:?}",
        missed.len(),
        expected.edge_count(),
        &missed[..missed.len().min(5)]
    );
    let single = pass(lake, sampling_seed(seed, i), 1)?;
    check!(
        single.session.graph() == graph,
        "graph at 1 thread differs from the graph at {} threads",
        env::nproc()
    );
    check!(
        counters(&single.session) == counters_text,
        "counters at 1 thread differ from {} threads",
        env::nproc()
    );
    Ok(())
}

/// Stage timings of one traced pass.
struct StageRun {
    advise_ms: f64,
    total_ms: f64,
}

/// One pass stage by stage — `run_sgb`, `min_max_prune_threaded`,
/// `content_level_prune`, then the advisor — with a span around each; the
/// result must equal the bootstrap graph.
fn traced_pass(
    tracer: &mut Tracer,
    op: u64,
    lake: &DataLake,
    seed: u64,
    threads: usize,
    reference: &r2d2_graph::ContainmentGraph,
) -> Result<StageRun, Failure> {
    let config = inputs::pipeline_config(seed, threads);
    let pipeline = R2d2Pipeline::new(config.clone());
    let meter = Meter::new();
    let root = tracer.open("discover.pass", op, None);
    let (sgb, _) = tracer.leaf("core.sgb", op, Some(root), || {
        pipeline.run_sgb(lake, &meter)
    });
    let mut graph = sgb.graph;
    let (r, _) = tracer.leaf("core.mmp", op, Some(root), || {
        min_max_prune_threaded(
            lake,
            &mut graph,
            MmpOptions::from_config(&config),
            threads,
            &meter,
        )
    });
    r?;
    let (r, _) = tracer.leaf("core.clp", op, Some(root), || {
        content_level_prune(lake, &mut graph, &config, &meter)
    });
    r?;
    let (model, adv) = advisor();
    let (state, d_adv) = tracer.leaf("opt.advisor", op, Some(root), || {
        let mut state = AdvisorState::build(lake, &graph, model, adv)?;
        state.advise();
        Ok::<_, r2d2_lake::LakeError>(state)
    });
    state?;
    let total = tracer.close(root);
    let mut final_edges = graph.edges();
    let mut ref_edges = reference.edges();
    final_edges.sort_unstable();
    ref_edges.sort_unstable();
    check!(
        final_edges == ref_edges,
        "traced stage-by-stage graph differs from the bootstrap graph"
    );
    Ok(StageRun {
        advise_ms: ms(d_adv),
        total_ms: ms(total),
    })
}

fn traced(
    args: &Args,
    dirs: &Dirs,
    lake: &DataLake,
    threads: usize,
    attempted: &mut u64,
) -> Result<Outcome, Failure> {
    let mut untraced = Vec::new();
    let mut reference = None;
    for _ in 0..TRACED_PASSES {
        *attempted += 1;
        let p = pass(lake, sampling_seed(args.seed, 0), threads)?;
        untraced.push(ms(p.elapsed));
        reference = Some(p.session);
    }
    let mut reference = reference.expect("passes ran");
    let mut tracer = Tracer::new();
    let (mut advise_ms, mut totals) = (Vec::new(), Vec::new());
    for i in 0..TRACED_PASSES {
        *attempted += 1;
        let run = traced_pass(
            &mut tracer,
            i as u64,
            lake,
            sampling_seed(args.seed, 0),
            threads,
            reference.graph(),
        )?;
        advise_ms.push(run.advise_ms);
        totals.push(run.total_ms);
    }
    // Outside the passes: persist the discovered state, then scan it.
    let mut layers = Layers::default();
    let dir = dirs.work.join("discover-persist");
    crate::metrics::remove_dir(&dir)?;
    let (r, d) = tracer.leaf("core.persist", 0, None, || {
        reference.enable_persistence(env::persistence(&dir))
    });
    r?;
    layers.persist_ms = ms(d);
    layers.checkpoints = reference.persistence_generation().unwrap_or(0);
    layers.dir_bytes = crate::metrics::dir_bytes(&dir);
    let view = reference.view();
    layers.scan(&mut tracer, 0, None, &view)?;
    drop(view);
    tracer.write(&crate::trace_path(args))?;
    eprint!("{}", tracer.render_totals());
    layers.read_session(&mut reference)?;
    layers.advise_ms = median(&mut advise_ms);
    layers.overhead_ms = median(&mut totals) - median(&mut untraced);
    Ok(layers.outcome(*attempted, 0))
}

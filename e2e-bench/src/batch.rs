//! The batch workloads: `.nest` text → `parse_nest` → `run_batch`
//! (dependence analysis + beam search on a work-stealing pool with one
//! cold shared legality cache per pass, as every `irlt-batch`
//! invocation pays) → `TransformSeq::apply` of each winner → `emit_c`.

use crate::gen::{self, GenJob, GoalKind};
use crate::metrics::Metrics;
use crate::referee;
use crate::replay;
use crate::replay::RECONCILE_TOLERANCE;
use crate::stats::{self, host_cpus, mean, median, quantile, ratio};
use crate::trace::{self, Tracer};
use crate::Outcome;
use irlt_cachesim::{AddressMap, CacheConfig, Order};
use irlt_driver::{run_batch, BatchConfig, BatchResult, Job};
use irlt_ir::{emit_c, parse_nest, CEmitOptions, LoopNest};
use irlt_obs::Telemetry;
use irlt_opt::{Goal, LocalityGoal, MoveCatalog};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Empty batches timed for `setup_s` before each measured pass; the
/// median over the whole run is reported, so that one busy moment of the
/// host does not set it.
const SETUP_REPS_PER_PASS: usize = 64;

/// The engine goal of a generated job.
pub fn goal_of(job: &GenJob) -> Goal {
    match job.goal {
        GoalKind::Outer => Goal::OuterParallel,
        GoalKind::Inner => Goal::InnerParallel,
        GoalKind::Locality => locality_goal(job),
    }
}

/// The move catalog a generated job searches.
pub fn catalog_of(job: &GenJob) -> MoveCatalog {
    match job.goal {
        GoalKind::Locality => MoveCatalog::locality(),
        _ => MoveCatalog::default(),
    }
}

/// A cache-simulated locality goal at the job's trial bounds: every
/// array the body touches is declared column major with a one-element
/// halo, against a small 2 KiB 2-way cache so the walk order matters.
pub fn locality_goal(job: &GenJob) -> Goal {
    let extent = job.trial.iter().map(|(_, v)| *v).max().unwrap_or(1) as u64 + 3;
    let mut map = AddressMap::new(Order::ColMajor, 8);
    for (name, rank) in &job.arrays {
        map.declare_with_origin(*name, &vec![extent; *rank], &vec![-1; *rank]);
    }
    Goal::Locality(LocalityGoal {
        params: job.trial.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        map,
        cache: CacheConfig {
            size_bytes: 2048,
            line_bytes: 64,
            associativity: 2,
        },
    })
}

/// The score of the identity sequence, as the search scores its root:
/// the body-less shape for structural goals, the real nest for
/// locality.
pub fn identity_score(goal: &Goal, nest: &LoopNest) -> Option<f64> {
    match goal {
        Goal::Locality(_) => goal.score(nest),
        _ => goal.score(&LoopNest::with_inits(
            nest.loops().to_vec(),
            Vec::new(),
            Vec::new(),
        )),
    }
}

/// The referee's view of one job's output.
struct JobOut {
    seq: String,
    score_bits: u64,
    c: String,
}

/// One pass over the corpus.
struct Pass {
    wall: Duration,
    /// Per-job latency: parse + search (as `run_batch` timed it) + apply
    /// + emit, in milliseconds.
    job_ms: Vec<f64>,
    outs: Vec<JobOut>,
    nests: Vec<LoopNest>,
    transformed: Vec<LoopNest>,
    result: BatchResult,
}

/// Runs one pass on `threads` workers (0: one per core); with a tracer,
/// records the benchmark's spans around every layer call under one
/// `pass` root span.
fn pass(
    corpus: &[GenJob],
    prepared: &[(Goal, MoveCatalog)],
    telemetry: &Telemetry,
    threads: usize,
    tracer: Option<&mut Tracer>,
    pass_id: u64,
) -> Result<Pass, String> {
    let opts = CEmitOptions::default();
    let start = Instant::now();
    let mut stamps = Vec::with_capacity(corpus.len() + 1);
    let mut jobs = Vec::with_capacity(corpus.len());
    stamps.push(start);
    for (g, (goal, catalog)) in corpus.iter().zip(prepared) {
        let nest = parse_nest(&g.text).map_err(|e| format!("{}: {e}", g.name))?;
        jobs.push(
            Job::new(g.name.clone(), nest, goal.clone())
                .with_catalog(catalog.clone())
                .with_search(g.max_steps, g.beam),
        );
        stamps.push(Instant::now());
    }
    let config = BatchConfig {
        telemetry: telemetry.clone(),
        threads,
        ..BatchConfig::default()
    };
    let result = run_batch(&jobs, &config);
    let batch_end = Instant::now();
    let mut outs = Vec::with_capacity(jobs.len());
    let mut transformed = Vec::with_capacity(jobs.len());
    let mut apply_ends = Vec::with_capacity(jobs.len());
    let mut emit_ends = Vec::with_capacity(jobs.len());
    for (job, r) in jobs.iter().zip(&result.jobs) {
        let out = r
            .best
            .seq
            .apply(&job.nest)
            .map_err(|e| format!("{}: winner does not apply: {e}", job.name))?;
        apply_ends.push(Instant::now());
        let c = emit_c(&out, &opts);
        emit_ends.push(Instant::now());
        outs.push(JobOut {
            seq: r.best.seq.to_string(),
            score_bits: r.best.score.to_bits(),
            c,
        });
        transformed.push(out);
    }
    let end = Instant::now();
    let mut job_ms = Vec::with_capacity(jobs.len());
    let mut prev = batch_end;
    for k in 0..jobs.len() {
        let parse = stamps[k + 1] - stamps[k];
        let apply_emit = emit_ends[k] - prev;
        prev = emit_ends[k];
        job_ms.push((parse + result.jobs[k].wall + apply_emit).as_secs_f64() * 1e3);
    }
    if let Some(t) = tracer {
        let root = t.span("pass", None, pass_id, start, end);
        for w in stamps.windows(2) {
            t.span("ir.parse", Some(root), pass_id, w[0], w[1]);
        }
        t.span(
            "driver.run_batch",
            Some(root),
            pass_id,
            stamps[stamps.len() - 1],
            batch_end,
        );
        let mut prev = batch_end;
        for k in 0..jobs.len() {
            t.span("core.apply", Some(root), pass_id, prev, apply_ends[k]);
            t.span(
                "ir.emit_c",
                Some(root),
                pass_id,
                apply_ends[k],
                emit_ends[k],
            );
            prev = emit_ends[k];
        }
    }
    Ok(Pass {
        wall: end - start,
        job_ms,
        outs,
        nests: jobs.into_iter().map(|j| j.nest).collect(),
        transformed,
        result,
    })
}

/// Times [`SETUP_REPS_PER_PASS`] empty batches into `walls`: pool spawn,
/// shared-cache construction and join, the fixed cost one `run_batch`
/// pays before its first job.
fn sample_setup(walls: &mut Vec<f64>) {
    let config = BatchConfig::default();
    for _ in 0..SETUP_REPS_PER_PASS {
        let t = Instant::now();
        std::hint::black_box(run_batch(&[], &config));
        walls.push(t.elapsed().as_secs_f64());
    }
}

/// Referee for one workload run: every winner of the first pass must be
/// equivalent to its source by execution, and every later pass must
/// reproduce the first bit for bit. Returns the problems found, the
/// number of failed jobs and the number of binding sets left unchecked
/// as outside the framework's domain.
fn referee_passes(corpus: &[GenJob], passes: &[Pass]) -> (Vec<String>, u64, usize) {
    let mut problems = Vec::new();
    let (mut failed, mut outside) = (0, 0);
    let first = &passes[0];
    // Execution verdicts by (source, winner): repeated shapes with the
    // same winner are executed once.
    let mut verdicts: HashMap<(&str, &str), Result<usize, String>> = HashMap::new();
    for (k, g) in corpus.iter().enumerate() {
        let verdict = verdicts
            .entry((g.text.as_str(), first.outs[k].seq.as_str()))
            .or_insert_with(|| {
                referee::check_winner(&first.nests[k], &first.transformed[k], &g.checks, k as u64)
            });
        outside += verdict.as_ref().map_or(0, |n| *n);
        let mut bad = verdict
            .clone()
            .err()
            .map(|why| format!("{}: {why}", g.name));
        if !first.result.jobs[k].status.is_completed() {
            bad = Some(format!("{}: search did not complete", g.name));
        }
        for p in &passes[1..] {
            let (a, b) = (&first.outs[k], &p.outs[k]);
            if a.seq != b.seq || a.score_bits != b.score_bits || a.c != b.c {
                bad.get_or_insert(format!("{}: passes disagree", g.name));
            }
        }
        if let Some(why) = bad {
            problems.push(why);
            failed += passes.len() as u64;
        }
    }
    (problems, failed, outside)
}

/// Runs `workload` for `budget` and reports its metrics.
pub fn run(workload: &str, seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    let corpus = match workload {
        "batch-deep" => gen::batch_deep(seed),
        _ => gen::batch_locality(seed),
    };
    let prepared: Vec<(Goal, MoveCatalog)> =
        corpus.iter().map(|g| (goal_of(g), catalog_of(g))).collect();
    // One untimed pass lets lazy allocation settle; its outputs are
    // refereed with the rest. The peak RSS is read after it: the memory
    // one `irlt-batch` invocation needs, before later passes reuse (and
    // fragment) the heap.
    let quiet = Telemetry::disabled();
    let mut passes = vec![pass(&corpus, &prepared, &quiet, 0, None, 0)?];
    let peak_rss_mb = stats::peak_rss_mb("self")?;
    let untraced_budget = if trace { budget / 2 } else { budget };
    let (mut setups, mut cpu_s) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut measured = Vec::new();
    while measured.is_empty() || t0.elapsed() < untraced_budget {
        sample_setup(&mut setups);
        measured.push(passes.len());
        let cpu = stats::cpu_seconds("self")?;
        passes.push(pass(
            &corpus,
            &prepared,
            &quiet,
            0,
            None,
            passes.len() as u64,
        )?);
        cpu_s.push(stats::cpu_seconds("self")? - cpu);
    }
    let mut metrics = Metrics::default();
    if !trace {
        let (problems, failed, _) = referee_passes(&corpus, &passes);
        let attempted = (corpus.len() * measured.len()) as u64;
        let failed = failed.min(attempted);
        let walls: Vec<f64> = measured
            .iter()
            .map(|&p| passes[p].wall.as_secs_f64())
            .collect();
        let first = &passes[0];
        let mut gain = 0.0;
        for (k, (goal, _)) in prepared.iter().enumerate() {
            let base = identity_score(goal, &first.nests[k])
                .ok_or(format!("{}: source nest is unscorable", corpus[k].name))?;
            gain += f64::from_bits(first.outs[k].score_bits) - base;
        }
        let jobs = corpus.len() as f64;
        metrics.set("setup_s", median(&setups));
        metrics.set("nests_per_s", jobs / median(&walls));
        metrics.set("cpu_ms_per_nest", median(&cpu_s) * 1e3 / jobs);
        metrics.set("peak_rss_mb", peak_rss_mb);
        metrics.set("ok_share", 1.0 - failed as f64 / attempted as f64);
        metrics.set("code.score_gain", gain / jobs);
        metrics.set(
            "code.c_bytes",
            first.outs.iter().map(|o| o.c.len()).sum::<usize>() as f64 / jobs,
        );
        return Ok(Outcome {
            attempted,
            failed,
            problems,
            metrics,
        });
    }

    // Traced: passes with the benchmark's spans and the crates'
    // telemetry on, for the ledger and the overhead ratio.
    let mut traced = Vec::new();
    let mut tracer = Tracer::new(Instant::now());
    let telemetry = Telemetry::enabled();
    let t1 = Instant::now();
    while traced.len() < 2 || t1.elapsed() < budget - untraced_budget {
        traced.push(passes.len());
        let id = passes.len() as u64;
        passes.push(pass(
            &corpus,
            &prepared,
            &telemetry,
            0,
            Some(&mut tracer),
            id,
        )?);
    }
    let replayed = replay::replay(&corpus.iter().collect::<Vec<_>>())?;
    let explained = replayed.explained_share();

    let (mut problems, failed, outside) = referee_passes(&corpus, &passes);
    let attempted = (corpus.len() * measured.len()) as u64;
    let failed = failed.min(attempted);
    if (1.0 - explained).abs() > RECONCILE_TOLERANCE {
        problems.push(format!(
            "the replayed layer calls explain {:.1}% of the search time (tolerance ±{:.0}%)",
            explained * 100.0,
            RECONCILE_TOLERANCE * 100.0
        ));
    }
    layer_metrics(
        &mut metrics,
        corpus.len() as f64,
        &passes,
        &measured,
        &traced,
        &tracer,
        &telemetry,
    )?;
    replayed.record(&mut metrics);
    metrics.set("opt.search.explained_share", explained);
    metrics.set("referee.checks_outside_domain", outside as f64);
    metrics.zero_missing_layers();
    tracer
        .write(&trace::trace_path(workload, seed))
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics,
    })
}

/// Per-layer metrics of a traced batch run that its passes give: the
/// benchmark's spans, the job results and the crates' telemetry.
fn layer_metrics(
    m: &mut Metrics,
    jobs: f64,
    passes: &[Pass],
    untraced: &[usize],
    traced: &[usize],
    tracer: &Tracer,
    telemetry: &Telemetry,
) -> Result<(), String> {
    let n_traced = traced.len() as f64;
    let report = telemetry.report();
    let wall =
        |set: &[usize]| -> Vec<f64> { set.iter().map(|&p| passes[p].wall.as_secs_f64()).collect() };

    // Search and pool, from the job results.
    let search_ms = |p: usize| -> Vec<f64> {
        passes[p]
            .result
            .jobs
            .iter()
            .map(|j| j.wall.as_secs_f64() * 1e3)
            .collect()
    };
    let (mut busy, mut max_job, mut idle, mut steals) = (Vec::new(), Vec::new(), Vec::new(), 0.0);
    for &p in traced {
        let r = &passes[p].result;
        let job_ms = search_ms(p);
        let sum: f64 = job_ms.iter().sum();
        busy.push(sum);
        max_job.push(job_ms.iter().copied().fold(0.0, f64::max));
        idle.push(1.0 - sum / (r.workers as f64 * r.wall.as_secs_f64() * 1e3));
        steals += r.steals as f64;
    }
    let untraced_search: Vec<f64> = untraced.iter().flat_map(|&p| search_ms(p)).collect();
    let cache = passes[*traced.last().expect("at least two traced passes")]
        .result
        .cache
        .ok_or("run_batch ran without its shared cache")?;
    let span_total_ms = |name: &str| {
        report
            .spans
            .get(name)
            .map_or(0.0, |s| s.total_ns as f64 / 1e6)
    };
    let traced_search_ms = span_total_ms("driver/job");

    let job_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|&p| passes[p].job_ms.iter().copied())
        .collect();
    m.set("host.cpus", host_cpus() as f64);
    m.set("latency.p50_ms", median(&job_ms));
    m.set("latency.p99_ms", quantile(&job_ms, 0.99));
    m.set("ir.parse.us_per_nest", tracer.mean_us("ir.parse"));
    m.set("ir.emit_c.us_per_nest", tracer.mean_us("ir.emit_c"));
    m.set("core.apply.us_per_call", tracer.mean_us("core.apply"));
    m.set(
        "core.cache.hit_ratio",
        ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
    );
    m.set("core.cache.inserts", cache.inserts as f64);
    m.set("core.cache.contended", cache.contended as f64);
    m.set("core.cache.entries", cache.entries as f64);
    m.set(
        "cachesim.score.calls",
        report.counter("cachesim/simulations") as f64 / (jobs * n_traced),
    );
    m.set("opt.search.ms_per_job", mean(&untraced_search));
    m.set(
        "opt.expand.share",
        span_total_ms("search/expand") / traced_search_ms,
    );
    m.set(
        "opt.merge.share",
        span_total_ms("search/merge") / traced_search_ms,
    );
    m.set("driver.job.busy_ms", mean(&busy));
    m.set("driver.job.max_ms", median(&max_job));
    m.set("driver.pool.idle_share", median(&idle));
    m.set("driver.steals", steals / n_traced);
    m.set(
        "obs.trace_overhead_ratio",
        median(&wall(traced)) / median(&wall(untraced)),
    );
    Ok(())
}

//! The `serve-open` workload: an open-loop client of a live
//! `irlt-serve` server process over one Unix-socket connection.
//!
//! The server is this binary re-executed with [`CHILD_FLAG`], running
//! [`irlt_serve::Server`] with `workers = nproc` and every other setting
//! at its default. The client is this process: one sender thread that
//! writes each request when it is due and the main thread reading
//! events, so it never uses more than two threads.

use crate::batch::{goal_of, identity_score};
use crate::gen::{self, Arrival, GenJob, GoalKind, ServeTraffic};
use crate::metrics::Metrics;
use crate::referee::{self, Verdict};
use crate::replay;
use crate::replay::RECONCILE_TOLERANCE;
use crate::stats::{self, host_cpus, mean, median, quantile, ratio};
use crate::trace::{self, Tracer};
use crate::Outcome;
use irlt_driver::{run_batch, BatchConfig, Job};
use irlt_ir::{emit_c, parse_nest, CEmitOptions};
use irlt_obs::{Json, Telemetry};
use irlt_serve::{client, Event, GoalSpec, OptimizeRequest, Request, ServeConfig, Server};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// First argument that turns this binary into the server process.
pub const CHILD_FLAG: &str = "--serve-child";

/// The fixed arrival rates (requests per second), lowest first.
pub const RATES: [(&str, f64); 3] = [("lo", 200.0), ("mid", 400.0), ("hi", 600.0)];
/// The rung the traced run repeats on a telemetry-enabled server.
const TRACED_RUNG: usize = 1;
/// p99 latency limit a rung must meet, in milliseconds.
pub const P99_LIMIT_MS: f64 = 50.0;
/// The generator fell behind its own schedule when its p99 send lag
/// exceeds this; such a rung is invalid and is measured again, up to
/// [`RUNG_ATTEMPTS`] times in all, and a run with a rung that never
/// came out valid prints no result.
pub const LAG_LIMIT_MS: f64 = 10.0;
/// Attempts at each rung before the run is declared invalid.
const RUNG_ATTEMPTS: usize = 3;
/// Extra server start-ups timed for `setup_s` before each rung (beside
/// the start-up of the server the ladder runs on); the median over the
/// run is reported, so that one busy moment of the host does not set it.
const SETUP_REPS_PER_RUNG: usize = 3;
/// Share of the run's budget each rung's schedule spans.
const RUNG_SHARE: f64 = 0.3;
/// Longest wait for any single event before the run is abandoned.
const EVENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Entry point of the server process: `CHILD_FLAG SOCKET TELEMETRY`.
pub fn child_main(args: &[String]) -> ExitCode {
    let (Some(socket), Some(tel)) = (args.first(), args.get(1)) else {
        eprintln!("usage: {CHILD_FLAG} SOCKET 0|1");
        return ExitCode::from(2);
    };
    let telemetry = if tel == "1" {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let config = ServeConfig {
        workers: host_cpus(),
        telemetry,
        ..ServeConfig::default()
    };
    match Server::spawn(config, Path::new(socket)) {
        Ok(handle) => {
            handle.join();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve child: {socket}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A running server process; killed and reaped on drop if still alive.
struct ServerProc {
    child: Child,
    socket: PathBuf,
}

impl ServerProc {
    /// Starts a server on `socket` (relative to the working directory)
    /// and waits until it answers `ping`.
    fn start(socket: PathBuf, telemetry: bool) -> Result<ServerProc, String> {
        let _ = std::fs::remove_file(&socket);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let child = Command::new(exe)
            .arg(CHILD_FLAG)
            .arg(&socket)
            .arg(if telemetry { "1" } else { "0" })
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        let server = ServerProc { child, socket };
        let t = Instant::now();
        while client::ping(&server.socket).is_err() {
            if t.elapsed() > EVENT_TIMEOUT {
                return Err("the server never answered ping".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(server)
    }

    /// Drains the server and waits for its process to exit.
    fn stop(mut self) -> Result<(), String> {
        client::shutdown(&self.socket).map_err(|e| format!("shutdown: {e}"))?;
        let status = self.child.wait().map_err(|e| format!("waiting: {e}"))?;
        let _ = std::fs::remove_file(&self.socket);
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// The job `irlt-serve` builds from `g`'s request: default catalog,
/// the request's goal and search settings.
fn engine_job(g: &GenJob) -> Result<Job, String> {
    let nest = parse_nest(&g.text).map_err(|e| format!("{}: {e}", g.name))?;
    Ok(Job::new(g.name.clone(), nest, goal_of(g)).with_search(g.max_steps, g.beam))
}

/// Starts a server and warms its cache with every repeated shape; the
/// returned duration is `setup_s`'s sample.
fn start_warm(
    socket: PathBuf,
    telemetry: bool,
    traffic: &ServeTraffic,
) -> Result<(ServerProc, f64), String> {
    let warm: Vec<Job> = traffic.jobs[..traffic.warm]
        .iter()
        .map(engine_job)
        .collect::<Result<_, _>>()?;
    let t = Instant::now();
    let server = ServerProc::start(socket, telemetry)?;
    let report = client::run_jobs(&server.socket, &warm, &client::ClientOptions::default())
        .map_err(|e| format!("warm-up: {e}"))?;
    let setup = t.elapsed().as_secs_f64();
    if report.completed() != warm.len() {
        return Err(format!(
            "warm-up completed {} of {} requests",
            report.completed(),
            warm.len()
        ));
    }
    Ok((server, setup))
}

/// What the client saw of one request.
#[derive(Clone, Debug, Default)]
struct Seen {
    sent: Option<Instant>,
    queue_depth: u64,
    queued_us: u64,
    done: Option<Instant>,
    verdict: Option<Verdict>,
    service_ms: f64,
    refused: bool,
}

/// One rung's results.
struct Rung {
    start: Instant,
    arrivals: Vec<Arrival>,
    seen: Vec<Seen>,
}

impl Rung {
    fn due(&self, i: usize) -> Instant {
        self.start + Duration::from_micros(self.arrivals[i].due_us)
    }

    /// Client-observed latency from the due time, in milliseconds; a
    /// refused or unanswered request is infinitely late.
    fn latencies(&self) -> Vec<f64> {
        (0..self.seen.len())
            .map(|i| match (&self.seen[i].done, self.seen[i].refused) {
                (Some(done), false) => (*done - self.due(i)).as_secs_f64() * 1e3,
                _ => f64::INFINITY,
            })
            .collect()
    }

    fn lags(&self) -> Vec<f64> {
        (0..self.seen.len())
            .filter_map(|i| Some((self.seen[i].sent? - self.due(i)).as_secs_f64() * 1e3))
            .collect()
    }

    /// Seconds from the rung's start to its last answer.
    fn span_s(&self) -> f64 {
        let last = self.seen.iter().filter_map(|s| s.done).max();
        last.map_or(0.0, |t| (t - self.start).as_secs_f64())
    }

    /// Meets the p99 limit, with no backlog growing across the rung
    /// (the last quarter's median latency within twice the first's plus
    /// a tenth of the limit).
    fn meets_limit(&self) -> bool {
        let lat = self.latencies();
        let q = lat.len() / 4;
        if q == 0 {
            return false;
        }
        let (first, last) = (median(&lat[..q]), median(&lat[lat.len() - q..]));
        quantile(&lat, 0.99) <= P99_LIMIT_MS && last <= 2.0 * first + P99_LIMIT_MS / 10.0
    }
}

fn request_line(g: &GenJob, id: String) -> String {
    let goal = match g.goal {
        GoalKind::Inner => GoalSpec::Inner,
        _ => GoalSpec::Outer,
    };
    let mut line = Request::Optimize(Box::new(OptimizeRequest {
        id,
        nest: g.text.clone(),
        goal,
        max_steps: Some(g.max_steps),
        beam_width: Some(g.beam),
        deadline_ms: None,
    }))
    .to_line();
    line.push('\n');
    line
}

/// Drives one rung open loop: the sender thread writes each request at
/// its due time whatever the server is doing; this thread reads events
/// until every request has a terminal one.
fn run_rung(
    socket: &Path,
    traffic: &ServeTraffic,
    rung: usize,
    arrivals: &[Arrival],
) -> Result<Rung, String> {
    let io = |e: std::io::Error| format!("socket: {e}");
    let stream = UnixStream::connect(socket).map_err(io)?;
    stream.set_read_timeout(Some(EVENT_TIMEOUT)).map_err(io)?;
    let mut writer = stream.try_clone().map_err(io)?;
    let mut reader = BufReader::new(stream);
    let lines: Vec<String> = arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| request_line(&traffic.jobs[a.job], format!("r{rung}-{i}")))
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let mut seen = vec![Seen::default(); arrivals.len()];
    let sender = std::thread::spawn({
        let dues: Vec<Instant> = arrivals
            .iter()
            .map(|a| start + Duration::from_micros(a.due_us))
            .collect();
        move || -> Result<Vec<Instant>, String> {
            let mut sent = Vec::with_capacity(dues.len());
            for (due, line) in dues.iter().zip(&lines) {
                let now = Instant::now();
                if *due > now {
                    std::thread::sleep(*due - now);
                }
                sent.push(Instant::now());
                writer
                    .write_all(line.as_bytes())
                    .map_err(|e| format!("socket: {e}"))?;
            }
            Ok(sent)
        }
    });
    let mut open = arrivals.len();
    let mut line = String::new();
    let read = (|| -> Result<(), String> {
        while open > 0 {
            line.clear();
            if reader.read_line(&mut line).map_err(io)? == 0 {
                return Err("the server closed the connection".into());
            }
            let now = Instant::now();
            let event = Event::parse(line.trim()).map_err(|e| format!("event: {e}"))?;
            let index = |id: &str| -> Result<usize, String> {
                id.strip_prefix(&format!("r{rung}-"))
                    .and_then(|k| k.parse::<usize>().ok())
                    .filter(|&k| k < arrivals.len())
                    .ok_or(format!("event for unknown request `{id}`"))
            };
            match event {
                Event::Accepted { id, queue_depth } => seen[index(&id)?].queue_depth = queue_depth,
                Event::Started { id, queued_us, .. } => seen[index(&id)?].queued_us = queued_us,
                Event::Done {
                    id,
                    status,
                    seq,
                    score,
                    shape,
                    wall_ms,
                    ..
                } => {
                    let s = &mut seen[index(&id)?];
                    s.done = Some(now);
                    s.refused = status != "completed";
                    s.verdict = Some(Verdict {
                        seq,
                        shape,
                        score_bits: score.map(f64::to_bits),
                    });
                    s.service_ms = wall_ms;
                    open -= 1;
                }
                Event::Rejected { id: Some(id), .. } | Event::Failed { id, .. } => {
                    let s = &mut seen[index(&id)?];
                    (s.done, s.refused) = (Some(now), true);
                    open -= 1;
                }
                other => return Err(format!("unexpected event {other:?}")),
            }
        }
        Ok(())
    })();
    let sent = sender
        .join()
        .map_err(|_| "the sender thread panicked".to_string())?;
    read?;
    for (s, t) in seen.iter_mut().zip(sent?) {
        s.sent = Some(t);
    }
    Ok(Rung {
        start,
        arrivals: arrivals.to_vec(),
        seen,
    })
}

/// Shared-cache counters from the server's `stats` answer.
fn cache_stats(socket: &Path) -> Result<BTreeMap<String, f64>, String> {
    let payload = client::stats(socket).map_err(|e| format!("stats: {e}"))?;
    let cache = payload
        .get("cache")
        .and_then(Json::as_object)
        .ok_or("stats: no cache object")?;
    Ok(cache
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect())
}

/// What the referee found, and what its own `run_batch` measured.
struct Refereed {
    problems: Vec<String>,
    failed: u64,
    /// The index of every distinct job served.
    used: Vec<usize>,
    /// Binding sets left unchecked as outside the framework's domain.
    outside: usize,
    /// Mean winner score gain over the identity, and mean bytes of C.
    score_gain: f64,
    c_bytes: f64,
}

/// The referee: every served result must equal `run_batch` on the same
/// job bit for bit, and the batch winner must be equivalent to its
/// source by execution. With a tracer, the referee's own parse, apply
/// and emit calls are recorded as spans.
fn referee_served(
    traffic: &ServeTraffic,
    rungs: &[Rung],
    mut tracer: Option<&mut Tracer>,
) -> Result<Refereed, String> {
    let mut used: Vec<usize> = rungs
        .iter()
        .flat_map(|r| r.arrivals.iter().map(|a| a.job))
        .collect();
    used.sort_unstable();
    used.dedup();
    let mut jobs = Vec::with_capacity(used.len());
    for &k in &used {
        let t = Instant::now();
        jobs.push(engine_job(&traffic.jobs[k])?);
        if let Some(tr) = tracer.as_deref_mut() {
            tr.span("ir.parse", None, k as u64, t, Instant::now());
        }
    }
    let batch = run_batch(&jobs, &BatchConfig::default());
    let slot: HashMap<usize, usize> = used.iter().enumerate().map(|(s, &k)| (k, s)).collect();
    let mut problems = Vec::new();
    let (mut failed, mut outside) = (0, 0);
    for rung in rungs {
        for (a, s) in rung.arrivals.iter().zip(&rung.seen) {
            let r = &batch.jobs[slot[&a.job]];
            let expected = Verdict {
                seq: r.best.seq.to_string(),
                shape: r.best.shape.to_string(),
                score_bits: r.best.score.is_finite().then_some(r.best.score.to_bits()),
            };
            let verdict = match (&s.verdict, s.refused) {
                (Some(v), false) => referee::check_served(v, &expected),
                _ => Err("refused, failed or unanswered".to_string()),
            };
            if let Err(why) = verdict {
                failed += 1;
                if problems.len() < 10 {
                    problems.push(format!("{}: {why}", traffic.jobs[a.job].name));
                }
            }
        }
    }
    let opts = CEmitOptions::default();
    let (mut gains, mut c_bytes) = (Vec::new(), Vec::new());
    for (s, &k) in used.iter().enumerate() {
        let g = &traffic.jobs[k];
        let r = &batch.jobs[s];
        let t = Instant::now();
        let out = r
            .best
            .seq
            .apply(&jobs[s].nest)
            .map_err(|e| format!("{}: winner does not apply: {e}", g.name))?;
        let applied = Instant::now();
        c_bytes.push(emit_c(&out, &opts).len() as f64);
        if let Some(tr) = tracer.as_deref_mut() {
            tr.span("core.apply", None, k as u64, t, applied);
            tr.span("ir.emit_c", None, k as u64, applied, Instant::now());
        }
        match referee::check_winner(&jobs[s].nest, &out, &g.checks, k as u64) {
            Ok(n) => outside += n,
            Err(why) => {
                problems.push(format!("{}: {why}", g.name));
                failed += 1;
            }
        }
        let base = identity_score(&goal_of(g), &jobs[s].nest)
            .ok_or(format!("{}: source nest is unscorable", g.name))?;
        gains.push(r.best.score - base);
    }
    Ok(Refereed {
        problems,
        failed,
        used,
        outside,
        score_gain: mean(&gains),
        c_bytes: mean(&c_bytes),
    })
}

/// Runs `serve-open` for `budget` and reports its metrics.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    // Socket paths are short and relative (a `sun_path` holds 108
    // bytes): both processes work in this package's `out/` directory.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::env::set_current_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let socket = |k: usize| PathBuf::from(format!("s{}-{k}.sock", std::process::id()));

    // In a traced run the ladder shares the budget with one more rung
    // on a telemetry-enabled server.
    let share = if trace { RUNG_SHARE * 0.75 } else { RUNG_SHARE };
    let rung_us = (budget.as_secs_f64() * share * 1e6) as u64;
    let rates: Vec<f64> = RATES.iter().map(|(_, r)| *r).collect();
    let traffic = gen::serve_traffic(seed, &rates, rung_us);

    let (server, t) = start_warm(socket(0), false, &traffic)?;
    let mut setups = vec![t];
    let pid = server.child.id().to_string();
    let (mut rungs, mut cpu_s) = (Vec::new(), 0.0);
    for (r, (rung_name, _)) in RATES.iter().enumerate() {
        // Extra start-ups, each on its own socket, while the ladder's
        // server idles between rungs.
        for k in 0..if trace { 0 } else { SETUP_REPS_PER_RUNG } {
            let (extra, t) = start_warm(socket(1 + r * SETUP_REPS_PER_RUNG + k), false, &traffic)?;
            extra.stop()?;
            setups.push(t);
        }
        for attempt in 1.. {
            let cpu = stats::cpu_seconds(&pid)?;
            let rung = run_rung(&server.socket, &traffic, r, &traffic.rungs[r])?;
            let lag_p99 = quantile(&rung.lags(), 0.99);
            if lag_p99 <= LAG_LIMIT_MS {
                cpu_s += stats::cpu_seconds(&pid)? - cpu;
                rungs.push(rung);
                break;
            }
            let why = format!(
                "rung {rung_name}: the generator's p99 send lag was {lag_p99:.2} ms (limit {LAG_LIMIT_MS} ms)"
            );
            if attempt == RUNG_ATTEMPTS {
                return Err(format!("invalid run: {why} in {attempt} attempts"));
            }
            eprintln!("irlt-e2e-bench: {why}; measuring the rung again");
        }
    }
    let peak_rss_mb = stats::peak_rss_mb(&pid)?;
    let cache = cache_stats(&server.socket)?;
    server.stop()?;

    let lags: Vec<f64> = rungs.iter().flat_map(Rung::lags).collect();
    let lag_p99 = quantile(&lags, 0.99);
    let attempted: u64 = rungs.iter().map(|r| r.seen.len() as u64).sum();
    let answered = rungs
        .iter()
        .map(|r| r.seen.iter().filter(|s| s.verdict.is_some()).count())
        .sum::<usize>();
    let mut metrics = Metrics::default();
    if !trace {
        let refereed = referee_served(&traffic, &rungs, None)?;
        let failed = refereed.failed.min(attempted);
        let span: f64 = rungs.iter().map(Rung::span_s).sum();
        metrics.set("setup_s", median(&setups));
        metrics.set("nests_per_s", answered as f64 / span);
        metrics.set("cpu_ms_per_nest", cpu_s * 1e3 / answered as f64);
        metrics.set("peak_rss_mb", peak_rss_mb);
        metrics.set("ok_share", 1.0 - failed as f64 / attempted as f64);
        metrics.set("code.score_gain", refereed.score_gain);
        metrics.set("code.c_bytes", refereed.c_bytes);
        return Ok(Outcome {
            attempted,
            failed,
            problems: refereed.problems,
            metrics,
        });
    }

    // Traced: one more `mid` rung on a server with telemetry on, for
    // the overhead ratio; the referee with its calls spanned, then the
    // layer replay of the served jobs and the ledger.
    let (traced_server, _) = start_warm(socket(1), true, &traffic)?;
    let traced_rung = run_rung(
        &traced_server.socket,
        &traffic,
        TRACED_RUNG,
        &traffic.rungs[TRACED_RUNG],
    )?;
    traced_server.stop()?;
    let mut tracer = Tracer::new(rungs[0].start);
    let refereed = referee_served(&traffic, &rungs, Some(&mut tracer))?;
    let failed = refereed.failed.min(attempted);
    let replayed: Vec<&GenJob> = refereed.used.iter().map(|&k| &traffic.jobs[k]).collect();
    let replayed = replay::replay(&replayed)?;
    let explained = replayed.explained_share();
    let mut problems = refereed.problems;
    if (1.0 - explained).abs() > RECONCILE_TOLERANCE {
        problems.push(format!(
            "the replayed layer calls explain {:.1}% of the search time (tolerance ±{:.0}%)",
            explained * 100.0,
            RECONCILE_TOLERANCE * 100.0
        ));
    }
    // The search's own phase spans, from the same jobs on a batch with
    // telemetry on.
    let jobs: Vec<Job> = refereed
        .used
        .iter()
        .map(|&k| engine_job(&traffic.jobs[k]))
        .collect::<Result<_, _>>()?;
    let telemetry = Telemetry::enabled();
    run_batch(
        &jobs,
        &BatchConfig {
            telemetry: telemetry.clone(),
            ..BatchConfig::default()
        },
    );
    let report = telemetry.report();
    let span_ms = |name: &str| {
        report
            .spans
            .get(name)
            .map_or(0.0, |s| s.total_ns as f64 / 1e6)
    };

    for (r, rung) in rungs.iter().enumerate() {
        for (i, s) in rung.seen.iter().enumerate() {
            let (Some(sent), Some(done)) = (s.sent, s.done) else {
                continue;
            };
            let req = (r * 1_000_000 + i) as u64;
            let root = tracer.span("request", None, req, rung.due(i), done);
            tracer.span("serve.lag", Some(root), req, rung.due(i), sent);
            let at = tracer.start_ns(root) + (sent - rung.due(i)).as_nanos() as u64;
            let queue_ns = s.queued_us * 1000;
            let service_ns = (s.service_ms * 1e6) as u64;
            tracer.span_ns("serve.queue", Some(root), req, at, at + queue_ns);
            tracer.span_ns(
                "serve.service",
                Some(root),
                req,
                at + queue_ns,
                at + queue_ns + service_ns,
            );
        }
    }
    tracer
        .write(&trace::trace_path("serve-open", seed))
        .map_err(|e| format!("writing spans: {e}"))?;

    let seen: Vec<&Seen> = rungs.iter().flat_map(|r| &r.seen).collect();
    let served: Vec<&&Seen> = seen.iter().filter(|s| !s.refused).collect();
    let queue_us: Vec<f64> = served.iter().map(|s| s.queued_us as f64).collect();
    let service: Vec<f64> = served.iter().map(|s| s.service_ms).collect();
    let overhead: Vec<f64> = rungs
        .iter()
        .flat_map(|r| {
            let lat = r.latencies();
            let lags = r.lags();
            r.seen
                .iter()
                .zip(lat.into_iter().zip(lags))
                .filter(|(s, _)| !s.refused)
                .map(|(s, (l, g))| l - g - s.queued_us as f64 / 1e3 - s.service_ms)
                .collect::<Vec<_>>()
        })
        .collect();
    let wall_ms: f64 = rungs
        .iter()
        .map(|r| r.arrivals.last().map_or(0.0, |a| a.due_us as f64 / 1e3))
        .sum();
    let busy: f64 = service.iter().sum();
    let hits = cache.get("hits").copied().unwrap_or(0.0);
    let misses = cache.get("misses").copied().unwrap_or(0.0);
    let passing = rungs.iter().rposition(Rung::meets_limit);

    let m = &mut metrics;
    m.set("host.cpus", host_cpus() as f64);
    m.set("ir.parse.us_per_nest", tracer.mean_us("ir.parse"));
    m.set("ir.emit_c.us_per_nest", tracer.mean_us("ir.emit_c"));
    m.set("core.apply.us_per_call", tracer.mean_us("core.apply"));
    replayed.record(m);
    m.set("core.cache.hit_ratio", ratio(hits, hits + misses));
    for (name, key) in [
        ("core.cache.inserts", "inserts"),
        ("core.cache.contended", "contended"),
        ("core.cache.entries", "entries"),
    ] {
        m.set(name, cache.get(key).copied().unwrap_or(0.0));
    }
    m.set("opt.search.ms_per_job", mean(&service));
    let batch_search_ms = span_ms("driver/job");
    m.set(
        "opt.expand.share",
        span_ms("search/expand") / batch_search_ms,
    );
    m.set("opt.merge.share", span_ms("search/merge") / batch_search_ms);
    m.set("opt.search.explained_share", explained);
    m.set("referee.checks_outside_domain", refereed.outside as f64);
    m.set("driver.job.busy_ms", busy / rungs.len() as f64);
    m.set(
        "driver.job.max_ms",
        service.iter().copied().fold(0.0, f64::max),
    );
    m.set(
        "driver.pool.idle_share",
        1.0 - busy / (host_cpus() as f64 * wall_ms),
    );
    let lat: Vec<f64> = rungs.iter().flat_map(Rung::latencies).collect();
    m.set("latency.p50_ms", median(&lat));
    m.set("latency.p99_ms", quantile(&lat, 0.99));
    m.set("serve.queue_us.p50", median(&queue_us));
    m.set("serve.queue_us.p99", quantile(&queue_us, 0.99));
    m.set("serve.service_ms.p50", median(&service));
    m.set("serve.service_ms.p99", quantile(&service, 0.99));
    m.set("serve.overhead_ms.p50", median(&overhead));
    m.set(
        "serve.queue_depth_max",
        seen.iter().map(|s| s.queue_depth).max().unwrap_or(0) as f64,
    );
    m.set(
        "serve.rejected",
        seen.iter().filter(|s| s.refused).count() as f64,
    );
    m.set("serve.generator_lag_ms", lag_p99);
    m.set("serve.max_rate_rps", passing.map_or(0.0, |r| RATES[r].1));
    for (name, r) in [
        ("serve.latency_p99_ms.lo", 0),
        ("serve.latency_p99_ms.mid", 1),
        ("serve.latency_p99_ms.hi", 2),
    ] {
        m.set(name, quantile(&rungs[r].latencies(), 0.99));
    }
    let svc = |r: &Rung| mean(&r.seen.iter().map(|s| s.service_ms).collect::<Vec<_>>());
    m.set(
        "obs.trace_overhead_ratio",
        svc(&traced_rung) / svc(&rungs[TRACED_RUNG]),
    );
    m.zero_missing_layers();
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics,
    })
}

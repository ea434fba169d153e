//! The engine every front end shares: the warm-started shared cache,
//! its JSON counters, and the per-job adapter.
//!
//! [`run_batch`](crate::run_batch) and `irlt-serve` both build their
//! cache with [`open_cache`], report it with [`cache_stats_json`], and
//! run each job through [`execute_job`], so a served result and a
//! batched one come out of the same code.

use crate::job::{Job, JobResult, JobStatus};
use irlt_core::{SharedCacheStats, SharedLegalityCache, SnapshotLoadStats};
use irlt_dependence::analyze_dependences;
use irlt_obs::{Json, Telemetry};
use irlt_opt::{search, CancelToken, SearchConfig};
use std::path::Path;
use std::time::Instant;

/// A shared legality cache and how its warm start went.
#[derive(Debug, Default)]
pub struct EngineCache {
    /// The cache, when sharing is on.
    pub cache: Option<SharedLegalityCache>,
    /// What the warm-start snapshot restored, when one loaded.
    pub snapshot: Option<SnapshotLoadStats>,
    /// Whether a requested warm-start snapshot was rejected (the engine
    /// then starts cold).
    pub snapshot_rejected: bool,
}

/// Builds the shared cache for `workers` workers (no cache unless
/// `shared`) and, given a `load` path, warm-starts it from that
/// `irlt-cache/v1` snapshot.
///
/// `shards == 0` auto-sizes with [`SharedLegalityCache::auto_shards`].
/// Any load failure — unreadable file, bad magic or version,
/// truncation, checksum mismatch, malformed payload — leaves the cache
/// untouched and cold, warns on stderr and sets
/// [`EngineCache::snapshot_rejected`]; it is never an error. Callers
/// count the rejection under their own telemetry name.
pub fn open_cache(
    shared: bool,
    capacity: usize,
    shards: usize,
    workers: usize,
    load: Option<&Path>,
) -> EngineCache {
    let cache = shared.then(|| {
        let shards = match shards {
            0 => SharedLegalityCache::auto_shards(workers),
            n => n,
        };
        SharedLegalityCache::with_shards(capacity, shards)
    });
    let mut engine = EngineCache {
        cache,
        ..EngineCache::default()
    };
    if let (Some(cache), Some(path)) = (&engine.cache, load) {
        let loaded = std::fs::read(path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| cache.load_snapshot(&bytes).map_err(|e| e.to_string()));
        match loaded {
            Ok(stats) => engine.snapshot = Some(stats),
            Err(why) => {
                eprintln!(
                    "warning: cache snapshot {} rejected ({why}); starting cold",
                    path.display()
                );
                engine.snapshot_rejected = true;
            }
        }
    }
    engine
}

/// The `cache` object of both the `irlt-batch/v1` artifact and the
/// `irlt-serve/v1` `stats` event: `null` without a cache, otherwise
/// every [`SharedCacheStats`] counter plus `snapshot_rejected`.
pub fn cache_stats_json(stats: Option<&SharedCacheStats>, snapshot_rejected: bool) -> Json {
    let Some(s) = stats else {
        return Json::Null;
    };
    let int = |name: &str, n: u64| (name.to_string(), Json::Int(n as i64));
    Json::Object(vec![
        int("hits", s.hits),
        int("cross_hits", s.cross_hits),
        int("misses", s.misses),
        int("inserts", s.inserts),
        int("evictions", s.evictions),
        int("entries", s.entries),
        int("shards", s.shards),
        int("contended", s.contended),
        int("snapshot_entries", s.snapshot_entries),
        int("snapshot_hits", s.snapshot_hits),
        ("snapshot_rejected".into(), Json::Bool(snapshot_rejected)),
        int("key_probes", s.key_probes),
        int("interned", s.interned_values),
        int("interner_hits", s.interner_hits),
        int("interner_verifies", s.interner_verifies),
        int("interner_collisions", s.interner_collisions),
    ])
}

/// Engine settings for executing one job — the *request adapter*
/// [`run_batch`](crate::run_batch) and `irlt-serve` share. Everything
/// that affects results is here; everything that affects scheduling
/// (threads, queues) is the caller's business.
#[derive(Clone, Debug)]
pub struct ExecOptions {
    /// Subsumption pruning of cached dependence sets.
    pub prune: bool,
    /// Telemetry sink; disabled by default and bit-identical either way.
    pub telemetry: Telemetry,
    /// Cancellation override. When set, this token governs the search
    /// instead of a fresh [`CancelToken::with_deadline`] built from
    /// [`Job::deadline`] — a service arms the token at *admission* so
    /// the SLO covers queueing, not just compute, and can also fire it
    /// on client disconnect or drain.
    pub cancel: Option<CancelToken>,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            prune: true,
            telemetry: Telemetry::disabled(),
            cancel: None,
        }
    }
}

/// Executes one job: analyze dependences, arm the deadline, search
/// serially (parallelism across jobs is the scheduler's job, not the
/// engine's).
///
/// The result's deterministic fields are a pure function of the
/// [`Job`] and the engine flags — independent of `owner`, `worker`,
/// cache contents, and telemetry. A fired cancellation (deadline or
/// [`ExecOptions::cancel`]) returns the best *legal* candidate found
/// so far (at worst the identity) as [`JobStatus::TimedOut`]; it never
/// panics or hangs.
pub fn execute_job(
    job: &Job,
    owner: u64,
    worker: usize,
    cache: Option<&SharedLegalityCache>,
    opts: &ExecOptions,
) -> JobResult {
    let deps = analyze_dependences(&job.nest);
    let cancel = opts
        .cancel
        .clone()
        .or_else(|| job.deadline.map(CancelToken::with_deadline));
    let cfg = SearchConfig {
        catalog: job.catalog.clone(),
        max_steps: job.max_steps,
        beam_width: job.beam_width,
        prune: opts.prune,
        telemetry: opts.telemetry.clone(),
        shared: cache.cloned(),
        owner,
        cancel,
    };
    let start = Instant::now();
    let r = search(&job.nest, &deps, &job.goal, &cfg);
    JobResult {
        name: job.name.clone(),
        status: if r.timed_out {
            JobStatus::TimedOut
        } else {
            JobStatus::Completed
        },
        best: r.best,
        explored: r.explored,
        legal: r.legal,
        wall: start.elapsed(),
        worker,
    }
}

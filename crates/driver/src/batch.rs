//! The batch runner: admit every job, drain the queue, aggregate.

use crate::engine::{cache_stats_json, execute_job, open_cache, ExecOptions};
use crate::job::{Job, JobResult};
use crate::queue::{resolve_workers, run_workers, Admission};
use irlt_core::{SharedCacheStats, SharedLegalityCache, SnapshotLoadStats};
use irlt_obs::{Json, Telemetry};
use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Batch-level configuration (per-job settings live on [`Job`]).
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Worker threads: `0` uses one per available core.
    pub threads: usize,
    /// Share one [`SharedLegalityCache`] across all jobs (bit-identical
    /// results either way; sharing only saves work).
    pub shared_cache: bool,
    /// Entry capacity of the shared cache before a generational sweep —
    /// the memory-pressure degradation knob.
    pub cache_capacity: usize,
    /// Lock-striped shards of the shared cache: `0` (the default)
    /// auto-sizes to [`SharedLegalityCache::auto_shards`] of the worker
    /// count so probes rarely collide on a stripe. Results are
    /// bit-identical for every shard count.
    pub cache_shards: usize,
    /// Warm-start: load this `irlt-cache/v1` snapshot into the shared
    /// cache before the batch starts. A missing or rejected file
    /// degrades to a clean cold start (warning on stderr,
    /// `driver/cache/snapshot_rejected` counter) — never an error.
    pub cache_load: Option<PathBuf>,
    /// Save the shared cache as an `irlt-cache/v1` snapshot after the
    /// batch, so the next run can `cache_load` it.
    pub cache_save: Option<PathBuf>,
    /// Subsumption pruning of cached dependence sets.
    pub prune: bool,
    /// One sink for the whole pool; disabled by default (no-op, and the
    /// batch is bit-identical with it on or off).
    pub telemetry: Telemetry,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            threads: 0,
            shared_cache: true,
            cache_capacity: SharedLegalityCache::DEFAULT_CAPACITY,
            cache_shards: 0,
            cache_load: None,
            cache_save: None,
            prune: true,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// The outcome of one batch run.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Per-job results **in submission order** (never scheduler order).
    pub jobs: Vec<JobResult>,
    /// Worker threads the batch actually ran.
    pub workers: usize,
    /// Always 0: workers pull from one FIFO queue, so nothing is ever
    /// stolen. Kept only because the end-to-end benchmark still reads
    /// it for its `driver.steals` row; it goes when that row is retired.
    pub steals: u64,
    /// Shared-cache counters, when the cache was enabled.
    pub cache: Option<SharedCacheStats>,
    /// What the warm-start snapshot restored, when one loaded.
    pub snapshot: Option<SnapshotLoadStats>,
    /// Whether a requested warm-start snapshot was rejected (the batch
    /// then ran cold).
    pub snapshot_rejected: bool,
    /// Wall time of the whole batch.
    pub wall: Duration,
}

impl BatchResult {
    /// Jobs that ran to completion.
    pub fn completed(&self) -> usize {
        self.jobs.iter().filter(|j| j.status.is_completed()).count()
    }

    /// Jobs cut short by their deadline.
    pub fn timed_out(&self) -> usize {
        self.jobs.len() - self.completed()
    }

    /// One JSON artifact describing the whole run: per-job results,
    /// worker count, cache stats, and wall time. Pairs with the
    /// telemetry report (`Telemetry::report().to_json()`) for the full
    /// picture.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("schema".into(), Json::Str("irlt-batch/v1".into())),
            ("workers".into(), Json::Int(self.workers as i64)),
            ("wall_ms".into(), Json::Float(self.wall.as_secs_f64() * 1e3)),
            (
                "summary".into(),
                Json::Object(vec![
                    ("jobs".into(), Json::Int(self.jobs.len() as i64)),
                    ("completed".into(), Json::Int(self.completed() as i64)),
                    ("timed_out".into(), Json::Int(self.timed_out() as i64)),
                ]),
            ),
            (
                "cache".into(),
                cache_stats_json(self.cache.as_ref(), self.snapshot_rejected),
            ),
            (
                "jobs".into(),
                Json::Array(self.jobs.iter().map(JobResult::to_json).collect()),
            ),
        ])
    }
}

impl fmt::Display for BatchResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} job(s) on {} worker(s) in {:.1} ms: {} completed, {} timed out",
            self.jobs.len(),
            self.workers,
            self.wall.as_secs_f64() * 1e3,
            self.completed(),
            self.timed_out()
        )?;
        if let Some(s) = &self.cache {
            write!(f, "; cache: {s}")?;
        }
        if let Some(s) = &self.snapshot {
            write!(f, "; warm start: {} snapshot entries", s.entries_loaded)?;
        } else if self.snapshot_rejected {
            write!(f, "; warm start rejected (ran cold)")?;
        }
        Ok(())
    }
}

/// Runs every job to a result on a pool of workers pulling from one
/// FIFO [`Admission`] queue — the queue `irlt-serve` admits requests
/// through, here pre-filled with every job and closed.
///
/// Per-job results are **deterministic**: bit-identical across worker
/// counts, submission orders, cache capacities, and telemetry on/off.
/// Jobs with deadlines come back as [`JobStatus::TimedOut`] holding
/// the best legal candidate found in budget; everything else in the
/// batch is unaffected. All workers are joined before this returns
/// (`std::thread::scope` — no thread leaks, even if a job panics).
///
/// [`JobStatus::TimedOut`]: crate::JobStatus::TimedOut
pub fn run_batch(jobs: &[Job], config: &BatchConfig) -> BatchResult {
    let start = Instant::now();
    let workers = resolve_workers(config.threads);
    let tel = &config.telemetry;
    let engine = open_cache(
        config.shared_cache,
        config.cache_capacity,
        config.cache_shards,
        workers,
        config.cache_load.as_deref(),
    );
    if engine.snapshot_rejected && tel.is_enabled() {
        tel.incr("driver/cache/snapshot_rejected");
    }
    let cache = engine.cache;
    let queue = Admission::new(jobs.len());
    for k in 0..jobs.len() {
        queue.offer(k).expect("the queue holds the whole batch");
    }
    queue.drain();
    let slots: Vec<Mutex<Option<JobResult>>> = jobs.iter().map(|_| Mutex::default()).collect();
    let opts = ExecOptions {
        prune: config.prune,
        telemetry: config.telemetry.clone(),
        cancel: None,
    };
    run_workers(
        workers,
        &queue,
        |w, k| {
            if tel.is_enabled() {
                tel.observe("driver/queue_depth", queue.depth() as f64);
            }
            let result = execute_job(&jobs[k], k as u64, w, cache.as_ref(), &opts);
            *slots[k]
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(result);
        },
        || (),
    );
    let results: Vec<JobResult> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .expect("every queued job ran exactly once")
        })
        .collect();
    let cache_stats = cache.as_ref().map(SharedLegalityCache::stats);
    let wall = start.elapsed();
    if tel.is_enabled() {
        tel.count("driver/jobs", results.len() as u64);
        tel.count("driver/workers", workers as u64);
        tel.count(
            "driver/completed",
            results.iter().filter(|j| j.status.is_completed()).count() as u64,
        );
        tel.count(
            "driver/timed_out",
            results.iter().filter(|j| !j.status.is_completed()).count() as u64,
        );
        for r in &results {
            // Power-of-two microsecond buckets keep the histogram compact
            // across the µs–s range.
            let us = (r.wall.as_micros() as u64).max(1);
            tel.record("driver/job_wall_us", us.next_power_of_two());
            tel.record_span("driver/job", r.wall);
        }
        if let Some(s) = &cache_stats {
            tel.count("driver/cache/hits", s.hits);
            tel.count("driver/cache/cross_hits", s.cross_hits);
            tel.count("driver/cache/misses", s.misses);
            tel.count("driver/cache/inserts", s.inserts);
            tel.count("driver/cache/evictions", s.evictions);
            tel.count("legality/cache/contended", s.contended);
            tel.count("driver/cache/snapshot_entries", s.snapshot_entries);
            tel.count("driver/cache/snapshot_hits", s.snapshot_hits);
            if let Some(cache) = &cache {
                for (n, shard) in cache.shard_stats().iter().enumerate() {
                    tel.count(&format!("legality/cache/shard.{n}/hits"), shard.hits);
                    tel.count(&format!("legality/cache/shard.{n}/misses"), shard.misses);
                    tel.count(
                        &format!("legality/cache/shard.{n}/evictions"),
                        shard.evictions,
                    );
                }
            }
            // Key-representation counters (the `legality/key/probes`
            // counter itself is incremented per-probe by `SeqState`).
            tel.count("legality/key/verifies", s.interner_verifies);
            tel.count("legality/key/collisions", s.interner_collisions);
            tel.count("legality/key/interned", s.interned_values);
            tel.count("legality/key/interner_hits", s.interner_hits);
        }
        tel.record_span("driver/batch", wall);
    }
    // Persist the warmed cache for the next run. A save failure is a
    // warning, not a batch failure — the results are already computed.
    if let (Some(cache), Some(path)) = (&cache, &config.cache_save) {
        let saved = cache
            .save_snapshot()
            .map_err(|e| e.to_string())
            .and_then(|bytes| std::fs::write(path, &bytes).map_err(|e| e.to_string()));
        if let Err(why) = saved {
            eprintln!(
                "warning: cache snapshot {} not saved ({why})",
                path.display()
            );
        }
    }
    BatchResult {
        jobs: results,
        workers,
        steals: 0,
        cache: cache_stats,
        snapshot: engine.snapshot,
        snapshot_rejected: engine.snapshot_rejected,
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::demo_corpus;

    fn serial() -> BatchConfig {
        BatchConfig {
            threads: 1,
            ..BatchConfig::default()
        }
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let jobs = demo_corpus(6);
        let r = run_batch(&jobs, &serial());
        let names: Vec<&str> = r.jobs.iter().map(|j| j.name.as_str()).collect();
        let expected: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
        assert_eq!(names, expected);
        assert_eq!(r.completed(), 6);
        assert_eq!(r.timed_out(), 0);
        assert_eq!(r.workers, 1);
    }

    #[test]
    fn empty_batch_is_fine() {
        let r = run_batch(&[], &serial());
        assert!(r.jobs.is_empty());
        assert_eq!(r.completed(), 0);
        assert!(r.to_json().get("summary").is_some());
    }

    #[test]
    fn shared_cache_reports_cross_hits_on_duplicates() {
        // demo_corpus cycles 8 distinct nest shapes: jobs 8.. re-derive
        // the subproblems jobs 0..8 deposited.
        let jobs = demo_corpus(16);
        let r = run_batch(&jobs, &serial());
        let stats = r.cache.expect("cache on by default");
        assert!(stats.cross_hits > 0, "{stats}");
        let off = run_batch(
            &jobs,
            &BatchConfig {
                shared_cache: false,
                ..serial()
            },
        );
        assert!(off.cache.is_none());
        for (a, b) in r.jobs.iter().zip(&off.jobs) {
            assert_eq!(a.best.seq.to_string(), b.best.seq.to_string());
            assert_eq!(a.best.score.to_bits(), b.best.score.to_bits());
            assert_eq!(a.explored, b.explored);
        }
    }

    #[test]
    fn key_counters_surface_in_json() {
        let r = run_batch(&demo_corpus(8), &serial());
        let s = r.cache.expect("cache on by default");
        assert_eq!(s.interner_collisions, 0, "{s}");
        let j = r.to_json();
        for field in ["key_probes", "interned"] {
            let n = j.get_path(&["cache", field]).and_then(Json::as_i64);
            assert!(n.is_some_and(|n| n > 0), "cache.{field}: {n:?}");
        }
    }

    #[test]
    fn json_artifact_has_the_batch_shape() {
        let jobs = demo_corpus(3);
        let r = run_batch(&jobs, &serial());
        let j = r.to_json();
        assert_eq!(
            j.get("schema").and_then(Json::as_str),
            Some("irlt-batch/v1")
        );
        assert_eq!(
            j.get_path(&["summary", "jobs"]).and_then(Json::as_i64),
            Some(3)
        );
        assert_eq!(
            j.get("jobs").and_then(Json::as_array).map(<[Json]>::len),
            Some(3)
        );
        assert!(j.get_path(&["cache", "hits"]).is_some());
        // Round-trips through the parser.
        let text = j.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), j);
        assert!(r.to_string().contains("3 job(s)"), "{r}");
    }
}

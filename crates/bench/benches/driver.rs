//! Batch-driver throughput: the 64-nest demo corpus through
//! `irlt_driver::run_batch` at 1, 4, and 8 worker threads with the
//! cross-nest [`SharedLegalityCache`] on, plus a `fresh` serial baseline
//! with the cache off, plus a deeper-search workload.
//!
//! Three effects are measured:
//!
//! * **Thread scaling** (`t1` vs `t4`/`t8`) — wall-clock scaling from
//!   the workers pulling one FIFO queue; only meaningful on multi-core
//!   hosts.
//! * **Cross-nest sharing** (`fresh` vs `t1`) — algorithmic savings from
//!   replaying legality subproblems across structurally identical nests,
//!   independent of core count. The demo corpus repeats each of its 8
//!   nest shapes 8 times, the duplicate-heavy profile real compilation
//!   units show.
//! * **Deep search** (`deep64/fp`) — the same 64 jobs at
//!   acceptance-search settings (max_steps 5, beam 16), where per-probe
//!   key cost dominates; the shared cache keys on interned fingerprint
//!   ids (zero allocation per probe). The row keeps its historical name
//!   so it still matches its `BENCH_8.json` baseline.
//!
//! PR 8 adds two more effects:
//!
//! * **Lock striping** (`shard64/s1` vs `shard64/s16`) — the same serial
//!   workload through a single-shard cache (the PR 5 layout: one map,
//!   one lock) and a 16-shard cache. At one thread this isolates the
//!   striping overhead itself: shard selection is one mask over the
//!   probe fingerprint, so `s16` must not be slower than `s1`.
//! * **Warm start** (`warmdeep64/cold` vs `warmdeep64/warm`) — the
//!   identical deep-search batch started cold vs started from the
//!   previous run's `irlt-cache/v1` snapshot (`BatchConfig::cache_load`).
//!   The warm row pays the full load path — read, decode, re-intern,
//!   insert — and then replays every legality subproblem from
//!   snapshot-owned entries. The deep workload is where warm start
//!   matters: at acceptance-search settings the first-encounter legality
//!   work dominates, whereas the shallow corpus already amortizes it
//!   across its 8x-repeated shapes.
//!
//! Results are bit-identical across all rows of a workload by the
//! driver's determinism contract (`tests/driver.rs` and the shard-count
//! properties pin this); only time may differ.
//!
//! [`SharedLegalityCache`]: irlt_core::SharedLegalityCache

use irlt_driver::{demo_corpus, run_batch, BatchConfig, Job};
use irlt_harness::timing::{black_box, Runner};
use irlt_obs::Telemetry;

/// The deeper-search workload: the demo corpus re-armed with the
/// matmul acceptance settings (max_steps 5, beam 16).
fn deep_corpus(n: usize) -> Vec<Job> {
    demo_corpus(n)
        .into_iter()
        .map(|job| Job {
            max_steps: 5,
            beam_width: 16,
            ..job
        })
        .collect()
}

fn main() {
    let mut r = Runner::default();
    let telemetry = Telemetry::from_env();
    let jobs = demo_corpus(64);
    let configs = [
        ("fresh", 1, false),
        ("t1", 1, true),
        ("t4", 4, true),
        ("t8", 8, true),
    ];
    for (name, threads, shared_cache) in configs {
        let cfg = BatchConfig {
            threads,
            shared_cache,
            telemetry: telemetry.clone(),
            ..BatchConfig::default()
        };
        r.bench(&format!("driver/corpus64/{name}"), || {
            black_box(run_batch(black_box(&jobs), &cfg))
        });
    }
    let deep = deep_corpus(64);
    let cfg = BatchConfig {
        threads: 1,
        telemetry: telemetry.clone(),
        ..BatchConfig::default()
    };
    r.bench("driver/deep64/fp", || {
        black_box(run_batch(black_box(&deep), &cfg))
    });
    // Lock striping at one thread: pure overhead comparison.
    for (name, shards) in [("s1", 1usize), ("s16", 16)] {
        let cfg = BatchConfig {
            threads: 1,
            cache_shards: shards,
            telemetry: telemetry.clone(),
            ..BatchConfig::default()
        };
        r.bench(&format!("driver/shard64/{name}"), || {
            black_box(run_batch(black_box(&jobs), &cfg))
        });
    }
    // Cold vs warm start on the deep workload. One priming run records
    // the snapshot; the warm row then pays read + decode + re-intern +
    // load on every iteration, exactly like a second
    // `irlt-batch --cache-load` process.
    let snapshot = std::env::temp_dir().join(format!("irlt-bench-warm-{}.bin", std::process::id()));
    run_batch(
        &deep,
        &BatchConfig {
            threads: 1,
            cache_save: Some(snapshot.clone()),
            telemetry: telemetry.clone(),
            ..BatchConfig::default()
        },
    );
    let cold_cfg = BatchConfig {
        threads: 1,
        telemetry: telemetry.clone(),
        ..BatchConfig::default()
    };
    r.bench("driver/warmdeep64/cold", || {
        black_box(run_batch(black_box(&deep), &cold_cfg))
    });
    let warm_cfg = BatchConfig {
        threads: 1,
        cache_load: Some(snapshot.clone()),
        telemetry: telemetry.clone(),
        ..BatchConfig::default()
    };
    r.bench("driver/warmdeep64/warm", || {
        black_box(run_batch(black_box(&deep), &warm_cfg))
    });
    let _ = std::fs::remove_file(&snapshot);
    r.finish();
    match telemetry.write_env_report() {
        Ok(Some(path)) => println!("telemetry written to {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("telemetry write failed: {e}"),
    }
}

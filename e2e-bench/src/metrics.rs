//! Metric names, units, and the result line.
//!
//! The two tables below are the benchmark's schema: `BENCHMARK.json`
//! lists exactly these names (a unit test holds the two together), and
//! [`Metrics::result_line`] refuses to print a run that misses one or
//! adds one.

use irlt_obs::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0` on every workload.
///
/// * `setup_s` — batch: median wall of an empty `run_batch` (pool spawn,
///   shared-cache construction, join), sampled before every measured
///   pass; serve: median of server spawn plus warm-up until every
///   repeated shape has been served once, over start-ups spread across
///   the rate ladder.
/// * `nests_per_s` — batch: corpus size over the median pass wall;
///   serve: answered requests per second over the rate ladder, which
///   falls below the offered rate only when the server falls behind.
/// * `cpu_ms_per_nest` — CPU time (user + system) of the process that
///   runs the optimizer per job: of the median measured pass on batch
///   workloads; on serve the server's over the ladder per answered
///   request, its own cost per request, which the offered rate does not
///   set.
/// * `peak_rss_mb` — `VmHWM` of the process running the optimizer: after
///   the first pass on batch workloads, at the end of the ladder on
///   serve.
/// * `ok_share` — 1 − (failed, refused, timed-out or referee-rejected
///   items) / items attempted; the complement of a failed share, so that
///   it is never 0.
/// * `code.score_gain` — mean over jobs of the winner's score minus the
///   identity sequence's score: deterministic, so a speed-up bought by
///   searching less shows here.
/// * `code.c_bytes` — mean bytes of emitted C per job.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("nests_per_s", "1/s"),
    ("cpu_ms_per_nest", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
    ("code.score_gain", "score"),
    ("code.c_bytes", "bytes"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload. A
/// layer a workload's path never enters reads 0 there. Parse, apply and
/// emit costs are the mean of the benchmark's spans around its own calls
/// (the pipeline's on batch workloads, the referee's on serve); the
/// search's layers (analysis, extension, scoring, move generation) and
/// their call counts come from the layer replay (`replay.rs`); cache,
/// pool and serve rows from the traced run's `SharedCacheStats`, job
/// results, telemetry and serve events. Counts are per job unless the
/// name says otherwise; `driver.job.busy_ms` is per batch pass or per
/// serve rung.
///
/// `latency.p50_ms` and `latency.p99_ms` are the user-facing latencies:
/// per job on batch workloads (parse + search as `run_batch` timed it +
/// apply + emit, from the untraced passes); on `serve-open`
/// client-observed from when each request was due, pooled over the rate
/// ladder, a refused request counting as infinitely late. They are
/// ledger rows, not gated end-to-end metrics, because the serve
/// latencies move by a quarter or more between runs on a shared 2-CPU
/// host.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.cpus", "count"),
    ("latency.p50_ms", "ms"),
    ("latency.p99_ms", "ms"),
    ("ir.parse.us_per_nest", "us"),
    ("ir.emit_c.us_per_nest", "us"),
    ("dependence.analyze.us_per_nest", "us"),
    ("dependence.vectors_per_nest", "count"),
    // SeqState extension: Table 2 mapping plus the shared-cache probe.
    ("core.extend.calls", "count"),
    ("core.extend.legal_ratio", "ratio"),
    ("core.extend.miss_us", "us"),
    ("core.extend.hit_us", "us"),
    ("core.extend.miss_us.unimodular", "us"),
    ("core.extend.miss_us.reverse_permute", "us"),
    ("core.extend.miss_us.parallelize", "us"),
    ("core.extend.miss_us.block", "us"),
    ("core.extend.miss_us.coalesce", "us"),
    // The shared legality cache at the end of the run (last traced pass).
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.inserts", "count"),
    ("core.cache.contended", "count"),
    ("core.cache.entries", "count"),
    // Tables 3-4 code generation with Fourier-Motzkin bounds.
    ("core.apply.us_per_call", "us"),
    // Scoring: cache-simulated trials and the goal's score call.
    ("cachesim.score.calls", "count"),
    ("cachesim.score.ms_per_call", "ms"),
    ("opt.score.us_per_call", "us"),
    // Beam search; the shares are of the summed search time.
    ("opt.search.ms_per_job", "ms"),
    ("opt.explored_per_job", "count"),
    ("opt.legal_ratio", "ratio"),
    ("opt.dedup_ratio", "ratio"),
    ("opt.expand.share", "ratio"),
    ("opt.merge.share", "ratio"),
    // Reconciliation: the replayed calls over the measured search time,
    // which must lie within `replay::RECONCILE_TOLERANCE` of 1.
    ("opt.search.explained_share", "ratio"),
    // Binding sets of the referee's checks at which two or more source
    // loops are empty, outside the framework's domain, so not executed
    // (`referee::empty_loops`); summed over the distinct jobs refereed.
    ("referee.checks_outside_domain", "count"),
    // The worker pool: `run_batch`'s on batch workloads, the server's on
    // `serve-open`.
    ("driver.job.busy_ms", "ms"),
    ("driver.job.max_ms", "ms"),
    ("driver.pool.idle_share", "ratio"),
    ("driver.steals", "count"),
    // The serve socket: events per request, the generator's own health,
    // and the rate ladder.
    ("serve.queue_us.p50", "us"),
    ("serve.queue_us.p99", "us"),
    ("serve.service_ms.p50", "ms"),
    ("serve.service_ms.p99", "ms"),
    ("serve.overhead_ms.p50", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.rejected", "count"),
    ("serve.generator_lag_ms", "ms"),
    ("serve.max_rate_rps", "1/s"),
    ("serve.latency_p99_ms.lo", "ms"),
    ("serve.latency_p99_ms.mid", "ms"),
    ("serve.latency_p99_ms.hi", "ms"),
    // What the traced numbers cost.
    ("obs.trace_overhead_ratio", "ratio"),
];

/// Metric values collected by one run.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `name`; the name must be one of the schema's.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric `{name}` is not in the schema"
        );
        self.values.insert(name, value);
    }

    /// Sets every per-layer metric not yet recorded to 0: the layer is
    /// not on this workload's path.
    pub fn zero_missing_layers(&mut self) {
        for (name, _) in PER_LAYER {
            self.values.entry(name).or_insert(0.0);
        }
    }

    /// The result line: exactly the `--trace` group's metrics, each with
    /// its unit. Errs if one is missing or not finite.
    pub fn result_line(
        &self,
        trace: bool,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let group = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(group.len());
        for (name, unit) in group {
            let value = *self
                .values
                .get(name)
                .ok_or(format!("metric `{name}` was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite: {value}"));
            }
            fields.push((
                name.to_string(),
                Json::Object(vec![
                    ("value".into(), Json::Float(value)),
                    ("unit".into(), Json::Str(unit.to_string())),
                ]),
            ));
        }
        Ok(Json::Object(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Int(attempted as i64)),
            ("failed".into(), Json::Int(failed as i64)),
            ("metrics".into(), Json::Object(fields)),
        ])
        .to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root, parsed.
    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        Json::parse(&text).expect("BENCHMARK.json is JSON")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` array"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default();
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn every_printed_metric_is_declared_in_benchmark_json() {
        let doc = benchmark_json();
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn result_line_refuses_a_missing_metric() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END.iter().skip(1) {
            m.set(name, 1.5);
        }
        assert!(m.result_line(false, true, 1, 0).is_err());
        m.set("setup_s", 0.25);
        let line = m.result_line(false, true, 3, 0).unwrap();
        let v = Json::parse(&line).unwrap();
        assert_eq!(
            v.get_path(&["metrics", "setup_s", "unit"])
                .unwrap()
                .as_str(),
            Some("s")
        );
        assert_eq!(v.get("attempted").unwrap().as_i64(), Some(3));
    }
}

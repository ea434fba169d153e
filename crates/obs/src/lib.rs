//! # irlt-obs — search & legality observability for the irlt framework
//!
//! A zero-dependency, hand-rolled structured-telemetry layer (the
//! workspace is hermetic — no `tracing`): monotone counters, exact
//! histograms, `f64` stream summaries, RAII timing spans, and a JSON
//! emitter, behind a [`Telemetry`] handle that is a **no-op by default**.
//! The instrumented layers — the `irlt-opt` beam search, the `irlt-core`
//! incremental legality engine, `irlt-dependence` vector mapping, and
//! the `irlt-cachesim` counters — all thread the same handle, so one
//! [`Report`] shows why a search returned what it did: per-depth
//! candidate accounting, legality-cache hits, fail-fast short-circuits,
//! the `2^(j−i+1)` Block/Interleave image fan-out histogram, and
//! expand / merge timings.
//!
//! Guarantee: a disabled handle records nothing and never influences
//! control flow, so results are bit-identical with telemetry on or off
//! (asserted in the workspace test suite). Binaries enable it with
//! `IRLT_TELEMETRY=path.json` ([`Telemetry::from_env`]) and persist the
//! machine-readable artifact with [`Telemetry::write_env_report`] — the
//! file CI archives and diffs across PRs.
//!
//! # Examples
//!
//! ```
//! use irlt_obs::{Json, Report, Telemetry};
//!
//! let tel = Telemetry::enabled();
//! tel.incr("search/rounds");
//! tel.record("depmap/fanout/Block", 2);
//! {
//!     let _span = tel.span("search/depth.1/expand");
//!     // … work …
//! }
//! let report = tel.report();
//! assert_eq!(report.counter("search/rounds"), 1);
//!
//! // The artifact round-trips through the hand-rolled JSON layer.
//! let text = report.to_json().to_string_pretty();
//! let back = Report::from_json(&Json::parse(&text).unwrap()).unwrap();
//! assert_eq!(back, report);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod report;
mod sink;

pub use json::{Json, JsonError};
pub use report::{Report, SpanStat, StatSummary};
pub use sink::{Span, Telemetry, ENV_VAR};

//! # irlt-fuzz — coverage-guided transformation fuzzing
//!
//! A zero-dependency, coverage-guided mutation fuzzer over
//! `(nest program, transformation sequence)` pairs, closing the loop
//! the workspace's pieces already imply:
//!
//! * the telemetry taxonomy (`irlt-obs`) becomes the **coverage
//!   map** — an input is interesting when it lights a legality
//!   rejection, dependence-mapping fan-out, oracle adjudication, or
//!   beam-depth bucket no earlier input lit ([`coverage`]);
//! * the harness generators and shrinker (`irlt-harness`) become the
//!   **seed distribution** and the **minimizer** ([`mod@mutate`],
//!   [`engine`]);
//! * the cross-engine differential oracle (Table 2 vs `irlt-affine`)
//!   remains the sole **adjudicator of correctness** — every input
//!   the fuzzer evolves is cross-checked, and a mismatch or panic is
//!   the campaign's finding ([`engine`]);
//! * interesting inputs persist to `tests/corpus/fuzz/` in a
//!   deterministic text format and replay as regressions forever
//!   after ([`corpus`]).
//!
//! The paper's framework claims *closure*: any sequence of
//! iteration-reordering templates is analyzable by one legality test
//! and realizable by one code generator. Random testing samples that
//! claim thinly — almost all random sequences die at the first
//! precondition. Coverage guidance concentrates the budget on the
//! frontier: inputs that survive deeper into the pipeline breed more
//! inputs like them, so the campaign spends its time where the
//! composite claims actually live. The `irlt-fuzz` binary runs
//! campaigns under a wall-clock deadline; `--mode random` runs the
//! unguided baseline the guided mode must beat at equal budget.
//!
//! ```
//! use irlt_fuzz::engine::{run_campaign, CampaignConfig, Mode};
//!
//! let report = run_campaign(&CampaignConfig {
//!     mode: Mode::Guided,
//!     seed: 7,
//!     max_cases: 24,
//!     search_coverage: false, // skip the beam-search dimension: doc-test speed
//!     ..CampaignConfig::default()
//! })
//! .unwrap();
//! assert_eq!(report.executed, 24);
//! assert!(report.failures.is_empty());
//! assert!(report.covered() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod coverage;
pub mod distill;
pub mod engine;
pub mod mutate;

pub use corpus::{
    case_file_name, load_dir, parse_case, print_case, save_case, CorpusError, FuzzCase,
};
pub use coverage::{coverage_buckets, is_coverage_bucket, CoverageMap};
pub use distill::{distill_cases, distill_dir, DistillReport};
pub use engine::{execute_case, run_campaign, CampaignConfig, CampaignReport, Failure, Mode};
pub use mutate::{invariants_hold, mutate, OPERATORS};

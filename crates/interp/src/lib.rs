//! # irlt-interp — loop-nest interpreter and differential verification
//!
//! The execution layer of **irlt** (Sarkar & Thekkath, PLDI 1992). The
//! paper's claims — legality tests, mapping-rule consistency (Definition
//! 3.4), code-generation correctness — are all *checkable by running
//! loops*; this crate runs them:
//!
//! * [`Executor`] — compiles a [`irlt_ir::LoopNest`] to a slot-resolved
//!   program and interprets it over concrete parameters and a sparse
//!   [`Memory`], with configurable `pardo` iteration orders
//!   ([`PardoOrder`]); every access goes to a sink — the trace collector
//!   of [`TraceLevel::Accesses`], or any [`AccessSink`] via
//!   [`Executor::stream`];
//! * [`Memory::procedural`] — deterministic pseudo-random initial arrays,
//!   so two executions can be compared without declaring shapes;
//! * [`check_equivalence`] — differential testing of original vs
//!   transformed nests across several `pardo` orders;
//! * [`observed_dependences`] / [`empirical_dependences`] — the empirical
//!   dependence set of a trace, used to validate analysis soundness and
//!   the Table 2 mapping rules on real executions;
//! * [`check_conflict_order`] — per-address conflict-order preservation.
//!
//! # Examples
//!
//! ```
//! use irlt_interp::{check_equivalence, Executor, Memory};
//! use irlt_ir::parse_nest;
//!
//! let original = parse_nest("do i = 1, n\n  a(i) = a(i) + 1\nenddo")?;
//! let reversed = parse_nest("do i = n, 1, -1\n  a(i) = a(i) + 1\nenddo")?;
//! let report = check_equivalence(&original, &reversed, &[("n", 50)], 42)?;
//! assert!(report.is_equivalent()); // no loop-carried dependence
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
mod memory;
mod program;
mod verify;

pub use exec::{
    AccessEvent, AccessSink, ExecError, ExecResult, Executor, PardoOrder, TraceLevel, UserFn,
};
pub use memory::{ArrayStore, CellDiff, InitPolicy, Memory};
pub use verify::{
    check_conflict_order, check_equivalence, empirical_dependences, observed_dependences,
    ConflictViolation, EquivalenceReport,
};

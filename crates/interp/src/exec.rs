//! The loop-nest interpreter.
//!
//! Executes a [`LoopNest`] over concrete parameter values and a [`Memory`],
//! producing the final memory. Each run compiles the nest once into a
//! slot-resolved program (see `program.rs`) and sends every memory access
//! to a sink: nowhere, the trace collector of [`TraceLevel::Accesses`], or
//! a caller's [`AccessSink`]. `pardo` loops may be driven in forward,
//! reverse, or deterministically-shuffled order — a transformed program is
//! only correct if *any* such order yields the same result, which is
//! exactly what the differential tests exploit.

use crate::memory::{InitPolicy, Memory, WorkingStore};
use crate::program::{Callee, Code, Op, Program};
use irlt_ir::{EvalError, LoopNest, Symbol};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A user-supplied interpretation for an opaque function (`colstr`,
/// `rowidx`, …).
pub type UserFn = Arc<dyn Fn(&[i64]) -> i64 + Send + Sync>;

/// Iteration order used for `pardo` loops.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PardoOrder {
    /// Same order as a sequential loop.
    #[default]
    Forward,
    /// Reversed.
    Reverse,
    /// Deterministic shuffle from the given seed.
    Shuffled(u64),
}

/// What to record while executing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Record nothing (fastest).
    #[default]
    None,
    /// Record one event per *memory access*: the trace-collecting sink.
    Accesses,
}

/// A consumer of a run's memory accesses, fed in program order by
/// [`Executor::stream`] as each access happens — nothing is buffered.
///
/// # Examples
///
/// ```
/// use irlt_interp::{AccessSink, Executor, Memory};
/// use irlt_ir::{parse_nest, Symbol};
///
/// /// Counts writes per array.
/// #[derive(Default)]
/// struct Writes(Vec<(Symbol, usize)>);
///
/// impl AccessSink for Writes {
///     fn bind(&mut self, arrays: &[Symbol]) {
///         self.0 = arrays.iter().map(|a| (a.clone(), 0)).collect();
///     }
///     fn access(&mut self, array: usize, _indices: &[i64], is_write: bool) {
///         self.0[array].1 += usize::from(is_write);
///     }
/// }
///
/// let nest = parse_nest("do i = 1, 4\n  a(i) = b(i)\nenddo")?;
/// let mut writes = Writes::default();
/// Executor::new().stream(&nest, Memory::new(), &mut writes)?;
/// writes.0.sort();
/// assert_eq!(writes.0, vec![("a".into(), 4), ("b".into(), 0)]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait AccessSink {
    /// Called once, before the first access, with the run's array table:
    /// the `array` id passed to [`AccessSink::access`] indexes it.
    fn bind(&mut self, arrays: &[Symbol]) {
        let _ = arrays;
    }

    /// One access: the array's id, its evaluated subscripts, and whether
    /// it writes.
    fn access(&mut self, array: usize, indices: &[i64], is_write: bool);
}

/// The sink that discards every access.
impl AccessSink for () {
    fn access(&mut self, _array: usize, _indices: &[i64], _is_write: bool) {}
}

/// One recorded memory access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessEvent {
    /// Global sequence number (execution order).
    pub time: usize,
    /// Array accessed.
    pub array: Symbol,
    /// Concrete subscripts.
    pub indices: Vec<i64>,
    /// True for a write.
    pub is_write: bool,
    /// Values of the *observed variables* at this access (by default the
    /// nest's index variables, in nest order) — for a transformed nest this
    /// includes rebound original indices, letting traces from different
    /// shapes be compared in the original iteration space.
    pub observed: Vec<i64>,
}

/// Interpreter configuration and entry point.
///
/// # Examples
///
/// ```
/// use irlt_interp::{Executor, Memory};
/// use irlt_ir::parse_nest;
///
/// let nest = parse_nest("do i = 1, n\n  s(0) = s(0) + i\nenddo")?;
/// let mut ex = Executor::new();
/// ex.set_param("n", 10);
/// let result = ex.run(&nest, Memory::new())?;
/// assert_eq!(result.memory.get(&"s".into(), &[0]), Some(55));
/// assert_eq!(result.iterations, 10);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct Executor {
    // NOTE: manual Debug below (user functions are opaque).
    params: BTreeMap<Symbol, i64>,
    functions: BTreeMap<Symbol, UserFn>,
    pardo_order: PardoOrder,
    trace_level: TraceLevel,
    observe: Option<Vec<Symbol>>,
    observe_ordinals: bool,
    max_iterations: usize,
}

impl fmt::Debug for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("params", &self.params)
            .field("functions", &self.functions.keys().collect::<Vec<_>>())
            .field("pardo_order", &self.pardo_order)
            .field("trace_level", &self.trace_level)
            .field("max_iterations", &self.max_iterations)
            .finish_non_exhaustive()
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new()
    }
}

impl Executor {
    /// A fresh executor: forward `pardo` order, no tracing, 10M-iteration
    /// safety cap.
    pub fn new() -> Executor {
        Executor {
            params: BTreeMap::new(),
            functions: BTreeMap::new(),
            pardo_order: PardoOrder::Forward,
            trace_level: TraceLevel::None,
            observe: None,
            observe_ordinals: false,
            max_iterations: 10_000_000,
        }
    }

    /// Binds a loop-invariant parameter (`n`, block sizes, …).
    pub fn set_param(&mut self, name: impl Into<Symbol>, value: i64) -> &mut Executor {
        self.params.insert(name.into(), value);
        self
    }

    /// Supplies an interpretation for an opaque function appearing in
    /// bounds or bodies (the paper's `colstr(j)`-style run-time
    /// expressions). Built-ins `abs`, `sgn`, `sqrt` are always available;
    /// user functions shadow them.
    ///
    /// # Examples
    ///
    /// ```
    /// use irlt_interp::{Executor, Memory};
    /// use irlt_ir::Parser;
    /// use std::sync::Arc;
    ///
    /// let nest = Parser::new("do k = colstr(1), colstr(2) - 1\n  a(k) = k\nenddo")
    ///     .with_function("colstr")
    ///     .parse_nest()?;
    /// let mut ex = Executor::new();
    /// ex.set_function("colstr", Arc::new(|args: &[i64]| 3 * args[0]));
    /// let r = ex.run(&nest, Memory::new())?;
    /// assert_eq!(r.iterations, 3); // k = 3, 4, 5
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn set_function(&mut self, name: impl Into<Symbol>, f: UserFn) -> &mut Executor {
        self.functions.insert(name.into(), f);
        self
    }

    /// Sets the `pardo` iteration order.
    pub fn pardo_order(&mut self, order: PardoOrder) -> &mut Executor {
        self.pardo_order = order;
        self
    }

    /// Enables access tracing.
    pub fn trace(&mut self, level: TraceLevel) -> &mut Executor {
        self.trace_level = level;
        self
    }

    /// Chooses which variables each [`AccessEvent`] snapshots (defaults to
    /// the executed nest's own index variables). Pass the *original* nest's
    /// indices to compare traces across a transformation.
    pub fn observe(&mut self, vars: Vec<Symbol>) -> &mut Executor {
        self.observe = Some(vars);
        self
    }

    /// When enabled, observed *loop variables* are snapshotted as
    /// **iteration ordinals** — the 0-based position of the current value
    /// in the loop's value sequence, `(x − lower)/step` — rather than raw
    /// index values. Dependence vectors are defined over iteration numbers
    /// (Definition 3.3), so this is the right space for comparing observed
    /// dependences against `Tuples(D)`. Variables that are not loop indices
    /// of the executed nest still report raw values.
    pub fn observe_iteration_numbers(&mut self) -> &mut Executor {
        self.observe_ordinals = true;
        self
    }

    /// Sets the iteration safety cap: the most loop iterations a run may
    /// execute, counted at every level of the nest (an outer loop whose
    /// inner loops are empty still spends the budget).
    pub fn max_iterations(&mut self, cap: usize) -> &mut Executor {
        self.max_iterations = cap;
        self
    }

    /// Runs a nest to completion. With [`TraceLevel::Accesses`] every
    /// access is recorded into [`ExecResult::trace`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on unbound parameters, zero steps, arithmetic
    /// faults, or when the iteration cap is exceeded.
    pub fn run(&self, nest: &LoopNest, memory: Memory) -> Result<ExecResult, ExecError> {
        match self.trace_level {
            TraceLevel::None => self.stream(nest, memory, &mut ()),
            TraceLevel::Accesses => {
                let prog = self.compile(nest);
                let tracer = Tracer {
                    prog: &prog,
                    ordinals: self.observe_ordinals,
                    events: Vec::new(),
                };
                let (memory, iterations, tracer) = self.execute(&prog, memory, tracer)?;
                Ok(ExecResult {
                    memory,
                    trace: tracer.events,
                    iterations,
                })
            }
        }
    }

    /// Runs a nest to completion, handing every access to `sink` as it
    /// happens instead of recording a trace: [`ExecResult::trace`] stays
    /// empty whatever the [`TraceLevel`].
    ///
    /// # Errors
    ///
    /// As for [`Executor::run`]. Accesses before the failure have already
    /// reached the sink.
    pub fn stream<S: AccessSink + ?Sized>(
        &self,
        nest: &LoopNest,
        memory: Memory,
        sink: &mut S,
    ) -> Result<ExecResult, ExecError> {
        let prog = self.compile(nest);
        sink.bind(&prog.arrays);
        let (memory, iterations, _) = self.execute(&prog, memory, Stream(sink))?;
        Ok(ExecResult {
            memory,
            trace: Vec::new(),
            iterations,
        })
    }

    fn compile(&self, nest: &LoopNest) -> Program {
        let observe = self.observe.clone().unwrap_or_else(|| nest.index_vars());
        Program::compile(nest, &self.functions, &observe)
    }

    /// Runs a compiled nest over `memory`; returns the final memory, the
    /// innermost iteration count and the sink.
    fn execute<K: Sink>(
        &self,
        prog: &Program,
        mut memory: Memory,
        sink: K,
    ) -> Result<(Memory, usize, K), ExecError> {
        let mut state = RunState {
            prog,
            frame: Frame {
                values: prog.initial_values(&self.params),
                ordinals: vec![None; prog.names.len()],
            },
            policy: memory.policy(),
            stores: prog
                .arrays
                .iter()
                .map(|a| WorkingStore::new(memory.take_store(a)))
                .collect(),
            stack: Vec::new(),
            sink,
            iterations: 0,
            steps: 0,
            cap: self.max_iterations,
            pardo_order: self.pardo_order,
        };
        state.run_level(0).map_err(|e| *e)?;
        for (name, store) in prog.arrays.iter().zip(state.stores) {
            memory.put_store(name.clone(), store.finish());
        }
        Ok((memory, state.iterations, state.sink))
    }
}

/// Result of one execution.
#[derive(Clone, Debug)]
pub struct ExecResult {
    /// Final memory.
    pub memory: Memory,
    /// Access trace (empty unless tracing enabled).
    pub trace: Vec<AccessEvent>,
    /// Number of innermost iterations executed.
    pub iterations: usize,
}

/// An execution failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// Expression evaluation failed (unbound variable, unknown function,
    /// division by zero, array read in a bound).
    Eval(EvalError),
    /// A step evaluated to zero at run time.
    ZeroStep {
        /// The loop variable.
        var: Symbol,
    },
    /// The iteration safety cap was exceeded.
    TooManyIterations {
        /// The configured cap.
        cap: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Eval(e) => write!(f, "{e}"),
            ExecError::ZeroStep { var } => write!(f, "loop `{var}` has zero step at run time"),
            ExecError::TooManyIterations { cap } => {
                write!(f, "iteration cap of {cap} exceeded")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<EvalError> for ExecError {
    fn from(e: EvalError) -> Self {
        ExecError::Eval(e)
    }
}

/// The live state a sink can observe at an access.
struct Frame {
    /// Current value of every slot; `None` while unbound.
    values: Vec<Option<i64>>,
    /// Iteration ordinal of every slot that is an active loop variable.
    ordinals: Vec<Option<i64>>,
}

/// Where the interpreter sends each access.
trait Sink {
    fn access(&mut self, frame: &Frame, array: usize, indices: &[i64], is_write: bool);
}

/// A caller's [`AccessSink`], which sees only the access itself.
struct Stream<'s, S: ?Sized>(&'s mut S);

impl<S: AccessSink + ?Sized> Sink for Stream<'_, S> {
    fn access(&mut self, _frame: &Frame, array: usize, indices: &[i64], is_write: bool) {
        self.0.access(array, indices, is_write);
    }
}

/// The trace-collecting sink behind [`TraceLevel::Accesses`].
struct Tracer<'p> {
    prog: &'p Program,
    ordinals: bool,
    events: Vec<AccessEvent>,
}

impl Sink for Tracer<'_> {
    fn access(&mut self, frame: &Frame, array: usize, indices: &[i64], is_write: bool) {
        let observed = self
            .prog
            .observed
            .iter()
            .map(|&s| match frame.ordinals[s] {
                Some(o) if self.ordinals => o,
                _ => frame.values[s].unwrap_or(i64::MIN),
            })
            .collect();
        self.events.push(AccessEvent {
            time: self.events.len() + 1,
            array: self.prog.arrays[array].clone(),
            indices: indices.to_vec(),
            is_write,
            observed,
        });
    }
}

struct RunState<'p, K> {
    prog: &'p Program,
    frame: Frame,
    policy: InitPolicy,
    /// One store per array id.
    stores: Vec<WorkingStore>,
    /// Operand scratch: each access pushes its subscripts and each call
    /// its arguments, then pops them.
    stack: Vec<i64>,
    sink: K,
    /// Innermost iterations executed.
    iterations: usize,
    /// Loop iterations executed at every level, checked against `cap`.
    steps: usize,
    cap: usize,
    pardo_order: PardoOrder,
}

impl<K: Sink> RunState<'_, K> {
    fn run_level(&mut self, level: usize) -> Result<(), Fault> {
        let prog = self.prog;
        if level == prog.loops.len() {
            self.iterations += 1;
            for op in &prog.body {
                self.execute(op)?;
            }
            return Ok(());
        }
        let l = &prog.loops[level];
        let lo = self.eval(&l.lower)?;
        let hi = self.eval(&l.upper)?;
        let step = self.eval(&l.step)?;
        if step == 0 {
            return Err(fault(ExecError::ZeroStep { var: l.var.clone() }));
        }
        let trips = trip_count(lo, hi, step);
        if l.parallel && self.pardo_order != PardoOrder::Forward {
            // A permuted order needs every ordinal up front: refuse before
            // allocating them if the cap cannot cover the loop.
            if trips > (self.cap - self.steps) as u128 {
                return Err(fault(ExecError::TooManyIterations { cap: self.cap }));
            }
            let mut ordinals: Vec<i64> = (0..trips as usize).map(|k| k as i64).collect();
            match self.pardo_order {
                PardoOrder::Forward => {}
                PardoOrder::Reverse => ordinals.reverse(),
                PardoOrder::Shuffled(seed) => shuffle(&mut ordinals, seed ^ level as u64),
            }
            for k in ordinals {
                self.iterate(level, lo.wrapping_add(k.wrapping_mul(step)), k)?;
            }
        } else {
            let mut x = lo;
            for k in 0..trips {
                self.iterate(level, x, k as i64)?;
                x = x.wrapping_add(step);
            }
        }
        self.frame.values[l.slot] = None;
        self.frame.ordinals[l.slot] = None;
        Ok(())
    }

    /// Runs iteration `ordinal` (value `v`) of loop `level`.
    fn iterate(&mut self, level: usize, v: i64, ordinal: i64) -> Result<(), Fault> {
        self.steps += 1;
        if self.steps > self.cap {
            return Err(fault(ExecError::TooManyIterations { cap: self.cap }));
        }
        let slot = self.prog.loops[level].slot;
        self.frame.values[slot] = Some(v);
        self.frame.ordinals[slot] = Some(ordinal);
        self.run_level(level + 1)
    }

    fn execute(&mut self, op: &Op) -> Result<(), Fault> {
        match op {
            Op::Guarded(cond, then) => {
                if self.eval(cond)? != 0 {
                    self.execute(then)?;
                }
            }
            Op::SetScalar(slot, value) => {
                self.frame.values[*slot] = Some(self.eval(value)?);
            }
            Op::Store(r, value) => {
                let v = self.eval(value)?;
                let base = self.push_all(&r.subscripts)?;
                let indices = &self.stack[base..];
                self.sink.access(&self.frame, r.array, indices, true);
                self.stores[r.array].write(indices, v);
                self.stack.truncate(base);
            }
        }
        Ok(())
    }

    /// Pushes the values of `codes` in order; returns where they start.
    fn push_all(&mut self, codes: &[Code]) -> Result<usize, Fault> {
        let base = self.stack.len();
        for c in codes {
            let v = self.eval(c)?;
            self.stack.push(v);
        }
        Ok(base)
    }

    /// Evaluates compiled code, with the operand order and faults of
    /// [`irlt_ir::Expr::eval_scalar`].
    fn eval(&mut self, code: &Code) -> Result<i64, Fault> {
        Ok(match code {
            Code::Const(v) => *v,
            Code::Slot(s) => match self.frame.values[*s] {
                Some(v) => v,
                None => {
                    return Err(fault(EvalError::UnboundVariable(
                        self.prog.names[*s].clone(),
                    )))
                }
            },
            Code::Add(a, b) => self.eval(a)?.wrapping_add(self.eval(b)?),
            Code::Sub(a, b) => self.eval(a)?.wrapping_sub(self.eval(b)?),
            Code::Mul(a, b) => self.eval(a)?.wrapping_mul(self.eval(b)?),
            Code::Neg(a) => self.eval(a)?.wrapping_neg(),
            Code::FloorDiv(a, b) => {
                let d = self.divisor(b)?;
                irlt_ir::floor_div_i64(self.eval(a)?, d)
            }
            Code::CeilDiv(a, b) => {
                let d = self.divisor(b)?;
                irlt_ir::ceil_div_i64(self.eval(a)?, d)
            }
            Code::Mod(a, b) => {
                let d = self.divisor(b)?;
                irlt_ir::mod_floor_i64(self.eval(a)?, d)
            }
            Code::Min(items) => {
                let mut best = i64::MAX;
                for x in items {
                    best = best.min(self.eval(x)?);
                }
                best
            }
            Code::Max(items) => {
                let mut best = i64::MIN;
                for x in items {
                    best = best.max(self.eval(x)?);
                }
                best
            }
            Code::Call(callee, args) => self.call(callee, args)?,
            Code::Read(r) => {
                let base = self.push_all(&r.subscripts)?;
                let indices = &self.stack[base..];
                self.sink.access(&self.frame, r.array, indices, false);
                let v = self.stores[r.array].read(self.policy, &self.prog.arrays[r.array], indices);
                self.stack.truncate(base);
                v
            }
            Code::BoundRead(array) => {
                return Err(fault(EvalError::ArrayReadInScalar(array.clone())))
            }
        })
    }

    /// Evaluates a divisor, faulting on zero before the dividend runs.
    fn divisor(&mut self, code: &Code) -> Result<i64, Fault> {
        match self.eval(code)? {
            0 => Err(fault(EvalError::DivisionByZero)),
            d => Ok(d),
        }
    }

    /// Evaluates the arguments in order, then applies the callee.
    fn call(&mut self, callee: &Callee, args: &[Code]) -> Result<i64, Fault> {
        let base = self.push_all(args)?;
        let vals = &self.stack[base..];
        let v = match callee {
            Callee::User(f) => f(vals),
            Callee::Abs => vals[0].abs(),
            Callee::Sgn => vals[0].signum(),
            Callee::Sqrt => isqrt(vals[0].unsigned_abs()),
            Callee::Unknown(name) => return Err(fault(EvalError::UnknownFunction(name.clone()))),
        };
        self.stack.truncate(base);
        Ok(v)
    }
}

/// A run failure, boxed so that the interpreter's `Result`s stay two
/// words wide on the hot path.
type Fault = Box<ExecError>;

fn fault(e: impl Into<ExecError>) -> Fault {
    Box::new(e.into())
}

/// Number of values `lo, lo + step, …` that do not pass `hi`, exact for
/// any `i64` bounds.
fn trip_count(lo: i64, hi: i64, step: i64) -> u128 {
    let (lo, hi, step) = (i128::from(lo), i128::from(hi), i128::from(step));
    let span = if step > 0 { hi - lo } else { lo - hi };
    if span < 0 {
        0
    } else {
        (span / step.abs()) as u128 + 1
    }
}

/// Integer square root of the absolute value — the built-in `sqrt`,
/// matching the paper's `sqrt(i)/2` bound usage.
fn isqrt(x: u64) -> i64 {
    let mut r = (x as f64).sqrt() as u64;
    while (r + 1) * (r + 1) <= x {
        r += 1;
    }
    while r * r > x {
        r -= 1;
    }
    r as i64
}

/// Deterministic Fisher–Yates with an xorshift generator.
fn shuffle(values: &mut [i64], seed: u64) {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for i in (1..values.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        values.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irlt_ir::{parse_nest, LoopNest};

    fn run(src: &str, params: &[(&str, i64)]) -> ExecResult {
        let nest = parse_nest(src).unwrap();
        let mut ex = Executor::new();
        for &(k, v) in params {
            ex.set_param(k, v);
        }
        ex.run(&nest, Memory::new()).unwrap()
    }

    #[test]
    fn sum_loop() {
        let r = run("do i = 1, n\n s(0) = s(0) + i\nenddo", &[("n", 100)]);
        assert_eq!(r.memory.get(&"s".into(), &[0]), Some(5050));
        assert_eq!(r.iterations, 100);
    }

    #[test]
    fn triangular_counts() {
        let r = run(
            "do i = 1, n\n do j = 1, i\n  c(0) = c(0) + 1\n enddo\nenddo",
            &[("n", 10)],
        );
        assert_eq!(r.memory.get(&"c".into(), &[0]), Some(55));
    }

    #[test]
    fn negative_step_and_bounds() {
        let r = run("do i = 10, 1, -3\n a(i) = i\nenddo", &[]);
        // Visits 10, 7, 4, 1.
        assert_eq!(r.iterations, 4);
        assert_eq!(r.memory.get(&"a".into(), &[7]), Some(7));
        assert_eq!(r.memory.get(&"a".into(), &[8]), None);
    }

    #[test]
    fn empty_loop_executes_nothing() {
        let r = run("do i = 5, 1\n a(i) = 1\nenddo", &[]);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn min_max_bounds_evaluate() {
        let r = run(
            "do i = max(n, 3), min(m, 20), 2\n c(0) = c(0) + 1\nenddo",
            &[("n", 1), ("m", 9)],
        );
        // i = 3, 5, 7, 9.
        assert_eq!(r.memory.get(&"c".into(), &[0]), Some(4));
    }

    #[test]
    fn inits_rebind_indices() {
        // A hand-built transformed nest: ii scans, i = 11 - ii.
        let nest = parse_nest("do ii = 1, 10\n i = 11 - ii\n a(i) = i\nenddo").unwrap();
        let r = Executor::new().run(&nest, Memory::new()).unwrap();
        assert_eq!(r.memory.get(&"a".into(), &[1]), Some(1));
        assert_eq!(r.memory.get(&"a".into(), &[10]), Some(10));
    }

    #[test]
    fn indirect_subscripts() {
        let mut m = Memory::new();
        for i in 1..=5 {
            m.set("idx", &[i], 6 - i);
        }
        let nest = parse_nest("do i = 1, 5\n a(idx(i)) = i\nenddo").unwrap();
        let r = Executor::new().run(&nest, m).unwrap();
        assert_eq!(r.memory.get(&"a".into(), &[5]), Some(1));
        assert_eq!(r.memory.get(&"a".into(), &[1]), Some(5));
    }

    #[test]
    fn builtins() {
        let r = run(
            "do i = 1, 1\n a(0) = sqrt(17) + abs(0 - 4) + sgn(0 - 9)\nenddo",
            &[],
        );
        assert_eq!(r.memory.get(&"a".into(), &[0]), Some(4 + 4 - 1));
    }

    #[test]
    fn name_errors_stay_lazy_as_in_eval_scalar() {
        use irlt_ir::Parser;
        let run = |src: &str| {
            let nest = Parser::new(src)
                .with_function("f")
                .with_function("abs")
                .parse_nest()
                .unwrap();
            Executor::new().run(&nest, Memory::new())
        };
        // Code that never runs never faults: an unknown function behind
        // a false guard, an unbound scalar in a loop that runs zero times.
        assert!(run("do i = 1, 3\n if (0) a(i) = f(i)\nenddo").is_ok());
        assert!(run("do i = 1, 0\n a(i) = t\nenddo").is_ok());
        // A body scalar is visible from its assignment on, across
        // iterations; a built-in with the wrong arity is unknown.
        let r = run("do i = 1, 3\n if (i - 1) a(i) = t\n t = 10 * i\nenddo").unwrap();
        assert_eq!(r.memory.get(&"a".into(), &[3]), Some(20));
        let unknown = |name: &str| ExecError::Eval(EvalError::UnknownFunction(Symbol::new(name)));
        assert_eq!(
            run("do i = 1, 3\n a(i) = abs(i, 2)\nenddo").unwrap_err(),
            unknown("abs")
        );
        // Arguments are evaluated (and can fault) before the callee is
        // resolved, exactly as `Expr::eval_scalar` orders them.
        assert_eq!(
            run("do i = 1, 3\n a(i) = f(i / (i - 1))\nenddo").unwrap_err(),
            ExecError::Eval(EvalError::DivisionByZero)
        );
        assert_eq!(
            run("do i = 1, 3\n a(i) = f(i)\nenddo").unwrap_err(),
            unknown("f")
        );
        // A loop variable is unbound again once its loop is done.
        assert_eq!(
            run("do i = 1, 2\n do j = 1, i\n  a(j) = 0\n enddo\nenddo")
                .unwrap()
                .iterations,
            3
        );
        let nest = parse_nest("do i = 1, 2\n do j = 1, n\n  a(j) = 0\n enddo\nenddo").unwrap();
        let mut ex = Executor::new();
        ex.set_param("n", 2);
        assert_eq!(ex.run(&nest, Memory::new()).unwrap().iterations, 4);
    }

    #[test]
    fn array_reads_in_bounds_fault() {
        use irlt_ir::{Expr, Loop, Stmt};
        let bound = Expr::read("idx", vec![Expr::int(1)]);
        let nest = LoopNest::new(
            vec![Loop::new("i", Expr::int(1), bound)],
            vec![Stmt::array("a", vec![Expr::var("i")], Expr::int(0))],
        );
        let mut m = Memory::new();
        m.set("idx", &[1], 4);
        assert_eq!(
            Executor::new().run(&nest, m).unwrap_err(),
            ExecError::Eval(EvalError::ArrayReadInScalar(Symbol::new("idx")))
        );
    }

    #[test]
    fn unbound_parameter_reported() {
        let nest = parse_nest("do i = 1, n\n a(i) = 0\nenddo").unwrap();
        let err = Executor::new().run(&nest, Memory::new()).unwrap_err();
        assert!(matches!(err, ExecError::Eval(EvalError::UnboundVariable(ref v)) if v == "n"));
    }

    #[test]
    fn zero_step_reported() {
        let nest = parse_nest("do i = 1, 10, s\n a(i) = 0\nenddo").unwrap();
        let mut ex = Executor::new();
        ex.set_param("s", 0);
        assert_eq!(
            ex.run(&nest, Memory::new()).unwrap_err(),
            ExecError::ZeroStep {
                var: Symbol::new("i")
            }
        );
    }

    #[test]
    fn iteration_cap_enforced() {
        let nest = parse_nest("do i = 1, 1000\n a(i) = 0\nenddo").unwrap();
        let mut ex = Executor::new();
        ex.max_iterations(10);
        assert_eq!(
            ex.run(&nest, Memory::new()).unwrap_err(),
            ExecError::TooManyIterations { cap: 10 }
        );
    }

    #[test]
    fn iteration_cap_counts_outer_loops_with_empty_inner_loops() {
        // No innermost iteration ever runs, but the outer loop alone
        // would take 10^8 steps: the cap must fire after 1001 of them.
        let nest = parse_nest("do i = 1, n\n do j = 1, 0\n  a(i, j) = 0\n enddo\nenddo").unwrap();
        let mut ex = Executor::new();
        ex.set_param("n", 100_000_000).max_iterations(1000);
        assert_eq!(
            ex.run(&nest, Memory::new()).unwrap_err(),
            ExecError::TooManyIterations { cap: 1000 }
        );
        // Outer and inner iterations share one budget: 10 + 10·10 = 110.
        let nest = parse_nest("do i = 1, 10\n do j = 1, 10\n  a(i, j) = 0\n enddo\nenddo").unwrap();
        let mut ex = Executor::new();
        ex.max_iterations(110);
        assert_eq!(ex.run(&nest, Memory::new()).unwrap().iterations, 100);
        ex.max_iterations(109);
        assert_eq!(
            ex.run(&nest, Memory::new()).unwrap_err(),
            ExecError::TooManyIterations { cap: 109 }
        );
    }

    #[test]
    fn huge_loops_hit_the_cap_without_materializing_their_values() {
        // 10^12 iterations would need 8 TB as a value vector; every order
        // must refuse at the cap without allocating one.
        for src in [
            "do i = 1, n\n a(i) = 0\nenddo",
            "pardo i = 1, n\n a(i) = 0\nenddo",
            "pardo i = n, 1, -1\n a(i) = 0\nenddo",
        ] {
            let nest = parse_nest(src).unwrap();
            for order in [
                PardoOrder::Forward,
                PardoOrder::Reverse,
                PardoOrder::Shuffled(7),
            ] {
                let mut ex = Executor::new();
                ex.set_param("n", 1_000_000_000_000)
                    .max_iterations(1000)
                    .pardo_order(order);
                let started = std::time::Instant::now();
                assert_eq!(
                    ex.run(&nest, Memory::new()).unwrap_err(),
                    ExecError::TooManyIterations { cap: 1000 },
                    "{src} under {order:?}"
                );
                assert!(started.elapsed().as_secs() < 5, "{src} under {order:?}");
            }
        }
        // Extreme bounds: the trip count of i64::MIN..=i64::MAX overflows
        // i64 and u64, and must still be compared without wrapping.
        let nest = parse_nest("pardo i = lo, hi\n a(0) = 0\nenddo").unwrap();
        let mut ex = Executor::new();
        ex.set_param("lo", i64::MIN)
            .set_param("hi", i64::MAX)
            .max_iterations(5)
            .pardo_order(PardoOrder::Reverse);
        assert_eq!(
            ex.run(&nest, Memory::new()).unwrap_err(),
            ExecError::TooManyIterations { cap: 5 }
        );
        assert_eq!(trip_count(i64::MIN, i64::MAX, 1), 1u128 << 64);
        assert_eq!(
            trip_count(i64::MAX, i64::MIN, -3),
            ((1u128 << 64) - 1) / 3 + 1
        );
        assert_eq!(trip_count(5, 1, 1), 0);
        assert_eq!(trip_count(10, 1, -3), 4);
    }

    #[test]
    fn shuffled_pardo_keeps_values_and_ordinals_paired() {
        // The permuted order visits every value once, and each access
        // observes the ordinal of its own value, `(v - lo) / step`.
        let nest = parse_nest("pardo i = 3, 21, 3\n a(i) = i\nenddo").unwrap();
        let mut ex = Executor::new();
        ex.pardo_order(PardoOrder::Shuffled(5))
            .trace(TraceLevel::Accesses)
            .observe_iteration_numbers();
        let r = ex.run(&nest, Memory::new()).unwrap();
        let mut seen: Vec<(i64, i64)> = r
            .trace
            .iter()
            .map(|e| (e.indices[0], e.observed[0]))
            .collect();
        assert_ne!(
            seen.windows(2).filter(|w| w[0] < w[1]).count(),
            6,
            "not shuffled"
        );
        seen.sort_unstable();
        let expected: Vec<(i64, i64)> = (0..7).map(|k| (3 + 3 * k, k)).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn pardo_orders_permute_iterations() {
        let src = "pardo i = 1, 5\n a(0) = a(0)*10 + i\nenddo";
        let nest = parse_nest(src).unwrap();
        let fwd = Executor::new().run(&nest, Memory::new()).unwrap();
        assert_eq!(fwd.memory.get(&"a".into(), &[0]), Some(12345));
        let mut ex = Executor::new();
        ex.pardo_order(PardoOrder::Reverse);
        let rev = ex.run(&nest, Memory::new()).unwrap();
        assert_eq!(rev.memory.get(&"a".into(), &[0]), Some(54321));
        let mut ex = Executor::new();
        ex.pardo_order(PardoOrder::Shuffled(99));
        let shuf = ex.run(&nest, Memory::new()).unwrap();
        // A permutation of 1..=5 (sum of digits invariant under base-10
        // accumulation only if it is a permutation).
        let v = shuf.memory.get(&"a".into(), &[0]).unwrap();
        let mut digits: Vec<i64> = v.to_string().bytes().map(|b| i64::from(b - b'0')).collect();
        digits.sort_unstable();
        assert_eq!(digits, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn do_loops_ignore_pardo_order() {
        let src = "do i = 1, 5\n a(0) = a(0)*10 + i\nenddo";
        let nest = parse_nest(src).unwrap();
        let mut ex = Executor::new();
        ex.pardo_order(PardoOrder::Reverse);
        let r = ex.run(&nest, Memory::new()).unwrap();
        assert_eq!(r.memory.get(&"a".into(), &[0]), Some(12345));
    }

    #[test]
    fn guarded_statements_execute_conditionally() {
        let mut m = Memory::new();
        for i in 1..=6 {
            m.set("mask", &[i], i % 2);
        }
        let nest = parse_nest("do i = 1, 6\n if (mask(i)) a(i) = i\nenddo").unwrap();
        let r = Executor::new().run(&nest, m).unwrap();
        assert_eq!(r.memory.get(&"a".into(), &[1]), Some(1));
        assert_eq!(r.memory.get(&"a".into(), &[2]), None);
        assert_eq!(r.memory.get(&"a".into(), &[5]), Some(5));
    }

    #[test]
    fn trace_records_accesses_in_order() {
        let src = "do i = 1, 2\n a(i) = a(i - 1) + 1\nenddo";
        let nest = parse_nest(src).unwrap();
        let mut ex = Executor::new();
        ex.trace(TraceLevel::Accesses);
        let r = ex.run(&nest, Memory::new()).unwrap();
        assert_eq!(r.trace.len(), 4); // 2 iterations × (1 read + 1 write)
        assert!(!r.trace[0].is_write); // RHS read first
        assert!(r.trace[1].is_write);
        assert_eq!(r.trace[0].indices, vec![0]);
        assert_eq!(r.trace[1].indices, vec![1]);
        assert_eq!(r.trace[0].observed, vec![1]); // i = 1
        assert!(r.trace[0].time < r.trace[1].time);
    }

    #[test]
    fn observed_variables_can_be_overridden() {
        // Observe the rebound original variable instead of the new index.
        let nest = parse_nest("do ii = 1, 3\n i = 4 - ii\n a(i) = 0\nenddo").unwrap();
        let mut ex = Executor::new();
        ex.trace(TraceLevel::Accesses)
            .observe(vec![Symbol::new("i")]);
        let r = ex.run(&nest, Memory::new()).unwrap();
        let observed: Vec<i64> = r.trace.iter().map(|e| e.observed[0]).collect();
        assert_eq!(observed, vec![3, 2, 1]);
    }

    #[test]
    fn isqrt_exact() {
        for x in 0..2000u64 {
            let r = isqrt(x) as u64;
            assert!(r * r <= x && (r + 1) * (r + 1) > x, "x={x}");
        }
    }
}

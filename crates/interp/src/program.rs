//! The slot-resolved form of a nest that the interpreter runs.
//!
//! [`Program::compile`] walks a [`LoopNest`] once and resolves every name:
//! each scalar (loop variable, parameter, body scalar, observed variable)
//! becomes an index into a dense value table, each array an index into a
//! dense store table, and each function call a resolved callee. Running
//! the program then touches no map and clones no [`Symbol`] per iteration.
//!
//! Name-resolution *errors* stay lazy, exactly as in
//! [`Expr::eval_scalar`]: an unbound variable, an unknown function or an
//! array read in a loop bound fails only when that code is evaluated.

use crate::exec::UserFn;
use irlt_ir::{Expr, LoopNest, Stmt, Symbol, Target};
use std::collections::BTreeMap;

/// A compiled expression.
pub(crate) enum Code {
    Const(i64),
    /// A scalar read; the slot may be unbound when it is evaluated.
    Slot(usize),
    Add(Box<Code>, Box<Code>),
    Sub(Box<Code>, Box<Code>),
    Mul(Box<Code>, Box<Code>),
    FloorDiv(Box<Code>, Box<Code>),
    CeilDiv(Box<Code>, Box<Code>),
    Mod(Box<Code>, Box<Code>),
    Neg(Box<Code>),
    Min(Vec<Code>),
    Max(Vec<Code>),
    Call(Callee, Vec<Code>),
    /// An array read in a statement.
    Read(Ref),
    /// An array read in a loop bound: evaluating it is an error.
    BoundRead(Symbol),
}

/// The function a call resolves to. User functions shadow the built-ins;
/// a built-in called with the wrong arity is unknown.
pub(crate) enum Callee {
    User(UserFn),
    Abs,
    Sgn,
    Sqrt,
    Unknown(Symbol),
}

/// A compiled array reference.
pub(crate) struct Ref {
    pub array: usize,
    pub subscripts: Vec<Code>,
}

/// A compiled statement.
pub(crate) enum Op {
    SetScalar(usize, Code),
    Store(Ref, Code),
    Guarded(Code, Box<Op>),
}

/// A compiled loop header.
pub(crate) struct CompiledLoop {
    pub var: Symbol,
    pub slot: usize,
    pub lower: Code,
    pub upper: Code,
    pub step: Code,
    pub parallel: bool,
}

/// A whole compiled nest.
pub(crate) struct Program {
    pub loops: Vec<CompiledLoop>,
    /// Initialization statements followed by the body.
    pub body: Vec<Op>,
    /// Slot → name.
    pub names: Vec<Symbol>,
    /// Array id → name.
    pub arrays: Vec<Symbol>,
    /// The slot of each observed variable, in observation order.
    pub observed: Vec<usize>,
}

impl Program {
    pub fn compile(
        nest: &LoopNest,
        functions: &BTreeMap<Symbol, UserFn>,
        observe: &[Symbol],
    ) -> Program {
        let mut c = Compiler {
            functions,
            slots: BTreeMap::new(),
            arrays: BTreeMap::new(),
            names: Vec::new(),
            array_names: Vec::new(),
        };
        let loops = nest
            .loops()
            .iter()
            .map(|l| CompiledLoop {
                var: l.var.clone(),
                slot: c.slot(&l.var),
                lower: c.expr(&l.lower, true),
                upper: c.expr(&l.upper, true),
                step: c.expr(&l.step, true),
                parallel: l.kind.is_parallel(),
            })
            .collect();
        let body = nest
            .inits()
            .iter()
            .chain(nest.body())
            .map(|s| c.stmt(s))
            .collect();
        let observed = observe.iter().map(|v| c.slot(v)).collect();
        Program {
            loops,
            body,
            names: c.names,
            arrays: c.array_names,
            observed,
        }
    }

    /// The initial value of every slot: its parameter binding, if any.
    pub fn initial_values(&self, params: &BTreeMap<Symbol, i64>) -> Vec<Option<i64>> {
        self.names.iter().map(|s| params.get(s).copied()).collect()
    }
}

struct Compiler<'a> {
    functions: &'a BTreeMap<Symbol, UserFn>,
    slots: BTreeMap<Symbol, usize>,
    arrays: BTreeMap<Symbol, usize>,
    names: Vec<Symbol>,
    array_names: Vec<Symbol>,
}

impl Compiler<'_> {
    fn slot(&mut self, name: &Symbol) -> usize {
        intern(&mut self.slots, &mut self.names, name)
    }

    fn reference(&mut self, array: &Symbol, subscripts: &[Expr]) -> Ref {
        Ref {
            array: intern(&mut self.arrays, &mut self.array_names, array),
            subscripts: subscripts.iter().map(|s| self.expr(s, false)).collect(),
        }
    }

    fn stmt(&mut self, stmt: &Stmt) -> Op {
        match stmt {
            Stmt::Guarded { cond, then } => {
                Op::Guarded(self.expr(cond, false), Box::new(self.stmt(then)))
            }
            Stmt::Assign { target, value } => {
                let value = self.expr(value, false);
                match target {
                    Target::Scalar(name) => Op::SetScalar(self.slot(name), value),
                    Target::Array(r) => Op::Store(self.reference(&r.array, &r.subscripts), value),
                }
            }
        }
    }

    /// Compiles `e`; in a loop bound (`bound`), array reads are errors.
    fn expr(&mut self, e: &Expr, bound: bool) -> Code {
        let mut binary = |op: fn(Box<Code>, Box<Code>) -> Code, a: &Expr, b: &Expr| {
            op(Box::new(self.expr(a, bound)), Box::new(self.expr(b, bound)))
        };
        match e {
            Expr::Const(v) => Code::Const(*v),
            Expr::Var(s) => Code::Slot(self.slot(s)),
            Expr::Add(a, b) => binary(Code::Add, a, b),
            Expr::Sub(a, b) => binary(Code::Sub, a, b),
            Expr::Mul(a, b) => binary(Code::Mul, a, b),
            Expr::FloorDiv(a, b) => binary(Code::FloorDiv, a, b),
            Expr::CeilDiv(a, b) => binary(Code::CeilDiv, a, b),
            Expr::Mod(a, b) => binary(Code::Mod, a, b),
            Expr::Neg(a) => Code::Neg(Box::new(self.expr(a, bound))),
            Expr::Min(items) => Code::Min(items.iter().map(|x| self.expr(x, bound)).collect()),
            Expr::Max(items) => Code::Max(items.iter().map(|x| self.expr(x, bound)).collect()),
            Expr::Call(name, args) => {
                let callee = match (self.functions.get(name), name.as_str(), args.len()) {
                    (Some(f), _, _) => Callee::User(f.clone()),
                    (None, "abs", 1) => Callee::Abs,
                    (None, "sgn", 1) => Callee::Sgn,
                    (None, "sqrt", 1) => Callee::Sqrt,
                    _ => Callee::Unknown(name.clone()),
                };
                Code::Call(callee, args.iter().map(|a| self.expr(a, bound)).collect())
            }
            Expr::ArrayRead(r) if bound => Code::BoundRead(r.array.clone()),
            Expr::ArrayRead(r) => Code::Read(self.reference(&r.array, &r.subscripts)),
        }
    }
}

/// The dense id of `name`, assigning the next one on first sight.
fn intern(ids: &mut BTreeMap<Symbol, usize>, names: &mut Vec<Symbol>, name: &Symbol) -> usize {
    *ids.entry(name.clone()).or_insert_with(|| {
        names.push(name.clone());
        names.len() - 1
    })
}

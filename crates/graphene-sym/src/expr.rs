//! Symbolic integer expressions.
//!
//! The paper's `IntExpr` production (§3.1, Figure 2):
//!
//! ```text
//! IntExpr = int | var | (IntExpr BinOp IntExpr)
//! BinOp   = + | - | * | / | ...
//! ```
//!
//! These appear in two roles: *parametric shapes* (`[M, N].fp32`, §3.4)
//! and the scalar index expressions Graphene's code generation produces
//! for tensor accesses and thread groups (§5.5), which must be
//! arithmetically simplified before printing.

use crate::simplify::multiple_of;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// A symbolic integer expression.
///
/// Expressions are immutable trees shared via [`Rc`]. Construction through
/// the operator impls and [`IntExpr`] constructors performs light
/// *eager* constant folding; full simplification lives in
/// [`crate::simplify`].
///
/// # Examples
///
/// ```
/// use graphene_sym::IntExpr;
/// let m = IntExpr::var("M");
/// let e = (m.clone() * 4 + 2) % 1; // folds to 0
/// assert_eq!(e, IntExpr::constant(0));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum IntExpr {
    /// An integer constant.
    Const(i64),
    /// A named variable, optionally with a known exclusive upper bound
    /// (e.g. `threadIdx.x < 1024`), used by simplification rules such as
    /// the paper's `(M % 256) → M iff M < 256`.
    Var(Rc<VarInfo>),
    /// A binary operation.
    Bin(BinOp, Rc<IntExpr>, Rc<IntExpr>),
}

/// Metadata for a symbolic variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VarInfo {
    /// The variable's name as it will be printed (e.g. `threadIdx.x`).
    pub name: String,
    /// Known exclusive upper bound, if any. Variables are assumed
    /// non-negative (they model sizes and hardware indices).
    pub bound: Option<i64>,
}

/// Binary operators over integer expressions.
///
/// `Div` and `Mod` follow C semantics on non-negative operands (the only
/// ones Graphene index expressions produce), i.e. truncating division.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Truncating division.
    Div,
    /// Remainder.
    Mod,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl BinOp {
    /// Applies the operator to two concrete values.
    ///
    /// # Panics
    ///
    /// Panics on division or remainder by zero.
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Mod => a % b,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }

    /// The C operator token, if the operator has one.
    pub fn c_token(self) -> Option<&'static str> {
        match self {
            BinOp::Add => Some("+"),
            BinOp::Sub => Some("-"),
            BinOp::Mul => Some("*"),
            BinOp::Div => Some("/"),
            BinOp::Mod => Some("%"),
            BinOp::Min | BinOp::Max => None,
        }
    }

    /// Binding strength for printing with minimal parentheses.
    fn precedence(self) -> u8 {
        match self {
            BinOp::Add | BinOp::Sub => 1,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 2,
            BinOp::Min | BinOp::Max => 3,
        }
    }
}

impl IntExpr {
    /// An integer constant.
    pub fn constant(v: i64) -> Self {
        IntExpr::Const(v)
    }

    /// The constant zero.
    pub fn zero() -> Self {
        IntExpr::Const(0)
    }

    /// The constant one.
    pub fn one() -> Self {
        IntExpr::Const(1)
    }

    /// An unbounded variable.
    pub fn var(name: impl Into<String>) -> Self {
        IntExpr::Var(Rc::new(VarInfo { name: name.into(), bound: None }))
    }

    /// A variable with a known exclusive upper bound.
    pub fn var_bounded(name: impl Into<String>, bound: i64) -> Self {
        IntExpr::Var(Rc::new(VarInfo { name: name.into(), bound: Some(bound) }))
    }

    /// Returns the constant value if this expression is a constant.
    pub fn as_const(&self) -> Option<i64> {
        match self {
            IntExpr::Const(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns `true` if this expression is the constant `v`.
    pub fn is_const(&self, v: i64) -> bool {
        self.as_const() == Some(v)
    }

    /// Builds a binary expression with eager constant folding and the
    /// cheap identity rules (`x+0`, `x*1`, `x*0`, `x/1`, `x%1`, `0/x`).
    pub fn bin(op: BinOp, lhs: IntExpr, rhs: IntExpr) -> IntExpr {
        if let (Some(a), Some(b)) = (lhs.as_const(), rhs.as_const()) {
            if !(matches!(op, BinOp::Div | BinOp::Mod) && b == 0) {
                return IntExpr::Const(op.apply(a, b));
            }
        }
        match op {
            BinOp::Add if lhs.is_const(0) => return rhs,
            BinOp::Add | BinOp::Sub if rhs.is_const(0) => return lhs,
            BinOp::Mul if lhs.is_const(1) => return rhs,
            BinOp::Mul if rhs.is_const(1) => return lhs,
            BinOp::Mul if lhs.is_const(0) || rhs.is_const(0) => return IntExpr::Const(0),
            BinOp::Div if rhs.is_const(1) => return lhs,
            BinOp::Div if lhs.is_const(0) => return IntExpr::Const(0),
            BinOp::Mod if rhs.is_const(1) => return IntExpr::Const(0),
            BinOp::Mod if lhs.is_const(0) => return IntExpr::Const(0),
            _ => {}
        }
        IntExpr::Bin(op, Rc::new(lhs), Rc::new(rhs))
    }

    /// Minimum of two expressions.
    pub fn min(self, other: IntExpr) -> IntExpr {
        IntExpr::bin(BinOp::Min, self, other)
    }

    /// Maximum of two expressions.
    pub fn max(self, other: IntExpr) -> IntExpr {
        IntExpr::bin(BinOp::Max, self, other)
    }

    /// Evaluates the expression under a variable assignment.
    ///
    /// # Errors
    ///
    /// Returns the name of the first unbound variable encountered, or a
    /// division-by-zero description.
    pub fn eval(&self, env: &HashMap<String, i64>) -> Result<i64, EvalError> {
        match self {
            IntExpr::Const(v) => Ok(*v),
            IntExpr::Var(info) => {
                env.get(&info.name).copied().ok_or_else(|| EvalError::UnboundVar(info.name.clone()))
            }
            IntExpr::Bin(op, a, b) => {
                let a = a.eval(env)?;
                let b = b.eval(env)?;
                if matches!(op, BinOp::Div | BinOp::Mod) && b == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                Ok(op.apply(a, b))
            }
        }
    }

    /// Returns `true` if this expression provably evaluates to a
    /// non-negative value. Variables are assumed non-negative (they model
    /// sizes and hardware indices); subtraction is conservatively treated
    /// as possibly negative.
    pub fn is_nonneg(&self) -> bool {
        match self {
            IntExpr::Const(v) => *v >= 0,
            IntExpr::Var(_) => true,
            IntExpr::Bin(BinOp::Sub, _, _) => false,
            IntExpr::Bin(_, a, b) => a.is_nonneg() && b.is_nonneg(),
        }
    }

    /// An *exclusive* upper bound on the value of this expression, when one
    /// can be derived: constants bound themselves, bounded variables carry
    /// a bound, and bounds propagate through `+`, `*`, `%`, `/`, `min`.
    /// All variables are assumed to be non-negative.
    pub fn upper_bound(&self) -> Option<i64> {
        self.upper_bound_with(&HashMap::new())
    }

    /// Like [`upper_bound`](Self::upper_bound), additionally tightening
    /// variables with the *exclusive* bounds in `tighter` (e.g. derived
    /// from dominating `var < c` guards); a variable's effective bound
    /// is the minimum of its declared bound and its entry here.
    pub fn upper_bound_with(&self, tighter: &HashMap<String, i64>) -> Option<i64> {
        match self {
            IntExpr::Const(v) => Some(v + 1),
            IntExpr::Var(info) => match (info.bound, tighter.get(&info.name)) {
                (Some(b), Some(&t)) => Some(b.min(t)),
                (Some(b), None) => Some(b),
                (None, Some(&t)) => Some(t),
                (None, None) => None,
            },
            IntExpr::Bin(op, a, b) => {
                let (ba, bb) = (a.upper_bound_with(tighter), b.upper_bound_with(tighter));
                match op {
                    BinOp::Add => Some(ba? + bb? - 1),
                    BinOp::Mul => {
                        // Only sound when neither factor can be negative
                        // (two large negatives multiply to a large positive).
                        if a.is_nonneg() && b.is_nonneg() {
                            Some((ba? - 1) * (bb? - 1) + 1)
                        } else {
                            None
                        }
                    }
                    BinOp::Mod => {
                        // a % b < b whenever b > 0 (C remainder magnitude
                        // is below |b|); additionally a % b <= a when a is
                        // provably non-negative.
                        let via_b = b.as_const().filter(|&bv| bv > 0);
                        let via_a = if a.is_nonneg() { ba } else { None };
                        match (via_b, via_a) {
                            (Some(bv), Some(av)) => Some(bv.min(av)),
                            (Some(bv), None) => Some(bv),
                            (None, av) => av,
                        }
                    }
                    BinOp::Div => {
                        let bv = b.as_const()?;
                        if bv <= 0 {
                            return None;
                        }
                        Some((ba? - 1) / bv + 1)
                    }
                    BinOp::Min => match (ba, bb) {
                        (Some(x), Some(y)) => Some(x.min(y)),
                        (Some(x), None) | (None, Some(x)) => Some(x),
                        (None, None) => None,
                    },
                    BinOp::Max => Some(ba?.max(bb?)),
                    // a - b < bound(a) only when b cannot be negative.
                    BinOp::Sub => {
                        if b.is_nonneg() {
                            ba
                        } else {
                            None
                        }
                    }
                }
            }
        }
    }

    /// Splits this expression as `rest + part` around variable `var`:
    /// `rest` is free of `var`, `part` reads only `var`, and
    /// `self == rest + part` for every non-negative assignment.
    ///
    /// `+`, `-` and `× const` distribute. `/ c` and `% c` (`c > 0`) pass
    /// through only when `part` is a provable multiple of `c` and both
    /// sides are non-negative: then `(r + c·h) / c = r / c + h` and
    /// `(r + c·h) % c = r % c`. Any other operator that mixes `var`
    /// with other variables gives `None`.
    ///
    /// # Examples
    ///
    /// ```
    /// use graphene_sym::IntExpr;
    /// let (b, t) = (IntExpr::var("b"), IntExpr::var("t"));
    /// let (rest, part) = ((b.clone() * 128 + t.clone()) % 32).split_var("b").unwrap();
    /// assert_eq!((rest, part), (t.clone() % 32, IntExpr::zero()));
    /// assert!(((b * 4 + t) / 8).split_var("b").is_none());
    /// ```
    pub fn split_var(&self, var: &str) -> Option<(IntExpr, IntExpr)> {
        let vars = self.free_vars();
        if !vars.iter().any(|v| v == var) {
            return Some((self.clone(), IntExpr::zero()));
        }
        if vars.iter().all(|v| v == var) {
            return Some((IntExpr::zero(), self.clone()));
        }
        let IntExpr::Bin(op, a, b) = self else {
            unreachable!("a leaf reads at most one variable")
        };
        let (ra, pa) = a.split_var(var)?;
        let (rb, pb) = b.split_var(var)?;
        Some(match op {
            BinOp::Add => (ra + rb, pa + pb),
            BinOp::Sub => (ra - rb, pa - pb),
            BinOp::Mul => match (a.as_const(), b.as_const()) {
                (Some(c), _) => (rb * c, pb * c),
                (_, Some(c)) => (ra * c, pa * c),
                _ => return None,
            },
            BinOp::Div | BinOp::Mod => {
                let c = b.as_const().filter(|&c| c > 0)?;
                if !multiple_of(&pa, c) || !ra.is_nonneg() || !pa.is_nonneg() {
                    return None;
                }
                match op {
                    BinOp::Div => (ra / c, pa / c),
                    _ => (ra % c, IntExpr::zero()),
                }
            }
            BinOp::Min | BinOp::Max => return None,
        })
    }

    /// Collects the free variable names in this expression, in first-use
    /// order without duplicates.
    pub fn free_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            IntExpr::Const(_) => {}
            IntExpr::Var(info) => {
                if !out.contains(&info.name) {
                    out.push(info.name.clone());
                }
            }
            IntExpr::Bin(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// The number of nodes in the expression tree (a cost metric for the
    /// simplifier).
    pub fn node_count(&self) -> usize {
        match self {
            IntExpr::Const(_) | IntExpr::Var(_) => 1,
            IntExpr::Bin(_, a, b) => 1 + a.node_count() + b.node_count(),
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
        match self {
            IntExpr::Const(v) => write!(f, "{v}"),
            IntExpr::Var(info) => write!(f, "{}", info.name),
            IntExpr::Bin(op, a, b) => match op.c_token() {
                Some(tok) => {
                    let prec = op.precedence();
                    let need_parens = prec < parent_prec;
                    if need_parens {
                        write!(f, "(")?;
                    }
                    a.fmt_prec(f, prec)?;
                    write!(f, " {tok} ")?;
                    // The right side needs stricter parens whenever C's
                    // left-associativity would re-group it: x - (y - z),
                    // x / (y / z), and also x * (y / z) — integer `*` and
                    // `/` do not associate.
                    let rhs_prec = match op {
                        BinOp::Sub | BinOp::Div | BinOp::Mod | BinOp::Mul => prec + 1,
                        BinOp::Add => prec,
                        BinOp::Min | BinOp::Max => unreachable!("handled above"),
                    };
                    b.fmt_prec(f, rhs_prec)?;
                    if need_parens {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                None => {
                    let name = if matches!(op, BinOp::Min) { "min" } else { "max" };
                    write!(f, "{name}(")?;
                    a.fmt_prec(f, 0)?;
                    write!(f, ", ")?;
                    b.fmt_prec(f, 0)?;
                    write!(f, ")")
                }
            },
        }
    }
}

/// Errors from [`IntExpr::eval`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable had no value in the environment.
    UnboundVar(String),
    /// Division or remainder by zero.
    DivisionByZero,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVar(n) => write!(f, "unbound variable `{n}`"),
            EvalError::DivisionByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for EvalError {}

impl fmt::Display for IntExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

impl fmt::Debug for IntExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<i64> for IntExpr {
    fn from(v: i64) -> Self {
        IntExpr::Const(v)
    }
}

impl From<i32> for IntExpr {
    fn from(v: i32) -> Self {
        IntExpr::Const(v as i64)
    }
}

macro_rules! impl_op {
    ($trait:ident, $method:ident, $op:expr) => {
        impl<R: Into<IntExpr>> std::ops::$trait<R> for IntExpr {
            type Output = IntExpr;
            fn $method(self, rhs: R) -> IntExpr {
                IntExpr::bin($op, self, rhs.into())
            }
        }
    };
}

impl_op!(Add, add, BinOp::Add);
impl_op!(Sub, sub, BinOp::Sub);
impl_op!(Mul, mul, BinOp::Mul);
impl_op!(Div, div, BinOp::Div);
impl_op!(Rem, rem, BinOp::Mod);

#[cfg(test)]
mod tests {
    use super::*;

    fn env(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn constant_folding() {
        let e = IntExpr::constant(3) * 4 + 2;
        assert_eq!(e, IntExpr::Const(14));
    }

    #[test]
    #[allow(clippy::modulo_one, clippy::erasing_op, clippy::identity_op)]
    fn identity_rules() {
        let x = IntExpr::var("x");
        assert_eq!(x.clone() + 0, x);
        assert_eq!(x.clone() * 1, x);
        assert_eq!(x.clone() * 0, IntExpr::Const(0));
        assert_eq!(x.clone() / 1, x);
        assert_eq!(x.clone() % 1, IntExpr::Const(0));
        assert_eq!(IntExpr::zero() + x.clone(), x);
    }

    #[test]
    fn no_fold_division_by_zero() {
        let e = IntExpr::bin(BinOp::Div, IntExpr::constant(4), IntExpr::constant(0));
        assert!(matches!(e, IntExpr::Bin(..)));
        assert_eq!(e.eval(&env(&[])), Err(EvalError::DivisionByZero));
    }

    #[test]
    fn eval_with_env() {
        let e = IntExpr::var("M") * 8 + IntExpr::var("N");
        assert_eq!(e.eval(&env(&[("M", 3), ("N", 2)])), Ok(26));
        assert_eq!(e.eval(&env(&[("M", 3)])), Err(EvalError::UnboundVar("N".into())));
    }

    #[test]
    fn display_with_minimal_parens() {
        let x = IntExpr::var("x");
        let y = IntExpr::var("y");
        assert_eq!((x.clone() + y.clone()).to_string(), "x + y");
        assert_eq!(((x.clone() + y.clone()) * 2).to_string(), "(x + y) * 2");
        assert_eq!((x.clone() * y.clone() + 2).to_string(), "x * y + 2");
        assert_eq!((x.clone() % 8).to_string(), "x % 8");
        assert_eq!(((x.clone() / 8) % 2).to_string(), "x / 8 % 2");
        // Right-associativity parens for subtraction.
        let e = IntExpr::bin(
            BinOp::Sub,
            x.clone(),
            IntExpr::bin(BinOp::Sub, y.clone(), IntExpr::constant(1)),
        );
        assert_eq!(e.to_string(), "x - (y - 1)");
    }

    #[test]
    fn min_max_display() {
        let x = IntExpr::var("x");
        assert_eq!(x.clone().min(IntExpr::constant(4)).to_string(), "min(x, 4)");
        assert_eq!(x.max(IntExpr::constant(4)).to_string(), "max(x, 4)");
    }

    #[test]
    fn upper_bound_propagation() {
        let tid = IntExpr::var_bounded("tid", 32);
        assert_eq!(tid.upper_bound(), Some(32));
        assert_eq!((tid.clone() % 8).upper_bound(), Some(8));
        assert_eq!((tid.clone() / 8).upper_bound(), Some(4));
        assert_eq!((tid.clone() * 2).upper_bound(), Some(63));
        assert_eq!((tid.clone() + tid.clone()).upper_bound(), Some(63));
        assert_eq!(IntExpr::var("m").upper_bound(), None);
    }

    #[test]
    fn free_vars_in_order() {
        let e = IntExpr::var("b") * IntExpr::var("a") + IntExpr::var("b");
        assert_eq!(e.free_vars(), vec!["b".to_string(), "a".to_string()]);
    }

    /// `(rest, part)` of `e` split around `b`, checked at a few points.
    fn split_b(e: &IntExpr) -> Option<(IntExpr, IntExpr)> {
        let (rest, part) = e.split_var("b")?;
        for (b, t, k) in [(0, 0, 0), (3, 17, 2), (7, 255, 5), (12, 64, 1)] {
            let at = env(&[("b", b), ("t", t), ("k", k)]);
            assert_eq!(e.eval(&at), (rest.clone() + part.clone()).eval(&at), "{e} at b={b}");
        }
        Some((rest, part))
    }

    #[test]
    fn split_var_passes_the_encoder_offsets() {
        let (b, t, k) = (IntExpr::var("b"), IntExpr::var("t"), IntExpr::var("k"));
        // GEMM staging: the block's column tile enters a `/ 8 · 8` row
        // rounding with the thread's column.
        let gemm = (b.clone() % 8 * 128 + t.clone() * 32 % 128) / 8 * 8
            + k.clone() * 32768
            + t.clone() * 32 / 128 * 1024;
        let (rest, part) = split_b(&gemm).expect("gemm splits");
        assert_eq!(rest.to_string(), "t * 32 % 128 / 8 * 8 + k * 32768 + t * 32 / 128 * 1024");
        assert_eq!(part.to_string(), "b % 8 * 128 / 8 * 8");
        // FMHA: one instance per block, `row_heads` of them side by
        // side in an activation row.
        let fmha = (b.clone() % 4 * 64 + (t.clone() * 8 + 1) * 8 % 64) / 8 * 8
            + (t.clone() * 8 + 1) * 8 / 64 * 256
            + b.clone() / 4 * 32768;
        let (_, part) = split_b(&fmha).expect("fmha splits");
        assert_eq!(part.to_string(), "b % 4 * 64 / 8 * 8 + b / 4 * 32768");
        // Bias broadcast: the block's rows fall out of the column.
        let bias = (b.clone() * 128 + t.clone()) % 32;
        assert_eq!(split_b(&bias), Some((t.clone() % 32, IntExpr::zero())));
    }

    #[test]
    fn split_var_refuses_what_it_cannot_prove() {
        let (b, t) = (IntExpr::var("b"), IntExpr::var("t"));
        // 4·b is not a multiple of 8: the block moves the rounding.
        assert_eq!(split_b(&((b.clone() * 4 + t.clone()) / 8)), None);
        // A subtraction on either side may go negative under `/`.
        assert_eq!(split_b(&((b.clone() * 128 - t.clone()) / 8)), None);
        assert_eq!(split_b(&((t.clone() - b.clone() * 128) / 8)), None);
        // A product of the block with another variable.
        assert_eq!(split_b(&(b.clone() * t.clone())), None);
        // Outside `/` and `%` a subtraction distributes.
        let (rest, part) = split_b(&(t.clone() - b.clone() * 128)).expect("splits");
        assert_eq!((rest, part.to_string()), (t, "0 - b * 128".to_string()));
    }

    #[test]
    fn node_count() {
        let e = IntExpr::var("x") * 4 + IntExpr::var("y");
        assert_eq!(e.node_count(), 5);
    }
}

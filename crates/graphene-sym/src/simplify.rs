//! Algebraic simplification of index expressions.
//!
//! The paper (§3.4, §5.5) requires generated index expressions to be
//! "arithmetically simplified", giving `(M % 256) → M iff M < 256` as the
//! canonical example. This module implements a two-stage simplifier:
//!
//! 1. **Local rules** applied bottom-up: bound-based `%`/`/` elimination,
//!    constant re-association, distribution of exact divisions.
//! 2. **Linear normal form**: expressions are flattened into
//!    `Σ coeffᵢ·atomᵢ + c`, like terms are collected, and div/mod pairs
//!    (`(x/c)*c + x%c → x`) are recombined.
//!
//! Soundness (equal evaluation under every environment) is property-tested
//! in the crate's test suite.

use crate::expr::{BinOp, IntExpr};
use std::collections::HashMap;

/// Simplifies an expression.
///
/// The result evaluates identically to the input for every assignment of
/// non-negative values (respecting declared bounds) to its free variables.
///
/// # Examples
///
/// ```
/// use graphene_sym::{simplify, IntExpr};
/// // The paper's rule: (M % 256) → M iff M < 256.
/// let m = IntExpr::var_bounded("M", 256);
/// assert_eq!(simplify(&(m.clone() % 256)), m);
///
/// // Div/mod recombination from tiling round-trips:
/// let t = IntExpr::var_bounded("tid", 32);
/// let e = (t.clone() / 8) * 8 + t.clone() % 8;
/// assert_eq!(simplify(&e), t);
/// ```
pub fn simplify(expr: &IntExpr) -> IntExpr {
    let local = simplify_node(expr);
    let linear = Linear::from_expr(&local);
    let rebuilt = linear.into_expr();
    // Keep whichever is smaller (the linear form occasionally expands
    // expressions that were already compact).
    if rebuilt.node_count() <= local.node_count() {
        rebuilt
    } else {
        local
    }
}

/// Bottom-up application of local rewrite rules.
fn simplify_node(expr: &IntExpr) -> IntExpr {
    match expr {
        IntExpr::Const(_) | IntExpr::Var(_) => expr.clone(),
        IntExpr::Bin(op, a, b) => {
            let a = simplify_node(a);
            let b = simplify_node(b);
            rewrite(*op, a, b)
        }
    }
}

fn rewrite(op: BinOp, a: IntExpr, b: IntExpr) -> IntExpr {
    // `IntExpr::bin` already constant-folds and applies identities.
    let e = IntExpr::bin(op, a, b);
    let IntExpr::Bin(op, ref a, ref b) = e else { return e };
    let (a, b) = (a.as_ref().clone(), b.as_ref().clone());
    match (op, b.as_const()) {
        // x % m  ->  x        iff 0 <= x < m  (the paper's rule)
        (BinOp::Mod, Some(m))
            if m > 0 && a.is_nonneg() && a.upper_bound().is_some_and(|ub| ub <= m) =>
        {
            a
        }
        // x / m  ->  0        iff 0 <= x < m
        (BinOp::Div, Some(m))
            if m > 0 && a.is_nonneg() && a.upper_bound().is_some_and(|ub| ub <= m) =>
        {
            IntExpr::zero()
        }
        // (x * c) % m -> 0                 iff c % m == 0
        (BinOp::Mod, Some(m)) if m > 0 && multiple_of(&a, m) => IntExpr::zero(),
        // (x * c) / m -> x * (c/m)         iff c % m == 0
        (BinOp::Div, Some(m)) if m > 0 => match divide_exact(&a, m) {
            Some(q) => q,
            None => e,
        },
        // (x * c1) * c2 -> x * (c1*c2)
        (BinOp::Mul, Some(c2)) => match &a {
            IntExpr::Bin(BinOp::Mul, x, c1) if c1.as_const().is_some() => IntExpr::bin(
                BinOp::Mul,
                x.as_ref().clone(),
                IntExpr::constant(c1.as_const().unwrap() * c2),
            ),
            _ => e,
        },
        // min/max with known bounds
        (BinOp::Min, Some(m)) if a.upper_bound().is_some_and(|ub| ub <= m + 1) => a,
        _ => e,
    }
}

/// Is `e` provably a multiple of `m` (syntactically)?
pub(crate) fn multiple_of(e: &IntExpr, m: i64) -> bool {
    match e {
        IntExpr::Const(v) => v % m == 0,
        IntExpr::Var(_) => false,
        IntExpr::Bin(BinOp::Mul, a, b) => {
            a.as_const().is_some_and(|c| c % m == 0)
                || b.as_const().is_some_and(|c| c % m == 0)
                || multiple_of(a, m)
                || multiple_of(b, m)
        }
        IntExpr::Bin(BinOp::Add | BinOp::Sub, a, b) => multiple_of(a, m) && multiple_of(b, m),
        _ => false,
    }
}

/// Divides `e` by `m` exactly when provably possible.
fn divide_exact(e: &IntExpr, m: i64) -> Option<IntExpr> {
    match e {
        IntExpr::Const(v) if v % m == 0 => Some(IntExpr::constant(v / m)),
        IntExpr::Bin(BinOp::Mul, a, b) => {
            if let Some(c) = b.as_const() {
                if c % m == 0 {
                    return Some(IntExpr::bin(
                        BinOp::Mul,
                        a.as_ref().clone(),
                        IntExpr::constant(c / m),
                    ));
                }
            }
            if let Some(c) = a.as_const() {
                if c % m == 0 {
                    return Some(IntExpr::bin(
                        BinOp::Mul,
                        IntExpr::constant(c / m),
                        b.as_ref().clone(),
                    ));
                }
            }
            None
        }
        IntExpr::Bin(BinOp::Add, a, b) => {
            let qa = divide_exact(a, m)?;
            let qb = divide_exact(b, m)?;
            Some(IntExpr::bin(BinOp::Add, qa, qb))
        }
        _ => None,
    }
}

/// Linear normal form: `Σ coeffᵢ·atomᵢ + constant`, with atoms being
/// variables or opaque non-linear subexpressions.
struct Linear {
    terms: HashMap<IntExpr, i64>,
    constant: i64,
}

impl Linear {
    fn from_expr(e: &IntExpr) -> Linear {
        let mut lin = Linear { terms: HashMap::new(), constant: 0 };
        lin.accumulate(e, 1);
        lin.recombine_div_mod();
        lin
    }

    fn accumulate(&mut self, e: &IntExpr, coeff: i64) {
        if coeff == 0 {
            return;
        }
        match e {
            IntExpr::Const(v) => self.constant += coeff * v,
            IntExpr::Var(_) => *self.terms.entry(e.clone()).or_insert(0) += coeff,
            IntExpr::Bin(BinOp::Add, a, b) => {
                self.accumulate(a, coeff);
                self.accumulate(b, coeff);
            }
            IntExpr::Bin(BinOp::Sub, a, b) => {
                self.accumulate(a, coeff);
                self.accumulate(b, -coeff);
            }
            IntExpr::Bin(BinOp::Mul, a, b) => {
                if let Some(c) = b.as_const() {
                    self.accumulate(a, coeff * c);
                } else if let Some(c) = a.as_const() {
                    self.accumulate(b, coeff * c);
                } else {
                    *self.terms.entry(e.clone()).or_insert(0) += coeff;
                }
            }
            _ => *self.terms.entry(e.clone()).or_insert(0) += coeff,
        }
    }

    /// Recombines `(x/c)*c + x%c -> x` patterns in the linear form.
    fn recombine_div_mod(&mut self) {
        loop {
            let mut found: Option<(IntExpr, IntExpr, IntExpr, i64, i64)> = None;
            'search: for (atom, &coeff) in &self.terms {
                if coeff == 0 {
                    continue;
                }
                if let IntExpr::Bin(BinOp::Div, x, c) = atom {
                    let Some(cv) = c.as_const() else { continue };
                    if cv <= 0 || coeff % cv != 0 {
                        continue;
                    }
                    // Look for a matching `x % c` term with coeff/cv.
                    let want = IntExpr::Bin(BinOp::Mod, x.clone(), c.clone());
                    if let Some(&mc) = self.terms.get(&want) {
                        let k = coeff / cv;
                        if mc == k && k != 0 {
                            found =
                                Some((atom.clone(), want.clone(), x.as_ref().clone(), coeff, k));
                            break 'search;
                        }
                    }
                }
            }
            match found {
                Some((div_atom, mod_atom, x, div_coeff, k)) => {
                    *self.terms.get_mut(&div_atom).unwrap() -= div_coeff;
                    *self.terms.get_mut(&mod_atom).unwrap() -= k;
                    self.accumulate(&x, k);
                }
                None => break,
            }
        }
    }

    fn into_expr(self) -> IntExpr {
        // Deterministic ordering: sort by rendered form.
        let mut terms: Vec<(IntExpr, i64)> =
            self.terms.into_iter().filter(|&(_, c)| c != 0).collect();
        terms.sort_by_key(|(e, _)| e.to_string());
        let mut acc: Option<IntExpr> = None;
        let push = |acc: &mut Option<IntExpr>, term: IntExpr, negate: bool| {
            *acc = Some(match acc.take() {
                None => {
                    if negate {
                        IntExpr::bin(BinOp::Sub, IntExpr::zero(), term)
                    } else {
                        term
                    }
                }
                Some(prev) => {
                    IntExpr::bin(if negate { BinOp::Sub } else { BinOp::Add }, prev, term)
                }
            });
        };
        for (atom, coeff) in terms {
            let (mag, neg) = (coeff.abs(), coeff < 0);
            let term = if mag == 1 {
                atom
            } else {
                IntExpr::bin(BinOp::Mul, atom, IntExpr::constant(mag))
            };
            push(&mut acc, term, neg);
        }
        if self.constant != 0 || acc.is_none() {
            push(&mut acc, IntExpr::constant(self.constant.abs()), self.constant < 0);
        }
        acc.unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rule_mod_elimination() {
        let m = IntExpr::var_bounded("M", 256);
        assert_eq!(simplify(&(m.clone() % 256)), m);
        // Not eliminated when the bound does not justify it.
        let n = IntExpr::var_bounded("N", 512);
        let e = n.clone() % 256;
        assert_eq!(simplify(&e).to_string(), "N % 256");
    }

    #[test]
    fn div_elimination_by_bound() {
        let t = IntExpr::var_bounded("tid", 8);
        assert_eq!(simplify(&(t / 8)), IntExpr::zero());
    }

    #[test]
    fn mul_mod_cancellation() {
        let x = IntExpr::var("x");
        assert_eq!(simplify(&((x.clone() * 64) % 8)), IntExpr::zero());
        let q = simplify(&((x.clone() * 64) / 8));
        assert_eq!(q.to_string(), "x * 8");
    }

    #[test]
    fn constant_reassociation() {
        let x = IntExpr::var("x");
        let e = (x.clone() * 4) * 8;
        assert_eq!(simplify(&e).to_string(), "x * 32");
    }

    #[test]
    fn like_terms_collected() {
        let x = IntExpr::var("x");
        let e = x.clone() * 3 + x.clone() * 5 + 2;
        assert_eq!(simplify(&e).to_string(), "x * 8 + 2");
        let e2 = x.clone() * 3 - x.clone() * 3;
        assert_eq!(simplify(&e2), IntExpr::zero());
    }

    #[test]
    fn div_mod_recombination() {
        let t = IntExpr::var_bounded("tid", 32);
        let e = (t.clone() / 8) * 8 + t.clone() % 8;
        assert_eq!(simplify(&e), t);
    }

    #[test]
    fn div_mod_recombination_scaled() {
        // k*( (x/c)*c + x%c ) for k = 4, c = 16.
        let t = IntExpr::var("x");
        let e = (t.clone() / 16) * 64 + (t.clone() % 16) * 4;
        assert_eq!(simplify(&e).to_string(), "x * 4");
    }

    #[test]
    fn nested_simplification() {
        // ((tid % 8) % 8) -> tid % 8 (inner bound is 8)
        let t = IntExpr::var_bounded("tid", 32);
        let e = (t.clone() % 8) % 8;
        assert_eq!(simplify(&e).to_string(), "tid % 8");
    }

    #[test]
    fn add_of_exact_divisions() {
        let x = IntExpr::var("x");
        let y = IntExpr::var("y");
        let e = (x.clone() * 8 + y.clone() * 16) / 8;
        assert_eq!(simplify(&e).to_string(), "x + y * 2");
    }

    #[test]
    #[allow(clippy::erasing_op)]
    fn zero_result_renders() {
        let e = IntExpr::var("x") * 0;
        assert_eq!(simplify(&e).to_string(), "0");
    }

    #[test]
    fn negative_constant_rendering() {
        let x = IntExpr::var("x");
        let e = x.clone() - 5;
        assert_eq!(simplify(&e).to_string(), "x - 5");
    }

    #[test]
    fn simplify_is_deterministic() {
        let x = IntExpr::var("x");
        let y = IntExpr::var("y");
        let e = y.clone() + x.clone() * 2 + y.clone() * 3 + x.clone();
        let a = simplify(&e).to_string();
        let b = simplify(&e).to_string();
        assert_eq!(a, b);
        assert_eq!(a, "x * 3 + y * 4");
    }
}

//! Symbolic race disjointness over F₂ (the race detector's proof rule).
//!
//! Two shared-memory accesses of the same root race only if some
//! address is touched by two *different* threads. When both accesses'
//! offsets are XOR-affine in the bits of `threadIdx.x`
//! ([`graphene_sym::linearize`]) and their vector offsets
//! XOR-decompose, the collision condition
//! `addr_A(t₁, j_A) == addr_B(t₂, j_B)` is one F₂ linear system over
//! the bits of `(t₁, t₂, j_A, j_B)`:
//!
//! ```text
//! [A-tid columns | B-tid columns | Δ_A | Δ_B] · x  =  adj_A[0] ⊕ adj_B[0]
//! ```
//!
//! solved by [`graphene_layout::solve_f2`]. The pair is proven
//! race-free when the system is infeasible, or when every solution
//! forces `t₁ == t₂` ([`graphene_layout::solutions_force_equal`]) —
//! same-thread reuse is not a race. Crucially, a `threadIdx.x` bit
//! absent from an offset contributes a **zero column**, not no column:
//! a dropped bit means the address aliases across threads, and the
//! solver must be allowed to exploit it (see
//! `aliasing_addresses_do_not_force_equal` in `graphene-layout`).
//!
//! The root's swizzle is dropped: both accesses go through the same
//! bijection, so post-swizzle collisions coincide with pre-swizzle
//! ones.

use graphene_layout::{solutions_force_equal, solve_f2, xor_vector};
use graphene_sym::{linearize, IntExpr, XorForm};

/// Outcome of the symbolic disjointness check for one access pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairProof {
    /// Proven: no address is shared by two different threads, for every
    /// thread in `[0, 2^n)` and every vector element — a complete proof
    /// independent of loop iteration.
    RaceFree,
    /// The F₂ system admits a cross-thread collision; enumeration must
    /// decide (the collision may still be filtered by guards).
    Possible,
    /// The pair is outside the F₂ fragment (non-linear offset, carrying
    /// vector offsets, non-power-of-two lane span).
    NotLinear,
}

/// One access abstracted for the pair solver: its tid-bit columns
/// (length `n`, zero-padded), vector deltas, and base address.
///
/// A pure function of the view's offset, its relative scalar offsets
/// and the lane span `n`, so a walk may build it once per `(view, n)`
/// and reuse it for every pair the view takes part in.
#[derive(Debug)]
pub(crate) struct SideForm {
    tid_cols: Vec<i64>,
    deltas: Vec<i64>,
    base: i64,
}

/// Abstracts one side. `None` when outside the F₂ fragment.
pub(crate) fn side_form(offset: &IntExpr, rel: &[i64], n: u32) -> Option<SideForm> {
    let form: XorForm = linearize(offset)?;
    // The offset must be a function of the thread id alone — loop
    // counters or block ids would make the two sides share variables.
    if form.terms.iter().any(|t| t.var != "threadIdx.x") {
        return None;
    }
    let (base, deltas) = xor_vector(form.constant, form.terms.iter().map(|t| t.mask), rel)?;
    // Zero columns for tid bits absent from the form: those bits alias.
    let tid_cols =
        (0..n).map(|b| form.terms.iter().find(|t| t.bit == b).map_or(0, |t| t.mask)).collect();
    Some(SideForm { tid_cols, deltas, base })
}

/// Symbolically decides whether two accesses of one shared root can
/// collide across threads, for thread ids ranging over exactly
/// `[0, 2^n)` on both sides.
///
/// Returns [`PairProof::RaceFree`] only on a complete proof: the
/// result then holds for every thread pair, every vector element, and
/// — because tid-only offsets are iteration-independent — every loop
/// iteration.
pub fn prove_pair_disjoint(
    offset_a: &IntExpr,
    rel_a: &[i64],
    offset_b: &IntExpr,
    rel_b: &[i64],
    n: u32,
) -> PairProof {
    match (side_form(offset_a, rel_a, n), side_form(offset_b, rel_b, n)) {
        (Some(a), Some(b)) => prove_sides_disjoint(&a, &b, n),
        _ => PairProof::NotLinear,
    }
}

/// [`prove_pair_disjoint`] over two sides already abstracted by
/// [`side_form`] with the same `n`.
pub(crate) fn prove_sides_disjoint(a: &SideForm, b: &SideForm, n: u32) -> PairProof {
    if n == 0 || n > 16 {
        return PairProof::NotLinear; // 2n tid columns must fit the solver
    }
    let mut columns = Vec::with_capacity(2 * n as usize + a.deltas.len() + b.deltas.len());
    columns.extend_from_slice(&a.tid_cols);
    columns.extend_from_slice(&b.tid_cols);
    columns.extend_from_slice(&a.deltas);
    columns.extend_from_slice(&b.deltas);
    if columns.len() > 64 {
        return PairProof::NotLinear;
    }
    match solve_f2(&columns, a.base ^ b.base) {
        None => PairProof::RaceFree,
        Some(space) if solutions_force_equal(&space, n as usize) => PairProof::RaceFree,
        Some(_) => PairProof::Possible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_sym::IntExpr;

    fn tid(bound: i64) -> IntExpr {
        IntExpr::var_bounded("threadIdx.x", bound)
    }

    #[test]
    fn identical_linear_accesses_are_same_thread_only() {
        // Both sides write addr = t * 4: collisions force t1 == t2.
        let off = tid(32) * 4;
        assert_eq!(prove_pair_disjoint(&off, &[0], &off, &[0], 5), PairProof::RaceFree);
    }

    #[test]
    fn disjoint_halves_are_race_free() {
        // A writes [0, 32), B writes [32, 64): never the same address.
        let a = tid(32);
        let b = tid(32) + 32;
        assert_eq!(prove_pair_disjoint(&a, &[0], &b, &[0], 5), PairProof::RaceFree);
    }

    #[test]
    fn aliasing_access_is_flagged_possible() {
        // addr = (t % 16) * 2: threads t and t+16 collide.
        let off = tid(32) % 16 * 2;
        assert_eq!(prove_pair_disjoint(&off, &[0], &off, &[0], 5), PairProof::Possible);
    }

    #[test]
    fn overlapping_vectors_are_outside_the_fragment() {
        // Each thread writes 2 consecutive elements starting at t:
        // thread t's second element is thread t+1's first — an overlap
        // produced by integer carry, so the carry-freedom check rejects
        // the pair rather than mis-proving it.
        let off = tid(32);
        assert_eq!(prove_pair_disjoint(&off, &[0, 1], &off, &[0, 1], 5), PairProof::NotLinear);
    }

    #[test]
    fn vectorised_disjoint_tiles_are_race_free() {
        // Each thread owns an aligned 4-element chunk.
        let off = tid(32) * 4;
        let rel = [0, 1, 2, 3];
        assert_eq!(prove_pair_disjoint(&off, &rel, &off, &rel, 5), PairProof::RaceFree);
    }

    #[test]
    fn nonlinear_offsets_are_not_linear() {
        // t * 3 carries between bits — outside the F₂ fragment.
        let off = tid(32) * 3;
        assert_eq!(prove_pair_disjoint(&off, &[0], &off, &[0], 5), PairProof::NotLinear);
        // Loop-dependent offsets share variables across sides.
        let loopy = tid(32) + IntExpr::var_bounded("k", 8) * 32;
        assert_eq!(prove_pair_disjoint(&loopy, &[0], &loopy, &[0], 5), PairProof::NotLinear);
    }
}

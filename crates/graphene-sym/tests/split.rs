//! Seeded property test for [`IntExpr::split_var`]: whenever a random
//! `+ - ×c /c %c` tree over `b`, `t` and `k` splits around `b`, the
//! split is exact at random non-negative points, `rest` never reads
//! `b` and `part` reads nothing else.

use graphene_sym::{BinOp, IntExpr};
use std::collections::HashMap;

/// A 64-bit linear congruential generator: the test is reproducible
/// without a dependency.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 =
            self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }
}

const VARS: [&str; 3] = ["b", "t", "k"];
const CONSTS: [i64; 10] = [1, 2, 3, 4, 5, 8, 16, 32, 64, 128];

fn leaf(rng: &mut Lcg) -> IntExpr {
    if rng.below(3) == 0 {
        IntExpr::constant(CONSTS[rng.below(CONSTS.len() as u64) as usize])
    } else {
        IntExpr::var(VARS[rng.below(VARS.len() as u64) as usize])
    }
}

fn tree(rng: &mut Lcg, depth: u32) -> IntExpr {
    if depth == 0 || rng.below(4) == 0 {
        return leaf(rng);
    }
    let c = IntExpr::constant(CONSTS[rng.below(CONSTS.len() as u64) as usize]);
    match rng.below(5) {
        0 => tree(rng, depth - 1) + tree(rng, depth - 1),
        1 => tree(rng, depth - 1) - tree(rng, depth - 1),
        2 => tree(rng, depth - 1) * c,
        3 => IntExpr::bin(BinOp::Div, tree(rng, depth - 1), c),
        _ => IntExpr::bin(BinOp::Mod, tree(rng, depth - 1), c),
    }
}

#[test]
fn split_var_is_exact_at_random_points() {
    let mut rng = Lcg(0x5eed_2028);
    let (mut split, mut refused, mut through_div_mod) = (0, 0, 0);
    for case in 0..4000 {
        let e = tree(&mut rng, 5);
        let Some((rest, part)) = e.split_var("b") else {
            refused += 1;
            continue;
        };
        split += 1;
        let text = e.to_string();
        if part.free_vars().len() == 1 && (text.contains('/') || text.contains('%')) {
            through_div_mod += 1;
        }
        assert!(!rest.free_vars().iter().any(|v| v == "b"), "case {case}: rest {rest} reads b");
        assert!(part.free_vars().iter().all(|v| v == "b"), "case {case}: part {part} reads more");
        for _ in 0..16 {
            let env: HashMap<String, i64> =
                VARS.iter().map(|v| (v.to_string(), rng.below(700) as i64)).collect();
            assert_eq!(
                e.eval(&env),
                (rest.clone() + part.clone()).eval(&env),
                "case {case}: {e} != ({rest}) + ({part}) at {env:?}"
            );
        }
    }
    // The generator must exercise both outcomes, and splits that carry
    // `b` through a division or remainder.
    assert!(
        split > 1000 && refused > 100 && through_div_mod > 100,
        "{split} split ({through_div_mod} moving `b` in a tree with `/` or `%`), {refused} refused"
    );
}

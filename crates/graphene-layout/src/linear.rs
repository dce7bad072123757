//! F₂ linear algebra for layout proofs: bank-conflict rank conditions,
//! affine solution spaces for race disjointness, and swizzle synthesis.
//!
//! The key observation (PAPERS.md, "Linear Layouts") is that every stage of
//! the shared-memory addressing pipeline is linear over F₂ once the address
//! itself is XOR-affine in its input bits (`graphene_sym::linearize`):
//!
//! - an XOR [`Swizzle`] is linear: `sw(x ⊕ y) = sw(x) ⊕ sw(y)`;
//! - byte→word scaling is a bit shift, and shifts are bit selections;
//! - bank extraction `word & 31` is a projection.
//!
//! So an access's behaviour across a warp is captured by the *columns*
//! `m_k` — the word-address images of each varying input bit — and
//! conflict-freedom becomes a rank condition ([`BankProof`]): with word
//! rank `r_w` and bank rank `r_b`, the warp touches `2^r_w` distinct words
//! spread over `2^r_b` banks, costing `2^(r_w − r_b)` transactions against
//! an ideal of `2^max(r_w−5, 0)`. Uniform bits (loop counters, warp
//! selectors) only XOR-shift the coset and cannot change these counts, so
//! one rank computation covers all warps and iterations.

use crate::swizzle::Swizzle;

/// The rank over F₂ of a set of bit-vector columns.
pub fn rank_f2(columns: impl IntoIterator<Item = i64>) -> u32 {
    let mut basis: Vec<u64> = Vec::new();
    for col in columns {
        let mut v = col as u64;
        for &b in &basis {
            v = v.min(v ^ b);
        }
        if v != 0 {
            basis.push(v);
        }
    }
    basis.len() as u32
}

/// One shared-memory access site, abstracted to the element-address columns
/// of its varying input bits (warp lane bits and intra-access vector bits).
#[derive(Debug, Clone)]
pub struct AccessSite {
    /// Element-address mask contributed by each varying bit.
    pub columns: Vec<i64>,
    /// Element size in bytes (must be a power of two to prove).
    pub bytes_per: i64,
}

/// A proved bank-behaviour summary for one warp-wide access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankProof {
    /// Rank of the word-address columns: the warp touches `2^word_rank`
    /// distinct 4-byte words.
    pub word_rank: u32,
    /// Rank of the bank columns (`word & 31`).
    pub bank_rank: u32,
}

impl BankProof {
    /// Distinct 4-byte words touched by the warp.
    pub fn distinct_words(&self) -> i64 {
        1i64 << self.word_rank
    }

    /// Transactions a conflict-free access of this footprint would need.
    pub fn ideal(&self) -> i64 {
        1i64 << self.word_rank.saturating_sub(5)
    }

    /// Transactions this access actually needs (uniform across banks by
    /// linearity): distinct words per touched bank.
    pub fn actual(&self) -> i64 {
        1i64 << (self.word_rank - self.bank_rank)
    }

    /// `true` when the access is provably bank-conflict-free:
    /// `bank_rank == min(5, word_rank)`.
    pub fn conflict_free(&self) -> bool {
        self.bank_rank == self.word_rank.min(5)
    }
}

/// Maps a site's element-address columns through `swizzle` and byte→word
/// scaling. Returns `None` when `bytes_per` is not a positive power of two.
pub fn word_columns(site: &AccessSite, swizzle: Swizzle) -> Option<Vec<i64>> {
    if site.bytes_per <= 0 || site.bytes_per.count_ones() != 1 {
        return None;
    }
    let log2b = site.bytes_per.trailing_zeros();
    Some(
        site.columns
            .iter()
            .map(|&c| {
                let s = swizzle.apply(c);
                if log2b >= 2 {
                    s << (log2b - 2)
                } else {
                    s >> (2 - log2b)
                }
            })
            .collect(),
    )
}

/// Proves the bank behaviour of one access site under `swizzle`.
pub fn prove_banks(site: &AccessSite, swizzle: Swizzle) -> Option<BankProof> {
    let wcols = word_columns(site, swizzle)?;
    Some(BankProof {
        word_rank: rank_f2(wcols.iter().copied()),
        bank_rank: rank_f2(wcols.iter().map(|c| c & 31)),
    })
}

/// Solves the F₂ swizzle-synthesis system: the smallest-period XOR swizzle
/// under which *every* given access site is provably conflict-free.
///
/// Candidates are enumerated in increasing period (identity first), so a
/// layout that is already conflict-free synthesizes the identity, and the
/// result never uses more padding than necessary. Returns `None` when no
/// swizzle in the bounded window space works (callers fall back to search).
pub fn synthesize_swizzle(sites: &[AccessSite]) -> Option<Swizzle> {
    if sites.is_empty() {
        return None;
    }
    let proven =
        |sw: Swizzle| sites.iter().all(|s| prove_banks(s, sw).is_some_and(|p| p.conflict_free()));
    if proven(Swizzle::identity()) {
        return Some(Swizzle::identity());
    }
    for total in 2..=14u32 {
        for bits in 1..=5.min(total - 1) {
            for shift in 1..=(total - bits) {
                let sw = Swizzle::new(bits, total - bits - shift, shift);
                if proven(sw) {
                    return Some(sw);
                }
            }
        }
    }
    None
}

/// The affine solution space of an F₂ system `A·x = b`: all solutions are
/// `particular ⊕ span(nullspace)`, with vectors encoded as bitsets over the
/// column indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolutionSpace {
    /// One solution of the system.
    pub particular: u64,
    /// Basis of the homogeneous solutions.
    pub nullspace: Vec<u64>,
}

/// Solves `⨁ x_i·columns[i] = target` over F₂ by Gaussian elimination with
/// combination tracking. Returns `None` when the system is infeasible.
///
/// # Panics
///
/// Panics if more than 64 columns are given.
pub fn solve_f2(columns: &[i64], target: i64) -> Option<SolutionSpace> {
    assert!(columns.len() <= 64, "solve_f2 supports at most 64 columns");
    // Reduced basis: (column value, combination of original columns).
    let mut basis: Vec<(u64, u64)> = Vec::new();
    let mut nullspace = Vec::new();
    for (i, &col) in columns.iter().enumerate() {
        let mut v = col as u64;
        let mut combo = 1u64 << i;
        for &(bv, bc) in &basis {
            if v ^ bv < v {
                v ^= bv;
                combo ^= bc;
            }
        }
        if v == 0 {
            nullspace.push(combo);
        } else {
            basis.push((v, combo));
        }
    }
    let mut t = target as u64;
    let mut particular = 0u64;
    for &(bv, bc) in &basis {
        if t ^ bv < t {
            t ^= bv;
            particular ^= bc;
        }
    }
    (t == 0).then_some(SolutionSpace { particular, nullspace })
}

/// For a system whose `2n` columns are the bits of two thread ids (`t1`
/// bits first, then `t2` bits), returns `true` when every solution has
/// `t1 == t2` — i.e. the two accesses can only collide within one thread.
pub fn solutions_force_equal(space: &SolutionSpace, n: usize) -> bool {
    let mask = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
    let diff = |x: u64| (x & mask) ^ ((x >> n) & mask);
    diff(space.particular) == 0 && space.nullspace.iter().all(|&v| diff(v) == 0)
}

/// Verifies `adj` is XOR-decomposable over its index bits and returns
/// the basis deltas: `adj[i] == adj[0] ⊕ ⨁_{bit k of i} deltas[k]`.
pub fn xor_decompose(adj: &[i64]) -> Option<Vec<i64>> {
    let n = adj.len();
    if n == 0 || !n.is_power_of_two() {
        return None;
    }
    let v = n.trailing_zeros() as usize;
    let deltas: Vec<i64> = (0..v).map(|k| adj[1 << k] ^ adj[0]).collect();
    for (i, &a) in adj.iter().enumerate() {
        let mut expect = adj[0];
        for (k, &d) in deltas.iter().enumerate() {
            if (i >> k) & 1 == 1 {
                expect ^= d;
            }
        }
        if expect != a {
            return None;
        }
    }
    Some(deltas)
}

/// The vector part of an XOR-affine access `base + rel[i]`, whose base
/// is `constant` XOR a subset of the pairwise-disjoint variable `masks`:
/// folds `constant` into the relative offsets (`adj[i] = constant +
/// rel[i]`, the address when every variable bit is zero) and returns
/// `(adj[0], deltas)` of their [`xor_decompose`].
///
/// `None` when an adjusted offset is negative, the offsets do not
/// XOR-decompose, or they overlap a variable bit: the base's variable
/// part lies within the OR of the masks, and only offsets clear of it
/// make `base + rel` equal `base ⊕ rel` (carry-freedom).
pub fn xor_vector(
    constant: i64,
    masks: impl IntoIterator<Item = i64>,
    rel: &[i64],
) -> Option<(i64, Vec<i64>)> {
    let adj: Vec<i64> =
        rel.iter().map(|&o| constant.checked_add(o).filter(|&a| a >= 0)).collect::<Option<_>>()?;
    let deltas = xor_decompose(&adj)?;
    let var_bits = masks.into_iter().fold(0, |m, x| m | x);
    if adj.iter().fold(0, |m, &a| m | a) & var_bits != 0 {
        return None;
    }
    Some((adj[0], deltas))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn xor_decomposition() {
        // Contiguous vector: deltas are powers of two.
        assert_eq!(xor_decompose(&[0, 1, 2, 3]), Some(vec![1, 2]));
        // Strided vector.
        assert_eq!(xor_decompose(&[5, 13]), Some(vec![8]));
        // Arithmetic but not XOR-decomposable: 0,3,6,9 (3 ^ 6 != 5).
        assert_eq!(xor_decompose(&[0, 3, 6, 9]), None);
        // Non-power-of-two length.
        assert_eq!(xor_decompose(&[0, 1, 2]), None);
    }

    #[test]
    fn rank_basics() {
        assert_eq!(rank_f2([]), 0);
        assert_eq!(rank_f2([0]), 0);
        assert_eq!(rank_f2([1, 2, 4]), 3);
        assert_eq!(rank_f2([1, 2, 3]), 2);
        assert_eq!(rank_f2([5, 3, 6]), 2); // 5 ^ 3 = 6
    }

    /// fp32 column access with stride 32 words: all lanes hit bank 0.
    fn strided_site(stride: i64, bytes: i64) -> AccessSite {
        AccessSite { columns: (0..5).map(|b| stride << b).collect(), bytes_per: bytes }
    }

    #[test]
    fn strided_access_is_fully_conflicted() {
        let proof = prove_banks(&strided_site(32, 4), Swizzle::identity()).unwrap();
        assert_eq!(proof.word_rank, 5);
        assert_eq!(proof.bank_rank, 0);
        assert_eq!(proof.actual(), 32);
        assert_eq!(proof.ideal(), 1);
        assert!(!proof.conflict_free());
    }

    #[test]
    fn unit_stride_is_conflict_free() {
        let proof = prove_banks(&strided_site(1, 4), Swizzle::identity()).unwrap();
        assert_eq!(proof.word_rank, 5);
        assert_eq!(proof.bank_rank, 5);
        assert!(proof.conflict_free());
        assert_eq!(proof.actual(), proof.ideal());
    }

    #[test]
    fn narrow_footprint_is_conflict_free() {
        // 8 distinct words in 8 distinct banks: ideal = actual = 1.
        let site = AccessSite { columns: vec![1, 2, 4], bytes_per: 4 };
        let proof = prove_banks(&site, Swizzle::identity()).unwrap();
        assert_eq!(proof.word_rank, 3);
        assert!(proof.conflict_free());
        assert_eq!(proof.actual(), 1);
    }

    #[test]
    fn non_pow2_bytes_cannot_prove() {
        let site = AccessSite { columns: vec![1], bytes_per: 3 };
        assert!(prove_banks(&site, Swizzle::identity()).is_none());
    }

    #[test]
    fn synthesis_fixes_strided_access() {
        let site = strided_site(32, 4);
        let sw = synthesize_swizzle(std::slice::from_ref(&site)).unwrap();
        assert!(!sw.is_identity());
        let proof = prove_banks(&site, sw).unwrap();
        assert!(proof.conflict_free(), "synthesized {sw} must prove");
    }

    #[test]
    fn synthesis_returns_identity_when_already_free() {
        let site = strided_site(1, 4);
        assert_eq!(synthesize_swizzle(std::slice::from_ref(&site)), Some(Swizzle::identity()));
        assert_eq!(synthesize_swizzle(&[]), None);
    }

    #[test]
    fn synthesis_satisfies_all_sites_at_once() {
        // A row access (conflict-free already) plus a column access: the
        // synthesized swizzle must keep the first free while fixing the
        // second.
        let row = strided_site(1, 4);
        let col = strided_site(32, 4);
        let sw = synthesize_swizzle(&[row.clone(), col.clone()]).unwrap();
        assert!(prove_banks(&row, sw).unwrap().conflict_free());
        assert!(prove_banks(&col, sw).unwrap().conflict_free());
    }

    /// Brute-force cross-check: the proof's (ideal, actual) must match
    /// direct enumeration of every lane-bit assignment.
    fn check_against_enumeration(site: &AccessSite, sw: Swizzle) {
        let proof = prove_banks(site, sw).unwrap();
        let n = site.columns.len();
        let mut words = std::collections::HashSet::new();
        let mut per_bank: HashMap<i64, std::collections::HashSet<i64>> = HashMap::new();
        for assign in 0..(1u32 << n) {
            let mut addr = 0i64;
            for (b, &col) in site.columns.iter().enumerate() {
                if (assign >> b) & 1 == 1 {
                    addr ^= col;
                }
            }
            let word = sw.apply(addr) * site.bytes_per / 4;
            words.insert(word);
            per_bank.entry(word & 31).or_default().insert(word);
        }
        let distinct = words.len() as i64;
        let ideal = (distinct + 31) / 32;
        let actual = per_bank.values().map(|s| s.len() as i64).max().unwrap();
        assert_eq!(proof.distinct_words(), distinct, "{site:?} under {sw}");
        assert_eq!(proof.ideal(), ideal, "{site:?} under {sw}");
        assert_eq!(proof.actual(), actual.max(ideal), "{site:?} under {sw}");
    }

    #[test]
    fn proof_matches_enumeration_on_random_sites() {
        // Deterministic LCG; no external dependencies.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        for _ in 0..200 {
            let ncols = 1 + (next() % 7) as usize;
            let site = AccessSite {
                columns: (0..ncols).map(|_| next() & 0xFFF).collect(),
                bytes_per: [1, 2, 4, 8][(next() % 4) as usize],
            };
            let sw = match next() % 3 {
                0 => Swizzle::identity(),
                1 => Swizzle::new(3, 3, 3),
                _ => Swizzle::new(2, 4, 3),
            };
            check_against_enumeration(&site, sw);
        }
    }

    #[test]
    fn solver_finds_solutions() {
        // x0·1 ⊕ x1·2 ⊕ x2·3 = 3 has solutions (x2) and (x0, x1).
        let space = solve_f2(&[1, 2, 3], 3).unwrap();
        assert_eq!(space.nullspace.len(), 1);
        let mut addr = 0i64;
        for (i, &c) in [1i64, 2, 3].iter().enumerate() {
            if (space.particular >> i) & 1 == 1 {
                addr ^= c;
            }
        }
        assert_eq!(addr, 3);
    }

    #[test]
    fn solver_detects_infeasible() {
        assert!(solve_f2(&[2, 4], 1).is_none());
        assert!(solve_f2(&[], 7).is_none());
        assert!(solve_f2(&[], 0).is_some());
    }

    #[test]
    fn identical_addresses_force_equal_threads() {
        // addr(t) = t * 4 for both accesses, 3 thread bits: the only way
        // addr(t1) == addr(t2) is t1 == t2.
        let cols = [4, 8, 16, 4, 8, 16];
        let space = solve_f2(&cols, 0).unwrap();
        assert!(solutions_force_equal(&space, 3));
    }

    #[test]
    fn aliasing_addresses_do_not_force_equal() {
        // addr(t) = (t % 2) * 4: thread bit 1 is dead, so t1 = 0 and
        // t2 = 2 collide.
        let cols = [4, 0, 4, 0];
        let space = solve_f2(&cols, 0).unwrap();
        assert!(!solutions_force_equal(&space, 2));
    }

    #[test]
    fn disjoint_offsets_are_infeasible() {
        // addr_P(t) = t*2, addr_Q(t) = t*2 + 1 (constant difference 1):
        // never equal — the race pair is proven disjoint.
        let cols = [2, 4, 2, 4];
        assert!(solve_f2(&cols, 1).is_none());
    }
}

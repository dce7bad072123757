//! Decomposition bodies: statements, loops, and tensor manipulations.
//!
//! A spec's decomposition (paper Figure 7) "might contain simple control
//! flow or other nested specs". Graphene additionally provides loops,
//! conditionals (for predication of partial tiles, §3.4), synchronisation
//! barriers, and the tensor-view statements (`tile`, indexing, thread
//! tiling/reshaping) seen throughout Figures 1d and 8.

use crate::spec::Spec;
use crate::tensor::TensorId;
use crate::threads::ThreadId;
use graphene_layout::Layout;
use graphene_sym::IntExpr;

/// A comparison predicate for `If` statements (used to guard
/// out-of-bounds accesses of partial tiles, paper §3.4).
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Left-hand side.
    pub lhs: IntExpr,
    /// `lhs < rhs` is the only comparison Graphene predication needs.
    pub rhs: IntExpr,
}

impl Predicate {
    /// Whether the predicate mentions `threadIdx.x` (so its outcome
    /// differs per thread and it *filters* lanes rather than gating the
    /// block).
    pub fn thread_dependent(&self) -> bool {
        self.lhs.free_vars().iter().chain(self.rhs.free_vars().iter()).any(|v| v == "threadIdx.x")
    }
}

/// Synchronisation scopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncScope {
    /// `__syncthreads()` — all threads of the block.
    Block,
    /// `__syncwarp()` — the threads of a warp.
    Warp,
}

/// A statement within a decomposition body.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `%result = %src.tile([...])` — declare a tiled view
    /// (paper §3.3). The resulting declaration lives in the module; the
    /// statement records where in the program the view is introduced.
    Tile {
        /// The new tiled view.
        result: TensorId,
        /// The tensor being tiled.
        src: TensorId,
        /// Per-dimension tile-size tensors (`None` = `_`).
        tilers: Vec<Option<Layout>>,
    },
    /// `%result = %src[coords...]` — select a tile / element.
    Index {
        /// The selected view.
        result: TensorId,
        /// The tensor being indexed.
        src: TensorId,
        /// One coordinate expression per top-level mode.
        coords: Vec<IntExpr>,
    },
    /// `#result = #src.tile([...])` — tile threads into logical groups
    /// (paper §4, Figure 5b).
    ThreadTile {
        /// The tiled thread tensor.
        result: ThreadId,
        /// The source thread tensor.
        src: ThreadId,
        /// Which local threads form one group.
        tiler: Layout,
    },
    /// `#result = #src.reshape(0, dims)` — rearrange logical groups
    /// (paper Figure 5c).
    ThreadReshape {
        /// The reshaped thread tensor.
        result: ThreadId,
        /// The source thread tensor.
        src: ThreadId,
        /// New group dimensions.
        dims: Vec<i64>,
    },
    /// `Allocate` spec (Table 1): introduce a temporary tensor (the
    /// declaration carries memory space and type).
    Alloc {
        /// The tensor being allocated.
        tensor: TensorId,
    },
    /// A counted loop `for (var = 0; var < extent; var += 1)`.
    For {
        /// Loop variable name (becomes an `IntExpr` var bounded by
        /// `extent`).
        var: String,
        /// Trip count.
        extent: i64,
        /// Whether codegen emits `#pragma unroll`.
        unroll: bool,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// A guarded block (predication for partial tiles).
    If {
        /// The guard (taken when `lhs < rhs`).
        cond: Predicate,
        /// Guarded statements.
        then: Vec<Stmt>,
    },
    /// A nested specification.
    Spec(Spec),
    /// A synchronisation barrier.
    Sync(SyncScope),
    /// A free-form comment carried through to generated code.
    Comment(String),
}

/// A decomposition body: an ordered list of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Body {
    /// The statements, in program order.
    pub stmts: Vec<Stmt>,
}

impl Body {
    /// An empty body.
    pub fn new() -> Self {
        Body { stmts: Vec::new() }
    }

    /// Builds a body from statements.
    pub fn from_stmts(stmts: Vec<Stmt>) -> Self {
        Body { stmts }
    }

    /// Visits every statement in the body recursively (pre-order),
    /// including statements nested in loops, guards, and sub-spec bodies.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        fn walk<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
            for s in stmts {
                f(s);
                match s {
                    Stmt::For { body, .. } | Stmt::If { then: body, .. } => walk(body, f),
                    Stmt::Spec(spec) => {
                        if let Some(b) = &spec.body {
                            walk(&b.stmts, f);
                        }
                    }
                    _ => {}
                }
            }
        }
        walk(&self.stmts, f);
    }

    /// Counts statements matching a predicate, recursively.
    pub fn count_stmts(&self, mut pred: impl FnMut(&Stmt) -> bool) -> usize {
        let mut n = 0;
        self.visit(&mut |s| {
            if pred(s) {
                n += 1;
            }
        });
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Spec, SpecKind};

    #[test]
    fn visit_recurses_into_loops_and_specs() {
        let inner = Spec::decomposed(
            SpecKind::Move,
            vec![],
            vec![],
            vec![],
            Body::from_stmts(vec![Stmt::Sync(SyncScope::Warp)]),
        );
        let body = Body::from_stmts(vec![
            Stmt::For { var: "k".into(), extent: 4, unroll: true, body: vec![Stmt::Spec(inner)] },
            Stmt::Sync(SyncScope::Block),
        ]);
        assert_eq!(body.count_stmts(|s| matches!(s, Stmt::Sync(_))), 2);
        assert_eq!(body.count_stmts(|s| matches!(s, Stmt::Spec(_))), 1);
        assert_eq!(body.count_stmts(|s| matches!(s, Stmt::For { .. })), 1);
    }

    #[test]
    fn default_is_empty() {
        assert!(Body::default().stmts.is_empty());
    }
}

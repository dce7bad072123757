//! # graphene-layout
//!
//! The shape-and-layout algebra underlying
//! [Graphene](https://doi.org/10.1145/3582016.3582018) (ASPLOS '23), an IR
//! for optimized tensor computations on GPUs.
//!
//! Graphene tensors are written `name : [dims:strides] . elemtype . memory`
//! where both `dims` and `strides` are *recursive* integer tuples
//! ([`IntTuple`]). This crate implements:
//!
//! - [`IntTuple`] — recursively nested integer tuples (paper §3.1),
//! - [`Layout`] — congruent shape/stride pairs denoting coordinate→memory
//!   maps, including hierarchical dimensions (paper §3.2, Figure 3),
//! - the layout algebra ([`coalesce`], [`composition`], [`complement`],
//!   [`logical_divide`], [`zipped_divide`], [`tiled_divide`],
//!   [`logical_product`], [`blocked_product`]) that tensor tiling
//!   (paper §3.3, Figure 4) desugars to, and
//! - [`Swizzle`] — XOR swizzles for bank-conflict-free shared memory.
//!
//! The algebra follows NVIDIA's CuTe shape algebra, which the paper
//! explicitly builds upon.
//!
//! ## Example: the layouts of Figure 3
//!
//! ```
//! use graphene_layout::{Layout, it};
//!
//! // (a) column-major  [(4,8):(1,4)]
//! let a = Layout::column_major(&[4, 8]);
//! // (b) row-major     [(4,8):(8,1)]
//! let b = Layout::row_major(&[4, 8]);
//! // (c) hierarchical  [(4,(2,4)):(2,(1,8))]
//! let c = Layout::new(it![4, [2, 4]], it![2, [1, 8]]);
//! assert_eq!(a.size(), 32);
//! assert_eq!(b.size(), 32);
//! assert!(c.is_compact());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod algebra;
mod int_tuple;
mod layout;
mod linear;
mod swizzle;

pub use algebra::{
    blocked_product, coalesce, complement, composition, logical_divide, logical_product,
    right_inverse, tiled_divide, with_shape, zipped_divide, LayoutError, Result,
};
pub use int_tuple::IntTuple;
pub use layout::Layout;
pub use linear::{
    prove_banks, rank_f2, solutions_force_equal, solve_f2, synthesize_swizzle, word_columns,
    xor_decompose, xor_vector, AccessSite, BankProof, SolutionSpace,
};
pub use swizzle::Swizzle;

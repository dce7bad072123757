//! Shared schedule-building helpers: fragment register types, staging of
//! global tiles into shared memory, and warp-level reductions.

use graphene_ir::builder::KernelBuilder;
use graphene_ir::spec::SpecKind;
use graphene_ir::tensor::{Elem, TensorId, TensorType};
use graphene_ir::threads::ThreadId;
use graphene_ir::{Arch, BinaryOp, ReduceOp, ScalarType};
use graphene_layout::{it, IntTuple, Layout, Swizzle};
use graphene_sym::IntExpr;

/// The per-thread A fragment of `mma.m16n8k16`: `[2,2].[1,2].fp16.RF`
/// (Table 2) — 8 contiguous fp16 register values.
pub fn frag_a_type() -> TensorType {
    TensorType {
        layout: Layout::new(it![2, 2], it![2, 4]),
        elem: Elem::Tile(Box::new(TensorType {
            layout: Layout::new(it![1, 2], it![0, 1]),
            elem: Elem::Scalar(ScalarType::F16),
            swizzle: Swizzle::identity(),
        })),
        swizzle: Swizzle::identity(),
    }
}

/// The per-thread B fragment of `mma.m16n8k16`: `[2,1].[2,1].fp16.RF` —
/// 4 contiguous fp16 values (also the destination fragment of
/// `ldmatrix.x2.trans`).
pub fn frag_b_type() -> TensorType {
    TensorType {
        layout: Layout::new(it![2, 1], it![2, 0]),
        elem: Elem::Tile(Box::new(TensorType {
            layout: Layout::new(it![2, 1], it![1, 0]),
            elem: Elem::Scalar(ScalarType::F16),
            swizzle: Swizzle::identity(),
        })),
        swizzle: Swizzle::identity(),
    }
}

/// The destination fragment of `ldmatrix.x4.trans`: two adjacent B
/// fragments (`[2,2].[2,1].fp16.RF`, 8 contiguous fp16 values).
pub fn frag_b_pair_type() -> TensorType {
    TensorType {
        layout: Layout::new(it![2, 2], it![2, 4]),
        elem: Elem::Tile(Box::new(TensorType {
            layout: Layout::new(it![2, 1], it![1, 0]),
            elem: Elem::Scalar(ScalarType::F16),
            swizzle: Swizzle::identity(),
        })),
        swizzle: Swizzle::identity(),
    }
}

/// The per-thread C/D accumulator fragment of `mma.m16n8k16`:
/// `[2,1].[1,2].fp32.RF` — 4 contiguous fp32 values.
pub fn frag_c_type() -> TensorType {
    TensorType {
        layout: Layout::new(it![2, 1], it![2, 0]),
        elem: Elem::Tile(Box::new(TensorType {
            layout: Layout::new(it![1, 2], it![0, 1]),
            elem: Elem::Scalar(ScalarType::F32),
            swizzle: Swizzle::identity(),
        })),
        swizzle: Swizzle::identity(),
    }
}

/// An accumulator root holding an `mi × ni` arrangement of C fragments
/// (4 fp32 each).
pub fn acc_root_type(mi: i64, ni: i64) -> TensorType {
    let shape = IntTuple::Tuple(vec![IntTuple::Int(mi), IntTuple::Int(ni)]);
    let stride = IntTuple::Tuple(vec![IntTuple::Int(ni * 4), IntTuple::Int(4)]);
    TensorType {
        layout: Layout::new(shape, stride),
        elem: Elem::Tile(Box::new(frag_c_type())),
        swizzle: Swizzle::identity(),
    }
}

/// A root holding `n` A fragments (8 fp16 each).
pub fn a_frags_type(n: i64) -> TensorType {
    TensorType {
        layout: Layout::strided(n, 8),
        elem: Elem::Tile(Box::new(frag_a_type())),
        swizzle: Swizzle::identity(),
    }
}

/// A root holding `n` B fragments (4 fp16 each).
pub fn b_frags_type(n: i64) -> TensorType {
    TensorType {
        layout: Layout::strided(n, 4),
        elem: Elem::Tile(Box::new(frag_b_type())),
        swizzle: Swizzle::identity(),
    }
}

/// A plain `[n]` register vector type.
pub fn reg_vec(n: i64, st: ScalarType) -> TensorType {
    TensorType::scalar(Layout::contiguous(n), st)
}

/// A scalar register type.
pub fn reg_scalar(st: ScalarType) -> TensorType {
    TensorType::scalar(Layout::contiguous(1), st)
}

/// The canonical bank-conflict-avoiding swizzle for fp16 shared-memory
/// tiles whose rows are a multiple of 64 elements (128 bytes).
pub fn smem_swizzle() -> Swizzle {
    Swizzle::new(3, 3, 3)
}

/// Stages a `rows × cols` fp16 tile of `src` (a 2-D row-major global
/// tensor) starting at `(row0, col0)` into the shared tensor `smem`
/// (shape `[rows, cols]`), using all `threads` block threads with
/// 8-element vectorised moves.
///
/// On Ampere the global→shared move lowers to `cp.async`; on Volta it
/// round-trips through a register (`ld.global.v4.u32` +
/// `st.shared.v4.u32`). With a `row_bound`, each move is predicated on
/// its source row being below it (partial row tiles, paper §3.4); rows
/// past the bound stay unstaged.
///
/// # Panics
///
/// Panics unless `rows*cols` is divisible by `threads`.
#[allow(clippy::too_many_arguments)]
pub fn stage_tile(
    kb: &mut KernelBuilder,
    arch: Arch,
    exec: &[ThreadId],
    threads_ts: ThreadId,
    src: TensorId,
    smem: TensorId,
    row0: IntExpr,
    col0: IntExpr,
    rows: i64,
    cols: i64,
    threads: i64,
    row_bound: Option<&IntExpr>,
) {
    let total = rows * cols;
    assert_eq!(total % threads, 0, "stage_tile: {rows}x{cols} not divisible by {threads} threads");
    let per_thread = total / threads;
    // Widest vectorisation the per-thread share and the row width allow.
    let w = [8i64, 4, 2, 1]
        .into_iter()
        .find(|w| per_thread % w == 0 && cols % w == 0)
        .expect("width 1 always divides");
    let chunks = per_thread / w;
    let tid = kb.module()[threads_ts].hw_var();

    // Views: both sides tiled into [1,w] vectors.
    let src_vec = kb.tile_c(src, &[Some(1), Some(w)]).expect("src vec tile");
    let dst_vec = kb.tile_c(smem, &[Some(1), Some(w)]).expect("smem vec tile");

    for u in 0..chunks {
        let e = (tid.clone() * chunks + u) * w;
        let r = e.clone() / cols;
        let c = e % cols;
        let row = row0.clone() + r.clone();
        guarded(kb, row_bound, &row, |kb| {
            let s = kb.index(src_vec, &[row.clone(), (col0.clone() + c.clone()) / w]);
            let d = kb.index(dst_vec, &[r, c / w]);
            let mut ex = exec.to_vec();
            let ts = kb.thread_scalar(threads_ts);
            ex.push(ts);
            match arch {
                Arch::Sm86 => {
                    kb.spec(SpecKind::Move, ex, vec![s], vec![d]);
                }
                Arch::Sm70 => {
                    // No cp.async on Volta: go through a register.
                    let tmp = kb.alloc_reg(format!("stg{u}"), reg_vec(w, ScalarType::F16));
                    kb.spec(SpecKind::Move, ex.clone(), vec![s], vec![tmp]);
                    kb.spec(SpecKind::Move, ex, vec![tmp], vec![d]);
                }
            }
        });
    }
}

/// Emits `emit` under `if (row < bound)` when a row bound is given, and
/// unguarded otherwise.
pub fn guarded(
    kb: &mut KernelBuilder,
    bound: Option<&IntExpr>,
    row: &IntExpr,
    emit: impl FnOnce(&mut KernelBuilder),
) {
    match bound {
        Some(bound) => kb.if_lt(row.clone(), bound.clone(), emit),
        None => emit(kb),
    }
}

/// Transposed staging: `dst[c][r] = src[row0 + r, col0 + c]` for an
/// `rows × cols` region — vectorised global reads, scalar shared writes.
/// Used where a GEMM operand must be consumed column-major (Volta A
/// fragments, attention `Kᵀ`).
///
/// # Panics
///
/// Panics unless `rows*cols` is divisible by `threads*8`.
#[allow(clippy::too_many_arguments)]
pub fn stage_transposed(
    kb: &mut KernelBuilder,
    exec: &[ThreadId],
    threads_ts: ThreadId,
    src: TensorId,
    dst_view: TensorId,
    row0: IntExpr,
    col0: IntExpr,
    rows: i64,
    cols: i64,
    threads: i64,
) {
    let total = rows * cols;
    assert_eq!(total % (threads * 8), 0, "transposed staging granularity");
    let chunks = total / threads / 8;
    let tid = kb.module()[threads_ts].hw_var();
    let src_vec8 = kb.tile_c(src, &[Some(1), Some(8)]).expect("src vectors");
    for u in 0..chunks {
        let e = (tid.clone() * chunks + u) * 8;
        let r = e.clone() / cols;
        let c = e % cols;
        let s = kb.index(src_vec8, &[row0.clone() + r.clone(), (col0.clone() + c.clone()) / 8]);
        let tmp = kb.alloc_reg(format!("tr{u}"), reg_vec(8, ScalarType::F16));
        let mut ex = exec.to_vec();
        let ts = kb.thread_scalar(threads_ts);
        ex.push(ts);
        kb.spec(SpecKind::Move, ex, vec![s], vec![tmp]);
        for j in 0..8i64 {
            let slot = kb.view_as(tmp, reg_scalar(ScalarType::F16), IntExpr::constant(j));
            let d = kb.index(dst_view, &[c.clone() + j, r.clone()]);
            let mut ex = exec.to_vec();
            let ts = kb.thread_scalar(threads_ts);
            ex.push(ts);
            kb.spec(SpecKind::Move, ex, vec![slot], vec![d]);
        }
    }
}

/// Emits a warp-wide all-reduce of a scalar f32 register using butterfly
/// shuffles (5 `shfl.sync.bfly` + combine steps): afterwards every lane
/// of each warp holds the reduction of its warp's 32 values.
pub fn warp_allreduce(
    kb: &mut KernelBuilder,
    exec: &[ThreadId],
    warp_exec: ThreadId,
    threads_ts: ThreadId,
    val: TensorId,
    op: ReduceOp,
) {
    let tmp = kb.alloc_reg("shfl_tmp", reg_scalar(ScalarType::F32));
    for step in [16u32, 8, 4, 2, 1] {
        let mut ex = exec.to_vec();
        ex.push(warp_exec);
        kb.spec(SpecKind::Shfl { mask: step }, ex, vec![val], vec![tmp]);
        let bop = match op {
            ReduceOp::Sum => BinaryOp::Add,
            ReduceOp::Max => BinaryOp::Max,
        };
        let mut ex = exec.to_vec();
        let ts = kb.thread_scalar(threads_ts);
        ex.push(ts);
        kb.spec(SpecKind::BinaryPointwise(bop), ex, vec![val, tmp], vec![val]);
    }
}

/// The rules of a one-warp-per-row schedule (layernorm, softmax):
/// each of the 32 lanes loads 8-wide vectors of the `(field, width)`
/// row, and blocks hold whole groups of `rows_per_block` rows.
pub(crate) fn check_row_warps(
    kernel: &str,
    (field, width): (&str, i64),
    rows: i64,
    rows_per_block: i64,
) -> Result<(), String> {
    if width % 256 != 0 {
        return Err(format!("{kernel} --{field} must be a multiple of 256, got {width}"));
    }
    if rows % rows_per_block != 0 {
        return Err(format!("{kernel} --rows must be a multiple of {rows_per_block}, got {rows}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_ir::atomic::type_signature;

    #[test]
    fn fragment_types_have_table2_signatures() {
        assert_eq!(type_signature(&frag_a_type()), vec![vec![2, 2], vec![1, 2]]);
        assert_eq!(type_signature(&frag_b_type()), vec![vec![2, 1], vec![2, 1]]);
        assert_eq!(type_signature(&frag_c_type()), vec![vec![2, 1], vec![1, 2]]);
        assert_eq!(frag_a_type().num_scalars(), 8);
        assert_eq!(frag_b_type().num_scalars(), 4);
        assert_eq!(frag_c_type().num_scalars(), 4);
    }

    #[test]
    fn fragments_are_contiguous_registers() {
        use graphene_sim::exec::rel_offsets;
        assert_eq!(rel_offsets(&frag_a_type()), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(rel_offsets(&frag_b_type()), vec![0, 1, 2, 3]);
        assert_eq!(rel_offsets(&frag_c_type()), vec![0, 1, 2, 3]);
    }

    #[test]
    fn acc_root_addresses_fragments() {
        let ty = acc_root_type(4, 8);
        assert_eq!(ty.num_scalars(), 4 * 8 * 4);
        let off = ty.offset_of(&[IntExpr::constant(2), IntExpr::constant(3)]);
        assert_eq!(off.as_const(), Some(2 * 32 + 3 * 4));
    }
}

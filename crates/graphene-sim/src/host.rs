//! Host-side tensors and reference math.
//!
//! These are the correctness oracles the simulator's results are checked
//! against: straightforward sequential implementations of the tensor
//! computations the paper evaluates (GEMM, pointwise epilogues, MLP,
//! LSTM cell, Layernorm, softmax, attention).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense row-major host tensor of `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct HostTensor {
    dims: Vec<usize>,
    data: Vec<f32>,
}

impl HostTensor {
    /// A zero-filled tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        let n = dims.iter().product();
        HostTensor { dims: dims.to_vec(), data: vec![0.0; n] }
    }

    /// A tensor filled with `v`.
    pub fn full(dims: &[usize], v: f32) -> Self {
        let n = dims.iter().product();
        HostTensor { dims: dims.to_vec(), data: vec![v; n] }
    }

    /// Uniform random values in `[-1, 1)` from a seeded RNG
    /// (deterministic across runs).
    pub fn random(dims: &[usize], seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = dims.iter().product();
        HostTensor { dims: dims.to_vec(), data: (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect() }
    }

    /// Builds a tensor from explicit data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the product of `dims`.
    pub fn from_vec(dims: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(dims.iter().product::<usize>(), data.len());
        HostTensor { dims: dims.to_vec(), data }
    }

    /// The dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major flat view.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row-major flat view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The row-major flat data, without a copy.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// 2-D element access.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or indices are out of range.
    pub fn at(&self, i: usize, j: usize) -> f32 {
        assert_eq!(self.dims.len(), 2);
        self.data[i * self.dims[1] + j]
    }

    /// Mutable 2-D element access.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or indices are out of range.
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut f32 {
        assert_eq!(self.dims.len(), 2);
        &mut self.data[i * self.dims[1] + j]
    }

    /// Maximum absolute difference against another tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &HostTensor) -> f32 {
        assert_eq!(self.dims, other.dims, "shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max)
    }

    /// Asserts elementwise closeness with tolerance `tol`.
    ///
    /// # Panics
    ///
    /// Panics when any element differs by more than `tol`.
    pub fn assert_close(&self, other: &HostTensor, tol: f32) {
        let d = self.max_abs_diff(other);
        assert!(d <= tol, "tensors differ by {d} (tol {tol})");
    }
}

/// `C = A × B` for row-major 2-D tensors (`A: [m,k]`, `B: [k,n]`).
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn matmul_ref(a: &HostTensor, b: &HostTensor) -> HostTensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "inner dimensions differ");
    let mut c = HostTensor::zeros(&[m, n]);
    for i in 0..m {
        for p in 0..k {
            let av = a.at(i, p);
            for j in 0..n {
                *c.at_mut(i, j) += av * b.at(p, j);
            }
        }
    }
    c
}

/// Adds a row-broadcast bias: `C[i,j] += bias[j]`.
///
/// # Panics
///
/// Panics if `bias` length differs from `c`'s second dimension.
pub fn bias_add_ref(c: &mut HostTensor, bias: &[f32]) {
    let (m, n) = (c.dims()[0], c.dims()[1]);
    assert_eq!(bias.len(), n);
    for i in 0..m {
        for (j, b) in bias.iter().enumerate() {
            *c.at_mut(i, j) += b;
        }
    }
}

/// Applies ReLU in place.
pub fn relu_ref(c: &mut HostTensor) {
    for v in c.as_mut_slice() {
        *v = v.max(0.0);
    }
}

/// Row-wise softmax of a 2-D tensor.
pub fn softmax_ref(x: &HostTensor) -> HostTensor {
    let (m, n) = (x.dims()[0], x.dims()[1]);
    let mut out = HostTensor::zeros(&[m, n]);
    for i in 0..m {
        let mut mx = f32::NEG_INFINITY;
        for j in 0..n {
            mx = mx.max(x.at(i, j));
        }
        let mut denom = 0.0;
        for j in 0..n {
            denom += (x.at(i, j) - mx).exp();
        }
        for j in 0..n {
            *out.at_mut(i, j) = (x.at(i, j) - mx).exp() / denom;
        }
    }
    out
}

/// Row-wise layernorm with scale `gamma` and shift `beta`.
///
/// # Panics
///
/// Panics if `gamma`/`beta` lengths differ from the row width.
pub fn layernorm_ref(x: &HostTensor, gamma: &[f32], beta: &[f32], eps: f32) -> HostTensor {
    let (m, n) = (x.dims()[0], x.dims()[1]);
    assert_eq!(gamma.len(), n);
    assert_eq!(beta.len(), n);
    let mut out = HostTensor::zeros(&[m, n]);
    for i in 0..m {
        let mean = (0..n).map(|j| x.at(i, j)).sum::<f32>() / n as f32;
        let var = (0..n).map(|j| (x.at(i, j) - mean).powi(2)).sum::<f32>() / n as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for j in 0..n {
            *out.at_mut(i, j) = (x.at(i, j) - mean) * inv * gamma[j] + beta[j];
        }
    }
    out
}

/// The simplified LSTM-cell computation of the paper's Figure 12:
/// `relu(X×Wx + H×Wh + bias)` — two GEMMs, an add, a bias add and an
/// activation (the paper substitutes ReLU for tanh to enable library
/// comparison).
pub fn lstm_cell_ref(
    x: &HostTensor,
    wx: &HostTensor,
    h: &HostTensor,
    wh: &HostTensor,
    bias: &[f32],
) -> HostTensor {
    let mut g1 = matmul_ref(x, wx);
    let g2 = matmul_ref(h, wh);
    for (a, b) in g1.as_mut_slice().iter_mut().zip(g2.as_slice()) {
        *a += b;
    }
    bias_add_ref(&mut g1, bias);
    relu_ref(&mut g1);
    g1
}

/// Single-head scaled-dot-product attention:
/// `softmax(Q×Kᵀ / sqrt(d)) × V` with `Q,K,V: [s, d]`.
pub fn attention_ref(q: &HostTensor, k: &HostTensor, v: &HostTensor) -> HostTensor {
    let (s, d) = (q.dims()[0], q.dims()[1]);
    assert_eq!(k.dims(), &[s, d]);
    assert_eq!(v.dims(), &[s, d]);
    let scale = 1.0 / (d as f32).sqrt();
    let mut scores = HostTensor::zeros(&[s, s]);
    for i in 0..s {
        for j in 0..s {
            let mut acc = 0.0;
            for p in 0..d {
                acc += q.at(i, p) * k.at(j, p);
            }
            *scores.at_mut(i, j) = acc * scale;
        }
    }
    let probs = softmax_ref(&scores);
    matmul_ref(&probs, v)
}

/// Quantizes a value through fp16 precision (used to compare against
/// simulated f16 arithmetic with realistic tolerances).
pub fn to_f16_precision(x: f32) -> f32 {
    // Round-trip through IEEE 754 binary16 by bit manipulation.
    let bits = x.to_bits();
    let sign = (bits >> 16) & 0x8000;
    let mut exp = ((bits >> 23) & 0xff) as i32 - 127 + 15;
    let mut frac = (bits >> 13) & 0x3ff;
    if exp >= 31 {
        exp = 31;
        frac = 0;
    } else if exp <= 0 {
        return if sign != 0 { -0.0 } else { 0.0 };
    }
    let h = sign | ((exp as u32) << 10) | frac;
    // Decode back.
    let s = if h & 0x8000 != 0 { -1.0f32 } else { 1.0 };
    let e = ((h >> 10) & 0x1f) as i32;
    let f = (h & 0x3ff) as f32 / 1024.0;
    if e == 0 {
        s * f * 2.0f32.powi(-14)
    } else if e == 31 {
        if f == 0.0 {
            s * f32::INFINITY
        } else {
            f32::NAN
        }
    } else {
        s * (1.0 + f) * 2.0f32.powi(e - 15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = HostTensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = HostTensor::from_vec(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        let c = matmul_ref(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = HostTensor::random(&[4, 16], 1);
        let s = softmax_ref(&x);
        for i in 0..4 {
            let sum: f32 = (0..16).map(|j| s.at(i, j)).sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn layernorm_normalizes() {
        let x = HostTensor::random(&[3, 64], 2);
        let gamma = vec![1.0; 64];
        let beta = vec![0.0; 64];
        let y = layernorm_ref(&x, &gamma, &beta, 1e-5);
        for i in 0..3 {
            let mean: f32 = (0..64).map(|j| y.at(i, j)).sum::<f32>() / 64.0;
            let var: f32 = (0..64).map(|j| (y.at(i, j) - mean).powi(2)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-5, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn lstm_cell_matches_manual() {
        let x = HostTensor::from_vec(&[1, 2], vec![1.0, -1.0]);
        let wx = HostTensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        let h = HostTensor::from_vec(&[1, 2], vec![0.5, 0.5]);
        let wh = HostTensor::from_vec(&[2, 2], vec![2.0, 0.0, 0.0, 2.0]);
        let bias = vec![0.0, -1.0];
        let out = lstm_cell_ref(&x, &wx, &h, &wh, &bias);
        // g = [1+1, -1+1] + bias = [2, -1] -> relu -> [2, 0]
        assert_eq!(out.as_slice(), &[2.0, 0.0]);
    }

    #[test]
    fn attention_uniform_scores_average_v() {
        // Q·Kᵀ constant => softmax uniform => output = mean of V rows.
        let q = HostTensor::zeros(&[4, 8]);
        let k = HostTensor::random(&[4, 8], 3);
        let v = HostTensor::random(&[4, 8], 4);
        let out = attention_ref(&q, &k, &v);
        for j in 0..8 {
            let mean: f32 = (0..4).map(|i| v.at(i, j)).sum::<f32>() / 4.0;
            assert!((out.at(0, j) - mean).abs() < 1e-5);
        }
    }

    #[test]
    fn f16_precision_roundtrip() {
        assert_eq!(to_f16_precision(1.0), 1.0);
        assert_eq!(to_f16_precision(0.5), 0.5);
        let x = 0.1f32;
        let q = to_f16_precision(x);
        assert!((x - q).abs() < 1e-3);
        assert!(to_f16_precision(1e-30).abs() == 0.0);
        assert!(to_f16_precision(1e30).is_infinite());
    }

    #[test]
    fn random_is_deterministic() {
        let a = HostTensor::random(&[8, 8], 42);
        let b = HostTensor::random(&[8, 8], 42);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "differ by")]
    fn assert_close_fails_on_difference() {
        let a = HostTensor::zeros(&[2, 2]);
        let b = HostTensor::full(&[2, 2], 1.0);
        a.assert_close(&b, 0.5);
    }
}

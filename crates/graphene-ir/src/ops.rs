//! Scalar operation kinds used by pointwise and reduction specs.

use std::fmt;

/// Unary elementwise operations (`UnaryPointwise` specs, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `exp(x)` — used by softmax.
    Exp,
    /// `max(x, 0)` — the ReLU activation.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// The GeLU activation (tanh approximation).
    Gelu,
    /// `-x`.
    Neg,
    /// `1/sqrt(x)` — used by layernorm.
    Rsqrt,
    /// `sqrt(x)`.
    Sqrt,
    /// `1/x`.
    Recip,
    /// Identity (useful for type/space conversion moves).
    Identity,
}

impl UnaryOp {
    /// Applies the operation to an `f64` value (reference semantics for
    /// the simulator).
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            UnaryOp::Exp => x.exp(),
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryOp::Gelu => {
                0.5 * x * (1.0 + (0.7978845608028654 * (x + 0.044715 * x * x * x)).tanh())
            }
            UnaryOp::Neg => -x,
            UnaryOp::Rsqrt => 1.0 / x.sqrt(),
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Recip => 1.0 / x,
            UnaryOp::Identity => x,
        }
    }

    /// Name used in Graphene listings, e.g. `UnaryPW<relu>`.
    pub fn name(self) -> &'static str {
        match self {
            UnaryOp::Exp => "exp",
            UnaryOp::Relu => "relu",
            UnaryOp::Tanh => "tanh",
            UnaryOp::Sigmoid => "sigmoid",
            UnaryOp::Gelu => "gelu",
            UnaryOp::Neg => "neg",
            UnaryOp::Rsqrt => "rsqrt",
            UnaryOp::Sqrt => "sqrt",
            UnaryOp::Recip => "recip",
            UnaryOp::Identity => "id",
        }
    }
}

impl fmt::Display for UnaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Binary elementwise operations (`BinaryPointwise` specs, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
}

impl BinaryOp {
    /// Applies the operation (reference semantics for the simulator).
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::Max => a.max(b),
            BinaryOp::Min => a.min(b),
        }
    }

    /// Name used in Graphene listings, e.g. `BinaryPW<+>`.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Max => "max",
            BinaryOp::Min => "min",
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Reduction operations (`Reduction` specs, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Sum reduction (layernorm means, softmax denominators).
    Sum,
    /// Max reduction (softmax numeric stabilisation).
    Max,
}

impl ReduceOp {
    /// The identity element of the reduction.
    pub fn identity(self) -> f64 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Max => f64::NEG_INFINITY,
        }
    }

    /// Combines two values.
    pub fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
        }
    }

    /// Name used in Graphene listings.
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Max => "max",
        }
    }
}

impl fmt::Display for ReduceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_semantics() {
        assert_eq!(UnaryOp::Relu.apply(-3.0), 0.0);
        assert_eq!(UnaryOp::Relu.apply(2.5), 2.5);
        assert!((UnaryOp::Exp.apply(0.0) - 1.0).abs() < 1e-12);
        assert!((UnaryOp::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert_eq!(UnaryOp::Neg.apply(4.0), -4.0);
        assert!((UnaryOp::Rsqrt.apply(4.0) - 0.5).abs() < 1e-12);
        assert!((UnaryOp::Gelu.apply(0.0)).abs() < 1e-12);
        assert!(UnaryOp::Gelu.apply(3.0) > 2.9);
    }

    #[test]
    fn binary_semantics() {
        assert_eq!(BinaryOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinaryOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(BinaryOp::Div.apply(6.0, 3.0), 2.0);
    }

    #[test]
    fn reduce_identities() {
        assert_eq!(ReduceOp::Sum.identity(), 0.0);
        assert_eq!(ReduceOp::Sum.combine(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Max.combine(2.0, 3.0), 3.0);
        assert!(ReduceOp::Max.identity().is_infinite());
    }

    #[test]
    fn display_names() {
        assert_eq!(UnaryOp::Relu.to_string(), "relu");
        assert_eq!(BinaryOp::Add.to_string(), "+");
        assert_eq!(ReduceOp::Sum.to_string(), "sum");
    }
}

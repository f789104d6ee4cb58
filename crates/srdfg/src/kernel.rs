//! Scalar kernels: the finest-granularity expression trees carried by
//! `Map` and `Reduce` srDFG nodes.
//!
//! A kernel computes one scalar element of a node's result, given the
//! current index-point and the node's operand tensors. Kernels are what the
//! lazy scalar expansion unrolls into scalar-op subgraphs, and what the
//! interpreter evaluates directly.

use crate::value::{Scalar, Tensor, ValueError};
use pmlang::{BinOp, ScalarFunc, UnOp};
use std::fmt;

/// A scalar expression with operand references resolved to slot numbers and
/// index variables resolved to positions in the node's index space.
#[derive(Debug, Clone, PartialEq)]
pub enum KExpr {
    /// A real constant.
    Const(f64),
    /// The value of index variable `#pos` in the node's combined index
    /// space (output-space indices first, then reduction-space indices).
    Idx(usize),
    /// An element of input operand `#slot`, addressed by index expressions.
    /// An empty index list reads a rank-0 operand.
    Operand {
        /// Operand slot in the node's input list.
        slot: usize,
        /// One index expression per operand axis.
        indices: Vec<KExpr>,
    },
    /// A combiner argument (custom reductions only): 0 = accumulator,
    /// 1 = element.
    Arg(usize),
    /// Unary operation.
    Unary(UnOp, Box<KExpr>),
    /// Binary operation. `&&`/`||` short-circuit.
    Binary(BinOp, Box<KExpr>, Box<KExpr>),
    /// `cond ? a : b` — only the taken branch is evaluated.
    Select(Box<KExpr>, Box<KExpr>, Box<KExpr>),
    /// Built-in scalar function call.
    Call(ScalarFunc, Vec<KExpr>),
}

impl KExpr {
    /// Counts the scalar primitive operations one evaluation performs
    /// (used by accelerator cost models). Conditional branches count the
    /// worst case; operand loads do not count as ops.
    pub fn op_count(&self) -> u64 {
        match self {
            KExpr::Const(_) | KExpr::Idx(_) | KExpr::Arg(_) => 0,
            KExpr::Operand { indices, .. } => indices.iter().map(KExpr::op_count).sum(),
            KExpr::Unary(_, e) => 1 + e.op_count(),
            KExpr::Binary(_, a, b) => 1 + a.op_count() + b.op_count(),
            KExpr::Select(c, a, b) => 1 + c.op_count() + a.op_count().max(b.op_count()),
            KExpr::Call(_, args) => 1 + args.iter().map(KExpr::op_count).sum::<u64>(),
        }
    }

    /// Like [`KExpr::op_count`] but excluding operand *index* arithmetic —
    /// the count of ops the kernel's own datapath performs. Address
    /// computation is free on every modelled fabric (it is wiring/AGU
    /// work), and granularity decisions must not be skewed by strides.
    pub fn compute_op_count(&self) -> u64 {
        match self {
            KExpr::Const(_) | KExpr::Idx(_) | KExpr::Arg(_) | KExpr::Operand { .. } => 0,
            KExpr::Unary(_, e) => 1 + e.compute_op_count(),
            KExpr::Binary(_, a, b) => 1 + a.compute_op_count() + b.compute_op_count(),
            KExpr::Select(c, a, b) => {
                1 + c.compute_op_count() + a.compute_op_count().max(b.compute_op_count())
            }
            KExpr::Call(_, args) => 1 + args.iter().map(KExpr::compute_op_count).sum::<u64>(),
        }
    }

    /// True if the kernel applies a transcendental builtin anywhere
    /// (used to route work to nonlinear function units / libm cost).
    pub fn has_nonlinear(&self) -> bool {
        match self {
            KExpr::Call(f, args) => f.is_nonlinear() || args.iter().any(KExpr::has_nonlinear),
            KExpr::Unary(_, e) => e.has_nonlinear(),
            KExpr::Binary(_, a, b) => a.has_nonlinear() || b.has_nonlinear(),
            KExpr::Select(c, a, b) => c.has_nonlinear() || a.has_nonlinear() || b.has_nonlinear(),
            KExpr::Operand { indices, .. } => indices.iter().any(KExpr::has_nonlinear),
            KExpr::Const(_) | KExpr::Idx(_) | KExpr::Arg(_) => false,
        }
    }

    /// The highest operand slot referenced, if any.
    pub fn max_slot(&self) -> Option<usize> {
        match self {
            KExpr::Const(_) | KExpr::Idx(_) | KExpr::Arg(_) => None,
            KExpr::Operand { slot, indices } => indices
                .iter()
                .filter_map(KExpr::max_slot)
                .max()
                .map_or(Some(*slot), |m| Some(m.max(*slot))),
            KExpr::Unary(_, e) => e.max_slot(),
            KExpr::Binary(_, a, b) => a.max_slot().max(b.max_slot()),
            KExpr::Select(c, a, b) => c.max_slot().max(a.max_slot()).max(b.max_slot()),
            KExpr::Call(_, args) => args.iter().filter_map(KExpr::max_slot).max(),
        }
    }

    /// Visits every `Operand` reference in the expression.
    pub fn for_each_operand(&self, f: &mut impl FnMut(usize, &[KExpr])) {
        match self {
            KExpr::Const(_) | KExpr::Idx(_) | KExpr::Arg(_) => {}
            KExpr::Operand { slot, indices } => {
                f(*slot, indices);
                indices.iter().for_each(|ix| ix.for_each_operand(f));
            }
            KExpr::Unary(_, e) => e.for_each_operand(f),
            KExpr::Binary(_, a, b) => {
                a.for_each_operand(f);
                b.for_each_operand(f);
            }
            KExpr::Select(c, a, b) => {
                c.for_each_operand(f);
                a.for_each_operand(f);
                b.for_each_operand(f);
            }
            KExpr::Call(_, args) => args.iter().for_each(|a| a.for_each_operand(f)),
        }
    }

    /// Evaluates the kernel at an index point.
    ///
    /// `indices` supplies the value of each [`KExpr::Idx`]; `operands` the
    /// tensors for [`KExpr::Operand`]; `args` the accumulator/element pair
    /// for combiner kernels (empty otherwise).
    ///
    /// # Errors
    ///
    /// Returns a [`ValueError`] on out-of-bounds operand access or on
    /// operations undefined for complex values.
    pub fn eval(
        &self,
        indices: &[i64],
        operands: &[&Tensor],
        args: &[Scalar],
    ) -> Result<Scalar, ValueError> {
        match self {
            KExpr::Const(v) => Ok(Scalar::Real(*v)),
            KExpr::Idx(pos) => Ok(Scalar::Real(indices[*pos] as f64)),
            KExpr::Arg(i) => Ok(args[*i]),
            KExpr::Operand { slot, indices: ixs } => {
                let mut point = Vec::with_capacity(ixs.len());
                for ix in ixs {
                    point.push(ix.eval(indices, operands, args)?.as_index()?);
                }
                operands[*slot].get(&point)
            }
            KExpr::Unary(op, e) => {
                let v = e.eval(indices, operands, args)?;
                eval_unary(*op, v)
            }
            KExpr::Binary(op, a, b) => {
                // Short-circuit logical operators.
                if *op == BinOp::And {
                    let lhs = a.eval(indices, operands, args)?.as_bool()?;
                    if !lhs {
                        return Ok(Scalar::Real(0.0));
                    }
                    return Ok(Scalar::Real(if b.eval(indices, operands, args)?.as_bool()? {
                        1.0
                    } else {
                        0.0
                    }));
                }
                if *op == BinOp::Or {
                    let lhs = a.eval(indices, operands, args)?.as_bool()?;
                    if lhs {
                        return Ok(Scalar::Real(1.0));
                    }
                    return Ok(Scalar::Real(if b.eval(indices, operands, args)?.as_bool()? {
                        1.0
                    } else {
                        0.0
                    }));
                }
                let lhs = a.eval(indices, operands, args)?;
                let rhs = b.eval(indices, operands, args)?;
                eval_binary(*op, lhs, rhs)
            }
            KExpr::Select(c, a, b) => {
                if c.eval(indices, operands, args)?.as_bool()? {
                    a.eval(indices, operands, args)
                } else {
                    b.eval(indices, operands, args)
                }
            }
            KExpr::Call(f, call_args) => {
                let mut vals = Vec::with_capacity(call_args.len());
                for a in call_args {
                    vals.push(a.eval(indices, operands, args)?);
                }
                eval_call(*f, &vals)
            }
        }
    }

    /// Evaluates an index expression (no operands, integer result).
    ///
    /// # Errors
    ///
    /// Returns a [`ValueError`] if the expression is not real-valued.
    pub fn eval_index(&self, indices: &[i64]) -> Result<i64, ValueError> {
        self.eval(indices, &[], &[])?.as_index()
    }
}

/// Applies a unary operator to a scalar.
pub(crate) fn eval_unary(op: UnOp, v: Scalar) -> Result<Scalar, ValueError> {
    match (op, v) {
        (UnOp::Neg, Scalar::Real(x)) => Ok(Scalar::Real(-x)),
        (UnOp::Neg, Scalar::Complex(re, im)) => Ok(Scalar::Complex(-re, -im)),
        (UnOp::Not, v) => Ok(Scalar::Real(if v.as_bool()? { 0.0 } else { 1.0 })),
    }
}

/// Applies a binary operator with real/complex promotion.
pub fn eval_binary(op: BinOp, lhs: Scalar, rhs: Scalar) -> Result<Scalar, ValueError> {
    use Scalar::*;
    // Promote to complex if either side is complex (arithmetic only).
    let complex = matches!(lhs, Complex(..)) || matches!(rhs, Complex(..));
    if complex {
        let (ar, ai) = as_complex(lhs);
        let (br, bi) = as_complex(rhs);
        return match op {
            BinOp::Add => Ok(Complex(ar + br, ai + bi)),
            BinOp::Sub => Ok(Complex(ar - br, ai - bi)),
            BinOp::Mul => Ok(Complex(ar * br - ai * bi, ar * bi + ai * br)),
            BinOp::Div => {
                let d = br * br + bi * bi;
                Ok(Complex((ar * br + ai * bi) / d, (ai * br - ar * bi) / d))
            }
            BinOp::Eq => Ok(Real(if ar == br && ai == bi { 1.0 } else { 0.0 })),
            BinOp::Ne => Ok(Real(if ar != br || ai != bi { 1.0 } else { 0.0 })),
            other => Err(ValueError::UnsupportedOp(other.symbol())),
        };
    }
    let a = lhs.as_real()?;
    let b = rhs.as_real()?;
    let bool_to_real = |v: bool| Real(if v { 1.0 } else { 0.0 });
    Ok(match op {
        BinOp::Add => Real(a + b),
        BinOp::Sub => Real(a - b),
        BinOp::Mul => Real(a * b),
        BinOp::Div => Real(a / b),
        BinOp::Mod => Real(a.rem_euclid(b)),
        BinOp::Pow => Real(a.powf(b)),
        BinOp::Eq => bool_to_real(a == b),
        BinOp::Ne => bool_to_real(a != b),
        BinOp::Lt => bool_to_real(a < b),
        BinOp::Le => bool_to_real(a <= b),
        BinOp::Gt => bool_to_real(a > b),
        BinOp::Ge => bool_to_real(a >= b),
        BinOp::And => bool_to_real(a != 0.0 && b != 0.0),
        BinOp::Or => bool_to_real(a != 0.0 || b != 0.0),
    })
}

fn as_complex(s: Scalar) -> (f64, f64) {
    match s {
        Scalar::Real(x) => (x, 0.0),
        Scalar::Complex(re, im) => (re, im),
    }
}

/// Applies a built-in scalar function, handling the complex-aware builtins.
pub(crate) fn eval_call(f: ScalarFunc, args: &[Scalar]) -> Result<Scalar, ValueError> {
    match f {
        ScalarFunc::Complex => Ok(Scalar::Complex(args[0].as_real()?, args[1].as_real()?)),
        ScalarFunc::CReal => Ok(Scalar::Real(as_complex(args[0]).0)),
        ScalarFunc::CImag => Ok(Scalar::Real(as_complex(args[0]).1)),
        ScalarFunc::Abs => match args[0] {
            Scalar::Real(x) => Ok(Scalar::Real(x.abs())),
            Scalar::Complex(re, im) => Ok(Scalar::Real((re * re + im * im).sqrt())),
        },
        ScalarFunc::Exp => match args[0] {
            // Complex exponential: used by FFT twiddle factors.
            Scalar::Complex(re, im) => {
                let m = re.exp();
                Ok(Scalar::Complex(m * im.cos(), m * im.sin()))
            }
            Scalar::Real(x) => Ok(Scalar::Real(x.exp())),
        },
        other => {
            let mut reals = Vec::with_capacity(args.len());
            for a in args {
                reals.push(a.as_real()?);
            }
            Ok(Scalar::Real(other.eval_real(&reals)))
        }
    }
}

impl fmt::Display for KExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KExpr::Const(v) => write!(f, "{v}"),
            KExpr::Idx(i) => write!(f, "i{i}"),
            KExpr::Arg(i) => write!(f, "arg{i}"),
            KExpr::Operand { slot, indices } => {
                write!(f, "%{slot}")?;
                for ix in indices {
                    write!(f, "[{ix}]")?;
                }
                Ok(())
            }
            KExpr::Unary(op, e) => write!(f, "({op}{e})"),
            KExpr::Binary(op, a, b) => write!(f, "({a} {op} {b})"),
            KExpr::Select(c, a, b) => write!(f, "({c} ? {a} : {b})"),
            KExpr::Call(func, args) => {
                write!(f, "{func}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmlang::DType;

    fn t(v: Vec<f64>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(DType::Float, vec![n], v).unwrap()
    }

    #[test]
    fn evaluates_arithmetic() {
        // 2 * %0[i0] + 1
        let k = KExpr::Binary(
            BinOp::Add,
            Box::new(KExpr::Binary(
                BinOp::Mul,
                Box::new(KExpr::Const(2.0)),
                Box::new(KExpr::Operand { slot: 0, indices: vec![KExpr::Idx(0)] }),
            )),
            Box::new(KExpr::Const(1.0)),
        );
        let x = t(vec![10.0, 20.0]);
        assert_eq!(k.eval(&[1], &[&x], &[]).unwrap(), Scalar::Real(41.0));
        assert_eq!(k.op_count(), 2);
    }

    #[test]
    fn strided_operand_access() {
        // %0[(i0+1)*2]
        let k = KExpr::Operand {
            slot: 0,
            indices: vec![KExpr::Binary(
                BinOp::Mul,
                Box::new(KExpr::Binary(
                    BinOp::Add,
                    Box::new(KExpr::Idx(0)),
                    Box::new(KExpr::Const(1.0)),
                )),
                Box::new(KExpr::Const(2.0)),
            )],
        };
        let x = t(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(k.eval(&[1], &[&x], &[]).unwrap(), Scalar::Real(4.0));
    }

    #[test]
    fn out_of_bounds_propagates() {
        let k = KExpr::Operand { slot: 0, indices: vec![KExpr::Const(5.0)] };
        let x = t(vec![1.0, 2.0]);
        assert!(matches!(k.eval(&[], &[&x], &[]), Err(ValueError::OutOfBounds { .. })));
    }

    #[test]
    fn select_short_circuits() {
        // cond ? 1 : %0[100]  — the out-of-bounds arm must not be evaluated.
        let k = KExpr::Select(
            Box::new(KExpr::Const(1.0)),
            Box::new(KExpr::Const(1.0)),
            Box::new(KExpr::Operand { slot: 0, indices: vec![KExpr::Const(100.0)] }),
        );
        let x = t(vec![1.0]);
        assert_eq!(k.eval(&[], &[&x], &[]).unwrap(), Scalar::Real(1.0));
    }

    #[test]
    fn logical_short_circuit() {
        // (0 && %0[100]) must not touch the operand.
        let k = KExpr::Binary(
            BinOp::And,
            Box::new(KExpr::Const(0.0)),
            Box::new(KExpr::Operand { slot: 0, indices: vec![KExpr::Const(100.0)] }),
        );
        let x = t(vec![1.0]);
        assert_eq!(k.eval(&[], &[&x], &[]).unwrap(), Scalar::Real(0.0));
        let k = KExpr::Binary(
            BinOp::Or,
            Box::new(KExpr::Const(1.0)),
            Box::new(KExpr::Operand { slot: 0, indices: vec![KExpr::Const(100.0)] }),
        );
        assert_eq!(k.eval(&[], &[&x], &[]).unwrap(), Scalar::Real(1.0));
    }

    #[test]
    fn complex_arithmetic() {
        let a = Scalar::Complex(1.0, 2.0);
        let b = Scalar::Complex(3.0, -1.0);
        // (1+2i)(3-i) = 3 - i + 6i - 2i² = 5 + 5i
        assert_eq!(eval_binary(BinOp::Mul, a, b).unwrap(), Scalar::Complex(5.0, 5.0));
        assert_eq!(eval_binary(BinOp::Add, a, b).unwrap(), Scalar::Complex(4.0, 1.0));
        // Division round-trips multiplication.
        let prod = eval_binary(BinOp::Mul, a, b).unwrap();
        let q = eval_binary(BinOp::Div, prod, b).unwrap();
        match q {
            Scalar::Complex(re, im) => {
                assert!((re - 1.0).abs() < 1e-12 && (im - 2.0).abs() < 1e-12)
            }
            _ => panic!("expected complex"),
        }
    }

    #[test]
    fn complex_comparison_rejected() {
        assert!(eval_binary(BinOp::Lt, Scalar::Complex(1.0, 0.0), Scalar::Real(2.0)).is_err());
    }

    #[test]
    fn complex_builtins() {
        let z = eval_call(ScalarFunc::Complex, &[Scalar::Real(3.0), Scalar::Real(4.0)]).unwrap();
        assert_eq!(z, Scalar::Complex(3.0, 4.0));
        assert_eq!(eval_call(ScalarFunc::CReal, &[z]).unwrap(), Scalar::Real(3.0));
        assert_eq!(eval_call(ScalarFunc::CImag, &[z]).unwrap(), Scalar::Real(4.0));
        assert_eq!(eval_call(ScalarFunc::Abs, &[z]).unwrap(), Scalar::Real(5.0));
    }

    #[test]
    fn complex_exp_is_eulers_formula() {
        let z = Scalar::Complex(0.0, std::f64::consts::PI);
        match eval_call(ScalarFunc::Exp, &[z]).unwrap() {
            Scalar::Complex(re, im) => {
                assert!((re + 1.0).abs() < 1e-12);
                assert!(im.abs() < 1e-12);
            }
            _ => panic!("expected complex"),
        }
    }

    #[test]
    fn mod_is_euclidean() {
        assert_eq!(
            eval_binary(BinOp::Mod, Scalar::Real(-1.0), Scalar::Real(4.0)).unwrap(),
            Scalar::Real(3.0)
        );
    }

    #[test]
    fn max_slot_and_operand_visit() {
        let k = KExpr::Binary(
            BinOp::Add,
            Box::new(KExpr::Operand { slot: 2, indices: vec![] }),
            Box::new(KExpr::Operand { slot: 0, indices: vec![KExpr::Idx(0)] }),
        );
        assert_eq!(k.max_slot(), Some(2));
        let mut seen = Vec::new();
        k.for_each_operand(&mut |slot, _| seen.push(slot));
        assert_eq!(seen, vec![2, 0]);
    }

    #[test]
    fn arg_slots_for_combiners() {
        // acc < elem ? acc : elem (the custom `min` from the paper)
        let k = KExpr::Select(
            Box::new(KExpr::Binary(BinOp::Lt, Box::new(KExpr::Arg(0)), Box::new(KExpr::Arg(1)))),
            Box::new(KExpr::Arg(0)),
            Box::new(KExpr::Arg(1)),
        );
        let v = k.eval(&[], &[], &[Scalar::Real(4.0), Scalar::Real(2.0)]).unwrap();
        assert_eq!(v, Scalar::Real(2.0));
    }

    #[test]
    fn display_is_readable() {
        let k = KExpr::Binary(
            BinOp::Mul,
            Box::new(KExpr::Operand { slot: 0, indices: vec![KExpr::Idx(0), KExpr::Idx(1)] }),
            Box::new(KExpr::Operand { slot: 1, indices: vec![KExpr::Idx(1)] }),
        );
        assert_eq!(k.to_string(), "(%0[i0][i1] * %1[i1])");
    }
}

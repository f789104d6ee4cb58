//! Work classification shared by the general-purpose CPU/GPU models.
//!
//! An analytic processor model needs to know *what kind* of work a program
//! performs, because achieved throughput on a Xeon or a GPU varies by
//! orders of magnitude between cache-blocked dense linear algebra,
//! streaming vector code, and branchy scalar code. This module buckets a
//! compiled partition's operations into those classes (recursing into
//! component sub-graphs).

use pm_lower::{AccProgram, FragmentKind};
use srdfg::{Node, NodeKind, Pattern, SrDfg};

/// Scalar-op totals per work class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkProfile {
    /// Cache-blocked dense kernels (matmul, conv2d): near-peak SIMD.
    pub dense_ops: u64,
    /// Streaming, memory-bound linear algebra (matvec, dot).
    pub streaming_ops: u64,
    /// Elementwise vector maps.
    pub vector_ops: u64,
    /// Generic reductions (conditionals, custom combiners, arg-reductions).
    pub irregular_ops: u64,
    /// Individual scalar operations (fully unrolled dataflow nodes).
    pub scalar_ops: u64,
    /// Transcendental-heavy elementwise work (sin/cos/exp/ln/Φ …), which
    /// general-purpose cores evaluate through slow libm paths.
    pub nonlinear_ops: u64,
    /// Number of distinct operations (≈ kernels / loop nests).
    pub kernels: u64,
    /// Bytes crossing the partition boundary (loads + stores).
    pub boundary_bytes: u64,
    /// Bytes the kernels touch (operand + result tensor volumes), the
    /// memory-roofline input for the CPU/GPU models.
    pub touched_bytes: u64,
}

impl WorkProfile {
    /// Total classified scalar operations.
    pub fn total_ops(&self) -> u64 {
        self.dense_ops
            + self.streaming_ops
            + self.vector_ops
            + self.irregular_ops
            + self.scalar_ops
            + self.nonlinear_ops
    }
}

/// Profiles one compiled partition.
pub fn profile(prog: &AccProgram, graph: &SrDfg) -> WorkProfile {
    let mut p = WorkProfile::default();
    for frag in &prog.fragments {
        match frag.kind {
            FragmentKind::Load | FragmentKind::Store => {
                p.boundary_bytes += frag.bytes();
            }
            FragmentKind::Compute => {
                if let Some(id) = frag.node {
                    classify_node(graph, graph.node(id), &mut p);
                }
            }
        }
    }
    p
}

/// Adds one node's work (recursing into components) to the profile.
pub fn classify_node(graph: &SrDfg, node: &Node, p: &mut WorkProfile) {
    if matches!(node.kind, NodeKind::Map(_) | NodeKind::Reduce(_)) {
        for &e in node.inputs.iter().chain(&node.outputs) {
            p.touched_bytes += graph.edge(e).meta.bytes();
        }
    }
    match &node.kind {
        NodeKind::Component(sub) => {
            for (_, inner) in sub.iter_nodes() {
                classify_node(sub, inner, p);
            }
        }
        NodeKind::Reduce(r) => {
            p.kernels += 1;
            let ops = srdfg::graph::node_op_count(node);
            // Short reduction dimensions defeat SIMD (rank-16 SGD updates
            // and 3-state dynamics run as scalar code on a CPU).
            let short_red = srdfg::graph::space_size(&r.red_space) < 32;
            match node.pattern {
                Some(Pattern::MatMul) | Some(Pattern::Conv2d) => p.dense_ops += ops,
                Some(Pattern::MatVec) | Some(Pattern::Dot) | Some(Pattern::Pool) if !short_red => {
                    p.streaming_ops += ops
                }
                Some(_) => p.irregular_ops += ops,
                None => {
                    // Pure-product unconditioned sums vectorize; compound
                    // bodies, conditionals, custom combiners and
                    // arg-reductions fall back to scalar-ish code.
                    let clean = r.cond.is_none()
                        && !short_red
                        && r.body.compute_op_count() <= 1
                        && matches!(
                            r.op,
                            srdfg::ReduceOp::Builtin(pmlang::BuiltinReduction::Sum)
                                | srdfg::ReduceOp::Builtin(pmlang::BuiltinReduction::Prod)
                                | srdfg::ReduceOp::Builtin(pmlang::BuiltinReduction::Max)
                                | srdfg::ReduceOp::Builtin(pmlang::BuiltinReduction::Min)
                        );
                    if clean {
                        p.streaming_ops += ops;
                    } else {
                        p.irregular_ops += ops;
                    }
                }
            }
        }
        NodeKind::Map(m) => {
            p.kernels += 1;
            if m.kernel.has_nonlinear() {
                p.nonlinear_ops += srdfg::graph::node_op_count(node);
            } else {
                p.vector_ops += srdfg::graph::node_op_count(node);
            }
        }
        NodeKind::Scalar(_) => {
            p.scalar_ops += 1;
        }
        NodeKind::ConstTensor(_)
        | NodeKind::Load
        | NodeKind::Store
        | NodeKind::Unpack
        | NodeKind::Pack => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_lower::{compile_program, AcceleratorSpec, TargetMap};
    use pmlang::Domain;
    use srdfg::Budget;
    use std::sync::Arc;

    fn profile_src(src: &str) -> WorkProfile {
        let prog = pmlang::parse(src).unwrap();
        let g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let host = AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics);
        let targets = TargetMap::host_only(host);
        let compiled = compile_program(Arc::new(g), &targets, &Budget::unlimited()).unwrap();
        profile(&compiled.partitions[0], &compiled.graph)
    }

    #[test]
    fn matmul_is_dense() {
        let p = profile_src(
            "main(input float A[8][8], input float B[8][8], output float C[8][8]) {
                 index i[0:7], j[0:7], k[0:7];
                 C[i][j] = sum[k](A[i][k]*B[k][j]);
             }",
        );
        assert_eq!(p.dense_ops, 1024); // 8³ × (mul+add)
        assert_eq!(p.streaming_ops + p.vector_ops + p.irregular_ops, 0);
        assert_eq!(p.kernels, 1);
    }

    #[test]
    fn matvec_streams() {
        let p = profile_src(
            "main(input float A[64][64], input float x[64], output float y[64]) {
                 index i[0:63], j[0:63];
                 y[i] = sum[j](A[i][j]*x[j]);
             }",
        );
        assert!(p.streaming_ops > 0);
        assert_eq!(p.dense_ops, 0);
    }

    #[test]
    fn short_reductions_are_irregular() {
        // Rank-8 SGD-style dot products defeat SIMD on a CPU.
        let p = profile_src(
            "main(input float A[64][8], input float x[8], output float y[64]) {
                 index i[0:63], j[0:7];
                 y[i] = sum[j](A[i][j]*x[j]);
             }",
        );
        assert!(p.irregular_ops > 0);
        assert_eq!(p.streaming_ops, 0);
    }

    #[test]
    fn transcendental_maps_are_nonlinear() {
        let p = profile_src(
            "main(input float x[64], output float y[64]) {
                 index i[0:63];
                 y[i] = sin(x[i]) * 0.5;
             }",
        );
        assert!(p.nonlinear_ops > 0);
        assert_eq!(p.vector_ops, 0);
    }

    #[test]
    fn conditional_reduce_is_irregular() {
        let p = profile_src(
            "main(input float A[8][8], output float s) {
                 index i[0:7], j[0:7];
                 s = sum[i][j: j != i](A[i][j]);
             }",
        );
        assert!(p.irregular_ops > 0);
    }

    #[test]
    fn maps_are_vector_work_and_components_recurse() {
        let p = profile_src(
            "f(input float x[16], output float y[16]) { index i[0:15]; y[i] = x[i] * 2.0; }
             main(input float a[16], output float b[16]) {
                 index i[0:15];
                 float t[16];
                 f(a, t);
                 b[i] = t[i] + 1.0;
             }",
        );
        assert_eq!(p.vector_ops, 32);
        assert_eq!(p.kernels, 2);
    }
}

//! Analytic model of the baseline CPU — a Xeon E-2176G (6 cores, 3.7 GHz)
//! running the paper's optimized native stacks (ACADO, GraphMat, FFTW3,
//! MLPack/OpenBLAS, TensorFlow; Table V).
//!
//! The model is a per-class throughput / memory roofline: cache-blocked
//! dense kernels approach multi-core SIMD peak, streaming linear algebra is
//! DRAM-bandwidth-bound, elementwise maps vectorize but stream, and
//! branchy/irregular code retires a couple of scalar ops per cycle on one
//! core. Each distinct kernel also pays a fixed dispatch overhead. The
//! achieved-throughput constants are the usual engineering numbers for a
//! 6-core Coffee Lake running well-tuned libraries; EXPERIMENTS.md compares
//! the resulting *ratios* against the paper's figures.

use crate::backend::Backend;
use crate::classify::{profile, WorkProfile};
use crate::model::{HwConfig, PerfEstimate, WorkloadHints};
use pm_lower::{AccProgram, AcceleratorSpec};
use pmlang::Domain;
use srdfg::SrDfg;

/// The Xeon host model.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// Achieved dense-kernel throughput (FLOP/s): AVX2 FMA across 6 cores
    /// at realistic (not peak) efficiency.
    pub dense_flops: f64,
    /// Achieved streaming linear-algebra throughput (bandwidth-bound).
    pub streaming_flops: f64,
    /// Achieved elementwise-map throughput.
    pub vector_flops: f64,
    /// Achieved throughput for conditional/custom reductions.
    pub irregular_flops: f64,
    /// Scalar dataflow-node retirement rate.
    pub scalar_flops: f64,
    /// Transcendental (libm) throughput.
    pub nonlinear_flops: f64,
    /// Sustained DRAM bandwidth (bytes/s).
    pub mem_bandwidth: f64,
    /// Fixed dispatch cost per kernel (seconds).
    pub kernel_overhead_s: f64,
}

impl Default for Cpu {
    fn default() -> Self {
        Cpu {
            dense_flops: 9.0e10,       // 90 GFLOP/s cache-blocked GEMM/conv
            streaming_flops: 1.0e10,   // 10 GFLOP/s BLAS-2 (bandwidth bound)
            vector_flops: 1.4e10,      // 14 GFLOP/s streaming maps
            irregular_flops: 3.0e9,    // 3 Gop/s branchy reductions
            scalar_flops: 1.5e9,       // 1.5 Gop/s pointer-chasing dataflow
            nonlinear_flops: 1.2e9,    // 1.2 Gop/s libm transcendentals
            mem_bandwidth: 3.5e10,     // 35 GB/s dual-channel DDR4
            kernel_overhead_s: 4.0e-8, // 40 ns per loop-nest dispatch
        }
    }
}

impl Cpu {
    /// Seconds for one invocation of a profiled partition.
    pub fn seconds_for(&self, p: &WorkProfile, hints: &WorkloadHints) -> f64 {
        let mut dense = p.dense_ops as f64;
        let mut streaming = p.streaming_ops as f64;
        let mut vector = p.vector_ops as f64;
        let mut irregular = p.irregular_ops as f64;
        // Sparse workloads: the native stack (GraphMat etc.) only touches
        // real edges; rescale the dominant classes by effective/dense.
        if let Some(eff) = hints.effective_ops {
            let total = p.total_ops().max(1) as f64;
            let ratio = eff as f64 / total;
            dense *= ratio;
            streaming *= ratio;
            vector *= ratio;
            irregular *= ratio;
        }
        let mut nonlinear = p.nonlinear_ops as f64;
        if let Some(eff) = hints.effective_ops {
            let total = p.total_ops().max(1) as f64;
            nonlinear *= eff as f64 / total;
        }
        let compute = dense / self.dense_flops
            + streaming / self.streaming_flops
            + vector / self.vector_flops
            + irregular / self.irregular_flops
            + nonlinear / self.nonlinear_flops
            + p.scalar_ops as f64 / self.scalar_flops;
        let bytes = hints.effective_bytes.unwrap_or(p.touched_bytes.max(p.boundary_bytes)) as f64;
        let memory = bytes / self.mem_bandwidth;
        let raw = compute.max(memory) + p.kernels as f64 * self.kernel_overhead_s;
        // Native-stack inefficiency applies to the whole invocation: an
        // interpreted/framework baseline is slow on compute and memory alike.
        raw * hints.native_factor.unwrap_or(1.0)
    }
}

impl Backend for Cpu {
    fn name(&self) -> &'static str {
        "Xeon E-2176G"
    }

    fn domain(&self) -> Domain {
        // The host serves every domain; the nominal value is unused.
        Domain::DataAnalytics
    }

    fn accel_spec(&self) -> AcceleratorSpec {
        AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics)
    }

    fn hw(&self) -> HwConfig {
        HwConfig::xeon()
    }

    fn estimate(&self, prog: &AccProgram, graph: &SrDfg, hints: &WorkloadHints) -> PerfEstimate {
        let p = profile(prog, graph);
        let seconds = self.seconds_for(&p, hints);
        let hw = self.hw();
        PerfEstimate {
            cycles: (seconds * hw.freq_hz) as u64,
            seconds,
            energy_j: seconds * hw.power_w,
            dma_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_lower::{compile_program, TargetMap};
    use srdfg::Budget;
    use std::sync::Arc;

    fn estimate_src(src: &str) -> PerfEstimate {
        let prog = pmlang::parse(src).unwrap();
        let g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let targets = TargetMap::host_only(Cpu::default().accel_spec());
        let compiled = compile_program(Arc::new(g), &targets, &Budget::unlimited()).unwrap();
        Cpu::default().estimate(&compiled.partitions[0], &compiled.graph, &WorkloadHints::default())
    }

    #[test]
    fn dense_work_is_fast_per_op() {
        let dense = estimate_src(
            "main(input float A[32][32], input float B[32][32], output float C[32][32]) {
                 index i[0:31], j[0:31], k[0:31];
                 C[i][j] = sum[k](A[i][k]*B[k][j]);
             }",
        );
        let irregular = estimate_src(
            "main(input float A[64][64], output float s) {
                 index i[0:63], j[0:63];
                 s = sum[i][j: j != i](A[i][j] * A[j][i]);
             }",
        );
        // Similar op counts, very different achieved throughput.
        assert!(irregular.seconds > dense.seconds * 3.0);
    }

    #[test]
    fn memory_roofline_applies() {
        // A trivial copy of a large tensor is bandwidth-bound.
        let est = estimate_src(
            "main(input float x[1000000], output float y[1000000]) {
                 index i[0:999999];
                 y[i] = x[i];
             }",
        );
        // 8 MB at 35 GB/s ≈ 229 µs.
        assert!(est.seconds > 2.0e-4, "{}", est.seconds);
        assert!(est.seconds < 1.0e-3, "{}", est.seconds);
    }

    #[test]
    fn sparse_hint_reduces_time() {
        let src = "main(input float A[64][64], state float d[64], output float o[64]) {
             index u[0:63], v[0:63];
             float c[64];
             c[v] = min[u](d[u] + A[u][v]);
             d[v] = c[v] < d[v] ? c[v] : d[v];
             o[v] = d[v];
         }";
        let prog = pmlang::parse(src).unwrap();
        let g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let targets = TargetMap::host_only(Cpu::default().accel_spec());
        let compiled = compile_program(Arc::new(g), &targets, &Budget::unlimited()).unwrap();
        let cpu = Cpu::default();
        let dense =
            cpu.estimate(&compiled.partitions[0], &compiled.graph, &WorkloadHints::default());
        let sparse = cpu.estimate(
            &compiled.partitions[0],
            &compiled.graph,
            &WorkloadHints {
                effective_ops: Some(200),
                effective_bytes: Some(2048),
                ..Default::default()
            },
        );
        assert!(sparse.seconds < dense.seconds);
    }

    #[test]
    fn energy_tracks_time_at_80w() {
        let est = estimate_src(
            "main(input float x[1024], output float y) {
                 index i[0:1023];
                 y = sum[i](x[i]*x[i]);
             }",
        );
        assert!((est.energy_j / est.seconds - 80.0).abs() < 1e-9);
    }
}

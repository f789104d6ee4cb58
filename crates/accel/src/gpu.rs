//! Analytic models of the baseline GPUs — Titan Xp (3840 CUDA cores,
//! 1.5 GHz, 250 W) and Jetson AGX Xavier (512 cores, 1.3 GHz, 30 W) —
//! running the paper's native GPU stacks (cuBLAS, Enterprise, cuFFT,
//! NVBLAS, TensorFlow; Table V).
//!
//! The model combines a per-class throughput roofline with two effects
//! that drive the paper's results: **kernel-launch overhead** (dominant
//! for the small control/analytics kernels, which is why MobileRobot or
//! ElecUse underutilize a Titan Xp) and an **occupancy ramp** — a kernel
//! only approaches peak throughput when it exposes far more parallel work
//! than the GPU has lanes.

use crate::backend::Backend;
use crate::classify::{profile, WorkProfile};
use crate::model::{HwConfig, PerfEstimate, WorkloadHints};
use pm_lower::{AccProgram, AcceleratorSpec};
use pmlang::Domain;
use srdfg::SrDfg;

/// An analytic GPU model.
#[derive(Debug, Clone)]
pub struct Gpu {
    /// Hardware identity (clock, power).
    pub hw: HwConfig,
    /// Peak dense throughput (FLOP/s).
    pub peak_dense_flops: f64,
    /// Peak streaming/vector throughput (bandwidth-bound FLOP/s).
    pub peak_streaming_flops: f64,
    /// Throughput on irregular/divergent reductions.
    pub irregular_flops: f64,
    /// Scalar (serialized dataflow) throughput.
    pub scalar_flops: f64,
    /// DRAM bandwidth in bytes/s.
    pub mem_bandwidth: f64,
    /// Kernel-launch + driver overhead per kernel, seconds.
    pub launch_overhead_s: f64,
    /// Parallel work (scalar ops per kernel) needed to reach half of peak.
    pub occupancy_knee: f64,
}

impl Gpu {
    /// The Titan Xp discrete GPU.
    pub fn titan_xp() -> Self {
        Gpu {
            hw: HwConfig::titan_xp(),
            peak_dense_flops: 1.05e13,    // ~10.5 TFLOP/s fp32
            peak_streaming_flops: 1.3e11, // bound by 547 GB/s
            irregular_flops: 2.0e10,
            scalar_flops: 1.0e9,
            mem_bandwidth: 5.47e11,
            launch_overhead_s: 8.0e-6,
            occupancy_knee: 2.0e6,
        }
    }

    /// The Jetson AGX Xavier embedded GPU.
    pub fn jetson_xavier() -> Self {
        Gpu {
            hw: HwConfig::jetson_xavier(),
            peak_dense_flops: 1.3e12,     // ~1.3 TFLOP/s fp32
            peak_streaming_flops: 3.0e10, // bound by 137 GB/s
            irregular_flops: 6.0e9,
            scalar_flops: 4.0e8,
            mem_bandwidth: 1.37e11,
            launch_overhead_s: 1.2e-5,
            occupancy_knee: 2.5e5,
        }
    }

    /// Occupancy factor in (0, 1]: fraction of peak achieved for a kernel
    /// exposing `work` parallel scalar ops.
    fn occupancy(&self, work: f64) -> f64 {
        (work / (work + self.occupancy_knee)).max(1.0e-4)
    }

    /// Seconds for one invocation of a profiled partition.
    pub fn seconds_for(&self, p: &WorkProfile, hints: &WorkloadHints) -> f64 {
        let mut dense = p.dense_ops as f64;
        // GPU special-function units evaluate transcendentals at vector
        // rate, so they fold into the streaming class.
        let mut streaming = p.streaming_ops as f64 + p.vector_ops as f64 + p.nonlinear_ops as f64;
        let mut irregular = p.irregular_ops as f64;
        if let Some(eff) = hints.effective_ops {
            let total = p.total_ops().max(1) as f64;
            let ratio = eff as f64 / total;
            dense *= ratio;
            streaming *= ratio;
            irregular *= ratio;
        }
        let kernels = p.kernels.max(1) as f64;
        // The native stack fuses `batch` logical invocations per launch:
        // more parallel work per kernel (occupancy) and amortized launches.
        let batch = hints.gpu_batch.unwrap_or(1).max(1) as f64;
        let per_kernel_work = (dense + streaming + irregular) / kernels * batch;
        let occ = self.occupancy(per_kernel_work);
        let compute = dense / (self.peak_dense_flops * occ)
            + streaming / (self.peak_streaming_flops * occ)
            + irregular / (self.irregular_flops * occ)
            + p.scalar_ops as f64 / self.scalar_flops;
        let bytes = hints.effective_bytes.unwrap_or(p.touched_bytes.max(p.boundary_bytes)) as f64;
        let memory = bytes / self.mem_bandwidth;
        compute.max(memory) + kernels * self.launch_overhead_s / batch
    }
}

impl Backend for Gpu {
    fn name(&self) -> &'static str {
        if self.hw.name.contains("Titan") {
            "Titan Xp"
        } else {
            "Jetson Xavier"
        }
    }

    fn domain(&self) -> Domain {
        Domain::DeepLearning
    }

    fn accel_spec(&self) -> AcceleratorSpec {
        AcceleratorSpec::general_purpose(self.hw.name, Domain::DeepLearning)
    }

    fn hw(&self) -> HwConfig {
        self.hw.clone()
    }

    fn estimate(&self, prog: &AccProgram, graph: &SrDfg, hints: &WorkloadHints) -> PerfEstimate {
        let p = profile(prog, graph);
        let seconds = self.seconds_for(&p, hints);
        PerfEstimate {
            cycles: (seconds * self.hw.freq_hz) as u64,
            seconds,
            energy_j: seconds * self.hw.power_w,
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

    fn estimates(src: &str) -> (PerfEstimate, PerfEstimate, PerfEstimate) {
        let prog = pmlang::parse(src).unwrap();
        let g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let targets = TargetMap::host_only(crate::cpu::Cpu::default().accel_spec());
        let compiled = compile_program(Arc::new(g), &targets, &Budget::unlimited()).unwrap();
        let part = &compiled.partitions[0];
        let h = WorkloadHints::default();
        (
            crate::cpu::Cpu::default().estimate(part, &compiled.graph, &h),
            Gpu::titan_xp().estimate(part, &compiled.graph, &h),
            Gpu::jetson_xavier().estimate(part, &compiled.graph, &h),
        )
    }

    #[test]
    fn titan_wins_big_dense_kernels() {
        let (cpu, titan, _) = estimates(
            "main(input float A[256][256], input float B[256][256], output float C[256][256]) {
                 index i[0:255], j[0:255], k[0:255];
                 C[i][j] = sum[k](A[i][k]*B[k][j]);
             }",
        );
        assert!(titan.seconds < cpu.seconds, "titan {} vs cpu {}", titan.seconds, cpu.seconds);
    }

    #[test]
    fn launch_overhead_hurts_tiny_kernels() {
        let (cpu, titan, _) = estimates(
            "main(input float x[16], output float y[16]) {
                 index i[0:15];
                 y[i] = x[i] * 2.0 + 1.0;
             }",
        );
        // A 16-element kernel is dominated by the 8 µs launch; the CPU
        // finishes in nanoseconds.
        assert!(titan.seconds > cpu.seconds * 10.0);
    }

    #[test]
    fn jetson_slower_but_lower_energy_than_titan_on_small_kernels() {
        let (_, titan, jetson) = estimates(
            "main(input float x[4096], output float y) {
                 index i[0:4095];
                 y = sum[i](x[i]*x[i]);
             }",
        );
        // Small kernel: both launch-bound; Jetson burns far less power.
        assert!(jetson.energy_j < titan.energy_j);
    }

    #[test]
    fn batching_amortizes_launches_and_raises_occupancy() {
        let prog = pmlang::parse(
            "main(input float blk[8][8], param float ck[8][8], output float out[8][8]) {
                 index u[0:7], v[0:7], x[0:7], y[0:7];
                 out[u][v] = sum[x][y](blk[x][y]*ck[u][x]*ck[v][y]);
             }",
        )
        .unwrap();
        let g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let targets = TargetMap::host_only(crate::cpu::Cpu::default().accel_spec());
        let compiled = compile_program(Arc::new(g), &targets, &Budget::unlimited()).unwrap();
        let part = &compiled.partitions[0];
        let gpu = Gpu::titan_xp();
        let unbatched = gpu.estimate(part, &compiled.graph, &WorkloadHints::default());
        let batched = gpu.estimate(
            part,
            &compiled.graph,
            &WorkloadHints { gpu_batch: Some(16384), ..Default::default() },
        );
        // A whole-image launch is orders of magnitude cheaper per block.
        assert!(
            batched.seconds * 100.0 < unbatched.seconds,
            "batched {} vs {}",
            batched.seconds,
            unbatched.seconds
        );
    }

    #[test]
    fn occupancy_ramp_is_monotone() {
        let g = Gpu::titan_xp();
        assert!(g.occupancy(1e3) < g.occupancy(1e6));
        assert!(g.occupancy(1e9) > 0.99);
    }
}

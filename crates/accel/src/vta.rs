//! TVM-VTA — the Versatile Tensor Accelerator (Moreau et al., IEEE Micro
//! 2019; the paper's Deep Learning target).
//!
//! VTA is a layer-granularity DNN accelerator: a decoupled
//! load / compute / store pipeline around a 16×16 GEMM core and a vector
//! ALU, driven by a CISC-style instruction stream. PolyMath lowers DL
//! graphs only to *layer* granularity — `conv2d`, `matmul`, pooling,
//! activation maps — and "offers direct conversion of srDFG to the TVM
//! nodes" (paper §V.B.1). VTA is deliberately a *low-power edge* design,
//! which is why the paper reports it **slower** than a Xeon or Titan Xp on
//! ResNet/MobileNet while still winning on energy.

use crate::backend::Backend;
use crate::model::{HwConfig, PerfEstimate, WorkloadHints};
use pm_lower::{AccProgram, AcceleratorSpec, FragmentKind};
use pmlang::Domain;
use srdfg::{NodeKind, SrDfg};

/// The VTA backend (FPGA bitstream on the KCU1500, 150 MHz).
#[derive(Debug, Clone)]
pub struct Vta {
    /// GEMM core dimensions (`gemm_rows × gemm_cols` MACs per cycle).
    pub gemm_rows: usize,
    /// GEMM core columns.
    pub gemm_cols: usize,
    /// Vector-ALU lanes.
    pub alu_lanes: usize,
    /// Bytes the load/store modules move per cycle.
    pub io_bytes_per_cycle: u64,
    /// Fixed per-layer instruction overhead, in cycles.
    pub layer_overhead: u64,
    /// Achieved fraction of peak on well-shaped layers (load/compute
    /// imbalance, tile edges, dependency stalls — VTA publications report
    /// roughly half of peak sustained).
    pub efficiency: f64,
}

impl Default for Vta {
    fn default() -> Self {
        Vta {
            gemm_rows: 16,
            gemm_cols: 16,
            alu_lanes: 16,
            io_bytes_per_cycle: 16,
            layer_overhead: 256,
            efficiency: 0.45,
        }
    }
}

impl Vta {
    /// Peak MACs per cycle.
    pub fn macs_per_cycle(&self) -> u64 {
        (self.gemm_rows * self.gemm_cols) as u64
    }

    /// GEMM-core utilization for a reduction layer: the reduction feeds
    /// the MAC rows channel-by-channel and the output channels fill the
    /// columns, so small channel counts leave the array idle (e.g. a
    /// 3-input-channel first conv layer fills 3 of 16 rows).
    pub fn gemm_utilization(&self, out_channels: u64, in_channels: u64) -> f64 {
        let row_fill = (in_channels as f64 / self.gemm_rows as f64).min(1.0);
        let col_fill = (out_channels as f64 / self.gemm_cols as f64).min(1.0);
        (row_fill * col_fill).max(1.0 / self.macs_per_cycle() as f64)
    }

    fn fragment_cycles(&self, frag: &pm_lower::Fragment, graph: &SrDfg) -> u64 {
        let Some(id) = frag.node else { return 0 };
        let node = graph.node(id);
        match &node.kind {
            NodeKind::Reduce(r) => {
                let out = srdfg::graph::space_size(&r.out_space) as u64;
                let red = srdfg::graph::space_size(&r.red_space) as u64;
                match node.name.as_str() {
                    "conv2d" | "matmul" | "matvec" | "dot" => {
                        let macs = out * red;
                        // The leading axes carry the channel dimensions:
                        // out_space[0] = output channels / rows,
                        // red_space[0] = input channels / reduce dim.
                        let oc = r.out_space.first().map_or(out, |a| a.size() as u64);
                        let ic = r.red_space.first().map_or(red, |a| a.size() as u64);
                        let util = self.gemm_utilization(oc, ic) * self.efficiency;
                        ((macs as f64) / (self.macs_per_cycle() as f64 * util)).ceil() as u64
                    }
                    // Pooling and other reductions run on the vector ALU.
                    _ => (out * red).div_ceil(self.alu_lanes as u64),
                }
            }
            NodeKind::Map(m) => {
                let points = srdfg::graph::space_size(&m.out_space) as u64;
                (points * m.kernel.compute_op_count().max(1)).div_ceil(self.alu_lanes as u64)
            }
            _ => 0,
        }
    }
}

impl Backend for Vta {
    fn name(&self) -> &'static str {
        "TVM-VTA"
    }

    fn domain(&self) -> Domain {
        Domain::DeepLearning
    }

    fn accel_spec(&self) -> AcceleratorSpec {
        AcceleratorSpec::new(
            "TVM-VTA",
            Domain::DeepLearning,
            [
                // Layer granularity (coarse DNN layers, paper §V.A.3).
                "conv2d",
                "matmul",
                "matvec",
                "dot",
                "pool",
                "sum",
                "max",
                "min",
                "argmax",
                "argmin",
                // Vector-ALU maps (activation, scale/shift, residual add).
                "map",
                "map.add",
                "map.sub",
                "map.mul",
                "map.relu",
                "map.max2",
                "map.min2",
                "map.copy",
                "map.fill",
                "map.select",
                "map.sigmoid",
                "map.tanh",
                "map.exp",
                "map.div",
                "map.cmp.<",
                "map.cmp.>",
            ],
        )
    }

    fn hw(&self) -> HwConfig {
        HwConfig::kcu1500("TVM-VTA")
    }

    fn estimate(&self, prog: &AccProgram, graph: &SrDfg, _hints: &WorkloadHints) -> PerfEstimate {
        let mut compute = 0u64;
        let mut layers = 0u64;
        for frag in prog.fragments.iter().filter(|f| f.kind == FragmentKind::Compute) {
            compute += self.fragment_cycles(frag, graph);
            layers += 1;
        }
        // Load/store modules are decoupled but tile traffic still bounds
        // the pipeline when compute is thin.
        let io_cycles = prog.dma_bytes().div_ceil(self.io_bytes_per_cycle);
        let cycles = compute.max(io_cycles) + layers * self.layer_overhead;
        let mut est = PerfEstimate::from_cycles(cycles, &self.hw());
        est.dma_bytes = prog.dma_bytes();
        est
    }

    // PolyMath converts srDFGs directly to TVM nodes, so the compiled
    // schedule *is* the hand-optimized one (paper §V.B.1: "PolyMath does
    // not contribute any overhead specifically for deep learning
    // acceleration"); the default expert estimate (= compiled) applies.
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_lower::{compile_program, lower, TargetMap};
    use srdfg::Budget;
    use std::sync::Arc;

    /// A conv → relu → dense micro-CNN.
    fn micro_cnn(channels: usize, size: usize) -> (SrDfg, TargetMap) {
        let o = size - 2; // valid 3×3 conv
        let src = format!(
            "main(input float img[{ch}][{s}][{s}],
                  param float w[{ch}][{ch}][3][3],
                  param float fc[10][{ch}],
                  output float logits[10]) {{
                 index oc[0:{chm}], ic[0:{chm}], i[0:{om}], j[0:{om}],
                       kh[0:2], kw[0:2], t[0:9], c2[0:{chm}];
                 float conv[{ch}][{o}][{o}], act[{ch}][{o}][{o}], pooled[{ch}];
                 conv[oc][i][j] = sum[ic][kh][kw](w[oc][ic][kh][kw]*img[ic][i+kh][j+kw]);
                 act[oc][i][j] = relu(conv[oc][i][j]);
                 pooled[oc] = max[i][j](act[oc][i][j]);
                 logits[t] = sum[c2](fc[t][c2]*pooled[c2]);
             }}",
            ch = channels,
            chm = channels - 1,
            s = size,
            o = o,
            om = o - 1,
        );
        let prog = pmlang::parse(&src).unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        g.domain = Some(Domain::DeepLearning);
        let vta = Vta::default();
        let host = AcceleratorSpec::general_purpose("CPU", Domain::DeepLearning);
        let mut targets = TargetMap::host_only(host);
        targets.set(vta.accel_spec());
        lower(&mut g, &targets, None, &Budget::unlimited()).unwrap();
        (g, targets)
    }

    #[test]
    fn cnn_stays_at_layer_granularity() {
        let (g, targets) = micro_cnn(8, 8);
        let compiled = compile_program(Arc::new(g), &targets, &Budget::unlimited()).unwrap();
        let part = compiled.partition(Some(Domain::DeepLearning)).unwrap();
        let ops: Vec<_> = part
            .fragments
            .iter()
            .filter(|f| f.kind == FragmentKind::Compute)
            .map(|f| f.op.clone())
            .collect();
        assert!(ops.iter().any(|o| o == "conv2d"), "{ops:?}");
        assert!(ops.iter().any(|o| o == "map.relu"), "{ops:?}");
        assert!(ops.iter().any(|o| o == "matvec"), "{ops:?}");
        assert!(!ops.iter().any(|o| o == "unpack"), "{ops:?}");
    }

    #[test]
    fn small_channel_convs_underutilize_gemm() {
        let vta = Vta::default();
        // 3 input channels fill 3/16 rows; 16 channels fill the array.
        let low = vta.gemm_utilization(64, 3);
        let high = vta.gemm_utilization(64, 16);
        assert!(low < high);
        assert_eq!(high, 1.0);
    }

    #[test]
    fn bigger_images_take_longer() {
        let vta = Vta::default();
        let mut last = 0u64;
        for s in [6, 10, 18] {
            let (g, targets) = micro_cnn(8, s);
            let compiled = compile_program(Arc::new(g), &targets, &Budget::unlimited()).unwrap();
            let part = compiled.partition(Some(Domain::DeepLearning)).unwrap();
            let est = vta.estimate(part, &compiled.graph, &WorkloadHints::default());
            assert!(est.cycles > last, "s={s}");
            last = est.cycles;
        }
    }

    #[test]
    fn functional_equivalence_of_lowered_cnn() {
        use std::collections::HashMap;
        let (g, _) = micro_cnn(4, 6);
        // Execute the lowered layer-granularity graph and compare with the
        // unlowered original.
        let prog_src_graph = g.clone();
        let mut rng = 0u64;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((rng >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut t = |shape: Vec<usize>| {
            let n: usize = shape.iter().product();
            srdfg::Tensor::from_vec(pmlang::DType::Float, shape, (0..n).map(|_| next()).collect())
                .unwrap()
        };
        let feeds = HashMap::from([
            ("img".to_string(), t(vec![4, 6, 6])),
            ("w".to_string(), t(vec![4, 4, 3, 3])),
            ("fc".to_string(), t(vec![10, 4])),
        ]);
        let out = srdfg::Machine::new(prog_src_graph).invoke(&feeds).unwrap();
        assert_eq!(out["logits"].shape(), &[10]);
        // Logits are finite and non-degenerate.
        let logits = out["logits"].as_real_slice().unwrap();
        assert!(logits.iter().all(|v| v.is_finite()));
        assert!(logits.iter().any(|v| v.abs() > 1e-9));
    }
}

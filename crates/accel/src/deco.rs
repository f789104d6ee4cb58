//! DECO — a DSP-block based FPGA accelerator overlay (Jain et al., FCCM
//! 2016; the paper's DSP-domain target).
//!
//! DECO composes the FPGA's hard DSP48 blocks into a low-overhead overlay:
//! each block executes a (pipelined) multiply-accumulate per cycle, and the
//! kernel's dataflow graph is mapped stage-by-stage onto the block array.
//! DECO "requires specific topologies for their graph-based IR, i.e.
//! balanced DFGs, because they rely on stage-based computation" (paper
//! §V.B.1) — which is exactly what the srDFG's balanced adder-tree
//! expansion provides.
//!
//! The scheduler here fuses `mul → add` pairs into single DSP ops (the
//! block's hard MAC path), levels the remaining graph, and pipelines
//! stages: after the fill latency, each stage streams one wave per cycle.

use crate::backend::Backend;
use crate::model::{HwConfig, PerfEstimate, WorkloadHints};
use pm_lower::{AccProgram, AcceleratorSpec, FragmentKind};
use pmlang::{BinOp, Domain};
use srdfg::{Modifier, NodeId, NodeKind, ScalarKind, SrDfg};
use std::collections::{HashMap, HashSet};

/// The DECO backend (FPGA overlay on the KCU1500, 150 MHz).
#[derive(Debug, Clone)]
pub struct Deco {
    /// Available DSP blocks in the overlay.
    pub dsp_blocks: usize,
    /// Bytes streamed in/out per cycle.
    pub stream_bytes_per_cycle: u64,
}

impl Default for Deco {
    fn default() -> Self {
        Deco { dsp_blocks: 256, stream_bytes_per_cycle: 64 }
    }
}

/// A stage-mapped schedule.
#[derive(Debug, Clone, Default)]
pub struct DecoSchedule {
    /// Effective DSP operations per pipeline stage (after MAC fusion).
    pub stage_ops: Vec<usize>,
    /// Number of `mul→add` pairs fused into single DSP MACs.
    pub fused_macs: usize,
    /// Bytes streamed per invocation.
    pub streamed_bytes: u64,
}

impl DecoSchedule {
    /// Cycles on `blocks` DSP blocks: stages issue `ceil(ops/blocks)`
    /// waves; the pipeline adds one fill cycle per stage.
    pub fn cycles(&self, blocks: usize) -> u64 {
        let mut cycles = self.stage_ops.len() as u64; // pipeline fill
        for &ops in &self.stage_ops {
            cycles += ops.div_ceil(blocks) as u64;
        }
        cycles.max(1)
    }
}

impl Deco {
    /// Builds the stage schedule with MAC fusion.
    pub fn schedule(&self, prog: &AccProgram, graph: &SrDfg) -> DecoSchedule {
        let mine: HashMap<NodeId, &ScalarKind> = prog
            .fragments
            .iter()
            .filter(|f| f.kind == FragmentKind::Compute)
            .filter_map(|f| f.node)
            .filter_map(|id| match &graph.node(id).kind {
                NodeKind::Scalar(k) => Some((id, k.get())),
                _ => None,
            })
            .collect();

        // MAC fusion: a mul whose single consumer is an add absorbs into
        // that add's DSP block (DSP48 computes a·b + c, so each add can
        // host at most one multiplier).
        let mut fused: HashSet<NodeId> = HashSet::new();
        let mut host_add_taken: HashSet<NodeId> = HashSet::new();
        let mut mul_ids: Vec<NodeId> = mine
            .iter()
            .filter(|(_, k)| matches!(k, ScalarKind::Bin(BinOp::Mul)))
            .map(|(&id, _)| id)
            .collect();
        mul_ids.sort();
        for id in mul_ids {
            let node = graph.node(id);
            let out = node.outputs[0];
            let consumers = &graph.edge(out).consumers;
            if consumers.len() == 1 {
                let (c, _) = consumers[0];
                if matches!(mine.get(&c), Some(ScalarKind::Bin(BinOp::Add)))
                    && host_add_taken.insert(c)
                {
                    fused.insert(id);
                }
            }
        }

        // Level the unfused ops (a fused mul inherits its add's level).
        let mut level: HashMap<NodeId, usize> = HashMap::new();
        let mut sched = DecoSchedule { fused_macs: fused.len(), ..Default::default() };
        for id in graph.topo_order() {
            if !mine.contains_key(&id) {
                continue;
            }
            let node = graph.node(id);
            let mut l = 0usize;
            for &e in &node.inputs {
                if let Some((p, _)) = graph.edge(e).producer {
                    if mine.contains_key(&p) {
                        // A fused producer shares our stage.
                        let bump = usize::from(!fused.contains(&p));
                        l = l.max(level[&p] + bump);
                    }
                }
            }
            level.insert(id, l);
            if fused.contains(&id) {
                continue; // accounted within its consumer's MAC
            }
            if sched.stage_ops.len() <= l {
                sched.stage_ops.resize(l + 1, 0);
            }
            sched.stage_ops[l] += 1;
        }

        for frag in &prog.fragments {
            if frag.kind == FragmentKind::Compute {
                continue;
            }
            for a in frag.inputs.iter().chain(&frag.outputs) {
                if matches!(a.modifier(), Modifier::Input | Modifier::Output | Modifier::Temp) {
                    let per = if a.dtype() == pmlang::DType::Complex { 8 } else { 4 };
                    sched.streamed_bytes += a.shape().iter().product::<usize>() as u64 * per;
                }
            }
        }
        sched
    }
}

impl Backend for Deco {
    fn name(&self) -> &'static str {
        "DECO"
    }

    fn domain(&self) -> Domain {
        Domain::Dsp
    }

    fn accel_spec(&self) -> AcceleratorSpec {
        AcceleratorSpec::new(
            "DECO",
            Domain::Dsp,
            [
                // DSP-block primitive ops (single-op granularity, paper §V.A.3).
                // `mod`/`floor` are index-manipulation ops the overlay's
                // address generators provide (butterfly indexing).
                "add", "sub", "mul", "div", "mod", "floor", "neg", "select", "const", "cmp.==",
                "cmp.!=", "cmp.<", "cmp.<=", "cmp.>", "cmp.>=",
                // CORDIC-style units for transcendental factors.
                "sin", "cos", "sqrt", "abs", "complex", "creal", "cimag", "min2", "max2",
                // Marshalling.
                "unpack", "pack",
            ],
        )
    }

    fn hw(&self) -> HwConfig {
        HwConfig::kcu1500("DECO")
    }

    fn estimate(&self, prog: &AccProgram, graph: &SrDfg, hints: &WorkloadHints) -> PerfEstimate {
        let sched = self.schedule(prog, graph);
        let mut compute_cycles = sched.cycles(self.dsp_blocks);
        compute_cycles =
            ((compute_cycles as f64) * hints.effective_scale(prog.compute_ops())).ceil() as u64;
        let stream_cycles = sched.streamed_bytes.div_ceil(self.stream_bytes_per_cycle);
        // Small per-invocation control cost: back-to-back kernels stream
        // through the pipelined overlay, so fill is amortized.
        let cycles = compute_cycles.max(stream_cycles) + 8;
        let mut est = PerfEstimate::from_cycles(cycles, &self.hw());
        est.dma_bytes = prog.dma_bytes();
        est
    }

    fn estimate_expert(
        &self,
        prog: &AccProgram,
        graph: &SrDfg,
        hints: &WorkloadHints,
    ) -> PerfEstimate {
        // An expert DECO mapping keeps every DSP block busy each cycle:
        // total fused work over the block count plus pipeline depth.
        let sched = self.schedule(prog, graph);
        let total: u64 = sched.stage_ops.iter().map(|&o| o as u64).sum();
        let mut compute = total.div_ceil(self.dsp_blocks as u64) + sched.stage_ops.len() as u64;
        compute = ((compute as f64) * hints.effective_scale(prog.compute_ops())).ceil() as u64;
        let stream = sched.streamed_bytes.div_ceil(self.stream_bytes_per_cycle);
        let mut est = PerfEstimate::from_cycles(compute.max(stream).max(1), &self.hw());
        est.dma_bytes = prog.dma_bytes();
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_lower::{compile_program, lower, TargetMap};
    use srdfg::Budget;
    use std::sync::Arc;

    /// A small dot-product-with-scale DSP kernel (complex-free so every op
    /// maps onto DSP blocks).
    fn fir(taps: usize) -> (SrDfg, TargetMap) {
        let src = format!(
            "main(input float x[{n}], param float h[{n}], output float y) {{
                 index i[0:{m}];
                 y = sum[i](h[i]*x[i]);
             }}",
            n = taps,
            m = taps - 1
        );
        let prog = pmlang::parse(&src).unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        g.domain = Some(Domain::Dsp);
        let deco = Deco::default();
        let host = AcceleratorSpec::general_purpose("CPU", Domain::Dsp);
        let mut targets = TargetMap::host_only(host);
        targets.set(deco.accel_spec());
        lower(&mut g, &targets, None, &Budget::unlimited()).unwrap();
        pm_passes::Pass::run(&pm_passes::ElideMarshalling, &mut g);
        (g, targets)
    }

    #[test]
    fn fuses_macs_in_dot_product() {
        let (g, targets) = fir(64);
        let compiled = compile_program(Arc::new(g), &targets, &Budget::unlimited()).unwrap();
        let part = compiled.partition(Some(Domain::Dsp)).unwrap();
        let sched = Deco::default().schedule(part, &compiled.graph);
        // Every mul feeds exactly one adder-tree add — but only the 32
        // first-level adds have mul operands; those muls all fuse.
        assert!(sched.fused_macs >= 32, "fused {}", sched.fused_macs);
        // Balanced adder tree: log2(64) stages.
        assert!(sched.stage_ops.len() >= 6, "stages {}", sched.stage_ops.len());
    }

    #[test]
    fn pipeline_cycles_scale_with_taps() {
        let deco = Deco::default();
        let mut last = 0u64;
        for taps in [64, 512, 2048] {
            let (g, targets) = fir(taps);
            let compiled = compile_program(Arc::new(g), &targets, &Budget::unlimited()).unwrap();
            let part = compiled.partition(Some(Domain::Dsp)).unwrap();
            let est = deco.estimate(part, &compiled.graph, &WorkloadHints::default());
            assert!(est.cycles > last, "taps={taps}");
            last = est.cycles;
        }
    }

    #[test]
    fn params_do_not_stream() {
        let (g, targets) = fir(64);
        let compiled = compile_program(Arc::new(g), &targets, &Budget::unlimited()).unwrap();
        let part = compiled.partition(Some(Domain::Dsp)).unwrap();
        let sched = Deco::default().schedule(part, &compiled.graph);
        // Streams x (256B) and y (4B) but not the 256B of taps.
        assert!(sched.streamed_bytes <= 300, "streamed {}", sched.streamed_bytes);
    }
}

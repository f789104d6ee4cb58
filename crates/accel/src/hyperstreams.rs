//! HyperStreams — a streaming FPGA pipeline library (Morris & Aubury,
//! FPL 2007: "Design space exploration of the European option benchmark
//! using HyperStreams"; the paper's Black-Scholes target, Table V).
//!
//! HyperStreams composes deeply pipelined floating-point operator chains:
//! a dataflow expression is unrolled into one hardware operator per scalar
//! op and data streams through at one element per cycle once the pipeline
//! fills. Unlike TABLA's PE grid (which time-multiplexes ALUs), a
//! HyperStreams pipeline is *spatially* unrolled — throughput is bound by
//! the stream rate, not the op count, as long as the operator chain fits
//! the fabric.
//!
//! This is the second Data Analytics target: the paper runs OptionPricing
//! with logistic regression on TABLA and Black-Scholes on HyperStreams
//! simultaneously. PolyMath assigns it via a per-component target
//! override (`TargetMap::set_override`).

use crate::backend::Backend;
use crate::model::{HwConfig, PerfEstimate, WorkloadHints};
use pm_lower::{AccProgram, AcceleratorSpec, FragmentKind};
use pmlang::Domain;
use srdfg::{Modifier, NodeKind, SrDfg};

/// The HyperStreams backend (FPGA pipeline on the KCU1500, 150 MHz).
#[derive(Debug, Clone)]
pub struct HyperStreams {
    /// Operator budget: scalar ops the fabric can spatially instantiate.
    pub max_operators: usize,
    /// Elements each pipeline consumes per cycle at steady state.
    pub elements_per_cycle: f64,
    /// Bytes streamed per cycle by the memory interface.
    pub stream_bytes_per_cycle: u64,
}

impl Default for HyperStreams {
    fn default() -> Self {
        HyperStreams { max_operators: 4096, elements_per_cycle: 1.0, stream_bytes_per_cycle: 64 }
    }
}

/// A pipeline plan: how many parallel element-pipelines fit and how many
/// elements each invocation streams.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelinePlan {
    /// Scalar operators per element (the pipeline's depth in ops).
    pub ops_per_element: u64,
    /// Elements processed per invocation.
    pub elements: u64,
    /// Parallel pipeline copies the operator budget allows.
    pub copies: u64,
    /// Bytes streamed per invocation.
    pub streamed_bytes: u64,
}

impl HyperStreams {
    /// Derives the pipeline plan for a partition: per-element op count
    /// from the widest map over the element space, replicated until the
    /// operator budget is spent.
    pub fn plan(&self, prog: &AccProgram, graph: &SrDfg) -> PipelinePlan {
        let mut plan = PipelinePlan::default();
        let mut total_ops = 0u64;
        // At this target's granularity the partition is a scalar fabric;
        // the element count comes from the streamed tensor shapes (one
        // pipeline traversal per element).
        let mut elements = 0u64;
        for frag in prog.fragments.iter().filter(|f| f.kind == FragmentKind::Compute) {
            total_ops += frag.ops;
            let Some(id) = frag.node else { continue };
            let node = graph.node(id);
            match &node.kind {
                NodeKind::Map(m) => {
                    elements = elements.max(srdfg::graph::space_size(&m.out_space) as u64);
                }
                NodeKind::Reduce(r) => {
                    elements = elements.max(srdfg::graph::space_size(&r.out_space) as u64);
                }
                _ => {}
            }
        }
        for frag in &prog.fragments {
            if frag.kind == FragmentKind::Compute {
                continue;
            }
            for a in frag.inputs.iter().chain(&frag.outputs) {
                // Resident `param`/`state` tensors are not streamed and do
                // not define the element space.
                if matches!(a.modifier(), Modifier::Input | Modifier::Output | Modifier::Temp) {
                    let volume = a.shape().iter().product::<usize>() as u64;
                    elements = elements.max(volume);
                    let per = if a.dtype() == pmlang::DType::Complex { 8 } else { 4 };
                    plan.streamed_bytes += volume * per;
                }
            }
        }
        plan.elements = elements.max(1);
        plan.ops_per_element = (total_ops / plan.elements).max(1);
        plan.copies = (self.max_operators as u64 / plan.ops_per_element).clamp(1, 16);
        plan
    }
}

impl Backend for HyperStreams {
    fn name(&self) -> &'static str {
        "HyperStreams"
    }

    fn domain(&self) -> Domain {
        Domain::DataAnalytics
    }

    fn accel_spec(&self) -> AcceleratorSpec {
        #[rustfmt::skip]
        let ops = [
            // Spatially unrolled scalar FP operators.
            "add", "sub", "mul", "div", "neg", "select", "const",
            "cmp.==", "cmp.!=", "cmp.<", "cmp.<=", "cmp.>", "cmp.>=",
            // Pipelined transcendental operator cores.
            "ln", "exp", "sqrt", "phi", "erf", "sigmoid", "abs", "pow", "min2", "max2", "floor",
            // Marshalling.
            "unpack", "pack",
        ];
        AcceleratorSpec::new("HyperStreams", Domain::DataAnalytics, ops)
    }

    fn hw(&self) -> HwConfig {
        HwConfig::kcu1500("HyperStreams")
    }

    fn estimate(&self, prog: &AccProgram, graph: &SrDfg, hints: &WorkloadHints) -> PerfEstimate {
        let plan = self.plan(prog, graph);
        // Steady-state throughput: `copies` elements per cycle once the
        // pipeline fills; fill depth amortizes across the stream.
        let mut compute =
            ((plan.elements as f64) / (self.elements_per_cycle * plan.copies as f64)).ceil() as u64;
        compute = ((compute as f64) * hints.effective_scale(prog.compute_ops())).ceil() as u64;
        let stream = plan.streamed_bytes.div_ceil(self.stream_bytes_per_cycle);
        let cycles = compute.max(stream) + plan.ops_per_element + 8; // fill + control
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
        // A hand-tuned HyperStreams design balances its pipeline stages
        // perfectly (the FPL paper's point) — no control epilogue.
        let plan = self.plan(prog, graph);
        let mut compute =
            ((plan.elements as f64) / (self.elements_per_cycle * plan.copies as f64)).ceil() as u64;
        compute = ((compute as f64) * hints.effective_scale(prog.compute_ops())).ceil() as u64;
        let stream = plan.streamed_bytes.div_ceil(self.stream_bytes_per_cycle);
        let mut est = PerfEstimate::from_cycles(
            compute.max(stream).max(1) + plan.ops_per_element,
            &self.hw(),
        );
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

    fn compiled_blks(options: usize) -> (pm_lower::CompiledProgram, HyperStreams) {
        let src = pm_workloads::programs::black_scholes(options);
        let (prog, _) = pmlang::frontend(&src).unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let hs = HyperStreams::default();
        let host = AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics);
        let mut targets = TargetMap::host_only(host);
        targets.set(hs.accel_spec());
        lower(&mut g, &targets, None, &Budget::unlimited()).unwrap();
        pm_passes::Pass::run(&pm_passes::ElideMarshalling, &mut g);
        (compile_program(Arc::new(g), &targets, &Budget::unlimited()).unwrap(), hs)
    }

    #[test]
    fn black_scholes_lowers_onto_the_pipeline() {
        let (compiled, hs) = compiled_blks(64);
        let part = compiled.partition_by_target("HyperStreams").unwrap();
        let plan = hs.plan(part, &compiled.graph);
        assert_eq!(plan.elements, 64);
        assert!(plan.ops_per_element >= 10, "{plan:?}");
        assert!(plan.copies >= 1);
    }

    #[test]
    fn throughput_is_stream_not_op_bound() {
        // Doubling options roughly doubles cycles (per-element pipeline),
        // rather than scaling with op count × elements.
        let hs = HyperStreams::default();
        let (c1, _) = compiled_blks(128);
        let (c2, _) = compiled_blks(256);
        let h = WorkloadHints::default();
        let e1 = hs.estimate(c1.partition_by_target("HyperStreams").unwrap(), &c1.graph, &h);
        let e2 = hs.estimate(c2.partition_by_target("HyperStreams").unwrap(), &c2.graph, &h);
        let ratio = e2.cycles as f64 / e1.cycles as f64;
        assert!(ratio > 1.2 && ratio < 2.8, "ratio {ratio}");
    }

    #[test]
    fn expert_is_never_slower() {
        let (compiled, hs) = compiled_blks(128);
        let part = compiled.partition_by_target("HyperStreams").unwrap();
        let h = WorkloadHints::default();
        let normal = hs.estimate(part, &compiled.graph, &h);
        let expert = hs.estimate_expert(part, &compiled.graph, &h);
        assert!(expert.cycles <= normal.cycles);
    }
}

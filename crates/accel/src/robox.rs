//! RoboX — an end-to-end programmable accelerator for autonomous-control
//! (MPC) workloads (Sacks et al., ISCA 2018; the paper's Robotics target).
//!
//! RoboX's hierarchy "begins at the System level, followed by finer
//! grained Task computations all the way down to varying operation
//! granularities in its macro dataflow graph, such as Vector, Scalar, and
//! Group operations" (paper §IV.C). PolyMath therefore lowers RBT kernels
//! to *group/vector* granularity: matrix-vector products, vector
//! elementwise ops, and nonlinear evaluations stay whole, and this backend
//! schedules them onto vector lanes plus a nonlinear function unit.

use crate::backend::Backend;
use crate::model::{HwConfig, PerfEstimate, WorkloadHints};
use pm_lower::{AccProgram, AcceleratorSpec, FragmentKind};
use pmlang::Domain;
use srdfg::{NodeKind, SrDfg};

/// The RoboX backend (ASIC, 1 GHz).
#[derive(Debug, Clone)]
pub struct Robox {
    /// MAC/ALU vector lanes.
    pub lanes: usize,
    /// Parallel nonlinear (CORDIC/LUT) units.
    pub nonlinear_units: usize,
}

impl Default for Robox {
    fn default() -> Self {
        Robox { lanes: 16, nonlinear_units: 8 }
    }
}

impl Robox {
    /// Cycles for one fragment on the vector datapath.
    fn fragment_cycles(&self, frag: &pm_lower::Fragment, graph: &SrDfg) -> u64 {
        let Some(id) = frag.node else { return 0 };
        let node = graph.node(id);
        match &node.kind {
            NodeKind::Reduce(r) => {
                // MACs across lanes plus a log-depth lane-combine.
                let points = (srdfg::graph::space_size(&r.out_space)
                    * srdfg::graph::space_size(&r.red_space)) as u64;
                let per_elem = r.body.compute_op_count().max(1);
                let mac_cycles = (points * per_elem).div_ceil(self.lanes as u64);
                let combine = (self.lanes as f64).log2().ceil() as u64;
                mac_cycles + combine
            }
            NodeKind::Map(m) => {
                let points = srdfg::graph::space_size(&m.out_space) as u64;
                let ops = m.kernel.compute_op_count().max(1);
                // Nonlinear kernels go through the slower function units.
                let nonlinear = m.kernel.has_nonlinear();
                if nonlinear {
                    // Pipelined CORDIC/LUT units evaluate one
                    // transcendental per cycle each.
                    (points * ops).div_ceil(self.nonlinear_units as u64)
                } else {
                    (points * ops).div_ceil(self.lanes as u64)
                }
            }
            NodeKind::Scalar(_) => 1,
            _ => 0,
        }
    }
}

impl Backend for Robox {
    fn name(&self) -> &'static str {
        "RoboX"
    }

    fn domain(&self) -> Domain {
        Domain::Robotics
    }

    fn accel_spec(&self) -> AcceleratorSpec {
        AcceleratorSpec::new(
            "RoboX",
            Domain::Robotics,
            [
                // Group operations of the macro dataflow graph.
                "matvec",
                "matmul",
                "dot",
                "sum",
                "prod",
                "max",
                "min",
                "argmax",
                "argmin",
                // Vector operations (elementwise maps, incl. compound ones).
                "map",
                "map.add",
                "map.sub",
                "map.mul",
                "map.div",
                "map.neg",
                "map.select",
                "map.copy",
                "map.fill",
                "map.cmp.<",
                "map.cmp.<=",
                "map.cmp.>",
                "map.cmp.>=",
                "map.cmp.==",
                "map.cmp.!=",
                "map.min2",
                "map.max2",
                "map.abs",
                // Nonlinear vector evaluations for dynamics models.
                "map.sin",
                "map.cos",
                "map.tan",
                "map.sqrt",
                "map.exp",
                "map.pow",
                // Scalar glue.
                "add",
                "sub",
                "mul",
                "div",
                "select",
                "const",
            ],
        )
    }

    fn hw(&self) -> HwConfig {
        HwConfig::robox()
    }

    fn estimate(&self, prog: &AccProgram, graph: &SrDfg, hints: &WorkloadHints) -> PerfEstimate {
        let mut cycles = 0u64;
        for frag in prog.fragments.iter().filter(|f| f.kind == FragmentKind::Compute) {
            cycles += self.fragment_cycles(frag, graph);
        }
        cycles = ((cycles as f64) * hints.effective_scale(prog.compute_ops())).ceil() as u64;
        let cycles = cycles + 64; // task dispatch overhead
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
        // RoboX's native stack exploits its task-level data semantics
        // (penalties, constraints, time-varying references — which PMLang's
        // generic modifiers cannot express, paper §V.B.1): no per-task
        // dispatch and ~20% tighter schedules from macro-DFG fusion.
        let compiled = self.estimate(prog, graph, hints);
        let cycles = ((compiled.cycles.saturating_sub(64)) as f64 * 0.8).ceil() as u64;
        let mut est = PerfEstimate::from_cycles(cycles.max(1), &self.hw());
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

    /// The paper's MobileRobot MPC structure at small scale.
    fn mpc(horizon: usize) -> (SrDfg, TargetMap) {
        let c = 3 * horizon; // predicted states
        let b = 2 * horizon; // control sequence
        let src = format!(
            "main(input float pos[3], state float ctrl_mdl[{b}],
                  param float P[{c}][3], param float H[{c}][{b}],
                  param float pos_ref[{c}], param float HQ_g[{b}][{c}],
                  param float R_g[{b}][{b}], output float ctrl_sgnl[2]) {{
                 index i[0:2], j[0:{bm}], k[0:{cm}], s[0:1];
                 float pred[{c}], err[{c}], pg[{b}], hg[{b}], g[{b}];
                 pred[k] = sum[i](P[k][i]*pos[i]);
                 pred[k] = pred[k] + sum[j](H[k][j]*ctrl_mdl[j]);
                 err[k] = pos_ref[k] - pred[k];
                 pg[j] = sum[k](HQ_g[j][k]*err[k]);
                 hg[j] = sum[k: k < {b}](R_g[j][k]*ctrl_mdl[k]);
                 g[j] = pg[j] + hg[j];
                 ctrl_mdl[j] = ctrl_mdl[j] - 0.01 * g[j];
                 ctrl_sgnl[s] = ctrl_mdl[s];
             }}",
            b = b,
            c = c,
            bm = b - 1,
            cm = c - 1,
        );
        let prog = pmlang::parse(&src).unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        g.domain = Some(Domain::Robotics);
        let rb = Robox::default();
        let host = AcceleratorSpec::general_purpose("CPU", Domain::Robotics);
        let mut targets = TargetMap::host_only(host);
        targets.set(rb.accel_spec());
        lower(&mut g, &targets, None, &Budget::unlimited()).unwrap();
        (g, targets)
    }

    #[test]
    fn mpc_lowers_to_group_granularity() {
        let (g, targets) = mpc(8);
        let compiled = compile_program(Arc::new(g), &targets, &Budget::unlimited()).unwrap();
        let part = compiled.partition(Some(Domain::Robotics)).unwrap();
        // Matrix-vector products must stay whole (no scalar explosion).
        assert!(
            part.fragments.iter().any(|f| f.op == "matvec" || f.op == "sum"),
            "ops: {:?}",
            part.fragments.iter().map(|f| f.op.clone()).collect::<Vec<_>>()
        );
        assert!(part.fragments.iter().all(|f| f.op != "unpack"));
    }

    #[test]
    fn longer_horizons_cost_more() {
        let rb = Robox::default();
        let mut last = 0u64;
        for h in [4, 16, 64] {
            let (g, targets) = mpc(h);
            let compiled = compile_program(Arc::new(g), &targets, &Budget::unlimited()).unwrap();
            let part = compiled.partition(Some(Domain::Robotics)).unwrap();
            let est = rb.estimate(part, &compiled.graph, &WorkloadHints::default());
            assert!(est.cycles > last, "h={h}");
            last = est.cycles;
        }
    }

    #[test]
    fn more_lanes_help_dense_kernels() {
        let (g, targets) = mpc(32);
        let compiled = compile_program(Arc::new(g), &targets, &Budget::unlimited()).unwrap();
        let part = compiled.partition(Some(Domain::Robotics)).unwrap();
        let narrow = Robox { lanes: 4, ..Default::default() };
        let wide = Robox { lanes: 32, ..Default::default() };
        let h = WorkloadHints::default();
        assert!(
            wide.estimate(part, &compiled.graph, &h).cycles
                < narrow.estimate(part, &compiled.graph, &h).cycles
        );
    }
}

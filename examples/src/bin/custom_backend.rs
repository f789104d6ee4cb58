//! Bringing your own accelerator: the srDFG-as-a-hook story (paper §VI)
//! as a complete, runnable example. A toy systolic dot-product engine is
//! defined against the `Backend` trait in ~50 lines, attached to the SoC,
//! and an unchanged PMLang program retargets to it by swapping one spec.
//!
//! ```text
//! cargo run -p pm-examples --bin custom_backend
//! ```

use pm_accel::{Backend, HwConfig, PerfEstimate, Soc, Tabla, WorkloadHints};
use pm_lower::{AccProgram, AcceleratorSpec, FragmentKind};
use pmlang::Domain;
use polymath::Compiler;
use srdfg::{Bindings, SrDfg};
use std::collections::HashMap;

/// A toy weight-stationary systolic array: `lanes` MACs drain one dot
/// product per `ceil(len/lanes)` cycles; reductions arrive *unrefined*
/// because the spec accepts them at reduce granularity.
struct SystolicDot {
    lanes: u64,
}

impl Backend for SystolicDot {
    fn name(&self) -> &'static str {
        "SystolicDot"
    }

    fn domain(&self) -> Domain {
        Domain::DataAnalytics
    }

    fn accel_spec(&self) -> AcceleratorSpec {
        // The op names accepted here ARE the lowering contract: `sum`,
        // `dot`, and `matvec` keep reductions coarse; everything else is
        // refined away or left to the host.
        AcceleratorSpec::new(
            "SystolicDot",
            Domain::DataAnalytics,
            ["sum", "dot", "matvec", "map.mul", "map.add", "unpack", "pack"],
        )
    }

    fn hw(&self) -> HwConfig {
        HwConfig { name: "SystolicDot", freq_hz: 500.0e6, power_w: 2.0 }
    }

    // Must be pure in (self, prog, graph, hints): the SoC prices each
    // partition once and reuses the estimate on every later invocation.
    fn estimate(&self, prog: &AccProgram, graph: &SrDfg, _: &WorkloadHints) -> PerfEstimate {
        let mut cycles = 0u64;
        for frag in prog.fragments.iter().filter(|f| f.kind == FragmentKind::Compute) {
            let node = frag.node.map(|id| graph.node(id));
            let reduce_len = node
                .and_then(|n| match &n.kind {
                    srdfg::NodeKind::Reduce(r) => {
                        Some(srdfg::graph::space_size(&r.red_space) as u64)
                    }
                    _ => None,
                })
                .unwrap_or(frag.ops.max(1));
            // One column drained per ceil(len/lanes) cycles + fill.
            cycles += reduce_len.div_ceil(self.lanes) + self.lanes;
        }
        let mut est = PerfEstimate::from_cycles(cycles.max(1), &self.hw());
        est.dma_bytes = prog.dma_bytes();
        est
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let src = "scorer(input float x[4096], param float w[4096], output float y) {
        index i[0:4095];
        y = sum[i](w[i]*x[i]);
    }
    main(input float x[4096], param float w[4096], output float yy) {
        DA: scorer(x, w, yy);
    }";

    let custom = SystolicDot { lanes: 64 };
    let hints = HashMap::new();

    println!("one PMLang program, three DA backends:");
    println!("  {:<14} {:>10} {:>12} {:>12}", "target", "fragments", "seconds", "energy");

    // Default DA target (TABLA, scalar granularity) ...
    let compiled = Compiler::cross_domain().compile(src, &Bindings::default())?;
    let mut soc = Soc::new();
    soc.attach(Tabla::default());
    let report = soc.run(&compiled, &hints)?;
    let part = compiled.partition_by_target("TABLA").expect("TABLA partition");
    println!(
        "  {:<14} {:>10} {:>11.3e}s {:>11.3e}J",
        "TABLA",
        part.fragments.len(),
        report.total.seconds,
        report.total.energy_j
    );

    // ... vs the custom backend: swap one spec, nothing else changes.
    let compiled = Compiler::cross_domain()
        .with_target_override("scorer", custom.accel_spec())
        .compile(src, &Bindings::default())?;
    let mut soc = Soc::new();
    soc.attach(SystolicDot { lanes: 64 });
    let report = soc.run(&compiled, &hints)?;
    let part = compiled.partition_by_target("SystolicDot").expect("SystolicDot partition");
    println!(
        "  {:<14} {:>10} {:>11.3e}s {:>11.3e}J",
        "SystolicDot",
        part.fragments.len(),
        report.total.seconds,
        report.total.energy_j
    );

    // The coarse spec kept the whole reduction as ONE fragment; TABLA's
    // scalar spec exploded it into thousands. Same source, both correct —
    // granularity is the target's choice, not the programmer's.
    assert!(part.fragments.len() < 10, "reduction should stay coarse");

    // The host is a backend too (everything unannotated).
    let host = Compiler::host_only().compile(src, &Bindings::default())?;
    let report = Soc::new().run(&host, &hints)?;
    println!(
        "  {:<14} {:>10} {:>11.3e}s {:>11.3e}J",
        "CPU (host)",
        host.partitions[0].fragments.len(),
        report.total.seconds,
        report.total.energy_j
    );

    println!("\nlane sweep (SystolicDot, dot-4096):");
    for lanes in [8u64, 16, 32, 64, 128, 256] {
        let engine = SystolicDot { lanes };
        let est = engine.estimate(part, &compiled.graph, &WorkloadHints::default());
        println!("  {lanes:>4} lanes: {:>6} cycles", est.cycles);
    }
    Ok(())
}

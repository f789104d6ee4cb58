//! Criterion benchmarks of the accelerator simulators: scheduling and
//! estimation throughput per backend, plus the ablation comparisons the
//! design calls out (marshalling elision, algebraic combination).

use criterion::{criterion_group, criterion_main, Criterion};
use pm_accel::{Backend, Deco, Graphicionado, Robox, Tabla, Vta, WorkloadHints};
use pm_lower::{compile_program, lower, CompiledProgram, TargetMap};
use pm_passes::Pass;
use pm_workloads::programs;
use pmlang::Domain;
use srdfg::{Bindings, Budget, TemplateCache};
use std::hint::black_box;
use std::sync::Arc;

fn compiled_for(backend: &dyn Backend, src: &str, elide: bool) -> CompiledProgram {
    pm_bench::figures::compile_single_target(backend, src, elide)
}

fn bench_backend_estimates(c: &mut Criterion) {
    let hints = WorkloadHints::default();
    let mut g = c.benchmark_group("estimate");
    g.sample_size(20);

    let tabla = Tabla::default();
    let lr = compiled_for(&tabla, &programs::logistic(1024), true);
    g.bench_function("tabla/lr-1024", |b| {
        let part = lr.partition(Some(Domain::DataAnalytics)).unwrap();
        b.iter(|| tabla.estimate(black_box(part), &lr.graph, &hints))
    });

    let deco = Deco::default();
    let fft = compiled_for(&deco, &programs::fft(1024), true);
    g.bench_function("deco/fft-1024", |b| {
        let part = fft.partition(Some(Domain::Dsp)).unwrap();
        b.iter(|| deco.estimate(black_box(part), &fft.graph, &hints))
    });

    let gacc = Graphicionado::default();
    let bfs = compiled_for(&gacc, &programs::bfs(256), false);
    g.bench_function("graphicionado/bfs-256", |b| {
        let part = bfs.partition(Some(Domain::GraphAnalytics)).unwrap();
        b.iter(|| gacc.estimate(black_box(part), &bfs.graph, &hints))
    });

    let robox = Robox::default();
    let mpc = compiled_for(&robox, &programs::mobile_robot(64), false);
    g.bench_function("robox/mpc-64", |b| {
        let part = mpc.partition(Some(Domain::Robotics)).unwrap();
        b.iter(|| robox.estimate(black_box(part), &mpc.graph, &hints))
    });

    let vta = Vta::default();
    let cnn = compiled_for(&vta, &programs::resnet18(32), false);
    g.bench_function("vta/resnet18-32", |b| {
        let part = cnn.partition(Some(Domain::DeepLearning)).unwrap();
        b.iter(|| vta.estimate(black_box(part), &cnn.graph, &hints))
    });
    g.finish();
}

/// Ablation: how much the marshalling-elision pass tightens the TABLA
/// schedule (the elided fabric chains muls into adder trees directly).
fn bench_ablation_elision(c: &mut Criterion) {
    let tabla = Tabla::default();
    let hints = WorkloadHints::default();
    let with = compiled_for(&tabla, &programs::logistic(1024), true);
    let without = compiled_for(&tabla, &programs::logistic(1024), false);
    let cw = tabla
        .estimate(with.partition(Some(Domain::DataAnalytics)).unwrap(), &with.graph, &hints)
        .cycles;
    let cwo = tabla
        .estimate(without.partition(Some(Domain::DataAnalytics)).unwrap(), &without.graph, &hints)
        .cycles;
    println!("[ablation] marshalling elision: {cwo} -> {cw} TABLA cycles");
    assert!(cw <= cwo);

    // Keep a measurable benchmark too: the pass's own runtime.
    let (prog, _) = pmlang::frontend(&programs::logistic(1024)).unwrap();
    let mut graph = srdfg::build(&prog, &Bindings::default()).unwrap();
    let mut targets = TargetMap::host_only(Backend::accel_spec(&pm_accel::Cpu::default()));
    targets.set(tabla.accel_spec());
    lower(&mut graph, &targets, Some(&TemplateCache::new()), &Budget::unlimited()).unwrap();
    c.bench_function("ablation/elide-marshalling/lr-1024", |b| {
        b.iter(|| {
            let mut g = graph.clone();
            pm_passes::ElideMarshalling.run(&mut g)
        })
    });
}

/// Ablation: the cross-granularity algebraic-combination pass on the MPC
/// double-matvec (paper §IV.B's motivating example).
fn bench_ablation_fusion(c: &mut Criterion) {
    let robox = Robox::default();
    let hints = WorkloadHints::default();
    let src = programs::mobile_robot(64);
    let estimate = |fuse: bool| {
        let (prog, _) = pmlang::frontend(&src).unwrap();
        let mut graph = srdfg::build(&prog, &Bindings::default()).unwrap();
        if fuse {
            pm_passes::AlgebraicCombination.run(&mut graph);
        }
        let mut targets = TargetMap::host_only(Backend::accel_spec(&pm_accel::Cpu::default()));
        targets.set(robox.accel_spec());
        lower(&mut graph, &targets, Some(&TemplateCache::new()), &Budget::unlimited()).unwrap();
        let compiled = compile_program(Arc::new(graph), &targets, &Budget::unlimited()).unwrap();
        robox
            .estimate(compiled.partition(Some(Domain::Robotics)).unwrap(), &compiled.graph, &hints)
            .cycles
    };
    let plain = estimate(false);
    let fused = estimate(true);
    println!("[ablation] algebraic combination on MPC-64: {plain} -> {fused} RoboX cycles");

    c.bench_function("ablation/algebraic-combination/mpc-64", |b| {
        let (prog, _) = pmlang::frontend(&src).unwrap();
        let graph = srdfg::build(&prog, &Bindings::default()).unwrap();
        b.iter(|| {
            let mut g = graph.clone();
            pm_passes::AlgebraicCombination.run(&mut g)
        })
    });
}

/// Ablation: HyperStreams operator budget — how the spatial-unrolling
/// budget (parallel pipeline copies) trades against the stream rate on
/// Black-Scholes. Past the point where the stream saturates, more copies
/// buy nothing: the knee locates the balanced design the FPL'07 paper
/// reaches by hand.
fn bench_ablation_hyperstreams(c: &mut Criterion) {
    let hints = WorkloadHints::default();
    let compiled = {
        let base = pm_accel::HyperStreams::default();
        compiled_for(&base, &programs::black_scholes(8192), true)
    };
    let part = compiled.partition_by_target("HyperStreams").unwrap();
    let mut prev = u64::MAX;
    for ops in [64usize, 256, 1024, 4096, 16384] {
        let hs = pm_accel::HyperStreams { max_operators: ops, ..Default::default() };
        let cycles = hs.estimate(part, &compiled.graph, &hints).cycles;
        println!("[ablation] hyperstreams budget {ops:>5} ops: {cycles} cycles");
        assert!(cycles <= prev, "more operators must never slow the pipeline");
        prev = cycles;
    }

    let hs = pm_accel::HyperStreams::default();
    c.bench_function("ablation/hyperstreams-budget/blks-8192", |b| {
        b.iter(|| hs.estimate(black_box(part), &compiled.graph, &hints))
    });
}

criterion_group!(
    benches,
    bench_backend_estimates,
    bench_ablation_elision,
    bench_ablation_fusion,
    bench_ablation_hyperstreams
);
criterion_main!(benches);

//! Criterion micro-benchmarks of the compilation stack itself: frontend
//! throughput, srDFG generation, the optimization pipeline, lowering to
//! each granularity, and the reference interpreter.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use pm_lower::{compile_program, lower, TargetMap};
use pm_passes::{Pass, PassManager};
use pm_workloads::programs;
use pmlang::Domain;
use srdfg::{Bindings, Budget, Machine, TemplateCache, Tensor};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;

fn bench_frontend(c: &mut Criterion) {
    let mut g = c.benchmark_group("frontend");
    for (name, src) in [
        ("mpc-64", programs::mobile_robot(64)),
        ("fft-256", programs::fft(256)),
        ("kmeans-784", programs::kmeans(784, 10)),
    ] {
        g.bench_with_input(BenchmarkId::new("parse+check", name), &src, |b, src| {
            b.iter(|| pmlang::frontend(black_box(src)).unwrap())
        });
    }
    g.finish();
}

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("srdfg-build");
    for (name, src) in [
        ("mpc-64", programs::mobile_robot(64)),
        ("fft-256", programs::fft(256)),
        ("resnet18-32", programs::resnet18(32)),
    ] {
        let (prog, _) = pmlang::frontend(&src).unwrap();
        g.bench_function(BenchmarkId::new("build", name), |b| {
            b.iter(|| srdfg::build(black_box(&prog), &Bindings::default()).unwrap())
        });
    }
    g.finish();
}

fn bench_passes(c: &mut Criterion) {
    let (prog, _) = pmlang::frontend(&programs::mobile_robot(64)).unwrap();
    let graph = srdfg::build(&prog, &Bindings::default()).unwrap();
    let mut grp = c.benchmark_group("passes");
    grp.sample_size(200);
    // The graph clone is setup, not workload: `iter_batched` keeps it
    // outside the timed region so the number tracks the pipeline itself.
    grp.bench_function("standard-pipeline/mpc-64", |b| {
        b.iter_batched(
            || graph.clone(),
            |mut g| PassManager::standard().run(&mut g),
            BatchSize::SmallInput,
        )
    });
    grp.bench_function("fusion/mpc-64", |b| {
        b.iter_batched(
            || graph.clone(),
            |mut g| pm_passes::AlgebraicCombination.run(&mut g),
            BatchSize::SmallInput,
        )
    });
    // Value-numbering CSE at scale: 256 structurally identical statements,
    // where the old pairwise-fixpoint formulation was O(n²) per round.
    let wide = {
        let mut src = String::from("main(input float x, output float y) {\n");
        src.push_str("    float acc;\n");
        for i in 0..256 {
            src.push_str(&format!("    float t{i};\n    t{i} = x * 2.0 + 1.0;\n"));
        }
        src.push_str("    acc = t0;\n");
        for i in 1..256 {
            src.push_str(&format!("    acc = acc + t{i};\n"));
        }
        src.push_str("    y = acc;\n}\n");
        src
    };
    let (wprog, _) = pmlang::frontend(&wide).unwrap();
    let wgraph = srdfg::build(&wprog, &Bindings::default()).unwrap();
    grp.sample_size(50);
    grp.bench_function("cse/wide-256", |b| {
        b.iter_batched(
            || wgraph.clone(),
            |mut g| pm_passes::CommonSubexpressionElimination.run(&mut g),
            BatchSize::SmallInput,
        )
    });
    grp.finish();
}

fn bench_lowering(c: &mut Criterion) {
    let mut g = c.benchmark_group("lowering");
    g.sample_size(20);
    // Scalar-granularity lowering (TABLA) on a 512-feature LR step.
    {
        let (prog, _) = pmlang::frontend(&programs::logistic(512)).unwrap();
        let graph = srdfg::build(&prog, &Bindings::default()).unwrap();
        let mut targets =
            TargetMap::host_only(pm_accel::Backend::accel_spec(&pm_accel::Cpu::default()));
        targets.set(pm_accel::Backend::accel_spec(&pm_accel::Tabla::default()));
        g.bench_function("to-scalar/lr-512", |b| {
            b.iter(|| {
                let mut gr = graph.clone();
                lower(
                    &mut gr,
                    black_box(&targets),
                    Some(&TemplateCache::new()),
                    &Budget::unlimited(),
                )
                .unwrap();
                pm_passes::ElideMarshalling.run(&mut gr);
                compile_program(Arc::new(gr), &targets, &Budget::unlimited()).unwrap()
            })
        });
    }
    // Layer-granularity lowering (VTA) on a 32×32 ResNet-18.
    {
        let (prog, _) = pmlang::frontend(&programs::resnet18(32)).unwrap();
        let graph = srdfg::build(&prog, &Bindings::default()).unwrap();
        let mut targets =
            TargetMap::host_only(pm_accel::Backend::accel_spec(&pm_accel::Cpu::default()));
        targets.set(pm_accel::Backend::accel_spec(&pm_accel::Vta::default()));
        g.bench_function("to-layers/resnet18-32", |b| {
            b.iter(|| {
                let mut gr = graph.clone();
                lower(
                    &mut gr,
                    black_box(&targets),
                    Some(&TemplateCache::new()),
                    &Budget::unlimited(),
                )
                .unwrap();
                compile_program(Arc::new(gr), &targets, &Budget::unlimited()).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_interpreter(c: &mut Criterion) {
    let src = "main(input float A[64][64], input float x[64], output float y[64]) {
         index i[0:63], j[0:63];
         y[i] = sum[j](A[i][j]*x[j]);
     }";
    let (prog, _) = pmlang::frontend(src).unwrap();
    let graph = srdfg::build(&prog, &Bindings::default()).unwrap();
    let feeds = HashMap::from([
        (
            "A".to_string(),
            Tensor::from_vec(pmlang::DType::Float, vec![64, 64], vec![0.5; 4096]).unwrap(),
        ),
        ("x".to_string(), Tensor::from_vec(pmlang::DType::Float, vec![64], vec![1.0; 64]).unwrap()),
    ]);
    c.bench_function("interp/matvec-64", |b| {
        let mut m = Machine::new(graph.clone());
        b.iter(|| m.invoke(black_box(&feeds)).unwrap())
    });
}

fn bench_full_pipeline(c: &mut Criterion) {
    let src = programs::dct_block();
    c.bench_function("end-to-end-compile/dct-block", |b| {
        b.iter(|| {
            polymath::Compiler::cross_domain()
                .compile(black_box(&src), &Bindings::default())
                .unwrap()
        })
    });
    let _ = Domain::Dsp;
}

criterion_group!(
    benches,
    bench_frontend,
    bench_build,
    bench_passes,
    bench_lowering,
    bench_interpreter,
    bench_full_pipeline
);
criterion_main!(benches);

//! Property-based tests over the whole stack: randomly generated PMLang
//! expressions must (1) evaluate exactly as the model's direct Rust
//! evaluation of the same tree, (2) be invariant under the optimization
//! pipeline, and (3) be invariant under lowering + marshalling elision.
//!
//! The expression generator and its evaluator are `pm_fuzz`'s — the same
//! model `pmc fuzz` differentially executes at scale — so there is exactly
//! one definition of "what a random PMLang expression means" in the
//! workspace.

use pm_fuzz::{gen::strategies, PExpr, PProgram, PStmt, RedKind};
use pm_lower::{compile_program, lower, AcceleratorSpec, TargetMap};
use pm_passes::{Pass, PassManager};
use pmlang::Domain;
use proptest::prelude::*;
use srdfg::Budget;
use srdfg::{Bindings, Machine, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

/// Wraps a single random expression as the model program
/// `t0[i] = <expr>; s0 = sum[i](t0[i]);` — one map, one reduction — so the
/// model evaluator provides the expected values (and the stability verdict)
/// for both.
fn expr_program(expr: PExpr, n: usize, wrap: Option<Domain>) -> PProgram {
    // `Var(2)` renders as `t0[i]` once one vector is defined (inputs x, y
    // occupy slots 0 and 1).
    PProgram {
        n,
        stmts: vec![PStmt::Map(expr, None), PStmt::Reduce(RedKind::Sum, PExpr::Var(2), None)],
        state_update: None,
        wrap,
    }
}

fn feeds_for(x: &[f64], y: &[f64]) -> HashMap<String, Tensor> {
    HashMap::from([
        (
            "x".to_string(),
            Tensor::from_vec(pmlang::DType::Float, vec![x.len()], x.to_vec()).unwrap(),
        ),
        (
            "y".to_string(),
            Tensor::from_vec(pmlang::DType::Float, vec![y.len()], y.to_vec()).unwrap(),
        ),
    ])
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

/// A scalar-granularity DSP accelerator covering every op the expression
/// generator can emit, so lowering refines all the way down.
fn scalar_target() -> TargetMap {
    let host = AcceleratorSpec::general_purpose("CPU", Domain::Dsp);
    let mut t = TargetMap::host_only(host);
    t.set(AcceleratorSpec::new(
        "SCALAR",
        Domain::Dsp,
        [
            "add", "sub", "mul", "div", "neg", "not", "select", "const", "min2", "max2", "abs",
            "sigmoid", "tanh", "relu", "gaussian", "sin", "cos", "cmp.<", "cmp.<=", "cmp.>",
            "cmp.>=", "cmp.==", "cmp.!=", "unpack", "pack",
        ],
    ));
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compiled evaluation equals the model's direct evaluation of the same
    /// tree (numerically unstable draws are skipped, per the model's own
    /// verdict).
    #[test]
    fn interpreter_matches_direct_eval(
        expr in strategies::expr(4),
        xs in strategies::inputs(6),
        ys in strategies::inputs(6),
    ) {
        let program = expr_program(expr, 6, None);
        let step = program.eval(&xs, &ys, None);
        if !step.stable {
            return Ok(()); // numerically unstable draw: skip
        }
        let src = program.to_pmlang();
        let (prog, _) = pmlang::frontend(&src).unwrap();
        let graph = srdfg::build(&prog, &Bindings::default()).unwrap();
        let out = Machine::new(graph).invoke(&feeds_for(&xs, &ys)).unwrap();
        let t0 = out["t0"].as_real_slice().unwrap();
        for (i, (g, e)) in t0.iter().zip(&step.vecs[0]).enumerate() {
            prop_assert!(close(*g, *e), "t0[{i}]: {g} vs {e}\n{src}");
        }
        let s0 = out["s0"].scalar_value().unwrap();
        prop_assert!(close(s0, step.scalars[0]), "s0: {s0} vs {}\n{src}", step.scalars[0]);
    }

    /// The standard pass pipeline never changes observable results.
    #[test]
    fn passes_preserve_semantics(
        expr in strategies::expr(4),
        xs in strategies::inputs(6),
        ys in strategies::inputs(6),
    ) {
        let program = expr_program(expr, 6, None);
        if !program.eval(&xs, &ys, None).stable {
            return Ok(()); // numerically unstable draw: skip
        }
        let src = program.to_pmlang();
        let (prog, _) = pmlang::frontend(&src).unwrap();
        let graph = srdfg::build(&prog, &Bindings::default()).unwrap();
        let feeds = feeds_for(&xs, &ys);
        let base = Machine::new(graph.clone()).invoke(&feeds).unwrap();

        let mut optimized = graph;
        PassManager::standard().run(&mut optimized);
        pm_passes::AlgebraicCombination.run(&mut optimized);
        srdfg::validate::validate(&optimized).unwrap();
        let opt = Machine::new(optimized).invoke(&feeds).unwrap();
        let (b, o) = (base["t0"].as_real_slice().unwrap(), opt["t0"].as_real_slice().unwrap());
        for (i, (g, e)) in o.iter().zip(b).enumerate() {
            prop_assert!(close(*g, *e), "t0[{i}] diverged: {g} vs {e}\n{src}");
        }
        let (b, o) = (base["s0"].scalar_value().unwrap(), opt["s0"].scalar_value().unwrap());
        prop_assert!(close(o, b), "s0 diverged: {o} vs {b}\n{src}");
    }

    /// Lowering to scalar granularity (plus marshalling elision) never
    /// changes observable results, and leaves only supported ops.
    #[test]
    fn lowering_preserves_semantics(
        expr in strategies::expr(4),
        xs in strategies::inputs(5),
        ys in strategies::inputs(5),
    ) {
        let program = expr_program(expr, 5, Some(Domain::Dsp));
        if !program.eval(&xs, &ys, None).stable {
            return Ok(()); // numerically unstable draw: skip
        }
        let src = program.to_pmlang();
        let (prog, _) = pmlang::frontend(&src).unwrap();
        let graph = srdfg::build(&prog, &Bindings::default()).unwrap();
        let feeds = feeds_for(&xs, &ys);
        let base = Machine::new(graph.clone()).invoke(&feeds).unwrap();

        let targets = scalar_target();
        let mut lowered = graph;
        lower(&mut lowered, &targets, None, &Budget::unlimited()).unwrap();
        pm_passes::ElideMarshalling.run(&mut lowered);
        srdfg::validate::validate(&lowered).unwrap();
        prop_assert!(pm_lower::fully_lowered(&lowered, &targets));
        let compiled = compile_program(Arc::new(lowered), &targets, &Budget::unlimited()).unwrap();
        prop_assert!(compiled.partition(Some(Domain::Dsp)).is_some());

        let low = Machine::new(Arc::unwrap_or_clone(compiled.graph)).invoke(&feeds).unwrap();
        for (k, v) in &base {
            let d = v.max_abs_diff(&low[k]).unwrap();
            let scale = 1.0 + v.as_real_slice()
                .map(|s| s.iter().fold(0.0f64, |m, x| m.max(x.abs())))
                .or_else(|| v.scalar_value().ok().map(f64::abs))
                .unwrap_or(0.0);
            prop_assert!(d <= 1e-6 * scale, "output {k} diverged by {d}\n{src}");
        }
    }

    /// Tensor element access round-trips and flat indexing is row-major.
    #[test]
    fn tensor_roundtrip(
        rows in 1usize..6,
        cols in 1usize..6,
        vals in proptest::collection::vec(-100.0..100.0f64, 36),
    ) {
        let mut t = Tensor::zeros(pmlang::DType::Float, vec![rows, cols]);
        for r in 0..rows {
            for c in 0..cols {
                t.set(&[r as i64, c as i64], srdfg::Scalar::Real(vals[r * cols + c])).unwrap();
            }
        }
        for r in 0..rows {
            for c in 0..cols {
                let got = t.get(&[r as i64, c as i64]).unwrap().as_real().unwrap();
                prop_assert_eq!(got, vals[r * cols + c]);
                prop_assert_eq!(t.flat_index(&[r as i64, c as i64]).unwrap(), r * cols + c);
            }
        }
    }

    /// Synthetic graphs always have in-range endpoints, no self loops, and
    /// deterministic regeneration.
    #[test]
    fn datagen_graph_invariants(v in 8usize..128, deg in 1usize..6, seed in 0u64..1000) {
        let g = pm_workloads::datagen::power_law_graph(v, deg, seed);
        prop_assert_eq!(g.vertices, v);
        for &(s, d, w) in &g.edges {
            prop_assert!((s as usize) < v && (d as usize) < v);
            prop_assert!(s != d, "self loop at {s}");
            prop_assert!(w >= 1.0);
        }
        let g2 = pm_workloads::datagen::power_law_graph(v, deg, seed);
        prop_assert_eq!(g.edges, g2.edges);
    }
}

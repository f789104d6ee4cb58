//! Failure-injection tests: every layer of the stack must turn bad input
//! into a typed error (never a panic) with a message that names the
//! offending construct.

use polymath::{Compiler, PolyMathError};
use srdfg::{Bindings, Machine, Tensor};
use std::collections::HashMap;

fn vec_t(v: Vec<f64>) -> Tensor {
    Tensor::from_vec(pmlang::DType::Float, vec![v.len()], v).unwrap()
}

#[test]
fn frontend_errors_carry_location_and_name() {
    // Lexical.
    let e = Compiler::host_only().compile("main(input float x@)", &Bindings::default());
    assert!(matches!(e, Err(PolyMathError::Frontend(_))));
    assert!(e.unwrap_err().to_string().contains('@'));

    // Syntactic.
    let e = Compiler::host_only()
        .compile("main(input float x, output float y) { y = ; }", &Bindings::default())
        .unwrap_err();
    assert!(e.to_string().contains("expected expression"), "{e}");

    // Semantic.
    let e = Compiler::host_only()
        .compile("main(input float x, output float y) { y = zz; }", &Bindings::default())
        .unwrap_err();
    assert!(e.to_string().contains("`zz`"), "{e}");
}

#[test]
fn unbound_size_is_a_build_error() {
    let e = Compiler::host_only()
        .compile(
            "main(input float x[n], output float y[n]) { index i[0:n-1]; y[i] = x[i]; }",
            &Bindings::default(),
        )
        .unwrap_err();
    assert!(matches!(e, PolyMathError::Build(_)));
    assert!(e.to_string().contains("`n`"), "{e}");
}

#[test]
fn shape_mismatch_at_instantiation_is_reported() {
    let e = Compiler::host_only()
        .compile(
            "f(input float a[m], input float b[m], output float c[m]) {
                 index i[0:m-1];
                 c[i] = a[i] + b[i];
             }
             main(input float x[4], input float y[8], output float z[4]) {
                 f(x, y, z);
             }",
            &Bindings::default(),
        )
        .unwrap_err();
    assert!(e.to_string().contains("already bound"), "{e}");
}

#[test]
fn runtime_out_of_bounds_is_an_exec_error() {
    // Index arithmetic escapes the tensor: the interpreter reports it.
    let compiled = Compiler::host_only()
        .compile(
            "main(input float x[4], output float y[4]) {
                 index i[0:3];
                 y[i] = x[i + 2];
             }",
            &Bindings::default(),
        )
        .unwrap();
    let feeds = HashMap::from([("x".to_string(), vec_t(vec![1.0, 2.0, 3.0, 4.0]))]);
    let err = Machine::new((*compiled.graph).clone()).invoke(&feeds).unwrap_err();
    assert!(err.to_string().contains("out of bounds"), "{err}");
}

#[test]
fn missing_and_misshapen_feeds_are_named() {
    let compiled = Compiler::host_only()
        .compile(
            "main(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i]; }",
            &Bindings::default(),
        )
        .unwrap();
    let err = Machine::new((*compiled.graph).clone()).invoke(&HashMap::new()).unwrap_err();
    assert!(err.to_string().contains("`x`"), "{err}");

    let feeds = HashMap::from([("x".to_string(), vec_t(vec![1.0, 2.0]))]);
    let err = Machine::new((*compiled.graph).clone()).invoke(&feeds).unwrap_err();
    assert!(err.to_string().contains("shape"), "{err}");
}

#[test]
fn complex_fed_into_real_program_is_rejected() {
    let compiled = Compiler::host_only()
        .compile(
            "main(input float x[2], output float y[2]) { index i[0:1]; y[i] = x[i]; }",
            &Bindings::default(),
        )
        .unwrap();
    let feeds = HashMap::from([(
        "x".to_string(),
        Tensor::from_complex_vec(vec![2], vec![(1.0, 1.0), (2.0, 2.0)]).unwrap(),
    )]);
    // Shape matches but the dtype does not: the write into the real output
    // fails with a typed error.
    let result = Machine::new((*compiled.graph).clone()).invoke(&feeds);
    assert!(result.is_err());
}

#[test]
fn lowering_failure_names_the_operation_and_target() {
    // A target without nonlinear units cannot take sigmoid.
    use pm_lower::{lower, AcceleratorSpec, TargetMap};
    use srdfg::Budget;
    let (prog, _) = pmlang::frontend(
        "main(input float x[4], output float y[4]) { index i[0:3]; y[i] = sigmoid(x[i]); }",
    )
    .unwrap();
    let mut g = srdfg::build(&prog, &Bindings::default()).unwrap();
    g.domain = Some(pmlang::Domain::DataAnalytics);
    let mut targets =
        TargetMap::host_only(AcceleratorSpec::new("BARE", pmlang::Domain::DataAnalytics, []));
    targets.set(AcceleratorSpec::new(
        "NOSIG",
        pmlang::Domain::DataAnalytics,
        ["add", "mul", "const", "unpack", "pack"],
    ));
    let err = lower(&mut g, &targets, None, &Budget::unlimited()).unwrap_err();
    assert!(err.to_string().contains("sigmoid"), "{err}");
    assert!(err.to_string().contains("NOSIG"), "{err}");
}

#[test]
fn expansion_cap_failure_is_reported_not_fatal() {
    use pm_lower::{lower, AcceleratorSpec, TargetMap};
    use srdfg::Budget;
    let (prog, _) = pmlang::frontend(
        "main(input float x[512], output float y[512]) { index i[0:511]; y[i] = x[i] + 1.0; }",
    )
    .unwrap();
    let mut g = srdfg::build(&prog, &Bindings::default()).unwrap();
    g.domain = Some(pmlang::Domain::Dsp);
    let mut tiny =
        AcceleratorSpec::new("TINY", pmlang::Domain::Dsp, ["add", "const", "unpack", "pack"]);
    tiny.expand = srdfg::ExpandOptions { max_nodes: 16 };
    let mut targets = TargetMap::host_only(AcceleratorSpec::new("BARE", pmlang::Domain::Dsp, []));
    targets.set(tiny);
    let err = lower(&mut g, &targets, None, &Budget::unlimited()).unwrap_err();
    assert!(err.to_string().contains("limit"), "{err}");
}

#[test]
fn division_by_zero_flows_as_ieee_infinity() {
    // PMLang adopts IEEE semantics rather than trapping (documented).
    let compiled = Compiler::host_only()
        .compile("main(input float x, output float y) { y = 1.0 / x; }", &Bindings::default())
        .unwrap();
    let feeds = HashMap::from([("x".to_string(), Tensor::scalar(pmlang::DType::Float, 0.0))]);
    let out = Machine::new((*compiled.graph).clone()).invoke(&feeds).unwrap();
    assert!(out["y"].scalar_value().unwrap().is_infinite());
}

#[test]
fn deep_nesting_works_below_the_limit_and_errors_above() {
    // 80 levels: compiles and evaluates.
    let mut expr = String::from("x");
    for _ in 0..80 {
        expr = format!("({expr} + 1.0)");
    }
    let src = format!("main(input float x, output float y) {{ y = {expr}; }}");
    let compiled = Compiler::host_only().compile(&src, &Bindings::default()).unwrap();
    let feeds = HashMap::from([("x".to_string(), Tensor::scalar(pmlang::DType::Float, 0.0))]);
    let out = Machine::new((*compiled.graph).clone()).invoke(&feeds).unwrap();
    assert_eq!(out["y"].scalar_value().unwrap(), 80.0);

    // 400 levels: a diagnostic, not a stack overflow.
    let mut expr = String::from("x");
    for _ in 0..400 {
        expr = format!("({expr} + 1.0)");
    }
    let src = format!("main(input float x, output float y) {{ y = {expr}; }}");
    let err = Compiler::host_only().compile(&src, &Bindings::default()).unwrap_err();
    assert!(err.to_string().contains("nesting"), "{err}");
}

#[test]
fn state_persists_only_within_one_machine() {
    let compiled = Compiler::host_only()
        .compile(
            "main(input float x, state float acc, output float y) {
                 acc = acc + x;
                 y = acc;
             }",
            &Bindings::default(),
        )
        .unwrap();
    let feeds = HashMap::from([("x".to_string(), Tensor::scalar(pmlang::DType::Float, 5.0))]);
    let mut m1 = Machine::new((*compiled.graph).clone());
    m1.invoke(&feeds).unwrap();
    let out = m1.invoke(&feeds).unwrap();
    assert_eq!(out["y"].scalar_value().unwrap(), 10.0);
    // A fresh machine starts from zeroed state.
    let mut m2 = Machine::new((*compiled.graph).clone());
    let out = m2.invoke(&feeds).unwrap();
    assert_eq!(out["y"].scalar_value().unwrap(), 5.0);
}

#[test]
fn empty_index_ranges_produce_identity_results() {
    let compiled = Compiler::host_only()
        .compile(
            "main(input float x[4], output float s, output float p) {
                 index i[0:3], j[3:2];
                 s = sum[j](x[j]);
                 p = prod[j](x[j]) + sum[i](x[i]) * 0.0;
             }",
            &Bindings::default(),
        )
        .unwrap();
    let feeds = HashMap::from([("x".to_string(), vec_t(vec![2.0, 2.0, 2.0, 2.0]))]);
    let out = Machine::new((*compiled.graph).clone()).invoke(&feeds).unwrap();
    assert_eq!(out["s"].scalar_value().unwrap(), 0.0, "empty sum = 0");
    assert_eq!(out["p"].scalar_value().unwrap(), 1.0, "empty prod = 1");
}

//! Differential tests for the per-program price memo and the prepared
//! machine (DESIGN.md §10): a program-cache hit reuses the compute
//! estimates and the execution order of earlier invocations, and nothing
//! it reuses may change a byte of what a fresh, unshared run reports.
//!
//! Valid in both srDFG store modes (`scripts/verify.sh` re-runs this
//! suite under `PM_SRDFG_UNSHARED=1`).

use pm_accel::{ChaosConfig, ChaosProfile, Deco, Soc, SocReport, TrajectoryInputs, WorkloadHints};
use pm_lower::CompiledProgram;
use polymath::{standard_soc, Compiler, Json, ServeConfig, ServeEngine};
use srdfg::{Bindings, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

/// A DSP filter feeding a DA classifier with a persistent accumulator:
/// two accelerated partitions (DECO, TABLA) and a `state` edge.
const TWO_DOMAIN: &str = "main(input float sig[24], param float taps[8], param float w[17],
          state float acc, output float cls, output float total) {
    index i[0:16], k[0:7];
    float feat[17];
    DSP: feat[i] = sum[k](taps[k]*sig[i+k]);
    DA: cls = sigmoid(sum[i](w[i]*feat[i]));
    acc = acc + cls;
    total = acc;
}";

fn compile() -> CompiledProgram {
    Compiler::cross_domain().compile(TWO_DOMAIN, &Bindings::default()).expect("compiles")
}

/// The standard SoC with DECO re-attached at `dsp_blocks` blocks.
fn soc_with_blocks(dsp_blocks: usize) -> Soc {
    let mut soc = standard_soc();
    soc.attach(Deco { dsp_blocks, ..Deco::default() });
    soc
}

fn vec_t(values: Vec<f64>) -> Tensor {
    Tensor::from_vec(pmlang::DType::Float, vec![values.len()], values).expect("shape")
}

fn feeds() -> HashMap<String, Tensor> {
    HashMap::from([
        ("sig".to_string(), vec_t((0..24).map(|i| (i as f64 * 0.37).sin()).collect())),
        ("taps".to_string(), vec_t(vec![0.25, -0.5, 0.75, 1.0, 0.5, -0.25, 0.125, 0.0625])),
        ("w".to_string(), vec_t((0..17).map(|i| 0.1 - i as f64 * 0.01).collect())),
    ])
}

/// `Debug` of a report: every field, floats at full precision.
fn digest(report: &SocReport) -> String {
    format!("{report:?}")
}

#[test]
fn differently_configured_socs_never_share_a_price() {
    let shared = Arc::new(compile());
    let wide = standard_soc();
    let narrow = soc_with_blocks(16);
    let hints = HashMap::new();
    let fresh_wide = digest(&standard_soc().run(&compile(), &hints).unwrap());
    let fresh_narrow = digest(&soc_with_blocks(16).run(&compile(), &hints).unwrap());
    assert_ne!(fresh_wide, fresh_narrow, "the DECO configuration must show in the price");
    for round in 0..3 {
        assert_eq!(digest(&wide.run(&shared, &hints).unwrap()), fresh_wide, "round {round}");
        assert_eq!(digest(&narrow.run(&shared, &hints).unwrap()), fresh_narrow, "round {round}");
    }
    // Re-attaching a backend re-draws the SoC's identity: the program's
    // remembered prices for the old configuration are never consulted.
    let mut reconfigured = standard_soc();
    assert_eq!(digest(&reconfigured.run(&shared, &hints).unwrap()), fresh_wide);
    reconfigured.attach(Deco { dsp_blocks: 16, ..Deco::default() });
    assert_eq!(digest(&reconfigured.run(&shared, &hints).unwrap()), fresh_narrow);
}

#[test]
fn plain_and_expert_pricing_interleave_exactly() {
    let shared = compile();
    let soc = standard_soc();
    let hints = HashMap::new();
    let fresh_plain = digest(&standard_soc().run(&compile(), &hints).unwrap());
    let fresh_expert = digest(&standard_soc().run_expert(&compile(), &hints).unwrap());
    assert_ne!(fresh_plain, fresh_expert, "expert pricing must differ on accelerated partitions");
    assert_eq!(digest(&soc.run(&shared, &hints).unwrap()), fresh_plain);
    assert_eq!(digest(&soc.run_expert(&shared, &hints).unwrap()), fresh_expert);
    assert_eq!(digest(&soc.run(&shared, &hints).unwrap()), fresh_plain);
    assert_eq!(digest(&soc.run_expert(&shared, &hints).unwrap()), fresh_expert);
}

#[test]
fn workload_hints_key_the_price() {
    let shared = compile();
    let soc = standard_soc();
    let none = HashMap::new();
    let scaled = |factor: f64| {
        let h = WorkloadHints { native_factor: Some(factor), ..WorkloadHints::default() };
        HashMap::from([(Some(pmlang::Domain::Dsp), h)])
    };
    let cases = [&none, &scaled(2.0), &scaled(0.5), &none, &scaled(2.0)];
    let fresh: Vec<String> =
        cases.iter().map(|h| digest(&standard_soc().run(&compile(), h).unwrap())).collect();
    assert_ne!(fresh[0], fresh[1], "the hints must show in the price");
    assert_ne!(fresh[1], fresh[2]);
    for (h, expect) in cases.iter().zip(&fresh) {
        assert_eq!(&digest(&soc.run(&shared, h).unwrap()), expect);
    }
}

#[test]
fn chaos_runs_on_a_priced_program_match_fresh_runs() {
    let shared = compile();
    let soc = standard_soc();
    let targets = Compiler::cross_domain().targets().clone();
    let hints = HashMap::new();
    soc.run(&shared, &hints).unwrap();
    for seed in 0..16u64 {
        for profile in [ChaosProfile::Transient, ChaosProfile::Hostile] {
            let cfg = ChaosConfig::new(seed, profile);
            let warm = soc.run_chaos(&shared, &hints, &cfg, Some(&targets)).unwrap();
            let fresh = standard_soc().run_chaos(&compile(), &hints, &cfg, Some(&targets)).unwrap();
            assert_eq!(digest(&warm.report), digest(&fresh.report), "{profile} seed {seed}");
        }
    }
}

#[test]
fn back_to_back_trajectories_leak_no_state() {
    let shared = Arc::new(compile());
    let soc = standard_soc();
    let targets = Compiler::cross_domain().targets().clone();
    let f = feeds();
    let run = |program: &CompiledProgram, soc: &Soc, acc: f64| {
        let seeds = vec![("acc".to_string(), Tensor::scalar(pmlang::DType::Float, acc))];
        let inputs = TrajectoryInputs { feeds: &f, state_seeds: &seeds, invocations: 3 };
        let out = soc
            .run_trajectory(program, &HashMap::new(), &ChaosConfig::off(), Some(&targets), &inputs)
            .unwrap();
        let mut names: Vec<_> = out.outputs.keys().cloned().collect();
        names.sort();
        let outputs: Vec<_> = names.iter().map(|n| format!("{n}={:?}", out.outputs[n])).collect();
        format!("{outputs:?} {}", digest(&out.last))
    };
    let mut seen = Vec::new();
    for acc in [0.0, 100.0, -7.5, 0.0, 100.0] {
        let warm = run(&shared, &soc, acc);
        assert_eq!(warm, run(&compile(), &standard_soc(), acc), "acc seed {acc}");
        seen.push(warm);
    }
    assert_eq!(seen[0], seen[3]);
    assert_eq!(seen[1], seen[4]);
    assert_ne!(seen[0], seen[1], "the state seed must reach the outputs");
}

// ---- through the serve engine -------------------------------------------

fn tensor_json(values: &[f64]) -> Json {
    Json::Obj(vec![
        ("dims".into(), Json::Arr(vec![Json::Num(values.len() as f64)])),
        ("values".into(), Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())),
    ])
}

/// A run line for [`TWO_DOMAIN`]; `chaos` is `(profile, seed)`, `acc` the
/// state seed. Timings are off so responses compare byte for byte.
fn run_line(id: &str, chaos: Option<(&str, u64)>, acc: f64, fuel: Option<u64>) -> String {
    let f = feeds();
    let feeds = Json::Obj(
        ["sig", "taps", "w"]
            .iter()
            .map(|&n| (n.to_string(), tensor_json(f[n].as_real_slice().unwrap())))
            .collect(),
    );
    let state = Json::Obj(vec![(
        "acc".into(),
        Json::Obj(vec![
            ("dims".into(), Json::Arr(vec![])),
            ("values".into(), Json::Arr(vec![Json::Num(acc)])),
        ]),
    )]);
    let mut obj = vec![
        ("op".to_string(), Json::Str("run".into())),
        ("id".to_string(), Json::Str(id.into())),
        ("tenant".to_string(), Json::Str("alice".into())),
        ("program".to_string(), Json::Str(TWO_DOMAIN.into())),
        ("invocations".to_string(), Json::Num(3.0)),
        ("feeds".to_string(), feeds),
        ("state".to_string(), state),
        ("timings".to_string(), Json::Bool(false)),
    ];
    if let Some((profile, seed)) = chaos {
        obj.push((
            "chaos".to_string(),
            Json::Obj(vec![
                ("profile".into(), Json::Str(profile.into())),
                ("seed".into(), Json::Num(seed as f64)),
            ]),
        ));
    }
    if let Some(f) = fuel {
        obj.push(("fuel".to_string(), Json::Num(f as f64)));
    }
    Json::Obj(obj).render()
}

/// An engine whose program cache already holds [`TWO_DOMAIN`] but which
/// has never executed it: the next request is a cache hit on a program
/// with a cold price memo and an unprepared execution order.
fn engine_with_unpriced_program() -> ServeEngine {
    let engine = ServeEngine::new(&ServeConfig::default());
    let cc = engine.compiler().compile_cached(TWO_DOMAIN, &Bindings::default()).unwrap();
    assert!(!cc.cache_hit);
    engine
}

#[test]
fn fuel_exhaustion_reads_the_same_with_the_memo_cold_and_warm() {
    let mut exhausted = 0;
    for fuel in 1..=24u64 {
        let engine = engine_with_unpriced_program();
        let line = run_line("f", None, 0.0, Some(fuel));
        let cold = engine.handle_line(&line);
        let warm = engine.handle_line(&line);
        assert_eq!(cold, warm, "fuel {fuel}");
        exhausted += usize::from(cold.contains("deadline_exceeded"));
        assert_eq!(engine.compiler().program_cache_stats().hits, 2, "fuel {fuel}: both hit");
    }
    assert!(exhausted >= 8, "the sweep must cover fuel running out during dispatch");
}

#[test]
fn transient_chaos_after_warm_up_is_byte_identical_to_a_fresh_engine() {
    let warm = engine_with_unpriced_program();
    for (i, seed) in [3u64, 11, 42].into_iter().enumerate() {
        warm.handle_line(&run_line(&format!("w{i}"), None, seed as f64, None));
        warm.handle_line(&run_line(&format!("t{i}"), Some(("transient", seed)), 1.0, None));
    }
    for seed in [5u64, 7, 19, 23] {
        let line = run_line("probe", Some(("transient", seed)), 2.5, None);
        let fresh = engine_with_unpriced_program().handle_line(&line);
        let got = warm.handle_line(&line);
        assert!(got.contains(r#""ok":true"#), "{got}");
        assert_eq!(got, fresh, "transient seed {seed}");
    }
}

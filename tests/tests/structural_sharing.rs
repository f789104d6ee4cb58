//! Differential suite for the hash-consed srDFG store (DESIGN.md §13).
//!
//! The arena refactor must be *unobservable* except through speed and
//! memory: build → lower → post-lower → Algorithm 2 must produce the same
//! node/edge id assignment, the same fragment streams, and the same run
//! outputs as the pre-refactor flat representation. The goldens below were
//! captured from the flat `Vec<Node>`/`Vec<Edge>` implementation
//! immediately before the arena landed (same projection code, same seeds),
//! so any divergence the sharing introduces — now or later — trips these
//! tests.
//!
//! A fourth digest pins the SoC account: the `Debug` of the standard SoC's
//! plain and expert reports. It and the two multi-partition applications
//! (BrainStimul: 4 partitions, OptionPricing: 2) were captured while
//! partitions were still simulated in parallel, so they also pin the
//! serial dispatch byte for byte.
//!
//! `PM_PRINT_GOLDENS=1 cargo test -p tests --test structural_sharing -- --nocapture`
//! reprints the table for intentional re-baselining.

use pm_workloads::{apps, programs};
use polymath::{standard_soc, Compiler};
use srdfg::{Bindings, FxHasher, Machine, Modifier, SrDfg, Tensor};
use std::collections::HashMap;
use std::hash::Hasher;

/// Test-scale versions of the five benchmark families and the two
/// multi-partition applications (debug builds).
fn small_workloads() -> Vec<(&'static str, String)> {
    vec![
        ("mpc-16", programs::mobile_robot(16)),
        ("fft-64", programs::fft(64)),
        ("kmeans-64", programs::kmeans(64, 4)),
        ("dct-block", programs::dct_block()),
        ("logistic-64", programs::logistic(64)),
        ("brain-stimul", apps::brain_stimul(16, 4).source),
        ("option-pricing", apps::option_pricing(32, 8).source),
    ]
}

/// Full benchmark-scale versions (release builds; the `#[ignore]`d test).
fn full_workloads() -> Vec<(&'static str, String)> {
    vec![
        ("mpc-64", programs::mobile_robot(64)),
        ("fft-256", programs::fft(256)),
        ("kmeans-784", programs::kmeans(784, 10)),
        ("dct-block", programs::dct_block()),
        ("logistic-256", programs::logistic(256)),
    ]
}

fn h(hasher: &mut FxHasher, bytes: &[u8]) {
    hasher.write(bytes);
}

fn hu(hasher: &mut FxHasher, v: u64) {
    hasher.write_u64(v);
}

/// Digest of a lowered graph through refactor-stable accessors: ids,
/// names, kind payloads (via `Debug`, which only covers pre-refactor
/// types: `MapSpec`, `KExpr`, `ScalarKind`, …), wiring, metadata, spans.
fn graph_digest(g: &SrDfg) -> u64 {
    let mut hasher = FxHasher::default();
    h(&mut hasher, g.name.as_bytes());
    h(&mut hasher, format!("{:?}", g.domain).as_bytes());
    for (id, node) in g.iter_nodes() {
        hu(&mut hasher, u64::from(id.0));
        h(&mut hasher, node.name.as_bytes());
        h(&mut hasher, format!("{:?}", node.kind()).as_bytes());
        h(&mut hasher, format!("{:?}", node.domain).as_bytes());
        for e in &node.inputs {
            hu(&mut hasher, u64::from(e.0));
        }
        hu(&mut hasher, u64::MAX);
        for e in &node.outputs {
            hu(&mut hasher, u64::from(e.0));
        }
        hu(&mut hasher, u64::MAX);
        h(&mut hasher, format!("{:?}", node.pattern()).as_bytes());
        h(&mut hasher, format!("{:?}", node.target).as_bytes());
        h(&mut hasher, format!("{:?}", node.span).as_bytes());
    }
    for e in g.edge_ids() {
        let edge = g.edge(e);
        hu(&mut hasher, u64::from(e.0));
        h(&mut hasher, format!("{:?}", edge.producer).as_bytes());
        h(&mut hasher, format!("{:?}", &edge.consumers[..]).as_bytes());
        let m = edge.meta();
        h(&mut hasher, m.name.as_bytes());
        h(&mut hasher, format!("{:?}{:?}{:?}", m.dtype, m.modifier, m.shape).as_bytes());
        h(&mut hasher, format!("{:?}", edge.span()).as_bytes());
    }
    h(&mut hasher, format!("{:?}", g.boundary_inputs).as_bytes());
    h(&mut hasher, format!("{:?}", g.boundary_outputs).as_bytes());
    hasher.finish()
}

/// Digest of Algorithm 2's output: per-partition target/domain and the
/// full fragment stream (ops, kinds, originating node ids, argument
/// metadata and edge ids, op counts).
fn partitions_digest(compiled: &pm_lower::CompiledProgram) -> u64 {
    let mut hasher = FxHasher::default();
    for p in &compiled.partitions {
        h(&mut hasher, p.target.as_bytes());
        h(&mut hasher, format!("{:?}", p.domain).as_bytes());
        for f in &p.fragments {
            h(&mut hasher, f.op.as_bytes());
            h(&mut hasher, format!("{:?}{:?}", f.kind, f.node).as_bytes());
            hu(&mut hasher, f.ops);
            for a in f.inputs.iter().chain(&f.outputs) {
                h(&mut hasher, a.name().as_bytes());
                h(
                    &mut hasher,
                    format!("{:?}{:?}{:?}", a.dtype(), a.modifier(), a.shape()).as_bytes(),
                );
                hu(&mut hasher, u64::from(a.edge.0));
            }
            hu(&mut hasher, u64::MAX);
        }
    }
    hasher.finish()
}

/// Digest of the standard SoC's plain and expert accounts of one
/// invocation (partition order, cycle/energy figures, DMA, retries).
fn soc_digest(compiled: &pm_lower::CompiledProgram) -> u64 {
    let soc = standard_soc();
    let hints = HashMap::new();
    let mut hasher = FxHasher::default();
    h(&mut hasher, format!("{:?}", soc.run(compiled, &hints).expect("soc run")).as_bytes());
    h(
        &mut hasher,
        format!("{:?}", soc.run_expert(compiled, &hints).expect("expert run")).as_bytes(),
    );
    hasher.finish()
}

/// Deterministic feeds for every boundary input: values are a pure
/// function of the variable name and element index, kept in (-1, 1) so
/// sigmoids/divisions stay finite on every family.
fn synth_feeds(g: &SrDfg) -> HashMap<String, Tensor> {
    let mut feeds = HashMap::new();
    for &e in &g.boundary_inputs {
        let m = g.edge(e).meta();
        if m.modifier == Modifier::State {
            continue; // states self-initialize inside the machine
        }
        let mut seed = FxHasher::default();
        seed.write(m.name.as_bytes());
        let base = seed.finish();
        let volume: usize = m.shape.iter().product::<usize>().max(1);
        let data: Vec<f64> = (0..volume)
            .map(|i| {
                let x = base.wrapping_add(i as u64).wrapping_mul(2654435761);
                ((x % 2000) as f64 / 1000.0) - 1.0
            })
            .collect();
        let shape: Vec<usize> = m.shape.to_vec();
        feeds.insert(
            m.name.to_string(),
            Tensor::from_vec(m.dtype, shape, data).expect("synth feed shape"),
        );
    }
    feeds
}

/// Bit-exact digest of two interpreter invocations (exercises state
/// circulation) of the lowered graph.
fn run_digest(g: &SrDfg) -> u64 {
    // NaN payloads differ between debug and release builds (constant
    // folding may pick another one), so every NaN hashes as one value.
    fn canonical_bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }
    fn tensor_digest(hasher: &mut FxHasher, name: &str, t: &Tensor) {
        h(hasher, name.as_bytes());
        h(hasher, format!("{:?}{:?}", t.dtype(), t.shape()).as_bytes());
        for i in 0..t.len() {
            let (re, im) = match t.get_flat(i) {
                srdfg::Scalar::Real(v) => (v, 0.0),
                srdfg::Scalar::Complex(re, im) => (re, im),
            };
            hu(hasher, canonical_bits(re));
            hu(hasher, canonical_bits(im));
        }
    }
    let feeds = synth_feeds(g);
    let mut state_names: Vec<String> = g
        .boundary_inputs
        .iter()
        .filter(|&&e| g.edge(e).meta().modifier == Modifier::State)
        .map(|&e| g.edge(e).meta().name.to_string())
        .collect();
    state_names.sort();
    state_names.dedup();
    let mut machine = Machine::new(g.clone());
    let mut hasher = FxHasher::default();
    for _ in 0..2 {
        let out = machine.invoke(&feeds).expect("run lowered graph");
        let mut names: Vec<&String> = out.keys().collect();
        names.sort();
        for name in names {
            tensor_digest(&mut hasher, name, &out[name]);
        }
        // Persistent state after each invocation (covers families like
        // kmeans whose only visible result is the state trajectory).
        for name in &state_names {
            if let Some(t) = machine.state(name) {
                tensor_digest(&mut hasher, name, t);
            }
        }
    }
    hasher.finish()
}

fn check(workloads: Vec<(&'static str, String)>, goldens: &[(&str, u64, u64, u64, u64)]) {
    let printing = std::env::var_os("PM_PRINT_GOLDENS").is_some();
    for (name, src) in workloads {
        let compiler = Compiler::cross_domain();
        let compiled = compiler.compile(&src, &Bindings::default()).expect("compile");
        let gd = graph_digest(&compiled.graph);
        let pd = partitions_digest(&compiled);
        let rd = run_digest(&compiled.graph);
        let sd = soc_digest(&compiled);
        if printing {
            println!("    (\"{name}\", {gd:#018x}, {pd:#018x}, {rd:#018x}, {sd:#018x}),");
            continue;
        }
        let (_, egd, epd, erd, esd) =
            goldens.iter().find(|(n, ..)| *n == name).expect("golden entry exists");
        assert_eq!(gd, *egd, "{name}: lowered-graph digest diverged from the flat-store golden");
        assert_eq!(pd, *epd, "{name}: fragment-stream digest diverged from the flat-store golden");
        assert_eq!(rd, *erd, "{name}: run-output digest diverged from the flat-store golden");
        assert_eq!(sd, *esd, "{name}: SoC-report digest diverged from the golden");
    }
}

/// The first three digests were captured from the pre-arena flat
/// representation, the SoC digest and the two applications before
/// dispatch became serial (see module docs).
const SMALL_GOLDENS: &[(&str, u64, u64, u64, u64)] = &[
    ("mpc-16", 0xf7005e6305885b98, 0xe7bccb786fd14349, 0x33d7e2594db82a43, 0x609aa6151cddc910),
    ("fft-64", 0xf92b20a0c5333304, 0x611909b906229a78, 0x3eef8d5ec10cc69a, 0xb16ec93ca45ad779),
    ("kmeans-64", 0xd078318a9637d995, 0xbdb0c54adace6e0c, 0x5be8f80720e49424, 0xf3d73ea9b1950ab4),
    ("dct-block", 0xa330d99d7106b6c1, 0x977426cbe2a39027, 0xa01ea690a1232ce7, 0x278d09ceef5584d5),
    ("logistic-64", 0xfb7e751a50b49572, 0x2abc51374972713b, 0x9f425bdb46134084, 0x56a19db98b64d400),
    (
        "brain-stimul",
        0x6ded5afb484b2171,
        0xe8b9fbe44b6b778b,
        0xf3909eaecdc1fcbb,
        0x3e790f30adee2d9e,
    ),
    (
        "option-pricing",
        0x93fc0d215183e696,
        0xc5a0100e7a7b8d8a,
        0x6e19c8cc6ff8d33f,
        0x4d292015b78d80f5,
    ),
];

/// The same provenance, at benchmark scale.
const FULL_GOLDENS: &[(&str, u64, u64, u64, u64)] = &[
    ("mpc-64", 0x37f03f6c9701c510, 0x8a92b2fe02d0f065, 0xeae7e846c4736921, 0x0fe331f66717787b),
    ("fft-256", 0x98a99182e1bec647, 0x9b23db0cf04e87dd, 0xa3d21dfbf2a5f7eb, 0x958a19366a5a3207),
    ("kmeans-784", 0xef86db099de92f63, 0x871101199dab925c, 0xe28acd7957571d48, 0xaf5a6f179a25045f),
    ("dct-block", 0xa330d99d7106b6c1, 0x977426cbe2a39027, 0xa01ea690a1232ce7, 0x278d09ceef5584d5),
    (
        "logistic-256",
        0xd6282728cefb3a25,
        0x15329695e5d82170,
        0xa40f59b3230c6d66,
        0x83cb15f4cbfc355e,
    ),
];

/// Every family at test scale: graphs, fragments, run outputs and SoC
/// accounts must be byte-identical to the goldens.
#[test]
fn interned_pipeline_matches_flat_store_goldens() {
    check(small_workloads(), SMALL_GOLDENS);
}

/// Benchmark-scale byte-identity (slow; run under `--release -- --ignored`,
/// as `scripts/verify.sh` does).
#[test]
#[ignore = "benchmark-scale; run with --release -- --ignored"]
fn interned_pipeline_matches_flat_store_goldens_full_scale() {
    check(full_workloads(), FULL_GOLDENS);
}

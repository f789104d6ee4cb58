//! Mid-end performance regression tests.
//!
//! The value-numbering CSE replaced a pairwise O(n²) fixpoint scan; these
//! tests pin its behaviour to the old algorithm (kept here as a reference
//! implementation) across the workload suite.

use pm_passes::{CommonSubexpressionElimination, Pass};
use pm_workloads::programs;
use pmlang::DType;
use srdfg::{Bindings, Machine, Modifier, NodeKind, SrDfg, Tensor};
use std::collections::HashMap;

/// Small instances of every program family in `pm_workloads::programs`
/// (CNN generators excluded: minutes-long under the debug-mode
/// interpreter, and their layer structure adds no new node kinds).
fn workloads() -> Vec<(&'static str, String)> {
    vec![
        ("mobile_robot-8", programs::mobile_robot(8)),
        ("hexacopter-4", programs::hexacopter(4)),
        ("lqr-4x2", programs::lqr_step(4, 2)),
        ("bfs-16", programs::bfs(16)),
        ("sssp-16", programs::sssp(16)),
        ("pagerank-16", programs::pagerank(16)),
        ("lrmf-8x3", programs::lrmf(8, 3)),
        ("kmeans-16x3", programs::kmeans(16, 3)),
        ("fft-32", programs::fft(32)),
        ("dct-8", programs::dct(8)),
        ("dct-block", programs::dct_block()),
        ("logistic-16", programs::logistic(16)),
        ("black_scholes-8", programs::black_scholes(8)),
    ]
}

/// The retired O(n²) pairwise-fixpoint CSE, kept as a behavioural
/// reference. Merge mechanics (survivor direction, boundary refusal) go
/// through the same `SrDfg::merge_nodes` helper the production pass uses;
/// only the search strategy differs.
fn pairwise_cse_reference(graph: &mut SrDfg) {
    // Recurse into component bodies, as `Pass::run` does.
    for id in graph.node_ids().collect::<Vec<_>>() {
        if matches!(graph.node(id).kind, NodeKind::Component(_)) {
            let NodeKind::Component(sub) = &mut graph.node_mut(id).kind else { unreachable!() };
            let mut inner = std::mem::replace(sub.as_mut(), SrDfg::new(""));
            pairwise_cse_reference(&mut inner);
            if let NodeKind::Component(slot) = &mut graph.node_mut(id).kind {
                **slot = inner;
            }
        }
    }
    loop {
        let mut changed = false;
        let ids: Vec<_> = graph.node_ids().collect();
        'outer: for i in 0..ids.len() {
            let a = ids[i];
            if !graph.is_live(a) || matches!(graph.node(a).kind, NodeKind::Component(_)) {
                continue;
            }
            for &b in &ids[i + 1..] {
                if !graph.is_live(b) {
                    continue;
                }
                let (na, nb) = (graph.node(a), graph.node(b));
                if na.kind == nb.kind
                    && na.inputs == nb.inputs
                    && !matches!(nb.kind, NodeKind::Component(_))
                    && graph.merge_nodes(a, b).is_some()
                {
                    changed = true;
                    continue 'outer; // `a` itself may have been dropped
                }
            }
        }
        if !changed {
            return;
        }
    }
}

/// Live nodes including component bodies.
fn total_nodes(g: &SrDfg) -> usize {
    g.iter_nodes()
        .map(|(_, n)| {
            1 + match &n.kind {
                NodeKind::Component(sub) => total_nodes(sub),
                _ => 0,
            }
        })
        .sum()
}

/// Deterministic feeds for every non-state boundary input: strictly
/// positive values (keeps `log`/`sqrt`/division in the workloads
/// well-defined), integral for integer dtypes.
fn synthetic_feeds(g: &SrDfg) -> HashMap<String, Tensor> {
    let mut feeds = HashMap::new();
    for (k, &e) in g.boundary_inputs.iter().enumerate() {
        let meta = &g.edge(e).meta;
        if meta.modifier == Modifier::State {
            continue;
        }
        let n: usize = meta.shape.iter().product();
        let t = match meta.dtype {
            DType::Complex => {
                let data = (0..n).map(|i| ((((i + k) % 7) as f64) * 0.25 + 0.25, 0.125)).collect();
                Tensor::from_complex_vec(meta.shape.clone(), data).unwrap()
            }
            DType::Float => {
                let data = (0..n).map(|i| (((i + k) % 7) as f64) * 0.25 + 0.25).collect();
                Tensor::from_vec(meta.dtype, meta.shape.clone(), data).unwrap()
            }
            _ => {
                let data = (0..n).map(|i| (((i + k) % 5) + 1) as f64).collect();
                Tensor::from_vec(meta.dtype, meta.shape.clone(), data).unwrap()
            }
        };
        feeds.insert(meta.name.clone(), t);
    }
    feeds
}

/// Differential test: on every workload family, the value-numbering CSE
/// must (a) never leave more live nodes than the pairwise reference and
/// (b) produce a graph that computes bit-identical outputs under the
/// reference interpreter.
#[test]
fn vn_cse_equivalent_to_pairwise_reference() {
    for (name, src) in workloads() {
        let prog = pmlang::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let base =
            srdfg::build(&prog, &Bindings::default()).unwrap_or_else(|e| panic!("{name}: {e}"));

        let mut vn = base.clone();
        CommonSubexpressionElimination.run(&mut vn);
        srdfg::validate(&vn).unwrap_or_else(|e| panic!("{name}: VN CSE broke the graph: {e}"));

        let mut reference = base.clone();
        pairwise_cse_reference(&mut reference);
        srdfg::validate(&reference)
            .unwrap_or_else(|e| panic!("{name}: reference CSE broke the graph: {e}"));

        assert!(
            total_nodes(&vn) <= total_nodes(&reference),
            "{name}: VN left {} live nodes, pairwise reference {}",
            total_nodes(&vn),
            total_nodes(&reference)
        );

        let feeds = synthetic_feeds(&base);
        let out_vn = Machine::new(vn).invoke(&feeds).unwrap_or_else(|e| panic!("{name}: {e}"));
        let out_ref =
            Machine::new(reference).invoke(&feeds).unwrap_or_else(|e| panic!("{name}: {e}"));
        // Debug formatting compares NaN-tolerantly; both graphs perform the
        // same arithmetic, so even NaN patterns must coincide.
        let render = |m: &HashMap<String, Tensor>| {
            let mut rows: Vec<_> = m.iter().map(|(k, v)| format!("{k} = {v:?}")).collect();
            rows.sort();
            rows.join("\n")
        };
        assert_eq!(render(&out_vn), render(&out_ref), "{name}: outputs diverge");
    }
}

//! The differential executor: one generated program, every compilation
//! route, one oracle.
//!
//! Each case is evaluated by the model's own Rust evaluator (the oracle)
//! and then run through every route the stack offers — the interpreter on
//! the unoptimized srDFG, the interpreter after the pass pipeline at opt
//! levels 0/1/2 (plus the optional fusion pass), and the fully lowered /
//! partitioned program for the host-only and cross-domain target
//! assignments. All outputs (including multi-invocation `state`
//! trajectories) must agree within float tolerance; lowering must leave
//! only supported operations, and Algorithm-2 partitions must be
//! structurally consistent. Any divergence, validation error, or panic is
//! reported with the route that produced it.
//!
//! Two analyzer cross-checks ride along: the `analyze@graph` route fails
//! when `pm-analyze` reports an error-severity finding on a valid
//! generated program (a static-analysis false positive), and programs
//! `pm_analyze::certify_bounds` certifies in-bounds must never trap in
//! the interpreter — a trap under a certificate is attributed to the
//! analyzer (`analyze@certified`), not the generator. Every lowered
//! route additionally runs the static schedule hazard analyzer over its
//! Algorithm-2 fragment plan; an error-severity hazard (missing DMA
//! marshalling, deadlock) on a real compilation is a compiler bug.

use crate::model::{EvalStep, PProgram};
use pm_accel::{
    Backend, ChaosConfig, ChaosProfile, Cpu, Deco, Graphicionado, Robox, Soc, Tabla, Vta,
};
use pm_lower::{compile_program, fully_lowered, lower, CompiledProgram, FragmentKind, TargetMap};
use pm_passes::{Pass, PassManager, PassStats};
use srdfg::{Bindings, Budget, KExpr, Machine, NodeKind, SrDfg, Tensor};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Differential-run knobs.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Relative float tolerance between routes and the oracle.
    pub tolerance: f64,
    /// Applies the deliberate miscompilation ([`SabotagePass`]) after the
    /// optimizer — the sentinel that proves the harness detects bugs.
    pub sabotage: bool,
    /// Adds the chaos route: the cross-domain compilation is dispatched
    /// through the resilient SoC runtime under this fault-injection
    /// profile, and the surviving schedule (original or host-fallback
    /// re-lowered) must still match the oracle. Any dispatch error is a
    /// structured route failure — never a panic.
    pub chaos: Option<ChaosProfile>,
    /// Base seed of the chaos fault schedule (the campaign driver mixes
    /// the case index in, so every case draws an independent schedule).
    pub chaos_seed: u64,
    /// Per-fragment retry budget on the chaos route.
    pub max_retries: u32,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig { tolerance: 1e-6, sabotage: false, chaos: None, chaos_seed: 0, max_retries: 3 }
    }
}

/// One route's divergence, crash, or structural failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Which route failed (e.g. `interp@O2`, `lowered@cross-domain`).
    pub route: String,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.route, self.detail)
    }
}

/// Outcome of one differential case.
#[derive(Debug, Clone)]
pub enum CaseResult {
    /// Every route agreed with the oracle.
    Pass,
    /// The oracle flagged the case as numerically unstable (discontinuity
    /// boundary or magnitude overflow); skipped, not counted as a bug.
    Unstable,
    /// A route diverged, crashed, or produced an invalid program.
    Fail(Failure),
}

/// The deliberately miscompiling pass behind the `--sabotage` sentinel:
/// flips the first `+` into a `-` inside the first map/reduce kernel it
/// finds. Semantically wrong, structurally pristine — exactly the class of
/// bug only differential execution catches.
pub struct SabotagePass;

fn flip_first_add(e: &mut KExpr) -> bool {
    if let KExpr::Binary(op, _, _) = e {
        if *op == pmlang::BinOp::Add {
            *op = pmlang::BinOp::Sub;
            return true;
        }
    }
    match e {
        KExpr::Const(_) | KExpr::Idx(_) | KExpr::Arg(_) => false,
        KExpr::Operand { indices, .. } => indices.iter_mut().any(flip_first_add),
        KExpr::Unary(_, a) => flip_first_add(a),
        KExpr::Binary(_, a, b) => flip_first_add(a) || flip_first_add(b),
        KExpr::Select(c, a, b) => flip_first_add(c) || flip_first_add(a) || flip_first_add(b),
        KExpr::Call(_, args) => args.iter_mut().any(flip_first_add),
    }
}

impl Pass for SabotagePass {
    fn name(&self) -> &'static str {
        "sabotage"
    }

    fn run_on_graph(&self, graph: &mut SrDfg) -> PassStats {
        for id in graph.node_ids().collect::<Vec<_>>() {
            let node = graph.node_mut(id);
            // Copy-on-write: sabotage must not reach sibling instances
            // sharing the interned payload, so clone, flip, re-intern.
            let flipped = match &mut node.kind {
                NodeKind::Map(m) => {
                    let mut owned = m.get().clone();
                    let hit = flip_first_add(&mut owned.kernel);
                    if hit {
                        *m = srdfg::intern(owned);
                    }
                    hit
                }
                NodeKind::Reduce(r) => {
                    let mut owned = r.get().clone();
                    let hit = flip_first_add(&mut owned.body);
                    if hit {
                        *r = srdfg::intern(owned);
                    }
                    hit
                }
                _ => continue,
            };
            if flipped {
                return PassStats {
                    changed: true,
                    rewrites: 1,
                    invalidates: pm_passes::Invalidations::PAYLOADS,
                };
            }
        }
        PassStats::default()
    }
}

/// The host-only target map (every domain on the CPU).
pub fn host_targets() -> TargetMap {
    TargetMap::host_only(Cpu::default().accel_spec())
}

/// The cross-domain target map with the paper's five accelerators, the
/// same assignment `polymath::Compiler::cross_domain` uses.
pub fn cross_domain_targets() -> TargetMap {
    let mut t = host_targets();
    t.set(Robox::default().accel_spec());
    t.set(Graphicionado::default().accel_spec());
    t.set(Tabla::default().accel_spec());
    t.set(Deco::default().accel_spec());
    t.set(Vta::default().accel_spec());
    t
}

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

fn tensor(values: &[f64]) -> Tensor {
    Tensor::from_vec(pmlang::DType::Float, vec![values.len()], values.to_vec()).unwrap()
}

/// Runs one graph through `invocations` machine invocations and compares
/// every defined output (and the state trajectory) against the oracle.
fn run_route(
    graph: SrDfg,
    prog: &PProgram,
    steps: &[EvalStep],
    feeds: &HashMap<String, Tensor>,
    z0: &[f64],
    tol: f64,
) -> Result<(), String> {
    let mut machine = Machine::new(graph);
    if prog.has_state() {
        machine.set_state("z", tensor(z0));
    }
    for (k, step) in steps.iter().enumerate() {
        let out = machine.invoke(feeds).map_err(|e| format!("invocation {k}: {e}"))?;
        for (j, expect) in step.vecs.iter().enumerate() {
            let got = out
                .get(&format!("t{j}"))
                .ok_or_else(|| format!("invocation {k}: missing output t{j}"))?
                .as_real_slice()
                .ok_or_else(|| format!("invocation {k}: t{j} is not a real tensor"))?;
            for (i, (g, e)) in got.iter().zip(expect).enumerate() {
                if !close(*g, *e, tol) {
                    return Err(format!("invocation {k}: t{j}[{i}] = {g}, oracle says {e}"));
                }
            }
        }
        for (j, expect) in step.scalars.iter().enumerate() {
            let got = out
                .get(&format!("s{j}"))
                .ok_or_else(|| format!("invocation {k}: missing output s{j}"))?
                .scalar_value()
                .map_err(|e| format!("invocation {k}: s{j}: {e}"))?;
            if !close(got, *expect, tol) {
                return Err(format!("invocation {k}: s{j} = {got}, oracle says {expect}"));
            }
        }
        if let Some(expect) = &step.state_next {
            let got = machine
                .state("z")
                .and_then(|t| t.as_real_slice())
                .ok_or_else(|| format!("invocation {k}: state z not persisted"))?;
            for (i, (g, e)) in got.iter().zip(expect).enumerate() {
                if !close(*g, *e, tol) {
                    return Err(format!("invocation {k}: state z[{i}] = {g}, oracle says {e}"));
                }
            }
        }
    }
    Ok(())
}

/// Structural invariants of an Algorithm-2 compilation: compute fragments
/// only name ops their target supports, and every accelerator load of an
/// accelerator-produced value has a matching store.
fn check_partitions(compiled: &CompiledProgram, targets: &TargetMap) -> Result<(), String> {
    let stored: std::collections::HashSet<_> = compiled
        .partitions
        .iter()
        .flat_map(|p| p.fragments.iter())
        .filter(|f| f.kind == FragmentKind::Store)
        .map(|f| f.outputs[0].edge)
        .collect();
    for p in &compiled.partitions {
        for frag in &p.fragments {
            match frag.kind {
                FragmentKind::Compute => {
                    let node = compiled.graph.node(frag.node.unwrap());
                    let spec = targets.target_for(node, compiled.graph.domain);
                    if spec.name != p.target {
                        return Err(format!(
                            "fragment `{}` landed on `{}`, expected `{}`",
                            frag.op, p.target, spec.name
                        ));
                    }
                    if !spec.supports(&frag.op) {
                        return Err(format!("`{}` not in {}'s op set", frag.op, p.target));
                    }
                }
                FragmentKind::Load => {
                    let e = frag.inputs[0].edge;
                    let boundary = compiled.graph.edge(e).producer.is_none();
                    if !boundary && !stored.contains(&e) {
                        return Err(format!("{}: load of edge {e:?} without a store", p.target));
                    }
                }
                FragmentKind::Store => {}
            }
        }
    }
    Ok(())
}

/// The SoC the chaos route dispatches on: the paper's five accelerators,
/// matching [`cross_domain_targets`].
fn chaos_soc() -> Soc {
    let mut s = Soc::new();
    s.attach(Robox::default());
    s.attach(Graphicionado::default());
    s.attach(Tabla::default());
    s.attach(Deco::default());
    s.attach(Vta::default());
    s
}

/// The chaos route: lower cross-domain, dispatch through the resilient
/// SoC runtime under fault injection, and return the graph of whatever
/// schedule survived (the original, or the host-fallback re-lowering
/// after a persistent outage). The caller then checks that graph against
/// the oracle, so a fault-injected run must either match or surface a
/// structured diagnostic.
fn chaos_route(
    mut graph: SrDfg,
    targets: &TargetMap,
    cfg: &DiffConfig,
    profile: ChaosProfile,
) -> Result<SrDfg, String> {
    lower(&mut graph, targets, None, &Budget::unlimited()).map_err(|e| e.to_string())?;
    pm_passes::ElideMarshalling.run(&mut graph);
    pm_passes::PruneUnusedInputs.run(&mut graph);
    let compiled = compile_program(Arc::new(graph), targets, &Budget::unlimited())
        .map_err(|e| format!("algorithm 2: {e}"))?;
    let chaos = ChaosConfig::new(cfg.chaos_seed, profile).with_max_retries(cfg.max_retries);
    let outcome = chaos_soc()
        .run_chaos(&compiled, &HashMap::new(), &chaos, Some(targets))
        .map_err(|e| format!("chaos dispatch: {e}"))?;
    Ok(match outcome.relowered {
        Some(re) => (*re.graph).clone(),
        None => (*compiled.graph).clone(),
    })
}

/// Lowers a copy of `graph` for `targets`, checks structure, and returns
/// the lowered graph for interpretation.
fn lowered_route(mut graph: SrDfg, targets: &TargetMap) -> Result<SrDfg, String> {
    lower(&mut graph, targets, None, &Budget::unlimited()).map_err(|e| e.to_string())?;
    pm_passes::ElideMarshalling.run(&mut graph);
    pm_passes::PruneUnusedInputs.run(&mut graph);
    srdfg::validate(&graph).map_err(|e| format!("validate: {e}"))?;
    if !fully_lowered(&graph, targets) {
        return Err("lowering converged with unsupported operations left".into());
    }
    let compiled = compile_program(Arc::new(graph), targets, &Budget::unlimited())
        .map_err(|e| format!("algorithm 2: {e}"))?;
    check_partitions(&compiled, targets)?;
    if let Some(f) = pm_analyze::analyze_schedule(&compiled, targets)
        .iter()
        .find(|f| f.severity == pm_analyze::Severity::Error)
    {
        return Err(format!("schedule hazard: {f}"));
    }
    Ok(Arc::unwrap_or_clone(compiled.graph))
}

/// Differentially checks one program on one input set. Never panics:
/// route panics are caught and reported as failures.
pub fn check_case(
    prog: &PProgram,
    xs: &[f64],
    ys: &[f64],
    z0: &[f64],
    cfg: &DiffConfig,
) -> CaseResult {
    match catch_unwind(AssertUnwindSafe(|| check_case_inner(prog, xs, ys, z0, cfg))) {
        Ok(result) => result,
        Err(payload) => {
            let detail = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            CaseResult::Fail(Failure { route: "panic".into(), detail })
        }
    }
}

fn check_case_inner(
    prog: &PProgram,
    xs: &[f64],
    ys: &[f64],
    z0: &[f64],
    cfg: &DiffConfig,
) -> CaseResult {
    // Oracle: step the model through every invocation.
    let mut steps = Vec::with_capacity(prog.invocations());
    let mut z = z0.to_vec();
    for _ in 0..prog.invocations() {
        let step = prog.eval(xs, ys, Some(&z));
        if !step.stable {
            return CaseResult::Unstable;
        }
        if let Some(next) = &step.state_next {
            z.clone_from(next);
        }
        steps.push(step);
    }

    let fail =
        |route: &str, detail: String| CaseResult::Fail(Failure { route: route.into(), detail });

    let src = prog.to_pmlang();
    let (program, _) = match pmlang::frontend(&src) {
        Ok(r) => r,
        Err(e) => return fail("frontend", e.to_string()),
    };
    let base = match srdfg::build(&program, &Bindings::default()) {
        Ok(g) => g,
        Err(e) => return fail("build", e.to_string()),
    };
    // A valid generated program must produce no error-severity static
    // findings — any would be an analyzer false positive.
    if let Some(f) =
        pm_analyze::analyze_graph(&base).iter().find(|f| f.severity == pm_analyze::Severity::Error)
    {
        return fail("analyze@graph", f.to_string());
    }
    let certified = pm_analyze::certify_bounds(&base).is_ok();
    let feeds = HashMap::from([("x".to_string(), tensor(xs)), ("y".to_string(), tensor(ys))]);

    // Interpreter routes at each opt level. The sabotaged O2 graph also
    // seeds the lowered routes, so a miscompile propagates everywhere the
    // real pipeline would carry it.
    let mut optimized = base.clone();
    PassManager::at_opt_level(2).run(&mut optimized);
    if cfg.sabotage {
        SabotagePass.run(&mut optimized);
    }
    let mut fused = optimized.clone();
    pm_passes::AlgebraicCombination.run(&mut fused);

    let mut o1 = base.clone();
    PassManager::at_opt_level(1).run(&mut o1);
    if cfg.sabotage {
        SabotagePass.run(&mut o1);
    }

    let interp_routes: [(&str, &SrDfg); 4] = [
        ("interp@O0", &base),
        ("interp@O1", &o1),
        ("interp@O2", &optimized),
        ("interp@O2+fusion", &fused),
    ];
    for (route, graph) in interp_routes {
        if let Err(e) = srdfg::validate(graph) {
            return fail(route, format!("validate: {e}"));
        }
        if let Err(e) = run_route((*graph).clone(), prog, &steps, &feeds, z0, cfg.tolerance) {
            // An O0 interpreter trap under an in-bounds certificate is a
            // soundness hole in the analyzer, not a generator artifact
            // (divergence from the oracle stays an interpreter failure).
            if route == "interp@O0" && certified && !e.contains("oracle says") {
                return fail("analyze@certified", format!("certified in-bounds, but {e}"));
            }
            return fail(route, e);
        }
    }

    // Lowered routes: host-only and cross-domain from the optimized graph,
    // cross-domain from the fused graph.
    let lowered_routes: [(&str, &SrDfg, TargetMap); 3] = [
        ("lowered@host", &optimized, host_targets()),
        ("lowered@cross-domain", &optimized, cross_domain_targets()),
        ("lowered@cross-domain+fusion", &fused, cross_domain_targets()),
    ];
    for (route, graph, targets) in lowered_routes {
        match lowered_route((*graph).clone(), &targets) {
            Ok(lowered) => {
                if let Err(e) = run_route(lowered, prog, &steps, &feeds, z0, cfg.tolerance) {
                    return fail(route, e);
                }
            }
            Err(e) => return fail(route, e),
        }
    }

    if let Some(profile) = cfg.chaos {
        let route = format!("chaos@{profile}");
        match chaos_route(optimized.clone(), &cross_domain_targets(), cfg, profile) {
            Ok(survivor) => {
                if let Err(e) = run_route(survivor, prog, &steps, &feeds, z0, cfg.tolerance) {
                    return fail(&route, e);
                }
            }
            Err(e) => return fail(&route, e),
        }
    }

    CaseResult::Pass
}

/// Compares two tensors element-wise within the relative tolerance.
fn compare_tensors(label: &str, got: &Tensor, want: &Tensor, tol: f64) -> Result<(), String> {
    match (got.as_real_slice(), want.as_real_slice()) {
        (Some(g), Some(w)) => {
            if g.len() != w.len() {
                return Err(format!("{label}: {} elements, oracle has {}", g.len(), w.len()));
            }
            for (i, (a, b)) in g.iter().zip(w).enumerate() {
                if !close(*a, *b, tol) {
                    return Err(format!("{label}[{i}] = {a}, oracle says {b}"));
                }
            }
            Ok(())
        }
        _ => match (got.scalar_value(), want.scalar_value()) {
            (Ok(a), Ok(b)) if close(a, b, tol) => Ok(()),
            (Ok(a), Ok(b)) => Err(format!("{label} = {a}, oracle says {b}")),
            _ => Err(format!("{label}: non-real tensors cannot be compared")),
        },
    }
}

/// Names of the graph's `state` variables (boundary inputs carrying the
/// `state` modifier).
fn state_names(graph: &SrDfg) -> Vec<String> {
    graph
        .boundary_inputs
        .iter()
        .filter(|&&e| graph.edge(e).meta.modifier == srdfg::Modifier::State)
        .map(|&e| graph.edge(e).meta.name.clone())
        .collect()
}

/// One invocation's observables: `(outputs, post-step state snapshot)`.
type TrajectoryStep = (HashMap<String, Tensor>, HashMap<String, Tensor>);

/// Runs `graph` for `invocations`, recording outputs and the post-step
/// state trajectory.
fn record_trajectory(
    graph: SrDfg,
    feeds: &HashMap<String, Tensor>,
    seeds: &HashMap<String, Tensor>,
    invocations: usize,
) -> Result<Vec<TrajectoryStep>, String> {
    let states = state_names(&graph);
    let mut machine = Machine::new(graph);
    for (name, value) in seeds {
        machine.set_state(name, value.clone());
    }
    let mut steps = Vec::with_capacity(invocations);
    for k in 0..invocations {
        let out = machine.invoke(feeds).map_err(|e| format!("invocation {k}: {e}"))?;
        let mut state = HashMap::new();
        for name in &states {
            if let Some(t) = machine.state(name) {
                state.insert(name.clone(), t.clone());
            }
        }
        steps.push((out, state));
    }
    Ok(steps)
}

/// Differentially replays arbitrary PMLang source: the interpreter on the
/// unoptimized srDFG is the oracle, and every other route must agree with
/// it. This is the corpus-replay entry point — reproducers are plain `.pm`
/// files with no attached model.
///
/// `feeds` must cover every non-state boundary input; `seeds` optionally
/// pre-loads state variables. State-carrying programs are stepped three
/// times, stateless ones once.
pub fn check_source(
    source: &str,
    feeds: &HashMap<String, Tensor>,
    seeds: &HashMap<String, Tensor>,
    cfg: &DiffConfig,
) -> CaseResult {
    match catch_unwind(AssertUnwindSafe(|| check_source_inner(source, feeds, seeds, cfg))) {
        Ok(result) => result,
        Err(payload) => {
            let detail = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            CaseResult::Fail(Failure { route: "panic".into(), detail })
        }
    }
}

fn check_source_inner(
    source: &str,
    feeds: &HashMap<String, Tensor>,
    seeds: &HashMap<String, Tensor>,
    cfg: &DiffConfig,
) -> CaseResult {
    let fail =
        |route: &str, detail: String| CaseResult::Fail(Failure { route: route.into(), detail });
    let (program, _) = match pmlang::frontend(source) {
        Ok(r) => r,
        Err(e) => return fail("frontend", e.to_string()),
    };
    let base = match srdfg::build(&program, &Bindings::default()) {
        Ok(g) => g,
        Err(e) => return fail("build", e.to_string()),
    };
    // Static analysis first: corpus reproducers are valid programs, so an
    // error-severity finding is an analyzer false positive.
    if let Some(f) =
        pm_analyze::analyze_graph(&base).iter().find(|f| f.severity == pm_analyze::Severity::Error)
    {
        return fail("analyze@graph", f.to_string());
    }
    let certified = pm_analyze::certify_bounds(&base).is_ok();
    let invocations = if state_names(&base).is_empty() { 1 } else { 3 };

    // Oracle: the unoptimized interpreter. A trap under an in-bounds
    // certificate is attributed to the analyzer's soundness contract.
    let reference = match record_trajectory(base.clone(), feeds, seeds, invocations) {
        Ok(r) => r,
        Err(e) if certified => {
            return fail("analyze@certified", format!("certified in-bounds, but {e}"))
        }
        Err(e) => return fail("interp@O0", e),
    };

    let compare = |graph: SrDfg| -> Result<(), String> {
        srdfg::validate(&graph).map_err(|e| format!("validate: {e}"))?;
        let got = record_trajectory(graph, feeds, seeds, invocations)?;
        for (k, ((out, state), (ref_out, ref_state))) in got.iter().zip(&reference).enumerate() {
            for (name, want) in ref_out {
                let got = out
                    .get(name)
                    .ok_or_else(|| format!("invocation {k}: missing output `{name}`"))?;
                compare_tensors(&format!("invocation {k}: {name}"), got, want, cfg.tolerance)?;
            }
            for (name, want) in ref_state {
                let got = state
                    .get(name)
                    .ok_or_else(|| format!("invocation {k}: state `{name}` not persisted"))?;
                compare_tensors(
                    &format!("invocation {k}: state {name}"),
                    got,
                    want,
                    cfg.tolerance,
                )?;
            }
        }
        Ok(())
    };

    let mut optimized = base.clone();
    PassManager::at_opt_level(2).run(&mut optimized);
    if cfg.sabotage {
        SabotagePass.run(&mut optimized);
    }
    let mut fused = optimized.clone();
    pm_passes::AlgebraicCombination.run(&mut fused);
    let mut o1 = base.clone();
    PassManager::at_opt_level(1).run(&mut o1);

    for (route, graph) in
        [("interp@O1", &o1), ("interp@O2", &optimized), ("interp@O2+fusion", &fused)]
    {
        if let Err(e) = compare((*graph).clone()) {
            return fail(route, e);
        }
    }
    let lowered_routes: [(&str, &SrDfg, TargetMap); 3] = [
        ("lowered@host", &optimized, host_targets()),
        ("lowered@cross-domain", &optimized, cross_domain_targets()),
        ("lowered@cross-domain+fusion", &fused, cross_domain_targets()),
    ];
    for (route, graph, targets) in lowered_routes {
        match lowered_route((*graph).clone(), &targets) {
            Ok(lowered) => {
                if let Err(e) = compare(lowered) {
                    return fail(route, e);
                }
            }
            Err(e) => return fail(route, e),
        }
    }
    if let Some(profile) = cfg.chaos {
        let route = format!("chaos@{profile}");
        match chaos_route(optimized.clone(), &cross_domain_targets(), cfg, profile) {
            Ok(survivor) => {
                if let Err(e) = compare(survivor) {
                    return fail(&route, e);
                }
            }
            Err(e) => return fail(&route, e),
        }
    }
    CaseResult::Pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PExpr, PStmt, RedKind};
    use pmlang::Domain;

    fn dot_program() -> PProgram {
        PProgram {
            n: 4,
            stmts: vec![
                PStmt::Map(
                    PExpr::Mul(Box::new(PExpr::Var(0)), Box::new(PExpr::Var(1))),
                    Some(Domain::Dsp),
                ),
                PStmt::Reduce(RedKind::Sum, PExpr::Var(2), None),
            ],
            state_update: None,
            wrap: None,
        }
    }

    #[test]
    fn clean_case_passes_every_route() {
        let prog = dot_program();
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [0.5, -1.0, 2.0, 0.25];
        let result = check_case(&prog, &xs, &ys, &[0.0; 4], &DiffConfig::default());
        assert!(matches!(result, CaseResult::Pass), "{result:?}");
    }

    #[test]
    fn sabotage_is_detected() {
        let prog = PProgram {
            n: 4,
            stmts: vec![PStmt::Map(
                PExpr::Add(Box::new(PExpr::Var(0)), Box::new(PExpr::Var(1))),
                None,
            )],
            state_update: None,
            wrap: None,
        };
        let cfg = DiffConfig { sabotage: true, ..DiffConfig::default() };
        let result = check_case(&prog, &[1.0; 4], &[1.0; 4], &[0.0; 4], &cfg);
        let CaseResult::Fail(f) = result else { panic!("sabotage went undetected: {result:?}") };
        assert!(f.route.starts_with("interp@O"), "{f}");
    }

    #[test]
    fn chaos_routes_match_the_oracle() {
        let prog = dot_program();
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [0.5, -1.0, 2.0, 0.25];
        for profile in [ChaosProfile::Transient, ChaosProfile::Hostile] {
            for seed in 0..8u64 {
                let cfg =
                    DiffConfig { chaos: Some(profile), chaos_seed: seed, ..Default::default() };
                let result = check_case(&prog, &xs, &ys, &[0.0; 4], &cfg);
                assert!(matches!(result, CaseResult::Pass), "{profile} seed {seed}: {result:?}");
            }
        }
    }

    #[test]
    fn chaos_route_survives_stateful_programs() {
        let prog = PProgram {
            n: 3,
            stmts: vec![PStmt::Reduce(RedKind::Sum, PExpr::State, None)],
            state_update: Some(PExpr::Add(Box::new(PExpr::State), Box::new(PExpr::Lit(1.0)))),
            wrap: None,
        };
        let cfg =
            DiffConfig { chaos: Some(ChaosProfile::Hostile), chaos_seed: 5, ..Default::default() };
        let result = check_case(&prog, &[0.0; 3], &[0.0; 3], &[1.0, 2.0, 3.0], &cfg);
        assert!(matches!(result, CaseResult::Pass), "{result:?}");
    }

    #[test]
    fn analyze_route_catches_out_of_bounds_source() {
        let src = "main(input float x[4], output float y[4]) {
             index i[0:3];
             y[i] = x[i + 4];
         }";
        let feeds = HashMap::from([("x".to_string(), tensor(&[1.0, 2.0, 3.0, 4.0]))]);
        let result = check_source(src, &feeds, &HashMap::new(), &DiffConfig::default());
        let CaseResult::Fail(f) = result else { panic!("expected a failure: {result:?}") };
        assert_eq!(f.route, "analyze@graph");
        assert!(f.detail.contains("PM-E102"), "{f}");
    }

    #[test]
    fn generated_programs_survive_the_analyze_routes() {
        // A small seeded sweep: no generated case may trip the analyzer's
        // error findings or the schedule hazard checks.
        let cfg = crate::FuzzConfig { seed: 0xA11A, cases: 40, ..Default::default() };
        let report = crate::run_fuzz(&cfg);
        assert!(report.failure.is_none(), "{:?}", report.failure);
    }

    #[test]
    fn state_persists_across_invocations() {
        let prog = PProgram {
            n: 3,
            stmts: vec![PStmt::Reduce(RedKind::Sum, PExpr::State, None)],
            state_update: Some(PExpr::Add(Box::new(PExpr::State), Box::new(PExpr::Lit(1.0)))),
            wrap: None,
        };
        let result =
            check_case(&prog, &[0.0; 3], &[0.0; 3], &[1.0, 2.0, 3.0], &DiffConfig::default());
        assert!(matches!(result, CaseResult::Pass), "{result:?}");
    }
}

//! The traced replay: the serve engine's and `pmc compile`'s steps, called
//! one layer at a time through the stack's public entry points, in the
//! order the engine calls them, with a span around each call.
//!
//! Serve: parse → frontend → build → mid-end → fingerprint → cache lookup
//! → [Algorithm 1 → post-lower → Algorithm 2 → insert] → `Machine::new` →
//! per invocation `run_chaos` + `invoke` → render.
//! Compile: frontend → build → mid-end → graph analysis → Algorithm 1 →
//! post-lower → Algorithm 2 → hazard analysis → SoC pricing.

use crate::trace::Tracer;
use pm_accel::{ChaosOutcome, FallbackRecord, PerfEstimate, SocPool, TrajectoryOutcome};
use pm_lower::{compile_program_budgeted, lower_budgeted, CompiledProgram, ProgramKey};
use pm_passes::{Pass, PassManager};
use polymath::{standard_soc, Compiler, Json, Request, ServeConfig};
use srdfg::{Budget, Machine, Modifier, Tensor};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Counts gathered at the same boundaries as the spans.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub ops: u64,
    pub invocations: u64,
    pub rewrites: u64,
    pub progcache_hits: u64,
    pub progcache_lookups: u64,
    pub template_hits: u64,
    pub template_lookups: u64,
    pub compiles: u64,
    pub fragments: u64,
    pub lowered_nodes: u64,
    pub retries: u64,
    pub replayed: u64,
    pub virtual_ns: u64,
}

/// A single-threaded copy of the serve engine's state: one cross-domain
/// compiler (template and program caches) and a SoC pool shaped like the
/// engine's.
pub struct ServeReplica {
    compiler: Compiler,
    pool: SocPool,
}

impl ServeReplica {
    pub fn new(cfg: &ServeConfig) -> ServeReplica {
        let compiler = Compiler::cross_domain();
        let templates = compiler.template_cache();
        let pool = SocPool::new(cfg.shards, |_| {
            let mut soc = standard_soc();
            soc.with_template_cache(templates.clone());
            soc
        });
        ServeReplica { compiler, pool }
    }

    /// Handles one request line and returns the rendered `outputs` object.
    ///
    /// # Errors
    ///
    /// The first layer error, rendered.
    pub fn handle(&self, tr: &mut Tracer, line: &str, c: &mut Counts) -> Result<String, String> {
        let req = tr.span("serve.parse", |_| Request::parse(line)).map_err(|e| e.to_string())?;
        let Request::Run(r) = req else {
            return Err("not a run request".into());
        };
        c.ops += 1;
        let budget = Budget::new(r.deadline_ms.map(Duration::from_millis), r.fuel);
        let targets = self.compiler.targets();
        let (program, _) = tr
            .span("pmlang.frontend", |_| pmlang::frontend(&r.program))
            .map_err(|e| e.to_string())?;
        let mut graph = tr
            .span("srdfg.build", |_| srdfg::build(&program, &r.sizes))
            .map_err(|e| e.to_string())?;
        let passes = tr.span("passes.midend", |_| PassManager::standard().run_timed(&mut graph));
        c.rewrites += passes.iter().map(|p| p.stats.rewrites as u64).sum::<u64>();
        let key = tr.span("lower.fingerprint", |_| ProgramKey::new(&graph, targets));
        let cache = self.compiler.program_cache();
        c.progcache_lookups += 1;
        let compiled = match tr.span("lower.lookup", |_| cache.lookup(&key)) {
            Some(p) => {
                c.progcache_hits += 1;
                p
            }
            None => {
                let compiled =
                    Arc::new(compile_steps(tr, &self.compiler, graph, &budget, c, false)?);
                tr.span("lower.insert", |_| cache.insert(key, Arc::clone(&compiled)));
                compiled
            }
        };

        let shard = self.pool.shard_for(&r.tenant);
        let forced = self.pool.breaker_guard(shard);
        let mut chaos = r.chaos.clone();
        chaos.budget = budget;
        for t in &forced {
            chaos.force_down.insert(t.clone());
        }
        let soc = self.pool.shard(shard);
        let hints = HashMap::new();
        let mut machine = tr.span("srdfg.machine_new", |_| Machine::new((*compiled.graph).clone()));
        for (name, value) in &r.state {
            machine.set_state(name, value.clone());
        }
        let mut current: Option<CompiledProgram> = None;
        let mut outputs = HashMap::new();
        let mut last = None;
        let mut total = PerfEstimate::default();
        let (mut faults, mut retries, mut retried_dma, mut virtual_ns, mut replayed) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut fallbacks: Vec<FallbackRecord> = Vec::new();
        let invocations = r.invocations.max(1);
        for k in 0..invocations {
            let checkpoint = checkpoint_states(&machine);
            let inv_cfg = chaos.for_invocation(k);
            let prog = current.as_ref().unwrap_or(&compiled);
            let ChaosOutcome { report, relowered } = tr
                .span("accel.dispatch", |_| soc.run_chaos(prog, &hints, &inv_cfg, Some(targets)))
                .map_err(|e| e.to_string())?;
            if let Some(re) = relowered {
                machine = tr.span("srdfg.machine_new", |_| Machine::new((*re.graph).clone()));
                restore_states(&mut machine, &checkpoint);
                current = Some(re);
            }
            if report.faults_injected > 0 {
                tr.span("srdfg.interp", |_| machine.invoke(&r.feeds)).map_err(|e| e.to_string())?;
                restore_states(&mut machine, &checkpoint);
                replayed += 1;
            }
            outputs =
                tr.span("srdfg.interp", |_| machine.invoke(&r.feeds)).map_err(|e| e.to_string())?;
            total = total.then(&report.total);
            faults += report.faults_injected;
            retries += report.retries;
            retried_dma += report.retried_dma_bytes;
            virtual_ns = virtual_ns.saturating_add(report.virtual_ns);
            for f in &report.fallbacks {
                if !fallbacks.iter().any(|seen| seen.target == f.target) {
                    fallbacks.push(f.clone());
                }
            }
            last = Some(report);
        }
        c.invocations += invocations;
        c.retries += retries;
        c.replayed += replayed;
        c.virtual_ns += virtual_ns;
        let outcome = TrajectoryOutcome {
            outputs,
            last: last.ok_or("no invocation ran")?,
            total,
            invocations,
            replayed_invocations: replayed,
            checkpoints: invocations,
            faults_injected: faults,
            retries,
            retried_dma_bytes: retried_dma,
            virtual_ns,
            fallbacks,
        };
        self.pool.record_served(shard, &r.tenant, &outcome, &forced);
        Ok(tr.span("serve.render", |_| render_outputs(&outcome.outputs)))
    }
}

/// Renders outputs the way a serve response does: names sorted, each a
/// `{"dims":[..],"values":[..]}` object.
fn render_outputs(outputs: &HashMap<String, Tensor>) -> String {
    let mut names: Vec<&String> = outputs.keys().collect();
    names.sort();
    Json::Obj(
        names
            .into_iter()
            .map(|n| {
                let t = &outputs[n];
                let dims = Json::Arr(t.shape().iter().map(|&d| Json::Num(d as f64)).collect());
                let values = match t.as_real_slice() {
                    Some(s) => Json::Arr(s.iter().map(|&v| Json::Num(v)).collect()),
                    None => Json::Null,
                };
                (n.clone(), Json::Obj(vec![("dims".into(), dims), ("values".into(), values)]))
            })
            .collect(),
    )
    .render()
}

/// The pre-invocation value of every state edge (zeros when unset), as
/// the SoC runtime checkpoints it before each dispatch (its helper is
/// private, so the replica carries a copy).
fn checkpoint_states(machine: &Machine) -> Vec<(String, Tensor)> {
    let graph = machine.graph();
    graph
        .boundary_inputs
        .iter()
        .filter(|&&e| graph.edge(e).meta.modifier == Modifier::State)
        .map(|&e| {
            let meta = &graph.edge(e).meta;
            let value = machine
                .state(&meta.name)
                .cloned()
                .unwrap_or_else(|| Tensor::zeros(meta.dtype, meta.shape.clone()));
            (meta.name.to_string(), value)
        })
        .collect()
}

fn restore_states(machine: &mut Machine, checkpoint: &[(String, Tensor)]) {
    for (name, value) in checkpoint {
        machine.set_state(name, value.clone());
    }
}

/// Algorithm 1, post-lower clean-up and Algorithm 2 on a mid-ended graph,
/// with hazard analysis when `hazards` is set (the `pmc compile` path).
fn compile_steps(
    tr: &mut Tracer,
    compiler: &Compiler,
    mut graph: srdfg::SrDfg,
    budget: &Budget,
    c: &mut Counts,
    hazards: bool,
) -> Result<CompiledProgram, String> {
    let targets = compiler.targets();
    let templates = compiler.template_cache();
    let before = templates.stats();
    tr.span("lower.alg1", |_| lower_budgeted(&mut graph, targets, Some(&templates), budget))
        .map_err(|e| e.to_string())?;
    let delta = templates.stats().since(&before);
    c.template_hits += delta.hits;
    c.template_lookups += delta.hits + delta.misses;
    tr.span("lower.post_lower", |_| {
        pm_passes::ElideMarshalling.run(&mut graph);
        pm_passes::PruneUnusedInputs.run(&mut graph);
    });
    let compiled = tr
        .span("lower.alg2", |_| compile_program_budgeted(Arc::new(graph), targets, true, budget))
        .map_err(|e| e.to_string())?;
    if hazards {
        tr.span("analyze.hazards", |_| pm_analyze::analyze_schedule(&compiled, targets));
    }
    c.compiles += 1;
    c.fragments += compiled.partitions.iter().map(|p| p.fragments.len() as u64).sum::<u64>();
    c.lowered_nodes += compiled.graph.node_count() as u64;
    Ok(compiled)
}

/// One compile-large op, layer by layer: what `pmc compile` does in
/// process — a fresh cross-domain compiler, the `compile_timed` steps,
/// then `standard_soc().run` — returning the simulated seconds.
///
/// # Errors
///
/// The first layer error, rendered.
pub fn compile_op(tr: &mut Tracer, source: &str, c: &mut Counts) -> Result<f64, String> {
    c.ops += 1;
    let compiler = Compiler::cross_domain();
    let (program, _) =
        tr.span("pmlang.frontend", |_| pmlang::frontend(source)).map_err(|e| e.to_string())?;
    let mut graph = tr
        .span("srdfg.build", |_| srdfg::build(&program, &srdfg::Bindings::default()))
        .map_err(|e| e.to_string())?;
    let passes = tr.span("passes.midend", |_| PassManager::standard().run_timed(&mut graph));
    c.rewrites += passes.iter().map(|p| p.stats.rewrites as u64).sum::<u64>();
    tr.span("analyze.graph", |_| pm_analyze::analyze_graph(&graph));
    let compiled = compile_steps(tr, &compiler, graph, &Budget::unlimited(), c, true)?;
    let report = tr
        .span("accel.price", |_| standard_soc().run(&compiled, &HashMap::new()))
        .map_err(|e| e.to_string())?;
    Ok(report.total.seconds)
}

//! Algorithm 2 — compilation from a lowered srDFG to accelerator IR.
//!
//! ```text
//! function CompileProgram(srdfg, AccSpec)
//!     let πd ← ∅ for d ∈ Domains
//!     for each n ∈ N do
//!         let (+d, md) = AccSpec[n.domain]
//!         let t = md[n.name]
//!         πd = πd + t(srdfg, n)
//!         for each in_edge ∈ n: if n.domain ≠ in_edge.src.domain then
//!             πd = πd + t_load(in_edge, n)
//!         for each out_edge ∈ n: if n.domain ≠ out_edge.dst.domain then
//!             πd = πd + t_store(n, out_edge)
//!     return πd1, …, πdn
//! ```
//!
//! Translation here produces a target-neutral [`Fragment`] per node — the
//! operation name, typed/shaped argument descriptors derived from edge
//! metadata (the paper's five argument-assignment steps), and the scalar-op
//! count — accumulated into one [`AccProgram`] per target. `load`/`store`
//! fragments are inserted wherever a value crosses a domain boundary; the
//! accelerator backends (crate `pm-accel`) play the role of the
//! "accelerator-provided compilers" that turn each fragment stream into an
//! executable schedule.

use crate::lower::{fully_lowered, LowerError};
use crate::spec::TargetMap;
use pmlang::{DType, Domain};
use srdfg::budget::Budget;
use srdfg::{Consed, EdgeId, EdgeMeta, Ident, Machine, Modifier, NodeId, Prepared, SrDfg};
use std::any::Any;
use std::sync::{Arc, OnceLock};

/// A typed, shaped argument of a fragment: a handle on the interned edge
/// metadata plus the edge itself. Building one is two refcount bumps —
/// fragments share the graph's metadata records instead of re-copying
/// name strings and shape vectors per argument.
#[derive(Debug, Clone, PartialEq)]
pub struct ArgInfo {
    /// Interned `(name, type, type-modifier, shape)` metadata of the edge.
    pub meta: Consed<EdgeMeta>,
    /// The underlying graph edge.
    pub edge: EdgeId,
}

impl ArgInfo {
    /// Source-level name of the value.
    pub fn name(&self) -> &str {
        &self.meta.name
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.meta.dtype
    }

    /// Type modifier.
    pub fn modifier(&self) -> Modifier {
        self.meta.modifier
    }

    /// Concrete shape (empty = scalar).
    pub fn shape(&self) -> &[usize] {
        &self.meta.shape
    }

    /// Number of elements the argument carries.
    pub fn volume(&self) -> usize {
        self.meta.shape.iter().product()
    }
}

/// What a fragment does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragmentKind {
    /// An accelerator compute operation.
    Compute,
    /// A DMA load from another domain (or from the host).
    Load,
    /// A DMA store toward another domain (or the host).
    Store,
}

/// One accelerator-IR fragment: a basic operator and its arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Fragment {
    /// Accelerator operation name (shared handle; compute fragments alias
    /// their node's name, DMA fragments a per-compile `load`/`store`).
    pub op: Ident,
    /// Kind of fragment.
    pub kind: FragmentKind,
    /// The originating graph node (compute fragments).
    pub node: Option<NodeId>,
    /// Input arguments.
    pub inputs: Vec<ArgInfo>,
    /// Output arguments.
    pub outputs: Vec<ArgInfo>,
    /// Scalar operations this fragment performs (cost-model basis).
    pub ops: u64,
}

impl Fragment {
    /// Bytes moved by a load/store fragment.
    pub fn bytes(&self) -> u64 {
        self.inputs
            .iter()
            .chain(&self.outputs)
            .map(|a| {
                let per = if a.dtype() == DType::Complex { 8 } else { 4 };
                a.volume() as u64 * per
            })
            .sum()
    }
}

/// The accumulated IR `πd` for one target.
#[derive(Debug, Clone, PartialEq)]
pub struct AccProgram {
    /// Target accelerator name.
    pub target: String,
    /// Primary domain this partition serves (`None` = host glue; a domain
    /// can spread over several targets under per-component overrides).
    pub domain: Option<Domain>,
    /// Fragment stream in dependency (topological) order.
    pub fragments: Vec<Fragment>,
}

impl AccProgram {
    /// Total compute scalar-ops in this partition.
    pub fn compute_ops(&self) -> u64 {
        self.fragments.iter().filter(|f| f.kind == FragmentKind::Compute).map(|f| f.ops).sum()
    }

    /// Total DMA bytes (loads + stores).
    pub fn dma_bytes(&self) -> u64 {
        self.fragments.iter().filter(|f| f.kind != FragmentKind::Compute).map(Fragment::bytes).sum()
    }
}

/// A fully compiled program: the lowered graph plus per-target IR.
///
/// The graph is held behind an [`Arc`]: a lowered srDFG can run to
/// hundreds of thousands of nodes, and cloning it into every compiled
/// artifact (and again into every runtime machine) used to dominate the
/// `compile` stage. Readers deref transparently; the rare consumer that
/// needs an owned mutable graph (fallback re-lowering) clones explicitly.
///
/// A program is read-only once compiled: [`CompiledProgram::machine`]
/// and [`CompiledProgram::memo`] keep state derived from `graph` and
/// `partitions`, so edit a clone (which starts without a memo), never a
/// program that has already run.
pub struct CompiledProgram {
    /// The lowered srDFG (functional ground truth; backends execute it).
    pub graph: Arc<SrDfg>,
    /// One partition per target that received at least one fragment.
    pub partitions: Vec<AccProgram>,
    /// `graph` prepared for execution, shared by every machine handed out.
    prepared: Arc<Prepared>,
    /// Derived data a layer above keeps for exactly this program's
    /// lifetime; see [`CompiledProgram::memo`].
    memo: OnceLock<Box<dyn Any + Send + Sync>>,
}

impl std::fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("graph", &self.graph)
            .field("partitions", &self.partitions)
            .finish()
    }
}

impl Clone for CompiledProgram {
    fn clone(&self) -> Self {
        CompiledProgram {
            graph: Arc::clone(&self.graph),
            partitions: self.partitions.clone(),
            prepared: Arc::clone(&self.prepared),
            memo: OnceLock::new(),
        }
    }
}

impl CompiledProgram {
    fn new(graph: Arc<SrDfg>, partitions: Vec<AccProgram>) -> Self {
        let prepared = Arc::new(Prepared::new(Arc::clone(&graph)));
        CompiledProgram { graph, partitions, prepared, memo: OnceLock::new() }
    }

    /// A fresh interpreter for the lowered graph, with zeroed state. Every
    /// machine from one program shares the graph and its execution order
    /// (computed on the first invocation, not at compile time), so handing
    /// one out copies nothing.
    pub fn machine(&self) -> Machine {
        if Arc::ptr_eq(self.prepared.graph(), &self.graph) {
            Machine::from_prepared(Arc::clone(&self.prepared))
        } else {
            // `graph` was replaced after compilation.
            Machine::new(Arc::clone(&self.graph))
        }
    }

    /// This program's memo of type `T`, created empty on first use. It
    /// lives exactly as long as the program — a [`crate::ProgramCache`]
    /// eviction drops it with the entry — and a clone starts without one.
    /// The SoC keeps its cycle-model prices here. A program holds one memo
    /// type: asking for a different `T` afterwards returns `None`.
    pub fn memo<T: Any + Send + Sync + Default>(&self) -> Option<&T> {
        self.memo.get_or_init(|| Box::new(T::default())).downcast_ref()
    }

    /// The first partition for `domain`, if any fragments landed there.
    pub fn partition(&self, domain: Option<Domain>) -> Option<&AccProgram> {
        self.partitions.iter().find(|p| p.domain == domain)
    }

    /// The partition compiled for a specific target name.
    pub fn partition_by_target(&self, target: &str) -> Option<&AccProgram> {
        self.partitions.iter().find(|p| p.target == target)
    }
}

/// Runs Algorithm 2 over a lowered graph. The compiled artifact aliases
/// the caller's [`Arc`]; the graph is never cloned.
///
/// An expired `budget` turns the request away at entry (one fuel unit per
/// graph node) before any fragment is built.
///
/// # Errors
///
/// Returns a [`LowerError`] if the graph still contains operations its
/// targets do not support (run [`crate::lower::lower`] first), or,
/// carrying [`LowerError::budget`], on cancellation.
pub fn compile_program(
    graph: Arc<SrDfg>,
    targets: &TargetMap,
    budget: &Budget,
) -> Result<CompiledProgram, LowerError> {
    if !fully_lowered(&graph, targets) {
        return Err(LowerError::msg("graph contains unsupported operations; lower it first"));
    }
    // One fuel unit per node: Algorithm 2 is a single sweep, so the entry
    // charge both prices the work about to happen and turns an expired
    // request away before any fragment is built.
    budget.charge("compile", graph.node_slots() as u64)?;
    let order = graph.topo_order();
    let n_nodes = graph.node_slots();
    let n_edges = graph.edge_count();

    // Resolve every node's target once up front, as a dense index table
    // (node raw id → index into `tlist`); the fragment builders share this
    // read-only assignment, and integer comparisons replace the string
    // hashing that used to dominate per-edge work. `tlist` keeps
    // first-touch (topological) order; a partition's domain is the domain
    // of its first node (the paper's πd, one per accelerator — a domain
    // can host two accelerators under overrides).
    let mut tlist: Vec<(&str, Option<Domain>)> = Vec::new();
    let mut assign: Vec<u32> = vec![u32::MAX; n_nodes];
    let mut n_of: Vec<usize> = Vec::new();
    for &id in &order {
        let node = graph.node(id);
        let name = targets.target_for(node, graph.domain).name.as_str();
        let ti = match tlist.iter().position(|&(t, _)| t == name) {
            Some(i) => i,
            None => {
                tlist.push((name, node.domain.or(graph.domain)));
                n_of.push(0);
                tlist.len() - 1
            }
        };
        assign[id.0 as usize] = ti as u32;
        n_of[ti] += 1;
    }
    // The host target's index (host partitions never pay DMA); boundary
    // inputs are sourced from host memory. u32::MAX when the host received
    // no nodes — then unequal to every real index, as it must be.
    let host_name = targets.host().name.as_str();
    let host_ti: u32 =
        tlist.iter().position(|&(t, _)| t == host_name).map_or(u32::MAX, |i| i as u32);

    let mut is_boundary_out = vec![false; n_edges];
    for e in &graph.boundary_outputs {
        is_boundary_out[e.0 as usize] = true;
    }

    // Reserve one compute fragment per node up front: a single-accelerator
    // program puts every node in one partition, and doubling growth would
    // re-copy the whole fragment stream several times over.
    let mut parts: Vec<AccProgram> = tlist
        .iter()
        .zip(n_of)
        .map(|(&(t, domain), n)| AccProgram {
            target: t.to_string(),
            domain,
            fragments: Vec::with_capacity(n),
        })
        .collect();

    // One sweep in topological order appends each node's fragments to its
    // partition: the DMA loads that precede its compute fragment (a value
    // is loaded once per destination accelerator, by its first consumer
    // there), the compute fragment, and the stores that follow it.
    let arg_info = |e: EdgeId| -> ArgInfo { ArgInfo { meta: graph.edge(e).meta.clone(), edge: e } };
    let load_op: Ident = "load".into();
    let store_op: Ident = "store".into();
    let mut loaded = vec![false; tlist.len() * n_edges];
    for &id in &order {
        let ti = assign[id.0 as usize];
        let node = graph.node(id);
        let fragments = &mut parts[ti as usize].fragments;
        // t_load for operands produced on another accelerator (or fed by
        // the host through the graph boundary).
        for &e in &node.inputs {
            let src_ti = match graph.edge(e).producer {
                Some((p, _)) => assign[p.0 as usize],
                None => host_ti, // boundary input: host memory
            };
            let slot = ti as usize * n_edges + e.0 as usize;
            if src_ti != ti && !loaded[slot] {
                loaded[slot] = true;
                fragments.push(Fragment {
                    op: load_op.clone(),
                    kind: FragmentKind::Load,
                    node: None,
                    inputs: vec![arg_info(e)],
                    outputs: vec![],
                    ops: 0,
                });
            }
        }
        // t(srdfg, n): the compute fragment.
        fragments.push(Fragment {
            op: node.name.clone(),
            kind: FragmentKind::Compute,
            node: Some(id),
            inputs: node.inputs.iter().map(|&e| arg_info(e)).collect(),
            outputs: node.outputs.iter().map(|&e| arg_info(e)).collect(),
            ops: srdfg::graph::node_op_count(node),
        });
        // t_store for results consumed on another accelerator (or leaving
        // through the graph boundary toward the host).
        for &e in &node.outputs {
            let edge = graph.edge(e);
            let crosses = edge.consumers.iter().any(|&(c, _)| assign[c.0 as usize] != ti)
                || (is_boundary_out[e.0 as usize] && ti != host_ti);
            if crosses {
                fragments.push(Fragment {
                    op: store_op.clone(),
                    kind: FragmentKind::Store,
                    node: None,
                    inputs: vec![],
                    outputs: vec![arg_info(e)],
                    ops: 0,
                });
            }
        }
    }
    parts.sort_by_key(|p| (p.domain, p.target.clone()));
    Ok(CompiledProgram::new(graph, parts))
}

/// [`compile_program`] under its former name; `parallel` is ignored. It
/// exists only because the frozen benchmark replica
/// (`perfbench/src/replay.rs`) calls it.
#[doc(hidden)]
pub fn compile_program_budgeted(
    graph: Arc<SrDfg>,
    targets: &TargetMap,
    _parallel: bool,
    budget: &Budget,
) -> Result<CompiledProgram, LowerError> {
    compile_program(graph, targets, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::spec::AcceleratorSpec;

    fn two_domain_graph() -> SrDfg {
        let prog = pmlang::parse(
            "filt(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i] * 0.5; }
             clas(input float x[4], param float w[4], output float y) {
                 index i[0:3];
                 y = sigmoid(sum[i](w[i]*x[i]));
             }
             main(input float sig[4], param float w[4], output float cls) {
                 float filtered[4];
                 DSP: filt(sig, filtered);
                 DA: clas(filtered, w, cls);
             }",
        )
        .unwrap();
        srdfg::build(&prog, &srdfg::Bindings::default()).unwrap()
    }

    fn targets() -> TargetMap {
        let host = AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics);
        let mut t = TargetMap::host_only(host);
        t.set(AcceleratorSpec::new(
            "DECO",
            Domain::Dsp,
            ["add", "sub", "mul", "const", "unpack", "pack"],
        ));
        t.set(AcceleratorSpec::new(
            "TABLA",
            Domain::DataAnalytics,
            ["add", "sub", "mul", "sigmoid", "const", "unpack", "pack"],
        ));
        t
    }

    #[test]
    fn partitions_by_domain_with_dma() {
        let mut g = two_domain_graph();
        let t = targets();
        lower(&mut g, &t, None, &Budget::unlimited()).unwrap();
        let compiled = compile_program(Arc::new(g), &t, &Budget::unlimited()).unwrap();

        let dsp = compiled.partition(Some(Domain::Dsp)).expect("dsp partition");
        let da = compiled.partition(Some(Domain::DataAnalytics)).expect("da partition");
        assert_eq!(dsp.target, "DECO");
        assert_eq!(da.target, "TABLA");
        assert!(dsp.compute_ops() > 0);
        assert!(da.compute_ops() > 0);

        // The DSP partition loads the host input and stores toward DA.
        assert!(dsp.fragments.iter().any(|f| f.kind == FragmentKind::Load));
        assert!(dsp.fragments.iter().any(|f| f.kind == FragmentKind::Store));
        // The DA partition loads the filtered vector and the host param,
        // then stores the classification to the host.
        assert!(da.fragments.iter().filter(|f| f.kind == FragmentKind::Load).count() >= 2);
        assert!(da.fragments.iter().any(|f| f.kind == FragmentKind::Store));
        assert!(dsp.dma_bytes() > 0);
    }

    #[test]
    fn rejects_unlowered_graph() {
        let g = two_domain_graph();
        let t = targets();
        assert!(compile_program(Arc::new(g), &t, &Budget::unlimited()).is_err());
    }

    #[test]
    fn single_domain_program_has_one_accel_partition() {
        let prog = pmlang::parse(
            "main(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i] + 1.0; }",
        )
        .unwrap();
        let g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let host = AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics);
        let t = TargetMap::host_only(host);
        let compiled = compile_program(Arc::new(g), &t, &Budget::unlimited()).unwrap();
        assert_eq!(compiled.partitions.len(), 1);
        assert_eq!(compiled.partitions[0].target, "CPU");
        // Host partition needs no DMA fragments.
        assert_eq!(compiled.partitions[0].dma_bytes(), 0);
    }

    #[test]
    fn fragment_args_carry_modifiers_and_shapes() {
        let prog = pmlang::parse(
            "main(input float x[4], state float s[4], output float y[4]) {
                 index i[0:3];
                 s[i] = s[i] + x[i];
                 y[i] = s[i];
             }",
        )
        .unwrap();
        let g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        let host = AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics);
        let t = TargetMap::host_only(host);
        let compiled = compile_program(Arc::new(g), &t, &Budget::unlimited()).unwrap();
        let frags = &compiled.partitions[0].fragments;
        let add = frags.iter().find(|f| f.op == "map.add").expect("add fragment");
        assert!(add.inputs.iter().any(|a| a.modifier() == Modifier::State && a.shape() == [4]));
    }
}

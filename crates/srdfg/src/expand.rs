//! On-demand refinement of srDFG nodes to finer granularities.
//!
//! The paper's srDFG gives *simultaneous access to all levels of operation
//! granularity*: every node `n` carries its own finer-grained `n.srdfg`.
//! Materializing scalar graphs for large tensors up front would need
//! billions of nodes, so this module derives a node's sub-srDFG on demand:
//!
//! * **Component** nodes already hold their inlined body graph.
//! * A **Reduce** with a compound body splits into an elementwise `Map`
//!   producing the element tensor plus a *pure* reduction over it (the
//!   paper's Fig. 5 ③: `mvmul` = element-wise `×` feeding a `sum` group
//!   node).
//! * A **Map** with a compound kernel splits into a chain of single-op maps.
//! * A single-op `Map` or pure `Reduce` expands to **scalar** granularity:
//!   one node per scalar operation, with `Unpack`/`Pack` marshalling nodes
//!   at the tensor boundary (paper Fig. 5 ④⑤: element-wise multiplication
//!   nodes and the adder tree inside `sum`).
//!
//! Every refinement returns a graph whose boundary edges match the original
//! node's operand/result edges, so [`SrDfg::splice`] can substitute it —
//! exactly the replacement step of the paper's Algorithm 1.

use crate::graph::{
    map_op_name, EdgeId, EdgeMeta, IndexRange, MapSpec, Modifier, Node, NodeKind, ReduceOp,
    ReduceSpec, ScalarKind, SrDfg, WriteSpec,
};
use crate::hash::FxBuildHasher;
use crate::ident::Ident;
use crate::interp::for_each_point;
use crate::kernel::KExpr;
use crate::store::{intern, sharing_disabled, Consed};
use pmlang::{BinOp, BuiltinReduction, DType, ScalarFunc, Span};
use std::collections::HashMap;
use std::fmt;

/// Limits for scalar expansion.
#[derive(Debug, Clone, Copy)]
pub struct ExpandOptions {
    /// Maximum number of scalar nodes a single expansion may create.
    pub max_nodes: usize,
}

impl Default for ExpandOptions {
    fn default() -> Self {
        ExpandOptions { max_nodes: 4_000_000 }
    }
}

/// Why a node could not be refined.
#[derive(Debug, Clone, PartialEq)]
pub enum RefineError {
    /// The node is already at the finest granularity.
    AtFinestGranularity(String),
    /// Scalar expansion would exceed [`ExpandOptions::max_nodes`].
    TooLarge {
        /// Node name.
        name: String,
        /// Estimated node count.
        estimated: usize,
        /// Configured limit.
        limit: usize,
    },
    /// A reduction condition or operand index depends on runtime data and
    /// cannot be resolved during static expansion.
    DataDependent(String),
    /// The operation has no scalar expansion (e.g. `argmax`).
    Unsupported(String),
}

impl fmt::Display for RefineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefineError::AtFinestGranularity(n) => {
                write!(f, "node `{n}` is already at the finest granularity")
            }
            RefineError::TooLarge { name, estimated, limit } => {
                write!(f, "expanding `{name}` would create ~{estimated} nodes (limit {limit})")
            }
            RefineError::DataDependent(n) => {
                write!(f, "node `{n}` has data-dependent indexing and cannot expand statically")
            }
            RefineError::Unsupported(n) => write!(f, "node `{n}` has no scalar expansion"),
        }
    }
}

impl std::error::Error for RefineError {}

/// Derives the next-finer-granularity sub-srDFG for node `id` — the
/// paper's `n.srdfg`. The result's boundary matches the node's operand and
/// result edges, ready for [`SrDfg::splice`].
///
/// # Errors
///
/// See [`RefineError`].
pub fn refine(
    graph: &SrDfg,
    id: crate::graph::NodeId,
    opts: &ExpandOptions,
) -> Result<SrDfg, RefineError> {
    let node = graph.node(id);
    let in_metas: Vec<Consed<EdgeMeta>> =
        node.inputs.iter().map(|&e| graph.edge(e).meta.clone()).collect();
    let out_metas: Vec<Consed<EdgeMeta>> =
        node.outputs.iter().map(|&e| graph.edge(e).meta.clone()).collect();
    refine_node(node, &in_metas, &out_metas, opts)
}

/// [`refine`] on a detached node (metadata supplied explicitly).
pub fn refine_node(
    node: &Node,
    in_metas: &[Consed<EdgeMeta>],
    out_metas: &[Consed<EdgeMeta>],
    opts: &ExpandOptions,
) -> Result<SrDfg, RefineError> {
    match &node.kind {
        NodeKind::Component(sub) => Ok((**sub).clone()),
        NodeKind::Reduce(spec) => {
            if spec.body.compute_op_count() > 0 {
                Ok(decompose_reduce(node, spec, in_metas, out_metas))
            } else {
                expand_reduce(node, spec, in_metas, out_metas, opts)
            }
        }
        NodeKind::Map(spec) => {
            if spec.kernel.compute_op_count() > 1 {
                Ok(split_map(node, spec, in_metas, out_metas))
            } else {
                expand_map(node, spec, in_metas, out_metas, opts)
            }
        }
        NodeKind::Scalar(_)
        | NodeKind::ConstTensor(_)
        | NodeKind::Load
        | NodeKind::Store
        | NodeKind::Unpack
        | NodeKind::Pack => Err(RefineError::AtFinestGranularity(node.name.to_string())),
    }
}

/// True when [`refine_node`] would take the scalar-expansion path — the
/// expensive, O(tensor-volume) leg of Algorithm 1 and the only one worth
/// template-caching. Component inlining and map/reduce decompositions are
/// cheap and instance-specific (their interiors carry source names), so
/// they are never cached.
pub fn scalar_expansion_eligible(node: &Node) -> bool {
    match &node.kind {
        NodeKind::Map(spec) => spec.kernel.compute_op_count() <= 1,
        NodeKind::Reduce(spec) => spec.body.compute_op_count() == 0,
        _ => false,
    }
}

/// [`refine_node`] in *canonical form* for the template cache: the node's
/// instance provenance (domain, target, span) is stripped before
/// expansion, so the returned graph carries synthetic spans and no domain
/// and can be shared by every structurally equal instance.
/// [`SrDfg::splice_template`] stamps the instance's provenance back on,
/// reproducing exactly what a direct (non-canonical) expansion would have
/// produced after splicing.
pub fn refine_node_canonical(
    node: &Node,
    in_metas: &[Consed<EdgeMeta>],
    out_metas: &[Consed<EdgeMeta>],
    opts: &ExpandOptions,
) -> Result<SrDfg, RefineError> {
    debug_assert!(scalar_expansion_eligible(node));
    let mut canon = node.clone();
    canon.domain = None;
    canon.target = None;
    canon.span = Span::synthetic();
    refine_node(&canon, in_metas, out_metas, opts)
}

/// [`refine`] that routes scalar expansions through the canonical form
/// (to be instantiated with [`SrDfg::splice_template`]) and every other
/// refinement through the plain path (instantiated with
/// [`SrDfg::splice`]). Algorithm 1 uses this for all refinement so cached
/// and uncached lowering agree byte-for-byte.
pub fn refine_for_splice(
    graph: &SrDfg,
    id: crate::graph::NodeId,
    opts: &ExpandOptions,
) -> Result<SrDfg, RefineError> {
    let node = graph.node(id);
    if scalar_expansion_eligible(node) {
        let in_metas: Vec<Consed<EdgeMeta>> =
            node.inputs.iter().map(|&e| graph.edge(e).meta.clone()).collect();
        let out_metas: Vec<Consed<EdgeMeta>> =
            node.outputs.iter().map(|&e| graph.edge(e).meta.clone()).collect();
        refine_node_canonical(node, &in_metas, &out_metas, opts)
    } else {
        refine(graph, id, opts)
    }
}

/// Reduce with compound body → Map(body) into an element tensor + pure
/// Reduce over it.
fn decompose_reduce(
    node: &Node,
    spec: &ReduceSpec,
    in_metas: &[Consed<EdgeMeta>],
    out_metas: &[Consed<EdgeMeta>],
) -> SrDfg {
    let mut g = SrDfg::new(format!("{}.decomposed", node.name));
    g.domain = node.domain;
    let ins: Vec<EdgeId> = in_metas.iter().map(|m| g.add_edge(m.clone())).collect();
    let out = g.add_edge(out_metas[0].clone());
    g.boundary_inputs = ins.clone();
    g.boundary_outputs = vec![out];

    let combined: Vec<IndexRange> = spec.out_space.iter().chain(&spec.red_space).cloned().collect();
    let combined_shape: Vec<usize> = combined.iter().map(IndexRange::size).collect();
    let temp = g.add_edge(
        EdgeMeta::new(
            format!("{}.elems", node.name),
            element_dtype(in_metas),
            Modifier::Temp,
            combined_shape.clone(),
        )
        .at(node.span),
    );

    // Zero-based identity write even when ranges start above zero.
    let lhs: Vec<KExpr> = combined
        .iter()
        .enumerate()
        .map(|(d, r)| {
            if r.lo == 0 {
                KExpr::Idx(d)
            } else {
                KExpr::Binary(
                    BinOp::Sub,
                    Box::new(KExpr::Idx(d)),
                    Box::new(KExpr::Const(r.lo as f64)),
                )
            }
        })
        .collect();
    let map_spec = MapSpec {
        out_space: combined.clone(),
        kernel: spec.body.clone(),
        write: WriteSpec { target_shape: combined_shape, lhs: lhs.clone(), carried: false },
    };
    let map_name = map_op_name(&map_spec.kernel);
    g.add_node_at(
        map_name,
        NodeKind::map(map_spec),
        node.domain,
        ins.clone(),
        vec![temp],
        node.span,
    );

    // Pure reduce over the element tensor; the original inputs stay
    // available for the condition (and carry slot 0, if any).
    let temp_slot = ins.len();
    let red_spec = ReduceSpec {
        op: spec.op.clone(),
        out_space: spec.out_space.clone(),
        red_space: spec.red_space.clone(),
        cond: spec.cond.clone(),
        body: KExpr::Operand { slot: temp_slot, indices: lhs },
        write: spec.write.clone(),
    };
    let mut red_inputs = ins;
    red_inputs.push(temp);
    g.add_node_at(
        spec.op.name().to_string(),
        NodeKind::reduce(red_spec),
        node.domain,
        red_inputs,
        vec![out],
        node.span,
    );
    g
}

/// Map with compound kernel → chain of single-op maps.
///
/// Note: at this granularity a `Select` becomes a three-input select op
/// whose branch kernels are *both* materialized (eager evaluation), as on
/// the real fabrics — predication, not branching. Programs that rely on a
/// ternary to guard out-of-range accesses should use reduction conditions
/// instead (as the conv/pooling generators do); the interpreter's lazy
/// ternary is a convenience of the reference semantics.
fn split_map(
    node: &Node,
    spec: &MapSpec,
    in_metas: &[Consed<EdgeMeta>],
    out_metas: &[Consed<EdgeMeta>],
) -> SrDfg {
    let mut g = SrDfg::new(format!("{}.split", node.name));
    g.domain = node.domain;
    let ins: Vec<EdgeId> = in_metas.iter().map(|m| g.add_edge(m.clone())).collect();
    let out = g.add_edge(out_metas[0].clone());
    g.boundary_inputs = ins.clone();
    g.boundary_outputs = vec![out];

    let out_dims: Vec<usize> = spec.out_space.iter().map(IndexRange::size).collect();
    let mut temp_counter = 0u32;

    // Recursively emit single-op maps; leaves stay inline.
    struct Ctx<'a> {
        g: &'a mut SrDfg,
        ins: &'a [EdgeId],
        out_space: &'a [IndexRange],
        out_dims: &'a [usize],
        domain: Option<pmlang::Domain>,
        temp_counter: &'a mut u32,
        span: Span,
    }
    fn is_leaf(k: &KExpr) -> bool {
        matches!(k, KExpr::Const(_) | KExpr::Idx(_) | KExpr::Operand { .. })
    }
    /// Returns an expression usable inside a parent single-op kernel: a leaf
    /// unchanged, or an identity read of a freshly produced temp.
    fn emit(ctx: &mut Ctx<'_>, k: &KExpr, extra: &mut Vec<EdgeId>) -> KExpr {
        if is_leaf(k) {
            return k.clone();
        }
        // Make children leaves first.
        let rebuilt = match k {
            KExpr::Unary(op, e) => KExpr::Unary(*op, Box::new(emit(ctx, e, extra))),
            KExpr::Binary(op, a, b) => {
                KExpr::Binary(*op, Box::new(emit(ctx, a, extra)), Box::new(emit(ctx, b, extra)))
            }
            KExpr::Select(c, a, b) => KExpr::Select(
                Box::new(emit(ctx, c, extra)),
                Box::new(emit(ctx, a, extra)),
                Box::new(emit(ctx, b, extra)),
            ),
            KExpr::Call(f, args) => {
                KExpr::Call(*f, args.iter().map(|a| emit(ctx, a, extra)).collect())
            }
            leaf => leaf.clone(),
        };
        // Emit this single op into a temp.
        *ctx.temp_counter += 1;
        let temp = ctx.g.add_edge(
            EdgeMeta::new(
                format!("t{}", ctx.temp_counter),
                DType::Float,
                Modifier::Temp,
                ctx.out_dims.to_vec(),
            )
            .at(ctx.span),
        );
        // Kernel operands: the node's inputs are the boundary operands the
        // leaves reference plus temps read at identity indices. We keep slot
        // numbering equal to the *global* boundary slots, then append temps.
        // To do that we pass all boundary edges plus accumulated temps.
        let mut node_inputs: Vec<EdgeId> = ctx.ins.to_vec();
        node_inputs.extend(extra.iter().copied());
        let lhs: Vec<KExpr> = ctx
            .out_space
            .iter()
            .enumerate()
            .map(|(d, r)| {
                if r.lo == 0 {
                    KExpr::Idx(d)
                } else {
                    KExpr::Binary(
                        BinOp::Sub,
                        Box::new(KExpr::Idx(d)),
                        Box::new(KExpr::Const(r.lo as f64)),
                    )
                }
            })
            .collect();
        let ms = MapSpec {
            out_space: ctx.out_space.to_vec(),
            kernel: rebuilt,
            write: WriteSpec {
                target_shape: ctx.out_dims.to_vec(),
                lhs: lhs.clone(),
                carried: false,
            },
        };
        let name = map_op_name(&ms.kernel);
        ctx.g.add_node_at(name, NodeKind::map(ms), ctx.domain, node_inputs, vec![temp], ctx.span);
        extra.push(temp);
        // Read the temp back at zero-based identity positions.
        KExpr::Operand { slot: ctx.ins.len() + extra.len() - 1, indices: lhs }
    }

    let mut extra: Vec<EdgeId> = Vec::new();
    let mut ctx = Ctx {
        g: &mut g,
        ins: &ins,
        out_space: &spec.out_space,
        out_dims: &out_dims,
        domain: node.domain,
        temp_counter: &mut temp_counter,
        span: node.span,
    };
    // Rebuild the kernel so its root children are leaves, then emit the
    // final op with the original write spec.
    let final_kernel = match &spec.kernel {
        KExpr::Unary(op, e) => KExpr::Unary(*op, Box::new(emit(&mut ctx, e, &mut extra))),
        KExpr::Binary(op, a, b) => KExpr::Binary(
            *op,
            Box::new(emit(&mut ctx, a, &mut extra)),
            Box::new(emit(&mut ctx, b, &mut extra)),
        ),
        KExpr::Select(c, a, b) => KExpr::Select(
            Box::new(emit(&mut ctx, c, &mut extra)),
            Box::new(emit(&mut ctx, a, &mut extra)),
            Box::new(emit(&mut ctx, b, &mut extra)),
        ),
        KExpr::Call(f, args) => {
            KExpr::Call(*f, args.iter().map(|a| emit(&mut ctx, a, &mut extra)).collect())
        }
        leaf => leaf.clone(),
    };
    let mut node_inputs = ins.clone();
    node_inputs.extend(extra.iter().copied());
    let ms = MapSpec {
        out_space: spec.out_space.clone(),
        kernel: final_kernel,
        write: spec.write.clone(),
    };
    let name = map_op_name(&ms.kernel);
    g.add_node_at(name, NodeKind::map(ms), node.domain, node_inputs, vec![out], node.span);
    g
}

/// Infers the element dtype for reduce decomposition temporaries.
fn element_dtype(in_metas: &[Consed<EdgeMeta>]) -> DType {
    if in_metas.iter().any(|m| m.dtype == DType::Complex) {
        DType::Complex
    } else {
        DType::Float
    }
}

// ---- scalar expansion ------------------------------------------------

struct Expander<'a> {
    g: SrDfg,
    ins: Vec<EdgeId>,
    in_metas: &'a [Consed<EdgeMeta>],
    /// Per-slot unpacked element edges (created lazily).
    unpacked: Vec<Option<Vec<EdgeId>>>,
    domain: Option<pmlang::Domain>,
    nodes_created: usize,
    limit: usize,
    name: String,
    /// Source span of the node being expanded, inherited by every scalar
    /// node/edge so diagnostics on the expanded graph still point at the
    /// originating statement.
    span: Span,
    /// Value-numbered constants (by `f64` bits): one `const` node per
    /// distinct value. Unrolled expansions repeat the same literal per
    /// index point (k-means emits one `0.0`/`1.0` pair per element, FFT
    /// one sign constant per butterfly); on the fabrics those are a
    /// single wired constant, and sharing them shrinks the expansion by
    /// up to a third.
    consts: HashMap<u64, EdgeId, FxBuildHasher>,
    /// Interned unnamed-scalar-temp metadata per dtype. Every scalar temp
    /// this expansion creates has identical content (empty name, `Temp`,
    /// scalar shape, the expansion's span), so a million-edge expansion
    /// touches the global [`crate::store`] interner (one lock per call)
    /// once per dtype instead of once per edge.
    scalar_meta: HashMap<DType, Consed<EdgeMeta>, FxBuildHasher>,
    /// Interned scalar-op payloads keyed by structural hash (with an `==`
    /// confirmation), for the same lock-avoidance reason: an adder tree
    /// interns `Bin(Add)` once, not once per adder.
    scalar_kinds: HashMap<u64, Consed<ScalarKind>, FxBuildHasher>,
    /// Shared node-name `Ident`s: all `mul` nodes of one expansion alias
    /// a single string allocation. Downstream sweeps (the lowering scan,
    /// `fully_lowered`) memoize per allocation, so a fabric answers a
    /// handful of support questions instead of one per node.
    names: HashMap<String, Ident, FxBuildHasher>,
}

impl<'a> Expander<'a> {
    fn new(node: &Node, in_metas: &'a [Consed<EdgeMeta>], limit: usize) -> Self {
        let mut g = SrDfg::new(format!("{}.scalar", node.name));
        g.domain = node.domain;
        let ins: Vec<EdgeId> = in_metas.iter().map(|m| g.add_edge(m.clone())).collect();
        g.boundary_inputs = ins.clone();
        Expander {
            g,
            ins,
            in_metas,
            unpacked: vec![None; in_metas.len()],
            domain: node.domain,
            nodes_created: 0,
            limit,
            name: node.name.to_string(),
            span: node.span,
            consts: HashMap::default(),
            scalar_meta: HashMap::default(),
            scalar_kinds: HashMap::default(),
            names: HashMap::default(),
        }
    }

    /// The shared metadata record for an unnamed scalar temp of `dtype`
    /// (see the `scalar_meta` field). In unshared mode every call interns
    /// fresh, mirroring the flat representation's one-value-per-edge.
    fn scalar_temp_meta(&mut self, dtype: DType) -> Consed<EdgeMeta> {
        let span = self.span;
        let make = || intern(EdgeMeta::new(String::new(), dtype, Modifier::Temp, vec![]).at(span));
        if sharing_disabled() {
            return make();
        }
        self.scalar_meta.entry(dtype).or_insert_with(make).clone()
    }

    /// Per-expander interning of scalar-op payloads (see `scalar_kinds`).
    fn intern_scalar(&mut self, kind: ScalarKind) -> Consed<ScalarKind> {
        if sharing_disabled() {
            return intern(kind);
        }
        let h = crate::hash::scalar_kind_hash(&kind);
        if let Some(c) = self.scalar_kinds.get(&h) {
            if **c == kind {
                return c.clone();
            }
        }
        let c = intern(kind);
        self.scalar_kinds.insert(h, c.clone());
        c
    }

    fn budget(&mut self, n: usize) -> Result<(), RefineError> {
        self.nodes_created += n;
        if self.nodes_created > self.limit {
            Err(RefineError::TooLarge {
                name: self.name.clone(),
                estimated: self.nodes_created,
                limit: self.limit,
            })
        } else {
            Ok(())
        }
    }

    /// The shared `Ident` for a node name (bypassed in unshared mode so
    /// every node carries its own allocation, like the flat path).
    fn name_ident(&mut self, name: &str) -> Ident {
        if sharing_disabled() {
            return Ident::from(name);
        }
        if let Some(i) = self.names.get(name) {
            return i.clone();
        }
        let id = Ident::from(name);
        self.names.insert(name.to_string(), id.clone());
        id
    }

    fn scalar_edge(&mut self, _label: &str, dtype: DType) -> EdgeId {
        let meta = self.scalar_temp_meta(dtype);
        self.g.add_edge(meta)
    }

    /// Element edge `flat` of operand `slot`, materializing its Unpack node
    /// on first use.
    fn element(&mut self, slot: usize, flat: usize) -> Result<EdgeId, RefineError> {
        if self.unpacked[slot].is_none() {
            let meta = &self.in_metas[slot];
            let n = meta.volume();
            self.budget(1)?;
            // Element edges are unnamed: at FFT-scale expansions (10⁶+
            // edges) per-element name strings would dominate memory —
            // and interned, they all share one metadata record.
            let span = self.span;
            let dtype = meta.dtype;
            let elem_meta = self.scalar_temp_meta(dtype);
            let elems: Vec<EdgeId> = (0..n).map(|_| self.g.add_edge(elem_meta.clone())).collect();
            let unpack_name = self.name_ident("unpack");
            self.g.add_node_at(
                unpack_name,
                NodeKind::Unpack,
                self.domain,
                vec![self.ins[slot]],
                elems.clone(),
                span,
            );
            self.unpacked[slot] = Some(elems);
        }
        Ok(self.unpacked[slot].as_ref().unwrap()[flat])
    }

    fn const_node(&mut self, v: f64) -> Result<EdgeId, RefineError> {
        // Bit-level dedup: `-0.0`/`0.0` stay distinct and NaN shares with
        // itself — finer than float `==`, so no value is ever conflated.
        if let Some(&e) = self.consts.get(&v.to_bits()) {
            return Ok(e);
        }
        self.budget(1)?;
        let e = self.scalar_edge("c", DType::Float);
        let const_name = self.name_ident("const");
        self.g.add_node_at(
            const_name,
            NodeKind::scalar(ScalarKind::Const(v)),
            self.domain,
            vec![],
            vec![e],
            self.span,
        );
        self.consts.insert(v.to_bits(), e);
        Ok(e)
    }

    /// Expands a kernel at a fixed index point into scalar nodes, returning
    /// the edge carrying the result.
    fn expand_expr(&mut self, k: &KExpr, point: &[i64]) -> Result<EdgeId, RefineError> {
        // Subtrees with no operand reads are compile-time constants at a
        // fixed index point (e.g. FFT twiddle factors): fold them, exactly
        // as an unrolling accelerator compiler bakes them into the fabric.
        if !matches!(k, KExpr::Const(_)) && k.max_slot().is_none() && !has_arg(k) {
            if let Ok(v) = k.eval(point, &[], &[]) {
                match v {
                    crate::value::Scalar::Real(r) => return self.const_node(r),
                    crate::value::Scalar::Complex(..) => {
                        // Complex constants stay symbolic (Const is real);
                        // fall through to structural expansion.
                    }
                }
            }
        }
        match k {
            KExpr::Const(v) => self.const_node(*v),
            KExpr::Idx(i) => self.const_node(point[*i] as f64),
            KExpr::Arg(_) => Err(RefineError::Unsupported(self.name.clone())),
            KExpr::Operand { slot, indices } => {
                let meta = &self.in_metas[*slot];
                let mut flat = 0usize;
                for (ix, &dim) in indices.iter().zip(&meta.shape) {
                    let v = ix
                        .eval_index(point)
                        .map_err(|_| RefineError::DataDependent(self.name.clone()))?;
                    if v < 0 || v as usize >= dim {
                        return Err(RefineError::DataDependent(self.name.clone()));
                    }
                    flat = flat * dim + v as usize;
                }
                self.element(*slot, flat)
            }
            KExpr::Unary(op, e) => {
                let a = self.expand_expr(e, point)?;
                self.op_node(ScalarKind::Un(*op), &op_label(k), vec![a])
            }
            KExpr::Binary(op, a, b) => {
                let ea = self.expand_expr(a, point)?;
                let eb = self.expand_expr(b, point)?;
                self.op_node(ScalarKind::Bin(*op), &op_label(k), vec![ea, eb])
            }
            KExpr::Select(c, a, b) => {
                let ec = self.expand_expr(c, point)?;
                let ea = self.expand_expr(a, point)?;
                let eb = self.expand_expr(b, point)?;
                self.op_node(ScalarKind::Select, "select", vec![ec, ea, eb])
            }
            KExpr::Call(f, args) => {
                let es: Vec<EdgeId> =
                    args.iter().map(|a| self.expand_expr(a, point)).collect::<Result<_, _>>()?;
                self.op_node(ScalarKind::Func(*f), f.name(), es)
            }
        }
    }

    fn op_node(
        &mut self,
        kind: ScalarKind,
        name: &str,
        inputs: Vec<EdgeId>,
    ) -> Result<EdgeId, RefineError> {
        self.budget(1)?;
        let kind = NodeKind::Scalar(self.intern_scalar(kind));
        let out = self.scalar_edge(name, DType::Float);
        let name = self.name_ident(name);
        self.g.add_node_at(name, kind, self.domain, inputs, vec![out], self.span);
        Ok(out)
    }

    /// Finishes the graph: packs `elements` (row-major over `out_meta.shape`)
    /// into the boundary output.
    fn finish(mut self, out_meta: &Consed<EdgeMeta>, elements: Vec<EdgeId>) -> SrDfg {
        let out = self.g.add_edge(out_meta.clone());
        let pack_name = self.name_ident("pack");
        self.g.add_node_at(pack_name, NodeKind::Pack, self.domain, elements, vec![out], self.span);
        self.g.boundary_outputs = vec![out];
        self.g
    }
}

/// True if the kernel references combiner arguments.
fn has_arg(k: &KExpr) -> bool {
    match k {
        KExpr::Arg(_) => true,
        KExpr::Const(_) | KExpr::Idx(_) => false,
        KExpr::Operand { indices, .. } => indices.iter().any(has_arg),
        KExpr::Unary(_, e) => has_arg(e),
        KExpr::Binary(_, a, b) => has_arg(a) || has_arg(b),
        KExpr::Select(c, a, b) => has_arg(c) || has_arg(a) || has_arg(b),
        KExpr::Call(_, args) => args.iter().any(has_arg),
    }
}

fn op_label(k: &KExpr) -> String {
    match k {
        KExpr::Binary(op, ..) => match op {
            BinOp::Add => "add".into(),
            BinOp::Sub => "sub".into(),
            BinOp::Mul => "mul".into(),
            BinOp::Div => "div".into(),
            BinOp::Mod => "mod".into(),
            BinOp::Pow => "pow".into(),
            other => format!("cmp.{}", other.symbol()),
        },
        KExpr::Unary(op, _) => match op {
            pmlang::UnOp::Neg => "neg".into(),
            pmlang::UnOp::Not => "not".into(),
        },
        _ => "op".into(),
    }
}

/// Scalar expansion of a (single-op or small) Map node.
fn expand_map(
    node: &Node,
    spec: &MapSpec,
    in_metas: &[Consed<EdgeMeta>],
    out_metas: &[Consed<EdgeMeta>],
    opts: &ExpandOptions,
) -> Result<SrDfg, RefineError> {
    let points = crate::graph::space_size(&spec.out_space);
    let est = points * (spec.kernel.op_count() as usize + 1);
    if est > opts.max_nodes {
        return Err(RefineError::TooLarge {
            name: node.name.to_string(),
            estimated: est,
            limit: opts.max_nodes,
        });
    }
    let mut ex = Expander::new(node, in_metas, opts.max_nodes);
    let out_meta = &out_metas[0];
    let volume = out_meta.volume();
    let mut elements: Vec<Option<EdgeId>> = vec![None; volume];

    let mut point = vec![0i64; spec.out_space.len()];
    let mut err = None;
    for_each_point(&spec.out_space, &mut point, &mut |idx| {
        let r = (|| -> Result<(), RefineError> {
            let val = ex.expand_expr(&spec.kernel, idx)?;
            // Static LHS position.
            let mut flat = 0usize;
            for (l, &dim) in spec.write.lhs.iter().zip(&out_meta.shape) {
                let v = l
                    .eval_index(idx)
                    .map_err(|_| RefineError::DataDependent(node.name.to_string()))?;
                flat = flat * dim + v as usize;
            }
            elements[flat] = Some(val);
            Ok(())
        })();
        if let Err(e) = r {
            err = Some(e);
            return Err(crate::error::ExecError::new("expansion aborted"));
        }
        Ok(())
    })
    .map_err(|_| err.clone().expect("error recorded"))?;

    // Fill unwritten positions from the carry (slot 0) or zero constants.
    let mut final_elems = Vec::with_capacity(volume);
    for (flat, e) in elements.into_iter().enumerate() {
        match e {
            Some(edge) => final_elems.push(edge),
            None if spec.write.carried => final_elems.push(ex.element(0, flat)?),
            None => final_elems.push(ex.const_node(0.0)?),
        }
    }
    Ok(ex.finish(out_meta, final_elems))
}

/// Scalar expansion of a pure Reduce node (adder/combiner trees).
fn expand_reduce(
    node: &Node,
    spec: &ReduceSpec,
    in_metas: &[Consed<EdgeMeta>],
    out_metas: &[Consed<EdgeMeta>],
    opts: &ExpandOptions,
) -> Result<SrDfg, RefineError> {
    if let ReduceOp::Builtin(b) = &spec.op {
        if b.is_arg() {
            return Err(RefineError::Unsupported(node.name.to_string()));
        }
    }
    if let Some(c) = &spec.cond {
        if c.max_slot().is_some() {
            return Err(RefineError::DataDependent(node.name.to_string()));
        }
    }
    let out_points = crate::graph::space_size(&spec.out_space);
    let red_points = crate::graph::space_size(&spec.red_space);
    let est = out_points * red_points.max(1) * 2;
    if est > opts.max_nodes {
        return Err(RefineError::TooLarge {
            name: node.name.to_string(),
            estimated: est,
            limit: opts.max_nodes,
        });
    }

    let mut ex = Expander::new(node, in_metas, opts.max_nodes);
    let out_meta = &out_metas[0];
    let volume = out_meta.volume();
    let mut elements: Vec<Option<EdgeId>> = vec![None; volume];

    let full: Vec<IndexRange> = spec.out_space.iter().chain(&spec.red_space).cloned().collect();
    let out_rank = spec.out_space.len();

    // Gather contributing element edges per output point.
    let mut opoint = vec![0i64; out_rank];
    let mut err: Option<RefineError> = None;
    let out_space = spec.out_space.clone();
    for_each_point(&out_space, &mut opoint, &mut |oidx| {
        let r = (|| -> Result<(), RefineError> {
            let mut contrib: Vec<EdgeId> = Vec::new();
            let mut fpoint = vec![0i64; full.len()];
            fpoint[..out_rank].copy_from_slice(oidx);
            let red_space = spec.red_space.clone();
            let mut rpoint = vec![0i64; red_space.len()];
            let mut inner_err: Option<RefineError> = None;
            for_each_point(&red_space, &mut rpoint, &mut |ridx| {
                fpoint[out_rank..].copy_from_slice(ridx);
                let r2 = (|| -> Result<(), RefineError> {
                    if let Some(c) = &spec.cond {
                        let keep = c
                            .eval(&fpoint, &[], &[])
                            .and_then(|s| s.as_bool())
                            .map_err(|_| RefineError::DataDependent(node.name.to_string()))?;
                        if !keep {
                            return Ok(());
                        }
                    }
                    contrib.push(ex.expand_expr(&spec.body, &fpoint)?);
                    Ok(())
                })();
                if let Err(e) = r2 {
                    inner_err = Some(e);
                    return Err(crate::error::ExecError::new("abort"));
                }
                Ok(())
            })
            .map_err(|_| inner_err.clone().expect("recorded"))?;

            // Balanced combiner tree.
            let result = ex.combine_tree(&spec.op, contrib)?;
            // Static LHS position.
            let mut flat = 0usize;
            for (l, &dim) in spec.write.lhs.iter().zip(&out_meta.shape) {
                let v = l
                    .eval_index(oidx)
                    .map_err(|_| RefineError::DataDependent(node.name.to_string()))?;
                flat = flat * dim + v as usize;
            }
            elements[flat] = Some(result);
            Ok(())
        })();
        if let Err(e) = r {
            err = Some(e);
            return Err(crate::error::ExecError::new("abort"));
        }
        Ok(())
    })
    .map_err(|_| err.clone().expect("recorded"))?;

    let mut final_elems = Vec::with_capacity(volume);
    for (flat, e) in elements.into_iter().enumerate() {
        match e {
            Some(edge) => final_elems.push(edge),
            None if spec.write.carried => final_elems.push(ex.element(0, flat)?),
            None => final_elems.push(ex.const_node(0.0)?),
        }
    }
    Ok(ex.finish(out_meta, final_elems))
}

impl Expander<'_> {
    /// Folds element edges with a balanced combiner tree (the paper's adder
    /// tree inside the `sum` group node, Fig. 5 ⑤).
    fn combine_tree(
        &mut self,
        op: &ReduceOp,
        mut level: Vec<EdgeId>,
    ) -> Result<EdgeId, RefineError> {
        if level.is_empty() {
            let identity = match op {
                ReduceOp::Builtin(b) => b.identity(),
                ReduceOp::Custom { .. } => 0.0,
            };
            return self.const_node(identity);
        }
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut it = level.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => next.push(self.combine_pair(op, a, b)?),
                    None => next.push(a),
                }
            }
            level = next;
        }
        Ok(level.pop().expect("nonempty"))
    }

    fn combine_pair(&mut self, op: &ReduceOp, a: EdgeId, b: EdgeId) -> Result<EdgeId, RefineError> {
        match op {
            ReduceOp::Builtin(BuiltinReduction::Sum) => {
                self.op_node(ScalarKind::Bin(BinOp::Add), "add", vec![a, b])
            }
            ReduceOp::Builtin(BuiltinReduction::Prod) => {
                self.op_node(ScalarKind::Bin(BinOp::Mul), "mul", vec![a, b])
            }
            ReduceOp::Builtin(BuiltinReduction::Max) => {
                self.op_node(ScalarKind::Func(ScalarFunc::Max2), "max2", vec![a, b])
            }
            ReduceOp::Builtin(BuiltinReduction::Min) => {
                self.op_node(ScalarKind::Func(ScalarFunc::Min2), "min2", vec![a, b])
            }
            ReduceOp::Builtin(BuiltinReduction::Any) => {
                self.op_node(ScalarKind::Bin(BinOp::Or), "or", vec![a, b])
            }
            ReduceOp::Builtin(BuiltinReduction::All) => {
                self.op_node(ScalarKind::Bin(BinOp::And), "and", vec![a, b])
            }
            ReduceOp::Builtin(_) => Err(RefineError::Unsupported(self.name.clone())),
            ReduceOp::Custom { combiner, .. } => {
                let k = combiner.clone();
                self.expand_combiner(&k, a, b)
            }
        }
    }

    /// Expands a custom combiner kernel with `Arg(0)`/`Arg(1)` bound to the
    /// given element edges.
    fn expand_combiner(&mut self, k: &KExpr, a: EdgeId, b: EdgeId) -> Result<EdgeId, RefineError> {
        match k {
            KExpr::Arg(0) => Ok(a),
            KExpr::Arg(1) => Ok(b),
            KExpr::Arg(_) => Err(RefineError::Unsupported(self.name.clone())),
            KExpr::Const(v) => self.const_node(*v),
            KExpr::Idx(_) | KExpr::Operand { .. } => {
                Err(RefineError::Unsupported(self.name.clone()))
            }
            KExpr::Unary(op, e) => {
                let ea = self.expand_combiner(e, a, b)?;
                self.op_node(ScalarKind::Un(*op), "un", vec![ea])
            }
            KExpr::Binary(op, x, y) => {
                let ex_ = self.expand_combiner(x, a, b)?;
                let ey = self.expand_combiner(y, a, b)?;
                self.op_node(ScalarKind::Bin(*op), &op_label(k), vec![ex_, ey])
            }
            KExpr::Select(c, x, y) => {
                let ec = self.expand_combiner(c, a, b)?;
                let ex_ = self.expand_combiner(x, a, b)?;
                let ey = self.expand_combiner(y, a, b)?;
                self.op_node(ScalarKind::Select, "select", vec![ec, ex_, ey])
            }
            KExpr::Call(f, args) => {
                let es: Vec<EdgeId> =
                    args.iter().map(|x| self.expand_combiner(x, a, b)).collect::<Result<_, _>>()?;
                self.op_node(ScalarKind::Func(*f), f.name(), es)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, Bindings};
    use crate::interp::{exec_graph, Machine};
    use crate::value::Tensor;
    use std::collections::HashMap;

    fn program_graph(src: &str) -> SrDfg {
        let prog = pmlang::parse(src).unwrap();
        pmlang::check(&prog).unwrap();
        build(&prog, &Bindings::default()).unwrap()
    }

    /// Refining a node and splicing the result must preserve the program's
    /// observable behaviour.
    fn assert_refine_preserves(src: &str, feeds: Vec<(&str, Tensor)>) {
        let graph = program_graph(src);
        let feeds: HashMap<String, Tensor> =
            feeds.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        let mut m = Machine::new(graph.clone());
        let baseline = m.invoke(&feeds).unwrap();

        // Refine every refinable node once, splice, re-run.
        let mut refined = graph.clone();
        let ids: Vec<_> = refined.node_ids().collect();
        let opts = ExpandOptions::default();
        let mut any = false;
        for id in ids {
            if let Ok(sub) = refine(&refined, id, &opts) {
                refined.splice(id, &sub);
                any = true;
            }
        }
        assert!(any, "nothing was refinable");
        let mut m2 = Machine::new(refined);
        let after = m2.invoke(&feeds).unwrap();
        for (k, v) in &baseline {
            let d = v.max_abs_diff(&after[k]).unwrap();
            assert!(d < 1e-9, "output `{k}` diverged by {d}");
        }
    }

    fn vec_t(v: Vec<f64>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(pmlang::DType::Float, vec![n], v).unwrap()
    }

    #[test]
    fn component_refines_to_body() {
        let g = program_graph(
            "f(input float x[2], output float y[2]) { index i[0:1]; y[i] = x[i] + 1.0; }
             main(input float a[2], output float b[2]) { f(a, b); }",
        );
        let comp_id = g
            .iter_nodes()
            .find(|(_, n)| matches!(n.kind, NodeKind::Component(_)))
            .map(|(id, _)| id)
            .unwrap();
        let sub = refine(&g, comp_id, &ExpandOptions::default()).unwrap();
        assert_eq!(sub.name, "f");
        assert!(sub.node_count() >= 1);
    }

    #[test]
    fn reduce_decomposes_then_expands() {
        let g = program_graph(
            "main(input float A[2][3], input float B[3], output float C[2]) {
                 index i[0:2], j[0:1];
                 C[j] = sum[i](A[j][i]*B[i]);
             }",
        );
        let (id, node) =
            g.iter_nodes().find(|(_, n)| matches!(n.kind, NodeKind::Reduce(_))).unwrap();
        assert_eq!(node.name, "matvec");
        // Level 1: decompose into Map(mul) + pure sum.
        let sub = refine(&g, id, &ExpandOptions::default()).unwrap();
        let names: Vec<_> = sub.iter_nodes().map(|(_, n)| n.name.clone()).collect();
        assert!(names.iter().any(|n| n == "map.mul"), "{names:?}");
        assert!(names.iter().any(|n| n == "sum"), "{names:?}");
        // Level 2: the pure sum expands to an adder tree.
        let (rid, _) =
            sub.iter_nodes().find(|(_, n)| matches!(n.kind, NodeKind::Reduce(_))).unwrap();
        let scal = refine(&sub, rid, &ExpandOptions::default()).unwrap();
        let adds = scal
            .iter_nodes()
            .filter(|(_, n)| matches!(&n.kind, NodeKind::Scalar(s) if **s == ScalarKind::Bin(BinOp::Add)))
            .count();
        assert_eq!(adds, 4, "3-wide sums per output, 2 outputs → 2·(3-1) adds");
    }

    #[test]
    fn refinement_preserves_matvec_semantics() {
        assert_refine_preserves(
            "main(input float A[2][3], input float B[3], output float C[2]) {
                 index i[0:2], j[0:1];
                 C[j] = sum[i](A[j][i]*B[i]);
             }",
            vec![
                (
                    "A",
                    Tensor::from_vec(
                        pmlang::DType::Float,
                        vec![2, 3],
                        vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                    )
                    .unwrap(),
                ),
                ("B", vec_t(vec![1.0, -1.0, 2.0])),
            ],
        );
    }

    #[test]
    fn refinement_preserves_compound_map() {
        assert_refine_preserves(
            "main(input float x[4], input float y[4], output float z[4]) {
                 index i[0:3];
                 z[i] = (x[i] + y[i]) * x[i] - 2.0;
             }",
            vec![("x", vec_t(vec![1.0, 2.0, 3.0, 4.0])), ("y", vec_t(vec![0.5, 0.5, 0.5, 0.5]))],
        );
    }

    #[test]
    fn refinement_preserves_partial_write() {
        assert_refine_preserves(
            "main(input float x[6], output float y[6]) {
                 index i[0:5], j[0:2];
                 y[i] = x[i] * 2.0;
                 y[2*j] = x[2*j];
             }",
            vec![("x", vec_t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))],
        );
    }

    #[test]
    fn refinement_preserves_conditional_sum() {
        assert_refine_preserves(
            "main(input float A[3][3], output float s) {
                 index i[0:2], j[0:2];
                 s = sum[i][j: j != i](A[i][j]);
             }",
            vec![(
                "A",
                Tensor::from_vec(
                    pmlang::DType::Float,
                    vec![3, 3],
                    vec![9.0, 1.0, 2.0, 3.0, 9.0, 4.0, 5.0, 6.0, 9.0],
                )
                .unwrap(),
            )],
        );
    }

    #[test]
    fn refinement_preserves_custom_reduction() {
        assert_refine_preserves(
            "reduction mn(a, b) = a < b ? a : b;
             main(input float A[5], output float m) {
                 index i[0:4];
                 m = mn[i](A[i]);
             }",
            vec![("A", vec_t(vec![3.0, 1.0, 4.0, 1.5, 5.0]))],
        );
    }

    #[test]
    fn expansion_respects_node_limit() {
        let g = program_graph(
            "main(input float x[100], output float y[100]) {
                 index i[0:99];
                 y[i] = x[i] + 1.0;
             }",
        );
        let (id, _) = g.iter_nodes().find(|(_, n)| matches!(n.kind, NodeKind::Map(_))).unwrap();
        let err = refine(&g, id, &ExpandOptions { max_nodes: 10 }).unwrap_err();
        assert!(matches!(err, RefineError::TooLarge { .. }), "{err}");
    }

    #[test]
    fn scalar_nodes_are_finest() {
        let g = program_graph(
            "main(input float x[2], output float y[2]) { index i[0:1]; y[i] = x[i] + 1.0; }",
        );
        let (id, _) = g.iter_nodes().find(|(_, n)| matches!(n.kind, NodeKind::Map(_))).unwrap();
        let scal = refine(&g, id, &ExpandOptions::default()).unwrap();
        let (sid, _) =
            scal.iter_nodes().find(|(_, n)| matches!(n.kind, NodeKind::Scalar(_))).unwrap();
        assert!(matches!(
            refine(&scal, sid, &ExpandOptions::default()),
            Err(RefineError::AtFinestGranularity(_))
        ));
    }

    #[test]
    fn expanded_graph_executes_standalone() {
        // Expand a map and execute the scalar graph directly.
        let g = program_graph(
            "main(input float x[3], output float y[3]) { index i[0:2]; y[i] = x[i] * 3.0; }",
        );
        let (id, _) = g.iter_nodes().find(|(_, n)| matches!(n.kind, NodeKind::Map(_))).unwrap();
        let scal = refine(&g, id, &ExpandOptions::default()).unwrap();
        let outs = exec_graph(&scal, vec![Some(vec_t(vec![1.0, 2.0, 3.0]))]).unwrap();
        assert_eq!(outs[0].as_real_slice().unwrap(), &[3.0, 6.0, 9.0]);
    }

    #[test]
    fn argmax_has_no_scalar_expansion() {
        let g = program_graph(
            "main(input float x[4], output float y) { index i[0:3]; y = argmax[i](x[i]); }",
        );
        let (id, _) = g.iter_nodes().find(|(_, n)| matches!(n.kind, NodeKind::Reduce(_))).unwrap();
        assert!(matches!(
            refine(&g, id, &ExpandOptions::default()),
            Err(RefineError::Unsupported(_))
        ));
    }
}

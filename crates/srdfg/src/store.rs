//! The hash-consed payload store backing the srDFG (DESIGN.md §13).
//!
//! Template instantiation used to *materialize* every duplicated node and
//! edge payload: splicing a 100-node expansion cloned 100 `MapSpec`s /
//! `ScalarKind`s and 100 `EdgeMeta`s, so a kmeans-784 lowering heap-copied
//! ~78k kernels that were drawn from a couple dozen distinct values. This
//! module stores each distinct payload **once** in a process-global arena,
//! keyed by the structural hashes [`crate::hash`] already defines, and
//! hands out [`Consed<T>`] handles (shared, immutable, `Deref<Target=T>`).
//! Cloning a handle is a refcount bump, so splicing becomes reference
//! rewiring; equality gets a pointer fast path; and the structural hash of
//! a payload is read back in O(1) from the handle.
//!
//! Interned payloads are **immutable**. Passes that need to diverge one
//! instance (constant folding into a single copy, slot pruning) go through
//! copy-on-write: read the value, clone it, rewrite, re-intern, and store
//! the *new* handle — never mutate through a handle. The graph-side entry
//! points ([`crate::graph::SrDfg::edit_edge_meta`], the `NodeKind`
//! constructors) make that the only expressible discipline.
//!
//! Setting `PM_SRDFG_UNSHARED=1` disables deduplication for the whole
//! process: every intern call allocates a fresh record (fresh address,
//! same structural hash). This is the reference "unshared" configuration
//! the differential suite runs against — byte-for-byte identical compiler
//! output proves sharing is unobservable.

use crate::graph::{EdgeMeta, MapSpec, ReduceSpec, ScalarKind};
use crate::hash::FxBuildHasher;
use crate::value::Tensor;
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One arena record: the payload plus its cached structural hash. The
/// record's address is its identity ([`Consed::ptr_id`]).
pub struct ConsedRec<T> {
    hash: u64,
    value: T,
}

/// A shared handle to an interned payload.
///
/// `Deref<Target = T>` keeps read sites source-compatible; `Debug` is
/// transparent (it prints exactly what the payload would), so digests and
/// diagnostics are unchanged by interning. Equality takes a pointer fast
/// path (shared records are equal by identity) before falling back to
/// hash-then-content comparison.
pub struct Consed<T>(Arc<ConsedRec<T>>);

impl<T> Consed<T> {
    /// The payload's structural hash, cached at intern time.
    pub fn structural_hash(&self) -> u64 {
        self.0.hash
    }

    /// Address identity of the shared record — stable for the life of the
    /// handle, equal exactly for handles sharing one record (one per
    /// distinct value per type while sharing is enabled; one per intern
    /// call in unshared mode). Useful as a tiny memo key (e.g. the
    /// per-splice span-stamping cache).
    pub fn ptr_id(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }

    /// Borrows the payload (what `Deref` returns; explicit form for
    /// turbofish-free disambiguation).
    pub fn get(&self) -> &T {
        &self.0.value
    }
}

impl<T> Clone for Consed<T> {
    fn clone(&self) -> Self {
        Consed(Arc::clone(&self.0))
    }
}

impl<T> Deref for Consed<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0.value
    }
}

impl<T: fmt::Debug> fmt::Debug for Consed<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.value.fmt(f)
    }
}

impl<T: PartialEq> PartialEq for Consed<T> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.hash == other.0.hash && self.0.value == other.0.value)
    }
}

/// A payload type the store can intern.
pub trait Internable: Clone + PartialEq + Sized + 'static {
    /// Content digest; equal values must hash equal (see [`crate::hash`]).
    fn structural_hash(&self) -> u64;
    /// Approximate heap footprint of one record (for the sharing report).
    fn heap_bytes(&self) -> usize;
    /// The process-global interner for this type.
    fn interner() -> &'static Mutex<Interner<Self>>;
}

impl<T: Internable> From<T> for Consed<T> {
    fn from(value: T) -> Self {
        intern(value)
    }
}

/// Per-type intern table: structural hash → records with that hash (same-
/// hash different-content collisions chain in the bucket's `Vec`).
pub struct Interner<T> {
    buckets: HashMap<u64, Vec<Consed<T>>, FxBuildHasher>,
    records: u64,
    bytes: u64,
    hits: u64,
}

impl<T> Default for Interner<T> {
    fn default() -> Self {
        Interner { buckets: HashMap::default(), records: 0, bytes: 0, hits: 0 }
    }
}

/// Store generation: bumped whenever any table admits a new record.
/// Analyses memoized against interned payloads (e.g. the pass manager's
/// structural-hash cache) can compare generations instead of rehashing.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// The current store generation (monotone; one tick per new record).
pub fn generation() -> u64 {
    GENERATION.load(Ordering::Relaxed)
}

/// True when `PM_SRDFG_UNSHARED=1` disabled deduplication (read once).
pub fn sharing_disabled() -> bool {
    static UNSHARED: OnceLock<bool> = OnceLock::new();
    *UNSHARED.get_or_init(|| std::env::var("PM_SRDFG_UNSHARED").is_ok_and(|v| v == "1"))
}

/// Interns `value`, returning the shared handle for its content (or a
/// fresh unique record in unshared mode).
pub fn intern<T: Internable>(value: T) -> Consed<T> {
    let hash = value.structural_hash();
    let mut table = T::interner().lock().expect("srdfg store poisoned");
    if sharing_disabled() {
        return table.insert(value, hash);
    }
    if let Some(bucket) = table.buckets.get(&hash) {
        if let Some(found) = bucket.iter().find(|c| c.0.value == value) {
            let found = found.clone();
            table.hits += 1;
            return found;
        }
    }
    table.insert(value, hash)
}

impl<T: Internable> Interner<T> {
    fn insert(&mut self, value: T, hash: u64) -> Consed<T> {
        self.records += 1;
        self.bytes += value.heap_bytes() as u64;
        GENERATION.fetch_add(1, Ordering::Relaxed);
        let handle = Consed(Arc::new(ConsedRec { hash, value }));
        if !sharing_disabled() {
            self.buckets.entry(hash).or_default().push(handle.clone());
        }
        handle
    }

    fn stats(&self) -> TableStats {
        TableStats { records: self.records, bytes: self.bytes, hits: self.hits }
    }
}

/// One intern table's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Distinct records admitted.
    pub records: u64,
    /// Approximate heap bytes those records hold.
    pub bytes: u64,
    /// Intern calls answered by an existing record.
    pub hits: u64,
}

/// Snapshot of every intern table (process-global, monotone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// `MapSpec` table.
    pub map_specs: TableStats,
    /// `ReduceSpec` table.
    pub reduce_specs: TableStats,
    /// `ScalarKind` table.
    pub scalar_kinds: TableStats,
    /// `Tensor` (`ConstTensor`) table.
    pub tensors: TableStats,
    /// `EdgeMeta` table.
    pub edge_metas: TableStats,
    /// Store generation at snapshot time.
    pub generation: u64,
}

impl StoreStats {
    /// Total distinct records across all tables.
    pub fn records(&self) -> u64 {
        self.map_specs.records
            + self.reduce_specs.records
            + self.scalar_kinds.records
            + self.tensors.records
            + self.edge_metas.records
    }

    /// Total approximate arena heap bytes across all tables.
    pub fn bytes(&self) -> u64 {
        self.map_specs.bytes
            + self.reduce_specs.bytes
            + self.scalar_kinds.bytes
            + self.tensors.bytes
            + self.edge_metas.bytes
    }

    /// Total intern calls answered from existing records.
    pub fn hits(&self) -> u64 {
        self.map_specs.hits
            + self.reduce_specs.hits
            + self.scalar_kinds.hits
            + self.tensors.hits
            + self.edge_metas.hits
    }
}

fn table_stats<T: Internable>() -> TableStats {
    T::interner().lock().expect("srdfg store poisoned").stats()
}

/// Snapshots every intern table's counters.
pub fn store_stats() -> StoreStats {
    StoreStats {
        map_specs: table_stats::<MapSpec>(),
        reduce_specs: table_stats::<ReduceSpec>(),
        scalar_kinds: table_stats::<ScalarKind>(),
        tensors: table_stats::<Tensor>(),
        edge_metas: table_stats::<EdgeMeta>(),
        generation: generation(),
    }
}

/// Logical-vs-physical footprint of one graph under the consed store.
///
/// *Logical* counts what a flat (unshared) representation would have
/// materialized: one payload per node, one metadata per edge. *Physical*
/// counts the distinct shared records actually referenced. The
/// materialization ratio `physical / logical` is the headline sharing
/// metric (a lowered kmeans-784 sits well under 25%); in
/// `PM_SRDFG_UNSHARED=1` mode every record is unique and the two columns
/// coincide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharingStats {
    /// Live nodes (component sub-graphs included, recursively).
    pub logical_nodes: u64,
    /// Distinct records behind those nodes: one per unique interned
    /// payload, plus one per payload-free node (`Load`/`Store`/…, and
    /// `Component` shells, which are never shared).
    pub physical_nodes: u64,
    /// Edges (component sub-graphs included).
    pub logical_edges: u64,
    /// Distinct `EdgeMeta` records behind those edges.
    pub physical_edges: u64,
    /// Heap bytes a flat representation would hold for payloads + metas.
    pub logical_bytes: u64,
    /// Heap bytes the distinct shared records hold.
    pub physical_bytes: u64,
}

/// Measures how much of `g` is structurally shared (see [`SharingStats`]).
pub fn sharing_stats(g: &crate::graph::SrDfg) -> SharingStats {
    use std::collections::HashSet;
    let mut s = SharingStats::default();
    let mut seen: HashSet<usize, FxBuildHasher> = HashSet::default();
    fn record<T: Internable>(
        c: &Consed<T>,
        seen: &mut HashSet<usize, FxBuildHasher>,
        s: &mut SharingStats,
    ) -> u64 {
        let bytes = c.heap_bytes() as u64;
        s.logical_bytes += bytes;
        if seen.insert(c.ptr_id()) {
            s.physical_bytes += bytes;
            1
        } else {
            0
        }
    }
    fn walk(
        g: &crate::graph::SrDfg,
        seen: &mut HashSet<usize, FxBuildHasher>,
        s: &mut SharingStats,
    ) {
        use crate::graph::NodeKind;
        for (_, node) in g.iter_nodes() {
            s.logical_nodes += 1;
            s.physical_nodes += match &node.kind {
                NodeKind::Map(m) => record(m, seen, s),
                NodeKind::Reduce(r) => record(r, seen, s),
                NodeKind::Scalar(k) => record(k, seen, s),
                NodeKind::ConstTensor(t) => record(t, seen, s),
                NodeKind::Component(sub) => {
                    walk(sub, seen, s);
                    1
                }
                NodeKind::Load | NodeKind::Store | NodeKind::Unpack | NodeKind::Pack => 1,
            };
        }
        for e in g.edge_ids() {
            s.logical_edges += 1;
            s.physical_edges += record(&g.edge(e).meta, seen, s);
        }
    }
    walk(g, &mut seen, &mut s);
    s
}

macro_rules! global_interner {
    ($ty:ty) => {
        fn interner() -> &'static Mutex<Interner<$ty>> {
            static TABLE: OnceLock<Mutex<Interner<$ty>>> = OnceLock::new();
            TABLE.get_or_init(Default::default)
        }
    };
}

impl Internable for MapSpec {
    fn structural_hash(&self) -> u64 {
        crate::hash::map_spec_hash(self)
    }
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<MapSpec>()
            + space_bytes(&self.out_space)
            + kexpr_bytes(&self.kernel)
            + write_bytes(&self.write)
    }
    global_interner!(MapSpec);
}

impl Internable for ReduceSpec {
    fn structural_hash(&self) -> u64 {
        crate::hash::reduce_spec_hash(self)
    }
    fn heap_bytes(&self) -> usize {
        let op = match &self.op {
            crate::graph::ReduceOp::Builtin(_) => 0,
            crate::graph::ReduceOp::Custom { name, combiner } => name.len() + kexpr_bytes(combiner),
        };
        std::mem::size_of::<ReduceSpec>()
            + op
            + space_bytes(&self.out_space)
            + space_bytes(&self.red_space)
            + self.cond.as_ref().map_or(0, kexpr_bytes)
            + kexpr_bytes(&self.body)
            + write_bytes(&self.write)
    }
    global_interner!(ReduceSpec);
}

impl Internable for ScalarKind {
    fn structural_hash(&self) -> u64 {
        crate::hash::scalar_kind_hash(self)
    }
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<ScalarKind>()
    }
    global_interner!(ScalarKind);
}

impl Internable for Tensor {
    fn structural_hash(&self) -> u64 {
        crate::hash::tensor_hash(self)
    }
    fn heap_bytes(&self) -> usize {
        let per = if self.as_complex_slice().is_some() { 16 } else { 8 };
        std::mem::size_of::<Tensor>() + self.len() * per + self.shape().len() * 8
    }
    global_interner!(Tensor);
}

impl Internable for EdgeMeta {
    fn structural_hash(&self) -> u64 {
        crate::hash::edge_meta_hash(self)
    }
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<EdgeMeta>() + self.name.len() + self.shape.len() * 8
    }
    global_interner!(EdgeMeta);
}

fn space_bytes(space: &[crate::graph::IndexRange]) -> usize {
    space.iter().map(|r| std::mem::size_of::<crate::graph::IndexRange>() + r.name.len()).sum()
}

fn write_bytes(w: &crate::graph::WriteSpec) -> usize {
    w.target_shape.len() * 8 + w.lhs.iter().map(kexpr_bytes).sum::<usize>()
}

/// Approximate deep heap size of a kernel tree (node count × node size).
fn kexpr_bytes(k: &crate::kernel::KExpr) -> usize {
    use crate::kernel::KExpr;
    let node = std::mem::size_of::<KExpr>();
    node + match k {
        KExpr::Const(_) | KExpr::Idx(_) | KExpr::Arg(_) => 0,
        KExpr::Operand { indices, .. } => indices.iter().map(kexpr_bytes).sum(),
        KExpr::Unary(_, a) => kexpr_bytes(a),
        KExpr::Binary(_, a, b) => kexpr_bytes(a) + kexpr_bytes(b),
        KExpr::Select(c, a, b) => kexpr_bytes(c) + kexpr_bytes(a) + kexpr_bytes(b),
        KExpr::Call(_, args) => args.iter().map(kexpr_bytes).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Modifier;
    use pmlang::DType;

    fn meta(name: &str) -> EdgeMeta {
        EdgeMeta::new(name, DType::Float, Modifier::Temp, vec![4])
    }

    #[test]
    fn equal_content_shares_one_record() {
        let a = intern(meta("x"));
        let b = intern(meta("x"));
        if sharing_disabled() {
            assert_ne!(a.ptr_id(), b.ptr_id());
        } else {
            assert_eq!(a.ptr_id(), b.ptr_id());
        }
        assert_eq!(a, b);
        assert_eq!(a.structural_hash(), b.structural_hash());
    }

    #[test]
    fn different_content_gets_distinct_records() {
        let a = intern(meta("x"));
        let b = intern(meta("y"));
        assert_ne!(a.ptr_id(), b.ptr_id());
        assert_ne!(a, b);
    }

    #[test]
    fn debug_is_transparent() {
        let m = meta("x");
        let expect = format!("{m:?}");
        assert_eq!(format!("{:?}", intern(m)), expect);
    }

    #[test]
    fn generation_ticks_on_new_records_only() {
        let g0 = generation();
        let a = intern(meta("gen-probe"));
        let g1 = generation();
        assert!(g1 > g0, "new record must tick the generation");
        let b = intern(meta("gen-probe"));
        if !sharing_disabled() {
            assert_eq!(a.ptr_id(), b.ptr_id());
        }
    }
}

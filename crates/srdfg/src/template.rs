//! Content-addressed cache of scalar-expansion templates.
//!
//! Scalar expansion (the expensive leg of Algorithm 1) re-derives an
//! identical sub-srDFG for every structurally equal `(op, shape)` subtree
//! — an FFT stage expands the same butterfly fabric once per stage, and a
//! re-compile of the same program repeats all of it. This module keys
//! each expansion by its *content* so the expanded graph is built once,
//! stored as an immutable template behind an [`Arc`], and every further
//! instantiation is id-remapping via [`SrDfg::splice_template`] instead
//! of re-recursion.
//!
//! ## Keying scheme
//!
//! A template is addressed by [`TemplateKey`]:
//!
//! * the node **kind** (the full `MapSpec`/`ReduceSpec` content — kernel,
//!   index spaces, write placement — digested by the same structural
//!   hash CSE value-numbers with, see [`crate::hash`]),
//! * the `(dtype, modifier, shape)` triple of every operand and result
//!   edge (shapes decide how many scalar nodes exist and how operand
//!   reads flatten; dtype decides element edges; the modifier is
//!   included defensively),
//! * the expansion budget [`ExpandOptions::max_nodes`] (granularity:
//!   whether an expansion succeeds or aborts with `TooLarge` depends on
//!   it, so caching across different budgets would be unsound).
//!
//! Deliberately **not** part of the key: edge/node *names* and source
//! *spans* (templates are built in canonical form — unnamed interior
//! edges, synthetic spans — and splicing stamps instance provenance back
//! on), the *domain*, and the *target name* (expansion depends on the
//! target only through its budget, so one template serves every fabric
//! that shares it).
//!
//! Hash collisions are resolved by a confirming `==` on the stored key;
//! a fingerprint collision with unequal keys is treated as a miss and
//! the newer template replaces the older (counted as an eviction), which
//! keeps the table deterministic.
//!
//! ## Invalidation
//!
//! Templates are immutable and self-contained (they reference nothing
//! outside themselves), so there is no dependency-driven invalidation —
//! only **capacity** eviction: the cache holds at most `capacity_units`
//! worth of templates (units = template nodes + edges, a proxy for
//! bytes) and evicts least-recently-used entries past that. The handle
//! is cheaply cloneable and thread-safe, so the `pmc serve` workers share
//! one instance.

use crate::expand::ExpandOptions;
use crate::graph::{EdgeMeta, Modifier, Node, NodeKind, SrDfg};
use crate::hash::{hash_kind, FxBuildHasher, FxHasher};
use crate::store::Consed;
use pmlang::DType;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Default capacity, in `nodes + edges` units, of a [`TemplateCache`].
/// Generous enough to hold every distinct expansion of the benchmark
/// workload set simultaneously, small enough to bound memory (~a few
/// hundred MB worst case).
pub const DEFAULT_CAPACITY_UNITS: usize = 1_000_000;

/// The cache-relevant slice of an [`EdgeMeta`]: name and span are
/// provenance, not content.
type MetaKey = (DType, Modifier, Vec<usize>);

fn meta_key(m: &EdgeMeta) -> MetaKey {
    (m.dtype, m.modifier, m.shape.clone())
}

/// Content-address of one scalar expansion. See the module docs for what
/// is (and is not) part of the key.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateKey {
    kind: NodeKind,
    ins: Vec<MetaKey>,
    outs: Vec<MetaKey>,
    max_nodes: usize,
}

impl TemplateKey {
    /// Builds the key for expanding `node` with the given boundary
    /// metadata under `opts`.
    pub fn new(
        node: &Node,
        in_metas: &[Consed<EdgeMeta>],
        out_metas: &[Consed<EdgeMeta>],
        opts: &ExpandOptions,
    ) -> TemplateKey {
        TemplateKey {
            kind: node.kind.clone(),
            ins: in_metas.iter().map(|m| meta_key(m)).collect(),
            outs: out_metas.iter().map(|m| meta_key(m)).collect(),
            max_nodes: opts.max_nodes,
        }
    }

    /// 64-bit fingerprint (the hash-table address; `==` on the full key
    /// confirms).
    pub fn fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        hash_kind(&self.kind, &mut h);
        self.ins.hash(&mut h);
        self.outs.hash(&mut h);
        self.max_nodes.hash(&mut h);
        h.finish()
    }
}

#[derive(Debug)]
struct Entry {
    key: TemplateKey,
    template: Arc<SrDfg>,
    units: usize,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Entry, FxBuildHasher>,
    units: usize,
    capacity_units: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
    bypassed: u64,
}

/// Counter snapshot of a [`TemplateCache`] (see [`TemplateCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemplateCacheStats {
    /// Lookups that returned a template.
    pub hits: u64,
    /// Lookups that found nothing (or collided with an unequal key).
    pub misses: u64,
    /// Templates stored.
    pub inserts: u64,
    /// Templates dropped for capacity (or replaced on collision).
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Resident size in `nodes + edges` units.
    pub units: usize,
    /// Configured capacity in the same units.
    pub capacity_units: usize,
    /// Nodes the planner never consulted the cache for (not
    /// scalar-expansion eligible — e.g. component-flattening refinements
    /// such as the MPC benchmark's, which splice a whole sub-graph rather
    /// than instantiate a scalar template). A warm run showing
    /// `0 hits / 0 misses` with a non-zero `bypassed` count is healthy:
    /// nothing was cacheable, so nothing was looked up.
    pub bypassed: u64,
}

impl TemplateCacheStats {
    /// Hit rate over the lookups these counters cover (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas since an `earlier` snapshot of the same cache
    /// (resident-size fields keep their current values).
    pub fn since(&self, earlier: &TemplateCacheStats) -> TemplateCacheStats {
        TemplateCacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            inserts: self.inserts - earlier.inserts,
            evictions: self.evictions - earlier.evictions,
            bypassed: self.bypassed - earlier.bypassed,
            entries: self.entries,
            units: self.units,
            capacity_units: self.capacity_units,
        }
    }
}

/// Shared, thread-safe handle to a template cache. `Clone` is cheap and
/// aliases the same store — hold one per [`crate::SrDfg`] compiler and
/// thread it through lowering and fallback re-lowering.
#[derive(Debug, Clone)]
pub struct TemplateCache {
    inner: Arc<Mutex<Inner>>,
}

impl Default for TemplateCache {
    fn default() -> Self {
        Self::new()
    }
}

impl TemplateCache {
    /// A cache with [`DEFAULT_CAPACITY_UNITS`].
    pub fn new() -> TemplateCache {
        TemplateCache::with_capacity(DEFAULT_CAPACITY_UNITS)
    }

    /// A cache bounded to `capacity_units` of resident template size
    /// (`nodes + edges`). A single template larger than the whole
    /// capacity is still admitted (alone) — refusing it would make hit
    /// behaviour depend on arrival order in surprising ways.
    pub fn with_capacity(capacity_units: usize) -> TemplateCache {
        TemplateCache { inner: Arc::new(Mutex::new(Inner { capacity_units, ..Inner::default() })) }
    }

    /// Looks up a template, refreshing its LRU position on hit.
    pub fn lookup(&self, key: &TemplateKey) -> Option<Arc<SrDfg>> {
        let fp = key.fingerprint();
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&fp) {
            Some(entry) if entry.key == *key => {
                entry.last_used = tick;
                let t = Arc::clone(&entry.template);
                inner.hits += 1;
                Some(t)
            }
            _ => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores a template. On fingerprint collision with an unequal key
    /// the newer template replaces the older one (counted as an
    /// eviction). Evicts least-recently-used entries while over
    /// capacity.
    pub fn insert(&self, key: TemplateKey, template: Arc<SrDfg>) {
        let fp = key.fingerprint();
        let units = template.node_count() + template.edge_count();
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.insert(fp, Entry { key, template, units, last_used: tick }) {
            inner.units -= old.units;
            inner.evictions += 1;
        }
        inner.units += units;
        inner.inserts += 1;
        // LRU eviction; never evict the entry we just inserted (it holds
        // the freshest tick), so an oversized template survives alone.
        while inner.units > inner.capacity_units && inner.map.len() > 1 {
            let (&fp_lru, _) = inner.map.iter().min_by_key(|(_, e)| e.last_used).expect("len > 1");
            let dropped = inner.map.remove(&fp_lru).expect("present");
            inner.units -= dropped.units;
            inner.evictions += 1;
        }
    }

    /// Records that the lowering planner skipped the cache for a node
    /// because its refinement is not template-shaped (see
    /// [`TemplateCacheStats::bypassed`]).
    pub fn record_bypass(&self) {
        self.inner.lock().unwrap().bypassed += 1;
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> TemplateCacheStats {
        let inner = self.inner.lock().unwrap();
        TemplateCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            inserts: inner.inserts,
            evictions: inner.evictions,
            bypassed: inner.bypassed,
            entries: inner.map.len(),
            units: inner.units,
            capacity_units: inner.capacity_units,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::refine_node_canonical;
    use crate::graph::{IndexRange, MapSpec, WriteSpec};
    use crate::kernel::KExpr;
    use pmlang::BinOp;

    /// An expansion-eligible `x * c` map over `n` elements, detached from
    /// any graph (metadata supplied explicitly).
    fn mul_map(c: f64, n: usize) -> (Node, Vec<Consed<EdgeMeta>>, Vec<Consed<EdgeMeta>>) {
        let kind = NodeKind::map(MapSpec {
            out_space: vec![IndexRange { name: "i".into(), lo: 0, hi: n as i64 - 1 }],
            kernel: KExpr::Binary(
                BinOp::Mul,
                Box::new(KExpr::Operand { slot: 0, indices: vec![KExpr::Idx(0)] }),
                Box::new(KExpr::Const(c)),
            ),
            write: WriteSpec::identity(&[n]),
        });
        let mut g = SrDfg::new("t");
        let x = g.add_edge(EdgeMeta::new("x", DType::Float, Modifier::Input, vec![n]));
        let y = g.add_edge(EdgeMeta::new("y", DType::Float, Modifier::Output, vec![n]));
        let id = g.add_node("mul", kind, None, vec![x], vec![y]);
        let ins = vec![g.edge(x).meta.clone()];
        let outs = vec![g.edge(y).meta.clone()];
        (g.node(id).clone(), ins, outs)
    }

    fn key_of(c: f64, n: usize) -> (TemplateKey, Arc<SrDfg>) {
        let opts = ExpandOptions::default();
        let (node, ins, outs) = mul_map(c, n);
        let key = TemplateKey::new(&node, &ins, &outs, &opts);
        let t = Arc::new(refine_node_canonical(&node, &ins, &outs, &opts).unwrap());
        (key, t)
    }

    #[test]
    fn key_tracks_content_not_names() {
        let opts = ExpandOptions::default();
        let (n1, i1, o1) = mul_map(2.0, 4);
        let (mut n2, mut i2, o2) = mul_map(2.0, 4);
        n2.name = "renamed".into();
        let mut renamed_meta = i2[0].get().clone();
        renamed_meta.name = "other_input".into();
        i2[0] = crate::store::intern(renamed_meta);
        let k1 = TemplateKey::new(&n1, &i1, &o1, &opts);
        let k2 = TemplateKey::new(&n2, &i2, &o2, &opts);
        assert_eq!(k1, k2, "names are provenance, not content");
        assert_eq!(k1.fingerprint(), k2.fingerprint());

        let (n3, i3, o3) = mul_map(3.0, 4); // different constant
        let (n4, i4, o4) = mul_map(2.0, 8); // different shape
        assert_ne!(k1, TemplateKey::new(&n3, &i3, &o3, &opts));
        assert_ne!(k1, TemplateKey::new(&n4, &i4, &o4, &opts));
        // Granularity (the expansion budget) is part of the key.
        let coarse = ExpandOptions { max_nodes: 10 };
        assert_ne!(k1, TemplateKey::new(&n1, &i1, &o1, &coarse));
    }

    #[test]
    fn hit_and_miss_counting() {
        let cache = TemplateCache::new();
        let (key, t) = key_of(2.0, 4);
        assert!(cache.lookup(&key).is_none());
        cache.insert(key.clone(), t);
        assert!(cache.lookup(&key).is_some());
        let (other, _) = key_of(3.0, 4);
        assert!(cache.lookup(&other).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 2, 1, 1));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let (k1, t1) = key_of(1.0, 16);
        let (k2, t2) = key_of(2.0, 16);
        let (k3, t3) = key_of(3.0, 16);
        let unit = t1.node_count() + t1.edge_count();
        // Room for two templates of this size, not three.
        let cache = TemplateCache::with_capacity(unit * 2);
        cache.insert(k1.clone(), t1);
        cache.insert(k2.clone(), t2);
        assert!(cache.lookup(&k1).is_some(), "touch k1 so k2 is the LRU");
        cache.insert(k3.clone(), t3);
        assert!(cache.lookup(&k2).is_none(), "k2 was least recently used");
        assert!(cache.lookup(&k1).is_some());
        assert!(cache.lookup(&k3).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert!(s.units <= s.capacity_units);
    }

    #[test]
    fn oversized_template_survives_alone() {
        let (k1, t1) = key_of(1.0, 16);
        let (k2, t2) = key_of(2.0, 16);
        let cache = TemplateCache::with_capacity(1); // everything is oversized
        cache.insert(k1.clone(), t1);
        cache.insert(k2.clone(), t2);
        assert!(cache.lookup(&k1).is_none(), "displaced by k2");
        assert!(cache.lookup(&k2).is_some(), "newest entry is kept");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn shared_handle_aliases_one_store() {
        let cache = TemplateCache::new();
        let alias = cache.clone();
        let (key, t) = key_of(2.0, 4);
        cache.insert(key.clone(), t);
        assert!(alias.lookup(&key).is_some());
        assert_eq!(alias.stats().inserts, 1);
    }
}

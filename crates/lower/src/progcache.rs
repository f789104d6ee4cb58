//! Content-addressed cache of whole compiled programs.
//!
//! One layer above the [`srdfg::TemplateCache`]: where the template cache
//! memoizes *fragments of lowering work* (scalar expansions), this cache
//! memoizes the *entire compile* — a repeat submission of a structurally
//! identical program against the same target map skips Algorithm 1 and
//! Algorithm 2 outright and reuses the finished [`CompiledProgram`].
//! `pmc serve` consults it on every request, which is what turns the
//! compile-once/serve-many shape into actual served throughput.
//!
//! ## Keying scheme
//!
//! A compiled program is addressed by [`ProgramKey`], the pair of
//!
//! * [`srdfg::graph_fingerprint`] of the **post-midend, pre-lowering**
//!   srDFG — content hashes only, never record addresses, so equal source text
//!   keys equally in both the shared store and `PM_SRDFG_UNSHARED=1`
//!   modes and across processes;
//! * [`crate::TargetMap::fingerprint`] of the target map the compile ran
//!   against — the same graph lowered host-only vs. cross-domain yields
//!   different partitions, so the map must discriminate the key.
//!
//! Compiler *option* knobs that change the post-midend graph (optimize,
//! fuse) need no explicit key component: they are already reflected in
//! the graph fingerprint because it is taken after those passes run.
//!
//! Unlike [`TemplateKey`](srdfg::TemplateKey) there is no stored full key
//! for a confirming `==` — an srDFG compare would cost a graph walk per
//! lookup. The 64-bit pair (128 bits total) makes an accidental collision
//! vanishingly unlikely for a cache of this size; the fingerprint is also
//! deliberately deep (it recurses into component subgraphs and hashes
//! every kernel, shape, and constant), so "equal key, different program"
//! requires an adversarial input, which a simulation service does not
//! face.
//!
//! ## Invalidation
//!
//! Entries are immutable ([`Arc<CompiledProgram>`]) and self-contained,
//! so only **capacity** eviction exists: least-recently-used entries are
//! dropped past `capacity_units`, where an entry's units are its total
//! fragment count plus lowered-graph size (a proxy for bytes).

use crate::compile::CompiledProgram;
use srdfg::FxBuildHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Default capacity, in fragment+node units, of a [`ProgramCache`].
/// Every benchmark-family program compiled for the standard SoC fits
/// simultaneously with room to spare; memory stays bounded for a
/// long-lived serve process.
pub const DEFAULT_CAPACITY_UNITS: usize = 4_000_000;

/// Content-address of one compile: post-midend graph fingerprint plus
/// target-map fingerprint. See the module docs for the derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProgramKey {
    /// [`srdfg::graph_fingerprint`] of the post-midend srDFG.
    pub graph: u64,
    /// [`crate::TargetMap::fingerprint`] of the map compiled against.
    pub targets: u64,
}

impl ProgramKey {
    /// Builds the key from a post-midend graph and the target map the
    /// compile will run against.
    pub fn new(graph: &srdfg::SrDfg, targets: &crate::TargetMap) -> ProgramKey {
        ProgramKey { graph: srdfg::graph_fingerprint(graph), targets: targets.fingerprint() }
    }

    fn fingerprint(&self) -> u64 {
        let mut h = srdfg::FxHasher::default();
        self.hash(&mut h);
        h.finish()
    }
}

#[derive(Debug)]
struct Entry {
    key: ProgramKey,
    program: Arc<CompiledProgram>,
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
}

/// Counter snapshot of a [`ProgramCache`] (see [`ProgramCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramCacheStats {
    /// Lookups that returned a compiled program.
    pub hits: u64,
    /// Lookups that found nothing (or collided with an unequal key).
    pub misses: u64,
    /// Programs stored.
    pub inserts: u64,
    /// Programs dropped for capacity (or replaced on collision).
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Resident size in fragment+node units.
    pub units: usize,
    /// Configured capacity in the same units.
    pub capacity_units: usize,
}

impl ProgramCacheStats {
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
    pub fn since(&self, earlier: &ProgramCacheStats) -> ProgramCacheStats {
        ProgramCacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            inserts: self.inserts - earlier.inserts,
            evictions: self.evictions - earlier.evictions,
            entries: self.entries,
            units: self.units,
            capacity_units: self.capacity_units,
        }
    }
}

fn program_units(p: &CompiledProgram) -> usize {
    let fragments: usize = p.partitions.iter().map(|part| part.fragments.len()).sum();
    fragments + p.graph.node_count() + p.graph.edge_count()
}

/// Shared, thread-safe handle to a compiled-program cache. `Clone` is
/// cheap and aliases the same store — the serve loop holds one instance
/// shared by every shard's compiler.
#[derive(Debug, Clone)]
pub struct ProgramCache {
    inner: Arc<Mutex<Inner>>,
}

impl Default for ProgramCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramCache {
    /// A cache with [`DEFAULT_CAPACITY_UNITS`].
    pub fn new() -> ProgramCache {
        ProgramCache::with_capacity(DEFAULT_CAPACITY_UNITS)
    }

    /// A cache bounded to `capacity_units` of resident program size. A
    /// single program larger than the whole capacity is still admitted
    /// (alone), matching [`srdfg::TemplateCache`] semantics.
    pub fn with_capacity(capacity_units: usize) -> ProgramCache {
        ProgramCache { inner: Arc::new(Mutex::new(Inner { capacity_units, ..Inner::default() })) }
    }

    /// Looks up a compiled program, refreshing its LRU position on hit.
    pub fn lookup(&self, key: &ProgramKey) -> Option<Arc<CompiledProgram>> {
        let fp = key.fingerprint();
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&fp) {
            Some(entry) if entry.key == *key => {
                entry.last_used = tick;
                let p = Arc::clone(&entry.program);
                inner.hits += 1;
                Some(p)
            }
            _ => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores a compiled program. On fingerprint collision with an
    /// unequal key the newer program replaces the older one (counted as
    /// an eviction). Evicts least-recently-used entries while over
    /// capacity.
    pub fn insert(&self, key: ProgramKey, program: Arc<CompiledProgram>) {
        let fp = key.fingerprint();
        let units = program_units(&program);
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.insert(fp, Entry { key, program, units, last_used: tick }) {
            inner.units -= old.units;
            inner.evictions += 1;
        }
        inner.units += units;
        inner.inserts += 1;
        // LRU eviction; never evict the entry just inserted (it holds the
        // freshest tick), so an oversized program survives alone.
        while inner.units > inner.capacity_units && inner.map.len() > 1 {
            let (&fp_lru, _) = inner.map.iter().min_by_key(|(_, e)| e.last_used).expect("len > 1");
            let dropped = inner.map.remove(&fp_lru).expect("present");
            inner.units -= dropped.units;
            inner.evictions += 1;
        }
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ProgramCacheStats {
        let inner = self.inner.lock().unwrap();
        ProgramCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            inserts: inner.inserts,
            evictions: inner.evictions,
            entries: inner.map.len(),
            units: inner.units,
            capacity_units: inner.capacity_units,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AcceleratorSpec, TargetMap};
    use pmlang::Domain;

    fn host_map() -> TargetMap {
        TargetMap::host_only(AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics))
    }

    fn compiled(src: &str) -> (ProgramKey, Arc<CompiledProgram>) {
        let (program, _) = pmlang::frontend(src).unwrap();
        let mut graph = srdfg::build(&program, &srdfg::Bindings::default()).unwrap();
        let targets = host_map();
        let key = ProgramKey::new(&graph, &targets);
        crate::lower(&mut graph, &targets, None, &srdfg::Budget::unlimited()).unwrap();
        (
            key,
            Arc::new(
                crate::compile_program(Arc::new(graph), &targets, &srdfg::Budget::unlimited())
                    .unwrap(),
            ),
        )
    }

    const DOT4: &str = "main(input float x[4], output float y) {
         index i[0:3];
         y = sum[i](x[i]*x[i]);
     }";

    #[test]
    fn key_is_content_addressed() {
        let (program, _) = pmlang::frontend(DOT4).unwrap();
        let g1 = srdfg::build(&program, &srdfg::Bindings::default()).unwrap();
        let g2 = srdfg::build(&program, &srdfg::Bindings::default()).unwrap();
        let targets = host_map();
        assert_eq!(ProgramKey::new(&g1, &targets), ProgramKey::new(&g2, &targets));

        // A different target map must discriminate.
        let mut accel = host_map();
        accel.set(AcceleratorSpec::new("TABLA", Domain::DataAnalytics, ["add", "mul", "sum"]));
        assert_ne!(ProgramKey::new(&g1, &targets), ProgramKey::new(&g1, &accel));

        // Same-domain map built twice keys equally (HashMap order-free).
        let mut accel2 = host_map();
        accel2.set(AcceleratorSpec::new("TABLA", Domain::DataAnalytics, ["add", "mul", "sum"]));
        assert_eq!(ProgramKey::new(&g1, &accel), ProgramKey::new(&g1, &accel2));
    }

    #[test]
    fn hit_and_miss_counting() {
        let cache = ProgramCache::new();
        let (key, prog) = compiled(DOT4);
        assert!(cache.lookup(&key).is_none());
        cache.insert(key, Arc::clone(&prog));
        let hit = cache.lookup(&key).expect("warm lookup hits");
        assert!(Arc::ptr_eq(&hit, &prog), "hit returns the stored program, no clone");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        let later = cache.stats().since(&s);
        assert_eq!((later.hits, later.misses), (0, 0));
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let (k1, p1) = compiled(DOT4);
        let (k2, p2) = compiled(
            "main(input float x[8], output float y) {
                 index i[0:7];
                 y = sum[i](x[i]*x[i]);
             }",
        );
        let (k3, p3) = compiled(
            "main(input float x[4], output float y) {
                 index i[0:3];
                 y = sum[i](x[i]+x[i]);
             }",
        );
        let unit = program_units(&p1).max(program_units(&p2)).max(program_units(&p3));
        let cache = ProgramCache::with_capacity(unit * 2);
        cache.insert(k1, p1);
        cache.insert(k2, p2);
        assert!(cache.lookup(&k1).is_some(), "touch k1 so k2 is the LRU");
        cache.insert(k3, p3);
        assert!(cache.lookup(&k2).is_none(), "k2 was least recently used");
        assert!(cache.lookup(&k1).is_some());
        assert!(cache.lookup(&k3).is_some());
        let s = cache.stats();
        assert!(s.evictions >= 1);
        assert!(s.units <= s.capacity_units);
    }

    #[test]
    fn shared_handle_aliases_one_store() {
        let cache = ProgramCache::new();
        let alias = cache.clone();
        let (key, prog) = compiled(DOT4);
        cache.insert(key, prog);
        assert!(alias.lookup(&key).is_some());
        assert_eq!(alias.stats().inserts, 1);
    }
}

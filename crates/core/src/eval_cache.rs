//! Memoized candidate-evaluation cache.
//!
//! [`ConfigurationSolver::complete`](crate::ConfigurationSolver::complete)
//! is the hot path of the whole search: every node the design solver
//! touches is completed (configuration descent + resource addition) and
//! evaluated against every failure scenario. The search revisits states
//! constantly — refit walks circle back to earlier designs, restarts
//! rebuild the same greedy assignments, and parallel workers explore
//! overlapping neighborhoods — so completion is memoizable.
//!
//! Completion is a *deterministic* function of
//!
//! 1. the candidate's full state — the per-application assignment vector
//!    (technique, configuration, placement) **and** the provision
//!    (resource additions persist on devices even after the applications
//!    that triggered them are reassigned),
//! 2. the requested [`Thoroughness`], and
//! 3. the solver's resource-addition limits,
//!
//! and it never consumes randomness. [`CandidateKey`] fingerprints all
//! three, so replaying a cached completion (the resulting candidate state
//! plus its cost) is *bit-identical* to re-running the solver: cached and
//! uncached searches produce the same best design, the same costs, and
//! the same search trajectory.
//!
//! The cache is a bounded LRU, sharded so that
//! [`Portfolio`](crate::Portfolio) workers can share one cache with low
//! contention. Hit/miss/eviction counters feed the solver's
//! instrumentation ([`SolveStats`](crate::SolveStats)).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Serialize, Value};

use crate::candidate::{Candidate, CostBreakdown};
use crate::config_solver::Thoroughness;

/// Default entry capacity used by [`Portfolio::solve`](crate::Portfolio::solve).
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

const DEFAULT_SHARDS: usize = 8;

/// Stable fingerprint of everything a completion depends on: the
/// assignment vector, the provision state, the thoroughness namespace,
/// and the resource-addition limits.
///
/// Two 64-bit hashes (assignments and provision are digested separately,
/// with distinct tags) make accidental collisions — which would silently
/// splice a wrong design into the search — negligible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CandidateKey {
    assignments: u64,
    provision: u64,
    thoroughness: Thoroughness,
    limits: (usize, usize),
}

impl CandidateKey {
    /// Fingerprints `candidate` for a completion at `thoroughness` under
    /// the given `(quick, full)` addition limits.
    #[must_use]
    pub fn of(candidate: &Candidate, thoroughness: Thoroughness, limits: (usize, usize)) -> Self {
        let mut a = DefaultHasher::new();
        a.write_u8(0xA5);
        for (app, assignment) in candidate.assignments() {
            app.0.hash(&mut a);
            assignment.hash(&mut a);
        }

        let mut p = DefaultHasher::new();
        p.write_u8(0x5A);
        hash_value(&candidate.provision().serialize(), &mut p);

        CandidateKey { assignments: a.finish(), provision: p.finish(), thoroughness, limits }
    }

    fn shard_index(&self, shards: usize) -> usize {
        ((self.assignments ^ self.provision.rotate_left(17)) % shards as u64) as usize
    }
}

/// Structurally hashes a serialized value tree. Floats hash by bit
/// pattern: the solver's arithmetic is deterministic, so equal states
/// have equal bits.
fn hash_value(value: &Value, h: &mut impl Hasher) {
    match value {
        Value::Null => h.write_u8(0),
        Value::Bool(b) => {
            h.write_u8(1);
            h.write_u8(u8::from(*b));
        }
        Value::Int(i) => {
            h.write_u8(2);
            h.write_i64(*i);
        }
        Value::Float(f) => {
            h.write_u8(3);
            h.write_u64(f.to_bits());
        }
        Value::Str(s) => {
            h.write_u8(4);
            h.write(s.as_bytes());
            h.write_u8(0xFF);
        }
        Value::Seq(items) => {
            h.write_u8(5);
            h.write_usize(items.len());
            for item in items {
                hash_value(item, h);
            }
        }
        Value::Map(entries) => {
            h.write_u8(6);
            h.write_usize(entries.len());
            for (k, v) in entries {
                h.write(k.as_bytes());
                h.write_u8(0xFF);
                hash_value(v, h);
            }
        }
    }
}

/// Counter snapshot of a cache's lifetime activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Entries inserted over the cache's lifetime.
    pub inserts: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups that hit, in `[0, 1]`; zero when no lookups.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    stamp: u64,
    candidate: Candidate,
    cost: CostBreakdown,
}

#[derive(Default)]
struct Shard {
    map: HashMap<CandidateKey, Entry>,
}

/// Bounded, sharded LRU cache of completed candidates, safe to share
/// across solver restarts and worker threads.
pub struct EvalCache {
    shards: Box<[Mutex<Shard>]>,
    shard_capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inserts: AtomicU64,
}

impl std::fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalCache")
            .field("capacity", &self.capacity())
            .field("stats", &self.stats())
            .finish()
    }
}

impl EvalCache {
    /// A cache holding at most `capacity` completions (rounded up to a
    /// multiple of the shard count).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count (minimum 1). Total capacity
    /// is split evenly; each shard holds at least one entry.
    #[must_use]
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let shard_capacity = capacity.div_ceil(shards).max(1);
        EvalCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// Maximum number of resident entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// Current number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").map.len()).sum()
    }

    /// True when no entries are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a completed candidate; refreshes its LRU stamp on hit.
    #[must_use]
    pub fn lookup(&self, key: &CandidateKey) -> Option<(Candidate, CostBreakdown)> {
        // Shard-probe frame: the observed latency includes the lock
        // wait, so contention between portfolio workers shows up as a
        // fat tail in `eval_cache.probe_latency`. The stopwatch only
        // runs when a recorder is listening.
        let probe = dsd_obs::enabled().then(dsd_obs::Stopwatch::start);
        let mut shard =
            self.shards[key.shard_index(self.shards.len())].lock().expect("cache shard poisoned");
        if let Some(probe) = probe {
            dsd_obs::observe("eval_cache.probe_latency", probe.elapsed_secs());
        }
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.stamp = self.tick.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                dsd_obs::add("cache.hits", 1);
                Some((entry.candidate.clone(), entry.cost.clone()))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                dsd_obs::add("cache.misses", 1);
                None
            }
        }
    }

    /// Stores a completed candidate, evicting the least recently used
    /// entry of the shard when it is full.
    pub fn insert(&self, key: CandidateKey, candidate: Candidate, cost: CostBreakdown) {
        let mut shard =
            self.shards[key.shard_index(self.shards.len())].lock().expect("cache shard poisoned");
        if shard.map.len() >= self.shard_capacity && !shard.map.contains_key(&key) {
            if let Some(oldest) = shard.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k) {
                shard.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                dsd_obs::add("cache.evictions", 1);
            }
        }
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed);
        shard.map.insert(key, Entry { stamp, candidate, cost });
        self.inserts.fetch_add(1, Ordering::Relaxed);
        dsd_obs::add("cache.inserts", 1);
    }

    /// Occupancy of each shard, in shard order.
    #[must_use]
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").map.len()).collect()
    }

    /// Publishes one `eval_cache.shard_occupancy.<i>` gauge per shard
    /// into the installed recorder, where `dsd obs profile`'s metrics
    /// digest lists them. A no-op when no enabled recorder is installed;
    /// never consumes randomness.
    pub fn publish_occupancy(&self) {
        if !dsd_obs::enabled() {
            return;
        }
        let Some(recorder) = dsd_obs::current() else { return };
        for (i, len) in self.shard_occupancy().into_iter().enumerate() {
            #[allow(clippy::cast_precision_loss)]
            recorder.metrics().gauge(&format!("eval_cache.shard_occupancy.{i}")).set(len as f64);
        }
    }

    /// Lifetime counters plus current occupancy.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::PlacementOptions;
    use crate::env::Environment;
    use dsd_failure::{FailureModel, FailureRates};
    use dsd_protection::TechniqueCatalog;
    use dsd_resources::{DeviceSpec, NetworkSpec, Site, Topology};
    use dsd_workload::{AppId, WorkloadSet};
    use std::sync::Arc;

    fn env(apps: usize) -> Environment {
        let mk = |i: usize| {
            Site::new(i, format!("P{i}"))
                .with_array_slot(DeviceSpec::xp1200())
                .with_array_slot(DeviceSpec::msa1500())
                .with_tape_library(DeviceSpec::tape_library_high())
                .with_compute(8)
        };
        Environment::new(
            WorkloadSet::scaled_paper_mix(apps),
            Arc::new(Topology::fully_connected(vec![mk(0), mk(1)], NetworkSpec::high())),
            TechniqueCatalog::table2(),
            FailureModel::new(FailureRates::case_study()),
        )
    }

    fn assigned(env: &Environment) -> Candidate {
        let mut c = Candidate::empty(env);
        for app in env.workloads.iter() {
            let class = app.class_with(&env.thresholds);
            let (tid, technique) =
                env.catalog.eligible_for(class).next().expect("eligible technique");
            let config = technique.default_config();
            let placed = PlacementOptions::enumerate(env, tid)
                .iter()
                .any(|&p| c.try_assign(env, app.id, tid, config, p).is_ok());
            assert!(placed);
        }
        c
    }

    #[test]
    fn equal_states_produce_equal_keys() {
        let e = env(2);
        let c1 = assigned(&e);
        let c2 = c1.clone();
        assert_eq!(
            CandidateKey::of(&c1, Thoroughness::Quick, (4, 32)),
            CandidateKey::of(&c2, Thoroughness::Quick, (4, 32)),
        );
    }

    #[test]
    fn thoroughness_and_limits_are_separate_namespaces() {
        let e = env(2);
        let c = assigned(&e);
        let quick = CandidateKey::of(&c, Thoroughness::Quick, (4, 32));
        let full = CandidateKey::of(&c, Thoroughness::Full, (4, 32));
        let other_limits = CandidateKey::of(&c, Thoroughness::Quick, (0, 0));
        assert_ne!(quick, full);
        assert_ne!(quick, other_limits);
    }

    #[test]
    fn provision_changes_change_the_key() {
        let e = env(2);
        let base = assigned(&e);
        let key = CandidateKey::of(&base, Thoroughness::Quick, (4, 32));
        let mut extra = base.clone();
        let array = *extra.provision().provisioned_arrays().first().expect("array");
        extra.provision_mut().add_extra_array_units(array, 1).expect("extra unit");
        assert_ne!(key, CandidateKey::of(&extra, Thoroughness::Quick, (4, 32)));
    }

    #[test]
    fn removed_app_changes_the_key() {
        let e = env(2);
        let base = assigned(&e);
        let key = CandidateKey::of(&base, Thoroughness::Quick, (4, 32));
        let mut smaller = base.clone();
        smaller.remove_app(AppId(0));
        assert_ne!(key, CandidateKey::of(&smaller, Thoroughness::Quick, (4, 32)));
    }

    #[test]
    fn lookup_roundtrips_and_counts() {
        let e = env(2);
        let mut c = assigned(&e);
        let cost = c.evaluate(&e).clone();
        let cache = EvalCache::new(8);
        let key = CandidateKey::of(&c, Thoroughness::Quick, (4, 32));
        assert!(cache.lookup(&key).is_none());
        cache.insert(key, c.clone(), cost.clone());
        let (cached, cached_cost) = cache.lookup(&key).expect("hit");
        assert_eq!(cached_cost, cost);
        assert_eq!(cached.assignments(), c.assignments());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_respects_capacity_and_lru_order() {
        let e = env(1);
        let mut c = assigned(&e);
        let cost = c.evaluate(&e).clone();
        // Single shard so the LRU order is fully observable.
        let cache = EvalCache::with_shards(2, 1);
        let keys: Vec<CandidateKey> = [(1, 1), (2, 2), (3, 3)]
            .iter()
            .map(|&(q, f)| CandidateKey::of(&c, Thoroughness::Quick, (q, f)))
            .collect();
        cache.insert(keys[0], c.clone(), cost.clone());
        cache.insert(keys[1], c.clone(), cost.clone());
        // Refresh keys[0] so keys[1] is now the least recently used.
        assert!(cache.lookup(&keys[0]).is_some());
        cache.insert(keys[2], c.clone(), cost.clone());
        assert!(cache.len() <= cache.capacity());
        assert!(cache.lookup(&keys[1]).is_none(), "LRU entry evicted");
        assert!(cache.lookup(&keys[0]).is_some());
        assert!(cache.lookup(&keys[2]).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }
}

//! Scope-keyed memoization of per-scenario evaluation outcomes.
//!
//! A [`crate::ScenarioOutcome`] depends only on the *dependency slice* of
//! its scenario: the protections of the applications the failure scope
//! affects, and the allocation state of the devices those applications
//! touch. Successive candidate evaluations in the solver's inner loop
//! usually change one application's assignment, leaving most scenarios'
//! slices untouched — their outcomes can be replayed from a cache instead
//! of re-scheduled and re-priced.
//!
//! The cache is keyed by [`FailureScope`] with a small move-to-front MRU
//! set of ([`ScenarioDigest`], outcome) entries per scope, so the
//! apply/undo alternation of trial moves (two digests per scope) does not
//! thrash. Digest computation is the caller's job (`dsd-core` knows the
//! candidate's assignment/provision shape); this module only stores and
//! replays outcomes.
//!
//! The cache must not outlive the environment it was filled under: a
//! digest covers assignments and device allocations, not workloads,
//! failure rates, or the recovery policy.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use dsd_failure::FailureScope;

use crate::evaluate::ScenarioOutcome;

/// Minimal multiply-xor hasher for the scope-keyed map. Cache lookups
/// run once per scenario per candidate evaluation — the solver's hottest
/// path — and [`FailureScope`] keys are tiny, trusted values, so
/// SipHash's DoS resistance buys nothing here.
#[derive(Debug, Default)]
pub struct ScopeHasher(u64);

impl Hasher for ScopeHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Digest of a scenario's dependency slice (two independent 64-bit
/// hashes, tagged differently, to make silent collisions negligible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioDigest(pub u64, pub u64);

/// Associativity of the per-scope MRU set: enough to hold the
/// incumbent's outcome plus a few trial variants without eviction.
pub const SCENARIO_CACHE_WAYS: usize = 4;

/// Per-candidate memo of scenario outcomes, keyed by failure scope with
/// a [`SCENARIO_CACHE_WAYS`]-way move-to-front MRU set per scope.
#[derive(Debug, Default)]
pub struct ScenarioOutcomeCache {
    entries: HashMap<
        FailureScope,
        Vec<(ScenarioDigest, ScenarioOutcome)>,
        BuildHasherDefault<ScopeHasher>,
    >,
    hits: u64,
    recomputed: u64,
}

impl ScenarioOutcomeCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up the outcome for `scope` under `digest`, computing and
    /// storing it via `fresh` on a miss. Returns a reference into the
    /// cache — the hot path (the solver's trial loop) replays an outcome
    /// without cloning it.
    pub fn get_or_insert_with(
        &mut self,
        scope: &FailureScope,
        digest: ScenarioDigest,
        fresh: impl FnOnce() -> ScenarioOutcome,
    ) -> &ScenarioOutcome {
        let ways = self.entries.entry(*scope).or_default();
        if let Some(pos) = ways.iter().position(|(d, _)| *d == digest) {
            ways[..=pos].rotate_right(1);
            self.hits += 1;
            dsd_obs::add("eval.delta_hits", 1);
        } else {
            ways.insert(0, (digest, fresh()));
            ways.truncate(SCENARIO_CACHE_WAYS);
            self.recomputed += 1;
            dsd_obs::add("eval.scenarios_recomputed", 1);
        }
        &ways[0].1
    }

    /// Number of cache hits served so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of scenario outcomes computed fresh and stored.
    #[must_use]
    pub fn recomputed(&self) -> u64 {
        self.recomputed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsd_workload::AppId;

    fn outcome(scope: FailureScope) -> ScenarioOutcome {
        ScenarioOutcome { scope, outcomes: Vec::new() }
    }

    /// Probes `digest` under `scope`: `true` on a hit, `false` when the
    /// outcome had to be computed (and was stored).
    fn hit(cache: &mut ScenarioOutcomeCache, scope: FailureScope, digest: ScenarioDigest) -> bool {
        let hits = cache.hits();
        let replayed = cache.get_or_insert_with(&scope, digest, || outcome(scope));
        assert_eq!(replayed.scope, scope);
        cache.hits() > hits
    }

    #[test]
    fn miss_stores_then_hit_replays() {
        let scope = FailureScope::DataObject { app: AppId(0) };
        let mut cache = ScenarioOutcomeCache::new();
        let digest = ScenarioDigest(1, 2);
        assert!(!hit(&mut cache, scope, digest), "an empty cache misses");
        assert!(hit(&mut cache, scope, digest), "the stored outcome is found");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.recomputed(), 1);
    }

    #[test]
    fn distinct_digests_coexist_up_to_associativity() {
        let scope = FailureScope::DataObject { app: AppId(7) };
        let mut cache = ScenarioOutcomeCache::new();
        for i in 0..SCENARIO_CACHE_WAYS as u64 {
            assert!(!hit(&mut cache, scope, ScenarioDigest(i, i)));
        }
        for i in 0..SCENARIO_CACHE_WAYS as u64 {
            assert!(hit(&mut cache, scope, ScenarioDigest(i, i)), "way {i} retained");
        }
        // The probes promoted 0, 1, 2, 3 in turn, leaving 3 the most
        // recently used way and 0 the least; one more digest evicts 0.
        assert!(!hit(&mut cache, scope, ScenarioDigest(99, 99)));
        assert!(hit(&mut cache, scope, ScenarioDigest(99, 99)));
        assert!(!hit(&mut cache, scope, ScenarioDigest(0, 0)), "LRU way evicted");
        assert_eq!(cache.recomputed(), SCENARIO_CACHE_WAYS as u64 + 2);
    }

    #[test]
    fn scopes_are_independent() {
        let a = FailureScope::DataObject { app: AppId(0) };
        let b = FailureScope::DataObject { app: AppId(1) };
        let mut cache = ScenarioOutcomeCache::new();
        assert!(!hit(&mut cache, a, ScenarioDigest(5, 5)));
        assert!(!hit(&mut cache, b, ScenarioDigest(5, 5)), "same digest, other scope");
        assert!(hit(&mut cache, a, ScenarioDigest(5, 5)));
        assert!(hit(&mut cache, b, ScenarioDigest(5, 5)));
        assert_eq!((cache.hits(), cache.recomputed()), (2, 2));
    }
}

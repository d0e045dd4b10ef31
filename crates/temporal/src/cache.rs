//! Shared AR-automaton synthesis cache.
//!
//! Synthesizing an AR-automaton is the dominant registration cost for large
//! time bounds (the paper's "large AR-automaton generation time" at
//! TB-10000). A verification *campaign* registers the same handful of
//! properties over and over — once per property, per testbench
//! configuration, per worker shard — so a process-wide cache turns
//! `properties × sweeps × shards` synthesis runs into one per distinct
//! formula.
//!
//! The cache key is the **canonical IL form** of the formula: formulas are
//! interned into the hash-consed [`IlStore`] and rendered from the root
//! node, so spelling variants that normalise to the same IL node (e.g.
//! `eventually! p` and `F p`) share one automaton. Each key maps to one
//! entry: the automaton and, once lowered, the [`CompiledKernel`] that
//! shares it. Both are immutable and handed out as [`Arc`]s, so every
//! [`CompiledMonitor`] of a formula steps the one table synthesis built.
//!
//! [`CompiledMonitor`]: crate::CompiledMonitor
//!
//! # Examples
//!
//! ```
//! use sctc_temporal::{parse, SynthesisCache};
//!
//! let cache = SynthesisCache::new();
//! let a = cache.synthesize(&parse("F[<=100] p")?).unwrap();
//! let b = cache.synthesize(&parse("F[<=100] p")?).unwrap();
//! assert!(std::sync::Arc::ptr_eq(&a, &b));
//! let stats = cache.stats();
//! assert_eq!((stats.hits, stats.misses), (1, 1));
//! # Ok::<(), sctc_temporal::ParseError>(())
//! ```

use std::collections::{hash_map, HashMap};
use std::ops::Deref;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use crate::ast::Formula;
use crate::automaton::{ArAutomaton, SynthesisError};
use crate::compiled::CompiledKernel;
use crate::il::IlStore;

/// FNV-1a over a byte string: the 64-bit fingerprint function shared by
/// the campaign, fault-matrix, SMC and result-cache layers. Deterministic
/// across platforms and runs; used wherever two reports must be compared
/// by value.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Counters of one [`SynthesisCache`].
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to synthesize.
    pub misses: u64,
    /// Distinct automata currently cached.
    pub entries: usize,
    /// Wall-clock time spent synthesizing on misses.
    pub synthesis_wall: Duration,
    /// Compiled-kernel lookups answered from the cache.
    pub compiled_hits: u64,
    /// Compiled-kernel lookups that had to lower.
    pub compiled_misses: u64,
    /// Wall-clock time spent lowering compiled kernels on misses
    /// (synthesis of the source automaton is counted in
    /// [`CacheStats::synthesis_wall`]).
    pub compiled_build_wall: Duration,
}

impl CacheStats {
    /// Fraction of lookups answered without synthesizing, in `[0, 1]`
    /// (`0` before the first lookup). A compiled-kernel miss makes one
    /// automaton lookup of its own, so the lookups are the automaton
    /// lookups plus the compiled-kernel hits.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.compiled_hits;
        if total == 0 {
            0.0
        } else {
            (total - self.misses) as f64 / total as f64
        }
    }

    /// Counter difference against an earlier snapshot (entry count is kept
    /// absolute). Lets a campaign report its own hit rate on the shared
    /// global cache.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            entries: self.entries,
            synthesis_wall: self.synthesis_wall.saturating_sub(earlier.synthesis_wall),
            compiled_hits: self.compiled_hits - earlier.compiled_hits,
            compiled_misses: self.compiled_misses - earlier.compiled_misses,
            compiled_build_wall: self
                .compiled_build_wall
                .saturating_sub(earlier.compiled_build_wall),
        }
    }
}

/// One cached formula: its automaton and, once lowered, the kernel that
/// shares it.
struct Cached {
    automaton: Arc<ArAutomaton>,
    kernel: Option<Arc<CompiledKernel>>,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<String, Cached>,
    hits: u64,
    misses: u64,
    synthesis_wall: Duration,
    compiled_hits: u64,
    compiled_misses: u64,
    compiled_build_wall: Duration,
}

impl Inner {
    /// The entry for `formula`'s canonical key, synthesizing its automaton
    /// on a miss; the flag says whether this call synthesized it.
    fn entry(
        &mut self,
        key: String,
        formula: &Formula,
    ) -> Result<(&mut Cached, bool), SynthesisError> {
        match self.entries.entry(key) {
            hash_map::Entry::Occupied(slot) => {
                self.hits += 1;
                Ok((slot.into_mut(), false))
            }
            hash_map::Entry::Vacant(slot) => {
                let t0 = Instant::now();
                let automaton = Arc::new(ArAutomaton::synthesize(formula)?);
                self.synthesis_wall += t0.elapsed();
                self.misses += 1;
                let cached = Cached {
                    automaton,
                    kernel: None,
                };
                Ok((slot.insert(cached), true))
            }
        }
    }
}

/// A synthesis cache: canonical IL text → one [`Arc`]-shared
/// [`ArAutomaton`] and, once lowered, its [`CompiledKernel`].
///
/// Thread-safe. The lock is held across a miss's synthesis run, so
/// concurrent registrations of the same formula synthesize it **exactly
/// once** — the second registrant blocks briefly and then shares the
/// result. Campaign workers all register at startup, so the serialisation
/// window is the first shard's registration only.
#[derive(Default)]
pub struct SynthesisCache {
    inner: Mutex<Inner>,
}

impl SynthesisCache {
    /// Creates an empty private cache (tests; production code normally uses
    /// [`SynthesisCache::global`]).
    pub fn new() -> Self {
        SynthesisCache::default()
    }

    /// The process-wide cache shared by every checker instance.
    pub fn global() -> &'static SynthesisCache {
        static GLOBAL: OnceLock<SynthesisCache> = OnceLock::new();
        GLOBAL.get_or_init(SynthesisCache::new)
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panic mid-synthesis leaves no partial entry behind (insertion
        // happens after synthesis succeeds), so a poisoned lock is safe to
        // keep using.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the automaton for `formula`, synthesizing on first use.
    ///
    /// # Errors
    ///
    /// See [`SynthesisError`]. Errors are not cached; a failing formula
    /// fails again (cheaply — the proposition check precedes enumeration).
    pub fn synthesize(&self, formula: &Formula) -> Result<Arc<ArAutomaton>, SynthesisError> {
        let key = canonical_key(formula)?;
        let mut inner = self.lock();
        let (entry, _) = inner.entry(key, formula)?;
        Ok(entry.automaton.clone())
    }

    /// Returns the compiled kernel for `formula`, synthesizing the
    /// automaton (through this cache, sharing its hit/miss counters) and
    /// lowering it on first use. The kernel holds the same automaton
    /// [`SynthesisCache::synthesize`] returns. Campaigns, fault runs and
    /// SMC sampling all funnel through here, so a whole campaign lowers
    /// each distinct formula exactly once.
    ///
    /// # Errors
    ///
    /// See [`SynthesisError`]. Errors are not cached.
    pub fn synthesize_compiled(&self, formula: &Formula) -> Result<CompiledLookup, SynthesisError> {
        let key = canonical_key(formula)?;
        let mut inner = self.lock();
        if let Some(kernel) = inner.entries.get(&key).and_then(|e| e.kernel.clone()) {
            inner.compiled_hits += 1;
            return Ok(CompiledLookup {
                kernel,
                synthesized: false,
            });
        }
        let (entry, synthesized) = inner.entry(key, formula)?;
        let t0 = Instant::now();
        let kernel = Arc::new(CompiledKernel::lower(entry.automaton.clone()));
        entry.kernel = Some(kernel.clone());
        inner.compiled_build_wall += t0.elapsed();
        inner.compiled_misses += 1;
        Ok(CompiledLookup {
            kernel,
            synthesized,
        })
    }

    /// Returns a snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.entries.len(),
            synthesis_wall: inner.synthesis_wall,
            compiled_hits: inner.compiled_hits,
            compiled_misses: inner.compiled_misses,
            compiled_build_wall: inner.compiled_build_wall,
        }
    }

    /// Drops every entry and resets the counters.
    pub fn clear(&self) {
        *self.lock() = Inner::default();
    }
}

/// The cache key: the formula's IL rendered from its root node.
fn canonical_key(formula: &Formula) -> Result<String, SynthesisError> {
    let (store, root) = IlStore::from_formula(formula)?;
    Ok(store.render(root))
}

/// What [`SynthesisCache::synthesize_compiled`] returns: the shared kernel,
/// and whether this lookup synthesized its automaton (a cache miss).
/// Derefs to the kernel's [`Arc`].
#[derive(Debug)]
pub struct CompiledLookup {
    /// The kernel, shared with every other lookup of the formula.
    pub kernel: Arc<CompiledKernel>,
    /// Whether this lookup ran synthesis; `false` when the automaton came
    /// from the cache, even if the lookup lowered it.
    pub synthesized: bool,
}

impl Deref for CompiledLookup {
    type Target = Arc<CompiledKernel>;

    fn deref(&self) -> &Arc<CompiledKernel> {
        &self.kernel
    }
}

/// Weight of one cached value, in bytes. The [`ResultCache`] evicts by
/// least-recent use until the summed weight fits its byte budget.
pub trait CacheWeight {
    /// Approximate retained size of the value, in bytes.
    fn weight(&self) -> usize;
}

/// Counters of one [`ResultCache`].
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct ResultCacheStats {
    /// Lookups answered from a ready entry.
    pub hits: u64,
    /// Lookups that became the leader of a fresh computation.
    pub misses: u64,
    /// Lookups that joined an in-flight computation instead of starting
    /// their own (the single-flight dedup path).
    pub coalesced: u64,
    /// Ready entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Computations completed with an error (errors are never cached).
    pub failures: u64,
    /// Values too large for the whole budget, returned but never cached.
    pub uncacheable: u64,
    /// Ready entries currently cached.
    pub entries: usize,
    /// Summed weight of the ready entries, in bytes.
    pub bytes: usize,
    /// The configured byte budget.
    pub budget: usize,
}

impl ResultCacheStats {
    /// Fraction of lookups served from a ready entry, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Flight<V> {
    done: Mutex<Option<Result<Arc<V>, String>>>,
    cv: Condvar,
}

impl<V> Flight<V> {
    fn new() -> Self {
        Flight {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }
}

enum Slot<V> {
    Ready {
        value: Arc<V>,
        weight: usize,
        stamp: u64,
    },
    InFlight(Arc<Flight<V>>),
}

struct ResultInner<V> {
    map: HashMap<Vec<u8>, Slot<V>>,
    bytes: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
    failures: u64,
    uncacheable: u64,
}

/// What a [`ResultCache::lookup`] call found.
pub enum Lookup<V> {
    /// The value is cached; here it is.
    Hit(Arc<V>),
    /// Nothing cached and nothing in flight: the caller is now the
    /// **leader** and must eventually call [`ResultCache::complete`] for
    /// this key (on success *and* on failure), or every follower blocks
    /// forever. Run the computation, then wait on the handle like any
    /// follower.
    Lead(FlightHandle<V>),
    /// Another caller is already computing this key: wait on the handle
    /// for its result (single-flight deduplication).
    Follow(FlightHandle<V>),
}

/// A handle onto an in-flight computation; redeem it with
/// [`ResultCache::wait`].
pub struct FlightHandle<V> {
    flight: Arc<Flight<V>>,
}

/// Outcome of waiting on a [`FlightHandle`].
pub enum WaitOutcome<V> {
    /// The computation finished; the value is (possibly) cached and here.
    Ready(Arc<V>),
    /// The computation failed with this message. Failures are not cached:
    /// the next lookup of the key leads a fresh attempt.
    Failed(String),
    /// The caller's deadline expired before the leader completed. The
    /// computation keeps running and will populate the cache normally.
    TimedOut,
}

/// A content-addressed result cache with single-flight deduplication and
/// an LRU byte budget.
///
/// Keys are **canonical byte strings** (the encoded job content); two
/// requests with byte-identical keys are by construction the same job, so
/// repeat traffic is a cache hit and *concurrent* identical requests run
/// the computation exactly once — followers block on the leader's flight
/// and share its `Arc`'d result. This is [`SynthesisCache`]'s design
/// applied one level up: instead of memoizing AR automata per formula, it
/// memoizes whole campaign/SMC reports per job, keyed on the
/// jobs-independent fingerprints the campaign layer already guarantees.
///
/// The cache never blocks a lookup on another key's computation: the inner
/// lock is held only for map bookkeeping, and waiting happens on the
/// per-flight condvar.
pub struct ResultCache<V> {
    inner: Mutex<ResultInner<V>>,
    budget: usize,
}

impl<V: CacheWeight> ResultCache<V> {
    /// An empty cache with the given byte budget.
    pub fn new(budget: usize) -> Self {
        ResultCache {
            inner: Mutex::new(ResultInner {
                map: HashMap::new(),
                bytes: 0,
                clock: 0,
                hits: 0,
                misses: 0,
                coalesced: 0,
                evictions: 0,
                failures: 0,
                uncacheable: 0,
            }),
            budget,
        }
    }

    fn lock(&self) -> MutexGuard<'_, ResultInner<V>> {
        // Completion never leaves a half-inserted entry behind, so a
        // poisoned lock is safe to keep using (same policy as
        // `SynthesisCache`).
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up `key`: a ready entry is a [`Lookup::Hit`], an in-flight
    /// computation a [`Lookup::Follow`], a vacant slot makes the caller
    /// the [`Lookup::Lead`]er.
    pub fn lookup(&self, key: &[u8]) -> Lookup<V> {
        let mut inner = self.lock();
        inner.clock += 1;
        let now = inner.clock;
        match inner.map.get_mut(key) {
            Some(Slot::Ready { value, stamp, .. }) => {
                *stamp = now;
                let value = value.clone();
                inner.hits += 1;
                Lookup::Hit(value)
            }
            Some(Slot::InFlight(flight)) => {
                let flight = flight.clone();
                inner.coalesced += 1;
                Lookup::Follow(FlightHandle { flight })
            }
            None => {
                inner.misses += 1;
                let flight = Arc::new(Flight::new());
                inner
                    .map
                    .insert(key.to_vec(), Slot::InFlight(flight.clone()));
                Lookup::Lead(FlightHandle { flight })
            }
        }
    }

    /// Completes the in-flight computation for `key`: caches the value (if
    /// it fits), wakes every waiter, and — on `Err` — removes the slot so
    /// the next lookup retries. Must be called exactly once per
    /// [`Lookup::Lead`].
    pub fn complete(&self, key: &[u8], result: Result<V, String>) {
        let result = result.map(Arc::new);
        let flight = {
            let mut inner = self.lock();
            let flight = match inner.map.remove(key) {
                Some(Slot::InFlight(flight)) => Some(flight),
                Some(ready @ Slot::Ready { .. }) => {
                    // Shouldn't happen (only the leader completes), but
                    // restore rather than lose the entry.
                    inner.map.insert(key.to_vec(), ready);
                    None
                }
                None => None,
            };
            match &result {
                Ok(value) => {
                    let weight = value.weight();
                    if weight > self.budget {
                        inner.uncacheable += 1;
                    } else {
                        inner.clock += 1;
                        let stamp = inner.clock;
                        inner.bytes += weight;
                        inner.map.insert(
                            key.to_vec(),
                            Slot::Ready {
                                value: value.clone(),
                                weight,
                                stamp,
                            },
                        );
                        // Evict least-recently-used ready entries until the
                        // budget holds; the entry just inserted carries the
                        // newest stamp, so it is evicted last.
                        while inner.bytes > self.budget {
                            let victim = inner
                                .map
                                .iter()
                                .filter_map(|(k, slot)| match slot {
                                    Slot::Ready { stamp, .. } => Some((*stamp, k.clone())),
                                    Slot::InFlight(_) => None,
                                })
                                .min()
                                .map(|(_, k)| k);
                            let Some(victim) = victim else { break };
                            if let Some(Slot::Ready { weight, .. }) = inner.map.remove(&victim) {
                                inner.bytes -= weight;
                                inner.evictions += 1;
                            }
                        }
                    }
                }
                Err(_) => inner.failures += 1,
            }
            flight
        };
        if let Some(flight) = flight {
            let mut done = flight.done.lock().unwrap_or_else(|e| e.into_inner());
            *done = Some(result);
            flight.cv.notify_all();
        }
    }

    /// Blocks until the flight completes (or `timeout` expires, when
    /// given). Leaders call this after scheduling their computation;
    /// followers call it directly.
    pub fn wait(&self, handle: &FlightHandle<V>, timeout: Option<Duration>) -> WaitOutcome<V> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut done = handle.flight.done.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = done.as_ref() {
                return match result {
                    Ok(value) => WaitOutcome::Ready(value.clone()),
                    Err(message) => WaitOutcome::Failed(message.clone()),
                };
            }
            match deadline {
                None => {
                    done = handle
                        .flight
                        .cv
                        .wait(done)
                        .unwrap_or_else(|e| e.into_inner());
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return WaitOutcome::TimedOut;
                    }
                    let (guard, _) = handle
                        .flight
                        .cv
                        .wait_timeout(done, deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    done = guard;
                }
            }
        }
    }

    /// Returns a snapshot of the counters.
    pub fn stats(&self) -> ResultCacheStats {
        let inner = self.lock();
        ResultCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            coalesced: inner.coalesced,
            evictions: inner.evictions,
            failures: inner.failures,
            uncacheable: inner.uncacheable,
            entries: inner
                .map
                .values()
                .filter(|slot| matches!(slot, Slot::Ready { .. }))
                .count(),
            bytes: inner.bytes,
            budget: self.budget,
        }
    }
}

impl std::fmt::Debug for SynthesisCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SynthesisCache")
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn distinct_bounds_are_distinct_entries() {
        let cache = SynthesisCache::new();
        for bound in [100u64, 1000, 10_000] {
            cache
                .synthesize(&parse(&format!("F[<={bound}] p")).unwrap())
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn repeated_synthesis_hits_and_shares() {
        let cache = SynthesisCache::new();
        let f = parse("G (a -> F[<=50] b)").unwrap();
        let first = cache.synthesize(&f).unwrap();
        for _ in 0..9 {
            let again = cache.synthesize(&f).unwrap();
            assert!(Arc::ptr_eq(&first, &again));
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 9);
        assert!(stats.hit_rate() > 0.89);
        assert!(stats.synthesis_wall > Duration::ZERO);
    }

    #[test]
    fn spelling_variants_share_one_entry() {
        let cache = SynthesisCache::new();
        let a = cache.synthesize(&parse("eventually! p").unwrap()).unwrap();
        let b = cache.synthesize(&parse("F p").unwrap()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = SynthesisCache::new();
        let mut text = String::from("p0");
        for i in 1..13 {
            text.push_str(&format!(" & p{i}"));
        }
        let f = parse(&text).unwrap();
        assert!(cache.synthesize(&f).is_err());
        assert!(cache.synthesize(&f).is_err());
        assert!(cache.synthesize_compiled(&f).is_err());
        assert_eq!(
            cache.stats(),
            CacheStats::default(),
            "a refusal counts nothing"
        );
    }

    #[test]
    fn clear_resets_counters_and_entries() {
        let cache = SynthesisCache::new();
        cache.synthesize(&parse("F[<=5] p").unwrap()).unwrap();
        cache.synthesize(&parse("F[<=5] p").unwrap()).unwrap();
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn stats_since_subtracts_counters() {
        let cache = SynthesisCache::new();
        cache.synthesize(&parse("F[<=5] p").unwrap()).unwrap();
        let snap = cache.stats();
        cache.synthesize(&parse("F[<=5] p").unwrap()).unwrap();
        cache.synthesize(&parse("F[<=6] p").unwrap()).unwrap();
        let delta = cache.stats().since(&snap);
        assert_eq!(delta.hits, 1);
        assert_eq!(delta.misses, 1);
        assert_eq!(delta.entries, 2);
    }

    #[test]
    fn compiled_kernels_are_cached_and_share_the_automaton_entry() {
        let cache = SynthesisCache::new();
        let f = parse("G (a -> F[<=50] b)").unwrap();
        let first = cache.synthesize_compiled(&f).unwrap();
        let again = cache.synthesize_compiled(&f).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        let stats = cache.stats();
        assert_eq!((stats.compiled_hits, stats.compiled_misses), (1, 1));
        assert_eq!(stats.hit_rate(), 0.5, "one synthesis in two lookups");
        // The lowering synthesized the automaton once, through the shared
        // entry map — a later naive-engine registration is a plain hit.
        assert_eq!((stats.hits, stats.misses), (0, 1));
        cache.synthesize(&f).unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn compiled_lowering_reuses_a_preexisting_automaton() {
        let cache = SynthesisCache::new();
        let f = parse("F[<=25] p").unwrap();
        cache.synthesize(&f).unwrap();
        cache.synthesize_compiled(&f).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "the automaton is synthesized once");
        assert_eq!(stats.hits, 1, "the lowering hit the automaton entry");
        assert_eq!(stats.compiled_misses, 1);
        assert!(stats.compiled_build_wall > Duration::ZERO);
    }

    #[test]
    fn a_formula_has_one_table() {
        let cache = SynthesisCache::new();
        // Lowered first: the lookup synthesized the automaton that a later
        // `synthesize` hands out.
        let f = parse("G (a -> F[<=50] b)").unwrap();
        let lookup = cache.synthesize_compiled(&f).unwrap();
        assert!(lookup.synthesized);
        let automaton = cache.synthesize(&f).unwrap();
        assert!(Arc::ptr_eq(lookup.automaton(), &automaton));
        // Synthesized first: the lowering shares the cached automaton.
        let g = parse("F[<=25] p").unwrap();
        let automaton = cache.synthesize(&g).unwrap();
        let lookup = cache.synthesize_compiled(&g).unwrap();
        assert!(!lookup.synthesized, "the automaton came from the cache");
        assert!(Arc::ptr_eq(lookup.automaton(), &automaton));
        let again = cache.synthesize_compiled(&g).unwrap();
        assert!(!again.synthesized);
        assert!(Arc::ptr_eq(&again.kernel, &lookup.kernel));
    }

    impl CacheWeight for Vec<u8> {
        fn weight(&self) -> usize {
            self.len()
        }
    }

    fn run_leader(cache: &ResultCache<Vec<u8>>, key: &[u8], value: Vec<u8>) -> Arc<Vec<u8>> {
        match cache.lookup(key) {
            Lookup::Hit(v) => v,
            Lookup::Lead(handle) => {
                cache.complete(key, Ok(value));
                match cache.wait(&handle, None) {
                    WaitOutcome::Ready(v) => v,
                    _ => panic!("leader's own completion must be ready"),
                }
            }
            Lookup::Follow(_) => panic!("no concurrency in this test"),
        }
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn result_cache_hits_after_first_completion() {
        let cache = ResultCache::new(1024);
        let first = run_leader(&cache, b"job-1", vec![1, 2, 3]);
        let Lookup::Hit(second) = cache.lookup(b"job-1") else {
            panic!("second lookup must hit");
        };
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, 3);
    }

    #[test]
    fn result_cache_evicts_least_recently_used_to_fit_budget() {
        let cache = ResultCache::new(10);
        run_leader(&cache, b"a", vec![0; 4]);
        run_leader(&cache, b"b", vec![0; 4]);
        // Touch `a` so `b` is the LRU victim.
        assert!(matches!(cache.lookup(b"a"), Lookup::Hit(_)));
        run_leader(&cache, b"c", vec![0; 4]);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= 10);
        assert!(matches!(cache.lookup(b"a"), Lookup::Hit(_)));
        assert!(matches!(cache.lookup(b"c"), Lookup::Hit(_)));
        assert!(matches!(cache.lookup(b"b"), Lookup::Lead(_)));
        cache.complete(b"b", Err("abandoned".into()));
    }

    #[test]
    fn result_cache_never_caches_values_larger_than_the_budget() {
        let cache = ResultCache::new(4);
        run_leader(&cache, b"big", vec![0; 64]);
        let stats = cache.stats();
        assert_eq!(stats.uncacheable, 1);
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
        assert!(matches!(cache.lookup(b"big"), Lookup::Lead(_)));
        cache.complete(b"big", Err("abandoned".into()));
    }

    #[test]
    fn result_cache_failures_are_not_cached_and_wake_followers() {
        let cache = Arc::new(ResultCache::new(1024));
        let Lookup::Lead(_lead) = cache.lookup(b"k") else {
            panic!("first lookup leads");
        };
        let follower = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                let Lookup::Follow(handle) = cache.lookup(b"k") else {
                    panic!("second lookup follows");
                };
                match cache.wait(&handle, None) {
                    WaitOutcome::Failed(message) => message,
                    _ => panic!("follower must observe the failure"),
                }
            })
        };
        // Give the follower a moment to join the flight, then fail it.
        while cache.stats().coalesced == 0 {
            std::thread::yield_now();
        }
        cache.complete(b"k", Err("synthetic".into()));
        assert_eq!(follower.join().unwrap(), "synthetic");
        let stats = cache.stats();
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.entries, 0);
        // The key retries from scratch.
        assert!(matches!(cache.lookup(b"k"), Lookup::Lead(_)));
        cache.complete(b"k", Ok(vec![7]));
    }

    #[test]
    fn result_cache_single_flight_runs_concurrent_identical_keys_once() {
        let cache = Arc::new(ResultCache::new(1 << 20));
        let runs = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = cache.clone();
                let runs = runs.clone();
                std::thread::spawn(move || {
                    let outcome = match cache.lookup(b"shared-job") {
                        Lookup::Hit(v) => WaitOutcome::Ready(v),
                        Lookup::Lead(handle) => {
                            runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(20));
                            cache.complete(b"shared-job", Ok(vec![42]));
                            cache.wait(&handle, None)
                        }
                        Lookup::Follow(handle) => cache.wait(&handle, None),
                    };
                    match outcome {
                        WaitOutcome::Ready(v) => v[0],
                        _ => panic!("all callers share the one result"),
                    }
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), 42);
        }
        assert_eq!(runs.load(std::sync::atomic::Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.coalesced, 7);
    }

    #[test]
    fn result_cache_wait_times_out_and_flight_still_completes() {
        let cache = Arc::new(ResultCache::new(1024));
        let Lookup::Lead(lead) = cache.lookup(b"slow") else {
            panic!("first lookup leads");
        };
        let waited = cache.wait(&lead, Some(Duration::from_millis(5)));
        assert!(matches!(waited, WaitOutcome::TimedOut));
        cache.complete(b"slow", Ok(vec![9]));
        match cache.wait(&lead, Some(Duration::from_millis(5))) {
            WaitOutcome::Ready(v) => assert_eq!(*v, vec![9]),
            _ => panic!("completed flight must be ready"),
        }
        assert!(matches!(cache.lookup(b"slow"), Lookup::Hit(_)));
    }

    #[test]
    fn concurrent_synthesis_is_exactly_once() {
        let cache = Arc::new(SynthesisCache::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    cache
                        .synthesize(&parse("G (a -> F[<=200] b)").unwrap())
                        .unwrap()
                        .state_count()
                })
            })
            .collect();
        let counts: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]));
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3);
    }
}

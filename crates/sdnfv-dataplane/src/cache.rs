//! Per-thread caching of flow-table lookup results (paper §4.2 "Caching
//! flow table lookups").
//!
//! Extracting match fields and walking the rule table at every hop of a long
//! service chain is wasteful; the paper caches lookup results so the TX
//! thread can avoid repeated hash lookups. Here the cache maps `(flow,
//! step)` to the previously computed [`Decision`], tagged with the
//! flow-table generation so any rule change invalidates stale entries.
//!
//! The cache is keyed by the flow's [`FlowKey::stable_hash`], which the
//! threaded runtime computes once per packet at injection and carries
//! through every hop ([`cached_lookup_hashed`]); a hit compares the full
//! flow key and step, so flows whose hashes collide never share a
//! decision. Entries sit in small fixed-size sets: a full set evicts one
//! entry (a stale one if it has any) instead of the whole cache, so a
//! working set a little larger than the cache degrades gracefully rather
//! than thrashing. Entry storage grows with use up to the capacity.
//!
//! Cached entries also carry their insertion time and honour a TTL: with
//! idle timeouts in play, a hot flow served forever from the cache would
//! never touch the table and would idle out despite carrying traffic. The
//! TTL (typically half the rule-sweep interval) forces a periodic
//! fall-through to the table, refreshing the winning rule's idle timer.
//! A TTL of zero disables expiry (the pre-timeout behavior).

use std::borrow::Cow;

use sdnfv_flowtable::{Decision, RulePort, SharedFlowTable};
use sdnfv_proto::flow::FlowKey;

/// The cached-lookup protocol: consult `cache` (tagged with the table's
/// generation, expired after `ttl_ns`) when `enabled`, fall back to the
/// table, and remember the result. The shard engine calls the hashed twin,
/// [`cached_lookup_hashed`].
pub fn cached_lookup(
    table: &SharedFlowTable,
    cache: &mut LookupCache,
    enabled: bool,
    step: RulePort,
    key: &FlowKey,
    now_ns: u64,
    ttl_ns: u64,
) -> Option<Decision> {
    let hash = key.stable_hash();
    cached_lookup_hashed(table, cache, enabled, step, key, hash, now_ns, ttl_ns)
        .map(Cow::into_owned)
}

/// [`cached_lookup`] for a caller that already holds the flow's
/// [`FlowKey::stable_hash`] (`hash`). A hit is borrowed straight out of the
/// cache, so serving it clones nothing.
#[allow(clippy::too_many_arguments)]
pub fn cached_lookup_hashed<'c>(
    table: &SharedFlowTable,
    cache: &'c mut LookupCache,
    enabled: bool,
    step: RulePort,
    key: &FlowKey,
    hash: u64,
    now_ns: u64,
    ttl_ns: u64,
) -> Option<Cow<'c, Decision>> {
    if !enabled {
        return table.lookup(step, key).map(Cow::Owned);
    }
    let generation = table.generation();
    if let Some(entry) = cache.probe(hash, step, key, generation, now_ns, ttl_ns) {
        return Some(Cow::Borrowed(&cache.entries[entry].decision));
    }
    let decision = table.lookup(step, key)?;
    let entry = cache.store(hash, step, key, generation, now_ns, decision);
    Some(Cow::Borrowed(&cache.entries[entry].decision))
}

/// Ways per set: how many entries whose `(hash, step)` land on the same set
/// the cache holds at once. Eight 8-byte ways fill one 64-byte cache line.
const WAYS: usize = 8;

/// One cached decision with everything a hit must match.
#[derive(Debug)]
struct Entry {
    key: FlowKey,
    step: RulePort,
    generation: u64,
    inserted_at_ns: u64,
    decision: Decision,
}

/// A bounded, generation-checked, TTL-bounded, set-associative cache of
/// flow-table decisions.
#[derive(Debug)]
pub struct LookupCache {
    /// `sets × ways` entry references: the low 32 bits are `index + 1`
    /// into `entries` (`0` for an empty way), the high 32 bits the low half
    /// of the entry's flow hash, so a probe rejects most non-matching ways
    /// without touching their entries. Every entry is referenced by exactly
    /// one way.
    ways: Box<[u64]>,
    /// Ways per set (`WAYS`, fewer for a tiny capacity).
    set_ways: usize,
    /// `sets − 1` (the set count is a power of two).
    set_mask: usize,
    entries: Vec<Entry>,
    /// Rotating victim choice for full sets with no stale entry.
    victim: usize,
    hits: u64,
    misses: u64,
}

impl LookupCache {
    /// Creates a cache holding at most `capacity` decisions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        let set_ways = WAYS.min(capacity);
        // The largest power of two of sets that keeps sets × ways within
        // the capacity.
        let sets = 1usize << (capacity / set_ways).ilog2();
        LookupCache {
            ways: vec![0; sets * set_ways].into_boxed_slice(),
            set_ways,
            set_mask: sets - 1,
            entries: Vec::new(),
            victim: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The ways of the set `(hash, step)` maps to.
    fn set_range(&self, hash: u64, step: RulePort) -> std::ops::Range<usize> {
        let step_bits = match step {
            RulePort::Nic(port) => u64::from(port),
            RulePort::Service(service) => (1 << 32) | u64::from(service.value()),
        };
        // Fibonacci hashing of the flow hash mixed with the step: the top
        // bits of the product are well spread even for nearby inputs.
        let mixed = (hash ^ step_bits.wrapping_mul(0xff51_afd7_ed55_8ccd))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let set = (mixed >> 32) as usize & self.set_mask;
        set * self.set_ways..(set + 1) * self.set_ways
    }

    /// The entry holding exactly `(key, step)`, if any (whatever its
    /// generation and age).
    fn find(&self, hash: u64, step: RulePort, key: &FlowKey) -> Option<usize> {
        let tag = hash as u32;
        self.ways[self.set_range(hash, step)]
            .iter()
            .filter(|&&way| way as u32 != 0 && (way >> 32) as u32 == tag)
            .map(|&way| way as u32 as usize - 1)
            .find(|&entry| {
                let e = &self.entries[entry];
                e.step == step && e.key == *key
            })
    }

    /// Looks up `(key, step)` and counts the outcome: the entry index on a
    /// hit valid at `generation` and no older than `ttl_ns` at `now_ns`.
    fn probe(
        &mut self,
        hash: u64,
        step: RulePort,
        key: &FlowKey,
        generation: u64,
        now_ns: u64,
        ttl_ns: u64,
    ) -> Option<usize> {
        let hit = self.find(hash, step, key).filter(|&entry| {
            let e = &self.entries[entry];
            e.generation == generation
                && (ttl_ns == 0 || now_ns < e.inserted_at_ns.saturating_add(ttl_ns))
        });
        match hit {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        hit
    }

    /// Stores `decision` for `(key, step)` and returns its entry index:
    /// the key's own entry if it has one, else a new or replaced entry in
    /// the way [`LookupCache::victim_way`] picks.
    fn store(
        &mut self,
        hash: u64,
        step: RulePort,
        key: &FlowKey,
        generation: u64,
        now_ns: u64,
        decision: Decision,
    ) -> usize {
        let fresh = Entry {
            key: *key,
            step,
            generation,
            inserted_at_ns: now_ns,
            decision,
        };
        if let Some(entry) = self.find(hash, step, key) {
            self.entries[entry] = fresh;
            return entry;
        }
        let slot = self.victim_way(hash, step, generation);
        let entry = match self.ways[slot] as u32 {
            0 => {
                self.entries.push(fresh);
                self.entries.len() - 1
            }
            occupied => {
                let entry = occupied as usize - 1;
                self.entries[entry] = fresh;
                entry
            }
        };
        self.ways[slot] = (u64::from(hash as u32) << 32) | (entry as u64 + 1);
        entry
    }

    /// The way a new `(hash, step)` entry takes: an empty way of its set,
    /// else one holding an entry of an older table generation, else the
    /// next victim in rotation.
    fn victim_way(&mut self, hash: u64, step: RulePort, generation: u64) -> usize {
        let range = self.set_range(hash, step);
        let set = &self.ways[range.clone()];
        let way = set
            .iter()
            .position(|&way| way as u32 == 0)
            .or_else(|| {
                set.iter()
                    .position(|&way| self.entries[way as u32 as usize - 1].generation != generation)
            })
            .unwrap_or_else(|| {
                self.victim = self.victim.wrapping_add(1);
                self.victim % self.set_ways
            });
        range.start + way
    }

    /// Looks up a cached decision for `(key, step)` valid at `generation`
    /// and no older than `ttl_ns` at `now_ns` (`ttl_ns == 0` = no expiry).
    pub fn get(
        &mut self,
        key: &FlowKey,
        step: RulePort,
        generation: u64,
        now_ns: u64,
        ttl_ns: u64,
    ) -> Option<Decision> {
        let entry = self.probe(key.stable_hash(), step, key, generation, now_ns, ttl_ns)?;
        Some(self.entries[entry].decision.clone())
    }

    /// Stores a decision computed at `generation` at time `now_ns`.
    pub fn put(
        &mut self,
        key: &FlowKey,
        step: RulePort,
        generation: u64,
        now_ns: u64,
        decision: Decision,
    ) {
        self.store(key.stable_hash(), step, key, generation, now_ns, decision);
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnfv_flowtable::{Action, RuleId, ServiceId};
    use sdnfv_proto::flow::IpProtocol;
    use std::net::Ipv4Addr;

    fn key(port: u16) -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            port,
            80,
            IpProtocol::Tcp,
        )
    }

    fn decision(svc: u32) -> Decision {
        Decision {
            rule_id: RuleId(svc as u64),
            actions: vec![Action::ToService(ServiceId::new(svc))].into(),
            parallel: false,
            trace: false,
        }
    }

    #[test]
    fn hit_after_put_same_generation() {
        let mut cache = LookupCache::new(8);
        let step = RulePort::Nic(0);
        assert!(cache.get(&key(1), step, 0, 0, 0).is_none());
        cache.put(&key(1), step, 0, 0, decision(5));
        assert_eq!(cache.get(&key(1), step, 0, 0, 0), Some(decision(5)));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn generation_change_invalidates() {
        let mut cache = LookupCache::new(8);
        let step = RulePort::Service(ServiceId::new(1));
        cache.put(&key(1), step, 3, 0, decision(5));
        assert!(cache.get(&key(1), step, 4, 0, 0).is_none());
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn ttl_expires_entries() {
        let mut cache = LookupCache::new(8);
        let step = RulePort::Nic(0);
        cache.put(&key(1), step, 0, 1_000, decision(5));
        // Within the TTL the entry is served.
        assert!(cache.get(&key(1), step, 0, 1_400, 500).is_some());
        // Past insertion + TTL the entry misses (forcing a table touch that
        // refreshes the rule's idle timer).
        assert!(cache.get(&key(1), step, 0, 1_500, 500).is_none());
        // TTL 0 disables expiry entirely.
        assert!(cache.get(&key(1), step, 0, u64::MAX, 0).is_some());
    }

    #[test]
    fn different_steps_are_distinct_entries() {
        let mut cache = LookupCache::new(8);
        cache.put(&key(1), RulePort::Nic(0), 0, 0, decision(1));
        cache.put(
            &key(1),
            RulePort::Service(ServiceId::new(1)),
            0,
            0,
            decision(2),
        );
        assert_eq!(
            cache.get(&key(1), RulePort::Nic(0), 0, 0, 0),
            Some(decision(1))
        );
        assert_eq!(
            cache.get(&key(1), RulePort::Service(ServiceId::new(1)), 0, 0, 0),
            Some(decision(2))
        );
    }

    #[test]
    fn capacity_bound_is_respected() {
        let mut cache = LookupCache::new(4);
        for port in 0..20 {
            cache.put(&key(port), RulePort::Nic(0), 0, 0, decision(1));
            assert!(cache.len() <= 4);
        }
    }

    #[test]
    fn colliding_hashes_keep_their_own_decisions() {
        use sdnfv_flowtable::{FlowMatch, FlowRule};
        let table = SharedFlowTable::new();
        let step = RulePort::Nic(0);
        for (port, svc) in [(1, 11), (2, 22)] {
            table.insert(FlowRule::new(
                FlowMatch::exact(step, &key(port)),
                vec![Action::ToService(ServiceId::new(svc))],
            ));
        }
        // Both flows are forced onto one carried hash, as two colliding
        // 5-tuples would be.
        let hash = 42;
        let mut cache = LookupCache::new(8);
        for _ in 0..3 {
            for (port, svc) in [(1, 11), (2, 22)] {
                let decision =
                    cached_lookup_hashed(&table, &mut cache, true, step, &key(port), hash, 0, 0)
                        .expect("rule installed");
                assert_eq!(
                    decision.default_action(),
                    Some(Action::ToService(ServiceId::new(svc))),
                    "flow {port} got another flow's decision"
                );
            }
        }
        assert_eq!(cache.misses(), 2, "each flow misses once");
        assert_eq!(cache.hits(), 4, "then both are served from the cache");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn full_set_evicts_one_entry_not_the_cache() {
        // Capacity 4 is one set of four ways: a fifth flow evicts exactly
        // one of the first four.
        let mut cache = LookupCache::new(4);
        let step = RulePort::Nic(0);
        for port in 0..5 {
            cache.put(&key(port), step, 0, 0, decision(u32::from(port)));
        }
        assert_eq!(cache.len(), 4);
        let survivors = (0..4)
            .filter(|&port| cache.get(&key(port), step, 0, 0, 0).is_some())
            .count();
        assert_eq!(survivors, 3);
        assert_eq!(cache.get(&key(4), step, 0, 0, 0), Some(decision(4)));
    }

    #[test]
    fn stale_entries_are_replaced_first() {
        let mut cache = LookupCache::new(4);
        let step = RulePort::Nic(0);
        for port in 0..3 {
            cache.put(&key(port), step, 0, 0, decision(1));
        }
        // Key 3 is the one entry stored at the current generation; a new
        // flow must replace a stale entry, never it.
        cache.put(&key(3), step, 1, 0, decision(3));
        for port in 4..7 {
            cache.put(&key(port), step, 1, 0, decision(u32::from(port)));
            assert_eq!(cache.get(&key(3), step, 1, 0, 0), Some(decision(3)));
        }
        assert_eq!(cache.len(), 4);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = LookupCache::new(0);
    }
}

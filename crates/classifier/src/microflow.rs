//! The microflow cache: a small exact-match, per-transport-connection store (§2.2).
//!
//! In OVS's userspace datapath the microflow cache sits in front of the megaflow cache.
//! It matches on *all* header fields (including noise fields such as TTL), holds only a
//! couple of hundred entries, and acts as "short-term memory" — it is often exhausted
//! even in normal operation. The attack traces deliberately randomise noise fields so
//! that every packet is a new microflow and would always fall through to the TSS
//! megaflow lookup.
//!
//! It is wired into no datapath here: the kernel datapath the paper measures (§5.2) has
//! no such cache, so `tse_switch::Datapath` goes straight to the megaflow cache. The
//! type stays only for the `benchmark/` drill that times it, until the `[benchmark]`
//! re-anchor retires both.

use std::collections::HashMap;

use tse_packet::flowkey::MicroflowKey;

use crate::rule::Action;

/// Default capacity, "a couple of hundred entries" (§2.2).
pub const DEFAULT_MICROFLOW_CAPACITY: usize = 256;

/// A bounded exact-match cache with FIFO eviction.
#[derive(Debug, Clone)]
pub struct MicroflowCache {
    capacity: usize,
    map: HashMap<MicroflowKey, Action>,
    fifo: std::collections::VecDeque<MicroflowKey>,
    hits: u64,
    misses: u64,
}

impl MicroflowCache {
    /// Create a cache with the default OVS-like capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_MICROFLOW_CAPACITY)
    }

    /// Create a cache with an explicit capacity (0 disables the cache entirely).
    pub fn with_capacity(capacity: usize) -> Self {
        MicroflowCache {
            capacity,
            map: HashMap::new(),
            fifo: std::collections::VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Look up a microflow; `Some(action)` on a hit.
    pub fn lookup(&mut self, key: &MicroflowKey) -> Option<Action> {
        match self.map.get(key) {
            Some(a) => {
                self.hits += 1;
                Some(*a)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Install a microflow entry, evicting the oldest entry if at capacity.
    pub fn insert(&mut self, key: MicroflowKey, action: Action) {
        if self.capacity == 0 {
            return;
        }
        if let std::collections::hash_map::Entry::Occupied(mut e) = self.map.entry(key) {
            e.insert(action);
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some(old) = self.fifo.pop_front() {
                self.map.remove(&old);
            }
        }
        self.map.insert(key, action);
        self.fifo.push_back(key);
    }

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// (hits, misses) counters since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Drop all entries (e.g. on revalidation).
    pub fn clear(&mut self) {
        self.map.clear();
        self.fifo.clear();
    }
}

impl Default for MicroflowCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_packet::builder::PacketBuilder;

    fn mf(id: u16) -> MicroflowKey {
        let mut pkt = PacketBuilder::tcp_v4([10, 0, 0, 1], [10, 0, 0, 2], 1000, 80).build();
        if let tse_packet::NetHeader::V4(h) = &mut pkt.net {
            h.identification = id;
        }
        MicroflowKey::from_packet(&pkt)
    }

    #[test]
    fn hit_after_insert() {
        let mut c = MicroflowCache::new();
        assert_eq!(c.lookup(&mf(1)), None);
        c.insert(mf(1), Action::Allow);
        assert_eq!(c.lookup(&mf(1)), Some(Action::Allow));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut c = MicroflowCache::with_capacity(2);
        c.insert(mf(1), Action::Allow);
        c.insert(mf(2), Action::Allow);
        c.insert(mf(3), Action::Allow); // evicts mf(1)
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(&mf(1)), None);
        assert_eq!(c.lookup(&mf(3)), Some(Action::Allow));
    }

    #[test]
    fn noise_exhausts_small_cache() {
        // Each distinct IP id is a new microflow: with capacity 256, 1000 distinct
        // packets give no reuse benefit for later packets.
        let mut c = MicroflowCache::new();
        for i in 0..1000u16 {
            assert_eq!(c.lookup(&mf(i)), None);
            c.insert(mf(i), Action::Deny);
        }
        assert_eq!(c.len(), DEFAULT_MICROFLOW_CAPACITY);
        let (hits, misses) = c.stats();
        assert_eq!(hits, 0);
        assert_eq!(misses, 1000);
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let mut c = MicroflowCache::with_capacity(0);
        c.insert(mf(1), Action::Allow);
        assert!(c.is_empty());
        assert_eq!(c.lookup(&mf(1)), None);
    }

    #[test]
    fn reinsert_updates_action() {
        let mut c = MicroflowCache::new();
        c.insert(mf(1), Action::Allow);
        c.insert(mf(1), Action::Deny);
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(&mf(1)), Some(Action::Deny));
    }

    #[test]
    fn clear_empties() {
        let mut c = MicroflowCache::new();
        c.insert(mf(1), Action::Allow);
        c.clear();
        assert!(c.is_empty());
    }
}

//! What every resolver over the DHT keeps: a TTL cache of the answers it got,
//! and the table of queries still waiting for one.
//!
//! A `DhtGet` whose reply is lost (dead coordinator, routed into a crashed
//! node) never answers, so the table cannot be emptied by replies alone:
//! every query issued prunes the ones older than [`QUERY_TIMEOUT`]. Brunet-ARP
//! and both directions of the name service share this one copy.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use ipop_simcore::{Duration, SimTime};

/// How long an unanswered query stays in the table. A pruned query's late
/// reply is dropped; a fresh query answers instead.
pub(crate) const QUERY_TIMEOUT: Duration = Duration::from_secs(5);

/// Answers cached for `cache_ttl`, and outstanding query tokens, for lookups
/// of a `K` that resolve to a `V`. `BTreeMap`s for deterministic iteration.
pub(crate) struct Lookups<K, V> {
    cache_ttl: Duration,
    cache: BTreeMap<K, (V, SimTime)>,
    /// Query token → the key it resolves and when it was issued.
    outstanding: BTreeMap<u64, (K, SimTime)>,
}

impl<K: Ord, V: Clone> Lookups<K, V> {
    /// An empty table whose cache entries live for `cache_ttl`.
    pub(crate) fn new(cache_ttl: Duration) -> Self {
        Lookups {
            cache_ttl,
            cache: BTreeMap::new(),
            outstanding: BTreeMap::new(),
        }
    }

    /// The cached answer for `key` while it is fresh; a stale one is dropped.
    pub(crate) fn cached<Q>(&mut self, now: SimTime, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (value, stored_at) = self.cache.get(key)?;
        if now.saturating_since(*stored_at) < self.cache_ttl {
            return Some(value.clone());
        }
        self.cache.remove(key);
        None
    }

    /// Is a query for `key` outstanding and not yet timed out?
    pub(crate) fn is_pending(&self, now: SimTime, key: &K) -> bool {
        self.outstanding
            .values()
            .any(|(k, issued)| k == key && now.saturating_since(*issued) < QUERY_TIMEOUT)
    }

    /// Record that query `token` resolves `key`. Every timed-out entry is
    /// pruned (not just this key's) — without this, a lost reply for a key
    /// never queried again would leak its entry for the life of the node.
    pub(crate) fn issued(&mut self, now: SimTime, token: u64, key: K) {
        self.outstanding
            .retain(|_, (_, issued)| now.saturating_since(*issued) < QUERY_TIMEOUT);
        self.outstanding.insert(token, (key, now));
    }

    /// The reply to `token` arrived: forget the query and name the key it
    /// asked for. `None` when the token is not ours (or was pruned).
    pub(crate) fn answered(&mut self, token: u64) -> Option<K> {
        self.outstanding.remove(&token).map(|(key, _)| key)
    }

    /// Cache `value` as the answer for `key`.
    pub(crate) fn store(&mut self, now: SimTime, key: K, value: V) {
        self.cache.insert(key, (value, now));
    }

    /// Forget every outstanding query; the cache survives.
    pub(crate) fn clear_outstanding(&mut self) {
        self.outstanding.clear();
    }

    /// Number of queries awaiting a reply.
    #[cfg(test)]
    pub(crate) fn outstanding_len(&self) -> usize {
        self.outstanding.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_are_cached_until_the_ttl() {
        let mut l: Lookups<u8, u32> = Lookups::new(Duration::from_secs(10));
        let t0 = SimTime::ZERO;
        assert_eq!(l.cached(t0, &1), None);
        l.issued(t0, 7, 1);
        assert!(l.is_pending(t0, &1));
        assert!(!l.is_pending(t0, &2));
        assert_eq!(l.answered(7), Some(1));
        assert_eq!(l.answered(7), None, "a token answers once");
        l.store(t0, 1, 99);
        assert_eq!(l.cached(t0 + Duration::from_secs(9), &1), Some(99));
        assert_eq!(l.cached(t0 + Duration::from_secs(10), &1), None);
        assert!(l.cache.is_empty(), "the stale entry was dropped");
    }
}

//! One bounded memo for every resident cache: record once, share the
//! [`Arc`]'d result with every later request for the same key.
//!
//! The kernel-trace cache ([`crate::TraceCache`]), the graph-trace
//! cache ([`crate::GraphTraceCache`]), the serve daemon's plan cache,
//! the tuner's cost cache and the Figure 15 FMHA profile are all
//! [`Memo`]s, so they share one policy:
//!
//! - the caller's own lookup decides whether its call was a hit;
//! - on a miss the value is made *outside* the lock, so a slow
//!   recording never blocks lookups of other keys;
//! - when two misses of one key race, both make the value, both count a
//!   recording, and the first insert wins — both callers get its `Arc`;
//! - a failed make caches nothing and counts nothing;
//! - past capacity, inserting evicts the least-recently-used entry
//!   (a hit counts as a use).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};

/// A `Sync`, LRU-bounded map from `K` to shared `Arc<V>`s.
///
/// `CAPACITY` is the bound [`Memo::new`] (and `Default`) use;
/// [`Memo::with_capacity`] overrides it.
#[derive(Debug)]
pub struct Memo<K, V, const CAPACITY: usize> {
    capacity: usize,
    inner: Mutex<Entries<K, V>>,
}

/// The map and its counters, behind the memo's one lock.
///
/// Recency is a monotone stamp bumped on every hit and insert; eviction
/// removes the minimum-stamp entry. The scan is O(len) per eviction,
/// which is irrelevant against the recording run that a miss pays.
#[derive(Debug)]
struct Entries<K, V> {
    map: HashMap<K, (Arc<V>, u64)>,
    tick: u64,
    hits: u64,
    recordings: u64,
    evictions: u64,
}

impl<K, V, const CAPACITY: usize> Default for Memo<K, V, CAPACITY> {
    fn default() -> Self {
        Self::with_capacity(CAPACITY)
    }
}

impl<K, V, const CAPACITY: usize> Memo<K, V, CAPACITY> {
    /// An empty memo bounded by `CAPACITY`.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty memo holding at most `capacity` entries (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let entries =
            Entries { map: HashMap::new(), tick: 0, hits: 0, recordings: 0, evictions: 0 };
        Memo { capacity: capacity.max(1), inner: Mutex::new(entries) }
    }

    fn lock(&self) -> MutexGuard<'_, Entries<K, V>> {
        self.inner.lock().expect("memo poisoned: a thread panicked while holding its lock")
    }

    /// Calls served from a resident entry.
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Values made and offered for insertion (racing misses each count).
    pub fn recordings(&self) -> u64 {
        self.lock().recordings
    }

    /// Entries evicted by the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of `f` over the resident values, without touching recency.
    pub fn sum_by(&self, f: impl Fn(&V) -> usize) -> usize {
        self.lock().map.values().map(|(v, _)| f(v)).sum()
    }
}

impl<K: Hash + Eq + Clone, V, const CAPACITY: usize> Memo<K, V, CAPACITY> {
    /// The value under `key` and whether this call's lookup found it.
    /// Only a miss runs `make`, outside the lock; see the module docs
    /// for the race, failure and eviction policy.
    ///
    /// # Errors
    ///
    /// Whatever `make` returns; nothing is cached or counted.
    pub fn get_or_insert_with<E>(
        &self,
        key: &K,
        make: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        let mut e = self.lock();
        if let Some(v) = e.get(key) {
            e.hits += 1;
            return Ok((v, true));
        }
        drop(e);
        let made = Arc::new(make()?);
        let mut e = self.lock();
        e.recordings += 1;
        if let Some(first) = e.get(key) {
            return Ok((first, false));
        }
        if e.map.len() >= self.capacity {
            let victim = e.map.iter().min_by_key(|(_, (_, used))| *used).map(|(k, _)| k.clone());
            e.map.remove(&victim.expect("a full memo has an entry"));
            e.evictions += 1;
        }
        // The missed `get` above stamped a tick no entry holds yet.
        let tick = e.tick;
        e.map.insert(key.clone(), (Arc::clone(&made), tick));
        Ok((made, false))
    }
}

impl<K: Hash + Eq, V> Entries<K, V> {
    /// Looks up `key`, marking it most recently used.
    fn get(&mut self, key: &K) -> Option<Arc<V>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(v, used)| {
            *used = tick;
            Arc::clone(v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    type M = Memo<&'static str, u32, 2>;

    fn ok(v: u32) -> impl FnOnce() -> Result<u32, ()> {
        move || Ok(v)
    }

    #[test]
    fn a_hit_bumps_recency_so_the_least_recently_used_entry_is_evicted() {
        let m = M::new();
        m.get_or_insert_with(&"a", ok(1)).unwrap();
        m.get_or_insert_with(&"b", ok(2)).unwrap();
        // `a` is older by insertion but used last.
        assert!(m.get_or_insert_with(&"a", ok(0)).unwrap().1);
        m.get_or_insert_with(&"c", ok(3)).unwrap();
        assert_eq!((m.len(), m.evictions()), (2, 1));
        assert!(m.get_or_insert_with(&"a", ok(0)).unwrap().1, "a survives");
        let (b, hit) = m.get_or_insert_with(&"b", ok(20)).unwrap();
        assert!(!hit, "b was the least recently used");
        assert_eq!(*b, 20);
        assert_eq!((m.hits(), m.recordings(), m.evictions()), (2, 4, 2));
    }

    #[test]
    fn a_failed_make_caches_and_counts_nothing() {
        let m = M::new();
        assert_eq!(m.get_or_insert_with(&"a", || Err::<u32, _>("refused")), Err("refused"));
        assert_eq!((m.hits(), m.recordings(), m.evictions(), m.len()), (0, 0, 0, 0));
        let (v, hit) = m.get_or_insert_with(&"a", ok(7)).unwrap();
        assert_eq!((*v, hit, m.recordings()), (7, false, 1));
    }

    #[test]
    fn racing_misses_both_record_and_share_the_first_insert() {
        let m = M::new();
        let both_missed = Barrier::new(2);
        let (x, y) = std::thread::scope(|s| {
            let run = |v| {
                let (m, both_missed) = (&m, &both_missed);
                s.spawn(move || {
                    m.get_or_insert_with(&"k", || {
                        both_missed.wait();
                        Ok::<_, ()>(v)
                    })
                    .unwrap()
                })
            };
            let (x, y) = (run(1), run(2));
            (x.join().unwrap(), y.join().unwrap())
        });
        assert!(!x.1 && !y.1, "both lookups missed");
        assert!(Arc::ptr_eq(&x.0, &y.0), "both callers get the first insert");
        assert_eq!((m.recordings(), m.hits(), m.len()), (2, 0, 1));
    }

    #[test]
    fn the_hit_flag_comes_from_the_callers_own_lookup() {
        let m = M::new();
        // The make runs outside the lock, so it can itself insert the
        // key; the outer call still reports its own miss and returns
        // the entry that was inserted first.
        let (outer, hit) = m
            .get_or_insert_with(&"k", || {
                let (inner, hit) = m.get_or_insert_with(&"k", ok(1)).unwrap();
                assert!(!hit);
                assert_eq!(*inner, 1);
                Ok::<_, ()>(2)
            })
            .unwrap();
        assert!(!hit, "the outer lookup missed");
        assert_eq!(*outer, 1, "first insert wins");
        assert_eq!((m.hits(), m.recordings()), (0, 2));
        assert!(m.get_or_insert_with(&"k", ok(3)).unwrap().1);
    }
}

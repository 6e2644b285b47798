//! A slab-backed LRU map used by the cache tiers.
//!
//! Implemented in-repo (no external LRU crates in the dependency budget):
//! a `HashMap` from key to slot index plus an intrusive doubly-linked list
//! threaded through a slab of entries. All operations are O(1).

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// An LRU-ordered map. Most-recently-used entries are at the front;
/// [`LruMap::pop_lru`] removes the least-recently-used entry.
#[derive(Debug)]
pub struct LruMap<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Option<Slot<K, V>>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl<K: Eq + Hash + Clone, V> Default for LruMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// Create an empty map.
    pub fn new() -> Self {
        Self {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Insert or replace; the entry becomes most-recently-used.
    /// Returns the previous value if the key was present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(&idx) = self.map.get(&key) {
            self.detach(idx);
            self.attach_front(idx);
            let slot = self.slots[idx].as_mut().expect("live slot");
            return Some(std::mem::replace(&mut slot.value, value));
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                i
            }
            None => {
                self.slots.push(Some(Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                }));
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
        None
    }

    /// Get a reference and mark the entry most-recently-used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.detach(idx);
        self.attach_front(idx);
        Some(&self.slots[idx].as_ref().expect("live slot").value)
    }

    /// A reference without disturbing recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        Some(&self.slots[idx].as_ref().expect("live slot").value)
    }

    /// Whether the key is present (does not disturb recency).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Remove a specific key.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        let slot = self.slots[idx].take().expect("live slot");
        self.free.push(idx);
        Some(slot.value)
    }

    /// Remove and return the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        self.detach(idx);
        let slot = self.slots[idx].take().expect("live slot");
        self.map.remove(&slot.key);
        self.free.push(idx);
        Some((slot.key, slot.value))
    }

    /// Iterate in eviction order, least-recently-used first (no recency
    /// effect).
    pub fn iter_lru(&self) -> impl Iterator<Item = (&K, &V)> {
        let mut idx = self.tail;
        std::iter::from_fn(move || {
            if idx == NIL {
                return None;
            }
            let slot = self.slots[idx].as_ref().expect("live slot");
            idx = slot.prev;
            Some((&slot.key, &slot.value))
        })
    }

    /// Remove all entries for which `pred` returns true, returning them.
    pub fn drain_filter(&mut self, mut pred: impl FnMut(&K, &V) -> bool) -> Vec<(K, V)> {
        let keys: Vec<K> = self
            .slots
            .iter()
            .filter_map(|s| s.as_ref())
            .filter(|s| pred(&s.key, &s.value))
            .map(|s| s.key.clone())
            .collect();
        keys.into_iter()
            .filter_map(|k| {
                let v = self.remove(&k)?;
                Some((k, v))
            })
            .collect()
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = {
            let slot = self.slots[idx].as_ref().expect("live slot");
            (slot.prev, slot.next)
        };
        if prev != NIL {
            self.slots[prev].as_mut().expect("live slot").next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].as_mut().expect("live slot").prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        let slot = self.slots[idx].as_mut().expect("live slot");
        slot.prev = NIL;
        slot.next = NIL;
    }

    fn attach_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let slot = self.slots[idx].as_mut().expect("live slot");
            slot.prev = NIL;
            slot.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head].as_mut().expect("live slot").prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut lru = LruMap::new();
        assert!(lru.is_empty());
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&"a"), Some(&1));
        assert_eq!(lru.remove(&"a"), Some(1));
        assert_eq!(lru.get(&"a"), None);
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn eviction_order_is_lru() {
        let mut lru = LruMap::new();
        lru.insert(1, ());
        lru.insert(2, ());
        lru.insert(3, ());
        // Touch 1 so 2 becomes LRU.
        lru.get(&1);
        let order: Vec<i32> = lru.iter_lru().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![2, 3, 1], "iter_lru walks LRU → MRU");
        assert_eq!(lru.pop_lru().map(|(k, _)| k), Some(2));
        assert_eq!(lru.pop_lru().map(|(k, _)| k), Some(3));
        assert_eq!(lru.pop_lru().map(|(k, _)| k), Some(1));
        assert_eq!(lru.pop_lru(), None);
    }

    #[test]
    fn insert_replaces_and_promotes() {
        let mut lru = LruMap::new();
        lru.insert("k", 1);
        lru.insert("x", 9);
        assert_eq!(lru.insert("k", 2), Some(1));
        // "x" is now LRU because "k" was refreshed.
        assert_eq!(lru.pop_lru().map(|(k, _)| k), Some("x"));
        assert_eq!(lru.get(&"k"), Some(&2));
    }

    #[test]
    fn slot_reuse_after_removal() {
        let mut lru = LruMap::new();
        for i in 0..100 {
            lru.insert(i, i);
        }
        for i in 0..100 {
            assert_eq!(lru.remove(&i), Some(i));
        }
        // Slab slots must be reused, not grown.
        let before = lru.slots.len();
        for i in 100..200 {
            lru.insert(i, i);
        }
        assert_eq!(lru.slots.len(), before);
    }

    #[test]
    fn drain_filter_removes_matching() {
        let mut lru = LruMap::new();
        for i in 0..10 {
            lru.insert(i, i * 10);
        }
        let drained = lru.drain_filter(|k, _| k % 2 == 0);
        assert_eq!(drained.len(), 5);
        assert_eq!(lru.len(), 5);
        assert!(!lru.contains(&0));
        assert!(lru.contains(&1));
        // Remaining list is still well-formed.
        let mut n = 0;
        while lru.pop_lru().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
    }

    #[test]
    fn stress_against_model() {
        // Compare against a straightforward Vec-based model.
        use std::collections::VecDeque;
        let mut lru = LruMap::new();
        let mut model: VecDeque<u32> = VecDeque::new(); // front = MRU
        let ops: Vec<u32> = (0..1000)
            .map(|i| (i * 2_654_435_761u64 % 37) as u32)
            .collect();
        for (i, k) in ops.iter().enumerate() {
            match i % 3 {
                0 => {
                    lru.insert(*k, i);
                    model.retain(|x| x != k);
                    model.push_front(*k);
                }
                1 => {
                    let got = lru.get(k).is_some();
                    let have = model.contains(k);
                    assert_eq!(got, have);
                    if have {
                        model.retain(|x| x != k);
                        model.push_front(*k);
                    }
                }
                _ => {
                    let got = lru.pop_lru().map(|(k, _)| k);
                    let have = model.pop_back();
                    assert_eq!(got, have);
                }
            }
            assert_eq!(lru.len(), model.len());
        }
    }
}

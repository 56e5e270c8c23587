//! A small, dependency-free LRU map used to bound the analysis caches.
//!
//! Entries live in a slab (`Vec` of nodes) threaded onto an intrusive
//! doubly-linked list by index; a `HashMap` gives O(1) key → slot lookup.
//! `get` promotes to most-recently-used; `insert` evicts the
//! least-recently-used entry once the configured capacity is reached.
//! Capacity `0` means unbounded (no eviction).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// FNV-1a [`Hasher`] for the index map and the analysis-context
/// fingerprints. The keys are small fixed-size tuples of integers (shape
/// keys and fingerprints), where FNV beats the default SipHash handily;
/// HashDoS resistance is irrelevant because the keys are internally
/// derived fingerprints, not attacker-controlled input.
#[derive(Default)]
pub struct FnvHasher(u64);

impl FnvHasher {
    /// Absorb one 64-bit word (one xor-multiply round).
    #[inline]
    fn word(&mut self, w: u64) {
        let h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        self.0 = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Word-at-a-time FNV-1a (one xor-multiply per 8 bytes): the keys
        // are ~100-byte fingerprint tuples, so per-byte multiplies would
        // dominate every cache lookup. In-memory only — no canonical FNV
        // vectors to honor, a length-tagged tail keeps short inputs
        // distinct.
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            let w = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = rest.len() as u64;
            for &b in rest {
                w = (w << 8) | u64::from(b);
            }
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    // Derived `Hash` impls feed keys to the hasher field by field through
    // these fixed-width calls; absorbing each as one word skips the
    // byte-slice machinery on the hot lookup path.

    fn write_u8(&mut self, v: u8) {
        self.word(u64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.word(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.word(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.word(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.word(v as u64);
    }
}

type FnvBuild = BuildHasherDefault<FnvHasher>;

/// Sentinel index for "no node".
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    val: V,
    prev: usize,
    next: usize,
}

/// A bounded least-recently-used map.
#[derive(Debug)]
pub struct Lru<K, V> {
    cap: usize,
    map: HashMap<K, usize, FnvBuild>,
    nodes: Vec<Node<K, V>>,
    /// Most-recently-used node.
    head: usize,
    /// Least-recently-used node (eviction candidate).
    tail: usize,
    /// Recycled slab slots.
    free: Vec<usize>,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An LRU map holding at most `cap` entries (`0` = unbounded).
    pub fn new(cap: usize) -> Self {
        Lru {
            cap,
            map: HashMap::default(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity (`0` = unbounded).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Detach node `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    /// Attach node `i` at the most-recently-used end.
    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Look up `key` without promoting it: a read that must not perturb
    /// the recency order (e.g. a brownout probe asking "is this cached?"
    /// on behalf of a request that will not pay for a recompute).
    pub fn peek(&self, key: &K) -> Option<&V> {
        let i = *self.map.get(key)?;
        Some(&self.nodes[i].val)
    }

    /// Look up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let i = *self.map.get(key)?;
        if i != self.head {
            self.unlink(i);
            self.push_front(i);
        }
        Some(&self.nodes[i].val)
    }

    /// Insert or replace `key`. Returns the number of entries evicted to
    /// make room (0 or 1), so callers can keep an exact eviction counter.
    pub fn insert(&mut self, key: K, val: V) -> u64 {
        if let Some(&i) = self.map.get(&key) {
            self.nodes[i].val = val;
            if i != self.head {
                self.unlink(i);
                self.push_front(i);
            }
            return 0;
        }
        let mut evicted = 0u64;
        if self.cap > 0 && self.map.len() >= self.cap && self.tail != NIL {
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.nodes[victim].key);
            self.free.push(victim);
            evicted = 1;
        }
        let slot = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = Node {
                    key: key.clone(),
                    val,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.nodes.push(Node {
                    key: key.clone(),
                    val,
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.push_front(slot);
        self.map.insert(key, slot);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_evicts() {
        let mut l = Lru::new(0);
        for i in 0..1000u32 {
            assert_eq!(l.insert(i, i * 2), 0);
        }
        assert_eq!(l.len(), 1000);
        assert_eq!(l.get(&0), Some(&0));
        assert_eq!(l.get(&999), Some(&1998));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut l = Lru::new(2);
        assert_eq!(l.insert('a', 1), 0);
        assert_eq!(l.insert('b', 2), 0);
        // Touch 'a' so 'b' becomes the LRU entry.
        assert_eq!(l.get(&'a'), Some(&1));
        assert_eq!(l.insert('c', 3), 1);
        assert_eq!(l.get(&'b'), None);
        assert_eq!(l.get(&'a'), Some(&1));
        assert_eq!(l.get(&'c'), Some(&3));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn replace_does_not_evict() {
        let mut l = Lru::new(2);
        l.insert('a', 1);
        l.insert('b', 2);
        assert_eq!(l.insert('a', 10), 0);
        assert_eq!(l.len(), 2);
        assert_eq!(l.get(&'a'), Some(&10));
        assert_eq!(l.get(&'b'), Some(&2));
    }

    #[test]
    fn eviction_order_follows_recency_chain() {
        let mut l = Lru::new(3);
        for (k, v) in [('a', 1), ('b', 2), ('c', 3)] {
            l.insert(k, v);
        }
        // MRU: c, b, a. Promote 'a', insert two: evicts 'b' then 'c'.
        l.get(&'a');
        assert_eq!(l.insert('d', 4), 1);
        assert_eq!(l.get(&'b'), None);
        assert_eq!(l.insert('e', 5), 1);
        assert_eq!(l.get(&'c'), None);
        assert_eq!(l.get(&'a'), Some(&1));
        assert_eq!(l.get(&'d'), Some(&4));
        assert_eq!(l.get(&'e'), Some(&5));
    }

    #[test]
    fn slots_are_recycled_after_eviction() {
        let mut l = Lru::new(4);
        for i in 0..64u32 {
            l.insert(i, i);
        }
        assert_eq!(l.len(), 4);
        // Slab never grows past cap + nothing: 4 live slots reused forever.
        assert!(l.nodes.len() <= 5);
    }
}

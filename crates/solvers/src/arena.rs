//! Allocation-free state interning for the exact search kernel.
//!
//! The search kernel ([`crate::search`]) interns millions of fixed-width `u64` state keys. The
//! naive representation (`HashMap<Box<[u64]>, u32>` plus a parallel
//! `Vec<Box<[u64]>>`) pays two heap allocations per interned state and a
//! pointer chase per probe. [`StateArena`] replaces it with:
//!
//! - a single growable `Vec<u64>` **arena** holding every key
//!   contiguously — the key of state `id` lives at
//!   `arena[id·key_words .. (id+1)·key_words]`;
//! - an open-addressing (linear-probe) **index** of `u32` ids, hashed
//!   from arena slices with the Fx word hash.
//!
//! `intern` on the hit path is a hash, a probe, and one slice compare —
//! zero allocation. On the miss path it is one `extend_from_slice` into
//! the arena (amortized grow) plus a table store. Ids are dense and
//! assigned in first-intern order, so the kernel's per-state bookkeeping
//! lives in parallel arrays instead of per-state boxes.
//!
//! The open list that orders those ids, `Frontier`, lives here too.

use rbp_graph::hash::hash_words;
use std::collections::{BTreeMap, VecDeque};

/// Sentinel id marking an empty slot in the probe table and the root's
/// parent in the search kernel's bookkeeping.
pub const NO_STATE: u32 = u32::MAX;

/// A flat intern table for fixed-width `u64` keys.
///
/// Capacity is bounded at `u32::MAX - 1` states (the probe table stores
/// `u32` ids with [`NO_STATE`] reserved), far beyond what fits in memory.
#[derive(Clone, Debug)]
pub struct StateArena {
    key_words: usize,
    /// All keys, contiguous; state `id` owns words `id*kw..(id+1)*kw`.
    arena: Vec<u64>,
    /// Open-addressing table of ids; `NO_STATE` marks an empty slot.
    /// Length is always a power of two.
    table: Vec<u32>,
    /// `table.len() - 1`, cached for masking hashes into slots.
    mask: usize,
}

impl StateArena {
    /// Creates an arena for keys of exactly `key_words` words.
    pub fn new(key_words: usize) -> Self {
        Self::with_capacity(key_words, 1024)
    }

    /// Creates an arena pre-sized for roughly `states` interned keys.
    pub fn with_capacity(key_words: usize, states: usize) -> Self {
        assert!(key_words > 0, "keys must be at least one word wide");
        let slots = (states * 2).next_power_of_two().max(16);
        StateArena {
            key_words,
            arena: Vec::with_capacity(states.saturating_mul(key_words)),
            table: vec![NO_STATE; slots],
            mask: slots - 1,
        }
    }

    /// Width of every key, in `u64` words.
    #[inline]
    pub fn key_words(&self) -> usize {
        self.key_words
    }

    /// Number of interned states.
    #[inline]
    pub fn len(&self) -> usize {
        self.arena.len() / self.key_words
    }

    /// Whether no state has been interned yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// The key of state `id`, borrowed from the arena.
    #[inline]
    pub fn key(&self, id: u32) -> &[u64] {
        let start = id as usize * self.key_words;
        &self.arena[start..start + self.key_words]
    }

    /// Interns `key`, returning `(id, fresh)` where `fresh` is `true` iff
    /// the key was not present before. Ids are dense: the k-th distinct
    /// key ever interned gets id `k - 1`.
    pub fn intern(&mut self, key: &[u64]) -> (u32, bool) {
        debug_assert_eq!(key.len(), self.key_words, "key width mismatch");
        // Grow at 7/8 occupancy, before probing, so insertion below
        // always finds an empty slot.
        if (self.len() + 1) * 8 > self.table.len() * 7 {
            self.grow();
        }
        let mut slot = hash_words(key) as usize & self.mask;
        loop {
            let id = self.table[slot];
            if id == NO_STATE {
                let fresh_id = self.len() as u32;
                assert!(fresh_id != NO_STATE, "state arena id space exhausted");
                self.arena.extend_from_slice(key);
                self.table[slot] = fresh_id;
                return (fresh_id, true);
            }
            if self.key(id) == key {
                return (id, false);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Doubles the probe table and re-inserts every id. Keys never move:
    /// only the index is rebuilt, hashing each key in place in the arena.
    fn grow(&mut self) {
        let new_len = self.table.len() * 2;
        let mut table = vec![NO_STATE; new_len];
        let mask = new_len - 1;
        for id in 0..self.len() as u32 {
            let mut slot = hash_words(self.key(id)) as usize & mask;
            while table[slot] != NO_STATE {
                slot = (slot + 1) & mask;
            }
            table[slot] = id;
        }
        self.table = table;
        self.mask = mask;
    }
}

/// The open list of the exact searches: state ids ordered by the key
/// `(f, unsatisfied sinks)`, first-in first-out among equal keys.
///
/// Any order among equal `f` is valid for Dijkstra/A*; preferring fewer
/// unsatisfied sinks steers the last `f` layer toward goals, and FIFO
/// keeps the returned traces short (newest-first would pop long chains
/// of zero-cost moves before their siblings).
///
/// Storage is an ordered map from key to a FIFO bucket, sparse because a
/// scaled `f` is an arbitrary `u64` (any compcost ε, any MPP comm/comp
/// ratio), so no array may be indexed by it. A pop takes the front of
/// the first bucket, so it is exact min-key even when a push lands below
/// the last popped key (the unpruned A* configuration can lower `f`).
///
/// Entries are never updated in place: a state relaxed twice is queued
/// twice, and the search skips the stale entry when it pops.
#[derive(Debug, Default)]
pub(crate) struct Frontier {
    buckets: BTreeMap<(u64, u32), VecDeque<u32>>,
    len: usize,
}

impl Frontier {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of queued entries, stale duplicates included (this is what
    /// [`crate::api::Progress::frontier`] reports).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Queues state `id` under the key `(f, unsat)`.
    #[inline]
    pub(crate) fn push(&mut self, f: u64, unsat: u32, id: u32) {
        self.buckets.entry((f, unsat)).or_default().push_back(id);
        self.len += 1;
    }

    /// Removes the oldest entry of the minimum key, as `(f, id)`.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(u64, u32)> {
        let mut first = self.buckets.first_entry()?;
        let f = first.key().0;
        let id = first
            .get_mut()
            .pop_front()
            .expect("buckets are never empty");
        if first.get().is_empty() {
            first.remove();
        }
        self.len -= 1;
        Some((f, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut Frontier) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn frontier_pops_in_min_key_order() {
        let mut q = Frontier::default();
        // f dominates, unsat breaks ties between equal f
        for (f, unsat, id) in [(5, 0, 1), (3, 2, 2), (9, 0, 3), (3, 1, 4), (0, 7, 5)] {
            q.push(f, unsat, id);
        }
        assert_eq!(q.len(), 5);
        assert_eq!(drain(&mut q), vec![(0, 5), (3, 4), (3, 2), (5, 1), (9, 3)]);
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn frontier_is_fifo_within_a_key() {
        let mut q = Frontier::default();
        for id in 0..5 {
            q.push(4, 1, id);
            q.push(6, 0, 10 + id);
        }
        let ids: Vec<u32> = drain(&mut q).into_iter().map(|(_, id)| id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 10, 11, 12, 13, 14]);
    }

    #[test]
    fn frontier_pops_a_key_below_the_last_popped_first() {
        let mut q = Frontier::default();
        q.push(10, 2, 1);
        q.push(10, 2, 2);
        q.push(12, 0, 3);
        assert_eq!(q.pop(), Some((10, 1)));
        // below the last popped key: same f with fewer unsat, then a lower f
        q.push(10, 1, 4);
        q.push(7, 3, 5);
        q.push(10, 2, 6);
        assert_eq!(q.len(), 5);
        assert_eq!(
            drain(&mut q),
            vec![(7, 5), (10, 4), (10, 2), (10, 6), (12, 3)]
        );
    }

    #[test]
    fn frontier_len_counts_stale_duplicates() {
        let mut q = Frontier::default();
        // the same state relaxed twice is queued twice
        q.push(8, 1, 42);
        q.push(5, 1, 42);
        q.push(9, 0, 7);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((5, 42)));
        assert_eq!(q.len(), 2);
        assert_eq!(drain(&mut q), vec![(8, 42), (9, 7)]);
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn intern_assigns_dense_ids_and_roundtrips() {
        let mut a = StateArena::new(2);
        assert!(a.is_empty());
        let (i0, f0) = a.intern(&[1, 2]);
        let (i1, f1) = a.intern(&[3, 4]);
        let (i0b, f0b) = a.intern(&[1, 2]);
        assert_eq!((i0, f0), (0, true));
        assert_eq!((i1, f1), (1, true));
        assert_eq!((i0b, f0b), (0, false));
        assert_eq!(a.len(), 2);
        assert_eq!(a.key(0), &[1, 2]);
        assert_eq!(a.key(1), &[3, 4]);
    }

    #[test]
    fn zero_key_is_a_valid_state() {
        let mut a = StateArena::new(3);
        let (id, fresh) = a.intern(&[0, 0, 0]);
        assert!(fresh);
        assert_eq!(a.key(id), &[0, 0, 0]);
        assert_eq!(a.intern(&[0, 0, 0]), (id, false));
    }

    #[test]
    fn survives_table_growth() {
        // start tiny so several doublings happen
        let mut a = StateArena::with_capacity(1, 4);
        for k in 0..10_000u64 {
            let (id, fresh) = a.intern(&[k.wrapping_mul(0x9e37_79b9_7f4a_7c15)]);
            assert_eq!(id as u64, k);
            assert!(fresh);
        }
        for k in 0..10_000u64 {
            let (id, fresh) = a.intern(&[k.wrapping_mul(0x9e37_79b9_7f4a_7c15)]);
            assert_eq!(id as u64, k);
            assert!(!fresh);
        }
        assert_eq!(a.len(), 10_000);
    }

    #[test]
    fn colliding_prefixes_stay_distinct() {
        // keys sharing every word but the last must not alias
        let mut a = StateArena::new(4);
        let (x, _) = a.intern(&[7, 7, 7, 1]);
        let (y, _) = a.intern(&[7, 7, 7, 2]);
        assert_ne!(x, y);
        assert_eq!(a.key(x)[3], 1);
        assert_eq!(a.key(y)[3], 2);
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn zero_width_keys_rejected() {
        let _ = StateArena::new(0);
    }
}

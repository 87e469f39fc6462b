//! A bounded `(row, count)` table with O(log n) minimum and maximum.
//!
//! The space-saving trackers need three things on every operation: find a
//! row's counter, find the entry that the next replacement evicts (the
//! minimum by `(count, row)`), and find the entry that the next REF mitigates
//! (the maximum count, smallest row among ties). A plain map answers the
//! first in O(1) and the other two only by scanning every entry.
//! [`CounterTable`] keeps a `row → slot` index and two indexed binary heaps
//! over the slots, so a hit costs one lookup plus a sift, and an eviction or
//! a REF costs O(log capacity).
//!
//! Both heaps are min-heaps over one packed `u128` key per entry, which
//! holds the count, the row and the slot id. The keys are total orders
//! (counts first, then rows), so the top of each heap is unique and no
//! decision depends on the heaps' internal layout: a table rebuilt from a
//! snapshot decides exactly like the table that wrote it.

use mint_dram::RowId;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// Heap of the replacement victim: key `(count, row, slot)`, so the
/// smallest `(count, row)` is on top.
const MIN: usize = 0;
/// Heap of the REF target: key `(!count, row, slot)`, so the largest count,
/// then the smallest row, is on top.
const MAX: usize = 1;

/// One count step in a heap key.
const ONE: u128 = 1 << 64;

fn key(h: usize, count: u64, row: RowId, slot: u32) -> u128 {
    let count = if h == MIN { count } else { !count };
    (u128::from(count) << 64) | (u128::from(row.0) << 32) | u128::from(slot)
}

fn key_count(h: usize, key: u128) -> u64 {
    let count = (key >> 64) as u64;
    if h == MIN {
        count
    } else {
        !count
    }
}

fn key_row(key: u128) -> RowId {
    RowId((key >> 32) as u32)
}

fn key_slot(key: u128) -> usize {
    key as u32 as usize
}

/// Hashes a [`RowId`] with one widening multiply of the row xor a key,
/// folded so both halves of the product reach the bucket bits. Rows can
/// come from a trace file, so the key is drawn once per process from the
/// standard library's random hasher state: without it, a trace could pick
/// rows that all land in one bucket. The index is only looked up, never
/// iterated, so the key cannot change any output.
pub(crate) struct RowHasher(u64);

impl Hasher for RowHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, x: u32) {
        let m = u128::from(self.0 ^ u64::from(x)) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

/// Builds [`RowHasher`]s with the process key.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowHashKey(u64);

impl Default for RowHashKey {
    fn default() -> Self {
        static KEY: OnceLock<u64> = OnceLock::new();
        Self(*KEY.get_or_init(|| RandomState::new().build_hasher().finish()))
    }
}

impl BuildHasher for RowHashKey {
    type Hasher = RowHasher;

    fn build_hasher(&self) -> RowHasher {
        RowHasher(self.0)
    }
}

/// A `row → slot` index.
pub(crate) type RowIndex = HashMap<RowId, u32, RowHashKey>;

/// A bounded counter table; see the module docs.
///
/// It holds three allocations, each sized to `capacity` once, on the first
/// insert: building a table that never sees an activation (as every bank
/// of a short or idle run does) costs no table memory.
#[derive(Debug, Clone)]
pub(crate) struct CounterTable {
    capacity: usize,
    /// Occupied slots: `0..len`.
    len: usize,
    /// Position of each slot in the [`MIN`] and [`MAX`] heaps.
    at: Vec<[u32; 2]>,
    index: RowIndex,
    /// The [`MIN`] heap's keys in `0..len`, the [`MAX`] heap's in
    /// `capacity..capacity + len`. Empty until the first insert.
    heaps: Box<[u128]>,
}

impl CounterTable {
    /// An empty table of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` exceeds `u32::MAX`.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(
            u32::try_from(capacity).is_ok(),
            "table capacity {capacity} exceeds u32"
        );
        Self {
            capacity,
            len: 0,
            at: Vec::new(),
            index: RowIndex::default(),
            heaps: Box::default(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    pub(crate) fn get(&self, row: RowId) -> Option<u64> {
        let &s = self.index.get(&row)?;
        Some(key_count(MIN, self.key_of(MIN, s as usize)))
    }

    /// Every `(row, count)` entry, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (RowId, u64)> + '_ {
        self.heaps[..self.len]
            .iter()
            .map(|&k| (key_row(k), key_count(MIN, k)))
    }

    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.index.clear();
    }

    /// Adds one to `row`'s counter; `false` if `row` is not tracked.
    pub(crate) fn increment(&mut self, row: RowId) -> bool {
        let Some(&s) = self.index.get(&row) else {
            return false;
        };
        let [min_at, max_at] = self.at[s as usize].map(|p| p as usize);
        self.heaps[min_at] += ONE;
        self.heaps[self.capacity + max_at] -= ONE;
        self.sift_down(MIN, min_at);
        self.sift_up(MAX, max_at);
        true
    }

    /// Tracks `row` with `count`; `false` if `row` is already tracked.
    ///
    /// # Panics
    ///
    /// Panics if the table is full.
    pub(crate) fn insert(&mut self, row: RowId, count: u64) -> bool {
        assert!(!self.is_full(), "insert into a full table");
        if self.heaps.is_empty() {
            self.at = vec![[0; 2]; self.capacity];
            self.index.reserve(self.capacity);
            self.heaps = vec![0; 2 * self.capacity].into_boxed_slice();
        }
        let s = self.len;
        match self.index.entry(row) {
            Entry::Occupied(_) => return false,
            Entry::Vacant(v) => v.insert(s as u32),
        };
        self.len += 1;
        for h in [MIN, MAX] {
            self.place(h, s, key(h, count, row, s as u32));
            self.sift_up(h, s);
        }
        true
    }

    /// The entry with the smallest `(count, row)`.
    pub(crate) fn min(&self) -> Option<(RowId, u64)> {
        self.top(MIN)
    }

    /// The entry with the largest count, the smallest row among ties.
    pub(crate) fn max(&self) -> Option<(RowId, u64)> {
        self.top(MAX)
    }

    /// Evicts the [`min`](Self::min) entry and tracks `row` in its place
    /// with `count`, which must exceed the evicted count.
    pub(crate) fn replace_min(&mut self, row: RowId, count: u64) {
        let old = self.heaps[0];
        debug_assert!(
            count > key_count(MIN, old),
            "replacement must raise the count"
        );
        let s = key_slot(old);
        self.index.remove(&key_row(old));
        self.index.insert(row, s as u32);
        let max_at = self.at[s][MAX] as usize;
        self.place(MIN, 0, key(MIN, count, row, s as u32));
        self.place(MAX, max_at, key(MAX, count, row, s as u32));
        self.sift_down(MIN, 0);
        self.sift_up(MAX, max_at);
    }

    /// Lowers the [`max`](Self::max) entry's counter to `count`, or evicts
    /// the entry if `count` is zero.
    pub(crate) fn lower_max(&mut self, count: u64) {
        let top = self.heaps[self.capacity];
        debug_assert!(count < key_count(MAX, top), "must lower the count");
        let s = key_slot(top);
        if count == 0 {
            self.remove(s);
            return;
        }
        let (row, min_at) = (key_row(top), self.at[s][MIN] as usize);
        self.place(MAX, 0, key(MAX, count, row, s as u32));
        self.place(MIN, min_at, key(MIN, count, row, s as u32));
        self.sift_down(MAX, 0);
        self.sift_up(MIN, min_at);
    }

    fn top(&self, h: usize) -> Option<(RowId, u64)> {
        (self.len > 0).then(|| {
            let k = self.heaps[h * self.capacity];
            (key_row(k), key_count(h, k))
        })
    }

    fn key_of(&self, h: usize, s: usize) -> u128 {
        self.heaps[h * self.capacity + self.at[s][h] as usize]
    }

    /// Drops slot `s`, renaming the last slot to `s`.
    fn remove(&mut self, s: usize) {
        let last = self.len - 1;
        let holes = self.at[s].map(|p| p as usize);
        self.index.remove(&key_row(self.key_of(MIN, s)));
        // Fill each heap's hole with its last key.
        for h in [MIN, MAX] {
            let moved = self.heaps[h * self.capacity + last];
            self.place(h, holes[h], moved);
        }
        self.len = last;
        if s < last {
            for h in [MIN, MAX] {
                let p = h * self.capacity + self.at[last][h] as usize;
                self.heaps[p] = (self.heaps[p] & !u128::from(u32::MAX)) | s as u128;
            }
            self.at[s] = self.at[last];
            self.index.insert(key_row(self.key_of(MIN, s)), s as u32);
        }
        for h in [MIN, MAX] {
            if holes[h] < last && !self.sift_up(h, holes[h]) {
                self.sift_down(h, holes[h]);
            }
        }
    }

    /// Stores key `k` at heap `h`'s position `pos`.
    fn place(&mut self, h: usize, pos: usize, k: u128) {
        self.heaps[h * self.capacity + pos] = k;
        self.at[key_slot(k)][h] = pos as u32;
    }

    /// Moves the key at `pos` towards the root; `true` if it moved.
    fn sift_up(&mut self, h: usize, start: usize) -> bool {
        let base = h * self.capacity;
        let k = self.heaps[base + start];
        let mut pos = start;
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let p = self.heaps[base + parent];
            if p <= k {
                break;
            }
            self.place(h, pos, p);
            pos = parent;
        }
        self.place(h, pos, k);
        pos != start
    }

    /// Moves the key at `pos` towards the leaves.
    fn sift_down(&mut self, h: usize, mut pos: usize) {
        let base = h * self.capacity;
        let k = self.heaps[base + pos];
        loop {
            let mut child = 2 * pos + 1;
            if child >= self.len {
                break;
            }
            if child + 1 < self.len {
                // Branch-free pick of the smaller child: with many equal
                // counts the comparison is a coin flip.
                child += usize::from(self.heaps[base + child + 1] < self.heaps[base + child]);
            }
            let c = self.heaps[base + child];
            if k <= c {
                break;
            }
            self.place(h, pos, c);
            pos = child;
        }
        self.place(h, pos, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(entries: &[(u32, u64)], capacity: usize) -> CounterTable {
        let mut t = CounterTable::new(capacity);
        for &(r, c) in entries {
            assert!(t.insert(RowId(r), c));
        }
        t
    }

    #[test]
    fn min_and_max_break_ties_towards_the_smaller_row() {
        let t = table(&[(7, 3), (2, 3), (9, 1), (4, 1)], 8);
        assert_eq!(t.min(), Some((RowId(4), 1)));
        assert_eq!(t.max(), Some((RowId(2), 3)));
    }

    #[test]
    fn removal_keeps_index_and_heaps_consistent() {
        let mut t = table(&[(1, 5), (2, 4), (3, 3), (4, 2)], 4);
        t.lower_max(0); // evicts row 1, renaming the last slot to slot 0
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(RowId(1)), None);
        assert_eq!(t.get(RowId(4)), Some(2));
        assert_eq!(t.max(), Some((RowId(2), 4)));
        assert!(t.increment(RowId(4)));
        assert!(t.increment(RowId(4)));
        assert!(t.increment(RowId(4)));
        assert_eq!(t.max(), Some((RowId(4), 5)));
        assert_eq!(t.min(), Some((RowId(3), 3)));
    }

    #[test]
    fn duplicate_insert_is_refused() {
        let mut t = table(&[(1, 1)], 2);
        assert!(!t.insert(RowId(1), 3));
        assert_eq!(t.get(RowId(1)), Some(1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn replacement_reuses_the_min_slot() {
        let mut t = table(&[(1, 9), (2, 2)], 2);
        t.replace_min(RowId(3), 3);
        assert_eq!(t.get(RowId(2)), None);
        assert_eq!(t.get(RowId(3)), Some(3));
        assert_eq!(t.min(), Some((RowId(3), 3)));
        assert_eq!(t.max(), Some((RowId(1), 9)));
    }
}

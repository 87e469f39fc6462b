//! An unordered `(row, count)` table kept in dense slots.
//!
//! The Misra-Gries trackers (Graphene, ProTRR) and PRCT need a counter
//! lookup on every activation, a decrement of every counter on a spill,
//! and the maximum at each REF. A `HashMap` serves the first two well but
//! answers the REF query only by iterating its whole bucket array.
//! [`DenseTable`] keeps the entries in one contiguous slot array (freed
//! slots hold a zero count until reused) beside a `row → slot` index, so
//! the REF query and the spill are tight linear passes over the slots.

use crate::counter_table::RowIndex;
use mint_dram::RowId;
use std::collections::hash_map::Entry;

/// A `(row, count)` table over dense slots; see the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct DenseTable {
    /// Occupied slots hold a non-zero count; free slots hold zero.
    slots: Vec<(RowId, u64)>,
    /// Free slot ids, reused before the slot array grows.
    free: Vec<u32>,
    index: RowIndex,
    /// Entries the first insert makes room for.
    reserve: usize,
}

impl DenseTable {
    /// An empty table that makes room for `capacity` entries on its first
    /// insert (building a table allocates nothing).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            reserve: capacity,
            ..Self::default()
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    pub(crate) fn get(&self, row: RowId) -> Option<u64> {
        self.index.get(&row).map(|&s| self.slots[s as usize].1)
    }

    /// Every `(row, count)` entry, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (RowId, u64)> + '_ {
        self.slots.iter().copied().filter(|&(_, c)| c > 0)
    }

    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.index.clear();
    }

    /// Adds one to `row`'s counter and returns the new count; `None` if
    /// `row` is not tracked.
    pub(crate) fn increment(&mut self, row: RowId) -> Option<u64> {
        let &s = self.index.get(&row)?;
        let count = &mut self.slots[s as usize].1;
        *count += 1;
        Some(*count)
    }

    /// Tracks `row` with the non-zero `count`; `false` if `row` is already
    /// tracked.
    pub(crate) fn insert(&mut self, row: RowId, count: u64) -> bool {
        debug_assert!(count > 0, "a tracked row has a non-zero count");
        if self.slots.capacity() == 0 {
            self.slots.reserve_exact(self.reserve);
            self.index.reserve(self.reserve);
        }
        let s = self.free.last().map_or(self.slots.len(), |&s| s as usize) as u32;
        match self.index.entry(row) {
            Entry::Occupied(_) => return false,
            Entry::Vacant(v) => v.insert(s),
        };
        if self.free.pop().is_some() {
            self.slots[s as usize] = (row, count);
        } else {
            self.slots.push((row, count));
        }
        true
    }

    /// The entry with the largest count, the smallest row among ties.
    pub(crate) fn max(&self) -> Option<(RowId, u64)> {
        let mut best = (RowId(0), 0);
        for &(row, count) in &self.slots {
            if count > best.1 || (count == best.1 && row < best.0) {
                best = (row, count);
            }
        }
        (best.1 > 0).then_some(best)
    }

    /// Stops tracking `row`.
    pub(crate) fn remove(&mut self, row: RowId) {
        if let Some(s) = self.index.remove(&row) {
            self.slots[s as usize].1 = 0;
            self.free.push(s);
        }
    }

    /// Misra-Gries spill: decrements every counter and evicts the entries
    /// that reach zero.
    pub(crate) fn decrement_all(&mut self) {
        for (s, (row, count)) in self.slots.iter_mut().enumerate() {
            if *count == 0 {
                continue;
            }
            *count -= 1;
            if *count == 0 {
                self.index.remove(row);
                self.free.push(s as u32);
            }
        }
    }
}

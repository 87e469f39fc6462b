//! Canonical word encoding shared by the table trackers' checkpoint state
//! (Graphene, Mithril, ProTRR, PRCT).
//!
//! A table's slot order depends on its history, so the snapshot sorts
//! entries by row id: two processes holding the same logical table emit
//! identical words. That canonicalization is sound because every table
//! tracker breaks selection ties with a total `(count, row)` order — no
//! decision depends on slot order.

use crate::counter_table::CounterTable;
use crate::dense_table::DenseTable;
use mint_dram::RowId;

/// A table that [`restore_table`] can refill.
pub(crate) trait RowCounts {
    fn clear(&mut self);
    /// Tracks a new `row`; `false` if `row` is already tracked.
    fn insert_new(&mut self, row: RowId, count: u64) -> bool;
}

impl RowCounts for DenseTable {
    fn clear(&mut self) {
        DenseTable::clear(self);
    }

    fn insert_new(&mut self, row: RowId, count: u64) -> bool {
        self.insert(row, count)
    }
}

impl RowCounts for CounterTable {
    fn clear(&mut self) {
        CounterTable::clear(self);
    }

    fn insert_new(&mut self, row: RowId, count: u64) -> bool {
        self.insert(row, count)
    }
}

/// `[len, row₀, count₀, row₁, count₁, …]`, sorted by row id.
pub(crate) fn snapshot_table(entries: impl Iterator<Item = (RowId, u64)>) -> Vec<u64> {
    let mut pairs: Vec<(RowId, u64)> = entries.collect();
    pairs.sort_unstable_by_key(|(r, _)| r.0);
    let mut words = Vec::with_capacity(1 + 2 * pairs.len());
    words.push(pairs.len() as u64);
    for (row, count) in pairs {
        words.push(u64::from(row.0));
        words.push(count);
    }
    words
}

/// Rebuilds a table from [`snapshot_table`]'s words, enforcing `capacity`.
///
/// Rejects a length above `capacity`, a row beyond `u32`, a zero count (no
/// tracker stores one: a spill or a mitigation evicts the entry instead)
/// and a duplicate row. Every check except the duplicate one runs before
/// `table` is touched.
pub(crate) fn restore_table(
    state: &[u64],
    name: &str,
    capacity: usize,
    table: &mut impl RowCounts,
) -> Result<(), String> {
    let (&len, rest) = state
        .split_first()
        .ok_or_else(|| format!("{name}: empty table state"))?;
    let len = usize::try_from(len).map_err(|_| format!("{name}: table length overflow"))?;
    if len > capacity {
        return Err(format!("{name}: {len} entries exceed capacity {capacity}"));
    }
    if rest.len() != 2 * len {
        return Err(format!(
            "{name}: expected {} table words, got {}",
            2 * len,
            rest.len()
        ));
    }
    for pair in rest.chunks_exact(2) {
        if u32::try_from(pair[0]).is_err() {
            return Err(format!("{name}: table row {} exceeds u32", pair[0]));
        }
        if pair[1] == 0 {
            return Err(format!("{name}: table row {} has a zero count", pair[0]));
        }
    }
    table.clear();
    for pair in rest.chunks_exact(2) {
        let row = RowId(pair[0] as u32);
        if !table.insert_new(row, pair[1]) {
            return Err(format!("{name}: duplicate table row {}", row.0));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_canonical() {
        let mut a = DenseTable::default();
        for (r, c) in [(9u32, 4u64), (1, 7), (5, 2)] {
            a.insert(RowId(r), c);
        }
        let words = snapshot_table(a.iter());
        // Sorted by row regardless of insertion/slot order.
        assert_eq!(words, vec![3, 1, 7, 5, 2, 9, 4]);
        let mut b = DenseTable::default();
        restore_table(&words, "test", 8, &mut b).unwrap();
        assert_eq!(snapshot_table(b.iter()), words);
        let mut c = CounterTable::new(8);
        restore_table(&words, "test", 8, &mut c).unwrap();
        assert_eq!(snapshot_table(c.iter()), words);
    }

    #[test]
    fn corruption_is_rejected() {
        let bad: [&[u64]; 6] = [
            &[],
            &[2, 1, 1],
            &[9, 0, 0],
            &[2, 1, 1, 1, 2],
            &[1, 5, 0],
            &[2, 1, 3, 2, 0],
        ];
        for state in bad {
            let mut t = DenseTable::default();
            assert!(
                restore_table(state, "test", 4, &mut t).is_err(),
                "{state:?}"
            );
            let mut c = CounterTable::new(4);
            assert!(
                restore_table(state, "test", 4, &mut c).is_err(),
                "{state:?}"
            );
        }
        // Above capacity, and a row beyond u32.
        let mut c = CounterTable::new(1);
        assert!(restore_table(&[2, 1, 1, 2, 1], "test", 1, &mut c).is_err());
        assert!(restore_table(&[1, 1 << 32, 1], "test", 1, &mut c).is_err());
    }
}

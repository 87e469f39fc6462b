//! Mithril: counter-based-summary tracking (paper §II-G).

use crate::counter_table::CounterTable;
use mint_core::{InDramTracker, MitigationDecision};
use mint_dram::RowId;
use mint_rng::Rng64;

/// Configuration of a [`Mithril`] tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MithrilConfig {
    /// Number of counter entries per bank (677 in the paper's Table III
    /// sizing for MinTRH-D = 1400).
    pub entries: usize,
}

impl MithrilConfig {
    /// The paper's Table III configuration: 677 entries.
    #[must_use]
    pub fn table3() -> Self {
        Self { entries: 677 }
    }
}

/// Mithril (HPCA 2022), as characterised in MINT §II-G / §V-G: a
/// Counter-based Summary (space-saving) sketch over row activations with
/// proactive mitigation.
///
/// * On an activation of a tracked row, its counter increments; an untracked
///   row replaces the minimum-count entry, inheriting `min + 1` (the classic
///   space-saving over-approximation, which guarantees no row's true count
///   is ever *under*-estimated).
/// * At each REF the entry with the highest counter is mitigated and "the
///   counter value is reduced by the min count" (the paper's description of
///   Mithril's proactive variant).
/// * Mitigative refreshes are counted like demand activations, so the design
///   is immune to transitive attacks.
///
/// The table is a `row → slot` index plus two indexed binary heaps: the
/// minimum `(count, row)` for replacement, and the maximum count, then the
/// smallest row, for REF. With `n = entries`, a hit costs one index lookup
/// and two O(log n) sifts, which stay short unless many entries share the
/// hit row's count; a miss on a full table and a REF each cost O(log n);
/// a snapshot costs O(n log n) for the canonical row order.
///
/// # Examples
///
/// ```
/// use mint_core::InDramTracker;
/// use mint_dram::RowId;
/// use mint_rng::Xoshiro256StarStar;
/// use mint_trackers::{Mithril, MithrilConfig};
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(4);
/// let mut m = Mithril::new(MithrilConfig { entries: 4 });
/// for _ in 0..9 {
///     m.on_activation(RowId(1), &mut rng);
/// }
/// assert!(m.on_refresh(&mut rng).mitigates(RowId(1)));
/// ```
#[derive(Debug, Clone)]
pub struct Mithril {
    config: MithrilConfig,
    /// (row → counter); size bounded by `config.entries`.
    table: CounterTable,
}

impl Mithril {
    /// Creates a Mithril tracker.
    ///
    /// # Panics
    ///
    /// Panics if `config.entries == 0`.
    #[must_use]
    pub fn new(config: MithrilConfig) -> Self {
        assert!(config.entries > 0, "Mithril needs at least one entry");
        Self {
            config,
            table: CounterTable::new(config.entries),
        }
    }

    /// Stored (over-approximate) count for `row`, if tracked.
    #[must_use]
    pub fn count(&self, row: RowId) -> Option<u64> {
        self.table.get(row)
    }

    /// Number of occupied entries.
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.table.len()
    }

    fn min_count(&self) -> u64 {
        if !self.table.is_full() {
            // Space-saving treats unoccupied slots as count 0.
            return 0;
        }
        self.table.min().map_or(0, |(_, count)| count)
    }

    fn observe(&mut self, row: RowId) {
        if self.table.increment(row) {
            return;
        }
        if !self.table.is_full() {
            self.table.insert(row, 1);
            return;
        }
        // Replace a minimum entry; inherit min + 1.
        let min = self.min_count();
        self.table.replace_min(row, min + 1);
    }
}

impl InDramTracker for Mithril {
    fn on_activation(&mut self, row: RowId, _rng: &mut dyn Rng64) -> Option<MitigationDecision> {
        self.observe(row);
        None
    }

    fn on_mitigative_refresh(&mut self, row: RowId) {
        self.observe(row);
    }

    fn on_refresh(&mut self, _rng: &mut dyn Rng64) -> MitigationDecision {
        // Stored counts are never zero: a mitigation that would zero an
        // entry evicts it, and a restore rejects zero counts.
        let Some((row, max)) = self.table.max() else {
            return MitigationDecision::None;
        };
        let min = self.min_count();
        self.table.lower_max(max.saturating_sub(min.max(1)));
        MitigationDecision::Aggressor(row)
    }

    fn name(&self) -> &'static str {
        "Mithril"
    }

    fn live_entries(&self) -> usize {
        self.table.len()
    }

    fn entries(&self) -> usize {
        self.config.entries
    }

    /// 18-bit row address + 16-bit counter per entry.
    fn storage_bits(&self) -> u64 {
        self.config.entries as u64 * 34
    }

    fn reset(&mut self, _rng: &mut dyn Rng64) {
        self.table.clear();
    }

    fn snapshot_state(&self) -> Vec<u64> {
        crate::table_words::snapshot_table(self.table.iter())
    }

    fn restore_state(&mut self, state: &[u64]) -> Result<(), String> {
        crate::table_words::restore_table(state, self.name(), self.config.entries, &mut self.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mint_exp::prop::{forall, u32_in, usize_in};
    use mint_rng::Xoshiro256StarStar;
    use std::collections::HashMap;

    /// The original Mithril table: a `HashMap` scanned for the minimum on
    /// every replacement and for the maximum on every REF. It is the
    /// reference model the heap table must match decision for decision.
    struct ScanModel {
        entries: usize,
        table: HashMap<RowId, u64>,
    }

    impl ScanModel {
        fn new(entries: usize) -> Self {
            Self {
                entries,
                table: HashMap::new(),
            }
        }

        fn min_count(&self) -> u64 {
            if self.table.len() < self.entries {
                return 0;
            }
            self.table.values().copied().min().unwrap_or(0)
        }

        fn observe(&mut self, row: RowId) {
            if let Some(c) = self.table.get_mut(&row) {
                *c += 1;
                return;
            }
            if self.table.len() < self.entries {
                self.table.insert(row, 1);
                return;
            }
            let (&victim, &min) = self
                .table
                .iter()
                .min_by(|a, b| a.1.cmp(b.1).then_with(|| a.0.cmp(b.0)))
                .expect("table is full, hence non-empty");
            self.table.remove(&victim);
            self.table.insert(row, min + 1);
        }

        fn on_refresh(&mut self) -> MitigationDecision {
            let Some((&row, &max)) = self
                .table
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            else {
                return MitigationDecision::None;
            };
            if max == 0 {
                return MitigationDecision::None;
            }
            let min = self.min_count();
            let remaining = max.saturating_sub(min.max(1));
            if remaining == 0 {
                self.table.remove(&row);
            } else {
                self.table.insert(row, remaining);
            }
            MitigationDecision::Aggressor(row)
        }

        fn snapshot(&self) -> Vec<u64> {
            crate::table_words::snapshot_table(self.table.iter().map(|(r, c)| (*r, *c)))
        }
    }

    /// Random interleavings of ACT, mitigative refresh, REF and reset, with
    /// one snapshot/restore into a fresh tracker mid-stream: after every
    /// step the decision and the checkpoint words equal the scan model's.
    /// Small row ranges keep `(count, row)` ties frequent.
    #[test]
    fn heap_table_matches_scan_model() {
        for (entries, cases, steps) in [
            (1, 24, 300),
            (2, 24, 300),
            (3, 24, 300),
            (8, 16, 600),
            (677, 2, 6000),
        ] {
            forall(cases, 0x3417 + entries as u64, |case, prng| {
                let rows = u32_in(prng, entries as u32 + 1, 2 * entries as u32 + 4);
                let restore_at = usize_in(prng, 0, steps);
                let mut r = rng(case);
                let mut fast = small(entries);
                let mut model = ScanModel::new(entries);
                let mut replacements = 0;
                for step in 0..steps {
                    if step == restore_at {
                        let mut fresh = small(entries);
                        fresh.restore_state(&fast.snapshot_state()).unwrap();
                        fast = fresh;
                    }
                    let row = RowId(u32_in(prng, 0, rows));
                    let full_miss = model.table.len() == entries && !model.table.contains_key(&row);
                    match u32_in(prng, 0, 40 * entries as u32) {
                        0 => {
                            fast.reset(&mut r);
                            model.table.clear();
                        }
                        k if k % 4 == 0 => {
                            let got = fast.on_refresh(&mut r);
                            let want = model.on_refresh();
                            assert_eq!(got, want, "entries {entries} case {case} step {step}");
                        }
                        k if k % 4 == 1 => {
                            fast.on_mitigative_refresh(row);
                            model.observe(row);
                            replacements += usize::from(full_miss);
                        }
                        _ => {
                            assert_eq!(fast.on_activation(row, &mut r), None);
                            model.observe(row);
                            replacements += usize::from(full_miss);
                        }
                    }
                    assert_eq!(
                        fast.snapshot_state(),
                        model.snapshot(),
                        "entries {entries} case {case} step {step}"
                    );
                    assert_eq!(fast.live_entries(), model.table.len());
                }
                // The replacement path (a miss on a full table) ran.
                assert!(replacements > 0, "entries {entries} case {case}");
            });
        }
    }

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    fn small(entries: usize) -> Mithril {
        Mithril::new(MithrilConfig { entries })
    }

    #[test]
    fn tracks_and_mitigates_max() {
        let mut r = rng(1);
        let mut m = small(4);
        for _ in 0..5 {
            m.on_activation(RowId(1), &mut r);
        }
        for _ in 0..3 {
            m.on_activation(RowId(2), &mut r);
        }
        assert!(m.on_refresh(&mut r).mitigates(RowId(1)));
    }

    #[test]
    fn space_saving_never_underestimates() {
        // Without REFs, the stored count of any tracked row is ≥ its true
        // count.
        let mut r = rng(2);
        let mut m = small(3);
        // Churn through many rows to force replacements.
        let mut true_counts: HashMap<RowId, u64> = HashMap::new();
        for i in 0..200u32 {
            let row = RowId(i % 10);
            m.on_activation(row, &mut r);
            *true_counts.entry(row).or_insert(0) += 1;
            let stored = m.count(row).expect("the activated row is tracked");
            assert!(stored >= true_counts[&row], "step {i}: stored {stored}");
        }
        for (row, stored) in m.table.iter() {
            let true_c = true_counts[&row];
            assert!(
                stored >= true_c,
                "row {row:?}: stored {stored} vs true {true_c}"
            );
        }
    }

    #[test]
    fn replacement_inherits_min_plus_one() {
        let mut r = rng(3);
        let mut m = small(2);
        for _ in 0..10 {
            m.on_activation(RowId(1), &mut r);
        }
        for _ in 0..4 {
            m.on_activation(RowId(2), &mut r);
        }
        // Table full: {1:10, 2:4}. New row replaces min (row 2) with 5.
        m.on_activation(RowId(3), &mut r);
        assert_eq!(m.count(RowId(3)), Some(5));
        assert_eq!(m.count(RowId(2)), None);
    }

    #[test]
    fn mitigation_reduces_by_min() {
        let mut r = rng(4);
        let mut m = small(2);
        for _ in 0..10 {
            m.on_activation(RowId(1), &mut r);
        }
        for _ in 0..4 {
            m.on_activation(RowId(2), &mut r);
        }
        // max=10 (row 1), min=4 → row 1 drops to 6.
        assert!(m.on_refresh(&mut r).mitigates(RowId(1)));
        assert_eq!(m.count(RowId(1)), Some(6));
    }

    #[test]
    fn counts_mitigative_refreshes_for_transitive_immunity() {
        let mut r = rng(5);
        let mut m = small(8);
        // 20 silent refreshes on the same victim row must dominate.
        for _ in 0..20 {
            m.on_mitigative_refresh(RowId(7));
        }
        for i in 0..5u32 {
            m.on_activation(RowId(100 + i), &mut r);
        }
        assert!(m.on_refresh(&mut r).mitigates(RowId(7)));
    }

    #[test]
    fn empty_table_no_decision() {
        let mut r = rng(6);
        let mut m = small(4);
        assert!(m.on_refresh(&mut r).is_none());
    }

    #[test]
    fn occupancy_bounded_by_entries() {
        let mut r = rng(7);
        let mut m = small(5);
        for i in 0..1000u32 {
            m.on_activation(RowId(i), &mut r);
        }
        assert!(m.occupied() <= 5);
    }

    #[test]
    fn metadata() {
        let m = small(677);
        assert_eq!(m.entries(), 677);
        assert_eq!(m.storage_bits(), 677 * 34);
        assert_eq!(m.name(), "Mithril");
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        let _ = small(0);
    }

    #[test]
    fn reset_clears_table() {
        let mut r = rng(8);
        let mut m = small(4);
        m.on_activation(RowId(1), &mut r);
        m.reset(&mut r);
        assert_eq!(m.occupied(), 0);
    }
}

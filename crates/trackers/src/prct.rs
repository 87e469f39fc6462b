//! PRCT: the idealized Per-Row Counter-Table (paper §II-H).

use crate::dense_table::DenseTable;
use mint_core::{InDramTracker, MitigationDecision};
use mint_dram::RowId;
use mint_rng::Rng64;

/// The idealized Per-Row Counter-Table: one activation counter per DRAM row,
/// held in SRAM (impractically large — 128K entries per bank — but the
/// paper's yardstick for how good *any* in-DRAM tracker could be at a given
/// mitigation rate).
///
/// Behaviour (paper §II-H and §V-G):
///
/// * every activation — demand **or mitigative refresh** — increments the
///   activated row's counter (counting silent refreshes is what makes PRCT
///   immune to transitive attacks);
/// * at each REF the row with the highest non-zero counter is mitigated and
///   its counter cleared (the paper's PRCT "always picks a row to be
///   mitigated as long as there is at least one activation").
///
/// Its MinTRH is set purely by the mitigation rate: the ProTRR Feinting
/// attack pushes two final rows to ~623 activations each, so MinTRH-D = 623
/// (Table III).
///
/// The implementation stores only the non-zero counters, in dense slots
/// beside a `row → slot` index: an activation costs one index lookup, and
/// the REF query is one linear pass over the slots. The reported
/// [`entries`](InDramTracker::entries)/storage reflect the modelled
/// hardware (one counter per row).
///
/// # Examples
///
/// ```
/// use mint_core::InDramTracker;
/// use mint_dram::RowId;
/// use mint_rng::Xoshiro256StarStar;
/// use mint_trackers::Prct;
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(3);
/// let mut prct = Prct::new(1024);
/// prct.on_activation(RowId(5), &mut rng);
/// prct.on_activation(RowId(5), &mut rng);
/// prct.on_activation(RowId(9), &mut rng);
/// assert!(prct.on_refresh(&mut rng).mitigates(RowId(5)));
/// ```
#[derive(Debug, Clone)]
pub struct Prct {
    rows: u32,
    counters: DenseTable,
}

impl Prct {
    /// Creates a PRCT for a bank of `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`.
    #[must_use]
    pub fn new(rows: u32) -> Self {
        assert!(rows > 0, "PRCT needs at least one row");
        Self {
            rows,
            counters: DenseTable::default(),
        }
    }

    /// Current counter value for `row`.
    #[must_use]
    pub fn count(&self, row: RowId) -> u64 {
        self.counters.get(row).unwrap_or(0)
    }

    /// Number of rows with a non-zero counter.
    #[must_use]
    pub fn active_rows(&self) -> usize {
        self.counters.len()
    }

    fn bump(&mut self, row: RowId) {
        if self.counters.increment(row).is_none() {
            self.counters.insert(row, 1);
        }
    }
}

impl InDramTracker for Prct {
    fn on_activation(&mut self, row: RowId, _rng: &mut dyn Rng64) -> Option<MitigationDecision> {
        self.bump(row);
        None
    }

    fn on_mitigative_refresh(&mut self, row: RowId) {
        // A victim refresh is an activation of the victim row; counting it
        // is what defeats Half-Double (paper §V-G "PRCT ... immune").
        self.bump(row);
    }

    fn on_refresh(&mut self, _rng: &mut dyn Rng64) -> MitigationDecision {
        // The row with the maximum counter, ties broken towards the smaller
        // row id for determinism.
        match self.counters.max() {
            Some((row, _)) => {
                self.counters.remove(row);
                MitigationDecision::Aggressor(row)
            }
            None => MitigationDecision::None,
        }
    }

    fn name(&self) -> &'static str {
        "PRCT"
    }

    fn live_entries(&self) -> usize {
        self.counters.len()
    }

    fn entries(&self) -> usize {
        self.rows as usize
    }

    /// One 16-bit counter per row (idealized hardware).
    fn storage_bits(&self) -> u64 {
        u64::from(self.rows) * 16
    }

    fn reset(&mut self, _rng: &mut dyn Rng64) {
        self.counters.clear();
    }

    fn snapshot_state(&self) -> Vec<u64> {
        crate::table_words::snapshot_table(self.counters.iter())
    }

    fn restore_state(&mut self, state: &[u64]) -> Result<(), String> {
        crate::table_words::restore_table(
            state,
            self.name(),
            self.rows as usize,
            &mut self.counters,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mint_exp::prop::{forall, u32_in, usize_in};
    use mint_rng::Xoshiro256StarStar;
    use std::collections::HashMap;

    /// The original PRCT REF query: a scan of every live counter for the
    /// maximum, ties towards the smaller row.
    fn scan_argmax(counters: &HashMap<RowId, u64>) -> Option<RowId> {
        counters
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(row, _)| *row)
    }

    /// Random interleavings of ACT, mitigative refresh, REF and reset, with
    /// one snapshot/restore into a fresh tracker mid-stream: after every
    /// step the decision and the checkpoint words equal the scan model's.
    #[test]
    fn dense_table_matches_scan_model() {
        forall(32, 0x9C7, |case, prng| {
            let rows = u32_in(prng, 2, 300);
            let steps = 800;
            let restore_at = usize_in(prng, 0, steps);
            let mut r = rng(case);
            let mut fast = Prct::new(rows);
            let mut model: HashMap<RowId, u64> = HashMap::new();
            for step in 0..steps {
                if step == restore_at {
                    let mut fresh = Prct::new(rows);
                    fresh.restore_state(&fast.snapshot_state()).unwrap();
                    fast = fresh;
                }
                let row = RowId(u32_in(prng, 0, rows));
                match u32_in(prng, 0, 400) {
                    0 => {
                        fast.reset(&mut r);
                        model.clear();
                    }
                    k if k % 4 == 0 => {
                        let want = match scan_argmax(&model) {
                            Some(row) => {
                                model.remove(&row);
                                MitigationDecision::Aggressor(row)
                            }
                            None => MitigationDecision::None,
                        };
                        assert_eq!(fast.on_refresh(&mut r), want, "case {case} step {step}");
                    }
                    k if k % 4 == 1 => {
                        fast.on_mitigative_refresh(row);
                        *model.entry(row).or_insert(0) += 1;
                    }
                    _ => {
                        assert_eq!(fast.on_activation(row, &mut r), None);
                        *model.entry(row).or_insert(0) += 1;
                    }
                }
                let words = crate::table_words::snapshot_table(model.iter().map(|(r, c)| (*r, *c)));
                assert_eq!(fast.snapshot_state(), words, "case {case} step {step}");
                assert_eq!(fast.live_entries(), model.len());
            }
        });
    }

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn mitigates_hottest_row() {
        let mut r = rng(1);
        let mut prct = Prct::new(128);
        for _ in 0..10 {
            prct.on_activation(RowId(3), &mut r);
        }
        for _ in 0..7 {
            prct.on_activation(RowId(4), &mut r);
        }
        assert!(prct.on_refresh(&mut r).mitigates(RowId(3)));
        // Counter cleared: next REF picks the runner-up.
        assert!(prct.on_refresh(&mut r).mitigates(RowId(4)));
        assert!(prct.on_refresh(&mut r).is_none());
    }

    #[test]
    fn counts_mitigative_refreshes() {
        let mut r = rng(2);
        let mut prct = Prct::new(128);
        // Transitive attack shape: victim refreshes hammer row 9 silently.
        for _ in 0..5 {
            prct.on_mitigative_refresh(RowId(9));
        }
        prct.on_activation(RowId(50), &mut r);
        // Row 9's silent count (5) beats row 50's demand count (1).
        assert!(prct.on_refresh(&mut r).mitigates(RowId(9)));
    }

    #[test]
    fn deterministic_tie_break() {
        let mut r = rng(3);
        let mut prct = Prct::new(128);
        prct.on_activation(RowId(20), &mut r);
        prct.on_activation(RowId(10), &mut r);
        assert!(prct.on_refresh(&mut r).mitigates(RowId(10)));
    }

    #[test]
    fn always_mitigates_when_any_activation_exists() {
        let mut r = rng(4);
        let mut prct = Prct::new(128);
        prct.on_activation(RowId(1), &mut r);
        assert!(prct.on_refresh(&mut r).is_some());
    }

    #[test]
    fn entries_and_storage_model_full_table() {
        let prct = Prct::new(128 * 1024);
        assert_eq!(prct.entries(), 128 * 1024);
        assert_eq!(prct.storage_bits(), 128 * 1024 * 16);
        assert_eq!(prct.name(), "PRCT");
    }

    #[test]
    fn reset_clears_counters() {
        let mut r = rng(5);
        let mut prct = Prct::new(128);
        prct.on_activation(RowId(2), &mut r);
        prct.reset(&mut r);
        assert_eq!(prct.active_rows(), 0);
        assert!(prct.on_refresh(&mut r).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_rows_rejected() {
        let _ = Prct::new(0);
    }
}

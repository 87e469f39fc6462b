//! Micro-benchmarks: per-tREFI cost of every tracker (73 activations +
//! one refresh decision). Timed with the dependency-free
//! `mint_exp::stopwatch`.
//!
//! The first group re-activates the same 73 rows every tREFI, so no
//! counter table ever fills. The `tracker_per_trefi_full` group cycles
//! its activations over more rows than a 677-entry table holds, so every
//! miss takes the replacement (Mithril) or spill (ProTRR) path, as on a
//! long mixed workload.

use mint_core::{Dmq, InDramTracker, Mint, MintConfig, MintRfm};
use mint_dram::RowId;
use mint_exp::stopwatch::{black_box, Runner};
use mint_rng::Xoshiro256StarStar;
use mint_trackers::{
    InDramPara, InDramParaNoOverwrite, Mithril, MithrilConfig, Parfm, Prct, Pride, ProTrr,
    ProTrrConfig, SimpleTrr,
};

fn one_trefi(tracker: &mut dyn InDramTracker, rng: &mut Xoshiro256StarStar) {
    for k in 0..73u32 {
        let _ = tracker.on_activation(RowId(1000 + k), rng);
    }
    black_box(tracker.on_refresh(rng));
}

/// Rows the full-table cases cycle over: more than a 677-entry table holds.
const CYCLE_ROWS: u32 = 1024;

/// One tREFI whose 73 activations continue a cycle over [`CYCLE_ROWS`]
/// rows from where the previous tREFI stopped.
fn one_trefi_cycling(
    tracker: &mut dyn InDramTracker,
    rng: &mut Xoshiro256StarStar,
    next: &mut u32,
) {
    for _ in 0..73 {
        let _ = tracker.on_activation(RowId(1000 + *next), rng);
        *next = (*next + 1) % CYCLE_ROWS;
    }
    black_box(tracker.on_refresh(rng));
}

fn main() {
    let mut runner = Runner::new("tracker_per_trefi");
    let mut rng = Xoshiro256StarStar::seed_from_u64(1);

    let mut mint = Mint::new(MintConfig::ddr5_default(), &mut rng);
    let mut dmq = Dmq::new(Mint::new(MintConfig::ddr5_default(), &mut rng), 73);
    let mut rfm = MintRfm::new(16, &mut rng);
    let mut para = InDramPara::new(1.0 / 73.0);
    let mut para_no = InDramParaNoOverwrite::new(1.0 / 73.0);
    let mut parfm = Parfm::new(73);
    let mut prct = Prct::new(128 * 1024);
    let mut mithril = Mithril::new(MithrilConfig::table3());
    let mut protrr = ProTrr::new(ProTrrConfig::default());
    let mut trr = SimpleTrr::new(16);
    let mut pride = Pride::new(1.0 / 73.0, 4);

    let mut cases: Vec<(&str, &mut dyn InDramTracker)> = vec![
        ("MINT", &mut mint),
        ("MINT+DMQ", &mut dmq),
        ("MINT+RFM16", &mut rfm),
        ("InDRAM-PARA", &mut para),
        ("InDRAM-PARA-NoOverwrite", &mut para_no),
        ("PARFM", &mut parfm),
        ("PRCT", &mut prct),
        ("Mithril-677", &mut mithril),
        ("ProTRR-677", &mut protrr),
        ("TRR-16", &mut trr),
        ("PrIDE", &mut pride),
    ];
    for (name, tracker) in &mut cases {
        runner.bench(name, || one_trefi(&mut **tracker, &mut rng));
    }

    let mut runner = Runner::new("tracker_per_trefi_full");
    let mut mithril = Mithril::new(MithrilConfig::table3());
    let mut protrr = ProTrr::new(ProTrrConfig::default());
    let mut prct = Prct::new(128 * 1024);
    let mut cases: Vec<(&str, &mut dyn InDramTracker)> = vec![
        ("Mithril-677", &mut mithril),
        ("ProTRR-677", &mut protrr),
        ("PRCT", &mut prct),
    ];
    for (name, tracker) in &mut cases {
        let mut next = 0;
        runner.bench(name, || {
            one_trefi_cycling(&mut **tracker, &mut rng, &mut next)
        });
    }
}

//! Experiment-regeneration harness: one function per table and figure of
//! the MINT paper, each with a thin binary wrapper in `src/bin/` and all of
//! them runnable at once via `repro_all`.
//!
//! Every function returns the rendered table/series as a `String` (the
//! binaries print it), so the regeneration logic is unit-testable and the
//! EXPERIMENTS.md record can be regenerated mechanically:
//!
//! ```bash
//! cargo run --release -p mint-bench --bin repro_all
//! cargo run --release -p mint-bench --bin table3_tracker_comparison
//! ```
//!
//! Sweeps and Monte-Carlo batches fan out through the `mint-exp` harness
//! (order-preserving, so rendered tables are byte-identical for any worker
//! count); every binary accepts `--jobs N` / `MINT_JOBS` to pin
//! parallelism.
//!
//! Micro-benchmarks for the simulator itself (tracker per-ACT cost,
//! Sariou–Wolman solver, Monte-Carlo engine, memory controller) live in
//! `benches/`, on the dependency-free `mint_exp::stopwatch` timer.

pub mod ablation;
pub mod params;
pub mod perf;
pub mod redteam;
pub mod security;

use mint_analysis::{MinTrhSolver, TargetMttf};

/// The solver every security experiment shares: 10,000-year target,
/// 32 ms tREFW.
#[must_use]
pub fn default_solver() -> MinTrhSolver {
    MinTrhSolver::new(TargetMttf::paper_default(), 0.032)
}

/// Formats a threshold the way the paper does: raw below 10K (`"2763"`),
/// one rounded decimal in the 10K–100K band with a round number of K
/// shown bare (`"21.3K"`, `"10K"`), and whole rounded K at or above 100K
/// (`"478K"`).
#[must_use]
pub fn fmt_trh(v: u32) -> String {
    if v < 10_000 {
        v.to_string()
    } else if v < 100_000 {
        let tenths_of_k = (v + 50) / 100;
        if tenths_of_k % 10 == 0 {
            format!("{}K", tenths_of_k / 10)
        } else {
            format!("{}.{}K", tenths_of_k / 10, tenths_of_k % 10)
        }
    } else {
        format!("{}K", (v + 500) / 1000)
    }
}

/// Renders a titled experiment block.
#[must_use]
pub fn titled(title: &str, body: &str) -> String {
    format!("== {title} ==\n{body}")
}

/// The checked-in scenario behind perfbench's `sat32` host-throughput
/// workload, pinned to the arbitration-dominated shape that workload
/// is meant to time.
#[cfg(test)]
mod throughput {
    mod tests {
        use mint_memsys::{
            saturation_spec, MitigationScheme, ScenarioFrontend, ScenarioSpec, SchedulePolicy,
        };

        const SATURATION32_SCN: &str = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/scenarios/saturation32.scn"
        );

        #[test]
        fn sat32_cell_loads_the_checked_in_scenario() {
            let text = std::fs::read_to_string(SATURATION32_SCN)
                .unwrap_or_else(|e| panic!("read {SATURATION32_SCN}: {e}"));
            let spec =
                ScenarioSpec::parse(&text).unwrap_or_else(|e| panic!("{SATURATION32_SCN}: {e}"));
            assert_eq!(spec.cores, Some(32));
            assert_eq!(spec.channels.unwrap_or(1), 1);
            assert_eq!(spec.policy, SchedulePolicy::frfcfs());
            assert_eq!(spec.scheme, MitigationScheme::Baseline);
            let ScenarioFrontend::Workload(cell) = &spec.frontend else {
                panic!("saturation32.scn is a workload cell");
            };
            assert_eq!(cell.resolve(32), vec![saturation_spec(); 32]);
            assert!(spec.requests_per_core > 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_trh_bands() {
        assert_eq!(fmt_trh(356), "356");
        assert_eq!(fmt_trh(2763), "2763");
        assert_eq!(fmt_trh(21_300), "21.3K");
        assert_eq!(fmt_trh(478_296), "478K");
    }

    #[test]
    fn fmt_trh_1k_to_10k_stays_raw() {
        // The doc comment promises raw rendering all the way up to 10K.
        assert_eq!(fmt_trh(999), "999");
        assert_eq!(fmt_trh(1000), "1000");
        assert_eq!(fmt_trh(1001), "1001");
        assert_eq!(fmt_trh(9999), "9999");
    }

    #[test]
    fn fmt_trh_10k_boundary() {
        assert_eq!(fmt_trh(10_000), "10K", "round K values drop the decimal");
        assert_eq!(fmt_trh(10_050), "10.1K", "rounded to one decimal");
        assert_eq!(fmt_trh(10_049), "10K", "rounds down to a whole K");
    }

    #[test]
    fn fmt_trh_100k_boundary_is_consistent() {
        // Approaching 100K from below must agree with the >= 100K band:
        // 99_950 rounds to 100.0K, which renders "100K", not "100.0K".
        assert_eq!(fmt_trh(99_949), "99.9K");
        assert_eq!(fmt_trh(99_950), "100K");
        assert_eq!(fmt_trh(100_000), "100K");
        assert_eq!(fmt_trh(100_499), "100K");
        assert_eq!(fmt_trh(100_500), "101K", ">= 100K rounds, not truncates");
        assert_eq!(fmt_trh(478_500), "479K");
    }

    #[test]
    fn titled_includes_both() {
        let s = titled("T", "body");
        assert!(s.contains("== T ==") && s.contains("body"));
    }
}

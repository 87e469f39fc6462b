//! Dependency-free micro-benchmark timing for the `mint-bench` bench
//! targets (`cargo bench` runs them; `harness = false`).
//!
//! Not a statistics suite: one warm-up call, then the iteration count is
//! doubled until the measured batch exceeds the target wall time, and the
//! per-iteration mean is reported. Good enough to spot order-of-magnitude
//! regressions in the simulator hot paths without external dependencies.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Minimum measured batch duration before a result is reported.
const TARGET: Duration = Duration::from_millis(200);

/// Iteration cap for very slow benchmarks.
const MAX_ITERS: u64 = 1 << 24;

/// One timed batch: how many iterations ran and how long they took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measurement {
    /// Iterations in the measured batch.
    pub iters: u64,
    /// Wall time of the whole batch.
    pub elapsed: Duration,
}

impl Measurement {
    /// Mean nanoseconds per iteration.
    #[must_use]
    pub fn ns_per_iter(&self) -> f64 {
        self.elapsed.as_nanos() as f64 / self.iters.max(1) as f64
    }
}

/// Times `f` until the measured batch lasts at least `target` (one
/// warm-up call first, then the iteration count is scaled up from the
/// observed rate). `Duration::ZERO` times exactly one post-warm-up call —
/// for a body that is already milliseconds of work, where the caller
/// takes a min over repetitions instead.
pub fn measure(target: Duration, mut f: impl FnMut()) -> Measurement {
    f(); // warm-up (page in code and data)
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= target || iters >= MAX_ITERS {
            return Measurement { iters, elapsed };
        }
        // Aim straight for the target from the observed rate (at least
        // doubling to converge when early measurements are noisy).
        let scaled = if elapsed.is_zero() {
            iters.saturating_mul(16)
        } else {
            (iters as f64 * target.as_secs_f64() / elapsed.as_secs_f64()).ceil() as u64
        };
        iters = scaled.max(iters.saturating_mul(2)).min(MAX_ITERS);
    }
}

/// Prints `group/name  <mean> ns/iter (<iters> iters)` lines to stdout.
pub struct Runner {
    group: String,
}

impl Runner {
    /// A runner labelling every result with `group`.
    #[must_use]
    pub fn new(group: &str) -> Self {
        println!("benchmark group: {group}");
        Self {
            group: group.to_owned(),
        }
    }

    /// Times `f`, printing the per-iteration mean.
    pub fn bench(&mut self, name: &str, f: impl FnMut()) {
        let m = measure(TARGET, f);
        println!(
            "{}/{name}  {} ns/iter ({} iters, {:.3} s)",
            self.group,
            m.elapsed.as_nanos() / u128::from(m.iters),
            m.iters,
            m.elapsed.as_secs_f64(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_and_terminates() {
        let mut calls = 0u64;
        let mut runner = Runner::new("test");
        runner.bench("busy", || {
            calls += 1;
            std::hint::spin_loop();
            black_box(());
        });
        assert!(calls > 1, "benchmark body should run many iterations");
    }

    #[test]
    fn zero_target_times_one_call_after_warmup() {
        let mut calls = 0u64;
        let m = measure(Duration::ZERO, || calls += 1);
        assert_eq!(m.iters, 1, "a zero target reports the first batch");
        assert_eq!(calls, 2, "warm-up call plus one measured call");
        assert!(m.ns_per_iter() >= 0.0);
    }
}

//! Small order statistics and the benchmark's result record.

use std::time::{Duration, Instant};

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between order statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark run prints as its last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records one checked operation; a failed one also fails the run.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.correct = false;
        }
    }

    /// The share of attempted operations that succeeded.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                    mint_exp::json::quote(&m.name),
                    mint_exp::json::quote(m.unit)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the host clock probe takes on the reference host, in ms: the
/// host-time end-to-end metrics are scaled to it.
pub const REFERENCE_PROBE_MS: f64 = 1.0;

/// Iterations of one probe (about 1 ms).
const PROBE_ITERS: u64 = 300_000;

/// The host's clock regime, read by a fixed integer probe.
///
/// The benchmark host is shared: its cores run for minutes at a time in
/// one of several speed regimes (the probe reads 0.90 ms in one and
/// 1.04 ms in another; the simulator slows by about as much). A run
/// takes the best of many probes interleaved with its measurements and
/// scales its host times by `REFERENCE_PROBE_MS / best`, so a regime
/// change between runs does not read as a change of the program. The
/// probe is a dependent xorshift-multiply chain in the benchmark's own
/// code: no change to the program can move it.
pub struct HostClock {
    best_ms: f64,
}

impl HostClock {
    pub fn new() -> Self {
        Self {
            best_ms: f64::INFINITY,
        }
    }

    /// Runs one probe.
    pub fn probe(&mut self) {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..std::hint::black_box(PROBE_ITERS) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        }
        std::hint::black_box(x);
        self.best_ms = self.best_ms.min(secs(t.elapsed()) * 1e3);
    }

    /// Runs `n` probes.
    pub fn probes(&mut self, n: usize) {
        for _ in 0..n {
            self.probe();
        }
    }

    /// The best probe time so far (ms).
    pub fn best_ms(&self) -> f64 {
        self.best_ms
    }

    /// A host time (or its inverse, a host rate) scaled to the
    /// reference host.
    pub fn time(&self, host: f64) -> f64 {
        host * REFERENCE_PROBE_MS / self.best_ms
    }

    pub fn rate(&self, host: f64) -> f64 {
        host * self.best_ms / REFERENCE_PROBE_MS
    }
}

//! The repository benchmark: one command runs one named workload and
//! checks every output.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload zoo_mcf --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones, measured on the public run surfaces; with
//! `--trace 1` they are the per-layer split from the traced loop. See
//! `perfbench/README.md` for the workloads and the metric map.

mod cells;
mod golden;
mod serve_mix;
mod stats;
mod traced;

use std::time::Instant;

use mint_memsys::{ChannelObserver, System};

use cells::{digest, set_reference_paths, CellOutput, SimWorkload, DEFAULT_SEED};
use stats::{median, secs, HostClock, Outcome};

/// The checked-in scenario file the `sat32` workload runs.
const SAT32_SCN: &str = "examples/scenarios/saturation32.scn";

/// Least number of set-up samples a run takes to report their median.
pub const SETUP_REPS: usize = 15;

/// Shortest span of one set-up sample (s).
const SETUP_SAMPLE_S: f64 = 0.002;

/// Wall time between set-up samples during a run (s).
const SETUP_EVERY_S: f64 = 0.5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <zoo_mcf|sat32|redteam|serve_mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Simulation cells run one after another on one thread; the service
    // sizes its own pool.
    mint_exp::set_jobs(1);
    let result = match (args.workload.as_str(), args.trace) {
        ("serve_mix", false) => serve_mix::run(&args),
        (_, false) => run_sim(&args),
        (_, true) => traced::run(&args),
    };
    match result {
        Ok(outcome) => {
            if !outcome.correct {
                eprintln!(
                    "perfbench: {} of {} checked operations FAILED",
                    outcome.failed, outcome.attempted
                );
            }
            println!("{}", outcome.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Builds the simulation workload — the set-up `setup_s` times: reading
/// and parsing the scenario text, resolving every cell, `Sim::build`,
/// and the `System` each cell's run starts from (per-channel engines and
/// tracker tables, which `Session::run` builds first).
pub fn setup_sim(args: &Args) -> Result<SimWorkload, String> {
    let scn = if args.workload == "sat32" {
        Some(std::fs::read_to_string(SAT32_SCN).map_err(|e| format!("{SAT32_SCN}: {e}"))?)
    } else {
        None
    };
    let w = SimWorkload::new(&args.workload, args.seed, scn.as_deref())?;
    for i in 0..w.cells.len() {
        let parts = w.parts(i);
        std::hint::black_box(System::new(
            parts.cfg,
            parts.scheme,
            parts.policy,
            parts.mapping,
            parts.seed,
        ));
        std::hint::black_box(parts.sim(None).build());
    }
    Ok(w)
}

/// Samples the set-up time across a run: each sample repeats the set-up
/// for at least `SETUP_SAMPLE_S` and takes the mean, so a set-up of a few
/// microseconds is not read off the timer's noise, and samples are
/// spread over the whole run, so one slow moment of the host at start-up
/// does not decide the figure.
struct SetupSampler {
    reps: usize,
    samples: Vec<f64>,
    last: Instant,
}

impl SetupSampler {
    /// Builds the workload once, sizing the samples from that build.
    fn start(args: &Args) -> Result<(SimWorkload, Self), String> {
        let t = Instant::now();
        let w = setup_sim(args)?;
        let reps = ((SETUP_SAMPLE_S / secs(t.elapsed())).ceil() as usize).clamp(1, 10_000);
        let sampler = Self {
            reps,
            samples: Vec::new(),
            last: Instant::now(),
        };
        Ok((w, sampler))
    }

    fn sample(&mut self, args: &Args) -> Result<(), String> {
        let t = Instant::now();
        for _ in 0..self.reps {
            std::hint::black_box(setup_sim(args)?);
        }
        self.samples.push(secs(t.elapsed()) / self.reps as f64);
        self.last = Instant::now();
        Ok(())
    }

    /// Samples if `SETUP_EVERY_S` have passed since the last sample.
    fn maybe_sample(&mut self, args: &Args) -> Result<(), String> {
        if secs(self.last.elapsed()) >= SETUP_EVERY_S {
            self.sample(args)?;
        }
        Ok(())
    }

    /// The median sample, after topping up to `SETUP_REPS` samples.
    fn median(mut self, args: &Args) -> Result<f64, String> {
        while self.samples.len() < SETUP_REPS {
            self.sample(args)?;
        }
        Ok(median(&self.samples))
    }
}

/// Runs cell `i` through the public `Sim` surface, with telemetry on if
/// asked, and times `Session::run` alone (the build is set-up). Returns
/// seconds and the output.
pub fn run_cell_timed(w: &SimWorkload, i: usize, telemetry: bool) -> (f64, CellOutput) {
    let parts = w.parts(i);
    let mut oracle = parts.oracle();
    let mut sim = parts.sim(oracle.as_mut().map(|o| o as &mut dyn ChannelObserver));
    if telemetry {
        sim = sim.telemetry();
    }
    let session = sim.build();
    let t = Instant::now();
    let report = session.run();
    let dt = secs(t.elapsed());
    (
        dt,
        CellOutput {
            report,
            summary: oracle.map(|o| o.summary()),
        },
    )
}

/// Checks `outputs` (one per cell) against the independent path and, on
/// the default seed, against the recorded digests. Returns per-cell
/// verdicts.
pub fn verify_cells(w: &SimWorkload, args: &Args, outputs: &[CellOutput]) -> Vec<bool> {
    set_reference_paths(true);
    let independent: Vec<CellOutput> = (0..w.cells.len()).map(|i| w.run_independent(i)).collect();
    set_reference_paths(false);
    let golden = golden::digests(&w.name);
    outputs
        .iter()
        .zip(&independent)
        .zip(&w.cells)
        .map(|((out, indep), cell)| {
            let mut ok = out == indep;
            if !ok {
                eprintln!(
                    "perfbench: {}: timed run differs from the reference path",
                    cell.label
                );
            }
            let d = digest(out);
            if args.seed == DEFAULT_SEED {
                match golden.iter().find(|(label, _)| *label == cell.label) {
                    Some(&(_, want)) if want == d => {}
                    Some(&(_, want)) => {
                        eprintln!(
                            "perfbench: digest differs from the recorded 0x{want:016x}: (\"{}\", 0x{d:016x}),",
                            cell.label
                        );
                        ok = false;
                    }
                    None => {
                        eprintln!(
                            "perfbench: no recorded digest: (\"{}\", 0x{d:016x}),",
                            cell.label
                        );
                        ok = false;
                    }
                }
            }
            ok
        })
        .collect()
}

/// The untraced run of a simulation workload: whole rounds of every cell
/// until `--seconds` of `Session::run` time have been measured, then the
/// checks.
///
/// The host is shared, and its speed drifts between a fast and a slow
/// state for seconds at a time, so a mean over one run mostly measures
/// the mix of states. Each cell is therefore scored by its best time
/// over its reps (the time the host takes when nothing contends); the
/// workload metrics are built from those best times and scaled to the
/// reference host ([`HostClock`]). The raw host rates are printed to
/// standard error beside them.
fn run_sim(args: &Args) -> Result<Outcome, String> {
    let (w, mut setup) = SetupSampler::start(args)?;
    let n = w.cells.len();
    let mut first: Vec<Option<CellOutput>> = vec![None; n];
    let mut repeat_ok = vec![true; n];
    let mut best = vec![f64::INFINITY; n];
    let mut requests = vec![0u64; n];
    let mut rounds = 0u64;
    let mut measured = 0.0;
    let mut clock = HostClock::new();
    while rounds == 0 || measured < args.seconds {
        for i in 0..n {
            clock.probe();
            let (dt, out) = run_cell_timed(&w, i, false);
            measured += dt;
            best[i] = best[i].min(dt);
            requests[i] = out.report.perf.result.requests;
            match &first[i] {
                None => first[i] = Some(out),
                Some(f) => repeat_ok[i] &= *f == out,
            }
        }
        rounds += 1;
        setup.maybe_sample(args)?;
    }
    let setup_s = setup.median(args)?;
    let outputs: Vec<CellOutput> = first.into_iter().map(|o| o.expect("ran")).collect();
    let verdicts = verify_cells(&w, args, &outputs);
    let mut outcome = Outcome::new();
    for (i, ok) in verdicts.iter().enumerate() {
        for _ in 0..rounds {
            outcome.check(*ok && repeat_ok[i]);
        }
    }
    let total_requests: u64 = requests.iter().sum();
    let best_round: f64 = best.iter().sum();
    let rate = total_requests as f64 / best_round;
    eprintln!(
        "perfbench: {}: {rounds} rounds of {n} cells, {measured:.2} s measured; host probe \
         {:.4} ms; raw host rates: mean {:.0} req/s, best of reps {rate:.0} req/s",
        args.workload,
        clock.best_ms(),
        (total_requests * rounds) as f64 / measured,
    );
    outcome.metric("sim_req_per_s", clock.rate(rate), "req/s");
    outcome.metric("setup_s", clock.time(setup_s), "s");
    outcome.metric("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    outcome.metric("ok_frac", outcome.ok_frac(), "ratio");
    Ok(outcome)
}

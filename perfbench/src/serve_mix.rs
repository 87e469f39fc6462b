//! The `serve_mix` workload: the scenario service under an open-loop
//! Poisson job stream at one fixed rate, then a closed-loop capacity
//! phase, over at most two unix-socket connections.
//!
//! The service is `mint_serve::Service::serve_unix` with two workers —
//! the code `run_scenario --serve --socket` runs — started inside the
//! benchmark process so the benchmark needs no second binary. Jobs are
//! seeded cells from [`SimWorkload`]'s `serve_mix` specs: small 1×1
//! cells below the service's checkpoint chunk and 2-channel × 2-rank
//! cells that cross it. Every result line must equal the batch
//! `ScenarioSpec::run` of the same spec rendered by `wire::ok_cell_line`.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mint_exp::json::Json;
use mint_memsys::{RunReport, ScenarioSpec, SessionRun, SystemConfig};
use mint_rng::{derive_seed, Rng64, Xoshiro256StarStar};
use mint_serve::wire::{ok_cell_line, Envelope};
use mint_serve::{Service, CHUNK};

use crate::cells::{CellOutput, Frontend, SimWorkload};
use crate::stats::{median, quantile, secs, HostClock, Outcome};
use crate::{verify_cells, Args, SETUP_REPS};

/// The fixed open-loop offered rate (jobs/s): about a sixth of the
/// closed-loop capacity (about 470 jobs/s on a 2-CPU host with two
/// workers). At half the capacity the queue amplifies the host's speed
/// swings: the p50 latency read 2.7 ms in one run and 5.8 ms in the
/// next.
pub const OFFERED_RATE: f64 = 80.0;

/// Service workers (the host's `nproc`).
const WORKERS: usize = 2;

/// Client connections.
const CONNECTIONS: usize = 2;

/// Jobs each connection keeps outstanding in the closed-loop phase.
const CLOSED_WINDOW: usize = 4;

/// Open-loop jobs due before this are warm-up, not measured.
const WARMUP: Duration = Duration::from_millis(500);

/// Longest wait for any one result line before the job counts as never
/// answered.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(60);

/// Host clock probes taken before and after the phases.
const PROBES: usize = 100;

/// Windows the closed-loop phase is split into (its best window is the
/// capacity).
const WINDOWS: usize = 8;

/// Share of `--seconds` spent in the open-loop phase (the rest is the
/// closed-loop phase).
const OPEN_SHARE: f64 = 0.7;

/// One submitted job.
struct Job {
    spec: usize,
    due: Instant,
    sent: Option<Instant>,
    answered: Option<Instant>,
    ok: bool,
    requests: u64,
}

/// The service plus the client's two connections.
struct Harness {
    path: PathBuf,
    service: JoinHandle<std::io::Result<()>>,
    writers: Vec<UnixStream>,
    readers: Vec<JoinHandle<()>>,
    lines: mpsc::Receiver<(usize, Instant, String)>,
}

fn socket_path(tag: usize) -> PathBuf {
    let dir = PathBuf::from(".bench_build");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("perfbench-{}-{tag}.sock", std::process::id()))
}

/// Starts a service and returns once it has answered a `stats` request
/// on its first connection.
fn start(tag: usize) -> Result<Harness, String> {
    let path = socket_path(tag);
    let service_path = path.clone();
    let service =
        std::thread::spawn(move || Service::new().workers(WORKERS).serve_unix(&service_path));
    let begun = Instant::now();
    let mut writers = Vec::new();
    while writers.len() < CONNECTIONS {
        match UnixStream::connect(&path) {
            Ok(s) => writers.push(s),
            Err(e) => {
                if begun.elapsed() > Duration::from_secs(10) {
                    return Err(format!("service did not start: {e}"));
                }
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }
    let (tx, lines) = mpsc::channel();
    let mut readers = Vec::new();
    for (c, w) in writers.iter().enumerate() {
        let stream = w.try_clone().map_err(|e| e.to_string())?;
        let tx = tx.clone();
        readers.push(std::thread::spawn(move || {
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                if tx.send((c, Instant::now(), line)).is_err() {
                    break;
                }
            }
        }));
    }
    let mut h = Harness {
        path,
        service,
        writers,
        readers,
        lines,
    };
    h.stats()?;
    Ok(h)
}

impl Harness {
    fn send(&mut self, conn: usize, line: &str) -> Result<(), String> {
        self.writers[conn]
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<(usize, Instant, String), String> {
        self.lines
            .recv_timeout(ANSWER_TIMEOUT)
            .map_err(|_| "a job never answered".to_string())
    }

    /// The service's `stats` ledger as Prometheus text.
    fn stats(&mut self) -> Result<String, String> {
        self.send(0, "{\"v\":1,\"id\":0,\"op\":\"stats\"}")?;
        let (_, _, line) = self.recv()?;
        let v = Json::parse(&line)?;
        v.get("result")
            .and_then(|r| r.get("prometheus"))
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("malformed stats line {line}"))
    }

    /// Closes both connections, shuts the service down and joins every
    /// thread.
    fn stop(self) -> Result<(), String> {
        for w in &self.writers {
            let _ = w.shutdown(std::net::Shutdown::Write);
        }
        for r in self.readers {
            let _ = r.join();
        }
        let mut s = UnixStream::connect(&self.path).map_err(|e| format!("shutdown: {e}"))?;
        s.write_all(b"{\"v\":1,\"op\":\"shutdown\"}\n")
            .map_err(|e| format!("shutdown: {e}"))?;
        drop(s);
        self.service
            .join()
            .map_err(|_| "service thread panicked".to_string())?
            .map_err(|e| format!("service: {e}"))
    }
}

/// The job mix: every 16th job is large (cycling through the 4 large
/// cells); the others cycle through the 12 small cells.
fn spec_for(job: usize, w: &SimWorkload) -> usize {
    let small = w
        .cells
        .iter()
        .filter(|c| c.label.ends_with("/small"))
        .count();
    if job % 16 == 15 {
        small + (job / 16) % (w.cells.len() - small)
    } else {
        (job - (job + 1) / 16) % small
    }
}

fn spec_of(w: &SimWorkload, i: usize) -> &ScenarioSpec {
    match &w.cells[i].frontend {
        Frontend::Spec(spec) => spec,
        _ => unreachable!("serve_mix cells are specs"),
    }
}

fn submit_line(w: &SimWorkload, id: u64, spec: usize) -> String {
    Envelope::Submit {
        id,
        spec: spec_of(w, spec).to_text(),
        seed_base: None,
        timeout_ms: None,
    }
    .to_line()
}

/// What the two phases measured.
struct Phases {
    jobs: Vec<Job>,
    /// Open-loop latencies (ms, due → result), warm-up excluded.
    latency_ms: Vec<f64>,
    send_lag_ms: Vec<f64>,
    /// Closed-loop completions per second, per window.
    closed_jobs_per_s: Vec<f64>,
    /// Closed-loop simulated requests per second, per window.
    closed_req_per_s: Vec<f64>,
    prometheus: String,
}

/// Runs the open-loop then the closed-loop phase against a started
/// service and checks every result line against `expected`.
fn phases(
    h: &mut Harness,
    w: &SimWorkload,
    expected: &[RunReport],
    seed: u64,
    seconds: f64,
) -> Result<Phases, String> {
    let mut jobs: Vec<Job> = Vec::new();
    let mut rng = Xoshiro256StarStar::seed_from_u64(derive_seed(seed, 0xA771));
    let open_s = seconds * OPEN_SHARE;
    // The arrival schedule: Poisson at the fixed rate.
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut at = 0.0;
    loop {
        at += -(1.0 - rng.gen_f64()).ln() / OFFERED_RATE;
        if at >= open_s {
            break;
        }
        let spec = spec_for(jobs.len(), w);
        jobs.push(Job {
            spec,
            due: t0 + Duration::from_secs_f64(at),
            sent: None,
            answered: None,
            ok: false,
            requests: 0,
        });
    }
    let lines: Vec<String> = (0..jobs.len())
        .map(|j| submit_line(w, j as u64 + 1, jobs[j].spec))
        .collect();
    let mut pending = 0usize;
    // Records one result line; returns the job's simulated requests.
    let check = |jobs: &mut Vec<Job>, at: Instant, line: &str| -> Result<u64, String> {
        let v = Json::parse(line)?;
        let id = v
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("result without id")?;
        let job = jobs
            .get_mut(id as usize - 1)
            .ok_or_else(|| format!("unknown job id {id}"))?;
        let report = &expected[job.spec];
        job.answered = Some(at);
        job.ok = line == ok_cell_line(id, &spec_of(w, job.spec).scheme.label(), report);
        job.requests = report.perf.result.requests;
        Ok(job.requests)
    };
    for (j, line) in lines.iter().enumerate() {
        let due = jobs[j].due;
        loop {
            // Take in results while waiting for the next due time.
            let now = Instant::now();
            if now >= due {
                break;
            }
            match h.lines.recv_timeout(due - now) {
                Ok((_, at, l)) => {
                    check(&mut jobs, at, &l)?;
                    pending -= 1;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => break,
                Err(mpsc::RecvTimeoutError::Disconnected) => return Err("service hung up".into()),
            }
        }
        // Small jobs on one connection, large on the other: results come
        // back in submission order per connection, so a large job never
        // holds back a small job's line.
        h.send(
            usize::from(w.cells[jobs[j].spec].label.ends_with("/large")),
            line,
        )?;
        jobs[j].sent = Some(Instant::now());
        pending += 1;
    }
    while pending > 0 {
        let (_, at, l) = h.recv()?;
        check(&mut jobs, at, &l)?;
        pending -= 1;
    }
    let measured_from = t0 + WARMUP;
    let latency_ms: Vec<f64> = jobs
        .iter()
        .filter(|j| j.due >= measured_from)
        .filter_map(|j| j.answered.map(|a| secs(a - j.due) * 1e3))
        .collect();
    let send_lag_ms: Vec<f64> = jobs
        .iter()
        .filter_map(|j| {
            j.sent
                .map(|s| secs(s.saturating_duration_since(j.due)) * 1e3)
        })
        .collect();

    // Closed loop: both connections kept CLOSED_WINDOW deep until the
    // phase ends, then drained.
    let closed_s = seconds - open_s;
    let first_closed = jobs.len();
    let begin = Instant::now();
    let deadline = begin + Duration::from_secs_f64(closed_s);
    let next = |jobs: &mut Vec<Job>, h: &mut Harness, conn: usize| -> Result<(), String> {
        let spec = spec_for(jobs.len() - first_closed, w);
        let id = jobs.len() as u64 + 1;
        jobs.push(Job {
            spec,
            due: Instant::now(),
            sent: Some(Instant::now()),
            answered: None,
            ok: false,
            requests: 0,
        });
        h.send(conn, &submit_line(w, id, spec))
    };
    for conn in 0..CONNECTIONS {
        for _ in 0..CLOSED_WINDOW {
            next(&mut jobs, h, conn)?;
            pending += 1;
        }
    }
    // Completions (time, requests) inside the phase.
    let mut completed: Vec<(f64, u64)> = Vec::new();
    while pending > 0 {
        let (conn, at, l) = h.recv()?;
        let requests = check(&mut jobs, at, &l)?;
        pending -= 1;
        if at <= deadline {
            completed.push((secs(at - begin), requests));
            next(&mut jobs, h, conn)?;
            pending += 1;
        }
    }
    // Throughput by window of completion time.
    let closed_window_s = closed_s / WINDOWS as f64;
    let mut closed = [(0u64, 0u64); WINDOWS];
    for &(at, requests) in &completed {
        let k = ((at / closed_window_s) as usize).min(WINDOWS - 1);
        closed[k].0 += 1;
        closed[k].1 += requests;
    }
    let closed_jobs_per_s: Vec<f64> = closed
        .iter()
        .map(|c| c.0 as f64 / closed_window_s)
        .collect();
    let closed_req_per_s: Vec<f64> = closed
        .iter()
        .map(|c| c.1 as f64 / closed_window_s)
        .collect();
    let prometheus = h.stats()?;
    Ok(Phases {
        jobs,
        latency_ms,
        send_lag_ms,
        closed_jobs_per_s,
        closed_req_per_s,
        prometheus,
    })
}

/// Starts and stops the service `SETUP_REPS - 1` times, then starts the
/// one the run uses: the median start-to-first-answer time is `setup_s`.
fn setup(args: &Args) -> Result<(SimWorkload, Harness, f64), String> {
    let mut times = Vec::new();
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let w = SimWorkload::new("serve_mix", args.seed, None)?;
        let h = start(rep)?;
        times.push(secs(t.elapsed()));
        if rep + 1 == SETUP_REPS {
            return Ok((w, h, median(&times)));
        }
        h.stop()?;
    }
    unreachable!("SETUP_REPS > 0")
}

/// The batch reports every result line is checked against.
fn batch_reports(w: &SimWorkload) -> Vec<RunReport> {
    (0..w.cells.len())
        .map(|i| spec_of(w, i).run().expect("workload cells need no files"))
        .collect()
}

fn phases_checked(
    args: &Args,
    seconds: f64,
    outcome: &mut Outcome,
) -> Result<(Phases, f64), String> {
    let (w, mut h, setup_s) = setup(args)?;
    let expected = batch_reports(&w);
    let p = phases(&mut h, &w, &expected, args.seed, seconds);
    let stopped = h.stop();
    let p = p?;
    stopped?;
    // With the service stopped, the batch reports themselves meet the
    // same checks as the simulation workloads' cells.
    let outputs: Vec<CellOutput> = expected
        .into_iter()
        .map(|report| CellOutput {
            report,
            summary: None,
        })
        .collect();
    let batch_ok = verify_cells(&w, args, &outputs);
    for j in &p.jobs {
        outcome.check(j.ok && j.answered.is_some() && batch_ok[j.spec]);
    }
    Ok((p, setup_s))
}

/// The untraced `serve_mix` run.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::new();
    let mut clock = HostClock::new();
    clock.probes(PROBES);
    let (p, setup_s) = phases_checked(args, args.seconds, &mut outcome)?;
    clock.probes(PROBES);
    let all = &p.latency_ms;
    let most = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    eprintln!(
        "perfbench: serve_mix: {} jobs, {} open-loop measured at {OFFERED_RATE} jobs/s, \
         send lag p99 {:.3} ms; host probe {:.4} ms; raw host p50 {:.3} ms, p99 {:.3} ms, \
         capacity by window {:?} jobs/s",
        p.jobs.len(),
        all.len(),
        quantile(&p.send_lag_ms, 0.99),
        clock.best_ms(),
        quantile(all, 0.5),
        quantile(all, 0.99),
        p.closed_jobs_per_s,
    );
    outcome.metric(
        "sim_req_per_s",
        clock.rate(most(&p.closed_req_per_s)),
        "req/s",
    );
    outcome.metric("setup_s", clock.time(setup_s), "s");
    outcome.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MiB");
    outcome.metric("job_p50_ms", clock.time(quantile(all, 0.5)), "ms");
    outcome.metric("job_p99_ms", clock.time(quantile(all, 0.99)), "ms");
    outcome.metric(
        "serve_jobs_per_s",
        clock.rate(most(&p.closed_jobs_per_s)),
        "jobs/s",
    );
    outcome.metric("ok_frac", outcome.ok_frac(), "ratio");
    Ok(outcome)
}

/// The `q`-quantile bucket bound of Prometheus histogram `name`.
fn prom_quantile(text: &str, name: &str, q: f64) -> f64 {
    let prefix = format!("{name}_bucket{{le=\"");
    let buckets: Vec<(f64, u64)> = text
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .filter_map(|rest| {
            let (le, count) = rest.split_once("\"} ")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, count.trim().parse().ok()?))
        })
        .collect();
    let total = buckets.last().map_or(0, |b| b.1);
    let want = (q * total as f64).ceil() as u64;
    buckets
        .iter()
        .find(|b| b.1 >= want.max(1))
        .map_or(0.0, |b| b.0)
}

/// The serve-side per-layer metrics; zeros when `phases` is `None`
/// (workloads that never start the service).
pub fn serve_layer_metrics(outcome: &mut Outcome, measured: Option<&ServeTrace>) {
    let d = ServeTrace::default();
    let t = measured.unwrap_or(&d);
    outcome.metric("serve.queue_wait_ms_p50", t.queue_wait_p50, "ms");
    outcome.metric("serve.queue_wait_ms_p99", t.queue_wait_p99, "ms");
    outcome.metric("serve.run_ms_p50", t.run_p50, "ms");
    outcome.metric("serve.run_ms_p99", t.run_p99, "ms");
    outcome.metric("wire.parse_ns_per_line", t.parse_ns, "ns");
    outcome.metric("wire.render_ns_per_line", t.render_ns, "ns");
    outcome.metric("client.send_lag_ms_p99", t.send_lag_p99, "ms");
    outcome.metric("snapshot.pause_ns", t.pause_ns, "ns");
    outcome.metric("snapshot.resume_ns", t.resume_ns, "ns");
    outcome.metric(
        "snapshot.bytes_per_checkpoint",
        t.bytes_per_checkpoint,
        "bytes",
    );
}

/// What the traced `serve_mix` extras measured.
#[derive(Default)]
pub struct ServeTrace {
    queue_wait_p50: f64,
    queue_wait_p99: f64,
    run_p50: f64,
    run_p99: f64,
    parse_ns: f64,
    render_ns: f64,
    send_lag_p99: f64,
    pause_ns: f64,
    resume_ns: f64,
    bytes_per_checkpoint: f64,
}

/// A large cell run the way the service runs it: `CHUNK`-request slices
/// of `run_until` / `resume_until`. Returns the report, the checkpoints
/// taken and their serialized sizes.
fn run_sliced(spec: &ScenarioSpec) -> Result<(RunReport, Vec<mint_memsys::Checkpoint>), String> {
    let mut checkpoints = Vec::new();
    let mut stop = CHUNK;
    loop {
        let session = spec
            .to_sim(SystemConfig::table6())
            .map_err(|e| e.to_string())?
            .build();
        let sliced = match checkpoints.last() {
            None => session.run_until(stop)?,
            Some(at) => session.resume_until(at, stop)?,
        };
        match sliced {
            SessionRun::Finished(report) => return Ok((report, checkpoints)),
            SessionRun::Paused(at) => {
                checkpoints.push(at);
                stop += CHUNK;
            }
        }
    }
}

/// A fresh `System` for `spec`'s topology, built the way a session
/// builds it.
fn system_of(spec: &ScenarioSpec) -> mint_memsys::System {
    let mut cfg = SystemConfig::table6();
    cfg.cores = spec.cores.unwrap_or(cfg.cores);
    cfg.channels = spec.channels.unwrap_or(cfg.channels);
    cfg.ranks = spec.ranks.unwrap_or(cfg.ranks);
    mint_memsys::System::new(cfg, spec.scheme, spec.policy, spec.mapping, spec.seed)
}

/// The traced extras of `serve_mix`: the service phases (for the
/// `stats` ledger and the client's send lag), the wire codec, and the
/// checkpoint slicing of the large cells.
pub fn trace_extras(
    args: &Args,
    seconds: f64,
    outcome: &mut Outcome,
) -> Result<ServeTrace, String> {
    let (p, _) = phases_checked(args, seconds * 0.6, outcome)?;
    let w = SimWorkload::new("serve_mix", args.seed, None)?;
    let mut t = ServeTrace {
        queue_wait_p50: prom_quantile(&p.prometheus, "mint_serve_queue_wait_ms", 0.5),
        queue_wait_p99: prom_quantile(&p.prometheus, "mint_serve_queue_wait_ms", 0.99),
        run_p50: prom_quantile(&p.prometheus, "mint_serve_job_latency_ms", 0.5),
        run_p99: prom_quantile(&p.prometheus, "mint_serve_job_latency_ms", 0.99),
        send_lag_p99: quantile(&p.send_lag_ms, 0.99),
        ..ServeTrace::default()
    };

    // The wire codec on this run's own lines.
    let lines: Vec<String> = p
        .jobs
        .iter()
        .enumerate()
        .map(|(j, job)| submit_line(&w, j as u64 + 1, job.spec))
        .collect();
    let reports = batch_reports(&w);
    let labels: Vec<String> = (0..w.cells.len())
        .map(|i| spec_of(&w, i).scheme.label())
        .collect();
    let (mut parse, mut render) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        for l in &lines {
            std::hint::black_box(Envelope::parse_line(std::hint::black_box(l)))?;
        }
        parse.push(t0.elapsed().as_nanos() as f64 / lines.len().max(1) as f64);
        let t0 = Instant::now();
        for (j, job) in p.jobs.iter().enumerate() {
            std::hint::black_box(ok_cell_line(
                j as u64 + 1,
                &labels[job.spec],
                &reports[job.spec],
            ));
        }
        render.push(t0.elapsed().as_nanos() as f64 / p.jobs.len().max(1) as f64);
    }
    t.parse_ns = median(&parse);
    t.render_ns = median(&render);

    // The checkpoint layer on the cells that cross CHUNK: every sliced
    // run must equal the straight run; the pause (snapshot of a just
    // built session) and resume (restore of the CHUNK checkpoint, then
    // an immediate re-pause) are timed net of building the `System`.
    let large: Vec<usize> = (0..w.cells.len())
        .filter(|&i| w.cells[i].label.ends_with("/large"))
        .collect();
    let mut checkpoints = Vec::new();
    let (mut bytes, mut ckpts) = (0.0f64, 0.0f64);
    for &i in &large {
        let spec = spec_of(&w, i);
        let straight = spec.run().map_err(|e| e.to_string())?;
        let (report, cks) = run_sliced(spec)?;
        outcome.check(report == straight && !cks.is_empty());
        for c in &cks {
            bytes += c.to_bytes().len() as f64;
            ckpts += 1.0;
        }
        checkpoints.push(cks[0].clone());
    }
    let (mut pause, mut resume) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.2);
    let mut reps = 0;
    while reps < 5 || Instant::now() < deadline {
        for (&i, at) in large.iter().zip(&checkpoints) {
            let spec = spec_of(&w, i);
            let sim = || {
                spec.to_sim(SystemConfig::table6())
                    .map_err(|e| e.to_string())
            };
            let t0 = Instant::now();
            let sys = std::hint::black_box(system_of(spec));
            let build_ns = t0.elapsed().as_nanos() as f64;
            drop(sys);
            let session = sim()?.build();
            let t0 = Instant::now();
            let paused = session.run_until(0)?;
            let pause_ns = t0.elapsed().as_nanos() as f64 - build_ns;
            outcome.check(matches!(paused, SessionRun::Paused(_)));
            let session = sim()?.build();
            let t0 = Instant::now();
            let again = session.resume_until(at, CHUNK)?;
            let resume_ns = t0.elapsed().as_nanos() as f64 - build_ns - pause_ns;
            outcome.check(matches!(again, SessionRun::Paused(ref c) if c == at));
            pause.push(pause_ns);
            resume.push(resume_ns);
        }
        reps += 1;
    }
    t.pause_ns = median(&pause);
    t.resume_ns = median(&resume);
    t.bytes_per_checkpoint = bytes / ckpts.max(1.0);
    Ok(t)
}

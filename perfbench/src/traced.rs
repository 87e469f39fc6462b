//! The traced run: a bench-owned loop over `System`'s public API that
//! times the calls into each layer, plus verified replays of the engine
//! and the trackers.
//!
//! Spans are recorded from this file only, around the calls into each
//! layer (no hooks inside the program):
//!
//! * workload — `RequestSource::refill` on every source;
//! * system — `System::route`, `System::admissible`, `System::push_to`;
//! * sched — `System::earliest_ready` and `System::service_channel`;
//! * oracle — `ChannelObserver::on_event` of a wrapping observer around
//!   `GroundTruthOracle`;
//! * engine — a replay of the serviced stream, in service order, through
//!   a fresh `MemoryController::service_decoded`;
//! * trackers — a replay of the captured ACT/REF/RFM events into fresh
//!   `MitigationBackend`s of the cell's scheme.
//!
//! Every traced run must produce the `RunReport` `Sim::run` produces, and
//! every replay must reproduce what the channel did (completions and
//! engine result; mitigation victims and final tracker state). A
//! mismatch fails the run's checks.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::time::Instant;

use mint_core::MitigationDecision;
use mint_dram::RowId;
use mint_memsys::backend::refis_per_refw;
use mint_memsys::{
    AddressMapping, ChannelObserver, CoreOutcome, DecodedAddr, EnergyModel, MemEvent,
    MemoryController, MitigationBackend, MitigationScheme, NormalizedPerf, Request, RequestSource,
    RunReport, SimResult, System, SystemConfig,
};
use mint_redteam::GroundTruthOracle;
use mint_rng::{derive_seed, Rng64, Xoshiro256StarStar};

use crate::cells::{CellOutput, Parts, SimWorkload};
use crate::stats::{median, quantile, secs, Outcome};
use crate::{run_cell_timed, setup_sim, verify_cells, Args};

/// Requests a source prefills per `refill` call (the session's ring).
const GEN_BATCH: usize = 16;

/// Busy time and call count of one span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub ns: f64,
    pub calls: u64,
}

impl Span {
    #[inline]
    fn add(&mut self, since: Instant) {
        self.ns += since.elapsed().as_nanos() as f64;
        self.calls += 1;
    }

    /// Busy nanoseconds with the timer's own cost per call removed.
    pub fn net_ns(&self, clock_ns: f64) -> f64 {
        (self.ns - clock_ns * self.calls as f64).max(0.0)
    }

    fn absorb(&mut self, o: &Span) {
        self.ns += o.ns;
        self.calls += o.calls;
    }
}

/// What one traced run of a cell recorded.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    pub gen: Span,
    pub route: Span,
    pub admit: Span,
    pub push: Span,
    pub earliest: Span,
    pub service: Span,
    pub oracle: Span,
    pub wall_ns: f64,
}

impl Spans {
    fn absorb(&mut self, o: &Spans) {
        self.gen.absorb(&o.gen);
        self.route.absorb(&o.route);
        self.admit.absorb(&o.admit);
        self.push.absorb(&o.push);
        self.earliest.absorb(&o.earliest);
        self.service.absorb(&o.service);
        self.oracle.absorb(&o.oracle);
        self.wall_ns += o.wall_ns;
    }
}

/// One serviced request as the engine saw it.
#[derive(Debug, Clone, Copy)]
struct Serviced {
    decoded: DecodedAddr,
    is_read: bool,
    start_ps: u64,
    completion_ps: u64,
    row_hit: bool,
}

/// A `ChannelObserver` that forwards to the oracle and times each call.
struct TimedOracle {
    inner: GroundTruthOracle,
    span: Span,
}

impl ChannelObserver for TimedOracle {
    fn on_event(&mut self, event: &MemEvent) {
        let t = Instant::now();
        self.inner.on_event(event);
        self.span.add(t);
    }
}

/// One core's frontend state in the traced loop (mirrors the session's).
struct Core {
    source: Box<dyn RequestSource>,
    pending: Option<(Request, u64)>,
    ring: VecDeque<Request>,
    route: usize,
    ready_at: u64,
    remaining: Option<u32>,
    finish: u64,
    serviced: u64,
    /// The request this core has in the system (a core blocks on its
    /// one outstanding miss).
    inflight: Option<Request>,
}

impl Core {
    fn fetch(&mut self, spans: &mut Spans) {
        match &mut self.remaining {
            Some(0) => return,
            Some(n) => *n -= 1,
            None => {}
        }
        let req = match self.ring.pop_front() {
            Some(req) => Some(req),
            None => {
                let t = Instant::now();
                self.source.refill(self.ready_at, GEN_BATCH, &mut self.ring);
                spans.gen.add(t);
                self.ring.pop_front()
            }
        };
        if let Some(req) = req {
            self.pending = Some((req, self.ready_at + req.think_time_ps));
        }
    }
}

/// Everything one traced run of a cell leaves behind.
pub struct TracedRun {
    pub output: CellOutput,
    pub spans: Spans,
    /// Per channel: the serviced stream, in service order.
    serviced: Vec<Vec<Serviced>>,
    /// Per channel: the executed command events (channel-local banks),
    /// when the cell has a tracker or an oracle.
    events: Vec<Vec<MemEvent>>,
    /// Per channel: the engine's final result and tracker states.
    engine_results: Vec<SimResult>,
    tracker_states: Vec<Vec<Vec<u64>>>,
    duration_ps: u64,
}

fn has_tracker(scheme: MitigationScheme) -> bool {
    !matches!(
        scheme,
        MitigationScheme::Baseline | MitigationScheme::McPara { .. }
    )
}

/// Runs one cell through the bench-owned loop: the session's admission
/// loop rebuilt over `System`'s public API, every layer call timed.
pub fn run_traced(parts: Parts) -> TracedRun {
    let wall = Instant::now();
    let Parts {
        cfg,
        scheme,
        policy,
        mapping,
        seed,
        sources,
        budget,
        oracle_bank,
    } = parts;
    let mut spans = Spans::default();
    let mut oracle = oracle_bank.map(|b| TimedOracle {
        inner: GroundTruthOracle::new(&cfg, b),
        span: Span::default(),
    });
    let capture = has_tracker(scheme);
    let mut system = System::new(cfg, scheme, policy, mapping, seed);
    let channels = system.channel_count();
    let bank_offset = cfg.banks_per_channel();
    let log = oracle.is_some() || capture;
    if log {
        system.enable_event_log();
    }
    let mut serviced: Vec<Vec<Serviced>> = vec![Vec::new(); channels];
    let mut events: Vec<Vec<MemEvent>> = vec![Vec::new(); channels];
    let mlp = u64::from(cfg.core_mlp).max(1);
    let mut cores: Vec<Core> = sources
        .into_iter()
        .map(|source| Core {
            source,
            pending: None,
            ring: VecDeque::new(),
            route: 0,
            ready_at: 0,
            remaining: budget,
            finish: 0,
            serviced: 0,
            inflight: None,
        })
        .collect();
    for c in &mut cores {
        c.fetch(&mut spans);
    }
    let single = channels == 1;

    // One service decision: serve the earliest-ready channel, pump its
    // events, credit the owning core and fetch its next request. Returns
    // the serviced core, or None when every queue is empty.
    let mut service = |system: &mut System, cores: &mut [Core], spans: &mut Spans| {
        let t = Instant::now();
        let ch = system.earliest_ready();
        spans.earliest.add(t);
        let ch = ch?;
        let t = Instant::now();
        let c = system
            .service_channel(ch)
            .expect("earliest-ready channel is non-empty");
        spans.service.add(t);
        if log {
            let offset = bank_offset * ch as u32;
            for e in system.drain_events_global(ch) {
                if let Some(o) = oracle.as_mut() {
                    o.on_event(&e);
                }
                if capture {
                    events[ch].push(local(e, offset));
                }
            }
        }
        let idx = c.core as usize;
        let core = &mut cores[idx];
        let req = core
            .inflight
            .take()
            .expect("completion for an in-flight request");
        serviced[ch].push(Serviced {
            decoded: system.decoder().decode(req.addr),
            is_read: req.is_read,
            start_ps: c.start_ps,
            completion_ps: c.completion_ps,
            row_hit: c.row_hit,
        });
        core.ready_at = c.arrival_ps + (c.completion_ps - c.arrival_ps) / mlp;
        core.finish = core.finish.max(c.completion_ps);
        core.serviced += 1;
        core.fetch(spans);
        Some(idx)
    };

    if single {
        let mut arrivals: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        for (i, c) in cores.iter().enumerate() {
            if let Some(&(_, issue)) = c.pending.as_ref() {
                arrivals.push(Reverse((issue, i)));
            }
        }
        loop {
            if let Some(&Reverse((issue, i))) = arrivals.peek() {
                let t = Instant::now();
                let ok = system.admissible(0, issue);
                spans.admit.add(t);
                if ok {
                    arrivals.pop();
                    let (req, _) = cores[i].pending.take().expect("pending checked");
                    cores[i].inflight = Some(req);
                    let t = Instant::now();
                    system.push_to(0, req, i as u32, issue);
                    spans.push.add(t);
                    continue;
                }
            }
            let Some(idx) = service(&mut system, &mut cores, &mut spans) else {
                break;
            };
            if let Some(&(_, issue)) = cores[idx].pending.as_ref() {
                arrivals.push(Reverse((issue, idx)));
            }
        }
    } else {
        let mut arrivals: BTreeSet<(u64, usize)> = BTreeSet::new();
        for (i, c) in cores.iter_mut().enumerate() {
            if let Some(&(req, issue)) = c.pending.as_ref() {
                let t = Instant::now();
                c.route = system.route(req.addr);
                spans.route.add(t);
                arrivals.insert((issue, i));
            }
        }
        loop {
            let mut admitted = None;
            for &(issue, i) in &arrivals {
                let t = Instant::now();
                let ok = system.admissible(cores[i].route, issue);
                spans.admit.add(t);
                if ok {
                    admitted = Some((issue, i));
                    break;
                }
            }
            if let Some((issue, i)) = admitted {
                arrivals.remove(&(issue, i));
                let (req, _) = cores[i].pending.take().expect("pending checked");
                cores[i].inflight = Some(req);
                let t = Instant::now();
                system.push_to(cores[i].route, req, i as u32, issue);
                spans.push.add(t);
                continue;
            }
            let Some(idx) = service(&mut system, &mut cores, &mut spans) else {
                break;
            };
            if let Some(&(req, issue)) = cores[idx].pending.as_ref() {
                let t = Instant::now();
                cores[idx].route = system.route(req.addr);
                spans.route.add(t);
                arrivals.insert((issue, idx));
            }
        }
    }

    let duration = cores.iter().map(|c| c.finish).max().unwrap_or(0);
    system.finish(duration);
    let result = system.result();
    let report = RunReport {
        perf: NormalizedPerf {
            duration_ps: duration,
            result,
            normalized: 1.0,
        },
        cores: cores
            .iter()
            .map(|c| CoreOutcome {
                finish_ps: c.finish,
                requests: c.serviced,
            })
            .collect(),
        energy: EnergyModel::ddr5_default().energy(
            &result,
            duration,
            !matches!(scheme, MitigationScheme::Baseline),
        ),
        events: Vec::new(),
        telemetry: None,
    };
    let engine_results = (0..channels).map(|c| system.channel(c).result()).collect();
    let tracker_states = (0..channels)
        .map(|c| {
            let engine = system.channel(c).engine();
            (0..engine.bank_count())
                .map(|b| engine.backend(b).snapshot_state())
                .collect()
        })
        .collect();
    if let Some(o) = &oracle {
        spans.oracle = o.span;
    }
    spans.wall_ns = wall.elapsed().as_nanos() as f64;
    TracedRun {
        output: CellOutput {
            report,
            summary: oracle.map(|o| o.inner.summary()),
        },
        spans,
        serviced,
        events,
        engine_results,
        tracker_states,
        duration_ps: duration,
    }
}

/// `e` with the channel's bank offset removed (channel-local bank).
fn local(e: MemEvent, offset: u32) -> MemEvent {
    let mut e = e;
    match &mut e {
        MemEvent::Act { bank, .. }
        | MemEvent::Pre { bank, .. }
        | MemEvent::Ref { bank, .. }
        | MemEvent::Rfm { bank, .. }
        | MemEvent::Drfm { bank, .. }
        | MemEvent::MitigativeRefresh { bank, .. } => *bank -= offset,
    }
    e
}

/// The engine replay of one run: host ns spent in `service_decoded`
/// across every channel, and whether every outcome and the final engine
/// result matched the channel's.
pub struct EngineReplay {
    pub ns: f64,
    pub verified: bool,
}

pub fn replay_engine(
    run: &TracedRun,
    cfg: SystemConfig,
    scheme: MitigationScheme,
    mapping: AddressMapping,
    seed: u64,
) -> EngineReplay {
    let mut ns = 0.0;
    let mut verified = true;
    for (c, stream) in run.serviced.iter().enumerate() {
        let mut mc = MemoryController::with_mapping(
            cfg,
            scheme,
            mapping,
            derive_seed(seed, 0xC0 + c as u64),
        );
        if !run.events[c].is_empty() {
            mc.enable_event_log();
        }
        let mut outcomes = Vec::with_capacity(stream.len());
        let t = Instant::now();
        for s in stream {
            outcomes.push(mc.service_decoded(s.decoded, s.is_read, s.start_ps));
        }
        ns += t.elapsed().as_nanos() as f64;
        verified &= outcomes.iter().zip(stream).all(|(o, s)| {
            o.start_ps == s.start_ps && o.completion_ps == s.completion_ps && o.row_hit == s.row_hit
        });
        mc.finish(run.duration_ps);
        verified &= mc.result() == run.engine_results[c];
    }
    EngineReplay { ns, verified }
}

/// The tracker replay of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrackerReplay {
    pub act: Span,
    pub refresh: Span,
    /// Occupied tracking entries summed over banks at the end.
    pub live_entries: u64,
    pub verified: bool,
}

/// Replays the captured ACT/REF/RFM events of every channel into fresh
/// backends of `scheme`, seeded like the channel engines, and checks the
/// mitigation victims and the final tracker states against the run.
pub fn replay_trackers(
    run: &TracedRun,
    cfg: SystemConfig,
    scheme: MitigationScheme,
    seed: u64,
) -> TrackerReplay {
    let mut out = TrackerReplay {
        verified: true,
        ..TrackerReplay::default()
    };
    let rows = cfg.rows_per_bank;
    let blast = cfg.blast_radius;
    let refw = refis_per_refw();
    for (c, events) in run.events.iter().enumerate() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(derive_seed(seed, 0xC0 + c as u64));
        let mut backends: Vec<MitigationBackend> = (0..cfg.banks_per_channel())
            .map(|_| MitigationBackend::for_scheme(scheme, &cfg, &mut rng))
            .collect();
        let mut victims: Vec<(u32, u32)> = Vec::new();
        let apply = |t: &mut Box<dyn mint_core::InDramTracker + Send>,
                     d: MitigationDecision,
                     bank: u32,
                     victims: &mut Vec<(u32, u32)>| {
            if d.is_none() {
                return;
            }
            for v in d.victim_rows(blast).into_iter().filter(|v| v.0 < rows) {
                victims.push((bank, v.0));
                t.on_mitigative_refresh(v);
            }
        };
        for e in events {
            match *e {
                MemEvent::Act { bank, row, .. } => {
                    let t = Instant::now();
                    match &mut backends[bank as usize] {
                        MitigationBackend::InDram(tr) | MitigationBackend::McTracker(tr) => {
                            if let Some(d) = tr.on_activation(RowId(row), &mut rng) {
                                apply(tr, d, bank, &mut victims);
                            }
                        }
                        MitigationBackend::McSample { p } => {
                            let _ = rng.gen_bool(*p);
                        }
                        MitigationBackend::None => {}
                    }
                    out.act.add(t);
                }
                MemEvent::Ref {
                    bank, ref_index, ..
                } => {
                    let t = Instant::now();
                    match &mut backends[bank as usize] {
                        MitigationBackend::InDram(tr) => {
                            let d = tr.on_refresh(&mut rng);
                            apply(tr, d, bank, &mut victims);
                        }
                        // MC-side tables reset every tREFW.
                        MitigationBackend::McTracker(tr) if ref_index % refw == 0 => {
                            tr.reset(&mut rng);
                        }
                        _ => {}
                    }
                    out.refresh.add(t);
                }
                MemEvent::Rfm { bank, .. } => {
                    let t = Instant::now();
                    if let MitigationBackend::InDram(tr) = &mut backends[bank as usize] {
                        let d = tr.on_refresh(&mut rng);
                        apply(tr, d, bank, &mut victims);
                    }
                    out.refresh.add(t);
                }
                _ => {}
            }
        }
        let logged: Vec<(u32, u32)> = events
            .iter()
            .filter_map(|e| match *e {
                MemEvent::MitigativeRefresh { bank, row, .. } => Some((bank, row)),
                _ => None,
            })
            .collect();
        out.verified &= logged == victims;
        for (b, backend) in backends.iter().enumerate() {
            out.live_entries += backend.live_entries() as u64;
            out.verified &= backend.snapshot_state() == run.tracker_states[c][b];
        }
    }
    out
}

/// What a span records around no work at all (median over batches):
/// the timer's own cost, subtracted from every span.
pub fn clock_ns() -> f64 {
    let samples: Vec<f64> = (0..64)
        .map(|_| {
            let mut span = Span::default();
            for _ in 0..2000 {
                let t = Instant::now();
                span.add(t);
            }
            std::hint::black_box(&span);
            span.ns / span.calls as f64
        })
        .collect();
    median(&samples)
}

/// Deterministic counts of one cell, compared exactly across reps.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counts {
    pub requests: u64,
    pub gen_calls: u64,
    pub admit_probes: u64,
    pub admitted: u64,
    pub decisions: u64,
    pub oracle_events: u64,
    pub acts: u64,
    pub refreshes: u64,
    pub live_entries: u64,
    pub plans_computed: u64,
    pub queue_depth_sum: u64,
    pub row_hits: u64,
    pub demand_acts: u64,
}

/// Per-cell accumulation over traced reps.
#[derive(Default)]
struct CellTrace {
    spans: Spans,
    engine_ns: Vec<f64>,
    tracker: Vec<TrackerReplay>,
    traced_wall_ns: Vec<f64>,
    untraced_ns: Vec<f64>,
    counts: Option<Counts>,
    counts_repeat: bool,
    reps: u64,
}

/// Plans computed and the queue-depth histogram sum, read from the
/// public telemetry report of a telemetry-on `Sim::run`.
fn telemetry_counts(report: &RunReport) -> (u64, u64) {
    let Some(t) = report.telemetry.as_ref() else {
        return (0, 0);
    };
    let mut plans = 0;
    let mut depth_sum = 0;
    for s in t.sections.iter().filter(|s| s.name.ends_with("/sched")) {
        plans += s
            .counters
            .iter()
            .find(|(n, _)| n == "plans_computed")
            .map_or(0, |&(_, v)| v);
        if let Some((_, h)) = s.histograms.iter().find(|(n, _)| n == "queue_depth") {
            depth_sum += h.sum();
        }
    }
    (plans, depth_sum)
}

/// A ratio reported with its base and spread.
pub struct Ratio {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Ratio {
    pub fn of(samples: &[f64]) -> Self {
        Self {
            median: median(samples),
            q1: quantile(samples, 0.25),
            q3: quantile(samples, 0.75),
        }
    }

    pub fn resolved(&self) -> bool {
        !(self.q1 <= 1.0 && self.q3 >= 1.0)
    }
}

/// The traced run of a simulation workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = setup_sim(args)?;
    let n = w.cells.len();
    let clock = clock_ns();
    let mut outcome = Outcome::new();
    let mut cells: Vec<CellTrace> = (0..n)
        .map(|_| CellTrace {
            counts_repeat: true,
            ..CellTrace::default()
        })
        .collect();
    let mut sim_outputs: Vec<Option<CellOutput>> = vec![None; n];
    let mut obs_ratio = Vec::new();
    // The service, wire and checkpoint layers are measured on the serve
    // job mix from the traced runs of `zoo_mcf` (the small jobs are its
    // zoo schemes on mcf) and `serve_mix`, which spend half their time
    // on them.
    let serve = matches!(args.workload.as_str(), "zoo_mcf" | "serve_mix");
    let budget = if serve {
        args.seconds * 0.5
    } else {
        args.seconds
    };
    let start = Instant::now();
    let mut rounds = 0u64;
    while rounds < 2 || secs(start.elapsed()) < budget {
        for (i, ct) in cells.iter_mut().enumerate() {
            // Untraced and telemetry-on runs through the public surface,
            // alternating which goes first.
            let (off, on) = if rounds % 2 == 0 {
                let off = run_cell_timed(&w, i, false);
                (off, run_cell_timed(&w, i, true))
            } else {
                let on = run_cell_timed(&w, i, true);
                (run_cell_timed(&w, i, false), on)
            };
            let ((off_dt, off_out), (on_dt, on_out)) = (off, on);
            ct.untraced_ns.push(off_dt * 1e9);
            obs_ratio.push(on_dt / off_dt);
            let (plans, depth_sum) = telemetry_counts(&on_out.report);
            // Telemetry must not change the simulated result.
            let mut neutral = on_out.clone();
            neutral.report.telemetry = None;
            outcome.check(neutral == off_out);

            // The traced loop, then its replays.
            let parts = w.parts(i);
            let (cfg, scheme, mapping, seed) = (parts.cfg, parts.scheme, parts.mapping, parts.seed);
            let run = run_traced(parts);
            outcome.check(run.output == off_out);
            if run.output != off_out {
                eprintln!(
                    "perfbench: {}: traced loop differs from Sim::run",
                    w.cells[i].label
                );
            }
            let engine = replay_engine(&run, cfg, scheme, mapping, seed);
            outcome.check(engine.verified);
            if !engine.verified {
                eprintln!(
                    "perfbench: {}: engine replay is unverified",
                    w.cells[i].label
                );
            }
            let tracker = if has_tracker(scheme) {
                let tr = replay_trackers(&run, cfg, scheme, seed);
                outcome.check(tr.verified);
                if !tr.verified {
                    eprintln!(
                        "perfbench: {}: tracker replay is unverified",
                        w.cells[i].label
                    );
                }
                Some(tr)
            } else {
                None
            };
            let r = &run.output.report.perf.result;
            let counts = Counts {
                requests: r.requests,
                gen_calls: run.spans.gen.calls,
                admit_probes: run.spans.admit.calls,
                admitted: run.spans.push.calls,
                decisions: run.spans.service.calls,
                oracle_events: run.spans.oracle.calls,
                acts: tracker.map_or(0, |t| t.act.calls),
                refreshes: tracker.map_or(0, |t| t.refresh.calls),
                live_entries: tracker.map_or(0, |t| t.live_entries),
                plans_computed: plans,
                queue_depth_sum: depth_sum,
                row_hits: r.row_hits,
                demand_acts: r.demand_acts,
            };
            match &ct.counts {
                None => ct.counts = Some(counts),
                Some(c) => ct.counts_repeat &= *c == counts,
            }
            ct.spans.absorb(&run.spans);
            ct.engine_ns.push(engine.ns);
            if let Some(tr) = tracker {
                ct.tracker.push(tr);
            }
            ct.traced_wall_ns.push(run.spans.wall_ns);
            ct.reps += 1;
            if sim_outputs[i].is_none() {
                sim_outputs[i] = Some(off_out);
            }
        }
        rounds += 1;
    }
    // The same output checks as the untraced run.
    let outputs: Vec<CellOutput> = sim_outputs.into_iter().map(|o| o.expect("ran")).collect();
    for ok in verify_cells(&w, args, &outputs) {
        outcome.check(ok);
    }
    for (i, ct) in cells.iter().enumerate() {
        outcome.check(ct.counts_repeat);
        if !ct.counts_repeat {
            eprintln!(
                "perfbench: {}: deterministic counts differ between reps",
                w.cells[i].label
            );
        }
    }
    eprintln!(
        "perfbench: {} traced: {rounds} rounds of {n} cells, clock {clock:.1} ns/span",
        args.workload
    );
    report_layers(&w, &cells, clock, &obs_ratio, &mut outcome);
    let extras = if serve {
        Some(crate::serve_mix::trace_extras(
            args,
            args.seconds - budget,
            &mut outcome,
        )?)
    } else {
        None
    };
    crate::serve_mix::serve_layer_metrics(&mut outcome, extras.as_ref());
    Ok(outcome)
}

/// Turns the per-cell traces into the per-layer metrics.
fn report_layers(
    w: &SimWorkload,
    cells: &[CellTrace],
    clock: f64,
    obs_ratio: &[f64],
    outcome: &mut Outcome,
) {
    let mut total = Spans::default();
    let mut reqs = 0u64;
    let mut engine_ns = 0.0;
    let mut untraced_ns = 0.0;
    let mut traced_ns = 0.0;
    let mut counts = Counts::default();
    // Per scheme: (act span, refresh span, max live entries, acts).
    let mut trackers: BTreeMap<String, (Span, Span, u64)> = BTreeMap::new();
    for (ct, cell) in cells.iter().zip(&w.cells) {
        let c = ct.counts.clone().unwrap_or_default();
        let reps = ct.reps.max(1);
        total.absorb(&ct.spans);
        reqs += c.requests * reps;
        engine_ns += ct.engine_ns.iter().sum::<f64>();
        untraced_ns += median(&ct.untraced_ns) * reps as f64;
        traced_ns += ct.traced_wall_ns.iter().sum::<f64>();
        counts.requests += c.requests;
        counts.gen_calls += c.gen_calls;
        counts.admit_probes += c.admit_probes;
        counts.admitted += c.admitted;
        counts.decisions += c.decisions;
        counts.oracle_events += c.oracle_events;
        counts.plans_computed += c.plans_computed;
        counts.queue_depth_sum += c.queue_depth_sum;
        counts.row_hits += c.row_hits;
        counts.demand_acts += c.demand_acts;
        if !ct.tracker.is_empty() {
            let entry = trackers.entry(sanitize(&cell.scheme.label())).or_insert((
                Span::default(),
                Span::default(),
                0,
            ));
            for tr in &ct.tracker {
                entry.0.absorb(&tr.act);
                entry.1.absorb(&tr.refresh);
            }
            entry.2 = entry.2.max(c.live_entries);
        }
    }
    let per_req = |ns: f64| ns / reqs.max(1) as f64;
    let decisions = total.service.calls.max(1) as f64;
    let gen = per_req(total.gen.net_ns(clock));
    let admit =
        per_req(total.route.net_ns(clock) + total.admit.net_ns(clock) + total.push.net_ns(clock));
    let earliest = total.earliest.net_ns(clock) / decisions;
    let service_total = total.service.net_ns(clock);
    let sched_service = (service_total - engine_ns) / decisions;
    let oracle = per_req(total.oracle.net_ns(clock));
    let untraced_per_req = per_req(untraced_ns);
    let cr = counts.requests.max(1) as f64;

    outcome.metric("workload.gen_ns_per_req", gen, "ns");
    outcome.metric(
        "workload.refill_calls_per_req",
        counts.gen_calls as f64 / cr,
        "count",
    );
    outcome.metric("system.admit_ns_per_req", admit, "ns");
    outcome.metric(
        "system.admit_probes_per_req",
        counts.admit_probes as f64 / counts.admitted.max(1) as f64,
        "count",
    );
    outcome.metric("sched.earliest_ready_ns_per_decision", earliest, "ns");
    outcome.metric("sched.service_ns_per_decision", sched_service, "ns");
    outcome.metric(
        "sched.plans_computed_per_decision",
        counts.plans_computed as f64 / counts.decisions.max(1) as f64,
        "count",
    );
    outcome.metric(
        "sched.queue_depth_mean",
        counts.queue_depth_sum as f64 / counts.decisions.max(1) as f64,
        "count",
    );
    outcome.metric("engine.service_ns_per_req", per_req(engine_ns), "ns");
    outcome.metric(
        "engine.acts_per_req",
        counts.demand_acts as f64 / cr,
        "count",
    );
    outcome.metric("engine.row_hit_rate", counts.row_hits as f64 / cr, "ratio");
    let mut tracker_ns = 0.0;
    for scheme in tracker_labels() {
        let (act, refresh, live) = trackers.get(&scheme).copied().unwrap_or_default();
        tracker_ns += act.net_ns(clock) + refresh.net_ns(clock);
        outcome.metric(
            format!("tracker.{scheme}.ns_per_act"),
            act.net_ns(clock) / act.calls.max(1) as f64,
            "ns",
        );
        outcome.metric(
            format!("tracker.{scheme}.ns_per_ref"),
            refresh.net_ns(clock) / refresh.calls.max(1) as f64,
            "ns",
        );
        outcome.metric(
            format!("tracker.{scheme}.live_entries"),
            live as f64,
            "count",
        );
    }
    outcome.metric("tracker.ns_per_req", per_req(tracker_ns), "ns");
    outcome.metric(
        "oracle.ns_per_event",
        total.oracle.net_ns(clock) / total.oracle.calls.max(1) as f64,
        "ns",
    );
    outcome.metric(
        "oracle.events_per_req",
        counts.oracle_events as f64 / cr,
        "count",
    );
    let traced_layers =
        gen + admit + per_req(total.earliest.net_ns(clock) + service_total) + oracle;
    outcome.metric(
        "session.other_ns_per_req",
        untraced_per_req - traced_layers,
        "ns",
    );
    outcome.metric("session.untraced_ns_per_req", untraced_per_req, "ns");
    outcome.metric(
        "session.trace_overhead",
        traced_ns / untraced_ns.max(1.0),
        "ratio",
    );
    let obs = Ratio::of(obs_ratio);
    outcome.metric("obs.on_off_ratio", obs.median, "ratio");
    outcome.metric("obs.on_off_ratio_q1", obs.q1, "ratio");
    outcome.metric("obs.on_off_ratio_q3", obs.q3, "ratio");
    eprintln!(
        "perfbench: obs.on_off_ratio {:.3} [q1 {:.3}, q3 {:.3}] over {} pairs, base {:.1} ns/req telemetry-off{}",
        obs.median,
        obs.q1,
        obs.q3,
        obs_ratio.len(),
        untraced_per_req,
        if obs.resolved() { "" } else { " — unresolved (spread crosses 1.0)" }
    );
    eprintln!(
        "perfbench: per request: gen {gen:.1} + admit {admit:.1} + sched {:.1} + engine {:.1} (trackers {:.1}) + oracle {oracle:.1} ns; untraced {untraced_per_req:.1} ns",
        per_req(total.earliest.net_ns(clock) + service_total - engine_ns),
        per_req(engine_ns),
        per_req(tracker_ns),
    );
}

/// `[A-Za-z0-9_.-]` only, everything else as `_`.
pub fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || "_.-".contains(c) {
                c
            } else {
                '_'
            }
        })
        .collect::<String>()
        .trim_matches('_')
        .to_string()
}

/// The sanitized labels of every zoo scheme that carries a tracker.
pub fn tracker_labels() -> Vec<String> {
    MitigationScheme::zoo()
        .into_iter()
        .filter(|&s| has_tracker(s))
        .map(|s| sanitize(&s.label()))
        .collect()
}

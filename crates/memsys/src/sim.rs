//! The unified run surface: the [`Sim`] builder, the [`Session`] it
//! produces, and the one [`RunReport`] every run returns.
//!
//! The paper's evaluation is a grid of *scenarios* — scheme × frontend
//! (synthetic workload, text trace, or attack source) × mapping ×
//! scheduler × seed. Before this module the run surface was one free
//! function per combination, each threading the knobs slightly
//! differently and returning a different shape. [`Sim`] replaces them
//! with a single typed builder:
//!
//! ```
//! use mint_memsys::{MitigationScheme, Sim};
//! use mint_memsys::workload::spec_rate_workloads;
//!
//! let lbm = spec_rate_workloads()
//!     .into_iter()
//!     .find(|w| w.name == "lbm")
//!     .unwrap();
//! let report = Sim::ddr5()
//!     .scheme(MitigationScheme::Mint)
//!     .workload(&[lbm; 4], 2_000)
//!     .seed(11)
//!     .run();
//! assert_eq!(report.perf.result.requests, 4 * 2_000);
//! assert_eq!(report.cores.len(), 4);
//! assert!(report.energy.total_j() > 0.0);
//! ```
//!
//! Every configuration knob has the production default (Table VI config,
//! FR-FCFS, row-interleaved mapping, seed 0), so a scenario names only
//! what it changes. [`Sim::build`] resolves the frontend into per-core
//! [`RequestSource`]s and returns a [`Session`]; [`Session::run`] drives
//! the channel to completion and returns the [`RunReport`] — aggregate
//! [`NormalizedPerf`], per-core [`CoreOutcome`]s, the energy breakdown,
//! and (when captured) the executed command events. Runs are
//! bit-deterministic for a given builder state: the per-core streams and
//! the channel derive their RNG substreams from the builder seed, so the
//! same builder chain always reproduces the same bytes (pinned against
//! golden digests by `tests/system_identity.rs`, and against the
//! declarative [`ScenarioSpec`](crate::ScenarioSpec) layer by
//! `tests/sim_builder.rs`).

use crate::address::{AddressDecoder, AddressMapping};
use crate::config::{MitigationScheme, SystemConfig};
use crate::controller::SimResult;
use crate::energy::{EnergyModel, EnergyReport};
use crate::events::{ChannelObserver, MemEvent};
use crate::sched::SchedulePolicy;
use crate::snapshot::{Checkpoint, SnapshotReader, SnapshotWriter};
use crate::system::System;
use crate::telemetry::{collect_report, SessionTelemetry};
use crate::workload::{CoreStream, Request, RequestSource, TraceEntry, TraceSource, WorkloadSpec};
use mint_obs::TelemetryReport;
use mint_rng::derive_seed;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide default admission mode for subsequently started sessions
/// (see [`set_reference_admission_default`]).
static REFERENCE_ADMISSION_DEFAULT: AtomicBool = AtomicBool::new(false);

/// Makes every subsequently started [`Session`] arbitrate admission with
/// the retained sorted-vec reference loop — re-collecting and re-sorting
/// every pending arrival per decision — instead of the incrementally
/// maintained `(issue, core)` arrival set, and serve channels via the
/// retained linear readiness scan instead of the cached per-channel
/// minimum.
///
/// Like [`set_reference_planner_default`](crate::set_reference_planner_default),
/// this is a differential-testing oracle: both paths admit in the same
/// order and produce bit-identical [`RunReport`]s (`ci_smoke` and the
/// admission property test assert it). Leave it off outside of tests.
pub fn set_reference_admission_default(on: bool) {
    REFERENCE_ADMISSION_DEFAULT.store(on, Ordering::SeqCst);
}

/// Process-wide default generation mode for subsequently started sessions
/// (see [`set_reference_generation_default`]).
static REFERENCE_GENERATION_DEFAULT: AtomicBool = AtomicBool::new(false);

/// Makes every subsequently started [`Session`] pull requests from its
/// sources one at a time (the retained unbatched reference) instead of
/// prefilling a small per-core ring via [`RequestSource::refill`].
///
/// Both paths consume bit-identical streams — batching sources draw RNG
/// values in exactly the one-at-a-time order, and ready-time-dependent
/// sources refill one request per call by contract — so this knob exists
/// purely as the differential-testing oracle for that guarantee.
pub fn set_reference_generation_default(on: bool) {
    REFERENCE_GENERATION_DEFAULT.store(on, Ordering::SeqCst);
}

/// Requests a batching source prefills per [`RequestSource::refill`]
/// call (the per-core ring size of a [`Session`]).
const GEN_BATCH: usize = 16;

/// Aggregate outcome of one run: duration, controller statistics, and a
/// normalization slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalizedPerf {
    /// Total simulated time (ps) — lower is faster.
    pub duration_ps: u64,
    /// Controller statistics.
    pub result: SimResult,
    /// Weighted speedup vs. a reference duration (1.0 = baseline); filled
    /// by [`normalize`](NormalizedPerf::normalize).
    pub normalized: f64,
}

impl NormalizedPerf {
    /// Normalizes against the baseline run of the same workload.
    #[must_use]
    pub fn normalize(mut self, baseline: &NormalizedPerf) -> Self {
        self.normalized = baseline.duration_ps as f64 / self.duration_ps as f64;
        self
    }
}

/// What one core did over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreOutcome {
    /// Completion time of the core's last serviced request (0 if it never
    /// issued).
    pub finish_ps: u64,
    /// Requests the channel serviced for this core.
    pub requests: u64,
}

/// The one result shape every [`Sim`] run returns.
///
/// Every frontend (synthetic workload, trace, arbitrary sources, with or
/// without an observer) returns this shape: the aggregate perf, the
/// per-core breakdown, the energy bill, and — when
/// [`Sim::capture_events`] is set — the executed command stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The aggregate result: duration, controller statistics (command
    /// counts live in [`SimResult`]) and the normalization slot.
    pub perf: NormalizedPerf,
    /// One outcome per request source, in source order.
    pub cores: Vec<CoreOutcome>,
    /// Energy breakdown of the run ([`EnergyModel::ddr5_default`];
    /// mitigation-hardware static draw included for every scheme except
    /// `Baseline`).
    pub energy: EnergyReport,
    /// The executed device commands, in service order — empty unless
    /// [`Sim::capture_events`] was requested (the log is off by default,
    /// so perf sweeps pay nothing for it).
    pub events: Vec<MemEvent>,
    /// The per-layer metrics report — `None` unless [`Sim::telemetry`]
    /// was requested (every hook is a dead branch by default, so
    /// non-telemetry runs stay bit-identical).
    pub telemetry: Option<TelemetryReport>,
}

/// The outcome of [`Session::run_until`] / [`Session::resume_until`]:
/// either the run completed before reaching the stop point, or it paused
/// into a restorable [`Checkpoint`].
#[derive(Debug, Clone, PartialEq)]
pub enum SessionRun {
    /// Every source ran dry (or hit its budget) before the stop point;
    /// the report is identical to what [`Session::run`] would return.
    Finished(RunReport),
    /// The run paused at the stop point. Feed the checkpoint to
    /// [`Session::resume`] on an identically built session — in this
    /// process or, via [`Checkpoint::to_bytes`], a fresh one — to
    /// continue it bit-identically.
    Paused(Checkpoint),
}

/// The retained-oracle pause refusal (see [`Session::run_until`]).
const REFERENCE_PAUSE_ERR: &str = "the reference admission oracle has no pause point; \
     disable set_reference_admission_default for checkpoint/restore";

/// The frontend half of a scenario: where requests come from.
enum Frontend<'a> {
    /// Not configured yet — [`Sim::build`] rejects this.
    Unset,
    /// One synthetic [`CoreStream`] per core, each capped at a request
    /// budget.
    Workload {
        specs: Vec<WorkloadSpec>,
        requests_per_core: u32,
    },
    /// A shared text trace dealt round-robin across the cores and run dry.
    Trace { entries: Vec<TraceEntry> },
    /// Arbitrary caller-built sources (attackers, co-runs), optionally
    /// budget-capped per core via [`Sim::per_core_budget`].
    Sources(Vec<Box<dyn RequestSource + 'a>>),
}

/// Builder for one simulation scenario: system config, scheme, scheduler,
/// mapping, frontend, observer and seed — every knob with the production
/// default, chainable in any order. See the [module docs](self) for an
/// end-to-end example.
pub struct Sim<'a> {
    cfg: SystemConfig,
    scheme: MitigationScheme,
    policy: SchedulePolicy,
    mapping: AddressMapping,
    seed: u64,
    frontend: Frontend<'a>,
    source_budget: Option<u32>,
    observer: Option<&'a mut dyn ChannelObserver>,
    capture_events: bool,
    telemetry: bool,
}

impl Sim<'_> {
    /// A scenario on `cfg` with the production defaults: `Baseline`
    /// scheme, FR-FCFS scheduling, row-interleaved mapping, seed 0, no
    /// frontend yet.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        Self {
            cfg,
            scheme: MitigationScheme::Baseline,
            policy: SchedulePolicy::default(),
            mapping: AddressMapping::default(),
            seed: 0,
            frontend: Frontend::Unset,
            source_budget: None,
            observer: None,
            capture_events: false,
            telemetry: false,
        }
    }

    /// A scenario on the evaluated DDR5 system ([`SystemConfig::table6`]).
    #[must_use]
    pub fn ddr5() -> Self {
        Self::new(SystemConfig::table6())
    }
}

impl<'a> Sim<'a> {
    /// Sets the mitigation scheme under evaluation (default `Baseline`).
    #[must_use]
    pub fn scheme(mut self, scheme: MitigationScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Sets the channel arbitration policy (default FR-FCFS).
    #[must_use]
    pub fn policy(mut self, policy: SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the physical-address mapping (default `RoBaRaCoCh`).
    #[must_use]
    pub fn mapping(mut self, mapping: AddressMapping) -> Self {
        self.mapping = mapping;
        self
    }

    /// Sets the master seed (default 0). Per-core streams and the channel
    /// derive independent substreams from it.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Frontend: one synthetic [`CoreStream`] per core (one spec per
    /// core), each running `requests_per_core` LLC misses. Core `i`
    /// streams with substream `derive_seed(seed, i)`.
    #[must_use]
    pub fn workload(mut self, specs: &[WorkloadSpec], requests_per_core: u32) -> Self {
        self.frontend = Frontend::Workload {
            specs: specs.to_vec(),
            requests_per_core,
        };
        self
    }

    /// Frontend: replay `entries` dealt round-robin across the configured
    /// cores ([`TraceSource::split`]) and run to exhaustion.
    #[must_use]
    pub fn trace(mut self, entries: &[TraceEntry]) -> Self {
        self.frontend = Frontend::Trace {
            entries: entries.to_vec(),
        };
        self
    }

    /// Frontend: arbitrary request sources, one per core, any count — the
    /// entry point for attacker/victim co-runs. Sources run dry unless
    /// [`per_core_budget`](Sim::per_core_budget) caps them.
    #[must_use]
    pub fn sources(mut self, sources: Vec<Box<dyn RequestSource + 'a>>) -> Self {
        self.frontend = Frontend::Sources(sources);
        self
    }

    /// Caps each source of a [`sources`](Sim::sources) frontend at
    /// `budget` requests (`None` = run every source dry; at least one
    /// source must be finite then). Chainable before or after
    /// [`sources`](Sim::sources); ignored by the workload/trace
    /// frontends, which own their budgets.
    #[must_use]
    pub fn per_core_budget(mut self, budget: Option<u32>) -> Self {
        self.source_budget = budget;
        self
    }

    /// Feeds every executed device command to `observer` in service
    /// order — the ground-truth tap security oracles ride.
    #[must_use]
    pub fn observer(mut self, observer: &'a mut dyn ChannelObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Collects the executed command events into
    /// [`RunReport::events`] (off by default; the event log costs memory
    /// proportional to the run).
    #[must_use]
    pub fn capture_events(mut self) -> Self {
        self.capture_events = true;
        self
    }

    /// Turns on the observability subsystem: counters, histograms and
    /// sim-time sampling across every layer, collected into
    /// [`RunReport::telemetry`] (off by default). Sampling is driven by
    /// simulated picoseconds only, so telemetry never perturbs a run —
    /// the rest of the report stays byte-identical.
    #[must_use]
    pub fn telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Resolves the frontend into per-core sources and returns the
    /// runnable [`Session`].
    ///
    /// # Panics
    ///
    /// Panics if no frontend was configured, if a workload frontend has
    /// `specs.len() != cfg.cores` or `requests_per_core == 0`, or if a
    /// sources frontend is empty.
    #[must_use]
    pub fn build(self) -> Session<'a> {
        let (sources, budget): (Vec<Box<dyn RequestSource + 'a>>, Option<u32>) = match self.frontend
        {
            Frontend::Unset => {
                panic!("no request source configured — call .workload(), .trace() or .sources()")
            }
            Frontend::Workload {
                specs,
                requests_per_core,
            } => {
                assert_eq!(
                    specs.len(),
                    self.cfg.cores as usize,
                    "one workload spec per core"
                );
                assert!(requests_per_core > 0, "need at least one request per core");
                let decoder = AddressDecoder::new(&self.cfg, self.mapping);
                let sources = specs
                    .iter()
                    .enumerate()
                    .map(|(i, spec)| {
                        Box::new(CoreStream::new(
                            *spec,
                            decoder,
                            spec.think_time_ps(&self.cfg),
                            derive_seed(self.seed, i as u64),
                        )) as Box<dyn RequestSource>
                    })
                    .collect();
                (sources, Some(requests_per_core))
            }
            Frontend::Trace { entries } => {
                let sources =
                    TraceSource::split(&entries, self.cfg.cores, self.cfg.core_cycle_ps())
                        .into_iter()
                        .map(|s| Box::new(s) as Box<dyn RequestSource>)
                        .collect();
                (sources, None)
            }
            Frontend::Sources(sources) => {
                assert!(!sources.is_empty(), "need at least one request source");
                (sources, self.source_budget)
            }
        };
        Session {
            cfg: self.cfg,
            scheme: self.scheme,
            policy: self.policy,
            mapping: self.mapping,
            seed: self.seed,
            sources,
            budget,
            observer: self.observer,
            capture_events: self.capture_events,
            telemetry: self.telemetry,
        }
    }

    /// [`build`](Sim::build) + [`Session::run`] in one call.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`build`](Sim::build).
    #[must_use]
    pub fn run(self) -> RunReport {
        self.build().run()
    }
}

/// One core's frontend state while a [`Session`] runs.
struct CoreCtx<'a> {
    source: Box<dyn RequestSource + 'a>,
    /// Next request and its issue time, once the core is ready to send it.
    pending: Option<(Request, u64)>,
    /// Prefilled upcoming requests ([`RequestSource::refill`]); drained
    /// before the source is asked again.
    ring: VecDeque<Request>,
    /// Prefill the ring instead of pulling one request per fetch (off in
    /// reference-generation mode).
    batch: bool,
    /// Routed channel of the pending request (cached at fetch so the
    /// admission loop never decodes an address twice).
    route: usize,
    /// When the core front-end can work on its next request.
    ready_at: u64,
    /// Requests still allowed (None = until the source runs dry).
    remaining: Option<u32>,
    /// Completion time of the core's last serviced request.
    finish: u64,
    /// Requests the channel serviced for this core.
    serviced: u64,
}

impl CoreCtx<'_> {
    /// Pulls the next request out of the source (respecting the budget)
    /// and stamps its issue time.
    ///
    /// The batched path drains the prefilled ring first and refills it
    /// with the core's *current* ready time when empty — sources whose
    /// request content depends on that time refill one request per call
    /// by contract, so batching never feeds them a stale clock.
    fn fetch(&mut self) {
        debug_assert!(self.pending.is_none());
        match &mut self.remaining {
            Some(0) => return,
            Some(n) => *n -= 1,
            None => {}
        }
        let req = if self.batch {
            match self.ring.pop_front() {
                Some(req) => Some(req),
                None => {
                    self.source.refill(self.ready_at, GEN_BATCH, &mut self.ring);
                    self.ring.pop_front()
                }
            }
        } else {
            self.source.next_request_at(self.ready_at)
        };
        if let Some(req) = req {
            let issue = self.ready_at + req.think_time_ps;
            self.pending = Some((req, issue));
        }
    }
}

/// One service step of the optimized run loops: serve the earliest-ready
/// channel, forward its drained events, credit the owning core (MLP
/// stall model) and fetch that core's next request. Returns the serviced
/// core's index, or `None` when every channel is empty (run over).
#[allow(clippy::too_many_arguments)]
fn service_step(
    system: &mut System,
    cores: &mut [CoreCtx],
    mlp: u64,
    mlp_shift: Option<u32>,
    observer: &mut Option<&mut dyn ChannelObserver>,
    capture_events: bool,
    events: &mut Vec<MemEvent>,
    stel: &mut Option<Box<SessionTelemetry>>,
) -> Option<usize> {
    let ch = system.earliest_ready()?;
    let c = system
        .service_channel(ch)
        .expect("earliest-ready channel is non-empty");
    if observer.is_some() || capture_events {
        for e in system.drain_events_global(ch) {
            if let Some(obs) = observer.as_deref_mut() {
                obs.on_event(&e);
            }
            if capture_events {
                events.push(e);
            }
        }
    }
    let idx = c.core as usize;
    let core = &mut cores[idx];
    // Blocking-miss core with an MLP overlap factor: the core absorbs
    // 1/MLP of the memory stall.
    let stall = match mlp_shift {
        Some(s) => (c.completion_ps - c.arrival_ps) >> s,
        None => (c.completion_ps - c.arrival_ps) / mlp,
    };
    core.ready_at = c.arrival_ps + stall;
    core.finish = core.finish.max(c.completion_ps);
    core.serviced += 1;
    core.fetch();
    if let Some(t) = stel.as_deref_mut() {
        t.note_service(c.completion_ps);
        if core.pending.is_some() {
            t.generated += 1;
        }
    }
    Some(idx)
}

/// A fully resolved scenario, ready to run: built by [`Sim::build`],
/// consumed by [`Session::run`].
pub struct Session<'a> {
    cfg: SystemConfig,
    scheme: MitigationScheme,
    policy: SchedulePolicy,
    mapping: AddressMapping,
    seed: u64,
    sources: Vec<Box<dyn RequestSource + 'a>>,
    budget: Option<u32>,
    observer: Option<&'a mut dyn ChannelObserver>,
    capture_events: bool,
    telemetry: bool,
}

impl Session<'_> {
    /// Drives every source through a fresh [`System`] until all are
    /// exhausted (or have issued their budget) and returns the unified
    /// [`RunReport`].
    ///
    /// Admission and service interleave deterministically at the system
    /// level: each pending request routes to its channel by decoded
    /// address, the earliest issuable request whose routed channel can
    /// admit it (room in the queue, issue no later than that channel's
    /// next scheduling decision — so every channel's scheduler arbitrates
    /// over all of its arrived traffic) is admitted first, and otherwise
    /// the earliest-ready channel serves (ties to the lowest channel
    /// index). With one channel this is exactly the legacy single-channel
    /// loop. Drained command events go to the observer (and the report,
    /// when captured) after every scheduling decision, in service order
    /// with system-global bank indices — bit-deterministic regardless of
    /// how a surrounding sweep is parallelised.
    #[must_use]
    pub fn run(mut self) -> RunReport {
        if !REFERENCE_ADMISSION_DEFAULT.load(Ordering::SeqCst) {
            return match self.drive(None, None) {
                Ok(SessionRun::Finished(report)) => report,
                Ok(SessionRun::Paused(_)) | Err(_) => {
                    unreachable!("a run with no stop point neither pauses nor fails")
                }
            };
        }
        let mut system = System::new(self.cfg, self.scheme, self.policy, self.mapping, self.seed);
        let single_channel = system.channel_count() == 1;
        let observe = self.observer.is_some() || self.capture_events;
        if observe {
            system.enable_event_log();
        }
        // Captured runs produce one event per executed command; reserve a
        // chunk up front so the early doublings never land in the hot loop.
        let mut events = Vec::with_capacity(if self.capture_events { 4096 } else { 0 });
        let mlp = u64::from(self.cfg.core_mlp).max(1);
        // The common MLP values are powers of two; divide by shift then
        // (the stall division runs once per serviced request).
        let mlp_shift = if mlp.is_power_of_two() {
            Some(mlp.trailing_zeros())
        } else {
            None
        };
        let batch = !REFERENCE_GENERATION_DEFAULT.load(Ordering::SeqCst);
        let mut cores: Vec<CoreCtx> = self
            .sources
            .into_iter()
            .map(|source| {
                let mut c = CoreCtx {
                    source,
                    pending: None,
                    ring: VecDeque::new(),
                    batch,
                    route: 0,
                    ready_at: 0,
                    remaining: self.budget,
                    finish: 0,
                    serviced: 0,
                };
                c.fetch();
                c
            })
            .collect();

        {
            // The retained sorted-vec admission reference (differential
            // oracle): re-collect and re-sort every pending arrival per
            // decision, route at admission time, scan every channel for
            // the next service. Kept verbatim from before the
            // incremental arrival set. Checkpointing lives only on the
            // optimized loops ([`Session::run_until`]); this oracle has
            // no pause point.
            let mut arrivals: Vec<(u64, usize)> = Vec::with_capacity(cores.len());
            loop {
                arrivals.clear();
                for (i, c) in cores.iter().enumerate() {
                    if let Some(&(_, issue)) = c.pending.as_ref() {
                        arrivals.push((issue, i));
                    }
                }
                arrivals.sort_unstable();
                // Admit the earliest issuable request whose routed channel
                // can take it — each channel's scheduler must see all of its
                // arrived traffic before committing a command. (A blocked
                // channel is never empty, so the service arm below always
                // makes progress towards unblocking it.)
                let mut admitted = None;
                for &(issue, i) in &arrivals {
                    let ch = if single_channel {
                        0
                    } else {
                        let &(req, _) = cores[i].pending.as_ref().expect("pending checked");
                        system.route(req.addr)
                    };
                    if system.admissible_uncached(ch, issue) {
                        admitted = Some((i, ch));
                        break;
                    }
                }
                if let Some((i, ch)) = admitted {
                    let (req, issue) = cores[i].pending.take().expect("pending checked");
                    system.push_to(ch, req, i as u32, issue);
                    continue;
                }
                let Some(ch) = system.earliest_ready_uncached() else {
                    break;
                };
                let c = system
                    .service_channel(ch)
                    .expect("earliest-ready channel is non-empty");
                if observe {
                    for e in system.drain_events_global(ch) {
                        if let Some(obs) = self.observer.as_deref_mut() {
                            obs.on_event(&e);
                        }
                        if self.capture_events {
                            events.push(e);
                        }
                    }
                }
                let core = &mut cores[c.core as usize];
                // Blocking-miss core with an MLP overlap factor: the core
                // absorbs 1/MLP of the memory stall.
                let stall = match mlp_shift {
                    Some(s) => (c.completion_ps - c.arrival_ps) >> s,
                    None => (c.completion_ps - c.arrival_ps) / mlp,
                };
                core.ready_at = c.arrival_ps + stall;
                core.finish = core.finish.max(c.completion_ps);
                core.serviced += 1;
                core.fetch();
            }
        }

        // The retained oracle exists only to cross-check admission order;
        // it carries no telemetry hooks, so no report is collected here.
        finish_report(self.scheme, system, &cores, events, None)
    }

    /// Runs until `stop_after` requests have been serviced system-wide,
    /// then pauses into a [`Checkpoint`] — or finishes normally if the
    /// run completes first.
    ///
    /// The pause point is deterministic: the checkpoint captures the
    /// exact dynamic state after the `stop_after`-th service decision —
    /// scheduler slab and planner caches, bank and tracker state, timing
    /// rings, RNG stream positions, per-core frontends and the events
    /// captured so far — so `run_until(k)` followed by
    /// [`Session::resume`] on an identically built session reproduces
    /// [`Session::run`] bit for bit, reports, event streams and energy
    /// included (pinned by `tests/checkpoint_identity.rs`). `k = 0`
    /// pauses before the first service decision.
    ///
    /// # Errors
    ///
    /// Returns an error if the reference admission oracle is active (its
    /// retained loop has no pause point) or if any request source does
    /// not support snapshotting ([`RequestSource::snapshot_state`]
    /// returns `None`).
    pub fn run_until(self, stop_after: u64) -> Result<SessionRun, String> {
        if REFERENCE_ADMISSION_DEFAULT.load(Ordering::SeqCst) {
            return Err(REFERENCE_PAUSE_ERR.to_string());
        }
        self.drive(None, Some(stop_after))
    }

    /// Continues a paused run from `checkpoint` to completion.
    ///
    /// The session must be built with the *same* builder state (config,
    /// scheme, policy, mapping, seed and frontend shape) as the run that
    /// produced the checkpoint — the checkpoint carries only dynamic
    /// state, and restore validates structure (channel, rank, bank and
    /// core counts, index bounds), not provenance.
    ///
    /// # Errors
    ///
    /// Returns an error on a malformed or structurally incompatible
    /// checkpoint, if a request source does not support restore, or if
    /// the reference admission oracle is active.
    pub fn resume(self, checkpoint: &Checkpoint) -> Result<RunReport, String> {
        if REFERENCE_ADMISSION_DEFAULT.load(Ordering::SeqCst) {
            return Err(REFERENCE_PAUSE_ERR.to_string());
        }
        match self.drive(Some(checkpoint), None)? {
            SessionRun::Finished(report) => Ok(report),
            SessionRun::Paused(_) => unreachable!("no stop point requested"),
        }
    }

    /// [`resume`](Session::resume) with another pause point: continues
    /// from `checkpoint` and pauses again once `stop_after` total
    /// requests — counting those serviced before the checkpoint — have
    /// been serviced.
    ///
    /// # Errors
    ///
    /// Fails under the same conditions as [`Session::resume`].
    pub fn resume_until(
        self,
        checkpoint: &Checkpoint,
        stop_after: u64,
    ) -> Result<SessionRun, String> {
        if REFERENCE_ADMISSION_DEFAULT.load(Ordering::SeqCst) {
            return Err(REFERENCE_PAUSE_ERR.to_string());
        }
        self.drive(Some(checkpoint), Some(stop_after))
    }

    /// The shared engine behind the optimized entry points: starts fresh
    /// or from a checkpoint, runs the incremental admission loop, and
    /// optionally pauses once `stop_after` requests have been serviced.
    ///
    /// The pause check sits at the loop top — right after a service
    /// decision's fetch and arrival push — where the loop invariant
    /// holds: the arrival heap/set contains `(issue, core)` exactly for
    /// the cores with a pending request. That is what lets resume
    /// rebuild the arrivals from the restored pendings instead of
    /// serializing the heap.
    fn drive(
        mut self,
        resume: Option<&Checkpoint>,
        stop_after: Option<u64>,
    ) -> Result<SessionRun, String> {
        let mut system = System::new(self.cfg, self.scheme, self.policy, self.mapping, self.seed);
        let single_channel = system.channel_count() == 1;
        let observe = self.observer.is_some() || self.capture_events;
        if observe {
            system.enable_event_log();
        }
        // Telemetry goes live before any restore so a telemetry-on
        // checkpoint finds its per-layer words expected everywhere.
        if self.telemetry {
            system.enable_telemetry();
        }
        let mut stel: Option<Box<SessionTelemetry>> = self
            .telemetry
            .then(|| Box::new(SessionTelemetry::new(self.cfg.t_refi_ps)));
        // Captured runs produce one event per executed command; reserve a
        // chunk up front so the early doublings never land in the hot loop.
        let mut events = Vec::with_capacity(if self.capture_events { 4096 } else { 0 });
        let mlp = u64::from(self.cfg.core_mlp).max(1);
        // The common MLP values are powers of two; divide by shift then
        // (the stall division runs once per serviced request).
        let mlp_shift = if mlp.is_power_of_two() {
            Some(mlp.trailing_zeros())
        } else {
            None
        };
        let batch = !REFERENCE_GENERATION_DEFAULT.load(Ordering::SeqCst);
        let mut cores: Vec<CoreCtx> = self
            .sources
            .into_iter()
            .map(|source| CoreCtx {
                source,
                pending: None,
                ring: VecDeque::new(),
                batch,
                route: 0,
                ready_at: 0,
                remaining: self.budget,
                finish: 0,
                serviced: 0,
            })
            .collect();
        if let Some(checkpoint) = resume {
            // Construction-time RNG draws are immaterial: restore
            // overwrites every stream position, pending request and
            // counter with the checkpointed state. The initial fetch is
            // skipped — the paused run already performed it.
            restore_session(checkpoint, &mut system, &mut cores, &mut events, &mut stel)?;
        } else {
            for c in &mut cores {
                c.fetch();
                if let Some(t) = stel.as_deref_mut() {
                    if c.pending.is_some() {
                        t.generated += 1;
                    }
                }
            }
        }
        let mut serviced_total: u64 = cores.iter().map(|c| c.serviced).sum();

        if single_channel {
            // Incremental single-channel admission: admissibility is
            // monotone in the issue time (a full queue or a too-late
            // arrival stays inadmissible for every later arrival), so
            // only the *minimum* pending `(issue, core)` key can ever be
            // admitted — a binary min-heap (contiguous, no tree nodes)
            // beats an ordered set here, and peek is free. The heap pops
            // exactly the key the reference's sorted scan would admit,
            // so the admit order is identical step for step.
            let mut arrivals: BinaryHeap<Reverse<(u64, usize)>> =
                BinaryHeap::with_capacity(cores.len());
            for (i, c) in cores.iter().enumerate() {
                if let Some(&(_, issue)) = c.pending.as_ref() {
                    arrivals.push(Reverse((issue, i)));
                }
            }
            loop {
                if stop_after.is_some_and(|k| serviced_total >= k) {
                    let ckpt = snapshot_session(&system, &cores, &events, &stel)?;
                    return Ok(SessionRun::Paused(ckpt));
                }
                if let Some(&Reverse((issue, i))) = arrivals.peek() {
                    if system.admissible(0, issue) {
                        arrivals.pop();
                        let (req, _) = cores[i].pending.take().expect("pending checked");
                        if let Some(t) = stel.as_deref_mut() {
                            t.admitted += 1;
                            t.ring_depth.record(cores[i].ring.len() as u64);
                        }
                        system.push_to(0, req, i as u32, issue);
                        continue;
                    }
                }
                let Some(idx) = service_step(
                    &mut system,
                    &mut cores,
                    mlp,
                    mlp_shift,
                    &mut self.observer,
                    self.capture_events,
                    &mut events,
                    &mut stel,
                ) else {
                    break;
                };
                serviced_total += 1;
                if let Some(&(_, issue)) = cores[idx].pending.as_ref() {
                    arrivals.push(Reverse((issue, idx)));
                }
            }
        } else {
            // Incremental multi-channel admission: pending arrivals live
            // in an ordered `(issue, core)` set mutated only when a core
            // fetches or is admitted — O(log cores) per admit instead of
            // a full re-sort per decision — with each pending request's
            // routed channel cached at fetch time. A blocked channel
            // must not starve another channel's admissible arrival, so
            // the scan walks the set in order; iteration order is
            // exactly the reference's sorted order, so the admitted
            // request is identical step for step.
            let mut arrivals: BTreeSet<(u64, usize)> = BTreeSet::new();
            for (i, c) in cores.iter_mut().enumerate() {
                if let Some(&(req, issue)) = c.pending.as_ref() {
                    c.route = system.route(req.addr);
                    arrivals.insert((issue, i));
                }
            }
            loop {
                if stop_after.is_some_and(|k| serviced_total >= k) {
                    let ckpt = snapshot_session(&system, &cores, &events, &stel)?;
                    return Ok(SessionRun::Paused(ckpt));
                }
                let mut admitted = None;
                for &(issue, i) in &arrivals {
                    let ch = cores[i].route;
                    if system.admissible(ch, issue) {
                        admitted = Some((issue, i, ch));
                        break;
                    }
                }
                if let Some((issue, i, ch)) = admitted {
                    arrivals.remove(&(issue, i));
                    let (req, _) = cores[i].pending.take().expect("pending checked");
                    if let Some(t) = stel.as_deref_mut() {
                        t.admitted += 1;
                        t.ring_depth.record(cores[i].ring.len() as u64);
                    }
                    system.push_to(ch, req, i as u32, issue);
                    continue;
                }
                let Some(idx) = service_step(
                    &mut system,
                    &mut cores,
                    mlp,
                    mlp_shift,
                    &mut self.observer,
                    self.capture_events,
                    &mut events,
                    &mut stel,
                ) else {
                    break;
                };
                serviced_total += 1;
                if let Some(&(req, issue)) = cores[idx].pending.as_ref() {
                    cores[idx].route = system.route(req.addr);
                    arrivals.insert((issue, idx));
                }
            }
        }

        Ok(SessionRun::Finished(finish_report(
            self.scheme,
            system,
            &cores,
            events,
            stel,
        )))
    }
}

/// Serializes the full dynamic state of a paused run — system, cores and
/// captured events — into a [`Checkpoint`]. Builder-derived state
/// (config, scheme, decoder, policy, observer) is *not* stored:
/// [`Session::resume`] must be handed an identically built session.
fn snapshot_session(
    system: &System,
    cores: &[CoreCtx],
    events: &[MemEvent],
    stel: &Option<Box<SessionTelemetry>>,
) -> Result<Checkpoint, String> {
    let mut w = SnapshotWriter::new();
    w.push(cores.len() as u64);
    // The generation mode shapes the rings (a ring prefilled under batch
    // mode would desync a non-batch resume), so the checkpoint pins it.
    w.push_bool(cores.first().is_some_and(|c| c.batch));
    system.snapshot_into(&mut w);
    for (i, c) in cores.iter().enumerate() {
        let source = c
            .source
            .snapshot_state()
            .ok_or_else(|| format!("request source {i} does not support checkpoint/restore"))?;
        w.push_words(&source);
        match c.pending.as_ref() {
            Some(&(req, issue)) => {
                w.push_bool(true);
                w.push(req.addr);
                w.push_bool(req.is_read);
                w.push(req.think_time_ps);
                w.push(issue);
            }
            None => w.push_bool(false),
        }
        w.push(c.ring.len() as u64);
        for req in &c.ring {
            w.push(req.addr);
            w.push_bool(req.is_read);
            w.push(req.think_time_ps);
        }
        w.push(c.ready_at);
        w.push_opt(c.remaining.map(u64::from));
        w.push(c.finish);
        w.push(c.serviced);
    }
    w.push(events.len() as u64);
    for e in events {
        for word in e.encode_words() {
            w.push(word);
        }
    }
    // Telemetry words ride behind the stable layout, and only when the
    // layer is enabled — a non-telemetry checkpoint is unchanged.
    if let Some(t) = stel {
        t.snapshot_into(&mut w);
    }
    Ok(w.into_checkpoint())
}

/// Rebuilds the dynamic state captured by [`snapshot_session`] into a
/// freshly constructed system and core set.
fn restore_session(
    checkpoint: &Checkpoint,
    system: &mut System,
    cores: &mut [CoreCtx],
    events: &mut Vec<MemEvent>,
    stel: &mut Option<Box<SessionTelemetry>>,
) -> Result<(), String> {
    let mut r = SnapshotReader::new(&checkpoint.words);
    let count = r.take()?;
    if count != cores.len() as u64 {
        return Err(format!(
            "session: checkpoint has {count} cores, this session has {}",
            cores.len()
        ));
    }
    let batch = r.take_bool()?;
    system.restore_from(&mut r)?;
    for c in cores.iter_mut() {
        c.batch = batch;
        c.source.restore_state(r.take_words()?)?;
        c.pending = if r.take_bool()? {
            let addr = r.take()?;
            let is_read = r.take_bool()?;
            let think_time_ps = r.take()?;
            let issue = r.take()?;
            Some((
                Request {
                    addr,
                    is_read,
                    think_time_ps,
                },
                issue,
            ))
        } else {
            None
        };
        let ring_len = r.take()?;
        c.ring.clear();
        for _ in 0..ring_len {
            let addr = r.take()?;
            let is_read = r.take_bool()?;
            let think_time_ps = r.take()?;
            c.ring.push_back(Request {
                addr,
                is_read,
                think_time_ps,
            });
        }
        c.ready_at = r.take()?;
        c.remaining = match r.take_opt()? {
            Some(n) => Some(
                u32::try_from(n)
                    .map_err(|_| format!("session: remaining budget {n} exceeds u32"))?,
            ),
            None => None,
        };
        c.finish = r.take()?;
        c.serviced = r.take()?;
    }
    let ev_len = r.take()?;
    events.clear();
    for _ in 0..ev_len {
        let words = [r.take()?, r.take()?, r.take()?, r.take()?];
        events.push(MemEvent::decode_words(words)?);
    }
    if let Some(t) = stel.as_deref_mut() {
        t.restore_from(&mut r)?;
    }
    r.finish()
}

/// Aggregates a completed run into its [`RunReport`] (shared by the
/// optimized and reference loops).
fn finish_report(
    scheme: MitigationScheme,
    mut system: System,
    cores: &[CoreCtx],
    events: Vec<MemEvent>,
    stel: Option<Box<SessionTelemetry>>,
) -> RunReport {
    let duration = cores.iter().map(|c| c.finish).max().unwrap_or(0);
    system.finish(duration);
    let result = system.result();
    let with_hw = !matches!(scheme, MitigationScheme::Baseline);
    // Collection runs after `finish` so trailing-refresh commands are in
    // the per-channel results the report summarizes.
    let telemetry = stel.map(|t| collect_report(&t, &system, duration));
    RunReport {
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
        energy: EnergyModel::ddr5_default().energy(&result, duration, with_hw),
        events,
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{parse_trace, spec_rate_workloads};

    fn rate4(spec: WorkloadSpec) -> Vec<WorkloadSpec> {
        vec![spec; 4]
    }

    fn run(scheme: MitigationScheme, spec: WorkloadSpec) -> NormalizedPerf {
        Sim::ddr5()
            .scheme(scheme)
            .workload(&rate4(spec), 30_000)
            .seed(11)
            .run()
            .perf
    }

    fn lbm() -> WorkloadSpec {
        spec_rate_workloads()
            .into_iter()
            .find(|w| w.name == "lbm")
            .unwrap()
    }

    #[test]
    fn mint_has_zero_slowdown() {
        let spec = lbm();
        let base = run(MitigationScheme::Baseline, spec);
        let mint = run(MitigationScheme::Mint, spec).normalize(&base);
        assert!(
            (mint.normalized - 1.0).abs() < 1e-9,
            "MINT normalized perf {}",
            mint.normalized
        );
        assert!(mint.result.mitigative_acts > 0);
    }

    #[test]
    fn rfm16_slowdown_is_small() {
        // With the per-REF RAA decrement, RFM16 only fires on banks that
        // exceed 16 ACTs per tREFI — slowdown stays within a few percent
        // even for the most memory-intensive workload (paper avg: 1.6%).
        let spec = lbm();
        let base = run(MitigationScheme::Baseline, spec);
        let rfm = run(MitigationScheme::MintRfm { rfm_th: 16 }, spec).normalize(&base);
        assert!(rfm.normalized <= 1.0);
        assert!(
            rfm.normalized > 0.90,
            "RFM16 slowdown should be a few percent, got {}",
            rfm.normalized
        );
    }

    #[test]
    fn rfm32_costs_less_than_rfm16() {
        let spec = lbm();
        let base = run(MitigationScheme::Baseline, spec);
        let rfm32 = run(MitigationScheme::MintRfm { rfm_th: 32 }, spec).normalize(&base);
        let rfm16 = run(MitigationScheme::MintRfm { rfm_th: 16 }, spec).normalize(&base);
        assert!(
            rfm32.normalized >= rfm16.normalized,
            "RFM32 {} vs RFM16 {}",
            rfm32.normalized,
            rfm16.normalized
        );
    }

    #[test]
    fn mc_para_is_worse_than_mint_rfm() {
        let spec = lbm();
        let base = run(MitigationScheme::Baseline, spec);
        let rfm16 = run(MitigationScheme::MintRfm { rfm_th: 16 }, spec).normalize(&base);
        let para = run(MitigationScheme::McPara { p: 1.0 / 64.0 }, spec).normalize(&base);
        assert!(
            para.normalized < rfm16.normalized - 0.005,
            "MC-PARA {} should clearly lose to MINT+RFM16 {}",
            para.normalized,
            rfm16.normalized
        );
    }

    #[test]
    fn compute_bound_workload_barely_notices() {
        let povray = spec_rate_workloads()
            .into_iter()
            .find(|w| w.name == "povray")
            .unwrap();
        let base = run(MitigationScheme::Baseline, povray);
        let para = run(MitigationScheme::McPara { p: 1.0 / 64.0 }, povray).normalize(&base);
        assert!(
            para.normalized > 0.97,
            "compute-bound slowdown should be tiny, got {}",
            para.normalized
        );
    }

    #[test]
    fn frfcfs_beats_fcfs_on_row_hit_rate() {
        // A high-locality workload keeps every core streaming inside one
        // row; whenever two cores collide on a bank, FCFS ping-pongs the
        // row buffer while FR-FCFS batches each stream's hits. The
        // scheduler must turn that into a strictly higher hit rate.
        let spec = lbm(); // 0.85 row-buffer locality
        let specs = rate4(spec);
        let run_policy = |policy| {
            Sim::ddr5()
                .policy(policy)
                .workload(&specs, 20_000)
                .seed(13)
                .run()
                .perf
        };
        let fcfs = run_policy(SchedulePolicy::Fcfs);
        let frfcfs = run_policy(SchedulePolicy::frfcfs());
        assert!(
            frfcfs.result.row_hit_rate() > fcfs.result.row_hit_rate(),
            "FR-FCFS {} must beat FCFS {}",
            frfcfs.result.row_hit_rate(),
            fcfs.result.row_hit_rate()
        );
    }

    #[test]
    fn determinism() {
        let spec = lbm();
        let a = run(MitigationScheme::Mint, spec);
        let b = run(MitigationScheme::Mint, spec);
        assert_eq!(a.duration_ps, b.duration_ps);
        assert_eq!(a.result, b.result);
    }

    #[test]
    fn trace_replay_is_deterministic_and_complete() {
        let text: String = (0..50)
            .map(|i| {
                format!(
                    "{} {} 0x{:x}\n",
                    i % 7,
                    if i % 3 == 0 { 'W' } else { 'R' },
                    i * 64
                )
            })
            .collect();
        let entries = parse_trace(&text).unwrap();
        let run = || {
            Sim::ddr5()
                .scheme(MitigationScheme::Mint)
                .trace(&entries)
                .seed(3)
                .run()
                .perf
        };
        let a = run();
        let b = run();
        assert_eq!(a.duration_ps, b.duration_ps);
        assert_eq!(a.result, b.result);
        assert_eq!(a.result.requests, 50, "every trace entry is serviced");
        assert_eq!(a.result.writes, 17);
    }

    #[test]
    fn report_carries_cores_energy_and_optional_events() {
        let spec = lbm();
        let plain = Sim::ddr5().workload(&rate4(spec), 500).seed(7).run();
        assert_eq!(plain.cores.len(), 4);
        assert_eq!(
            plain.cores.iter().map(|c| c.requests).sum::<u64>(),
            plain.perf.result.requests
        );
        assert!(plain.energy.total_j() > 0.0);
        assert!(plain.events.is_empty(), "event capture is off by default");

        let captured = Sim::ddr5()
            .workload(&rate4(spec), 500)
            .seed(7)
            .capture_events()
            .run();
        assert_eq!(
            captured.perf, plain.perf,
            "event capture must not perturb the run"
        );
        assert!(
            captured.events.len() as u64 >= captured.perf.result.demand_acts,
            "every demand ACT is an event"
        );
    }

    #[test]
    fn baseline_energy_excludes_mitigation_hw() {
        // Identical timelines (MINT rides REF time), but only MINT pays
        // the TRNG+DMQ static draw.
        let spec = lbm();
        let base = Sim::ddr5().workload(&rate4(spec), 2_000).seed(9).run();
        let mint = Sim::ddr5()
            .scheme(MitigationScheme::Mint)
            .workload(&rate4(spec), 2_000)
            .seed(9)
            .run();
        assert_eq!(base.perf.duration_ps, mint.perf.duration_ps);
        assert!(mint.energy.non_act_j > base.energy.non_act_j);
    }

    #[test]
    fn per_core_budget_chains_in_any_order() {
        // The builder is chainable in any order: a budget set before the
        // sources frontend must cap it all the same (a dropped budget on
        // all-infinite CoreStreams would hang the run).
        let cfg = SystemConfig::table6();
        let mk = || -> Vec<Box<dyn RequestSource>> {
            let decoder = crate::address::AddressDecoder::new(&cfg, AddressMapping::default());
            (0..2u64)
                .map(|i| {
                    Box::new(CoreStream::new(
                        lbm(),
                        decoder,
                        lbm().think_time_ps(&cfg),
                        derive_seed(3, i),
                    )) as Box<dyn RequestSource>
                })
                .collect()
        };
        let before = Sim::new(cfg)
            .per_core_budget(Some(200))
            .sources(mk())
            .seed(3)
            .run();
        let after = Sim::new(cfg)
            .sources(mk())
            .per_core_budget(Some(200))
            .seed(3)
            .run();
        assert_eq!(before, after);
        assert_eq!(before.perf.result.requests, 400);
    }

    #[test]
    #[should_panic(expected = "one workload spec per core")]
    fn wrong_core_count_rejected() {
        let _ = Sim::ddr5().workload(&[lbm()], 10).run();
    }

    #[test]
    #[should_panic(expected = "at least one request per core")]
    fn zero_requests_rejected() {
        let _ = Sim::ddr5().workload(&rate4(lbm()), 0).run();
    }

    #[test]
    #[should_panic(expected = "no request source configured")]
    fn missing_frontend_rejected() {
        let _ = Sim::ddr5().run();
    }

    #[test]
    #[should_panic(expected = "at least one request source")]
    fn empty_sources_rejected() {
        let _ = Sim::ddr5().sources(Vec::new()).run();
    }

    #[test]
    fn run_until_pauses_and_resume_matches_run() {
        // The exhaustive scheme x topology x split sweep lives in
        // tests/checkpoint_identity.rs; this pins the mechanism itself.
        let build = || Sim::ddr5().workload(&rate4(lbm()), 500).seed(7).build();
        let straight = build().run();
        let SessionRun::Paused(ckpt) = build().run_until(100).expect("pausable run") else {
            panic!("a mid-run stop point must pause");
        };
        let resumed = build().resume(&ckpt).expect("resume");
        assert_eq!(resumed, straight);
    }

    #[test]
    fn the_reference_admission_oracle_refuses_to_pause() {
        // (Concurrent tests in this binary may observe the flag while
        // it is set — they would take the reference path and produce
        // identical reports, so the brief flip is benign.)
        set_reference_admission_default(true);
        let refused = Sim::ddr5().workload(&rate4(lbm()), 10).build().run_until(5);
        set_reference_admission_default(false);
        assert!(refused.unwrap_err().contains("no pause point"));
    }
}

//! The channel scheduler: a bounded transaction queue drained by a
//! pluggable [`SchedulePolicy`] under the inter-bank timing constraints.
//!
//! A [`Channel`] is the command-level pipeline of the memory system:
//!
//! ```text
//! RequestSource ──► TransQueue ──► SchedulePolicy ──► TimingState ──► banks
//!   (frontend)       (bounded)     (FCFS/FR-FCFS)     (tRRD/tFAW/tCCD)  (engine)
//! ```
//!
//! Scheduling works in *decision steps*: among all queued transactions the
//! channel computes each one's earliest possible start (bank busy time,
//! REF windows, tRRD/tFAW for the ACT of a predicted miss, tCCD for the
//! CAS), then arbitrates among the transactions achieving the global
//! minimum. Because every step issues the earliest-startable transaction,
//! command times are monotone — which keeps the rolling timing windows
//! honest and the whole pipeline bit-deterministic for any worker count.
//!
//! The default planner makes one pass per decision. Every queued
//! transaction has a pure floor `max(arrival, bank_ready)`, a lower bound
//! on its earliest start; floor and bank sit beside the slot index in the
//! dense `active` list, and the clock is applied lazily as
//! `max(clock, floor)`. A pass seeds its running minimum with the smallest
//! floor, prices only the transactions whose floor does not exceed the
//! running minimum, and records the *achiever set*: the transactions whose
//! start equals the planned minimum. A service then touches only the
//! achievers (FR-FCFS starvation accounting) and the serviced bank's
//! transactions (new floor, stale start cache), and finds the next pass's
//! seed in the same dense loop. The scratch reference planner
//! ([`Channel::set_reference_planner`]) recomputes every start on every
//! decision and is kept as the differential-testing oracle.

use crate::address::{AddressDecoder, AddressMapping, DecodedAddr};
use crate::config::{MitigationScheme, SystemConfig};
use crate::controller::{past_ref_window, MemoryController, SimResult};
use crate::snapshot::{SnapshotReader, SnapshotWriter};
use crate::telemetry::SchedTelemetry;
use crate::timing::{InterBankTiming, TimingState};
use crate::workload::Request;
use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide default planner mode for newly created channels (see
/// [`set_reference_planner_default`]).
static REFERENCE_PLANNER_DEFAULT: AtomicBool = AtomicBool::new(false);

/// Makes every subsequently created [`Channel`] plan with the retained
/// scratch reference implementation instead of the incremental
/// start-cache planner (see [`Channel::set_reference_planner`]).
///
/// This is the equality-contract verification knob: `ci_smoke` re-runs
/// the `BENCH_perf.json` / `BENCH_security.json` cells under both
/// planners and asserts the rendered artifacts are byte-identical, so the
/// "refactor freely, prove equality" guarantee is checked in-tree on
/// every push, not just in review. Plain benchmarking and production
/// sweeps should leave this off.
pub fn set_reference_planner_default(on: bool) {
    REFERENCE_PLANNER_DEFAULT.store(on, Ordering::SeqCst);
}

/// How the channel arbitrates among simultaneously issuable transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// First-come-first-served: strictly oldest-first among issuable
    /// transactions (the scalar model this pipeline replaced serviced each
    /// bank in arrival order; FCFS is its channel-level equivalent).
    Fcfs,
    /// FR-FCFS: row-hit-first, then oldest-first, with a starvation cap —
    /// once an issuable transaction has been bypassed `starvation_cap`
    /// times by younger row hits it gains absolute priority.
    FrFcfs {
        /// Bypass budget before an old transaction is force-served.
        starvation_cap: u32,
    },
}

impl SchedulePolicy {
    /// The production default: FR-FCFS with a bypass budget of 4.
    #[must_use]
    pub fn frfcfs() -> Self {
        SchedulePolicy::FrFcfs { starvation_cap: 4 }
    }

    /// Short label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            SchedulePolicy::Fcfs => "FCFS".to_owned(),
            SchedulePolicy::FrFcfs { starvation_cap } => format!("FR-FCFS(cap{starvation_cap})"),
        }
    }

    /// Parses a policy from its [`label`](SchedulePolicy::label) form,
    /// case-insensitively — `"fcfs"`, `"fr-fcfs"` / `"frfcfs"` (the
    /// production cap), or `"fr-fcfs(capN)"` for an explicit starvation
    /// cap. The inverse of `label`, used by the declarative
    /// [`ScenarioSpec`](crate::ScenarioSpec) text format. Returns `None`
    /// for unknown policies.
    #[must_use]
    pub fn parse(s: &str) -> Option<SchedulePolicy> {
        let lower = s.trim().to_ascii_lowercase();
        match lower.as_str() {
            "fcfs" => return Some(SchedulePolicy::Fcfs),
            "fr-fcfs" | "frfcfs" => return Some(SchedulePolicy::frfcfs()),
            _ => {}
        }
        let cap = lower
            .strip_prefix("fr-fcfs(cap")
            .or_else(|| lower.strip_prefix("frfcfs(cap"))?
            .strip_suffix(')')?;
        cap.parse()
            .ok()
            .map(|starvation_cap| SchedulePolicy::FrFcfs { starvation_cap })
    }
}

impl Default for SchedulePolicy {
    fn default() -> Self {
        Self::frfcfs()
    }
}

/// One in-flight transaction of the bounded queue.
#[derive(Debug, Clone, Copy)]
struct Transaction {
    id: u64,
    core: u32,
    arrival_ps: u64,
    decoded: DecodedAddr,
    /// Channel-local bank index (`decoded.channel_bank(..)`, rank-major),
    /// resolved once at admission — the planner reads it per slot per
    /// decision.
    bank: u32,
    is_read: bool,
    /// Times an older issuable transaction was passed over for a younger
    /// row hit (FR-FCFS starvation accounting).
    bypassed: u32,
}

/// One slab slot of the transaction queue.
///
/// Slots are stable: a transaction keeps its index for its whole queue
/// residency, service frees the slot onto a free list in O(1), and FCFS
/// order lives in the age key `(arrival_ps, id)` rather than in storage
/// order. Each slot also carries the planner's start cache: the
/// transaction's last computed earliest start and CAS offset, plus a
/// `fresh` bit cleared whenever the slot's bank is serviced. The floor
/// and bank that every pass scans live in the channel's dense arrays
/// instead, so a pass reads a slot only when its floor makes it a
/// candidate.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// This slot's position in the channel's dense `active` list
    /// (maintained by push/service while queued).
    active_pos: u32,
    /// Bank inputs (ready time, open row) unchanged since `start_ps` was
    /// cached; the global clock/ACT/CAS/REF horizons are revalidated
    /// cheaply at plan time instead of being tracked eagerly.
    fresh: bool,
    /// Earliest start as last computed. Only [`PlanCtx::reusable`] may
    /// trust it; it is exact for the achievers of the cached plan.
    start_ps: u64,
    /// Cached CAS offset: 0 = predicted row hit, tRP + tRCD = miss.
    cas_off_ps: u64,
    tx: Transaction,
}

/// The two all-bank REF windows at/after the planning clock, hoisted out
/// of the per-transaction fixpoint so the hot loop replaces
/// [`past_ref_window`]'s division with two compares. Exact for any
/// `t >= clock`; times beyond the second window (or degenerate configs
/// with `tRFC >= tREFI`) fall back to the shared rule.
#[derive(Debug, Clone, Copy)]
struct RefWindows {
    /// Start/end of the REF window of the tREFI period containing the
    /// base time, and of the period after it.
    w0_start: u64,
    w0_end: u64,
    w1_start: u64,
    w1_end: u64,
    /// Whether the periodic fast path applies (`tRFC < tREFI`, so one
    /// push lands outside every window and the rule is idempotent).
    fast: bool,
}

impl RefWindows {
    fn at(cfg: &SystemConfig, base: u64) -> Self {
        let fast = cfg.t_rfc_ps < cfg.t_refi_ps;
        let w0_start = if fast { base - base % cfg.t_refi_ps } else { 0 };
        Self {
            w0_start,
            w0_end: w0_start + cfg.t_rfc_ps,
            w1_start: w0_start + cfg.t_refi_ps,
            w1_end: w0_start + cfg.t_refi_ps + cfg.t_rfc_ps,
            fast,
        }
    }

    /// Monotonically advances the pair until it contains `base`,
    /// stepping whole periods without dividing; long jumps (a channel
    /// idle for many tREFI) fall back to the division rebuild.
    fn advance_to(&mut self, cfg: &SystemConfig, base: u64) {
        debug_assert!(self.fast);
        let mut steps = 4u32;
        while base >= self.w1_start {
            if steps == 0 {
                *self = RefWindows::at(cfg, base);
                return;
            }
            steps -= 1;
            self.w0_start = self.w1_start;
            self.w0_end = self.w1_end;
            self.w1_start += cfg.t_refi_ps;
            self.w1_end += cfg.t_refi_ps;
        }
    }

    /// [`past_ref_window`] with the division amortised away.
    #[inline]
    fn adjust(&self, cfg: &SystemConfig, t: u64) -> u64 {
        if self.fast && t >= self.w0_start {
            if t < self.w0_end {
                return self.w0_end;
            }
            if t < self.w1_start {
                return t;
            }
            if t < self.w1_end {
                return self.w1_end;
            }
        }
        past_ref_window(cfg, t)
    }
}

/// Everything the per-slot earliest-start computation reads, borrowed
/// once per planning pass (disjoint from the slot slab, so the pass can
/// refresh slot caches while scanning).
struct PlanCtx<'a> {
    cfg: &'a SystemConfig,
    timing: &'a TimingState,
    /// Dense per-bank open rows (struct-of-arrays view of the engine).
    rows: &'a [u32],
    wins: RefWindows,
    /// No inter-bank constraint can delay a start at/after this time
    /// ([`TimingState::quiet_ps`]): one compare instead of the ACT/CAS
    /// checks for far-future starts.
    quiet_ps: u64,
}

impl PlanCtx<'_> {
    /// Whether a slot's cached start is provably still the scratch
    /// answer: bank inputs unchanged (`fresh`), the pure floor `base`
    /// (clock/arrival/bank-ready pushed past REF) still lands exactly on
    /// it, and the global ACT/CAS horizons do not move it. A cached start
    /// *above* the pure floor was shaped by a rolling horizon that has
    /// since advanced (possibly opening an earlier slot), so it is
    /// recomputed rather than trusted.
    #[inline]
    fn reusable(&self, slot: &Slot, base: u64) -> bool {
        if !slot.fresh || !self.wins.fast {
            return false;
        }
        if slot.start_ps != self.wins.adjust(self.cfg, base) {
            return false;
        }
        if slot.start_ps >= self.quiet_ps {
            return true;
        }
        let (rank, bg) = (slot.tx.decoded.rank, slot.tx.decoded.bank_group);
        (slot.cas_off_ps == 0 || slot.start_ps >= self.timing.earliest_act(rank, bg))
            && self.timing.cas_slot(slot.start_ps + slot.cas_off_ps, bg)
                == slot.start_ps + slot.cas_off_ps
    }

    /// Earliest feasible start of one transaction from current state:
    /// the same capped fixpoint as the scratch reference (bank busy time,
    /// REF windows, ACT spacing for a predicted miss, CAS slot), with the
    /// REF division hoisted into [`RefWindows`] and a one-compare exit
    /// for starts past every rolling horizon. Returns `(start, cas_off)`.
    #[inline]
    fn compute(&self, tx: &Transaction, base: u64) -> (u64, u64) {
        let predicted_hit = self.rows[tx.bank as usize] == tx.decoded.row;
        let cas_off = if predicted_hit {
            0
        } else {
            self.cfg.t_rp_ps + self.cfg.t_rcd_ps
        };
        let mut t = base;
        if self.wins.fast && t >= self.quiet_ps {
            // Past every ACT/CAS horizon; one REF push is already the
            // fixpoint (window ends never sit inside a window).
            return (self.wins.adjust(self.cfg, t), cas_off);
        }
        let (rank, bg) = (tx.decoded.rank, tx.decoded.bank_group);
        for _ in 0..4 {
            let prev = t;
            t = self.wins.adjust(self.cfg, t);
            if !predicted_hit {
                t = t.max(self.timing.earliest_act(rank, bg));
            }
            t = self.timing.cas_slot(t + cas_off, bg) - cas_off;
            if t == prev {
                break;
            }
        }
        (t, cas_off)
    }

    /// Leaves `slot` with an exact start for this pass — the cache
    /// revalidated, or recomputed from the pure floor `base` — and
    /// returns it.
    #[inline]
    fn refresh(&self, slot: &mut Slot, base: u64) -> u64 {
        if !self.reusable(slot, base) {
            let (s, off) = self.compute(&slot.tx, base);
            slot.start_ps = s;
            slot.cas_off_ps = off;
        }
        slot.fresh = true;
        slot.start_ps
    }
}

/// What the channel reports back to the frontend when a transaction
/// finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The core (request source) that issued the transaction.
    pub core: u32,
    /// When the transaction entered the queue.
    pub arrival_ps: u64,
    /// When the bank began executing it.
    pub start_ps: u64,
    /// When its data transfer completed.
    pub completion_ps: u64,
    /// Whether it hit the open row.
    pub row_hit: bool,
}

/// A single-channel, command-level DDR5 memory pipeline: bounded
/// transaction queue → schedule policy → inter-bank timing → per-bank
/// engine (with mitigation backends).
///
/// The queue is a slab of `Slot`s indexed by the dense `active` list,
/// whose `Live` entries also carry each transaction's floor and bank.
/// A planning pass and a service each walk that list once and read a
/// `Slot` only for a candidate, an achiever of the planned minimum, or a
/// transaction of the serviced bank.
#[derive(Debug)]
pub struct Channel {
    cfg: SystemConfig,
    policy: SchedulePolicy,
    engine: MemoryController,
    timing: TimingState,
    /// Stable-order transaction slab (see [`Slot`]); arbitration order is
    /// carried by age keys, never by storage position.
    slots: Vec<Slot>,
    /// Indices of vacated slots, reused before the slab grows.
    free: Vec<u32>,
    /// Dense, unordered list of the live transactions (see [`Live`]):
    /// every planner scan walks exactly these, however large the slab
    /// has historically grown. Service removes by swap (order is
    /// irrelevant — arbitration is key-based).
    active: Vec<Live>,
    /// Position in `active` of the first smallest floor: the slot a pass
    /// prices first, so its running minimum starts low and most floors
    /// skip. Kept by push and by the service's dense loop.
    seed_pos: u32,
    /// The slots whose start equals the cached plan's start (the pick
    /// among them): recorded by every pass and by push adoption, read by
    /// the next service for starvation accounting. Meaningful only while
    /// `plan_cache` is set.
    achievers: Vec<u32>,
    next_id: u64,
    /// Issue time of the most recent decision (command times are
    /// monotone).
    clock_ps: u64,
    /// The decision computed by the last [`plan`](Self::plan) call, kept
    /// until the queue or device state changes (every serviced request
    /// needs the plan twice — admission lookahead, then the decision
    /// itself — and the earliest-start scan is the scheduler's hot path).
    plan_cache: Option<Plan>,
    /// The two REF windows at/after the clock, rebuilt only when the
    /// clock crosses into the second period — so the planner's REF
    /// division runs once per tREFI of simulated time, not once per
    /// decision.
    wins: RefWindows,
    /// Full planning passes run so far (cache hits don't count).
    plans_computed: u64,
    /// Slots whose start a planning pass revalidated or recomputed — the
    /// planner's deterministic work count (a pass prices only the slots
    /// its floor test cannot rule out; the reference planner prices all).
    slots_examined: u64,
    /// Scheduler telemetry (decision counters, queue-depth/wait
    /// histograms); only fed when
    /// [`enable_telemetry`](Self::enable_telemetry) was called.
    telemetry: Option<Box<SchedTelemetry>>,
    /// Plan with the retained scratch reference implementation instead
    /// of the incremental planner (differential-testing oracle).
    reference: bool,
    /// Rebuild the REF-window pair by division on every period crossing
    /// instead of stepping it (mirrors the engine's refresh oracle, see
    /// [`set_reference_refresh_default`](crate::controller::set_reference_refresh_default)).
    reference_refresh: bool,
}

/// One entry of the channel's dense `active` list: a queued slot and the
/// two fields every pass and service scan, kept out of the slot so the
/// scans stay on contiguous memory.
#[derive(Debug, Clone, Copy)]
struct Live {
    /// The pure floor `max(arrival, bank_ready)`: a lower bound on the
    /// transaction's earliest start once the clock is applied. Set at
    /// push, recomputed when its bank is serviced.
    floor_ps: u64,
    /// The transaction's channel-local bank.
    bank: u32,
    /// Its slab index.
    slot: u32,
}

/// One computed scheduling decision: which slot and when. The other
/// transactions that could start then — which starvation accounting
/// needs — are the channel's `achievers`.
#[derive(Debug, Clone, Copy)]
struct Plan {
    slot: usize,
    start_ps: u64,
}

/// The arbitration fronts over one achiever set: the oldest achiever
/// overall, among predicted row hits, and among starved transactions
/// (FR-FCFS only).
#[derive(Debug, Default, Clone, Copy)]
struct Bests {
    all: Option<((u64, u64), usize)>,
    hit: Option<((u64, u64), usize)>,
    starved: Option<((u64, u64), usize)>,
}

impl Bests {
    /// Folds one achiever of the current minimum into the fronts.
    #[inline]
    fn consider(&mut self, policy: SchedulePolicy, slot: &Slot, i: usize) {
        let key = (slot.tx.arrival_ps, slot.tx.id);
        if self.all.map_or(true, |(k, _)| key < k) {
            self.all = Some((key, i));
        }
        if let SchedulePolicy::FrFcfs { starvation_cap } = policy {
            if slot.tx.bypassed >= starvation_cap {
                if self.starved.map_or(true, |(k, _)| key < k) {
                    self.starved = Some((key, i));
                }
            } else if slot.cas_off_ps == 0 && self.hit.map_or(true, |(k, _)| key < k) {
                self.hit = Some((key, i));
            }
        }
    }
}

impl Channel {
    /// Creates a channel for `scheme` with the given arbitration policy
    /// and address mapping.
    #[must_use]
    pub fn new(
        cfg: SystemConfig,
        scheme: MitigationScheme,
        policy: SchedulePolicy,
        mapping: AddressMapping,
        seed: u64,
    ) -> Self {
        Self {
            cfg,
            policy,
            engine: MemoryController::with_mapping(cfg, scheme, mapping, seed),
            timing: TimingState::with_ranks(InterBankTiming::from_system(&cfg), cfg.ranks),
            slots: Vec::with_capacity(cfg.queue_depth as usize),
            free: Vec::with_capacity(cfg.queue_depth as usize),
            active: Vec::with_capacity(cfg.queue_depth as usize),
            seed_pos: 0,
            achievers: Vec::new(),
            next_id: 0,
            clock_ps: 0,
            plan_cache: None,
            wins: RefWindows::at(&cfg, 0),
            plans_computed: 0,
            slots_examined: 0,
            telemetry: None,
            reference: REFERENCE_PLANNER_DEFAULT.load(Ordering::SeqCst),
            reference_refresh: crate::controller::reference_refresh_default(),
        }
    }

    /// Switches this channel between the incremental planner (the
    /// default) and the retained scratch reference implementation. Both
    /// produce bit-identical schedules; the reference path exists as the
    /// differential-testing oracle (see [`set_reference_planner_default`]
    /// for the process-wide knob).
    pub fn set_reference_planner(&mut self, on: bool) {
        self.reference = on;
        self.plan_cache = None;
        for s in &mut self.slots {
            s.fresh = false;
        }
    }

    /// Full planning passes run so far. Admission lookaheads answered
    /// from the plan cache and pushes that provably keep the plan don't
    /// count — the plan-cache tests pin that.
    #[must_use]
    pub fn plans_computed(&self) -> u64 {
        self.plans_computed
    }

    /// Slots whose earliest start a planning pass revalidated or
    /// recomputed, summed over every pass so far. Deterministic and
    /// host-independent: the planner's work count. An incremental pass
    /// skips every slot whose floor already exceeds the running minimum;
    /// the reference planner prices the whole queue.
    #[must_use]
    pub fn slots_examined(&self) -> u64 {
        self.slots_examined
    }

    /// The arbitration policy in force.
    #[must_use]
    pub fn policy(&self) -> SchedulePolicy {
        self.policy
    }

    /// The per-bank engine (stats, backends, decoder).
    #[must_use]
    pub fn engine(&self) -> &MemoryController {
        &self.engine
    }

    /// The decoder translating request addresses.
    #[must_use]
    pub fn decoder(&self) -> &AddressDecoder {
        self.engine.decoder()
    }

    /// The statistics accumulated so far.
    #[must_use]
    pub fn result(&self) -> SimResult {
        self.engine.result()
    }

    /// Turns on the per-bank engine's executed-command log (see
    /// [`MemoryController::enable_event_log`]); events accumulate in
    /// service order and are read back with
    /// [`drain_events`](Self::drain_events).
    pub fn enable_event_log(&mut self) {
        self.engine.enable_event_log();
    }

    /// Drains the executed-command events accumulated since the last
    /// drain (empty unless the log was enabled).
    pub fn drain_events(&mut self) -> std::vec::Drain<'_, crate::events::MemEvent> {
        self.engine.drain_events()
    }

    /// Turns on scheduler- and engine-side telemetry for this channel.
    /// Off by default — every hook site is a branch on a dead `Option`,
    /// so non-telemetry runs pay nothing and stay bit-identical.
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(Box::default());
        }
        self.engine.enable_telemetry();
    }

    /// The scheduler's telemetry state, when enabled.
    #[must_use]
    pub fn telemetry(&self) -> Option<&SchedTelemetry> {
        self.telemetry.as_deref()
    }

    /// Queued (not yet serviced) transactions.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.active.len()
    }

    /// Whether the bounded queue can accept another transaction.
    #[must_use]
    pub fn has_room(&self) -> bool {
        self.active.len() < self.cfg.queue_depth as usize
    }

    /// The REF windows for the current clock, rebuilt lazily on period
    /// crossings (`adjust` stays exact for any `t >= w0_start` via its
    /// fallback, so an aged pair is never wrong — only slower).
    #[inline]
    fn windows(&mut self) -> RefWindows {
        if self.wins.fast && self.clock_ps >= self.wins.w1_start {
            if self.reference_refresh {
                self.wins = RefWindows::at(&self.cfg, self.clock_ps);
            } else {
                self.wins.advance_to(&self.cfg, self.clock_ps);
            }
        }
        self.wins
    }

    /// Enqueues a request that arrived at `arrival_ps`.
    ///
    /// When a plan is cached, the push prices the newcomer against it.
    /// Strictly later: the newcomer can neither lower the minimum nor
    /// join (and win) the arbitration at it, so the plan survives — and
    /// the pure floor `max(clock, arrival, bank_ready)` (three reads)
    /// usually settles this without the exact fixpoint. Strictly
    /// earlier: every older transaction starts at/after the old planned
    /// start, so the newcomer is the *unique* new minimum and simply
    /// becomes the plan, with itself as the only achiever. Only an exact
    /// tie (which reopens arbitration) forces a replanning pass. Without
    /// a cached plan nothing is computed at all: the next pass prices
    /// every candidate anyway (and may skip this one entirely by its
    /// floor).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (callers gate on
    /// [`has_room`](Self::has_room)).
    pub fn push(&mut self, req: Request, core: u32, arrival_ps: u64) {
        assert!(self.has_room(), "transaction queue overflow");
        let decoded = self.engine.decoder().decode(req.addr);
        let tx = Transaction {
            id: self.next_id,
            core,
            arrival_ps,
            decoded,
            bank: decoded.channel_bank(self.engine.decoder().org()),
            is_read: req.is_read,
            bypassed: 0,
        };
        self.next_id += 1;
        let floor = arrival_ps.max(self.engine.bank_ready_ps(tx.bank));
        let base_ps = self.clock_ps.max(floor);
        let pos = self.active.len();
        let mut slot = Slot {
            active_pos: pos as u32,
            fresh: false,
            start_ps: 0,
            cas_off_ps: 0,
            tx,
        };
        // The newcomer's start when it beats the cached plan outright
        // (adopted as the new plan once the slot index is known).
        let mut adopt: Option<u64> = None;
        if self.reference {
            // The reference planner recomputes everything at plan time
            // and always replans after a push (the original behaviour).
            self.plan_cache = None;
        } else if let Some(p) = self.plan_cache {
            if base_ps <= p.start_ps {
                let wins = self.windows();
                let (start_ps, cas_off_ps) = {
                    let ctx = PlanCtx {
                        cfg: &self.cfg,
                        timing: &self.timing,
                        rows: self.engine.bank_tables().1,
                        wins,
                        quiet_ps: self.timing.quiet_ps(),
                    };
                    ctx.compute(&tx, base_ps)
                };
                slot.fresh = true;
                slot.start_ps = start_ps;
                slot.cas_off_ps = cas_off_ps;
                if start_ps < p.start_ps {
                    // Pushes mutate no device state, so every other
                    // slot's start still sits at/after the old minimum:
                    // the newcomer wins unopposed.
                    adopt = Some(start_ps);
                } else if start_ps == p.start_ps {
                    // An equal start could still win the row-hit
                    // arbitration: replan.
                    self.plan_cache = None;
                }
            }
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        if pos == 0 || floor < self.active[self.seed_pos as usize].floor_ps {
            self.seed_pos = pos as u32;
        }
        self.active.push(Live {
            floor_ps: floor,
            bank: tx.bank,
            slot: idx,
        });
        if let Some(start_ps) = adopt {
            self.plan_cache = Some(Plan {
                slot: idx as usize,
                start_ps,
            });
            self.achievers.clear();
            self.achievers.push(idx);
        }
    }

    /// The earliest time any queued transaction could start (`None` when
    /// the queue is empty). The frontend compares this against its next
    /// arrival to decide whether to admit more traffic before the next
    /// scheduling decision.
    #[must_use]
    pub fn next_start_ps(&mut self) -> Option<u64> {
        self.plan().map(|p| p.start_ps)
    }

    /// Earliest feasible start of one queued transaction, recomputed from
    /// scratch — the reference planner's rule: bank busy time, REF
    /// windows, ACT spacing (predicted miss) and CAS slot, iterated to a
    /// fixpoint (the constraints are monotone, so the loop converges in a
    /// couple of rounds; the cap only guards degenerate configs). Returns
    /// `(start, cas_off)`.
    fn earliest_start_scratch(&self, tx: &Transaction) -> (u64, u64) {
        let (rank, bg) = (tx.decoded.rank, tx.decoded.bank_group);
        let predicted_hit = self.engine.open_row(tx.bank) == Some(tx.decoded.row);
        let cas_offset = if predicted_hit {
            0
        } else {
            self.cfg.t_rp_ps + self.cfg.t_rcd_ps
        };
        let mut t = self
            .clock_ps
            .max(tx.arrival_ps)
            .max(self.engine.bank_ready_ps(tx.bank));
        for _ in 0..4 {
            let prev = t;
            t = past_ref_window(&self.cfg, t);
            if !predicted_hit {
                t = t.max(self.timing.earliest_act(rank, bg));
            }
            t = self.timing.cas_slot(t + cas_offset, bg) - cas_offset;
            if t == prev {
                break;
            }
        }
        (t, cas_offset)
    }

    /// The next scheduling decision, computed on demand and cached until
    /// the queue or device state changes (a service, or a push that could
    /// alter the decision).
    fn plan(&mut self) -> Option<Plan> {
        if self.plan_cache.is_none() {
            self.plan_cache = if self.reference {
                self.compute_plan_scratch()
            } else {
                self.compute_plan()
            };
        }
        self.plan_cache
    }

    /// Computes the next scheduling decision in one allocation-free pass
    /// over the dense `active` list. The pass seeds its running minimum by
    /// pricing the slot with the smallest floor, then skips every slot
    /// whose floor is already strictly above the running minimum
    /// (provably not a candidate: its start is at least its floor),
    /// revalidates or recomputes the rest, and collects the achievers of
    /// the minimum — restarting the set whenever the minimum drops — while
    /// folding the policy arbitration over them. Floors carry no clock;
    /// the running minimum never falls below the clock, so comparing the
    /// raw floor is the same test as comparing `max(clock, floor)`.
    fn compute_plan(&mut self) -> Option<Plan> {
        self.plans_computed += 1;
        if self.active.is_empty() {
            return None;
        }
        let wins = self.windows();
        let ctx = PlanCtx {
            cfg: &self.cfg,
            timing: &self.timing,
            rows: self.engine.bank_tables().1,
            wins,
            quiet_ps: self.timing.quiet_ps(),
        };
        let clock = self.clock_ps;
        let seed = self.seed_pos as usize;
        let Live {
            floor_ps: seed_floor,
            slot: seed_idx,
            ..
        } = self.active[seed];
        let mut t_min = ctx.refresh(&mut self.slots[seed_idx as usize], clock.max(seed_floor));
        self.achievers.clear();
        self.achievers.push(seed_idx);
        // Age keys `(arrival_ps, id)` are unique, so the achievers' order
        // never leaks into the decision. A starved transaction outranks
        // the hit set even when it is itself a hit, matching the
        // reference's starved-first precedence.
        let mut bests = Bests::default();
        bests.consider(
            self.policy,
            &self.slots[seed_idx as usize],
            seed_idx as usize,
        );
        let mut examined = 1u64;
        for (k, live) in self.active.iter().enumerate() {
            if live.floor_ps > t_min || k == seed {
                continue;
            }
            examined += 1;
            let i = live.slot;
            let slot = &mut self.slots[i as usize];
            let start = ctx.refresh(slot, clock.max(live.floor_ps));
            if start < t_min {
                t_min = start;
                self.achievers.clear();
                bests = Bests::default();
            }
            if start == t_min {
                self.achievers.push(i);
                bests.consider(self.policy, slot, i as usize);
            }
        }
        self.slots_examined += examined;
        let pick = match self.policy {
            SchedulePolicy::Fcfs => bests.all,
            SchedulePolicy::FrFcfs { .. } => bests.starved.or(bests.hit).or(bests.all),
        };
        pick.map(|(_, slot)| Plan {
            slot,
            start_ps: t_min,
        })
    }

    /// The retained scratch reference planner: recomputes every earliest
    /// start from scratch with the original allocating algorithm (start
    /// and candidate vectors, selection-time row-buffer probes). Kept as
    /// the differential-testing oracle for [`compute_plan`](Self::compute_plan)
    /// — the `sched_oracle` prop test and `ci_smoke`'s byte-equality leg
    /// pin the two paths to identical decisions. Also refreshes the slot
    /// caches and records its candidates as the achievers (starvation
    /// accounting reads them after any planner).
    fn compute_plan_scratch(&mut self) -> Option<Plan> {
        self.plans_computed += 1;
        self.slots_examined += self.active.len() as u64;
        let mut t_min = u64::MAX;
        for k in 0..self.active.len() {
            let i = self.active[k].slot as usize;
            let tx = self.slots[i].tx;
            let (s, off) = self.earliest_start_scratch(&tx);
            let slot = &mut self.slots[i];
            slot.start_ps = s;
            slot.cas_off_ps = off;
            slot.fresh = true;
            t_min = t_min.min(s);
        }
        if t_min == u64::MAX {
            return None;
        }
        // The issuable set: transactions achieving the earliest start.
        let candidates: Vec<usize> = self
            .active
            .iter()
            .map(|live| live.slot as usize)
            .filter(|&i| self.slots[i].start_ps == t_min)
            .collect();
        let age_key = |i: usize| (self.slots[i].tx.arrival_ps, self.slots[i].tx.id);
        let oldest_of = |set: &[usize]| set.iter().copied().min_by_key(|&i| age_key(i));
        let pick = match self.policy {
            SchedulePolicy::Fcfs => oldest_of(&candidates),
            SchedulePolicy::FrFcfs { starvation_cap } => {
                let starved: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&i| self.slots[i].tx.bypassed >= starvation_cap)
                    .collect();
                if let Some(s) = oldest_of(&starved) {
                    Some(s)
                } else {
                    let hits: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&i| {
                            let tx = &self.slots[i].tx;
                            self.engine.open_row(tx.bank) == Some(tx.decoded.row)
                        })
                        .collect();
                    oldest_of(&hits).or_else(|| oldest_of(&candidates))
                }
            }
        };
        self.achievers.clear();
        self.achievers.extend(candidates.iter().map(|&i| i as u32));
        pick.map(|slot| Plan {
            slot,
            start_ps: t_min,
        })
    }

    /// Performs one scheduling decision: selects a transaction per the
    /// policy, executes it on its bank, records the ACT/CAS in the
    /// inter-bank timing state and returns the completion. `None` when the
    /// queue is empty.
    pub fn service_next(&mut self) -> Option<Completion> {
        let Plan {
            slot: idx,
            start_ps: start,
        } = self.plan()?;
        self.plan_cache = None;
        let tx = self.slots[idx].tx;
        let pos = self.slots[idx].active_pos as usize;
        let picked_key = (tx.arrival_ps, tx.id);
        // Starvation accounting: every older achiever — a transaction
        // that could have started now but was passed over — loses one
        // unit of patience. Transactions that could not start now are
        // waiting on the device, not on the policy.
        let mut bypasses = 0u64;
        for &a in &self.achievers {
            let s = &mut self.slots[a as usize];
            if (s.tx.arrival_ps, s.tx.id) < picked_key {
                s.tx.bypassed += 1;
                bypasses += 1;
            }
        }
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.decisions += 1;
            t.bypass_increments += bypasses;
            t.queue_depth.record(self.active.len() as u64);
            t.wait_ps.record(start.saturating_sub(tx.arrival_ps));
            // Delay beyond the REF-adjusted per-bank floor: time the pick
            // lost to the shared CAS bus and the tRRD/tFAW ACT windows
            // (`adjust` is exact for any time, aged pair or not).
            let floor = self
                .wins
                .adjust(&self.cfg, self.clock_ps.max(self.active[pos].floor_ps));
            t.interbank_delay_ps.record(start.saturating_sub(floor));
            if let SchedulePolicy::FrFcfs { starvation_cap } = self.policy {
                if tx.bypassed >= starvation_cap {
                    t.starved_picks += 1;
                }
            }
        }
        // O(1) slab removal; FCFS order lives in the age keys, not in
        // storage order, so nothing shifts. The dense list swaps its tail
        // into the vacated position.
        self.active.swap_remove(pos);
        if let Some(moved) = self.active.get(pos) {
            self.slots[moved.slot as usize].active_pos = pos as u32;
        }
        self.free.push(idx as u32);
        let outcome = self.engine.service_decoded(tx.decoded, tx.is_read, start);
        debug_assert!(outcome.start_ps >= start, "engine may not start early");
        // Record the commands for the rolling inter-bank windows. The CAS
        // of a miss trails the ACT by tRP + tRCD.
        let (rank, bg) = (tx.decoded.rank, tx.decoded.bank_group);
        if !outcome.row_hit {
            self.timing.record_act(outcome.start_ps, rank, bg);
        }
        self.timing.record_cas(
            outcome.start_ps
                + if outcome.row_hit {
                    0
                } else {
                    self.cfg.t_rp_ps + self.cfg.t_rcd_ps
                },
            bg,
        );
        self.clock_ps = outcome.start_ps;
        // The service perturbs only its own bank's ready time and open
        // row, so only that bank's floors move and only its start caches
        // go stale (the global clock/ACT/CAS/REF horizons are revalidated
        // lazily at plan time). The same dense loop finds the next seed.
        let bank_ready = self.engine.bank_ready_ps(tx.bank);
        let mut seed = (0usize, u64::MAX);
        for (k, live) in self.active.iter_mut().enumerate() {
            if live.bank == tx.bank {
                let s = &mut self.slots[live.slot as usize];
                s.fresh = false;
                live.floor_ps = s.tx.arrival_ps.max(bank_ready);
            }
            if live.floor_ps < seed.1 {
                seed = (k, live.floor_ps);
            }
        }
        self.seed_pos = seed.0 as u32;
        Some(Completion {
            core: tx.core,
            arrival_ps: tx.arrival_ps,
            start_ps: outcome.start_ps,
            completion_ps: outcome.completion_ps,
            row_hit: outcome.row_hit,
        })
    }

    /// Finalises the run at `end_ps` (records elapsed REF events).
    pub fn finish(&mut self, end_ps: u64) {
        self.engine.finish(end_ps);
    }

    /// Serialises the channel's dynamic state *exactly*: the engine and
    /// timing layers, then the slot slab field for field (including the
    /// start caches and the `active` list **in storage order** — a pass's
    /// seed and floor skips follow positions, so a canonicalised restore
    /// could price different slots than the straight run and drift its
    /// `slots_examined`), the cached plan with its achiever set, and the
    /// work counters. The floors and banks of the `active` entries, the
    /// seed and the slots' `active_pos` are derived state, rebuilt on
    /// restore. The
    /// `reference`/`reference_refresh` knobs are rebuilt from process-wide
    /// defaults at construction, not serialised.
    pub(crate) fn snapshot_into(&self, w: &mut SnapshotWriter) {
        self.engine.snapshot_into(w);
        self.timing.snapshot_into(w);
        w.push(self.slots.len() as u64);
        for s in &self.slots {
            w.push_bool(s.fresh);
            w.push(s.start_ps);
            w.push(s.cas_off_ps);
            w.push(s.tx.id);
            w.push_u32(s.tx.core);
            w.push(s.tx.arrival_ps);
            let d = s.tx.decoded;
            for v in [d.channel, d.rank, d.bank_group, d.bank, d.row, d.column] {
                w.push_u32(v);
            }
            w.push_u32(s.tx.bank);
            w.push_bool(s.tx.is_read);
            w.push_u32(s.tx.bypassed);
        }
        w.push(self.free.len() as u64);
        for &i in &self.free {
            w.push_u32(i);
        }
        w.push(self.active.len() as u64);
        for live in &self.active {
            w.push_u32(live.slot);
        }
        w.push(self.next_id);
        w.push(self.clock_ps);
        match self.plan_cache {
            Some(p) => {
                w.push_bool(true);
                w.push(p.slot as u64);
                w.push(p.start_ps);
                w.push(self.achievers.len() as u64);
                for &i in &self.achievers {
                    w.push_u32(i);
                }
            }
            None => w.push_bool(false),
        }
        w.push(self.wins.w0_start);
        w.push(self.wins.w0_end);
        w.push(self.wins.w1_start);
        w.push(self.wins.w1_end);
        w.push_bool(self.wins.fast);
        w.push(self.plans_computed);
        w.push(self.slots_examined);
        // Telemetry words ride behind the stable layout, and only when the
        // layer is enabled — a non-telemetry checkpoint is unchanged.
        if let Some(t) = &self.telemetry {
            t.snapshot_into(w);
        }
    }

    /// Restores the state captured by [`snapshot_into`](Self::snapshot_into)
    /// into a channel freshly built for the same config/scheme/policy.
    pub(crate) fn restore_from(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), String> {
        self.engine.restore_from(r)?;
        self.timing.restore_from(r)?;
        let slots = usize::try_from(r.take()?)
            .map_err(|_| "channel: slot count overflows usize".to_string())?;
        self.slots.clear();
        for _ in 0..slots {
            let fresh = r.take_bool()?;
            let start_ps = r.take()?;
            let cas_off_ps = r.take()?;
            let id = r.take()?;
            let core = r.take_u32()?;
            let arrival_ps = r.take()?;
            let decoded = DecodedAddr {
                channel: r.take_u32()?,
                rank: r.take_u32()?,
                bank_group: r.take_u32()?,
                bank: r.take_u32()?,
                row: r.take_u32()?,
                column: r.take_u32()?,
            };
            let bank = r.take_u32()?;
            if bank as usize >= self.engine.bank_count() {
                return Err(format!("channel: transaction bank {bank} out of range"));
            }
            let is_read = r.take_bool()?;
            let bypassed = r.take_u32()?;
            self.slots.push(Slot {
                active_pos: 0,
                fresh,
                start_ps,
                cas_off_ps,
                tx: Transaction {
                    id,
                    core,
                    arrival_ps,
                    decoded,
                    bank,
                    is_read,
                    bypassed,
                },
            });
        }
        let take_index_list =
            |r: &mut SnapshotReader<'_>, out: &mut Vec<u32>, what: &str| -> Result<(), String> {
                let len = usize::try_from(r.take()?)
                    .map_err(|_| format!("channel: {what} overflows usize"))?;
                out.clear();
                for _ in 0..len {
                    let i = r.take_u32()?;
                    if i as usize >= slots {
                        return Err(format!("channel: {what} index {i} out of range"));
                    }
                    out.push(i);
                }
                Ok(())
            };
        take_index_list(r, &mut self.free, "free list")?;
        let mut active = Vec::new();
        take_index_list(r, &mut active, "active list")?;
        self.next_id = r.take()?;
        self.clock_ps = r.take()?;
        self.plan_cache = None;
        self.achievers.clear();
        if r.take_bool()? {
            let plan_slot = usize::try_from(r.take()?)
                .map_err(|_| "channel: plan slot overflows usize".to_string())?;
            let start_ps = r.take()?;
            if plan_slot >= slots {
                return Err(format!("channel: plan slot {plan_slot} out of range"));
            }
            take_index_list(r, &mut self.achievers, "achiever set")?;
            self.plan_cache = Some(Plan {
                slot: plan_slot,
                start_ps,
            });
        }
        self.wins = RefWindows {
            w0_start: r.take()?,
            w0_end: r.take()?,
            w1_start: r.take()?,
            w1_end: r.take()?,
            fast: r.take_bool()?,
        };
        self.plans_computed = r.take()?;
        self.slots_examined = r.take()?;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.restore_from(r)?;
        }
        // Derived state: positions, floors, banks and the seed (the first
        // smallest floor, the same tie rule push and service keep).
        self.active.clear();
        self.seed_pos = 0;
        for (k, &i) in active.iter().enumerate() {
            let s = &mut self.slots[i as usize];
            s.active_pos = k as u32;
            let floor_ps = s.tx.arrival_ps.max(self.engine.bank_ready_ps(s.tx.bank));
            if k > 0 && floor_ps < self.active[self.seed_pos as usize].floor_ps {
                self.seed_pos = k as u32;
            }
            self.active.push(Live {
                floor_ps,
                bank: s.tx.bank,
                slot: i,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel(policy: SchedulePolicy) -> Channel {
        Channel::new(
            SystemConfig::table6(),
            MitigationScheme::Baseline,
            policy,
            AddressMapping::default(),
            5,
        )
    }

    fn req(ch: &Channel, bank: u32, row: u32, col: u32) -> Request {
        Request {
            addr: ch.decoder().encode_bank_row(bank, row, col),
            is_read: true,
            think_time_ps: 0,
        }
    }

    fn drain(ch: &mut Channel) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(c) = ch.service_next() {
            out.push(c);
        }
        out
    }

    #[test]
    fn frfcfs_serves_row_hit_before_older_miss() {
        let cfg = SystemConfig::table6();
        let mut ch = channel(SchedulePolicy::frfcfs());
        let t0 = cfg.t_rfc_ps;
        // Open row 10 on bank 0.
        let r0 = req(&ch, 0, 10, 0);
        ch.push(r0, 0, t0);
        let first = ch.service_next().unwrap();
        // Queue an older miss (row 99) and a younger hit (row 10) arriving
        // at the same instant — queue order (id) makes the miss older.
        let miss = req(&ch, 0, 99, 0);
        let hit = req(&ch, 0, 10, 1);
        ch.push(miss, 1, first.completion_ps);
        ch.push(hit, 2, first.completion_ps);
        let served = drain(&mut ch);
        assert_eq!(served[0].core, 2, "the row hit jumps the queue");
        assert!(served[0].row_hit);
        assert_eq!(served[1].core, 1);
        assert!(!served[1].row_hit);
    }

    #[test]
    fn fcfs_serves_in_arrival_order() {
        let cfg = SystemConfig::table6();
        let mut ch = channel(SchedulePolicy::Fcfs);
        let t0 = cfg.t_rfc_ps;
        let r0 = req(&ch, 0, 10, 0);
        ch.push(r0, 0, t0);
        let first = ch.service_next().unwrap();
        let miss = req(&ch, 0, 99, 0);
        let hit = req(&ch, 0, 10, 1);
        ch.push(miss, 1, first.completion_ps);
        ch.push(hit, 2, first.completion_ps);
        let served = drain(&mut ch);
        assert_eq!(served[0].core, 1, "FCFS ignores the row buffer");
        assert!(!served[0].row_hit);
        assert!(!served[1].row_hit, "the miss closed the younger hit's row");
    }

    #[test]
    fn starvation_cap_bounds_hit_bypassing() {
        let cfg = SystemConfig::table6();
        let cap = 3u32;
        let mut ch = channel(SchedulePolicy::FrFcfs {
            starvation_cap: cap,
        });
        let t0 = cfg.t_rfc_ps;
        let r0 = req(&ch, 0, 10, 0);
        ch.push(r0, 0, t0);
        let first = ch.service_next().unwrap();
        // One old miss stuck behind a stream of row hits; everything
        // arrives at the same instant so the whole queue stays issuable
        // and only the policy decides the order.
        let t = first.completion_ps;
        let miss = req(&ch, 0, 99, 0);
        ch.push(miss, 9, t);
        let mut order = Vec::new();
        for k in 0..8u32 {
            let hit = req(&ch, 0, 10, 1 + k);
            ch.push(hit, k, t);
            let c = ch.service_next().unwrap();
            order.push(c.core);
        }
        order.extend(drain(&mut ch).iter().map(|c| c.core));
        let miss_pos = order.iter().position(|&c| c == 9).unwrap();
        assert!(
            miss_pos <= cap as usize,
            "the old miss must be force-served after {cap} bypasses, order {order:?}"
        );
    }

    #[test]
    fn inter_bank_act_spacing_is_enforced() {
        let cfg = SystemConfig::table6();
        // Same-group pair (banks 0 and 1, both group 0) pays tRRD_L…
        let mut ch = channel(SchedulePolicy::Fcfs);
        let t0 = cfg.t_rfc_ps;
        let a = req(&ch, 0, 1, 0);
        let b = req(&ch, 1, 1, 0);
        ch.push(a, 0, t0);
        ch.push(b, 1, t0);
        let served = drain(&mut ch);
        assert_eq!(served[1].start_ps - served[0].start_ps, cfg.t_rrd_l_ps);
        // …a cross-group pair (banks 0 and 4, groups 0 and 1) only tRRD_S.
        let mut ch = channel(SchedulePolicy::Fcfs);
        let a = req(&ch, 0, 1, 0);
        let c = req(&ch, 4, 1, 0);
        ch.push(a, 0, t0);
        ch.push(c, 1, t0);
        let served = drain(&mut ch);
        assert_eq!(served[1].start_ps - served[0].start_ps, cfg.t_rrd_s_ps);
    }

    #[test]
    fn scheduler_prefers_the_earlier_cross_group_act() {
        // With a same-group and a cross-group ACT both pending, the
        // cross-group one can issue tRRD_S after the first ACT while the
        // same-group one must wait tRRD_L — the earliest-startable rule
        // harvests that bank-group parallelism automatically.
        let cfg = SystemConfig::table6();
        let mut ch = channel(SchedulePolicy::Fcfs);
        let t0 = cfg.t_rfc_ps;
        let a = req(&ch, 0, 1, 0);
        let same_group = req(&ch, 1, 1, 0);
        let cross_group = req(&ch, 4, 1, 0);
        ch.push(a, 0, t0);
        ch.push(same_group, 1, t0);
        ch.push(cross_group, 2, t0);
        let served = drain(&mut ch);
        assert_eq!(
            served.iter().map(|c| c.core).collect::<Vec<_>>(),
            vec![0, 2, 1],
            "the cross-group ACT overtakes the older same-group one"
        );
        assert_eq!(served[1].start_ps - served[0].start_ps, cfg.t_rrd_s_ps);
    }

    #[test]
    fn faw_limits_act_bursts() {
        let cfg = SystemConfig::table6();
        let mut ch = channel(SchedulePolicy::Fcfs);
        let t0 = cfg.t_rfc_ps;
        // Five misses across five different bank groups.
        for bank in [0u32, 4, 8, 12, 16] {
            let r = req(&ch, bank, 1, 0);
            ch.push(r, 0, t0);
        }
        let served = drain(&mut ch);
        assert_eq!(
            served[4].start_ps - served[0].start_ps,
            cfg.t_faw_ps,
            "the fifth ACT waits for the rolling four-activate window"
        );
    }

    #[test]
    fn act_spacing_is_rank_local_but_cas_bus_is_shared() {
        // Five misses alternating between two ranks, each in its own bank
        // group: neither tRRD nor tFAW binds across ranks, so only the
        // shared CAS bus (tCCD_S between groups) paces the burst — well
        // inside what a single rank's four-activate window would allow.
        let cfg = SystemConfig {
            ranks: 2,
            ..SystemConfig::table6()
        };
        let mut ch = Channel::new(
            cfg,
            MitigationScheme::Baseline,
            SchedulePolicy::Fcfs,
            AddressMapping::default(),
            5,
        );
        let t0 = cfg.t_rfc_ps;
        for (i, bg) in [0u32, 1, 2, 3, 4].into_iter().enumerate() {
            let rank = (i as u32) % 2;
            let r = req(&ch, rank * cfg.banks + bg * cfg.banks_per_group(), 1, 0);
            ch.push(r, i as u32, t0);
        }
        let served = drain(&mut ch);
        assert_eq!(
            served[4].start_ps - served[0].start_ps,
            4 * cfg.t_ccd_s_ps,
            "cross-rank ACTs are paced only by the shared CAS bus"
        );
        assert!(4 * cfg.t_ccd_s_ps < cfg.t_faw_ps);
    }

    #[test]
    fn starts_are_monotone() {
        let cfg = SystemConfig::table6();
        let mut ch = channel(SchedulePolicy::frfcfs());
        let t0 = cfg.t_rfc_ps;
        for i in 0..20u32 {
            let r = req(&ch, i % 8, i % 3, 0);
            ch.push(r, 0, t0 + u64::from(i));
        }
        let served = drain(&mut ch);
        for w in served.windows(2) {
            assert!(w[1].start_ps >= w[0].start_ps);
        }
    }

    #[test]
    fn queue_capacity_is_bounded() {
        let cfg = SystemConfig {
            queue_depth: 2,
            ..SystemConfig::table6()
        };
        let mut ch = Channel::new(
            cfg,
            MitigationScheme::Baseline,
            SchedulePolicy::frfcfs(),
            AddressMapping::default(),
            1,
        );
        let r = req(&ch, 0, 0, 0);
        ch.push(r, 0, 0);
        assert!(ch.has_room());
        ch.push(r, 0, 0);
        assert!(!ch.has_room());
    }

    #[test]
    #[should_panic(expected = "transaction queue overflow")]
    fn overflow_panics() {
        let cfg = SystemConfig {
            queue_depth: 1,
            ..SystemConfig::table6()
        };
        let mut ch = Channel::new(
            cfg,
            MitigationScheme::Baseline,
            SchedulePolicy::frfcfs(),
            AddressMapping::default(),
            1,
        );
        let r = req(&ch, 0, 0, 0);
        ch.push(r, 0, 0);
        ch.push(r, 0, 0);
    }

    #[test]
    fn empty_queue_has_no_plan() {
        let mut ch = channel(SchedulePolicy::frfcfs());
        assert_eq!(ch.next_start_ps(), None);
        assert_eq!(ch.service_next(), None);
    }

    #[test]
    fn push_of_a_provably_later_arrival_keeps_the_plan() {
        // A newcomer whose earliest start is strictly after the planned
        // start cannot change the decision, so the plan survives the push
        // without a replanning pass — and the schedule still matches a
        // reference channel that replans after every push.
        let cfg = SystemConfig::table6();
        let mut fast = channel(SchedulePolicy::frfcfs());
        let mut slow = channel(SchedulePolicy::frfcfs());
        slow.set_reference_planner(true);
        let t0 = cfg.t_rfc_ps;
        for (i, bank) in [0u32, 4, 8].into_iter().enumerate() {
            let r = req(&fast, bank, 1, 0);
            fast.push(r, i as u32, t0);
            slow.push(r, i as u32, t0);
        }
        let planned = fast.next_start_ps();
        assert!(planned.is_some());
        let plans_before = fast.plans_computed();
        // An arrival far beyond the planned start provably cannot win.
        let late_at = t0 + 10 * cfg.t_rc_ps;
        let late = req(&fast, 12, 1, 0);
        fast.push(late, 9, late_at);
        slow.push(late, 9, late_at);
        assert_eq!(fast.next_start_ps(), planned, "the plan survives");
        assert_eq!(fast.plans_computed(), plans_before, "no replan happened");
        loop {
            let a = fast.service_next();
            let b = slow.service_next();
            assert_eq!(a, b, "kept-plan schedule must equal the scratch one");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn saturation32_prices_a_few_slots_per_decision() {
        // The checked-in saturation cell keeps the queue nearly full, yet
        // the floor test leaves only a handful of slots to price per
        // decision: the planner's work does not scale with queue depth.
        let text = include_str!("../../../examples/scenarios/saturation32.scn")
            .replace("requests = 2000", "requests = 250");
        let mut spec = crate::ScenarioSpec::parse(&text).unwrap();
        spec.telemetry = true;
        let report = spec.run().unwrap().telemetry.unwrap();
        let sched = report.section("ch0/sched").unwrap();
        let counter = |name: &str| report.counter("ch0/sched", name).unwrap() as f64;
        let depth = sched
            .histograms
            .iter()
            .find(|(n, _)| n == "queue_depth")
            .unwrap()
            .1
            .mean();
        let per_decision = counter("slots_examined") / counter("decisions");
        assert!(depth > 28.0, "the queue stays deep (mean depth {depth})");
        assert!(
            per_decision < 6.0,
            "{per_decision} slots examined per decision at mean depth {depth}"
        );
    }

    #[test]
    fn reference_planner_matches_incremental_planner() {
        // Same request stream through both planners: identical
        // completions, step by step.
        let cfg = SystemConfig::table6();
        let mut fast = channel(SchedulePolicy::frfcfs());
        let mut slow = channel(SchedulePolicy::frfcfs());
        slow.set_reference_planner(true);
        let t0 = cfg.t_rfc_ps;
        for i in 0..24u32 {
            let r = req(&fast, i % 8, i % 3, i % 4);
            fast.push(r, i % 4, t0 + u64::from(i) * cfg.t_rrd_s_ps);
            slow.push(r, i % 4, t0 + u64::from(i) * cfg.t_rrd_s_ps);
            if i % 3 == 0 {
                assert_eq!(fast.service_next(), slow.service_next());
            }
        }
        loop {
            let a = fast.service_next();
            let b = slow.service_next();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

//! Performance and energy substrate — the Gem5 substitute (DESIGN.md §2).
//!
//! The paper evaluates MINT's performance cost in Gem5 with SPEC2017 rate
//! and mixed workloads (Fig 16, Fig 17, Table VIII). All of the *effects*
//! it measures come from one mechanism: mitigation-related commands
//! stealing bank time —
//!
//! * MINT mitigates inside the tRFC of the regular REF → zero slowdown;
//! * MINT+RFM adds an RFM command (tRFC/2 = 205 ns of bank block) every
//!   `RFM_TH` activations per bank;
//! * MC-side PARA issues a blocking DRFM (410 ns) per sampled activation.
//!
//! This crate reproduces those mechanisms in a command-level DDR5
//! pipeline scaled out to a full DIMM — a [`System`] of N independently
//! clocked channels × R ranks per channel, each channel its own
//! [`Channel`] command pipeline — and exposes **one run surface** over it:
//! the [`Sim`] builder.
//!
//! ```text
//!  Sim builder ──► Session ─────────────────────────────────► RunReport
//!  .scheme() .policy()   RequestSource ──► TransQueue ──►      perf + per-core
//!  .mapping() .seed()    CoreStream /       SchedulePolicy     outcomes + energy
//!  .workload()/.trace()  TraceSource /      ──► TimingState    + drained events
//!  /.sources()           AttackSource       ──► banks+backends
//!  .observer()           ([`workload`])     ([`sched`], [`timing`],
//!                                            [`controller`], [`backend`])
//! ```
//!
//! Frontends implement [`RequestSource`] — a 4-core synthetic model
//! parameterised by MPKI and row-buffer locality ([`workload::CoreStream`])
//! or a plain-text trace replayed deterministically across cores
//! ([`workload::TraceSource`]); attacker sources plug in through
//! [`Sim::sources`]. Requests carry physical byte addresses, sliced by a
//! configurable [`AddressDecoder`] (three named mappings, see
//! [`address`]). The frontend routes each request to its channel by
//! decoded address; each [`Channel`] schedules its bounded transaction
//! queue with FCFS or FR-FCFS (row-hit-first, oldest-first,
//! starvation-capped) under the DDR5 inter-bank constraints — tRRD/tFAW
//! tracked per rank, the CAS bus shared per channel — and executes on
//! rank-indexed per-bank state carrying a real [`MitigationBackend`] for
//! any tracker of the `mint-trackers` zoo. A DRAMPower-style energy model ([`energy`]) prices
//! every [`RunReport`].
//!
//! Scenarios can also be described *as data*: a [`ScenarioSpec`] is one
//! cell in a small `key = value` text format that deserializes into a
//! builder, and a [`ScenarioGrid`] fans a scheme × workload grid through
//! the `mint-exp` harness, bit-identically for any `--jobs` count (see
//! [`scenario`]).
//!
//! Absolute IPC differs from the authors' testbed; the normalized
//! slowdown and energy *shape* is what the Fig 16 / Fig 17 / Table VIII
//! regeneration targets check.

#![warn(missing_docs)]

pub mod address;
pub mod backend;
pub mod config;
pub mod controller;
pub mod energy;
pub mod events;
pub mod scenario;
pub mod sched;
pub mod sim;
pub mod snapshot;
pub mod system;
pub mod telemetry;
pub mod timing;
pub mod workload;

pub use address::{AddressDecoder, AddressMapping, AddressOutOfRange, DecodedAddr, DramOrg};
pub use backend::MitigationBackend;
pub use config::{MitigationScheme, SystemConfig};
pub use controller::{set_reference_refresh_default, MemoryController, ServiceOutcome, SimResult};
pub use energy::{EnergyModel, EnergyReport};
pub use events::{ChannelObserver, MemEvent};
pub use mint_obs::{Log2Histogram, Section, TelemetryReport, TimeSeries, TELEMETRY_VERSION};
pub use scenario::{
    parse_any, Scenario, ScenarioFrontend, ScenarioGrid, ScenarioParseError, ScenarioSpec,
    SeedAxis, WorkloadCell,
};
pub use sched::{set_reference_planner_default, Channel, Completion, SchedulePolicy};
pub use sim::{
    set_reference_admission_default, set_reference_generation_default, CoreOutcome, NormalizedPerf,
    RunReport, Session, SessionRun, Sim,
};
pub use snapshot::{Checkpoint, SnapshotReader, SnapshotWriter, CHECKPOINT_VERSION};
pub use system::System;
pub use telemetry::{EngineTelemetry, SchedTelemetry, SessionTelemetry};

pub use timing::{InterBankTiming, TimingState};
pub use workload::{
    mixes, parse_trace, read_trace_file, saturation_spec, spec_rate_workloads, workload_by_name,
    CoreStream, Request, RequestSource, TraceEntry, TraceParseError, TraceSource, WorkloadSpec,
};

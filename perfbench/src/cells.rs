//! The simulation workloads: which cells each one runs, how a cell is
//! built from the benchmark seed, and how its outputs are checked.
//!
//! Every cell is described once ([`Cell`]) and can be turned into its
//! parts ([`Parts`]: system config, scheme, request sources, oracle bank)
//! any number of times. The timed path feeds the parts to the public
//! `Sim` surface; the traced loop feeds the same parts to its own loop
//! over `System`; the independent check runs the library's own entry
//! points (`ScenarioSpec::run`, `run_attack`, `run_corun`) with every
//! retained reference implementation switched on.

use mint_attacks::{redteam_patterns, PatternSpec};
use mint_memsys::backend::max_act_per_trefi;
use mint_memsys::{
    workload_by_name, AddressDecoder, AddressMapping, ChannelObserver, CoreStream,
    MitigationScheme, Request, RequestSource, RunReport, ScenarioFrontend, ScenarioSpec,
    SchedulePolicy, Sim, SystemConfig,
};
use mint_redteam::{
    run_attack, run_corun, AttackSource, GroundTruthOracle, OracleSummary, RedteamConfig,
};
use mint_rng::derive_seed;

/// The seed whose cell digests are recorded in [`crate::golden`].
pub const DEFAULT_SEED: u64 = 1;

/// Requests per core of a `zoo_mcf` cell (Table VI system: 4 cores).
const ZOO_REQUESTS_PER_CORE: u32 = 10_000;

/// Requests per core of a small `serve_mix` job (4 cores, below the
/// service's 65 536-request checkpoint chunk).
const SERVE_SMALL_REQUESTS: u32 = 1_000;

/// Requests per core of a large `serve_mix` job (4 cores: 80 000
/// requests, one checkpoint boundary).
const SERVE_LARGE_REQUESTS: u32 = 20_000;

/// Schemes of the large `serve_mix` jobs.
const SERVE_LARGE_SCHEMES: [&str; 4] = ["Baseline", "MINT", "MINT+RFM16", "PARFM"];

/// Where one cell's requests come from.
pub enum Frontend {
    /// A declarative scenario cell (synthetic rate streams).
    Spec(ScenarioSpec),
    /// A red-team security cell: the attacker alone, oracle observing.
    Attack { pattern: usize },
    /// A red-team co-run: attacker on core 0, budget-capped benign cores.
    Corun { pattern: usize },
}

/// One simulation cell of a workload.
pub struct Cell {
    /// Unique label within the workload (`<scheme>/<frontend>`).
    pub label: String,
    /// The scheme under evaluation.
    pub scheme: MitigationScheme,
    /// The cell's master seed (derived from the benchmark seed).
    pub seed: u64,
    /// Its request frontend.
    pub frontend: Frontend,
}

/// Everything a run of one cell needs.
pub struct Parts {
    pub cfg: SystemConfig,
    pub scheme: MitigationScheme,
    pub policy: SchedulePolicy,
    pub mapping: AddressMapping,
    pub seed: u64,
    pub sources: Vec<Box<dyn RequestSource>>,
    /// Per-source request cap (`None` = run every source dry).
    pub budget: Option<u32>,
    /// The system-global bank a `GroundTruthOracle` watches, if any.
    pub oracle_bank: Option<u32>,
}

/// What one cell run produced: the unified report plus the oracle's
/// summary for red-team security cells.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutput {
    pub report: RunReport,
    pub summary: Option<OracleSummary>,
}

/// A named simulation workload: its cells and the red-team campaign
/// they share (unused by the rate workloads).
pub struct SimWorkload {
    pub name: String,
    pub cells: Vec<Cell>,
    pub rc: RedteamConfig,
    pub patterns: Vec<PatternSpec>,
}

/// The bench-scale red-team campaign: the `RedteamConfig::quick` windows
/// doubled, judged at a low and the device threshold.
fn redteam_config(seed: u64) -> RedteamConfig {
    RedteamConfig {
        attack_refis: 512,
        corun_refis: 128,
        benign_requests_per_core: 8_000,
        trh_grid: vec![200, 1400],
        seed: derive_seed(seed, 0x7ED),
        ..RedteamConfig::default_sweep()
    }
}

impl SimWorkload {
    /// Builds the cells of workload `name` from the benchmark `seed`;
    /// `scn_text` is the checked-in scenario text `sat32` runs.
    pub fn new(name: &str, seed: u64, scn_text: Option<&str>) -> Result<Self, String> {
        let rc = redteam_config(seed);
        let patterns = redteam_patterns(rc.base_row, max_act_per_trefi() as u32);
        let cells = match name {
            "zoo_mcf" => MitigationScheme::zoo()
                .into_iter()
                .enumerate()
                .map(|(i, scheme)| {
                    let text = format!(
                        "scheme = {}\nworkload = mcf\nrequests = {ZOO_REQUESTS_PER_CORE}\nseed = {}",
                        scheme.label(),
                        derive_seed(seed, i as u64)
                    );
                    spec_cell(&text, "mcf")
                })
                .collect::<Result<Vec<_>, _>>()?,
            "sat32" => {
                let text = scn_text.ok_or("sat32 needs its scenario file")?;
                let mut cell = spec_cell(text, "sat32")?;
                let seeded = derive_seed(seed, 32);
                if let Frontend::Spec(spec) = &mut cell.frontend {
                    spec.seed = seeded;
                }
                cell.seed = seeded;
                vec![cell]
            }
            "redteam" => {
                let zoo = MitigationScheme::zoo();
                let mut cells = Vec::new();
                // Security cells, scheme-major, seeded like redteam_sweep.
                for (s, &scheme) in zoo.iter().enumerate() {
                    for (p, pattern) in patterns.iter().enumerate() {
                        let i = (s * patterns.len() + p) as u64;
                        cells.push(Cell {
                            label: format!("{}/{}", scheme.label(), pattern.name()),
                            scheme,
                            seed: derive_seed(rc.seed, i),
                            frontend: Frontend::Attack { pattern: p },
                        });
                    }
                }
                // Benign co-runs under the worst-case pattern, one seed.
                let slowdown_pattern = patterns.len().min(2) - 1;
                for &scheme in &zoo {
                    cells.push(Cell {
                        label: format!("{}/corun", scheme.label()),
                        scheme,
                        seed: derive_seed(rc.seed, 0xC00F),
                        frontend: Frontend::Corun {
                            pattern: slowdown_pattern,
                        },
                    });
                }
                cells
            }
            "serve_mix" => serve_specs(seed)?,
            other => return Err(format!("unknown simulation workload {other:?}")),
        };
        Ok(Self {
            name: name.to_string(),
            cells,
            rc,
            patterns,
        })
    }

    /// Resolves cell `i` into runnable parts.
    pub fn parts(&self, i: usize) -> Parts {
        let cell = &self.cells[i];
        let rc = &self.rc;
        match &cell.frontend {
            Frontend::Spec(spec) => {
                let mut cfg = SystemConfig::table6();
                cfg.cores = spec.cores.unwrap_or(cfg.cores);
                cfg.channels = spec.channels.unwrap_or(cfg.channels);
                cfg.ranks = spec.ranks.unwrap_or(cfg.ranks);
                let ScenarioFrontend::Workload(workload) = &spec.frontend else {
                    unreachable!("spec cells are checked to be workload cells");
                };
                let decoder = AddressDecoder::new(&cfg, spec.mapping);
                let sources = workload
                    .resolve(cfg.cores)
                    .into_iter()
                    .enumerate()
                    .map(|(c, w)| {
                        Box::new(CoreStream::new(
                            w,
                            decoder,
                            w.think_time_ps(&cfg),
                            derive_seed(spec.seed, c as u64),
                        )) as Box<dyn RequestSource>
                    })
                    .collect();
                Parts {
                    cfg,
                    scheme: spec.scheme,
                    policy: spec.policy,
                    mapping: spec.mapping,
                    seed: spec.seed,
                    sources,
                    budget: Some(spec.requests_per_core),
                    oracle_bank: None,
                }
            }
            Frontend::Attack { pattern } => Parts {
                sources: vec![Box::new(self.attacker(*pattern, rc.attack_refis))],
                budget: None,
                oracle_bank: Some(rc.target_bank),
                ..self.redteam_parts(cell)
            },
            Frontend::Corun { pattern } => {
                let benign = workload_by_name(rc.benign_workload).expect("benign workload exists");
                let decoder = AddressDecoder::new(&rc.cfg, rc.mapping);
                let think = benign.think_time_ps(&rc.cfg);
                let mut sources: Vec<Box<dyn RequestSource>> =
                    vec![Box::new(self.attacker(*pattern, rc.corun_refis))];
                for core in 1..rc.cfg.cores {
                    sources.push(Box::new(Limited {
                        inner: CoreStream::new(
                            benign,
                            decoder,
                            think,
                            derive_seed(cell.seed, u64::from(core)),
                        ),
                        remaining: rc.benign_requests_per_core,
                    }));
                }
                Parts {
                    sources,
                    budget: None,
                    oracle_bank: None,
                    ..self.redteam_parts(cell)
                }
            }
        }
    }

    fn redteam_parts(&self, cell: &Cell) -> Parts {
        Parts {
            cfg: self.rc.cfg,
            scheme: cell.scheme,
            policy: self.rc.policy,
            mapping: self.rc.mapping,
            seed: cell.seed,
            sources: Vec::new(),
            budget: None,
            oracle_bank: None,
        }
    }

    fn attacker(&self, pattern: usize, refis: u64) -> AttackSource {
        let rc = &self.rc;
        let spec = &self.patterns[pattern];
        AttackSource::new(
            &rc.cfg,
            rc.mapping,
            rc.target_bank,
            spec.build(),
            spec.name(),
            refis,
        )
    }

    /// Runs cell `i` through the library's own entry points — the
    /// independent path every timed run must equal. Callers switch the
    /// retained reference implementations on around this.
    pub fn run_independent(&self, i: usize) -> CellOutput {
        let cell = &self.cells[i];
        match &cell.frontend {
            Frontend::Spec(spec) => CellOutput {
                report: spec.run().expect("workload cells need no files"),
                summary: None,
            },
            Frontend::Attack { pattern } => {
                let (summary, report) =
                    run_attack(&self.rc, cell.scheme, &self.patterns[*pattern], cell.seed);
                CellOutput {
                    report,
                    summary: Some(summary),
                }
            }
            Frontend::Corun { pattern } => CellOutput {
                report: run_corun(&self.rc, cell.scheme, &self.patterns[*pattern], cell.seed).1,
                summary: None,
            },
        }
    }
}

impl Parts {
    /// The public `Sim` for these parts, with `observer` attached.
    pub fn sim<'a>(self, observer: Option<&'a mut dyn ChannelObserver>) -> Sim<'a> {
        let sources: Vec<Box<dyn RequestSource + 'a>> = self
            .sources
            .into_iter()
            .map(|s| s as Box<dyn RequestSource + 'a>)
            .collect();
        let mut sim = Sim::new(self.cfg)
            .scheme(self.scheme)
            .policy(self.policy)
            .mapping(self.mapping)
            .seed(self.seed)
            .sources(sources)
            .per_core_budget(self.budget);
        if let Some(obs) = observer {
            sim = sim.observer(obs);
        }
        sim
    }

    /// A fresh oracle on the watched bank, if the cell has one.
    pub fn oracle(&self) -> Option<GroundTruthOracle> {
        self.oracle_bank
            .map(|b| GroundTruthOracle::new(&self.cfg, b))
    }
}

/// The distinct job specs of `serve_mix`: every zoo scheme as a small
/// 1×1 cell below the service's checkpoint chunk, and the cheaper
/// schemes (MINT among them) as 2-channel × 2-rank cells that cross it.
fn serve_specs(seed: u64) -> Result<Vec<Cell>, String> {
    let mut cells = Vec::new();
    for (i, scheme) in MitigationScheme::zoo().into_iter().enumerate() {
        let text = format!(
            "scheme = {}\nworkload = mcf\nrequests = {SERVE_SMALL_REQUESTS}\nseed = {}",
            scheme.label(),
            derive_seed(seed, 0x5E00 + i as u64)
        );
        cells.push(spec_cell(&text, "small")?);
    }
    for (i, scheme) in SERVE_LARGE_SCHEMES.iter().enumerate() {
        let text = format!(
            "scheme = {scheme}\nworkload = mix{}\nrequests = {SERVE_LARGE_REQUESTS}\n\
             channels = 2\nranks = 2\nseed = {}",
            i + 1,
            derive_seed(seed, 0x5E80 + i as u64)
        );
        cells.push(spec_cell(&text, "large")?);
    }
    Ok(cells)
}

fn spec_cell(text: &str, what: &str) -> Result<Cell, String> {
    let spec = ScenarioSpec::parse(text).map_err(|e| format!("{what}: {e}"))?;
    if !matches!(spec.frontend, ScenarioFrontend::Workload(_)) {
        return Err(format!("{what}: the benchmark runs workload cells only"));
    }
    Ok(Cell {
        label: format!("{}/{what}", spec.scheme.label()),
        scheme: spec.scheme,
        seed: spec.seed,
        frontend: Frontend::Spec(spec),
    })
}

/// Caps an inner source at a request budget, exactly like the co-run
/// cap of `mint-redteam` (one request per refill, ready time forwarded).
struct Limited<S> {
    inner: S,
    remaining: u32,
}

impl<S: RequestSource> RequestSource for Limited<S> {
    fn next_request(&mut self) -> Option<Request> {
        self.next_request_at(0)
    }

    fn next_request_at(&mut self, ready_at_ps: u64) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.inner.next_request_at(ready_at_ps)
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// A digest of a cell's simulated outputs: the aggregate result, the
/// per-core outcomes, the energy bill and the oracle summary — each field
/// named explicitly, so adding a field to a result type leaves it alone.
pub fn digest(out: &CellOutput) -> u64 {
    let mut h = Fnv::new();
    let perf = &out.report.perf;
    let r = &perf.result;
    for w in [
        perf.duration_ps,
        r.requests,
        r.row_hits,
        r.demand_acts,
        r.mitigative_acts,
        r.rfm_commands,
        r.drfm_commands,
        r.reads,
        r.writes,
        r.refs,
        out.report.energy.total_j().to_bits(),
    ] {
        h.word(w);
    }
    for c in &out.report.cores {
        h.word(c.finish_ps);
        h.word(c.requests);
    }
    if let Some(s) = &out.summary {
        for w in [
            u64::from(s.max_hammers),
            u64::from(s.hottest_row),
            s.demand_acts,
            s.victim_refreshes,
            s.refs,
            s.rfm_commands,
            s.drfm_commands,
        ] {
            h.word(w);
        }
        for &(row, max) in &s.row_maxima {
            h.word(u64::from(row));
            h.word(u64::from(max));
        }
    }
    h.0
}

/// Turns every retained reference implementation on or off (admission,
/// generation, planner, refresh): the independent path of the checks.
pub fn set_reference_paths(on: bool) {
    mint_memsys::set_reference_admission_default(on);
    mint_memsys::set_reference_generation_default(on);
    mint_memsys::set_reference_planner_default(on);
    mint_memsys::set_reference_refresh_default(on);
}

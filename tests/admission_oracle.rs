//! Differential oracle for the Session's heap-based admission.
//!
//! The one [`Session`](mint_memsys::Session) run loop keeps two
//! admission implementations: the incremental default (one min-heap of
//! `(issue_ps, core)` arrival keys per channel over the [`System`]
//! readiness cache, each channel's admissible heads drained in channel
//! order) and the original sorted-vec scan, retained as the reference
//! (`set_reference_admission_default`). This suite runs **identical
//! random multi-core, multi-channel scenarios under both loops** —
//! across core counts, channel counts, queue depths, schemes, policies
//! and per-core workload mixes — with the event log captured, and
//! asserts the full [`RunReport`]s are equal. Event equality is the
//! stepwise evidence: every admitted request lands in its channel's
//! bounded queue in arrival order, so a single transposed admission
//! reorders the executed ACT/PRE/CAS stream (and shifts its
//! picosecond timestamps) long before it would show up in aggregate
//! counters. Any divergence prints the deterministic case index that
//! replays it exactly (see `mint_exp::prop`).
//!
//! [`System`]: mint_memsys::System
//! [`RunReport`]: mint_memsys::RunReport

use mint_exp::prop::{forall, u32_in, u64_in, usize_in};
use mint_memsys::{
    saturation_spec, set_reference_admission_default, spec_rate_workloads, MitigationScheme,
    RunReport, SchedulePolicy, Sim, SystemConfig, WorkloadSpec,
};

/// One captured run of the scenario under the selected admission loop.
/// Restores the optimized default before returning.
fn run(
    cfg: SystemConfig,
    scheme: MitigationScheme,
    policy: SchedulePolicy,
    specs: &[WorkloadSpec],
    requests_per_core: u32,
    seed: u64,
    reference: bool,
) -> RunReport {
    set_reference_admission_default(reference);
    let report = Sim::new(cfg)
        .scheme(scheme)
        .policy(policy)
        .workload(specs, requests_per_core)
        .seed(seed)
        .capture_events()
        .run();
    set_reference_admission_default(false);
    report
}

#[test]
fn heap_admission_matches_sorted_vec_reference_stepwise() {
    let schemes = [
        MitigationScheme::Baseline,
        MitigationScheme::Mint,
        MitigationScheme::MintRfm { rfm_th: 16 },
        MitigationScheme::McPara { p: 1.0 / 40.0 },
    ];
    let policies = [SchedulePolicy::Fcfs, SchedulePolicy::frfcfs()];
    // The saturate stream joins the SPEC pool so some cores run with
    // zero think time — arrival ties and full queues are exactly where
    // the two admission loops could disagree.
    let mut pool = spec_rate_workloads();
    pool.push(saturation_spec());
    forall(24, 0xAD3155, |case, rng| {
        let cores = u32_in(rng, 1, 9);
        let channels = 1u32 << usize_in(rng, 0, 3);
        let cfg = SystemConfig {
            cores,
            channels,
            // Shallow queues force admission stalls; deep ones keep
            // every arrival admissible immediately. Stress both.
            queue_depth: u32_in(rng, 1, 33),
            ..SystemConfig::table6()
        };
        let scheme = schemes[usize_in(rng, 0, schemes.len())];
        let policy = policies[usize_in(rng, 0, policies.len())];
        let specs: Vec<WorkloadSpec> = (0..cores)
            .map(|_| pool[usize_in(rng, 0, pool.len())])
            .collect();
        let requests_per_core = u32_in(rng, 50, 400);
        let seed = u64_in(rng, 0, u64::MAX);
        let optimized = run(cfg, scheme, policy, &specs, requests_per_core, seed, false);
        let reference = run(cfg, scheme, policy, &specs, requests_per_core, seed, true);
        assert!(
            !optimized.events.is_empty(),
            "case {case}: event capture must be on for stepwise evidence"
        );
        assert_eq!(
            optimized,
            reference,
            "case {case}: heap admission diverged from the sorted-vec reference \
             (cores {cores}, channels {channels}, depth {}, {} on {})",
            cfg.queue_depth,
            scheme.label(),
            policy.label(),
        );
    });
}

//! The declarative scenario layer is the `Sim` builder as data: a
//! `ScenarioSpec` cell deserializes into the same run as the builder
//! chain it describes (synthetic and trace frontends), and every
//! checked-in `examples/scenarios/*.scn` file parses, with the grid and
//! trace samples run end to end.

use mint_rh::memsys::{
    parse_any, read_trace_file, saturation_spec, workload_by_name, MitigationScheme, Scenario,
    ScenarioFrontend, ScenarioSpec, SchedulePolicy, Sim,
};

const SAMPLE: &str = "examples/traces/sample100.trace";

#[test]
fn scenario_spec_deserializes_into_the_same_run() {
    // A declarative cell is the same run as the builder chain it
    // describes — including a trace frontend on the checked-in sample.
    let spec = ScenarioSpec::parse(
        "scheme = MINT+RFM16\nworkload = mcf\nrequests = 2000\nseed = 31\npolicy = fcfs\n",
    )
    .unwrap();
    let from_spec = spec.run().unwrap();
    let mcf = workload_by_name("mcf").unwrap();
    let direct = Sim::ddr5()
        .scheme(MitigationScheme::MintRfm { rfm_th: 16 })
        .policy(SchedulePolicy::Fcfs)
        .workload(&[mcf; 4], 2_000)
        .seed(31)
        .run();
    assert_eq!(from_spec, direct);

    let trace_spec =
        ScenarioSpec::parse(&format!("scheme = MINT\ntrace = {SAMPLE}\nseed = 42\n")).unwrap();
    let from_spec = trace_spec.run().unwrap();
    let entries = read_trace_file(SAMPLE).unwrap();
    let direct = Sim::ddr5()
        .scheme(MitigationScheme::Mint)
        .trace(&entries)
        .seed(42)
        .run();
    assert_eq!(from_spec, direct);
}

/// Every checked-in scenario file, in directory order.
const SCENARIO_FILES: &[&str] = &[
    "dimm_multichannel.scn",
    "saturation32.scn",
    "trace_mint.scn",
    "zoo_small.scn",
];

#[test]
fn checked_in_scenario_file_runs_as_a_grid() {
    // The table must name every shipped `.scn`, so a new sample cannot
    // skip this parse.
    let mut shipped: Vec<String> = std::fs::read_dir("examples/scenarios")
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".scn"))
        .collect();
    shipped.sort();
    assert_eq!(
        shipped, SCENARIO_FILES,
        "SCENARIO_FILES must list every .scn"
    );
    for &name in SCENARIO_FILES {
        let path = format!("examples/scenarios/{name}");
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let parsed = parse_any(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        match (name, parsed) {
            ("dimm_multichannel.scn", Scenario::Grid(grid)) => {
                assert_eq!((grid.cfg.channels, grid.cfg.ranks), (2, 2));
            }
            ("saturation32.scn", Scenario::Cell(spec)) => {
                assert_eq!(spec.cores, Some(32));
                assert_eq!(spec.channels, None, "one channel");
                assert_eq!(spec.scheme, MitigationScheme::Baseline);
                assert_eq!(spec.policy, SchedulePolicy::frfcfs());
                let ScenarioFrontend::Workload(cell) = &spec.frontend else {
                    panic!("saturation32.scn is a workload cell");
                };
                assert_eq!(cell.resolve(32), vec![saturation_spec(); 32]);
            }
            ("trace_mint.scn", Scenario::Cell(spec)) => {
                let report = spec.run().unwrap();
                assert_eq!(report.perf.result.requests, 100);
            }
            ("zoo_small.scn", Scenario::Grid(grid)) => {
                assert_eq!(grid.schemes.len(), 3);
                assert_eq!(grid.workload_labels, vec!["lbm", "mcf"]);
                let rows = grid.run();
                assert_eq!(rows.len(), 2);
                assert!((rows[0][0].normalized - 1.0).abs() < 1e-12, "baseline row");
                // MINT rides REF time: identical timeline to Baseline on
                // every row.
                for row in &rows {
                    assert_eq!(row[0].duration_ps, row[1].duration_ps);
                }
            }
            _ => panic!("{name} parsed as the wrong shape (grid vs cell)"),
        }
    }
}

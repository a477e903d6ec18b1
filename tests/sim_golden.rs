//! Golden simulator fixture: the `jellyfish-run v2` text of a fixed
//! matrix of flit-level runs on RRG(24,8,5), compared byte for byte.
//!
//! The serial ≡ parallel suites referee the two engines against each
//! other, so they cannot see a change that moves both at once; this
//! fixture pins the absolute output instead. The matrix covers all six
//! mechanisms (vanilla UGAL with its shortest-path table) at 1- and
//! 4-flit packets, a mid-run link + switch fault plan with repair on
//! and off, and one Poisson-flows scenario including its flow ledger.
//! Every case also runs on the sharded engine, which must reproduce the
//! same bytes.
//!
//! A deliberate change to simulator output regenerates the fixture with
//! `JELLYFISH_BLESS_SIM_GOLDEN=1 cargo test --test sim_golden`; the
//! resulting diff is the behaviour change under review.

use jellyfish::prelude::*;
use jellyfish::JellyfishNetwork;
use jellyfish_flitsim::{write_result, FlowStats, ParallelSimulator, RunResult, Simulator};
use jellyfish_routing::{PairSet, PathTable};
use jellyfish_topology::FaultPlan;
use jellyfish_traffic::{FlowSize, HotspotKind, Matrix, ScenarioPlan};
use std::fmt::Write as _;

const FIXTURE: &str = "tests/fixtures/sim_golden_v1.txt";
const HEADER: &str = "jellyfish-sim-golden v1";
const MECHANISMS: [Mechanism; 6] = [
    Mechanism::SinglePath,
    Mechanism::Random,
    Mechanism::RoundRobin,
    Mechanism::VanillaUgal,
    Mechanism::KspUgal,
    Mechanism::KspAdaptive,
];

struct Net {
    net: JellyfishNetwork,
    table: PathTable,
    sp: PathTable,
}

impl Net {
    fn new() -> Self {
        let net = JellyfishNetwork::build(RrgParams::new(24, 8, 5), 3).expect("valid RRG");
        let table = net.paths(PathSelection::REdKsp(4), &PairSet::AllPairs, 7);
        let sp = net.paths(PathSelection::SinglePath, &PairSet::AllPairs, 7);
        Self { net, table, sp }
    }

    fn uniform(&self) -> PacketDestinations {
        PacketDestinations::Uniform { num_hosts: self.net.params().num_hosts() }
    }
}

/// A short schedule: enough cycles for queues, credits and round-robin
/// pointers to interact, few enough to keep the debug-build suite fast.
fn config(packet_flits: u16, seed: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: 300,
        sample_cycles: 300,
        num_samples: 4,
        packet_flits,
        seed,
        ..SimConfig::paper()
    }
}

/// A mid-run fault schedule: random link cuts after warmup, then one
/// switch failure while the network is loaded.
fn fault_plan(n: &Net) -> FaultPlan {
    let mut plan = FaultPlan::random_links(n.net.graph(), 0.06, 450, 5);
    plan.add_switch_failure(700, 11);
    plan
}

fn scenario() -> ScenarioPlan {
    let mut plan = ScenarioPlan::new(9);
    plan.add_steady(0, 0.1, Matrix::Uniform);
    plan.add_flows(
        400,
        0.01,
        FlowSize { min: 1, max: 16, alpha: 1.4 },
        Matrix::Hotspot { hot: 3, fraction: 0.5, kind: HotspotKind::Incast, seed: 2 },
    );
    plan.add_flow(200, 4, 60, 12);
    plan
}

/// One matrix entry: how to build it on either engine.
struct Case {
    label: String,
    mechanism: Mechanism,
    rate: f64,
    cfg: SimConfig,
    faults: bool,
    scenario: bool,
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for flits in [1u16, 4] {
        // Multi-flit packets hold an output for `flits` cycles, so a
        // comparable offered flit load needs a lower packet rate.
        let rate = if flits == 1 { 0.35 } else { 0.08 };
        for mech in MECHANISMS {
            out.push(Case {
                label: format!("{} flits={flits}", mech.name()),
                mechanism: mech,
                rate,
                cfg: config(flits, 11),
                faults: false,
                scenario: false,
            });
        }
    }
    for mech in [Mechanism::Random, Mechanism::KspAdaptive] {
        for repair in [true, false] {
            out.push(Case {
                label: format!("{} faults repair={repair}", mech.name()),
                mechanism: mech,
                rate: 0.3,
                cfg: SimConfig { fault_repair: repair, ..config(1, 12) },
                faults: true,
                scenario: false,
            });
        }
    }
    out.push(Case {
        label: "ksp-adaptive poisson-flows".to_string(),
        mechanism: Mechanism::KspAdaptive,
        rate: 0.0,
        cfg: config(1, 13),
        faults: false,
        scenario: true,
    });
    out
}

fn render(label: &str, r: &RunResult, flows: Option<FlowStats>, out: &mut String) {
    writeln!(out, "case {label}").unwrap();
    let mut buf = Vec::new();
    write_result(r, &mut buf).expect("serialize result");
    out.push_str(std::str::from_utf8(&buf).expect("utf-8 result text"));
    if let Some(f) = flows {
        writeln!(
            out,
            "flows {} {} {} {} {} p50 {} p99 {}",
            f.generated,
            f.completed,
            f.dropped,
            f.live,
            f.fct_sum,
            f.fct_hist.value_at_quantile(0.5),
            f.fct_hist.value_at_quantile(0.99)
        )
        .unwrap();
    }
}

fn run_serial(n: &Net, c: &Case, plan: &FaultPlan, sc: &ScenarioPlan, out: &mut String) {
    let mut sim = Simulator::new(
        n.net.graph(),
        *n.net.params(),
        &n.table,
        Some(&n.sp),
        c.mechanism,
        n.uniform(),
        c.rate,
        c.cfg,
    );
    if c.faults {
        sim = sim.with_fault_plan(plan);
    }
    if c.scenario {
        sim = sim.with_scenario(sc);
    }
    let r = sim.run();
    render(&c.label, &r, sim.flow_stats(), out);
}

fn run_parallel(n: &Net, c: &Case, plan: &FaultPlan, sc: &ScenarioPlan, out: &mut String) {
    let mut sim = ParallelSimulator::new(
        n.net.graph(),
        *n.net.params(),
        &n.table,
        Some(&n.sp),
        c.mechanism,
        n.uniform(),
        c.rate,
        c.cfg,
        2,
    );
    if c.faults {
        sim = sim.with_fault_plan(plan);
    }
    if c.scenario {
        sim = sim.with_scenario(sc);
    }
    let r = sim.run();
    render(&c.label, &r, sim.flow_stats(), out);
}

#[test]
fn simulator_output_matches_golden_fixture() {
    jellyfish_repro::audit_simulations(); // per-cycle checks under --features audit
    let n = Net::new();
    let plan = fault_plan(&n);
    let sc = scenario();
    let mut serial = format!("{HEADER}\n");
    let mut parallel = serial.clone();
    for c in cases() {
        run_serial(&n, &c, &plan, &sc, &mut serial);
        run_parallel(&n, &c, &plan, &sc, &mut parallel);
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    if std::env::var_os("JELLYFISH_BLESS_SIM_GOLDEN").is_some() {
        std::fs::write(&path, &serial).expect("write golden fixture");
    }
    let golden = std::fs::read_to_string(&path).expect("read golden fixture");
    assert_eq!(serial, golden, "serial simulator output drifted from {FIXTURE}");
    assert_eq!(parallel, golden, "sharded simulator output drifted from {FIXTURE}");
}

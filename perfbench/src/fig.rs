//! `fig7_slice` and `fig8_point`: the paper's saturation experiments.
//!
//! The fabric is one fixed instance per workload ([`FABRIC_SEED`]), as
//! a figure is drawn on one network; the benchmark seed draws the
//! traffic the way `repro fig7`/`fig8` do: the random permutation from
//! `seed ^ 0x22`, the randomized path tables from `seed ^ 0x33`, and the
//! simulator's streams from `seed`.

use crate::layers::{self, secs, Extras, SimWork};
use crate::oracle;
use crate::report::Report;
use crate::spans::{self, span};
use crate::stats::{median, Summary};
use crate::Opts;
use jellyfish::prelude::*;
use jellyfish::JellyfishNetwork;
use jellyfish_bench::Scale;
use jellyfish_flitsim::{saturation_search, RunResult, Simulator, SweepConfig};
use jellyfish_routing::PathCache;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Figure 7's k = 8 selections, in the paper's order.
pub const SELECTIONS: [PathSelection; 4] = [
    PathSelection::Ksp(8),
    PathSelection::RKsp(8),
    PathSelection::EdKsp(8),
    PathSelection::REdKsp(8),
];

/// The slice's routing mechanisms.
pub const MECHANISMS: [Mechanism; 2] = [Mechanism::Random, Mechanism::KspAdaptive];

/// The seed of the fabric every run of a workload uses.
pub const FABRIC_SEED: u64 = 1;

/// Offered load of the Figure 8 point.
pub const FIG8_RATE: f64 = 0.2;

/// A side batch: how many cold set-ups, warm restarts and fault rounds.
#[derive(Clone, Copy)]
struct Batch {
    setups: usize,
    restarts: usize,
    faults: usize,
}

/// fig7_slice's side batch: each operation takes milliseconds, so
/// batches are large: a batch spans about half a second, longer than
/// the host's second-to-second wobble on a shared machine.
const FIG7_BATCH: Batch = Batch { setups: 40, restarts: 40, faults: 40 };
/// fig8_point's side batch: a cold set-up costs a tenth of a second, a
/// warm restart about a hundredth, so restarts are many: a few batches
/// of them follow simulations that evicted the caches.
const FIG8_BATCH: Batch = Batch { setups: 3, restarts: 80, faults: 4 };

/// The order workers take the cells in, as `selection * 2 + mechanism`:
/// the KSP-adaptive cells saturate late and cost the most, so they go
/// first and the cheap cells fill in behind them.
const CELL_ORDER: [usize; 8] = [1, 3, 5, 7, 0, 2, 4, 6];

/// One workload's generated inputs.
pub struct Inputs {
    /// The fabric.
    pub net: JellyfishNetwork,
    /// Switch pairs of the permutation.
    pub pairs: PairSet,
    /// Host-level destinations of the permutation.
    pub dests: PacketDestinations,
    /// One table per selection.
    pub tables: Vec<Arc<PathTable>>,
}

/// Builds the fabric, the permutation and the tables; through `cache`
/// when given (a warm restart), else computed.
pub fn inputs(
    params: RrgParams,
    seed: u64,
    selections: &[PathSelection],
    cache: Option<&PathCache>,
) -> Result<Inputs, String> {
    let net = {
        let _s = span("topology.build");
        JellyfishNetwork::build(params, FABRIC_SEED)
            .map_err(|e| format!("cannot build RRG: {e}"))?
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x22);
    let flows = random_permutation(params.num_hosts(), &mut rng);
    let pairs = PairSet::Pairs(switch_pairs(&flows, &params));
    let dests = PacketDestinations::from_flows(params.num_hosts(), &flows);
    let tables = selections
        .iter()
        .map(|&sel| match cache {
            Some(c) => {
                let _s = span("routing.cache_load");
                c.load_or_compute(net.graph(), sel, &pairs, seed ^ 0x33)
            }
            None => {
                let _s = span(layers::compute_span(sel));
                Arc::new(PathTable::compute(net.graph(), sel, &pairs, seed ^ 0x33))
            }
        })
        .collect();
    Ok(Inputs { net, pairs, dests, tables })
}

/// Samples of the cheap end-to-end operations (cold set-up, warm
/// restart, fault round), taken in batches spread over the run so a
/// burst of host noise skews one batch, not the median.
struct Side {
    params: RrgParams,
    selections: &'static [PathSelection],
    batch: Batch,
    dir: std::path::PathBuf,
    setup_s: Vec<f64>,
    restart_s: Vec<f64>,
    fault_s: Vec<f64>,
    affected: usize,
    cache_file_bytes: u64,
    /// Peak RSS during each figure or simulation, MB.
    rss_mb: Vec<f64>,
}

impl Side {
    /// Runs the first cold set-up and fills the cache the warm restarts
    /// load from.
    fn first(
        opts: &Opts,
        params: RrgParams,
        selections: &'static [PathSelection],
        batch: Batch,
    ) -> Result<(Self, Inputs), String> {
        let t = Instant::now();
        let inp = {
            let _s = span("setup.cold");
            inputs(params, opts.seed, selections, None)?
        };
        let first_s = secs(t);
        let dir = opts.scratch.join("cache");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let mut cache_file_bytes = 0;
        for (sel, table) in selections.iter().zip(&inp.tables) {
            let graph = inp.net.graph();
            cache_file_bytes +=
                layers::cache_store(&dir, graph, table, *sel, &inp.pairs, opts.seed ^ 0x33)?;
        }
        let side = Self {
            params,
            selections,
            batch,
            dir,
            setup_s: vec![first_s],
            restart_s: Vec::new(),
            fault_s: Vec::new(),
            affected: 0,
            cache_file_bytes,
            rss_mb: Vec::new(),
        };
        Ok((side, inp))
    }

    /// One batch: cold set-ups, warm restarts (checked against the
    /// computed tables), and fault rounds over every table (checked for
    /// dead paths), interleaved so each kind samples the whole batch.
    /// Each kind starts with one unrecorded warm-up, since the figure or
    /// simulation before it evicted the caches.
    fn batch(&mut self, opts: &Opts, inp: &Inputs, report: &mut Report) -> Result<(), String> {
        spans::unrecorded(|| self.setup(opts))?;
        spans::unrecorded(|| self.restart(opts, inp, report))?;
        spans::unrecorded(|| self.fault_round(opts, inp, report))?;
        let b = self.batch;
        for i in 0..b.setups.max(b.restarts).max(b.faults) {
            if i < b.setups {
                let _s = span("setup.cold");
                self.setup_s.push(self.setup(opts)?);
            }
            if i < b.restarts {
                let _s = span("setup.warm");
                self.restart_s.push(self.restart(opts, inp, report)?);
            }
            if i < b.faults {
                let _s = span("fault.round");
                let (took, affected) = self.fault_round(opts, inp, report)?;
                self.fault_s.push(took);
                self.affected += affected;
            }
        }
        let last = |v: &[f64], n: usize| median(&v[v.len() - n..]).unwrap_or(0.0) * 1e3;
        eprintln!(
            "side batch medians: setup {:.3} ms, restart {:.3} ms, fault round {:.3} ms",
            last(&self.setup_s, b.setups),
            last(&self.restart_s, b.restarts),
            last(&self.fault_s, b.faults)
        );
        Ok(())
    }

    /// One cold set-up; its seconds.
    fn setup(&self, opts: &Opts) -> Result<f64, String> {
        let t = Instant::now();
        drop(inputs(self.params, opts.seed, self.selections, None)?);
        Ok(secs(t))
    }

    /// One warm restart through a fresh cache; its seconds.
    fn restart(&self, opts: &Opts, inp: &Inputs, report: &mut Report) -> Result<f64, String> {
        let cache = PathCache::new(&self.dir).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let warm = inputs(self.params, opts.seed, self.selections, Some(&cache))?;
        let took = secs(t);
        if cache.counters().disk_hits != self.selections.len() as u64
            || warm.tables.iter().zip(&inp.tables).any(|(w, c)| **w != **c)
        {
            report.error("the warm restart did not load the computed tables from the cache");
        }
        Ok(took)
    }

    /// One fault round over every table, on the next seeded link set;
    /// its seconds and the pairs it touched.
    fn fault_round(
        &self,
        opts: &Opts,
        inp: &Inputs,
        report: &mut Report,
    ) -> Result<(f64, usize), String> {
        let graph = inp.net.graph();
        let r = self.fault_s.len() as u64;
        let links = layers::fault_links(graph, opts.seed.wrapping_mul(1000) + r);
        let (mut total, mut affected) = (0.0, 0);
        for table in &inp.tables {
            let (took, pairs) = layers::fault_round(graph, table, &links, opts.seed ^ r)?;
            total += took;
            affected += pairs;
        }
        report.attempted += 1;
        Ok((total, affected))
    }

    /// Records `setup_s`, `restart_s`, `fault_ms` and `rss_mb`.
    fn report(&self, report: &mut Report) {
        report.set("rss_mb", median(&self.rss_mb).unwrap_or(0.0), "MB");
        report.set("setup_s", median(&self.setup_s).unwrap_or(0.0), "s");
        report.set("restart_s", median(&self.restart_s).unwrap_or(0.0), "s");
        report.set("fault_ms", median(&self.fault_s).unwrap_or(0.0) * 1e3, "ms");
    }

    fn affected_mean(&self) -> f64 {
        self.affected as f64 / self.fault_s.len().max(1) as f64
    }
}

/// Runs `unit` (a figure, a simulation) until `--seconds` have passed,
/// with a batch of side samples before each unit and after the last,
/// and records each unit's peak RSS: a whole-run peak would grow with
/// the number of units a run fits in.
/// The traced pass runs the unit twice, untraced then traced, for the
/// tracing overhead.
fn run_units<U>(
    opts: &Opts,
    side: &mut Side,
    inp: &Inputs,
    report: &mut Report,
    mut unit: impl FnMut() -> U,
) -> Result<Vec<U>, String> {
    let mut units = Vec::new();
    side.batch(opts, inp, report)?;
    if opts.trace {
        spans::arm(false);
        units.push(unit());
        spans::arm(true);
        units.push(unit());
        return Ok(units);
    }
    let start = Instant::now();
    while units.is_empty() || secs(start) < opts.seconds {
        crate::reset_peak_rss();
        units.push(unit());
        side.rss_mb.push(crate::peak_rss_mb());
        side.batch(opts, inp, report)?;
    }
    Ok(units)
}

/// What one saturation probe cost.
#[derive(Debug, Clone, Copy)]
struct Probe {
    secs: f64,
    saturated: bool,
    ejected: u64,
    cycles: u64,
}

/// One run of the figure slice.
struct FigureRun {
    values: [f64; 8],
    wall_s: f64,
    idle_s: f64,
    probes: Vec<Probe>,
}

/// Runs the 8 cells over `threads` workers, each cell on a serial
/// engine. Every saturation probe is timed from the search's verdict
/// closure; with the plain `saturated` verdict this is exactly
/// `saturation_throughput`.
fn run_figure(inp: &Inputs, seed: u64, threads: usize) -> FigureRun {
    let scale = Scale::Quick;
    let next = AtomicUsize::new(0);
    let values = Mutex::new([0.0; 8]);
    let all_probes = Mutex::new(Vec::new());
    let start = Instant::now();
    let busy: Vec<f64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut busy = 0.0;
                    loop {
                        let Some(&i) = CELL_ORDER.get(next.fetch_add(1, Ordering::Relaxed)) else {
                            return busy;
                        };
                        let t = Instant::now();
                        let _cell = span("fanout.cell");
                        let (sel, mech) = (i / 2, i % 2);
                        let mut sim = scale.sim_config();
                        sim.seed = seed ^ ((sel as u64) << 10) ^ mech as u64;
                        let cfg = SweepConfig {
                            graph: inp.net.graph(),
                            params: *inp.net.params(),
                            table: &inp.tables[sel],
                            sp_table: None,
                            mechanism: MECHANISMS[mech],
                            faults: None,
                            sim,
                            threads: 1,
                        };
                        let res = scale.saturation_resolution();
                        // The verdict closure is `Fn`: log through a RefCell.
                        let log = RefCell::new((Instant::now(), Vec::new()));
                        let value = saturation_search(&cfg, &inp.dests, res, |r: &RunResult| {
                            let mut log = log.borrow_mut();
                            let probe = Probe {
                                secs: secs(log.0),
                                saturated: r.saturated,
                                ejected: r.ejected,
                                cycles: r.measured_cycles,
                            };
                            log.1.push(probe);
                            log.0 = Instant::now();
                            r.saturated
                        });
                        all_probes.lock().expect("probe log poisoned").extend(log.into_inner().1);
                        values.lock().expect("values poisoned")[i] = value;
                        busy += secs(t);
                    }
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("figure worker panicked")).collect()
    });
    let wall_s = secs(start);
    FigureRun {
        values: values.into_inner().expect("values poisoned"),
        wall_s,
        idle_s: busy.iter().map(|b| wall_s - b).sum(),
        probes: all_probes.into_inner().expect("probe log poisoned"),
    }
}

/// `fig7_slice`.
pub fn fig7(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut side, inp) = Side::first(opts, RrgParams::small(), &SELECTIONS, FIG7_BATCH)?;
    let threads = opts.nproc;
    let runs = run_units(opts, &mut side, &inp, &mut report, || {
        let run = run_figure(&inp, opts.seed, threads);
        eprintln!("figure: {:.3} s, workers idle {:.3} s", run.wall_s, run.idle_s);
        run
    })?;
    for run in &runs {
        report.attempted += 8;
        report.check(oracle::check_fig7(opts.seed, &run.values));
    }
    if runs.iter().any(|r| r.values != runs[0].values) {
        report.error("figure values differ between repeats of the same inputs");
    }

    for (i, v) in runs[0].values.iter().enumerate() {
        let name = format!("sat.{}.{}", SELECTIONS[i / 2].name(), MECHANISMS[i % 2].name());
        report.set(&name, *v, "pkt/node/cycle");
    }
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    // Per-probe wall time: one simulation at one rate, whatever the
    // fan-out around it does.
    let probe_us: Vec<f64> =
        runs.iter().flat_map(|r| r.probes.iter().map(|p| p.secs * 1e6)).collect();
    let probe_lat = Summary::of(&probe_us).ok_or("no probes ran")?;
    let idle: Vec<f64> = runs.iter().map(|r| r.idle_s).collect();
    report.set("figure_s", median(&walls).unwrap_or(0.0), "s");
    report.set("figures", runs.len() as f64, "count");
    report.set("fanout.threads", threads as f64, "count");
    report.set("fanout.idle_s", median(&idle).unwrap_or(0.0), "s");
    report.set("probes.samples", probe_lat.n as f64, "count");

    if opts.trace {
        let probes = &runs[1].probes;
        let probe_ms: Vec<f64> = probes.iter().map(|p| p.secs * 1e3).collect();
        let saturated = probes.iter().filter(|p| p.saturated).count();
        report.set("flitsim.probes", probes.len() as f64, "count");
        report.set("flitsim.probe_ms", median(&probe_ms).unwrap_or(0.0), "ms");
        report.set(
            "flitsim.saturated_share",
            saturated as f64 / probes.len().max(1) as f64,
            "ratio",
        );
        let sim = SimWork {
            secs: probe_ms.iter().sum::<f64>() / 1e3,
            packets: probes.iter().map(|p| p.ejected).sum(),
            cycles: probes.iter().map(|p| p.cycles).sum(),
        };
        layer_metrics(&inp, &side, &mut report, sim, runs[1].wall_s / runs[0].wall_s)?;
    } else {
        side.report(&mut report);
        report.set("work_s", median(&walls).unwrap_or(0.0), "s");
        report.set("p50_us", probe_lat.p50, "us");
        report.set("p99_us", probe_lat.p99, "us");
    }
    Ok(report)
}

/// `fig8_point`.
pub fn fig8(opts: &Opts) -> Result<Report, String> {
    const SELECTION: [PathSelection; 1] = [PathSelection::REdKsp(8)];
    let mut report = Report::default();
    let (mut side, inp) = Side::first(opts, RrgParams::medium(), &SELECTION, FIG8_BATCH)?;
    let mut cfg = Scale::Quick.sim_config();
    cfg.seed = opts.seed;
    // One simulation: (result, seconds in Simulator::new, total seconds).
    let sims = run_units(opts, &mut side, &inp, &mut report, || {
        let t = Instant::now();
        let mut sim = {
            let _s = span("flitsim.new");
            Simulator::new(
                inp.net.graph(),
                *inp.net.params(),
                &inp.tables[0],
                None,
                Mechanism::KspAdaptive,
                inp.dests.clone(),
                FIG8_RATE,
                cfg,
            )
        };
        let new_s = secs(t);
        let result = {
            let _s = span("flitsim.run");
            sim.run()
        };
        eprintln!("simulation: {:.3} s", secs(t));
        (result, new_s, secs(t))
    })?;
    for (result, _, _) in &sims {
        report.attempted += 1;
        report.check(oracle::check_fig8(opts.seed, result));
    }
    if sims.iter().any(|s| s.0 != sims[0].0) {
        report.error("simulation results differ between repeats of the same inputs");
    }

    let walls: Vec<f64> = sims.iter().map(|s| s.2).collect();
    let sim_s = median(&walls).unwrap_or(0.0);
    let first = &sims[0].0;
    report.set("sim_cycles_per_s", f64::from(cfg.total_cycles()) / sim_s, "1/s");
    report.set("simulations", sims.len() as f64, "count");
    report.set("sim.generated", first.generated as f64, "count");
    report.set("sim.ejected", first.ejected as f64, "count");
    report.set("sim.avg_latency", first.avg_latency, "cycles");

    if opts.trace {
        let (result, new_s, wall_s) = &sims[1];
        report.set("flitsim.probes", 1.0, "count");
        report.set("flitsim.saturated_share", f64::from(u8::from(result.saturated)), "ratio");
        let sim = SimWork {
            secs: wall_s - new_s,
            packets: result.ejected,
            cycles: result.measured_cycles,
        };
        layer_metrics(&inp, &side, &mut report, sim, sims[1].2 / sims[0].2)?;
    } else {
        // One simulation per unit, so these alias `work_s` (p50) and the
        // slowest simulation of the run (p99); see the README.
        let us: Vec<f64> = walls.iter().map(|s| s * 1e6).collect();
        let lat = Summary::of(&us).ok_or("no simulation ran")?;
        side.report(&mut report);
        report.set("work_s", sim_s, "s");
        report.set("p50_us", lat.p50, "us");
        report.set("p99_us", lat.p99, "us");
    }
    Ok(report)
}

/// The traced pass's per-layer metrics: spans recorded so far, plus a
/// `Simulator::new` per table and the lookup probe.
fn layer_metrics(
    inp: &Inputs,
    side: &Side,
    report: &mut Report,
    sim: SimWork,
    overhead_ratio: f64,
) -> Result<(), String> {
    for table in &inp.tables {
        let _s = span("flitsim.new");
        drop(Simulator::new(
            inp.net.graph(),
            *inp.net.params(),
            table,
            None,
            Mechanism::KspAdaptive,
            inp.dests.clone(),
            FIG8_RATE,
            Scale::Quick.sim_config(),
        ));
    }
    let pairs = inp.pairs.materialize(inp.net.graph().num_nodes());
    let get_ns = layers::get_ns(&inp.tables[0], &pairs, 0.2)?;
    let extras = Extras {
        get_ns,
        table_bytes: inp.tables.iter().map(|t| t.resident_bytes() as f64).sum(),
        cache_file_bytes: side.cache_file_bytes as f64,
        affected_pairs: side.affected_mean(),
        sim,
        overhead_ratio,
    };
    crate::finish_trace(report, extras);
    Ok(())
}

//! Timed calls into each layer's public functions, shared by the
//! workloads: fault rounds on a path table, cache store and load, path
//! lookups, and the cost of one `jellyfish_obs::span`.

use crate::report::Report;
use crate::spans::{self, span, Record};
use crate::stats::median;
use jellyfish_routing::cache::{encode_table, CacheKey};
use jellyfish_routing::{PairSet, PathSelection, PathTable};
use jellyfish_topology::{DegradedGraph, FaultKind, FaultPlan, Graph, NodeId};
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

/// Share of links failed in one fault round.
pub const FAULT_RATE: f64 = 0.02;

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The undirected links of a seeded 2% link-fault plan.
pub fn fault_links(graph: &Graph, seed: u64) -> Vec<(NodeId, NodeId)> {
    FaultPlan::random_links(graph, FAULT_RATE, 0, seed)
        .events()
        .iter()
        .filter_map(|ev| match ev.kind {
            FaultKind::Link { u, v } => Some((u, v)),
            FaultKind::Switch { .. } => None,
        })
        .collect()
}

/// Fails `links` and reroutes `table` the way the daemon's
/// `POST /faults` does (clone, strip dead paths, repair the affected
/// pairs); checks that no path still crosses a failed link. Returns the
/// round's seconds and the number of affected pairs.
pub fn fault_round(
    graph: &Graph,
    table: &PathTable,
    links: &[(NodeId, NodeId)],
    seed: u64,
) -> Result<(f64, usize), String> {
    let mut view = DegradedGraph::new(graph);
    for &(u, v) in links {
        view.fail_link(u, v);
    }
    let t = Instant::now();
    let mut faulted = {
        let _s = span("routing.clone");
        table.clone()
    };
    let report = {
        let _s = span("routing.apply_faults");
        faulted.apply_faults(&view)
    };
    let affected = report.affected_pairs();
    {
        let _s = span("routing.repair");
        faulted.repair(&view, &affected, seed);
    }
    let took = secs(t);
    for (s, d, set) in faulted.entries() {
        if let Some(p) = set.iter().find(|p| !view.path_is_live(p)) {
            return Err(format!("fault round left a dead path {p:?} for ({s},{d})"));
        }
    }
    Ok((took, affected.len()))
}

/// Stores `table` the way `PathCache` does (encode, write the `.ptab`
/// file under `dir`); returns the file's size.
pub fn cache_store(
    dir: &Path,
    graph: &Graph,
    table: &PathTable,
    selection: PathSelection,
    pairs: &PairSet,
    seed: u64,
) -> Result<u64, String> {
    let key = CacheKey::new(graph, selection, pairs, seed);
    let path = dir.join(key.file_name());
    let _s = span("routing.cache_store");
    let bytes = encode_table(table, &key);
    std::fs::write(&path, &bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(bytes.len() as u64)
}

/// The span name for computing a selection's table.
pub fn compute_span(selection: PathSelection) -> &'static str {
    match selection {
        PathSelection::Ksp(_) => "routing.compute.ksp",
        PathSelection::RKsp(_) => "routing.compute.rksp",
        PathSelection::EdKsp(_) => "routing.compute.edksp",
        PathSelection::REdKsp(_) => "routing.compute.redksp",
        _ => "routing.compute.other",
    }
}

/// Mean ns per `PathTable::get` plus a walk over every hop of the
/// returned paths, over `pairs` (all of which the table must cover).
pub fn get_ns(table: &PathTable, pairs: &[(NodeId, NodeId)], min_secs: f64) -> Result<f64, String> {
    let _s = span("routing.get");
    let t = Instant::now();
    let mut lookups = 0u64;
    let mut sum = 0u64;
    while lookups == 0 || secs(t) < min_secs {
        for &(s, d) in pairs {
            let set = table.get(s, d).ok_or_else(|| format!("pair ({s},{d}) not in the table"))?;
            for p in set.iter() {
                sum = sum.wrapping_add(p.iter().map(|&n| u64::from(n)).sum::<u64>());
            }
        }
        lookups += pairs.len() as u64;
    }
    std::hint::black_box(sum);
    Ok(t.elapsed().as_nanos() as f64 / lookups as f64)
}

/// Mean ns per `jellyfish_obs::span` open plus drop, on `threads`
/// threads started together.
pub fn obs_span_ns(threads: usize, iters: u64) -> f64 {
    let barrier = Barrier::new(threads);
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    let t = Instant::now();
                    for _ in 0..iters {
                        drop(std::hint::black_box(jellyfish_obs::span("perfbench.obs_probe")));
                    }
                    t.elapsed().as_nanos() as f64 / iters as f64
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("obs probe thread panicked")).collect()
    });
    per_thread.iter().sum::<f64>() / threads as f64
}

/// Simulator work the traced pass observed.
pub struct SimWork {
    /// Host seconds spent simulating.
    pub secs: f64,
    /// Packets ejected.
    pub packets: u64,
    /// Cycles measured.
    pub cycles: u64,
}

/// Per-layer values that are not span durations.
pub struct Extras {
    /// `routing.get_ns`.
    pub get_ns: f64,
    /// Resident bytes of the workload's tables.
    pub table_bytes: f64,
    /// Bytes of the workload's `.ptab` files.
    pub cache_file_bytes: f64,
    /// Mean pairs a fault round touched.
    pub affected_pairs: f64,
    /// Simulator work.
    pub sim: SimWork,
    /// Traced over untraced wall time of the workload's unit of work.
    pub overhead_ratio: f64,
}

/// Fills every per-layer metric from the recorded spans plus `extras`,
/// and runs the `obs` span probe.
pub fn fill(report: &mut Report, records: &[Record], extras: Extras) {
    let count = |name: &str| spans::durations(records, name).len().max(1) as f64;
    let total_ms = |name: &str| spans::durations(records, name).iter().sum::<f64>() / 1e6;
    let median_ms = |name: &str| median(&spans::durations(records, name)).unwrap_or(0.0) / 1e6;
    let cold = count("setup.cold");
    let mut compute = 0.0;
    for sel in ["ksp", "rksp", "edksp", "redksp"] {
        let name = format!("routing.compute.{sel}");
        let ms =
            records.iter().filter(|r| r.name == name).map(|r| r.ns() as f64).sum::<f64>() / 1e6;
        if ms > 0.0 {
            report.set(&format!("routing.compute_ms.{sel}"), ms / cold, "ms");
            compute += ms / cold;
        }
    }
    let rounds = count("fault.round");
    report.set("topology.build_ms", median_ms("topology.build"), "ms");
    report.set("routing.compute_ms", compute, "ms");
    report.set("routing.table_bytes", extras.table_bytes, "bytes");
    report.set("routing.get_ns", extras.get_ns, "ns");
    report.set("routing.clone_ms", total_ms("routing.clone") / rounds, "ms");
    report.set("routing.apply_faults_ms", total_ms("routing.apply_faults") / rounds, "ms");
    report.set("routing.repair_ms", total_ms("routing.repair") / rounds, "ms");
    report.set("routing.affected_pairs", extras.affected_pairs, "count");
    report.set("routing.cache_store_ms", total_ms("routing.cache_store"), "ms");
    report.set("routing.cache_load_ms", total_ms("routing.cache_load") / count("setup.warm"), "ms");
    report.set("routing.cache_file_bytes", extras.cache_file_bytes, "bytes");
    report.set("flitsim.new_ms", median_ms("flitsim.new"), "ms");
    report.set(
        "flitsim.ns_per_packet",
        extras.sim.secs * 1e9 / extras.sim.packets.max(1) as f64,
        "ns",
    );
    report.set("flitsim.cycles", extras.sim.cycles as f64, "count");
    report.set("flitsim.packets", extras.sim.packets as f64, "count");
    report.set("obs.span_ns_1t", obs_span_ns(1, OBS_ITERS), "ns");
    report.set("obs.span_ns_2t", obs_span_ns(2, OBS_ITERS), "ns");
    report.set("trace.overhead_ratio", extras.overhead_ratio, "ratio");
}

/// `jellyfish_obs::span` calls per thread in the obs probe.
const OBS_ITERS: u64 = 200_000;

//! Output oracles. Any mismatch makes the run incorrect.
//!
//! At [`DEFAULT_SEED`] the simulated statistics must equal references
//! recorded from the program as it was when the benchmark was written;
//! the program is deterministic, so any change to them is a change in
//! results, not noise. At other seeds structural checks apply.

use jellyfish_flitsim::RunResult;
use jellyfish_obs::json::{parse_json, JsonValue};
use jellyfish_routing::PathSet;
use jellyfish_topology::{Graph, NodeId};
use std::collections::HashSet;
use std::fmt::Write as _;

/// The seed whose outputs are pinned exactly.
pub const DEFAULT_SEED: u64 = 1;

/// fig7_slice at [`DEFAULT_SEED`]: saturation throughput per cell,
/// selections KSP, rKSP, EDKSP, rEDKSP × mechanisms random,
/// KSP-adaptive.
pub const FIG7_REFERENCE: [f64; 8] = [0.34, 0.76, 0.6, 0.76, 0.38, 0.76, 0.68, 0.76];

/// fig8_point at [`DEFAULT_SEED`]: `(generated, ejected, avg_latency
/// bits, saturated)`.
pub const FIG8_REFERENCE: (u64, u64, u64, bool) =
    (1_800_129, 1_799_945, 4_629_040_955_647_476_228, false);

/// Saturation-search granularity the figures use.
const RESOLUTION: f64 = 0.02;

/// Checks the 8 saturation values of fig7_slice.
pub fn check_fig7(seed: u64, values: &[f64; 8]) -> Result<(), String> {
    if seed == DEFAULT_SEED {
        if values != &FIG7_REFERENCE {
            return Err(format!(
                "fig7_slice saturation values {values:?} differ from the reference {FIG7_REFERENCE:?}"
            ));
        }
        return Ok(());
    }
    for v in values {
        let steps = v / RESOLUTION;
        if !(*v > 0.0 && *v <= 1.0) || (steps - steps.round()).abs() > 1e-6 {
            return Err(format!("saturation value {v} is not a grid rate in (0, 1]"));
        }
    }
    Ok(())
}

/// Checks the fig8_point simulation.
pub fn check_fig8(seed: u64, r: &RunResult) -> Result<(), String> {
    if seed == DEFAULT_SEED {
        let got = (r.generated, r.ejected, r.avg_latency.to_bits(), r.saturated);
        if got != FIG8_REFERENCE {
            return Err(format!(
                "fig8_point (generated, ejected, avg latency bits, saturated) = {got:?}, \
                 reference {FIG8_REFERENCE:?}"
            ));
        }
        return Ok(());
    }
    if r.saturated || r.ejected == 0 || !(r.avg_latency.is_finite() && r.avg_latency > 0.0) {
        return Err(format!(
            "fig8_point at load 0.2 must run unsaturated: saturated={} ejected={} avg_latency={}",
            r.saturated, r.ejected, r.avg_latency
        ));
    }
    Ok(())
}

/// The `/paths` body the daemon must send for a pair, rendered from an
/// independently computed table.
pub fn paths_body(src: NodeId, dst: NodeId, selection: &str, set: &PathSet) -> String {
    let mut out = format!(
        "{{\"src\":{src},\"dst\":{dst},\"selection\":\"{selection}\",\"k\":{},\"paths\":[",
        set.len()
    );
    for (i, path) in set.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, node) in path.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{node}");
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// An undirected link key.
pub fn link(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    (u.min(v), u.max(v))
}

/// Checks a `/paths` body served while `failed` links are down: a
/// well-formed answer for `(src, dst)` whose every path is a walk in
/// `graph` from `src` to `dst` avoiding the failed links.
pub fn check_faulted_body(
    body: &str,
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    failed: &HashSet<(NodeId, NodeId)>,
) -> Result<(), String> {
    let v = parse_json(body).map_err(|e| format!("unparseable /paths body: {e:?}"))?;
    let num = |key: &str| v.get(key).and_then(JsonValue::as_f64);
    if num("src") != Some(f64::from(src)) || num("dst") != Some(f64::from(dst)) {
        return Err(format!("body for ({src},{dst}) names another pair: {body}"));
    }
    let paths = v.get("paths").and_then(JsonValue::as_array).ok_or("body without paths")?;
    if num("k") != Some(paths.len() as f64) {
        return Err(format!("k does not match the path count: {body}"));
    }
    for p in paths {
        let nodes: Vec<NodeId> = p
            .as_array()
            .ok_or("path is not an array")?
            .iter()
            .map(|n| n.as_f64().map(|f| f as NodeId))
            .collect::<Option<_>>()
            .ok_or("path holds a non-number")?;
        if nodes.first() != Some(&src) || nodes.last() != Some(&dst) {
            return Err(format!("path {nodes:?} does not run from {src} to {dst}"));
        }
        for w in nodes.windows(2) {
            if !graph.has_edge(w[0], w[1]) {
                return Err(format!("path {nodes:?} uses a missing link {w:?}"));
            }
            if failed.contains(&link(w[0], w[1])) {
                return Err(format!("path {nodes:?} uses failed link {w:?}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_flitsim::RunResult;

    fn run(generated: u64, ejected: u64, avg_latency: f64, saturated: bool) -> RunResult {
        RunResult {
            offered: 0.2,
            accepted: 0.2,
            avg_latency,
            sample_latencies: Vec::new(),
            saturated,
            generated,
            ejected,
            measured_cycles: 2500,
            min_latency: 0,
            max_latency: 0,
            p50_latency: 0,
            p90_latency: 0,
            p99_latency: 0,
            p999_latency: 0,
            hop_histogram: Vec::new(),
            mean_link_utilization: 0.0,
            max_link_utilization: 0.0,
            dropped: 0,
            rerouted: 0,
        }
    }

    #[test]
    fn fig7_oracle_rejects_a_perturbed_value() {
        assert!(check_fig7(DEFAULT_SEED, &FIG7_REFERENCE).is_ok());
        let mut bad = FIG7_REFERENCE;
        bad[3] += RESOLUTION;
        assert!(check_fig7(DEFAULT_SEED, &bad).is_err());
        assert!(check_fig7(7, &[0.5; 8]).is_ok());
        let mut off_grid = [0.5; 8];
        off_grid[2] = 0.51;
        assert!(check_fig7(7, &off_grid).is_err());
        assert!(check_fig7(7, &[0.0; 8]).is_err());
    }

    #[test]
    fn fig8_oracle_rejects_a_perturbed_result() {
        let (g, e, lat, sat) = FIG8_REFERENCE;
        let good = run(g, e, f64::from_bits(lat), sat);
        assert!(check_fig8(DEFAULT_SEED, &good).is_ok());
        assert!(check_fig8(DEFAULT_SEED, &run(g, e + 1, f64::from_bits(lat), sat)).is_err());
        assert!(check_fig8(DEFAULT_SEED, &run(g, e, f64::from_bits(lat) + 1e-9, sat)).is_err());
        assert!(check_fig8(7, &run(10, 10, 30.0, false)).is_ok());
        assert!(check_fig8(7, &run(10, 10, 30.0, true)).is_err());
        assert!(check_fig8(7, &run(10, 0, f64::NAN, false)).is_err());
    }

    #[test]
    fn paths_oracles_reject_perturbed_bodies() {
        // A 4-cycle 0-1-2-3-0.
        let graph = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let set = PathSet::from_paths(&[vec![0, 1, 2], vec![0, 3, 2]]);
        let body = paths_body(0, 2, "rEDKSP(8)", &set);
        assert_eq!(
            body,
            "{\"src\":0,\"dst\":2,\"selection\":\"rEDKSP(8)\",\"k\":2,\"paths\":[[0,1,2],[0,3,2]]}"
        );
        let none = HashSet::new();
        assert!(check_faulted_body(&body, &graph, 0, 2, &none).is_ok());
        let failed: HashSet<_> = [link(2, 1)].into_iter().collect();
        assert!(check_faulted_body(&body, &graph, 0, 2, &failed).is_err());
        let rerouted = paths_body(0, 2, "rEDKSP(8)", &PathSet::from_paths(&[vec![0, 3, 2]]));
        assert!(check_faulted_body(&rerouted, &graph, 0, 2, &failed).is_ok());
        assert!(check_faulted_body(&rerouted, &graph, 0, 1, &failed).is_err(), "wrong pair");
        let bogus = body.replace("[0,3,2]", "[0,2]");
        assert!(check_faulted_body(&bogus, &graph, 0, 2, &none).is_err(), "0-2 is no link");
        let wrong_k = body.replace("\"k\":2", "\"k\":3");
        assert!(check_faulted_body(&wrong_k, &graph, 0, 2, &none).is_err());
        assert!(check_faulted_body("{", &graph, 0, 2, &none).is_err());
    }
}

//! What one run prints.
//!
//! Human-readable lines first (every metric by name and unit, the
//! workload-specific ones included), then one `report` JSON line with
//! the host block, then the machine-readable result line: exactly
//! `correct`, `attempted`, `failed` and `metrics`, the latter holding
//! [`END_TO_END`] on the untraced pass and [`PER_LAYER`] on the traced.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json` or the benchmark's README.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// End-to-end metrics every workload reports on its untraced pass.
pub const END_TO_END: [&str; 7] =
    ["setup_s", "restart_s", "rss_mb", "work_s", "fault_ms", "p50_us", "p99_us"];

/// Per-layer metrics every workload reports on its traced pass.
pub const PER_LAYER: [&str; 18] = [
    "topology.build_ms",
    "routing.compute_ms",
    "routing.table_bytes",
    "routing.get_ns",
    "routing.clone_ms",
    "routing.apply_faults_ms",
    "routing.repair_ms",
    "routing.affected_pairs",
    "routing.cache_store_ms",
    "routing.cache_load_ms",
    "routing.cache_file_bytes",
    "flitsim.new_ms",
    "flitsim.ns_per_packet",
    "flitsim.cycles",
    "flitsim.packets",
    "obs.span_ns_1t",
    "obs.span_ns_2t",
    "trace.overhead_ratio",
];

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Every metric, in the order measured.
    pub values: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Oracle failures; any entry makes the run incorrect.
    pub errors: Vec<String>,
}

impl Report {
    /// Records a metric (a later value of the same name replaces it).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.retain(|m| m.name != name);
        self.values.push(Metric { name: name.to_string(), value, unit });
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Records an oracle failure.
    pub fn error(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    /// Folds an oracle verdict in.
    pub fn check(&mut self, verdict: Result<(), String>) {
        if let Err(e) = verdict {
            self.error(e);
        }
    }

    /// Whether every oracle passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Checks that every name in `names` was recorded as a finite,
    /// positive number.
    pub fn validate(&self, names: &[&str]) -> Result<(), String> {
        for name in names {
            match self.get(name) {
                None => return Err(format!("metric {name} was not measured")),
                Some(v) if !(v.is_finite() && v > 0.0) => {
                    return Err(format!("metric {name} = {v} is not a positive number"))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// The human-readable lines: every metric, then oracle failures.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for m in &self.values {
            let _ = writeln!(out, "{:<36} {:>16} {}", m.name, fmt_value(m.value), m.unit);
        }
        for e in &self.errors {
            let _ = writeln!(out, "ORACLE FAILED: {e}");
        }
        out
    }

    /// The result line, carrying the metrics named in `names`.
    pub fn result_line(&self, names: &[&str]) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let picked = names.iter().filter_map(|n| self.values.iter().find(|m| m.name == *n));
        write_metrics(&mut out, picked);
        out.push_str("}}");
        out
    }
}

fn write_metrics<'a>(out: &mut String, metrics: impl Iterator<Item = &'a Metric>) {
    for (i, m) in metrics.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
}

/// A JSON number with every digit the measurement has.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// The `host` block: logical CPUs and CPU model.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("{{\"nproc\":{nproc},\"cpu_model\":\"{}\"}}", model.replace(['"', '\\'], "_"))
}

/// The `report` line: workload, seed, host and every metric.
pub fn report_json(workload: &str, seed: u64, trace: bool, report: &Report) -> String {
    let mut out = format!(
        "{{\"report\":{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{trace},\"host\":{},\"metrics\":{{",
        host_json()
    );
    write_metrics(&mut out, report.values.iter());
    out.push_str("},\"errors\":[");
    for (i, e) in report.errors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", e.replace(['"', '\\'], "'"));
    }
    out.push_str("]}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_only_the_named_metrics() {
        let mut r = Report { attempted: 3, ..Report::default() };
        r.set("setup_s", 0.8127, "s");
        r.set("extra", 1.0, "count");
        assert_eq!(
            r.result_line(&["setup_s"]),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
        r.error("boom");
        assert!(r.result_line(&["setup_s"]).starts_with("{\"correct\":false"));
        assert!(report_json("w", 1, false, &r).contains("\"extra\""));
    }

    #[test]
    fn validate_requires_every_named_metric_positive() {
        let mut r = Report::default();
        r.set("a", 1.0, "s");
        assert!(r.validate(&["a"]).is_ok());
        assert!(r.validate(&["a", "b"]).is_err());
        r.set("b", 0.0, "s");
        assert!(r.validate(&["a", "b"]).is_err());
        r.set("b", 2.0, "s");
        assert!(r.validate(&["a", "b"]).is_ok());
        assert_eq!(r.values.len(), 2);
    }
}

//! The repository's benchmark: end-to-end time of the paper's figures,
//! paper-scale simulator speed, and the routing daemon over real TCP
//! under fault churn, with a traced per-layer split.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig7_slice|fig8_point|serve_tcp --seed N --seconds S --trace 0|1
//! ```
//!
//! See `perfbench/README.md` for the workloads and metrics.

mod fig;
mod http;
mod layers;
mod load;
mod oracle;
mod report;
mod serve;
mod spans;
mod stats;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line plus the pinned environment.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measured work.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Worker threads for fan-outs: the host's logical CPUs.
    pub nproc: usize,
    /// Per-run scratch directory, removed at exit.
    pub scratch: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload fig7_slice|fig8_point|serve_tcp \
                     --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["fig7_slice", "fig8_point", "serve_tcp"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("run-{}", std::process::id()));
    Ok(Opts {
        workload,
        seed: seed.unwrap_or(oracle::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        nproc,
        scratch,
    })
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`] (or since start), MB.
pub fn peak_rss_mb() -> f64 {
    jellyfish_bench::serve::peak_rss_bytes().unwrap_or(0) as f64 / 1e6
}

/// Resets the kernel's peak-RSS mark to the current RSS (Linux
/// `clear_refs` mode 5), so the next [`peak_rss_mb`] covers only the
/// work in between. Where that is unsupported the peak stays
/// process-wide.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Ends the traced pass: writes the spans out, prints their self times,
/// and fills the per-layer metrics from them.
pub fn finish_trace(report: &mut Report, extras: layers::Extras) {
    spans::arm(false);
    let records = spans::take();
    eprintln!("{:<28} {:>8} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
    for (name, (count, total, own)) in spans::totals(&records) {
        eprintln!("{name:<28} {count:>8} {:>12.3} {:>12.3}", total as f64 / 1e6, own as f64 / 1e6);
    }
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = out.join(format!("trace-{}.json", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&file, spans::to_chrome_json(&records)))
    {
        eprintln!("cannot write {}: {e}", file.display());
    } else {
        eprintln!("spans written to {}", file.display());
    }
    layers::fill(report, &records, extras);
}

fn main() -> ExitCode {
    // Pin the environment before any thread starts: simulations run on
    // the serial engine whatever the caller's environment says, and table
    // computation and repair fan out over every logical CPU, except on
    // fig7_slice. Its 36-switch tables take milliseconds, where waking a
    // second CPU costs more than it saves (a fault round took 5.9-11 ms
    // on two threads against 4.6-5.3 ms on one, on a shared 2-CPU VM)
    // and the cost follows the host's load rather than the program.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let table_threads = if opts.workload == "fig7_slice" { 1 } else { opts.nproc };
    std::env::set_var("RAYON_NUM_THREADS", table_threads.to_string());
    std::env::remove_var("JELLYFISH_SIM_THREADS");
    if let Err(e) = std::fs::create_dir_all(&opts.scratch) {
        eprintln!("cannot create {}: {e}", opts.scratch.display());
        return ExitCode::FAILURE;
    }
    let _scratch = Scratch(opts.scratch.clone());
    spans::arm(opts.trace);

    let result = match opts.workload.as_str() {
        "fig7_slice" => fig::fig7(&opts),
        "fig8_point" => fig::fig8(&opts),
        _ => serve::serve_tcp(&opts),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{} failed: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    let names: &[&str] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    if let Err(e) = report.validate(names) {
        print!("{}", report.text());
        eprintln!("{} measured no usable result: {e}", opts.workload);
        return ExitCode::FAILURE;
    }
    print!("{}", report.text());
    println!("{}", report::report_json(&opts.workload, opts.seed, opts.trace, &report));
    println!("{}", report.result_line(names));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! `serve_tcp`: the routing daemon over loopback TCP.
//!
//! The daemon is `jellyfish_bench::serve::run` on a `127.0.0.1:0`
//! listener, serving one fixed RRG(256,24,19) instance (its deployment
//! configuration) with an all-pairs rEDKSP(8) table
//! through a `PathCache` on a fresh directory. A generator with two
//! keep-alive connections drives it through four phases:
//!
//! * capacity — closed loop, back to back; its round trips are the
//!   gated `p50_us` and `p99_us`;
//! * steady — open loop at [`STEADY_RATE`] requests/s;
//! * churn — the steady schedule plus a fault round every
//!   [`ROUND_EVERY_S`] seconds on a third connection: `POST /faults`
//!   with an explicit 2% link list drawn from the seed, a hold of
//!   [`FAULT_HOLD_S`], then `POST /repair`;
//! * restart — stop the daemon, install a fresh `PathCache` on the same
//!   directory, start again, time to the first `200`.
//!
//! The benchmark seed draws the request pairs and the links of the
//! fault rounds. Every `/paths` answer is checked: outside fault
//! windows it must be byte-equal to the body rendered from an
//! independently computed table; inside one, no path may cross a link
//! failed in that round.

use crate::fig::FABRIC_SEED;
use crate::http::Conn;
use crate::layers::{self, secs, Extras, SimWork};
use crate::load::{self, Clock, PhaseLog, WallClock};
use crate::oracle::{self, link};
use crate::report::Report;
use crate::spans::{self, span};
use crate::stats::{median, Summary};
use crate::Opts;
use jellyfish::prelude::*;
use jellyfish::JellyfishNetwork;
use jellyfish_bench::serve::{self, ServeState};
use jellyfish_bench::Scale;
use jellyfish_flitsim::Simulator;
use jellyfish_routing::PathCache;
use jellyfish_topology::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The daemon's fabric.
pub const PARAMS: RrgParams = RrgParams::new(256, 24, 19);
/// The daemon's selection.
pub const SELECTION: PathSelection = PathSelection::REdKsp(8);
/// Generator connections carrying `/paths`.
const CONNS: usize = 2;
/// Open-loop rate over all connections, requests per second.
pub const STEADY_RATE: f64 = 2_000.0;
/// Seconds between fault rounds.
pub const ROUND_EVERY_S: f64 = 2.0;
/// Seconds a round's faults stay applied before `POST /repair`.
pub const FAULT_HOLD_S: f64 = 0.5;
/// Cold daemon starts before the phases (the last one serves them) and
/// after them: spread over the run so one burst of host noise does not
/// skew the median.
const COLD_STARTS: (usize, usize) = (2, 2);
/// Warm restarts before each cold start after the phases, for the same
/// reason.
const RESTARTS_EACH: usize = 8;
/// Per-call socket timeout: a wedged daemon fails the run, not hangs it.
const TIMEOUT: Duration = Duration::from_secs(20);

/// A running daemon.
struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

impl Daemon {
    /// Installs a fresh `PathCache` on `dir` and starts the daemon;
    /// returns it with the seconds until it answered its first `200`.
    fn start(dir: &Path) -> Result<(Self, f64), String> {
        let cache = PathCache::new(dir).map_err(|e| format!("cache dir: {e}"))?;
        jellyfish_routing::cache::install_global(cache);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let t = Instant::now();
        let thread = std::thread::spawn(move || {
            let state =
                ServeState::new(PARAMS, FABRIC_SEED, SELECTION).map_err(io::Error::other)?;
            serve::run(Arc::new(state), listener)
        });
        let daemon = Daemon { addr, thread };
        let first = Conn::connect(addr, TIMEOUT)
            .and_then(|mut c| c.call("GET", "/paths/0/1", ""))
            .map_err(|e| format!("daemon never answered: {e}"));
        let took = secs(t);
        match first {
            Ok(r) if r.status == 200 => Ok((daemon, took)),
            other => {
                let _ = daemon.stop();
                Err(format!("first /paths answer: {other:?}"))
            }
        }
    }

    /// `POST /shutdown`, then waits for the accept loop to exit.
    fn stop(self) -> Result<(), String> {
        let answer =
            Conn::connect(self.addr, TIMEOUT).and_then(|mut c| c.call("POST", "/shutdown", ""));
        let joined = self.thread.join().map_err(|_| "daemon thread panicked".to_string())?;
        joined.map_err(|e| format!("daemon failed: {e}"))?;
        match answer {
            Ok(r) if r.status == 200 => Ok(()),
            other => Err(format!("shutdown answer: {other:?}")),
        }
    }
}

/// The independently computed table the answers are checked against.
struct Golden {
    net: JellyfishNetwork,
    table: PathTable,
    name: String,
}

impl Golden {
    fn build() -> Result<Self, String> {
        let net = {
            let _s = span("topology.build");
            JellyfishNetwork::build(PARAMS, FABRIC_SEED)
                .map_err(|e| format!("cannot build RRG: {e}"))?
        };
        let table = {
            let _s = span(layers::compute_span(SELECTION));
            PathTable::compute(net.graph(), SELECTION, &PairSet::AllPairs, FABRIC_SEED)
        };
        Ok(Self { net, table, name: SELECTION.name() })
    }

    fn body(&self, src: NodeId, dst: NodeId) -> String {
        let set = self.table.get(src, dst).expect("all-pairs table covers every pair");
        oracle::paths_body(src, dst, &self.name, set)
    }

    fn uses_any(&self, src: NodeId, dst: NodeId, failed: &HashSet<(NodeId, NodeId)>) -> bool {
        let set = self.table.get(src, dst).expect("all-pairs table covers every pair");
        set.iter().any(|p| p.windows(2).any(|w| failed.contains(&link(w[0], w[1]))))
    }
}

/// One fault round: its links and when each step happened, as
/// nanoseconds since the phases' epoch plus one (0 = not yet).
struct Round {
    links: Vec<(NodeId, NodeId)>,
    failed: HashSet<(NodeId, NodeId)>,
    faults_sent: AtomicU64,
    faults_done: AtomicU64,
    repair_sent: AtomicU64,
    repair_done: AtomicU64,
}

impl Round {
    fn new(links: Vec<(NodeId, NodeId)>) -> Self {
        let failed = links.iter().map(|&(u, v)| link(u, v)).collect();
        Self {
            links,
            failed,
            faults_sent: AtomicU64::new(0),
            faults_done: AtomicU64::new(0),
            repair_sent: AtomicU64::new(0),
            repair_done: AtomicU64::new(0),
        }
    }

    fn body(&self) -> String {
        let list: Vec<String> = self.links.iter().map(|(u, v)| format!("[{u},{v}]")).collect();
        format!("{{\"links\":[{}]}}", list.join(","))
    }
}

/// Reads a round timestamp; unset reads as "not yet", i.e. never.
fn stamp(a: &AtomicU64) -> Option<u64> {
    match a.load(Ordering::SeqCst) {
        0 => None,
        t => Some(t - 1),
    }
}

fn set_stamp(a: &AtomicU64, t: u64) {
    a.store(t + 1, Ordering::SeqCst);
}

/// Checks one `/paths` answer for a request in flight over
/// `[sent, done]`, against the golden table and any fault round it
/// overlapped.
fn check_answer(
    golden: &Golden,
    rounds: &[Round],
    (src, dst): (NodeId, NodeId),
    body: &[u8],
    (sent, done): (u64, u64),
) -> Result<(), String> {
    let body = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    let expected = golden.body(src, dst);
    let matches_golden = body == expected;
    for r in rounds {
        let Some(faults_sent) = stamp(&r.faults_sent) else { continue };
        let faults_done = stamp(&r.faults_done).unwrap_or(u64::MAX);
        let repair_sent = stamp(&r.repair_sent).unwrap_or(u64::MAX);
        let repair_done = stamp(&r.repair_done).unwrap_or(u64::MAX);
        // Wholly inside the window: only the faulted table can answer.
        if sent >= faults_done && done <= repair_sent {
            if matches_golden && golden.uses_any(src, dst, &r.failed) {
                return Err(format!("({src},{dst}) still routed over a failed link: {body}"));
            }
            return oracle::check_faulted_body(body, golden.net.graph(), src, dst, &r.failed);
        }
        // Straddling an edge of the window: either table may answer.
        if !matches_golden && sent <= repair_done && done >= faults_sent {
            return oracle::check_faulted_body(body, golden.net.graph(), src, dst, &r.failed);
        }
    }
    if matches_golden {
        Ok(())
    } else {
        Err(format!("({src},{dst}) answered {body:?}, expected {expected:?}"))
    }
}

/// Everything one phase needs to issue and check requests.
struct PhaseCtx<'a> {
    golden: &'a Golden,
    rounds: &'a [Round],
    epoch: Instant,
    seed: u64,
    phase: u64,
    /// The first failure seen, for the report.
    first_failure: &'a Mutex<Option<String>>,
}

impl PhaseCtx<'_> {
    /// Issues `GET /paths` for `pair` on `conn`; true when the answer is
    /// a `200` that passes the oracle.
    fn call(&self, conn: &mut Conn, clock: &mut WallClock, pair: (NodeId, NodeId)) -> bool {
        let _s = span("load.request");
        let sent = clock.now();
        let target = format!("/paths/{}/{}", pair.0, pair.1);
        let answer = conn.call("GET", &target, "");
        let done = clock.now();
        let verdict = match answer {
            Ok(r) if r.status == 200 => {
                check_answer(self.golden, self.rounds, pair, &r.body, (sent, done))
            }
            Ok(r) => Err(format!("GET {target} answered {}", r.status)),
            Err(e) => Err(format!("GET {target}: {e}")),
        };
        if let Err(e) = &verdict {
            self.first_failure.lock().expect("failure slot poisoned").get_or_insert(e.clone());
        }
        verdict.is_ok()
    }

    /// Closed loop on every connection until `end` (ns since epoch).
    fn closed(&self, conns: &mut [Conn], end: u64) -> PhaseLog {
        self.each_conn(conns, |ctx, c, conn| {
            let mut clock = WallClock(ctx.epoch);
            let mut seq = PairStream::new(ctx.seed, ctx.phase, c);
            load::closed_loop(&mut clock, end, |clock, _| ctx.call(conn, clock, seq.next()))
        })
    }

    /// Open loop at [`STEADY_RATE`] over `[start, end)`.
    fn open(&self, conns: &mut [Conn], start: u64, end: u64) -> PhaseLog {
        let interval = (CONNS as f64 * 1e9 / STEADY_RATE) as u64;
        self.each_conn(conns, |ctx, c, conn| {
            let mut clock = WallClock(ctx.epoch);
            let mut seq = PairStream::new(ctx.seed, ctx.phase, c);
            let offset = interval * c / CONNS as u64;
            load::open_loop(&mut clock, start + offset, interval, end, |clock, _| {
                ctx.call(conn, clock, seq.next())
            })
        })
    }

    fn each_conn(
        &self,
        conns: &mut [Conn],
        run: impl Fn(&Self, u64, &mut Conn) -> PhaseLog + Sync,
    ) -> PhaseLog {
        std::thread::scope(|s| {
            let run = &run;
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| s.spawn(move || run(self, c as u64, conn)))
                .collect();
            let mut log = PhaseLog::default();
            for h in handles {
                log.merge(h.join().expect("generator thread panicked"));
            }
            log
        })
    }
}

/// A seeded stream of uniform random pairs `src != dst`, one per
/// connection and phase.
struct PairStream(StdRng);

impl PairStream {
    fn new(seed: u64, phase: u64, conn: u64) -> Self {
        Self(StdRng::seed_from_u64(seed ^ (phase << 40) ^ (conn << 32) ^ 0x5e7e))
    }

    fn next(&mut self) -> (NodeId, NodeId) {
        let n = PARAMS.switches as u64;
        let s = self.0.random_range(0..n);
        let d = (s + 1 + self.0.random_range(0..n - 1)) % n;
        (s as NodeId, d as NodeId)
    }
}

/// Runs the fault rounds of the churn phase on their own connection.
/// Returns the `POST /faults` latencies in seconds.
fn controller(
    addr: SocketAddr,
    rounds: &[Round],
    epoch: Instant,
    start: u64,
) -> Result<Vec<f64>, String> {
    let mut conn = Conn::connect(addr, TIMEOUT).map_err(|e| format!("control connection: {e}"))?;
    let mut clock = WallClock(epoch);
    let mut latencies = Vec::new();
    for (r, round) in rounds.iter().enumerate() {
        clock.wait_until(start + (r as f64 * ROUND_EVERY_S * 1e9) as u64);
        let _s = span("load.fault_round");
        let t = clock.now();
        set_stamp(&round.faults_sent, t);
        let answer =
            conn.call("POST", "/faults", &round.body()).map_err(|e| format!("/faults: {e}"))?;
        let done = clock.now();
        set_stamp(&round.faults_done, done);
        if answer.status != 200 {
            return Err(format!("/faults answered {}", answer.status));
        }
        latencies.push((done - t) as f64 / 1e9);
        clock.wait_until(done + (FAULT_HOLD_S * 1e9) as u64);
        set_stamp(&round.repair_sent, clock.now());
        let answer = conn.call("POST", "/repair", "").map_err(|e| format!("/repair: {e}"))?;
        set_stamp(&round.repair_done, clock.now());
        if answer.status != 200 {
            return Err(format!("/repair answered {}", answer.status));
        }
    }
    Ok(latencies)
}

/// Phase lengths, as shares of `--seconds`.
struct Schedule {
    capacity_s: f64,
    steady_s: f64,
    churn_s: f64,
}

impl Schedule {
    fn new(seconds: f64) -> Self {
        Self { capacity_s: 0.3 * seconds, steady_s: 0.15 * seconds, churn_s: 0.55 * seconds }
    }

    /// Fault rounds that fit wholly in the churn phase (at least one).
    fn rounds(&self) -> usize {
        ((self.churn_s / ROUND_EVERY_S).floor() as usize).max(1)
    }
}

fn ns(s: f64) -> u64 {
    (s * 1e9) as u64
}

/// `serve_tcp`.
pub fn serve_tcp(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let golden = Golden::build()?;
    let graph = golden.net.graph();

    // Cold starts, each on its own fresh cache directory; the last
    // daemon stays up for the phases.
    let mut setup_s = Vec::new();
    let cold_start = |i: usize, setup_s: &mut Vec<f64>| {
        let dir = opts.scratch.join(format!("cold-{i}"));
        let _s = span("daemon.cold_start");
        let (d, took) = Daemon::start(&dir)?;
        setup_s.push(took);
        Ok::<_, String>((d, dir))
    };
    let (mut daemon, mut dir) = cold_start(0, &mut setup_s)?;
    for i in 1..COLD_STARTS.0 {
        daemon.stop()?;
        (daemon, dir) = cold_start(i, &mut setup_s)?;
    }

    let sched = Schedule::new(opts.seconds);
    let rounds: Vec<Round> = (0..sched.rounds() as u64)
        .map(|r| Round::new(layers::fault_links(graph, opts.seed.wrapping_mul(1000) + r)))
        .collect();
    let mut conns = (0..CONNS)
        .map(|_| Conn::connect(daemon.addr, TIMEOUT))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("generator connection: {e}"))?;

    let first_failure = Mutex::new(None);
    let mut untraced_capacity = None;
    if opts.trace {
        // The same capacity phase untraced first, for the tracing overhead.
        spans::arm(false);
        let epoch = Instant::now();
        let (golden, first_failure) = (&golden, &first_failure);
        let ctx = PhaseCtx { golden, rounds: &[], epoch, seed: opts.seed, phase: 0, first_failure };
        untraced_capacity = Some(ctx.closed(&mut conns, ns(sched.capacity_s)));
        spans::arm(true);
    }
    let epoch = Instant::now();
    let cap_end = ns(sched.capacity_s);
    let steady_end = ns(sched.capacity_s + sched.steady_s);
    let churn_end = ns(sched.capacity_s + sched.steady_s + sched.churn_s);
    let ctx = |phase| PhaseCtx {
        golden: &golden,
        rounds: &rounds,
        epoch,
        seed: opts.seed,
        phase,
        first_failure: &first_failure,
    };
    crate::reset_peak_rss();
    let capacity = ctx(0).closed(&mut conns, cap_end);
    let steady = ctx(1).open(&mut conns, cap_end, steady_end);
    let (churn, fault_s) = std::thread::scope(|s| {
        let control = s.spawn(|| controller(daemon.addr, &rounds, epoch, steady_end));
        let churn = ctx(2).open(&mut conns, steady_end, churn_end);
        (churn, control.join().expect("controller panicked"))
    });
    let fault_s = fault_s?;
    let rss_mb = crate::peak_rss_mb();
    drop(conns);
    daemon.stop()?;

    // Warm restarts on the phases' cache directory, in runs between
    // the last cold starts.
    let mut restart_s = Vec::new();
    for i in 0..COLD_STARTS.1 {
        for _ in 0..RESTARTS_EACH {
            let _s = span("daemon.restart");
            let (d, took) = Daemon::start(&dir)?;
            restart_s.push(took);
            d.stop()?;
        }
        cold_start(COLD_STARTS.0 + i, &mut setup_s)?.0.stop()?;
    }
    eprintln!("cold starts (s): {setup_s:.3?}");
    eprintln!("restarts (s): {restart_s:.3?}");
    jellyfish_routing::cache::uninstall_global();

    // Accounting.
    let logs = [&capacity, &steady, &churn];
    let sent: u64 = logs.iter().map(|l| l.samples.len() as u64).sum();
    let failed: u64 = logs.iter().map(|l| l.failed()).sum();
    let unsent: u64 = logs.iter().map(|l| l.unsent).sum();
    report.attempted = sent + 2 * rounds.len() as u64 + (setup_s.len() + restart_s.len()) as u64;
    report.failed = failed;
    if let Some(first) = first_failure.into_inner().expect("failure slot poisoned") {
        report.error(format!("{failed} of {sent} /paths requests failed; first: {first}"));
    }
    let qps = capacity.ok_rate();
    let rtt =
        Summary::of(&capacity.latencies()).ok_or("no request completed in the capacity phase")?;
    let steady_lat =
        Summary::of(&steady.latencies()).ok_or("no request completed in the steady phase")?;
    let churn_lat =
        Summary::of(&churn.latencies()).ok_or("no request completed in the churn phase")?;
    let late: Vec<f64> =
        steady.samples.iter().chain(&churn.samples).map(|s| s.late() as f64).collect();
    let late = Summary::of(&late).ok_or("no open-loop request was sent")?;
    let fault_ms = median(&fault_s).unwrap_or(0.0) * 1e3;

    report.set("paths_qps", qps, "1/s");
    report.set("paths_rtt_p50_us", rtt.p50 / 1e3, "us");
    report.set("paths_rtt_p99_us", rtt.p99 / 1e3, "us");
    report.set("rtt.samples", rtt.n as f64, "count");
    if let Some((p, v)) = rtt.tail {
        report.set("rtt.resolvable_pct", p, "%");
        report.set("rtt.resolvable_us", v / 1e3, "us");
    }
    report.set("paths_p50_us", steady_lat.p50 / 1e3, "us");
    report.set("paths_p99_us", steady_lat.p99 / 1e3, "us");
    report.set("paths.samples", steady_lat.n as f64, "count");
    if let Some((p, v)) = steady_lat.tail {
        report.set("paths.resolvable_pct", p, "%");
        report.set("paths.resolvable_us", v / 1e3, "us");
    }
    report.set("churn_p99_us", churn_lat.p99 / 1e3, "us");
    report.set("churn.samples", churn_lat.n as f64, "count");
    if let Some((p, v)) = churn_lat.tail {
        report.set("churn.resolvable_pct", p, "%");
        report.set("churn.resolvable_us", v / 1e3, "us");
    }
    report.set("fault_rounds", rounds.len() as f64, "count");
    report.set("error_rate", (failed + unsent) as f64 / (sent + unsent).max(1) as f64, "ratio");
    report.set("load.unsent", unsent as f64, "count");
    report.set("load.late_us_p99", late.p99 / 1e3, "us");
    report.set("load.samples.capacity", capacity.samples.len() as f64, "count");
    report.set("load.samples.steady", steady.samples.len() as f64, "count");
    report.set("load.samples.churn", churn.samples.len() as f64, "count");
    eprintln!("capacity /paths round trip: {}", rtt.describe(1e-3, "us"));
    eprintln!("steady /paths: {}", steady_lat.describe(1e-3, "us"));
    eprintln!("churn  /paths: {}", churn_lat.describe(1e-3, "us"));

    if opts.trace {
        let untraced = untraced_capacity.expect("untraced capacity phase ran");
        let overhead = untraced.ok_rate() / qps;
        layer_metrics(opts, &golden, &rounds, &mut report, rtt.p50, overhead)?;
    } else {
        report.set("setup_s", median(&setup_s).unwrap_or(0.0), "s");
        report.set("restart_s", median(&restart_s).unwrap_or(0.0), "s");
        report.set("rss_mb", rss_mb, "MB");
        report.set("work_s", 1e3 / qps, "s");
        report.set("fault_ms", fault_ms, "ms");
        // The round trip the daemon sets. The steady phase's due-time
        // latencies stay on their own lines: while the daemon cannot keep
        // up with the schedule they measure the phase's length.
        report.set("p50_us", rtt.p50 / 1e3, "us");
        report.set("p99_us", rtt.p99 / 1e3, "us");
    }
    Ok(report)
}

/// `ServeState::dispatch` over `queries`, per-call ns.
fn dispatch_ns(state: &ServeState, queries: &[(NodeId, NodeId)]) -> Result<Vec<f64>, String> {
    let mut out = String::with_capacity(4096);
    let mut target = String::with_capacity(32);
    let mut times = Vec::with_capacity(queries.len());
    for &(s, d) in queries {
        target.clear();
        target.push_str(&format!("/paths/{s}/{d}"));
        let t = Instant::now();
        let resp = state.dispatch("GET", &target, "", &mut out);
        times.push(t.elapsed().as_nanos() as f64);
        if resp.status != 200 {
            return Err(format!("dispatch of {target} answered {}", resp.status));
        }
    }
    Ok(times)
}

/// Dispatches per second with `threads` threads for `secs_each` seconds.
fn dispatch_qps(
    state: &ServeState,
    queries: &[(NodeId, NodeId)],
    threads: usize,
    secs_each: f64,
) -> f64 {
    let targets: Vec<String> = queries.iter().map(|(s, d)| format!("/paths/{s}/{d}")).collect();
    let barrier = std::sync::Barrier::new(threads);
    let calls: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (targets, barrier) = (&targets, &barrier);
                s.spawn(move || {
                    let mut out = String::with_capacity(4096);
                    barrier.wait();
                    let start = Instant::now();
                    let mut n = 0u64;
                    while secs(start) < secs_each {
                        for target in targets.iter().skip(t * 97).take(256) {
                            std::hint::black_box(state.dispatch("GET", target, "", &mut out));
                            n += 1;
                        }
                    }
                    n
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("dispatch thread panicked")).sum()
    });
    calls as f64 / secs_each
}

/// The traced pass's per-layer metrics for serve_tcp: in-process calls
/// on the same fabric, table and query sequence the daemon served.
fn layer_metrics(
    opts: &Opts,
    golden: &Golden,
    rounds: &[Round],
    report: &mut Report,
    tcp_rtt_p50_ns: f64,
    overhead_ratio: f64,
) -> Result<(), String> {
    let graph = golden.net.graph();
    // Cache store and a warm load through a fresh cache.
    let dir = opts.scratch.join("layers");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let file_bytes = layers::cache_store(
        &dir,
        graph,
        &golden.table,
        SELECTION,
        &PairSet::AllPairs,
        FABRIC_SEED,
    )?;
    {
        let _s = span("setup.warm");
        let cache = PathCache::new(&dir).map_err(|e| e.to_string())?;
        let loaded = {
            let _s = span("routing.cache_load");
            cache.load_or_compute(graph, SELECTION, &PairSet::AllPairs, FABRIC_SEED)
        };
        if *loaded != golden.table {
            report.error("the cache did not hand back the stored table");
        }
        // The same cache makes the in-process daemon state a disk load.
        jellyfish_routing::cache::install_global(cache);
    }
    let mut affected = 0;
    for round in rounds {
        let _s = span("fault.round");
        // Seed 0: what the daemon repairs with when a plan names none.
        affected += layers::fault_round(graph, &golden.table, &round.links, 0)?.1;
    }
    let queries: Vec<(NodeId, NodeId)> = {
        let mut seq = PairStream::new(opts.seed, 1, 0);
        (0..20_000).map(|_| seq.next()).collect()
    };
    let get_ns = layers::get_ns(&golden.table, &queries, 0.2)?;

    let state = ServeState::new(PARAMS, FABRIC_SEED, SELECTION)?;
    jellyfish_routing::cache::uninstall_global();
    let times = {
        let _s = span("serve.dispatch");
        dispatch_ns(&state, &queries)?
    };
    let dispatch = Summary::of(&times).ok_or("no dispatches")?;
    report.set("serve.dispatch_ns_p50", dispatch.p50, "ns");
    report.set("serve.dispatch_ns_p99", dispatch.p99, "ns");
    report.set("serve.transport_us_p50", (tcp_rtt_p50_ns - dispatch.p50) / 1e3, "us");
    report.set("serve.dispatch_qps_1t", dispatch_qps(&state, &queries, 1, 0.5), "1/s");
    report.set("serve.dispatch_qps_2t", dispatch_qps(&state, &queries, 2, 0.5), "1/s");
    drop(state);

    // The simulator on the daemon's fabric and table.
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x22);
    let flows = random_permutation(PARAMS.num_hosts(), &mut rng);
    let dests = PacketDestinations::from_flows(PARAMS.num_hosts(), &flows);
    let mut cfg = Scale::Quick.sim_config();
    cfg.seed = opts.seed;
    let mut sim = {
        let _s = span("flitsim.new");
        Simulator::new(graph, PARAMS, &golden.table, None, Mechanism::KspAdaptive, dests, 0.2, cfg)
    };
    let t = Instant::now();
    let result = {
        let _s = span("flitsim.run");
        sim.run()
    };
    let sim = SimWork { secs: secs(t), packets: result.ejected, cycles: result.measured_cycles };

    let extras = Extras {
        get_ns,
        table_bytes: golden.table.resident_bytes() as f64,
        cache_file_bytes: file_bytes as f64,
        affected_pairs: affected as f64 / rounds.len().max(1) as f64,
        sim,
        overhead_ratio,
    };
    crate::finish_trace(report, extras);
    Ok(())
}

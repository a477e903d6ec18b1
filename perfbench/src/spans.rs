//! The benchmark's own span recorder for the traced pass.
//!
//! Spans are opened by benchmark code around calls into the program's
//! public functions, kept in memory, and written out when the pass
//! ends. Disarmed (the untraced pass), opening a span is one relaxed
//! atomic load. The program's own `jellyfish_obs::trace` is never armed.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ARMED: AtomicBool = AtomicBool::new(false);

struct Store {
    epoch: Instant,
    spans: Mutex<Vec<Record>>,
}

fn store() -> &'static Store {
    static STORE: OnceLock<Store> = OnceLock::new();
    STORE.get_or_init(|| Store { epoch: Instant::now(), spans: Mutex::new(Vec::new()) })
}

thread_local! {
    /// Open spans on this thread: (id, start_ns), innermost last.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = next_thread();
}

fn next_thread() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn next_id() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Record {
    /// Layer-qualified name, e.g. `topology.build`.
    pub name: &'static str,
    /// Unique id.
    pub id: u64,
    /// The enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// Recording thread.
    pub thread: u64,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch.
    pub end: u64,
}

impl Record {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Arms or disarms recording for the whole process.
pub fn arm(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Runs `f` with recording paused (for warm-up work that must not
/// count towards any layer).
pub fn unrecorded<T>(f: impl FnOnce() -> T) -> T {
    let was = armed();
    arm(false);
    let out = f();
    arm(was);
    out
}

/// An open span; recorded when dropped.
pub struct Span {
    name: &'static str,
    open: bool,
}

/// Opens a span named `name` on this thread.
pub fn span(name: &'static str) -> Span {
    if !armed() {
        return Span { name, open: false };
    }
    let start = store().epoch.elapsed().as_nanos() as u64;
    STACK.with(|s| s.borrow_mut().push((next_id(), start)));
    Span { name, open: true }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.open {
            return;
        }
        let end = store().epoch.elapsed().as_nanos() as u64;
        let (id, start, parent) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let (id, start) = s.pop().expect("span stack underflow");
            (id, start, s.last().map_or(0, |p| p.0))
        });
        let thread = THREAD.with(|t| *t);
        let rec = Record { name: self.name, id, parent, thread, start, end };
        store().spans.lock().unwrap_or_else(|e| e.into_inner()).push(rec);
    }
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Record> {
    std::mem::take(&mut *store().spans.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Per-name totals: `(count, total_ns, self_ns)`. Self time is a
/// span's duration minus the time its direct children cover.
pub fn totals(records: &[Record]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for r in records.iter().filter(|r| r.parent != 0) {
        *child_ns.entry(r.parent).or_default() += r.ns();
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for r in records {
        let e = out.entry(r.name).or_default();
        e.0 += 1;
        e.1 += r.ns();
        e.2 += r.ns().saturating_sub(child_ns.get(&r.id).copied().unwrap_or(0));
    }
    out
}

/// Durations (ns) of every span named `name`, in recording order.
pub fn durations(records: &[Record], name: &str) -> Vec<f64> {
    records.iter().filter(|r| r.name == name).map(|r| r.ns() as f64).collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
pub fn to_chrome_json(records: &[Record]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{}}}}}",
            r.name,
            r.thread,
            r.start as f64 / 1e3,
            r.ns() as f64 / 1e3,
            r.id,
            r.parent
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let rec = |name, id, parent, start, end| Record { name, id, parent, thread: 0, start, end };
        let records = vec![
            rec("child", 2, 1, 10, 40),
            rec("grandchild", 3, 2, 15, 25),
            rec("root", 1, 0, 0, 100),
            rec("child", 4, 1, 50, 60),
        ];
        let t = totals(&records);
        assert_eq!(t["root"], (1, 100, 60));
        assert_eq!(t["child"], (2, 40, 30));
        assert_eq!(t["grandchild"], (1, 10, 10));
        assert_eq!(durations(&records, "child"), vec![30.0, 10.0]);
        assert!(to_chrome_json(&records).starts_with("{\"traceEvents\":[{\"name\":\"child\""));
    }
}

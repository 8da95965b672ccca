//! In-memory span recorder.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer of the program; the program itself is not instrumented. A
//! span carries the id of the generation or gateway job it belongs to
//! (`trace_id`), the span that caused it (`parent`), the thread it ran
//! on, and its start and end. Spans stay in memory until the run ends
//! and are then written out as JSON lines.

use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// A small per-process thread number (std's `ThreadId` has no stable
/// integer form).
fn thread_no() -> u64 {
    THREAD.with(|t| *t)
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the tracer.
    pub id: u64,
    /// The span that caused this one, possibly on another thread.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `accel_search.sample`.
    pub name: String,
    /// Generation number or gateway job id shared by related spans.
    pub trace_id: u64,
    /// [`thread_no`] of the recording thread.
    pub thread: u64,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span that has started and not yet ended.
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: String,
    /// May be set after the start, e.g. once a job id is known.
    pub trace_id: u64,
    start_ns: u64,
}

impl Open {
    /// The id children pass as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the epoch.
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a span.
    pub fn start(&self, name: impl Into<String>, trace_id: u64, parent: Option<u64>) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.into(),
            trace_id,
            start_ns: self.now_ns(),
        }
    }

    /// Ends a span and stores it.
    pub fn end(&self, open: Open) {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            trace_id: open.trace_id,
            thread: thread_no(),
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .push(span);
    }

    /// Takes every span recorded so far, in start order.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span store poisoned by a panicking recorder"),
        );
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Runs `f` inside a span when tracing, or bare when `tracer` is `None`.
/// `f` receives the span's id for its children.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &str,
    trace_id: u64,
    parent: Option<u64>,
    f: impl FnOnce(Option<u64>) -> R,
) -> R {
    match tracer {
        None => f(None),
        Some(t) => {
            let open = t.start(name, trace_id, parent);
            let out = f(Some(open.id));
            t.end(open);
            out
        }
    }
}

/// Self time of every span, in seconds, keyed by span id: the span's
/// duration minus the part of its interval covered by children recorded
/// on the same thread. Children on other threads run in parallel with
/// their parent and are not subtracted.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| by_id.get(&p)) {
            if parent.thread == s.thread {
                children
                    .entry(parent.id)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, (s.end_ns - s.start_ns - covered) as f64 * 1e-9)
        })
        .collect()
}

/// The blocking path under `root`: `root` and its descendants on the
/// same thread. Returns the summed self time per span name, excluding
/// the root, whose self time is the unattributed remainder.
pub fn blocking_path(spans: &[Span], root: u64) -> BTreeMap<String, f64> {
    let selfs = self_times(spans);
    let Some(root_span) = spans.iter().find(|s| s.id == root) else {
        return BTreeMap::new();
    };
    let mut on_path = std::collections::BTreeSet::from([root]);
    let mut by_layer = BTreeMap::new();
    // Spans are in start order, so parents precede their children.
    for s in spans {
        let same_thread_child =
            s.thread == root_span.thread && s.parent.is_some_and(|p| on_path.contains(&p));
        if same_thread_child {
            on_path.insert(s.id);
            *by_layer.entry(s.name.clone()).or_insert(0.0) += selfs[&s.id];
        }
    }
    by_layer
}

/// One JSON line per span, tagged with the workload and the seed of the
/// iteration.
pub fn to_jsonl(spans: &[Span], workload: &str, seed: u64) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for s in spans {
        let line = Value::Object(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("seed".into(), Value::U64(seed)),
            ("span".into(), Value::U64(s.id)),
            ("parent".into(), s.parent.map_or(Value::Null, Value::U64)),
            ("name".into(), Value::Str(s.name.clone())),
            ("trace_id".into(), Value::U64(s.trace_id)),
            ("thread".into(), Value::U64(s.thread)),
            ("start_us".into(), Value::F64(s.start_ns as f64 / 1e3)),
            (
                "dur_us".into(),
                Value::F64((s.end_ns - s.start_ns) as f64 / 1e3),
            ),
            ("self_us".into(), Value::F64(selfs[&s.id] * 1e6)),
        ]);
        out.push_str(&serde_json::to_string(&line).expect("span line serializes"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, thread: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            trace_id: 0,
            thread,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_only_same_thread_children() {
        let spans = vec![
            span(1, None, 1, 0, 100),
            span(2, Some(1), 1, 10, 40),
            span(3, Some(2), 2, 12, 38),
            span(4, Some(1), 1, 50, 90),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[&1] - 30e-9).abs() < 1e-15);
        assert!((selfs[&2] - 30e-9).abs() < 1e-15);
        let layers = blocking_path(&spans, 1);
        assert_eq!(layers.len(), 2, "the other-thread child is off the path");
        let attributed: f64 = layers.values().sum();
        assert!(
            (attributed - 70e-9).abs() < 1e-15,
            "the root's own 30 ns are not"
        );
    }
}

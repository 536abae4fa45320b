//! In-memory spans around the benchmark's own calls into the simulator.
//!
//! Each span has a name, start and end (ns since the tracer was made), the
//! span that caused it and the op it belongs to. Spans are kept in memory
//! and written out once, when the benchmark ends. A disabled tracer runs
//! the timed closure and records nothing.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Span recorder shared by the benchmark thread and pool jobs.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            on,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; `f` receives the span's id to parent its
    /// children on.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span lock");
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                op,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.now_ns();
        self.spans.lock().expect("span lock")[id].end_ns = end;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }
}

/// Per span name: `(count, total ns, self ns)`. Self time is the span's
/// duration minus the time its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, i64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, i64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur as i64 - child_ns[i] as i64;
    }
    out
}

/// One JSON object per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}\n",
            s.name, s.start_ns, s.end_ns, s.op
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                name: "op",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op: 1,
            },
            Span {
                name: "child",
                start_ns: 10,
                end_ns: 70,
                parent: Some(0),
                op: 1,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], (1, 100, 40));
        assert_eq!(t["child"], (1, 60, 60));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.time("x", None, 0, |p| p), None);
        assert!(tr.spans().is_empty());
    }
}

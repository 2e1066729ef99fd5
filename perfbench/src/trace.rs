//! In-memory spans recorded around the public calls the benchmark makes
//! into each layer: name, start, end and parent. Nothing is written
//! while a workload runs; [`Tracer::to_json`] renders the spans when it
//! ends. A disabled tracer only calls through, so the same code path can
//! be timed with and without tracing.

use std::cell::RefCell;
use std::time::Instant;

/// One recorded call. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    /// Drops every recorded span (between measured rounds).
    pub fn clear(&self) {
        self.spans.borrow_mut().clear();
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Durations, in seconds, of the spans named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Total duration, in seconds, of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// The spans as a JSON array, with each span's self time.
    pub fn to_json(&self) -> String {
        let spans = self.spans.borrow();
        let selfs = self_times(&spans);
        let rows: Vec<String> = spans
            .iter()
            .zip(selfs)
            .map(|(s, self_ns)| {
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"self_ns\":{}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    self_ns
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once, and a
/// child reaching outside its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),  // overlaps a: union 10..50
            span("c", 90, 120, Some(0)), // reaches past root: 90..100
            span("a.x", 12, 18, Some(1)),
            span("leaf", 200, 260, None),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6, 60]);
    }

    #[test]
    fn tracer_nests_and_times_spans() {
        let t = Tracer::new(true);
        let x = t.span("outer", || t.span("inner", || 7) + 1);
        assert_eq!(x, 8);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.durations("inner").len(), 1);
        assert!(t.to_json().contains("\"name\":\"inner\""));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 3), 3);
        assert!(t.spans().is_empty());
        assert_eq!(t.total("x"), 0.0);
    }
}

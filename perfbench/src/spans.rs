//! Benchmark-side spans around calls into the program's layers.
//!
//! Spans live in memory: name, request id, parent span, start and
//! end. A layer's self time is its span's duration minus the part its
//! child spans cover. With recording off a span only runs its body,
//! so the same replay run twice gives the tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Layer calls the span covers (batched spans wrap many cheap calls).
    pub calls: u64,
}

/// Self time and call count summed over every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub ns: u64,
    pub calls: u64,
}

impl SelfTime {
    pub fn ns_per_call(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a span covering `calls` layer calls made on
    /// behalf of request `request`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        calls: u64,
        body: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return body(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
            calls,
        });
        self.open.push(index);
        let out = body(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.ns += (span.end_ns - span.start_ns).saturating_sub(children);
            entry.calls += span.calls;
        }
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(true);
        tracer.span("outer", 0, 1, |t| {
            t.span("inner", 0, 2, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let times = tracer.self_times();
        assert!(times["inner"].ns >= 5_000_000);
        assert!(times["outer"].ns < times["inner"].ns);
        assert_eq!(times["inner"].calls, 2);
        assert_eq!(tracer.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", 0, 1, |_| 7), 7);
        assert!(tracer.self_times().is_empty());
    }
}

//! Spans recorded around the benchmark's calls into each layer, kept in
//! memory and folded into a per-layer self-time table at the end.
//!
//! A span's name is `<layer>.<what>`. Spans are recorded from outside
//! the library: the benchmark times the public call it makes. Time a
//! layer spends inside a callee that the library itself measures (the
//! resolver's batch and single-query histograms) is added as a child
//! span with that measured duration, so the caller's self time excludes
//! it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The span this call happened inside, if any.
    pub parent: Option<usize>,
    /// The vantage the call served, for the per-vantage table lines.
    pub vantage: Option<usize>,
    pub dur: Duration,
}

/// In-memory span log.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Time `f` as a top-level span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.time_in(name, None, f).1
    }

    /// Time `f` as a span for one vantage; returns the span id with the
    /// result so a measured child can be attached.
    pub fn time_in<T>(
        &mut self,
        name: &'static str,
        vantage: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = Instant::now();
        let out = f();
        self.spans.push(Span { name, parent: None, vantage, dur: start.elapsed() });
        (self.spans.len() - 1, out)
    }

    /// Record a top-level span timed by the caller.
    pub fn record(&mut self, name: &'static str, dur: Duration) {
        self.spans.push(Span { name, parent: None, vantage: None, dur });
    }

    /// Record time the library measured inside span `parent`.
    pub fn child(&mut self, name: &'static str, parent: usize, dur: Duration) {
        let vantage = self.spans[parent].vantage;
        self.spans.push(Span { name, parent: Some(parent), vantage, dur });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called `name` (inclusive).
    pub fn total(&self, name: &str) -> Duration {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur).sum()
    }

    /// Durations of every span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur).collect()
    }

    /// Sum of the top-level spans.
    pub fn top_level(&self) -> Duration {
        self.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.dur).sum()
    }

    /// Self time per span name: each span's duration minus its
    /// children's, summed by name, in name order.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.dur;
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            *out.entry(s.name).or_default() += s.dur.saturating_sub(children);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_top_level() {
        let mut spans = Spans::default();
        let (id, ()) = spans.time_in("scanner.scan", Some(0), || {
            std::thread::sleep(Duration::from_millis(4));
        });
        spans.child("resolver.batch", id, Duration::from_millis(3));
        spans.time("store.append", || std::thread::sleep(Duration::from_millis(1)));
        let selfs = spans.self_times();
        let scan = spans.total("scanner.scan");
        assert_eq!(selfs["scanner.scan"], scan - Duration::from_millis(3));
        assert_eq!(selfs["resolver.batch"], Duration::from_millis(3));
        let summed: Duration = selfs.values().sum();
        assert_eq!(summed, spans.top_level());
    }
}

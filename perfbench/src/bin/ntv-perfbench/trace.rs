//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer: name, start, end, parent span and the id of the request (or
//! probe) the span belongs to. They stay in memory until
//! [`Tracer::write`] dumps them as JSON lines at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.json_parse`.
    pub name: String,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Id shared by every span of one request or probe.
    pub request: u64,
}

impl Span {
    /// Duration in microseconds.
    #[must_use]
    pub fn us(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let ns = (self.end_ns - self.start_ns) as f64;
        ns / 1e3
    }

    /// The layer a span belongs to: its name up to the first `.`.
    #[must_use]
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Span recorder. One that is switched off runs the same calls and
/// records nothing, which is how the tracing overhead is measured.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    on: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            on: true,
        }
    }

    /// A recorder that records nothing: [`Tracer::span`] only calls `f`.
    #[must_use]
    pub fn off() -> Self {
        Self {
            on: false,
            ..Self::new()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`; `f` receives the tracer and the
    /// new span's index so it can open child spans. Returns `f`'s result.
    pub fn span<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(&mut Self, usize) -> T,
    ) -> T {
        if !self.on {
            return f(self, 0);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        let out = f(self, id);
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Record a span whose times were taken elsewhere (the client side of
    /// a TCP request).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant, request: u64) {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: None,
            request,
        });
    }

    /// All spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span named `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Self time per layer (µs): each span's duration minus the part its
    /// children cover, summed over the layer's spans.
    #[must_use]
    pub fn self_time_by_layer(&self) -> BTreeMap<String, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.us();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_us) {
            *out.entry(s.layer().to_string()).or_insert(0.0) += s.us() - covered;
        }
        out
    }

    /// Write every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.span("serve.request", None, 1, |t, id| {
            t.span("core.solve", Some(id), 1, |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        });
        let layers = t.self_time_by_layer();
        let total: f64 = t.durations("serve.request").iter().sum();
        let sum: f64 = layers.values().sum();
        assert!((sum - total).abs() < 1e-6, "self times partition the root");
        assert!(layers["core"] >= 2000.0);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request, 1);
    }

    #[test]
    fn a_tracer_that_is_off_runs_the_call_and_records_nothing() {
        let mut t = Tracer::off();
        let out = t.span("serve.request", None, 1, |t, id| {
            t.span("core.solve", Some(id), 1, |_, _| 7)
        });
        assert_eq!(out, 7);
        assert!(t.spans().is_empty());
    }
}

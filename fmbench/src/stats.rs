//! Order statistics and the benchmark's own spans.

use std::time::Instant;

/// Quantile `q` of `xs` by linear interpolation between order
/// statistics (the `statistics.quantiles(method="inclusive")` rule).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// One span of the traced run: a named interval around a call into a
/// layer, under an optional parent span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// The body (input) the call worked on.
    pub body: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Spans kept in memory until the run ends.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; close it with [`exit`](Spans::exit).
    pub fn enter(&mut self, name: &'static str, parent: Option<usize>, body: usize) -> usize {
        self.spans.push(Span {
            name,
            parent,
            body,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        self.spans.len() - 1
    }

    pub fn exit(&mut self, id: usize) {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans[id].dur_ns = now - self.spans[id].start_ns;
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        body: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, parent, body);
        let out = f();
        self.exit(id);
        out
    }

    /// Durations (µs) of the spans called `name` on `body`.
    pub fn durations_us(&self, name: &str, body: usize) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.body == body)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    }

    /// JSON lines, one span each.
    pub fn to_jsonl(&self) -> String {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {}, \"body\": {}, \
                     \"start_ns\": {}, \"dur_ns\": {}}}\n",
                    s.name,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.body,
                    s.start_ns,
                    s.dur_ns
                )
            })
            .collect()
    }
}

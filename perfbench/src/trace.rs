//! Spans recorded around the calls into each layer, kept in memory and
//! written out when the run ends, and the per-layer figures derived from
//! them.

use crate::measure::{median, quantile};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

/// One timed call. `parent` names the span it was made on behalf of; a
/// request's spans share `req`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

impl Span {
    fn dur_ns(&self) -> f64 {
        self.end_ns as f64 - self.start_ns as f64
    }
}

/// The request id of step `step` on connection `conn`.
pub fn req_id(conn: usize, step: usize) -> u64 {
    (conn as u64) << 40 | step as u64
}

/// An in-memory span log. A disabled tracer records nothing, so the
/// untraced code path runs the same calls without the bookkeeping.
pub struct Tracer {
    epoch: Instant,
    pub enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its index (or `NO_PARENT` when off).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        req: u64,
    ) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = Instant::now();
        let out = f();
        let idx = self.record(name, start, Instant::now(), parent, req);
        (out, idx)
    }

    /// Opens a span whose end [`Tracer::close`] sets (for spans with children).
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        let now = Instant::now();
        self.record(name, now, now, parent, req)
    }

    pub fn close(&mut self, idx: u32) {
        if idx != NO_PARENT {
            self.spans[idx as usize].end_ns = self.ns(Instant::now());
        }
    }

    /// Appends another tracer's spans (same epoch), keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Index of each request's span named `name`.
    pub fn index_of(&self, name: &str) -> BTreeMap<u64, u32> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.req, i as u32))
            .collect()
    }

    /// Self time of every span: its duration minus its children's. The
    /// twin's server-side stages are children of the live `client.wait`
    /// span of the same request, so that span's self time is the part
    /// of the round trip no other stage accounts for.
    pub fn self_times_ns(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                own[s.parent as usize] -= s.dur_ns();
            }
        }
        own
    }

    /// Writes the spans of the first `max_steps` steps of every connection
    /// as TSV.
    pub fn write_tsv(&self, path: &std::path::Path, max_steps: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "index\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            if s.req & ((1 << 40) - 1) >= max_steps {
                continue;
            }
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                f,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        f.flush()
    }
}

/// Timed layers reported as `<name>_p50_us` / `<name>_p99_us`, and
/// whether the figure is the span's self time (derived layers) or its
/// duration (a call timed from outside).
pub const TIMED: [(&str, &str, bool); 16] = [
    ("client.encode", "client.encode", false),
    ("client.decode", "client.decode", false),
    ("wire.decode", "wire.decode", false),
    ("wire.reply_encode", "wire.reply_encode", false),
    ("reactor.transport", "client.wait", true),
    ("service.call", "service.call", false),
    ("service.handoff", "service.call", true),
    ("engine.prepare", "engine.prepare", false),
    ("engine.lookup", "engine.lookup", false),
    ("engine.frontier", "engine.frontier", false),
    ("assign.build", "assign.build", false),
    ("assign.solve", "assign.solve", false),
    ("session.apply", "session.apply", false),
    ("portfolio.race", "portfolio.race", false),
    ("portfolio.first_answer", "portfolio.first_answer", false),
    ("portfolio.exact_alone", "portfolio.exact_alone", false),
];

/// The stages of one round trip, in path order: their medians should add
/// up to the traced round trip's median.
pub const STAGES: [&str; 6] = [
    "client.encode",
    "wire.decode",
    "service.call",
    "wire.reply_encode",
    "reactor.transport",
    "client.decode",
];

/// Per-layer p50/p99 in µs (0 for a layer the workload never reaches),
/// plus the traced round trip's median.
pub struct Layers {
    pub p50_us: BTreeMap<&'static str, f64>,
    pub p99_us: BTreeMap<&'static str, f64>,
    pub request_p50_us: f64,
}

pub fn layers(tr: &Tracer) -> Layers {
    let own = tr.self_times_ns();
    let mut p50_us = BTreeMap::new();
    let mut p99_us = BTreeMap::new();
    for (metric, span, self_time) in TIMED {
        let mut v: Vec<f64> = tr
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == span)
            .map(|(s, o)| if self_time { *o } else { s.dur_ns() } / 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        p50_us.insert(metric, quantile(&v, 0.5));
        p99_us.insert(metric, quantile(&v, 0.99));
    }
    let mut rtt: Vec<f64> = tr
        .spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.dur_ns() / 1e3)
        .collect();
    Layers {
        p50_us,
        p99_us,
        request_p50_us: median(&mut rtt),
    }
}

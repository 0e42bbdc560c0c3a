//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has an id, its parent, a name (`<layer>.<call>`, or a bare
//! name such as `job` for the benchmark's own spans), the job it belongs
//! to, start and end in nanoseconds since the tracer started, and the
//! counters recorded at the same boundary. Spans are kept in memory and
//! written once, when the run ends. The tracer always times the calls it
//! wraps, so untraced runs use the same code; it stores spans only when
//! recording.

use std::collections::BTreeMap;
use std::time::Instant;

use rfc_net::json::Json;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id, in the order spans were opened.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// `<layer>.<call>`; a name without a `.` or `:` is the benchmark's.
    pub name: String,
    /// The job this span ran in.
    pub job: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Counters recorded before the span closed.
    pub counters: Vec<(String, f64)>,
}

impl Span {
    /// The layer the span's name belongs to: the part before the first
    /// `.` or `:`, or `bench` for the benchmark's own spans.
    pub fn layer(&self) -> &str {
        match self.name.find(['.', ':']) {
            Some(at) => &self.name[..at],
            None => "bench",
        }
    }
}

struct Open {
    id: u64,
    name: String,
    start: Instant,
    counters: Vec<(String, f64)>,
}

/// Times calls and, when recording, keeps them as [`Span`]s.
pub struct Tracer {
    record: bool,
    origin: Instant,
    next_id: u64,
    job: u64,
    open: Vec<Open>,
    spans: Vec<Span>,
    overhead_s: f64,
}

/// The wall clock; the benchmark exists to read it.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    Instant::now()
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// A tracer that keeps spans when `record` is set.
    pub fn new(record: bool) -> Self {
        Tracer {
            record,
            origin: now(),
            next_id: 0,
            job: 0,
            open: Vec::new(),
            spans: Vec::new(),
            overhead_s: 0.0,
        }
    }

    /// Tags the spans opened from now on with `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the span's length in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        self.open.push(Open {
            id: self.next_id,
            name: name.to_string(),
            start: now(),
            counters: Vec::new(),
        });
        self.next_id += 1;
        let out = f(self);
        let end = now();
        let seconds = self.close(end);
        if self.record {
            self.overhead_s += now().saturating_duration_since(end).as_secs_f64();
        }
        (out, seconds)
    }

    fn close(&mut self, end: Instant) -> f64 {
        let Some(open) = self.open.pop() else {
            return 0.0;
        };
        let seconds = end.saturating_duration_since(open.start).as_secs_f64();
        if self.record {
            self.spans.push(Span {
                id: open.id,
                parent: self.open.last().map(|p| p.id),
                name: open.name,
                job: self.job,
                start_ns: ns_between(self.origin, open.start),
                end_ns: ns_between(self.origin, end),
                counters: open.counters,
            });
        }
        seconds
    }

    /// Records a counter on the innermost open span.
    pub fn count(&mut self, key: &str, value: f64) {
        if let (true, Some(top)) = (self.record, self.open.last_mut()) {
            top.counters.push((key.to_string(), value));
        }
    }

    /// Seconds spent storing closed spans (0 when not recording).
    pub fn overhead_seconds(&self) -> f64 {
        self.overhead_s
    }

    /// The closed spans, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Self time per layer over the spans of `job`: each span's length
    /// minus the part of it its children cover.
    pub fn layer_self_seconds(&self, job: u64) -> BTreeMap<String, f64> {
        layer_self_seconds(&self.spans, job)
    }

    /// The trace file: every span, then each job's self time per layer.
    pub fn to_json(&self, workload: &str, seed: u64, jobs: u64) -> String {
        let spans = self
            .spans()
            .into_iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::Uint(s.id)),
                    ("parent".into(), s.parent.map_or(Json::Null, Json::Uint)),
                    ("name".into(), Json::Str(s.name.clone())),
                    ("job".into(), Json::Uint(s.job)),
                    ("start_ns".into(), Json::Uint(s.start_ns)),
                    ("end_ns".into(), Json::Uint(s.end_ns)),
                    (
                        "counters".into(),
                        Json::Obj(
                            s.counters
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let summary = (0..jobs)
            .map(|job| {
                let layers = self
                    .layer_self_seconds(job)
                    .into_iter()
                    .map(|(layer, s)| (layer, Json::Num(s)))
                    .collect();
                Json::Obj(vec![
                    ("job".into(), Json::Uint(job)),
                    ("self_s".into(), Json::Obj(layers)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.to_string())),
            ("seed".into(), Json::Uint(seed)),
            ("spans".into(), Json::Arr(spans)),
            ("summary".into(), Json::Arr(summary)),
        ])
        .render()
    }
}

/// See [`Tracer::layer_self_seconds`].
pub fn layer_self_seconds(spans: &[Span], job: u64) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for span in spans.iter().filter(|s| s.job == job) {
        let mut children: Vec<(u64, u64)> = spans
            .iter()
            .filter(|c| c.parent == Some(span.id))
            .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (a, b) in children {
            let from = a.max(reach);
            if b > from {
                covered += b - from;
                reach = b;
            }
        }
        let own = span
            .end_ns
            .saturating_sub(span.start_ns)
            .saturating_sub(covered);
        *out.entry(span.layer().to_string()).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            job: 0,
            start_ns,
            end_ns,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "job", 0, 100),
            span(1, Some(0), "sim.run", 10, 40),
            span(2, Some(0), "sim.run", 30, 60),
            span(3, Some(1), "routing.apply_event", 15, 20),
        ];
        let layers = layer_self_seconds(&spans, 0);
        assert!((layers["bench"] - 50e-9).abs() < 1e-15);
        assert!((layers["sim"] - 55e-9).abs() < 1e-15);
        assert!((layers["routing"] - 5e-9).abs() < 1e-15);
    }

    #[test]
    fn nested_spans_record_parents_and_counters() {
        let mut tr = Tracer::new(true);
        let ((), outer) = tr.span("job", |tr| {
            tr.span("topology.build", |tr| tr.count("draws", 2.0));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].counters, vec![("draws".to_string(), 2.0)]);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(outer * 1e9 >= (spans[1].end_ns - spans[1].start_ns) as f64);
        assert_eq!(spans[1].layer(), "topology");
    }

    #[test]
    fn untraced_runs_time_but_keep_nothing() {
        let mut tr = Tracer::new(false);
        let (v, _) = tr.span("job", |tr| {
            tr.count("x", 1.0);
            7
        });
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.overhead_seconds(), 0.0);
    }
}

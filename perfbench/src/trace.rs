//! The traced run's spans, on the library's own `obs::Recorder`.
//!
//! Spans are opened only around the benchmark's own calls into each layer
//! (`obs::Span::enter` inside [`Trace::scope`]). Where a layer has no
//! entry point of its own, its stages are timed by calling their public
//! functions standalone on the same inputs, and the durations are recorded
//! with `obs::span_with_ns` as *derived* children of the enclosing call's
//! span; the enclosing span's self time is then the remainder. A span's
//! self time is its duration minus the durations of its direct children
//! ([`self_times`]). The trace is written with
//! `Recorder::chrome_trace_json(TraceTime::Wall)`, the format the CLI's
//! `--trace-json` uses.

use neursc_core::obs::{self, ObsSink, Recorder, SpanRecord, TraceTime};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The spans of one traced run, kept in memory until written.
#[derive(Debug)]
pub struct Trace {
    rec: Arc<Recorder>,
    sink: Arc<dyn ObsSink>,
}

impl Default for Trace {
    fn default() -> Self {
        let rec = Arc::new(Recorder::new());
        let sink: Arc<dyn ObsSink> = rec.clone();
        Trace { rec, sink }
    }
}

impl Trace {
    /// Runs `f` with the spans it opens on this thread recorded here.
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        obs::scope(&self.sink, obs::lane::ROOT, f)
    }

    /// Every recorded span.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.rec.spans()
    }

    /// Chrome `trace_event` JSON of every span (wall-clock microseconds),
    /// with `meta` (a JSON object) as the trace's metadata.
    pub fn chrome_json(&self, meta: &str) -> String {
        let json = self.rec.chrome_trace_json(TraceTime::Wall);
        let body = json.trim_end().strip_suffix('}').unwrap_or(&json);
        format!("{body}, \"metadata\": {meta}}}\n")
    }
}

/// A sink that takes every span and keeps none.
#[derive(Debug)]
struct Discard;

impl ObsSink for Discard {
    fn enabled(&self) -> bool {
        true
    }
}

/// Runs a library call inside a traced span with the spans the library
/// opens on its own discarded: without this they would nest under the
/// benchmark's span (the library's scopes are no-ops by default), and
/// the self times would no longer be the benchmark's.
pub fn library<R>(f: impl FnOnce() -> R) -> R {
    static DISCARD: std::sync::OnceLock<Arc<dyn ObsSink>> = std::sync::OnceLock::new();
    let sink = DISCARD.get_or_init(|| Arc::new(Discard));
    obs::scope(sink, u64::MAX, f)
}

/// Self time summed per span name, in ns. Self time is signed: a derived
/// child measured standalone can exceed its share of the enclosing call,
/// and that shows instead of being clamped away.
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<&'static str, i64> {
    let mut child_ns: HashMap<(u64, u64), u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry((s.lane, p)).or_insert(0) += s.dur_ns;
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let c = child_ns.get(&(s.lane, s.seq)).copied().unwrap_or(0);
        *out.entry(s.name).or_insert(0) += s.dur_ns as i64 - c as i64;
    }
    out
}

/// Total duration of the spans named `name`, in ns.
pub fn total_ns(spans: &[SpanRecord], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use neursc_core::obs::{span_with_ns, Span};

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = Trace::default();
        t.scope(|| {
            let _q = Span::enter("query");
            let _f = Span::enter("featurize");
            span_with_ns("extract", 500);
            span_with_ns("match.local_prune", 200);
        });
        let spans = t.spans();
        let st = self_times(&spans);
        let q = total_ns(&spans, "query") as i64;
        let f = total_ns(&spans, "featurize") as i64;
        assert_eq!(st["query"], q - f);
        assert_eq!(st["featurize"], f - 700);
        assert_eq!(st["extract"], 500);
        assert_eq!(st["match.local_prune"], 200);
        // Self times of a tree add up to its root's duration.
        assert_eq!(st.values().sum::<i64>(), q);
    }

    #[test]
    fn oversized_derived_children_give_negative_self_time() {
        let t = Trace::default();
        t.scope(|| {
            let _c = Span::enter("call");
            span_with_ns("child", 10_000_000_000);
        });
        assert!(self_times(&t.spans())["call"] < 0);
    }

    #[test]
    fn library_spans_are_kept_out() {
        let t = Trace::default();
        t.scope(|| {
            let _c = Span::enter("call");
            library(|| drop(Span::enter("inner")));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "call");
    }

    #[test]
    fn chrome_export_lists_every_span_with_metadata() {
        let t = Trace::default();
        t.scope(|| {
            let _q = Span::enter("query");
            span_with_ns("gnn.intra", 10);
        });
        let json = t.chrome_json("{\"traced\": true}");
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert!(json.contains("\"metadata\": {\"traced\": true}"));
        assert!(json.trim_end().ends_with('}'));
    }
}

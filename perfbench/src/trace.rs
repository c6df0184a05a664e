//! Spans around the benchmark's own calls into the library.
//!
//! Every timing the benchmark takes goes through [`Recorder::span`], which
//! always measures the closure with one pair of `Instant`s. Only when
//! tracing is on does it also keep a span (category, name, start, end,
//! parent, attributes) in memory; with tracing off the cost is one `Cell`
//! read. Spans are written out once, at the end, as Chrome trace-event
//! JSON, which Perfetto and `chrome://tracing` open offline.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. Times are seconds since the recorder's epoch.
pub struct Span {
    pub cat: &'static str,
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Single-threaded span store: the benchmark drives every workload from
/// one caller thread.
pub struct Recorder {
    on: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes a span even when the closure panics, so a failed call cannot
/// leave its span open as the parent of everything after it.
struct Close<'a> {
    rec: &'a Recorder,
    id: usize,
    t0: Instant,
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        let end = self.rec.at(Instant::now());
        self.rec.spans.borrow_mut()[self.id].end = end.max(self.rec.at(self.t0));
        self.rec.open.borrow_mut().pop();
    }
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on: Cell::new(on),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Turn span recording on or off for what follows.
    pub fn set(&self, on: bool) {
        self.on.set(on);
    }

    fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64()
    }

    /// Run `f` and return its result, its wall seconds, and the id of its
    /// span when tracing is on.
    pub fn span<R>(&self, cat: &'static str, name: &str, f: impl FnOnce() -> R) -> (R, f64, Option<usize>) {
        if !self.on.get() {
            let t0 = Instant::now();
            let r = f();
            return (r, t0.elapsed().as_secs_f64(), None);
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                cat,
                name: name.to_string(),
                start: 0.0,
                end: 0.0,
                parent: self.open.borrow().last().copied(),
                args: Vec::new(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let t0 = Instant::now();
        self.spans.borrow_mut()[id].start = self.at(t0);
        let close = Close { rec: self, id, t0 };
        let r = f();
        let secs = t0.elapsed().as_secs_f64();
        drop(close);
        (r, secs, Some(id))
    }

    /// Attach attributes to a recorded span (no-op for `None`).
    pub fn annotate(&self, id: Option<usize>, args: &[(&'static str, f64)]) {
        if let Some(id) = id {
            self.spans.borrow_mut()[id].args.extend_from_slice(args);
        }
    }

    /// Spans of one category.
    pub fn with_cat<R>(&self, cat: &str, f: impl Fn(&Span) -> R) -> Vec<R> {
        self.spans.borrow().iter().filter(|s| s.cat == cat).map(f).collect()
    }

    /// Self time of every span: its duration minus its children's.
    fn self_times(&self) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut own: Vec<f64> = spans.iter().map(Span::dur).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p] -= s.dur();
            }
        }
        own
    }

    /// Total self time per category, in seconds.
    pub fn self_time_by_cat(&self) -> BTreeMap<&'static str, f64> {
        let mut by = BTreeMap::new();
        for (s, own) in self.spans.borrow().iter().zip(self.self_times()) {
            *by.entry(s.cat).or_insert(0.0) += own;
        }
        by
    }

    /// The spans as a Chrome trace-event document. `meta` is a JSON object
    /// stored under `metadata`.
    pub fn chrome_json(&self, meta: &str) -> String {
        let spans = self.spans.borrow();
        let own = self.self_times();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"metadata\":");
        out.push_str(meta);
        out.push_str(",\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"self_us\":{:.3}",
                s.name,
                s.cat,
                s.start * 1e6,
                s.dur() * 1e6,
                s.parent.map_or(-1, |p| p as i64),
                own[i] * 1e6,
            );
            for (k, v) in &s.args {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let rec = Recorder::new(true);
        let (_, outer, id) = rec.span("pass", "p", || {
            rec.span("call", "c", || std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        assert!(outer >= 0.005);
        assert_eq!(rec.with_cat("call", Span::dur).len(), 1);
        let by = rec.self_time_by_cat();
        assert!(by["pass"] < by["call"], "{by:?}");
        rec.annotate(id, &[("images", 3.0)]);
        let doc = rec.chrome_json("{}");
        assert!(doc.contains("\"parent\":0") && doc.contains("\"images\":3"), "{doc}");
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let rec = Recorder::new(false);
        let (v, secs, id) = rec.span("call", "c", || 7);
        assert_eq!((v, id), (7, None));
        assert!(secs >= 0.0);
        assert!(rec.with_cat("call", Span::dur).is_empty());
    }

    #[test]
    fn a_panicking_span_is_closed() {
        let rec = Recorder::new(true);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rec.span("call", "boom", || panic!("expected"));
        }));
        assert!(r.is_err());
        rec.span("call", "next", || ());
        assert!(rec.spans.borrow()[1].parent.is_none());
    }
}

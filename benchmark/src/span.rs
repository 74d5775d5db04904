//! Harness-side spans: the benchmark times its own calls into the layers'
//! public functions. Every timed call goes through [`Spans::time`], which
//! always returns the elapsed host time and, on a traced run, also keeps a
//! `{name, start_ns, end_ns, parent, rep}` record in memory. The records
//! are written to `out/<workload>.trace.jsonl` when the run ends — never
//! while something is being timed.

use crate::json::Json;
use std::time::Instant;

/// One recorded span. `parent` indexes into the same list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

/// Span recorder for one workload run.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    rep: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// `enabled == false` records nothing (the end-to-end runs).
    pub fn new(enabled: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            enabled,
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Label subsequent spans with a repetition number.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its handle for [`end`](Self::end). Spans nest:
    /// the innermost open span becomes the parent.
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        id
    }

    /// Close the span opened by the matching [`begin`](Self::begin).
    pub fn end(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span and return its result with the elapsed host
    /// seconds (measured whether or not spans are recorded).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.begin(name);
        let t0 = Instant::now();
        let out = f(self);
        let secs = t0.elapsed().as_secs_f64();
        self.end(id);
        (out, secs)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line, the file format of `out/*.trace.jsonl`.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Num(i as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(self_ns[i] as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("workload", Json::str(workload)),
                ("rep", Json::Num(f64::from(s.rep))),
            ]);
            out.push_str(&line.to_line());
            out.push('\n');
        }
        out
    }
}

/// A span's self time: its duration minus the part its direct children
/// cover (children never overlap — the harness is single-threaded and
/// spans close innermost first).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("build", 0, 30, Some(0)),
            span("run", 30, 90, Some(0)),
            span("slice", 30, 50, Some(2)),
            span("slice", 50, 85, Some(2)),
        ];
        // rep: 100 - (30 + 60); run: 60 - (20 + 35); leaves keep all.
        assert_eq!(self_times(&spans), vec![10, 30, 5, 20, 35]);
    }

    #[test]
    fn recorder_nests_and_labels() {
        let mut s = Spans::new(true);
        s.set_rep(2);
        let ((), outer) = s.time("outer", |s| {
            let (v, _) = s.time("inner", |_| 7);
            assert_eq!(v, 7);
        });
        assert!(outer >= 0.0);
        let spans = s.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].rep, 2);
        let jsonl = s.to_jsonl("flat_hb");
        assert_eq!(jsonl.lines().count(), 2);
        let first = crate::json::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(
            first.get("workload").and_then(Json::as_str),
            Some("flat_hb")
        );
        assert_eq!(first.get("parent"), Some(&Json::Null));
    }

    #[test]
    fn disabled_recorder_still_times() {
        let mut s = Spans::new(false);
        let (v, secs) = s.time("x", |_| 3);
        assert_eq!(v, 3);
        assert!(secs >= 0.0);
        assert!(s.spans().is_empty());
    }
}

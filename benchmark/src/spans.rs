//! In-memory span log of the traced run.
//!
//! One span per call across a layer boundary, recorded by the benchmark
//! around the call (the program is measured from outside). Spans are kept
//! in memory and written out when the run ends.

use pf_trace::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Step or call the span belongs to; all spans of one step share it
    /// (0 = set-up).
    pub rep: u64,
}

/// Handle of an open span; closing it returns the elapsed seconds.
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

/// Records only when `on`; `enter`/`exit` always time, so the untraced
/// and the traced run share one code path.
pub struct SpanLog {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pub rep: u64,
}

impl SpanLog {
    pub fn new(on: bool) -> SpanLog {
        SpanLog {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }

    pub fn enter(&mut self, name: &str) -> Open {
        let start = Instant::now();
        let idx = self.on.then(|| {
            self.spans.push(Span {
                name: name.to_owned(),
                start_ns: (start - self.t0).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                rep: self.rep,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { idx, start }
    }

    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(idx) = open.idx {
            assert_eq!(
                self.stack.pop(),
                Some(idx),
                "spans must close innermost first"
            );
            self.spans[idx].end_ns = (end - self.t0).as_nanos() as u64;
        }
        (end - open.start).as_secs_f64()
    }

    /// Time one call as a span.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.enter(name);
        let r = f();
        (r, self.exit(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, ch)| {
            ch.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in ch.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Count, total and self time per span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn by_name(spans: &[Span]) -> BTreeMap<String, NameStat> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, NameStat> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name.clone()).or_default();
        e.count += 1;
        e.total_ns += s.end_ns - s.start_ns;
        e.self_ns += self_ns;
    }
    out
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                crate::report::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(&s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("rep", Json::Num(s.rep as f64)),
                ])
            })
            .collect(),
    )
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
            rep: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_part_children_cover() {
        let spans = [
            span("step", 0, 100, None),
            span("phi", 10, 40, Some(0)),
            span("mu", 50, 70, Some(0)),
            span("launch", 12, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 20, 18]);
        let agg = by_name(&spans);
        assert_eq!(agg["step"].self_ns, 50);
        assert_eq!(agg["phi"].total_ns, 30);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_counted_twice() {
        let spans = [
            span("call", 0, 100, None),
            span("rank0", 10, 60, Some(0)),
            span("rank1", 40, 120, Some(0)),
        ];
        // Children cover [10, 100) of the parent once.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn log_nests_and_is_inert_when_off() {
        let mut log = SpanLog::new(true);
        log.rep = 7;
        let outer = log.enter("outer");
        let (v, secs) = log.time("inner", || 42);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        log.exit(outer);
        assert_eq!(log.spans().len(), 2);
        assert_eq!(log.spans()[1].parent, Some(0));
        assert_eq!(log.spans()[1].rep, 7);
        assert!(log.spans()[0].end_ns >= log.spans()[1].end_ns);

        let mut off = SpanLog::new(false);
        let o = off.enter("x");
        assert!(off.exit(o) >= 0.0);
        assert!(off.spans().is_empty());
    }
}

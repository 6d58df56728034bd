//! Boundary spans for the traced pass.
//!
//! Spans are opened and closed by the benchmark's own code around its calls
//! into a layer (see `fullstack::Spanned` and `ringtrace`). They are
//! aggregated per name as they close — count, total, self time (duration
//! minus the part child spans cover) and a log-bucket histogram — and the
//! full record `(id, name, start, end, parent, op)` is kept for a 1-in-64
//! sample of ops, so a multi-million-span run stays in memory.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::stats::LogHist;

/// Ops whose id is a multiple of this keep their full span records.
pub const SAMPLE_EVERY: u64 = 64;

/// Per-name aggregate.
#[derive(Clone, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub hist: LogHist,
}

/// One fully recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the enclosing span, 0 at top level.
    pub parent: u64,
    /// The op this span worked for, 0 when it served none in particular.
    pub op: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    op: u64,
}

#[derive(Default)]
pub struct Recorder {
    stack: Vec<Open>,
    next_id: u64,
    pub aggs: BTreeMap<&'static str, Agg>,
    pub sampled: Vec<SpanRecord>,
}

impl Recorder {
    pub fn enter_at(&mut self, name: &'static str, op: u64, now_ns: u64) {
        self.next_id += 1;
        self.stack.push(Open {
            id: self.next_id,
            name,
            start_ns: now_ns,
            child_ns: 0,
            op,
        });
    }

    pub fn exit_at(&mut self, now_ns: u64) {
        let Some(open) = self.stack.pop() else {
            return;
        };
        let dur = now_ns.saturating_sub(open.start_ns);
        let agg = self.aggs.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        agg.hist.add(dur);
        let parent = self.stack.last_mut().map_or(0, |p| {
            p.child_ns += dur;
            p.id
        });
        if open.op != 0 && open.op % SAMPLE_EVERY == 0 {
            self.sampled.push(SpanRecord {
                id: open.id,
                name: open.name,
                start_ns: open.start_ns,
                end_ns: now_ns,
                parent,
                op: open.op,
            });
        }
    }

    /// Aggregates as JSON lines followed by the sampled records.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, a) in &self.aggs {
            let line = Json::obj([
                ("span", Json::str(*name)),
                ("count", Json::Num(a.count as f64)),
                ("total_ns", Json::Num(a.total_ns as f64)),
                ("self_ns", Json::Num(a.self_ns as f64)),
                ("p50_ns", Json::num(a.hist.quantile(0.5))),
                ("p99_ns", Json::num(a.hist.quantile(0.99))),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        for r in &self.sampled {
            let line = Json::obj([
                ("id", Json::Num(r.id as f64)),
                ("name", Json::str(r.name)),
                ("start_ns", Json::Num(r.start_ns as f64)),
                ("end_ns", Json::Num(r.end_ns as f64)),
                ("parent", Json::Num(r.parent as f64)),
                ("op", Json::Num(r.op as f64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

thread_local! {
    // Traced passes are single-threaded (`parallel: false`), so one recorder
    // per thread is one recorder.
    static RECORDER: RefCell<(Option<Instant>, Recorder)> = RefCell::new((None, Recorder::default()));
}

fn now_ns(epoch: &mut Option<Instant>) -> u64 {
    epoch.get_or_insert_with(Instant::now).elapsed().as_nanos() as u64
}

/// Time `f` as a span called `name` working for op `op` (0 = none).
pub fn scope<R>(name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    RECORDER.with_borrow_mut(|(epoch, rec)| {
        let t = now_ns(epoch);
        rec.enter_at(name, op, t);
    });
    let out = f();
    RECORDER.with_borrow_mut(|(epoch, rec)| {
        let t = now_ns(epoch);
        rec.exit_at(t);
    });
    out
}

/// Take everything recorded on this thread so far.
pub fn take() -> Recorder {
    RECORDER.with_borrow_mut(|(_, rec)| std::mem::take(rec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_spans() {
        let mut r = Recorder::default();
        r.enter_at("outer", 0, 0);
        r.enter_at("inner", 0, 10);
        r.enter_at("leaf", 0, 20);
        r.exit_at(30); // leaf: 10
        r.exit_at(50); // inner: 40 total, 30 self
        r.enter_at("inner", 0, 60);
        r.exit_at(70); // inner: 10 total, 10 self
        r.exit_at(100); // outer: 100 total, 50 self
        let of = |name: &str| {
            (
                r.aggs[name].count,
                r.aggs[name].total_ns,
                r.aggs[name].self_ns,
            )
        };
        assert_eq!(of("leaf"), (1, 10, 10));
        assert_eq!(of("inner"), (2, 50, 40));
        assert_eq!(of("outer"), (1, 100, 50));
        // Self times partition the outermost span.
        let total_self: u64 = r.aggs.values().map(|a| a.self_ns).sum();
        assert_eq!(total_self, 100);
    }

    #[test]
    fn only_sampled_ops_keep_full_records_with_parents() {
        let mut r = Recorder::default();
        r.enter_at("run", 0, 0);
        for op in 1..=130u64 {
            r.enter_at("handle", op, op * 10);
            r.exit_at(op * 10 + 5);
        }
        r.exit_at(2_000);
        let ops: Vec<u64> = r.sampled.iter().map(|s| s.op).collect();
        assert_eq!(ops, vec![64, 128]);
        assert!(r
            .sampled
            .iter()
            .all(|s| s.parent == 1 && s.name == "handle"));
        assert_eq!(r.sampled[0].end_ns - r.sampled[0].start_ns, 5);
        assert_eq!(r.to_jsonl().lines().count(), 2 + 2);
    }

    #[test]
    fn scope_nests_and_take_drains() {
        let v = scope("a", 0, || scope("b", 0, || 7));
        assert_eq!(v, 7);
        let rec = take();
        assert_eq!((rec.aggs["a"].count, rec.aggs["b"].count), (1, 1));
        assert!(rec.aggs["a"].total_ns >= rec.aggs["b"].total_ns);
        assert_eq!(take().aggs.len(), 0);
    }
}

//! The six workloads. Each is prepared from a seed (set-up, timed as
//! `setup_s`), run (the measured call, timed as `wall_s` / `cpu_s`) and then
//! finished: results extracted and every output check applied, untimed.

use std::collections::BTreeMap;

pub mod churn_ping;
pub mod fanout;
pub mod ring_route;
pub mod selfconfig;
pub mod streams;
pub mod wan_bulk;

/// Workload names, in the order `run` interleaves them.
pub const NAMES: [&str; 6] = [
    "wan_bulk",
    "churn_ping",
    "selfconfig",
    "ring_route",
    "fanout",
    "streams",
];

/// Input sizes: the measured ones, or tiny ones for `run --smoke`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }

    pub fn from_name(name: &str) -> Option<Size> {
        [Size::Full, Size::Smoke]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// How a repetition runs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Mode {
    /// The measured configuration: no spans, single-threaded.
    Plain,
    /// Boundary spans and allocation counting on (the per-layer pass).
    Traced,
    /// `ring_route` only: shards fanned out over threads, for
    /// `simcore.shard.par_over_seq`.
    Parallel,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Traced => "traced",
            Mode::Parallel => "parallel",
        }
    }

    pub fn from_name(name: &str) -> Option<Mode> {
        [Mode::Plain, Mode::Traced, Mode::Parallel]
            .into_iter()
            .find(|m| m.name() == name)
    }
}

/// What one repetition produced, besides its timings.
#[derive(Default)]
pub struct Outcome {
    /// Ops attempted.
    pub ops: u64,
    /// Ops that failed or went unanswered.
    pub failed: u64,
    /// Output checks that did not hold (empty = correct).
    pub checks: Vec<String>,
    /// Virtual latency of every op that has one, in ms.
    pub latencies_ms: Vec<f64>,
    /// Per-layer values read from public counters after the run, keyed by
    /// metric name, plus the inputs of ratios the parent forms.
    pub values: BTreeMap<String, f64>,
    /// Digest of every virtual result and event count: equal seeds must give
    /// equal fingerprints (contract C1), traced or not.
    pub fingerprint: u64,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Record a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.checks.push(what());
        }
    }
}

/// FNV-1a over 64-bit words.
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, word: u64) -> &mut Self {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn add_f64(&mut self, v: f64) -> &mut Self {
        self.add(v.to_bits())
    }

    pub fn add_all(&mut self, vs: &[f64]) -> &mut Self {
        for v in vs {
            self.add_f64(*v);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A prepared workload.
pub trait Workload {
    /// The measured call(s).
    fn run(&mut self);
    /// Extract results and apply the output checks.
    fn finish(self: Box<Self>) -> Outcome;
}

/// Build the inputs of `name` from `seed`. `None` for an unknown name.
pub fn prepare(name: &str, seed: u64, size: Size, mode: Mode) -> Option<Box<dyn Workload>> {
    Some(match name {
        "wan_bulk" => Box::new(wan_bulk::prepare(seed, size, mode)),
        "churn_ping" => Box::new(churn_ping::prepare(seed, size, mode)),
        "selfconfig" => Box::new(selfconfig::prepare(seed, size, mode)),
        "ring_route" => Box::new(ring_route::prepare(seed, size, mode)),
        "fanout" => Box::new(fanout::prepare(seed, size)),
        "streams" => Box::new(streams::prepare(seed, size)),
        _ => return None,
    })
}

/// The sizes a workload runs at, for result stamps and the README.
pub fn sizes(name: &str, size: Size) -> String {
    match name {
        "wan_bulk" => wan_bulk::sizes(size),
        "churn_ping" => churn_ping::sizes(size),
        "selfconfig" => selfconfig::sizes(size),
        "ring_route" => ring_route::sizes(size),
        "fanout" => fanout::sizes(size),
        "streams" => streams::sizes(size),
        _ => String::new(),
    }
}

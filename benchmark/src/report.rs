//! Orchestration and reporting: run repetitions, check them, summarise,
//! print, write result files, compare two of them.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::layers::{self, LayerValue};
use crate::metrics::{EndToEnd, END_TO_END};
use crate::rep::{self, Rep};
use crate::workloads::{self, Mode, Size};
use crate::{kernels, proc, stats};

/// Repetitions of one workload, by mode.
#[derive(Default)]
struct Runs {
    plain: Vec<Rep>,
    traced: Vec<Rep>,
    parallel: Vec<Rep>,
}

impl Runs {
    fn push(&mut self, mode: Mode, rep: Rep) {
        match mode {
            Mode::Plain => self.plain.push(rep),
            Mode::Traced => self.traced.push(rep),
            Mode::Parallel => self.parallel.push(rep),
        }
    }
}

/// The extra repetitions a traced pass makes of `workload`.
fn traced_modes(workload: &str) -> &'static [Mode] {
    if workload == "ring_route" {
        &[Mode::Traced, Mode::Parallel]
    } else {
        &[Mode::Traced]
    }
}

/// The reported value of one end-to-end metric over the repetitions of a
/// run, with median, quartiles, minimum and count beside it.
struct Dist {
    /// Time metrics report the lower quartile: on this shared host noise
    /// only ever adds time, in bursts that swallow several repetitions, so
    /// the lower quartile repeats where the median does not (and unlike the
    /// minimum it does not chase a repetition whose speed reference happened
    /// to be read in a slow burst). Memory reports the median.
    value: f64,
    median: f64,
    q1: f64,
    q3: f64,
    min: f64,
    n: usize,
}

impl Dist {
    fn of(xs: &[f64], is_time: bool) -> Dist {
        let (q1, q3) = stats::quartiles(xs);
        let median = stats::median(xs);
        Dist {
            value: if is_time { q1 } else { median },
            median,
            q1,
            q3,
            min: stats::min(xs),
            n: xs.len(),
        }
    }
}

struct Summary {
    workload: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    checks_failed: Vec<String>,
    fingerprint: String,
    end_to_end: Vec<(&'static str, &'static str, Dist)>,
    per_layer: Option<Vec<LayerValue>>,
}

fn end_to_end_value(rep: &Rep, name: &str) -> f64 {
    match name {
        "setup_s" => rep.setup_s,
        "wall_s" => rep.wall_s,
        "cpu_s" => rep.cpu_s,
        "peak_rss_mb" => rep.peak_rss_mb,
        other => unreachable!("end-to-end metric {other} has no source"),
    }
}

/// Apply the cross-repetition checks and fold the repetitions of one
/// workload into its summary. `kernels` is `Some` after a traced pass.
fn summarize(workload: &str, runs: &Runs, kernels: Option<&BTreeMap<String, f64>>) -> Summary {
    let first = &runs.plain[0];
    let mut checks_failed = Vec::new();
    for rep in runs.plain.iter().chain(&runs.traced).chain(&runs.parallel) {
        for c in &rep.checks {
            if !checks_failed.contains(c) {
                checks_failed.push(c.clone());
            }
        }
    }
    // Contract C1: one seed, one history — in every untraced repetition, and
    // whether the shards ran on threads or not.
    if runs
        .plain
        .iter()
        .chain(&runs.parallel)
        .any(|r| r.fingerprint != first.fingerprint)
    {
        checks_failed.push("nondeterministic: repetitions of one seed differ".into());
    }
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            let xs: Vec<f64> = runs
                .plain
                .iter()
                .map(|r| end_to_end_value(r, m.name))
                .collect();
            (m.name, m.unit, Dist::of(&xs, m.unit == "s"))
        })
        .collect();
    Summary {
        workload: workload.to_string(),
        correct: checks_failed.is_empty(),
        attempted: first.ops,
        failed: first.failed,
        checks_failed,
        fingerprint: first.fingerprint.clone(),
        end_to_end,
        per_layer: kernels
            .map(|k| layers::ledger(workload, &runs.plain, &runs.traced, &runs.parallel, k)),
    }
}

impl Summary {
    fn print(&self) {
        eprintln!(
            "{}: {} ({} ops, {} failed, fingerprint {})",
            self.workload,
            if self.correct { "ok" } else { "FAILED" },
            self.attempted,
            self.failed,
            self.fingerprint
        );
        for c in &self.checks_failed {
            eprintln!("  check failed: {c}");
        }
        for (name, unit, d) in &self.end_to_end {
            eprintln!(
                "  {name:<34} {:>14.6} {unit:<6} median {:.6} q1 {:.6} q3 {:.6} min {:.6} n {}",
                d.value, d.median, d.q1, d.q3, d.min, d.n
            );
        }
        for l in self.per_layer.iter().flatten() {
            match l.value {
                Some(v) => eprintln!("  {:<34} {v:>14.4} {}", l.name, l.unit),
                None => eprintln!("  {:<34} {:>14} ({})", l.name, "null", l.reason),
            }
        }
    }

    /// The entry of this workload in a result file.
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "ops_failed_share",
                Json::num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "checks_failed",
                Json::Arr(self.checks_failed.iter().map(Json::str).collect()),
            ),
            ("fingerprint", Json::str(&self.fingerprint)),
            ("trace", Json::str(layers::trace_kind(&self.workload))),
            (
                "end_to_end",
                Json::obj(self.end_to_end.iter().map(|(name, unit, d)| {
                    (
                        *name,
                        Json::obj([
                            ("value", Json::num(d.value)),
                            ("median", Json::num(d.median)),
                            ("q1", Json::num(d.q1)),
                            ("q3", Json::num(d.q3)),
                            ("min", Json::num(d.min)),
                            ("n", Json::Num(d.n as f64)),
                            ("unit", Json::str(*unit)),
                        ]),
                    )
                })),
            ),
        ];
        if let Some(layer) = &self.per_layer {
            pairs.push((
                "per_layer",
                Json::obj(layer.iter().map(|l| {
                    let mut fields = vec![
                        ("value", l.value.map_or(Json::Null, Json::num)),
                        ("unit", Json::str(l.unit)),
                        ("better", Json::str(l.better)),
                    ];
                    if l.value.is_none() {
                        fields.push(("reason", Json::str(l.reason)));
                    }
                    (l.name, Json::obj(fields))
                })),
            ));
        }
        Json::obj(pairs)
    }

    /// The one-line result the benchmark contract asks for: end-to-end
    /// metrics after an untraced run, per-layer metrics after a traced one
    /// (0 where a layer has no value on this workload — the result file of
    /// `run` says why).
    fn contract_line(&self) -> String {
        let metric = |value: f64, unit: &str| {
            Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))])
        };
        let metrics = match &self.per_layer {
            Some(layer) => Json::obj(
                layer
                    .iter()
                    .map(|l| (l.name, metric(l.value.unwrap_or(0.0), l.unit))),
            ),
            None => Json::obj(
                self.end_to_end
                    .iter()
                    .map(|(name, unit, d)| (*name, metric(d.value, unit))),
            ),
        };
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    }
}

/// The contract's entry point: one workload, measured for `seconds`.
/// Untraced, repetitions repeat until the time is spent (at least three) and
/// the end-to-end values are printed; traced, each cycle is an untraced, a
/// traced (and for `ring_route` a parallel) repetition and the ledger is
/// printed. A failed check is reported as `"correct": false`, exit code 0.
pub fn run_one(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let kernels = trace.then(kernels::run_all);
    let mut modes = vec![Mode::Plain];
    if trace {
        modes.extend(traced_modes(workload));
    }
    let min_cycles = if trace { 1 } else { 3 };
    let mut runs = Runs::default();
    let mut cycles = 0;
    loop {
        let cycle_started = Instant::now();
        for &mode in &modes {
            runs.push(mode, rep::spawn(workload, seed, mode, Size::Full)?);
        }
        cycles += 1;
        // Stop when another cycle like the last would overrun the budget.
        if cycles >= min_cycles && started.elapsed() + cycle_started.elapsed() > budget {
            break;
        }
    }
    let summary = summarize(workload, &runs, kernels.as_ref());
    summary.print();
    println!("{}", summary.contract_line());
    Ok(true)
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `run`: every workload, `reps` untraced repetitions interleaved
/// round-robin so machine drift spreads evenly, then one traced pass and the
/// kernels; prints every metric, writes the result file. `Ok(false)` when
/// any output check failed.
pub fn run_all(
    seed: Option<u64>,
    reps: Option<usize>,
    smoke: bool,
    out: Option<&str>,
) -> Result<bool, String> {
    let size = if smoke { Size::Smoke } else { Size::Full };
    let reps = reps.unwrap_or(if smoke { 1 } else { 5 }).max(1);
    let seed = seed.unwrap_or(1);
    let stamp = Json::obj([
        (
            "git_commit",
            Json::str(command_output("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_output("rustc", &["-V"]))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("load_average_1m", Json::num(proc::load_average())),
        ("seed", Json::Num(seed as f64)),
        ("mode", Json::str(if smoke { "smoke" } else { "full" })),
        ("repetitions", Json::Num(reps as f64)),
        (
            "sizes",
            Json::obj(
                workloads::NAMES
                    .iter()
                    .map(|w| (*w, Json::str(workloads::sizes(w, size)))),
            ),
        ),
    ]);

    let mut runs: BTreeMap<&str, Runs> = BTreeMap::new();
    for rep_no in 0..reps {
        for w in workloads::NAMES {
            eprintln!("[{}/{reps}] {w}", rep_no + 1);
            let rep = rep::spawn(w, seed, Mode::Plain, size)?;
            runs.entry(w).or_default().push(Mode::Plain, rep);
        }
    }
    for w in workloads::NAMES {
        for &mode in traced_modes(w) {
            eprintln!("[traced] {w}");
            let rep = rep::spawn(w, seed, mode, size)?;
            runs.entry(w).or_default().push(mode, rep);
        }
    }
    let kernels = kernels::run_all();

    let mut all_correct = true;
    let mut entries = Vec::new();
    for w in workloads::NAMES {
        let summary = summarize(w, &runs[w], Some(&kernels));
        summary.print();
        all_correct &= summary.correct;
        entries.push((w, summary.to_json()));
    }
    let result = Json::obj([("stamp", stamp), ("workloads", Json::obj(entries))]);
    let path = match out {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let dir = rep::out_dir();
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            dir.join(if smoke {
                "results-smoke.json"
            } else {
                "results.json"
            })
        }
    };
    std::fs::write(&path, result.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    if !all_correct {
        eprintln!("FAILED: at least one output check did not hold");
    }
    Ok(all_correct)
}

/// Verdict on one workload × end-to-end metric between two result files.
fn verdict(a: &Json, b: &Json, m: &EndToEnd) -> Option<(f64, f64, f64, &'static str)> {
    let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64);
    let (ma, mb) = (field(a, "value")?, field(b, "value")?);
    let bound = m.bound;
    let delta = (mb - ma) / ma;
    let worsening = if m.better == "lower" { delta } else { -delta };
    let spread = |j: &Json| Some((field(j, "q3")? - field(j, "q1")?) / field(j, "median")?);
    let noisy = spread(a)? > bound || spread(b)? > bound;
    let overlap = field(a, "q1")? <= field(b, "q3")? && field(b, "q1")? <= field(a, "q3")?;
    let word = if noisy && overlap {
        "unresolved"
    } else if worsening > bound {
        "worse"
    } else {
        "ok"
    };
    Some((ma, mb, delta, word))
}

/// `compare A.json B.json`: per workload × end-to-end metric, both values,
/// the delta, the bound and `ok` / `worse` / `unresolved` (a spread wider
/// than the bound while the quartile ranges overlap); virtual results are
/// compared through the fingerprints when both files used one seed.
/// `Ok(false)` on any `worse` or differing fingerprint.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let seed = |j: &Json| {
        j.get("stamp")
            .and_then(|s| s.get("seed"))
            .and_then(Json::as_f64)
    };
    let same_seed = seed(&a).is_some() && seed(&a) == seed(&b);
    let mut ok = true;
    println!(
        "{:<11} {:<12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    for w in workloads::NAMES {
        let entry = |j: &Json| j.get("workloads").and_then(|ws| ws.get(w)).cloned();
        let (Some(wa), Some(wb)) = (entry(&a), entry(&b)) else {
            println!("{w:<11} missing from one file");
            ok = false;
            continue;
        };
        for m in &END_TO_END {
            let metric = |j: &Json| j.get("end_to_end").and_then(|e| e.get(m.name)).cloned();
            let result = metric(&wa)
                .zip(metric(&wb))
                .and_then(|(ma, mb)| verdict(&ma, &mb, m));
            match result {
                Some((ma, mb, delta, word)) => {
                    println!(
                        "{w:<11} {:<12} {ma:>12.6} {mb:>12.6} {:>+7.1}% {:>5.0}%  {word}",
                        m.name,
                        delta * 100.0,
                        m.bound * 100.0
                    );
                    ok &= word != "worse";
                }
                None => {
                    println!("{w:<11} {:<12} missing from one file", m.name);
                    ok = false;
                }
            }
        }
        let field = |j: &Json, k: &str| j.get(k).cloned().unwrap_or(Json::Null);
        let word = if !same_seed {
            "not compared (different seeds)"
        } else if field(&wa, "fingerprint") == field(&wb, "fingerprint")
            && field(&wa, "failed") == field(&wb, "failed")
        {
            "identical"
        } else {
            ok = false;
            "DIFFERENT"
        };
        println!("{w:<11} virtual results and failed ops: {word}");
    }
    Ok(ok)
}

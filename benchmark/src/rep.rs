//! One repetition of one workload: run in a fresh child process (the binary
//! re-executes itself), so every repetition starts from the same allocator
//! and cache state and `VmHWM` is its own.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::workloads::{self, Mode, Size};
use crate::{calib, proc, span, stats};

/// Aggregate of one span name, as shipped from child to parent.
#[derive(Clone, Default)]
pub struct SpanAgg {
    pub count: f64,
    pub total_ns: f64,
    pub self_ns: f64,
}

/// What a child reports.
#[derive(Clone, Default)]
pub struct Rep {
    /// Child start (the parent's spawn call) → the measured call: process
    /// start, input generation, topology build, deploy.
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// `wall_s` as the clock read it, before scaling to reference speed.
    pub raw_wall_s: f64,
    /// Reference speed over the speed measured around the call (see
    /// `calib`): what the three time figures above were multiplied by.
    pub speed_factor: f64,
    pub peak_rss_mb: f64,
    pub ops: u64,
    pub failed: u64,
    pub checks: Vec<String>,
    pub fingerprint: String,
    pub op_ms_p50: Option<f64>,
    pub op_ms_tail: Option<f64>,
    pub op_tail_percentile: Option<f64>,
    pub values: BTreeMap<String, f64>,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub spans: BTreeMap<String, SpanAgg>,
}

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// Directory the traced pass writes its span files to.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Child entry point: `child <workload> <seed> <mode> <size> <spawned_unix_ns>`.
/// Prints the repetition as one JSON line.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let in_child = Instant::now();
    let [workload, seed, mode, size, spawned_ns] = args else {
        return Err("child: expected <workload> <seed> <mode> <size> <spawned_ns>".into());
    };
    let seed: u64 = seed.parse().map_err(|e| format!("child: seed: {e}"))?;
    let spawned_ns: u128 = spawned_ns
        .parse()
        .map_err(|e| format!("child: spawned_ns: {e}"))?;
    let mode = Mode::from_name(mode).ok_or_else(|| format!("child: unknown mode {mode}"))?;
    let size = Size::from_name(size).ok_or_else(|| format!("child: unknown size {size}"))?;

    let mut prepared = workloads::prepare(workload, seed, size, mode)
        .ok_or_else(|| format!("child: unknown workload {workload}"))?;
    // Set-up ends here. Measured across processes on the wall clock; should
    // that clock have stepped, fall back to the part spent in this process.
    let since_spawn = unix_ns().saturating_sub(spawned_ns) as f64 / 1e9;
    let setup_s = if since_spawn > 0.0 && since_spawn < 60.0 {
        since_spawn
    } else {
        in_child.elapsed().as_secs_f64()
    };

    // The reference's buffer is gone again before the workload's memory is
    // measured.
    let ref_before = calib::Reference::new().measure();
    proc::reset_peak_rss();

    let traced = mode == Mode::Traced;
    let (allocs0, bytes0) = proc::alloc_counters();
    proc::count_allocs(traced);
    let cpu0 = proc::cpu_seconds();
    let started = Instant::now();
    prepared.run();
    let raw_wall_s = started.elapsed().as_secs_f64();
    let raw_cpu_s = proc::cpu_seconds() - cpu0;
    proc::count_allocs(false);
    let (allocs1, bytes1) = proc::alloc_counters();
    let peak_rss_mb = proc::peak_rss_mib();
    let ref_after = calib::Reference::new().measure();
    // Set-up ran next to the first reference, the call between the two.
    let setup_s = setup_s * calib::NOMINAL_S / ref_before;
    let speed_factor = calib::NOMINAL_S / ((ref_before + ref_after) / 2.0);

    let outcome = prepared.finish();
    let recorder = span::take();
    if traced && !recorder.aggs.is_empty() {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{workload}.jsonl"));
        std::fs::write(&path, recorder.to_jsonl())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let (p50, tail) = if outcome.latencies_ms.is_empty() {
        (None, None)
    } else {
        (
            Some(stats::median(&outcome.latencies_ms)),
            Some(stats::tail(&outcome.latencies_ms)),
        )
    };
    let rep = Rep {
        setup_s,
        wall_s: raw_wall_s * speed_factor,
        cpu_s: raw_cpu_s * speed_factor,
        raw_wall_s,
        speed_factor,
        peak_rss_mb,
        ops: outcome.ops,
        failed: outcome.failed,
        checks: outcome.checks,
        fingerprint: format!("{:016x}", outcome.fingerprint),
        op_ms_p50: p50,
        op_ms_tail: tail.map(|(_, v)| v),
        op_tail_percentile: tail.map(|(p, _)| p),
        values: outcome.values,
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
        spans: recorder
            .aggs
            .iter()
            .map(|(name, a)| {
                (
                    name.to_string(),
                    SpanAgg {
                        count: a.count as f64,
                        total_ns: a.total_ns as f64,
                        self_ns: a.self_ns as f64,
                    },
                )
            })
            .collect(),
    };
    println!("{}", rep.to_json().render());
    Ok(())
}

/// Run one repetition in a child process and wait for it.
pub fn spawn(workload: &str, seed: u64, mode: Mode, size: Size) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args([
            "child",
            workload,
            &seed.to_string(),
            mode.name(),
            size.name(),
        ])
        .arg(unix_ns().to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} ({}) child failed: {}",
            mode.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    Rep::from_json(&Json::parse(line).map_err(|e| format!("{workload} child output: {e}"))?)
        .ok_or_else(|| format!("{workload} child output misses fields"))
}

impl Rep {
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::num);
        Json::obj([
            ("setup_s", Json::num(self.setup_s)),
            ("wall_s", Json::num(self.wall_s)),
            ("cpu_s", Json::num(self.cpu_s)),
            ("raw_wall_s", Json::num(self.raw_wall_s)),
            ("speed_factor", Json::num(self.speed_factor)),
            ("peak_rss_mb", Json::num(self.peak_rss_mb)),
            ("ops", Json::Num(self.ops as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "checks",
                Json::Arr(self.checks.iter().map(Json::str).collect()),
            ),
            ("fingerprint", Json::str(&self.fingerprint)),
            ("op_ms_p50", opt(self.op_ms_p50)),
            ("op_ms_tail", opt(self.op_ms_tail)),
            ("op_tail_percentile", opt(self.op_tail_percentile)),
            (
                "values",
                Json::obj(self.values.iter().map(|(k, v)| (k.clone(), Json::num(*v)))),
            ),
            ("allocs", Json::Num(self.allocs as f64)),
            ("alloc_bytes", Json::Num(self.alloc_bytes as f64)),
            (
                "spans",
                Json::obj(self.spans.iter().map(|(k, s)| {
                    (
                        k.clone(),
                        Json::Arr(vec![
                            Json::Num(s.count),
                            Json::Num(s.total_ns),
                            Json::Num(s.self_ns),
                        ]),
                    )
                })),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Rep> {
        let num = |k: &str| j.get(k).and_then(Json::as_f64);
        Some(Rep {
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            cpu_s: num("cpu_s")?,
            raw_wall_s: num("raw_wall_s")?,
            speed_factor: num("speed_factor")?,
            peak_rss_mb: num("peak_rss_mb")?,
            ops: num("ops")? as u64,
            failed: num("failed")? as u64,
            checks: j
                .get("checks")?
                .as_arr()
                .iter()
                .filter_map(|c| c.as_str().map(str::to_string))
                .collect(),
            fingerprint: j.get("fingerprint")?.as_str()?.to_string(),
            op_ms_p50: num("op_ms_p50"),
            op_ms_tail: num("op_ms_tail"),
            op_tail_percentile: num("op_tail_percentile"),
            values: j.get("values")?.num_map(),
            allocs: num("allocs")? as u64,
            alloc_bytes: num("alloc_bytes")? as u64,
            spans: j
                .get("spans")?
                .entries()
                .iter()
                .filter_map(|(k, v)| {
                    let [c, t, s] = v.as_arr() else { return None };
                    Some((
                        k.clone(),
                        SpanAgg {
                            count: c.as_f64()?,
                            total_ns: t.as_f64()?,
                            self_ns: s.as_f64()?,
                        },
                    ))
                })
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repetition_survives_the_child_to_parent_line() {
        let mut rep = Rep {
            setup_s: 0.0015,
            wall_s: 1.25,
            cpu_s: 1.2,
            raw_wall_s: 1.5,
            speed_factor: 0.8333,
            peak_rss_mb: 33.5,
            ops: 3000,
            failed: 2,
            checks: vec!["delivered 2998 of 3000 \"probes\"".into()],
            fingerprint: "00ff00ff00ff00ff".into(),
            op_ms_p50: Some(12.5),
            allocs: 7,
            alloc_bytes: 4096,
            ..Rep::default()
        };
        rep.values.insert("events".into(), 394029.0);
        rep.values.insert("virt.goodput_kbps".into(), f64::NAN); // dropped: JSON has no NaN
        rep.spans.insert(
            "scale.handle".into(),
            SpanAgg {
                count: 10.0,
                total_ns: 5000.0,
                self_ns: 1200.0,
            },
        );
        let line = rep.to_json().render();
        assert!(!line.contains('\n'));
        let back = Rep::from_json(&Json::parse(&line).unwrap()).expect("all fields present");
        assert_eq!(back.ops, 3000);
        assert_eq!(back.failed, 2);
        assert_eq!(back.checks, rep.checks);
        assert_eq!(back.fingerprint, rep.fingerprint);
        assert_eq!(
            (back.wall_s, back.raw_wall_s, back.speed_factor),
            (1.25, 1.5, 0.8333)
        );
        assert_eq!((back.op_ms_p50, back.op_ms_tail), (Some(12.5), None));
        assert_eq!(back.values.len(), 1);
        assert_eq!(back.spans["scale.handle"].self_ns, 1200.0);
        assert!(Rep::from_json(&Json::parse("{\"wall_s\":1}").unwrap()).is_none());
    }
}

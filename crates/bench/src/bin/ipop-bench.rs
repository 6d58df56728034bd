//! `ipop-bench <scenario> [--quick] [--out PATH]` — the one entry point to
//! every experiment in [`ipop_bench`]: the paper tables and ablations print,
//! the rest write a `BENCH_*.json` artefact into the current directory (or
//! to `--out`). The ring scenarios also take `--verify`.
//!
//! This is the only file in the crate that reads the wall clock: scenarios
//! return virtual results, and `wall_s` / `events_per_sec` are added here.

use std::path::PathBuf;
use std::process::ExitCode;

use ipop_bench::json::Json;
use ipop_bench::{
    ablations, fanout, fig5, migration, scale, selfconfig, storm, streams, table1, table2, table3,
    table4, Outcome,
};

/// How a scenario is invoked.
enum Run {
    /// Takes `--quick` only.
    Plain(fn(bool) -> Outcome),
    /// [`scale::scenario`] on this many nodes; also takes `--verify`.
    Ring(u32),
}
use Run::{Plain, Ring};

/// A scenario: its name, its default artefact (`None`: it prints), its code.
type Scenario = (&'static str, Option<&'static str>, Run);

const SCENARIOS: &[Scenario] = &[
    ("table1", None, Plain(table1::scenario)),
    ("table2", None, Plain(table2::scenario)),
    ("table3", None, Plain(table3::scenario)),
    ("table4", None, Plain(table4::scenario)),
    ("fig5", None, Plain(fig5::scenario)),
    ("shortcuts", None, Plain(ablations::shortcuts_scenario)),
    ("brunet_arp", None, Plain(ablations::brunet_arp_scenario)),
    (
        "selfconfig",
        Some("BENCH_selfconfig.json"),
        Plain(selfconfig::scenario),
    ),
    (
        "migration",
        Some("BENCH_migration.json"),
        Plain(migration::scenario),
    ),
    (
        "durability",
        Some("BENCH_durability.json"),
        Plain(storm::durability),
    ),
    (
        "adversarial",
        Some("BENCH_adversarial.json"),
        Plain(storm::adversarial),
    ),
    ("fanout", Some("BENCH_fanout.json"), Plain(fanout::scenario)),
    (
        "streams",
        Some("BENCH_streams.json"),
        Plain(streams::scenario),
    ),
    ("ring_10k", Some("BENCH_scale.json"), Ring(10_000)),
    ("ring_100k", Some("BENCH_scale_100k.json"), Ring(100_000)),
];

struct Cli {
    scenario: &'static Scenario,
    quick: bool,
    verify: bool,
    out: Option<PathBuf>,
}

/// Parse the arguments after the program name. Anything the chosen scenario
/// does not take is an error: a typo must not run (and overwrite the artefact
/// of) the full-size workload.
fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let name = args.next().ok_or("no scenario given")?;
    let scenario = SCENARIOS
        .iter()
        .find(|s| s.0 == name)
        .ok_or_else(|| format!("unknown scenario `{name}`"))?;
    let mut cli = Cli {
        scenario,
        quick: false,
        verify: false,
        out: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => cli.quick = true,
            "--verify" if matches!(scenario.2, Ring(_)) => cli.verify = true,
            "--out" if scenario.1.is_some() => {
                cli.out = Some(args.next().ok_or("`--out` needs a path")?.into());
            }
            other => return Err(format!("`{name}` does not take `{other}`")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            let names: Vec<&str> = SCENARIOS.iter().map(|s| s.0).collect();
            eprintln!(
                "ipop-bench: {e}\nusage: ipop-bench <scenario> [--quick] [--out PATH]   (ring_*: also --verify)\nscenarios: {}",
                names.join(" ")
            );
            return ExitCode::from(2);
        }
    };
    let (name, artefact, run) = cli.scenario;
    // The `--verify` pass stays outside the timed region.
    if cli.verify {
        scale::verify_modes_agree();
    }
    #[allow(clippy::disallowed_types, reason = "wall_s: reporting, not simulation")]
    let started = std::time::Instant::now();
    let outcome = match run {
        Plain(scenario) => scenario(cli.quick),
        Ring(nodes) => scale::scenario(name, *nodes, cli.quick, cli.verify),
    };
    let wall_s = started.elapsed().as_secs_f64();

    if let Some(mut json) = outcome.json {
        json.push("wall_s", Json::Fixed(wall_s, 3));
        if let Some(&Json::Int(events)) = json.get("events") {
            json.push("events_per_sec", Json::Fixed(events as f64 / wall_s, 1));
            eprintln!("  {events} events in {wall_s:.2}s wall");
        }
        let path = cli
            .out
            .or(artefact.map(PathBuf::from))
            .expect("a scenario that returns an artefact names its default file");
        if let Err(e) = std::fs::write(&path, json.pretty()) {
            eprintln!("ipop-bench: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    // Gates run after the artefact is written, so a failing run leaves its
    // numbers behind.
    if let Err(e) = outcome.check {
        eprintln!("ipop-bench {name}: FAILED: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Would have caught `BENCH_hotpath.json`: committed, diffed by nothing,
    /// stale on every row.
    #[test]
    fn every_committed_artefact_belongs_to_exactly_one_scenario() {
        let names: BTreeSet<&str> = SCENARIOS.iter().map(|s| s.0).collect();
        assert_eq!(names.len(), SCENARIOS.len(), "scenario names are unique");
        let artefacts: Vec<&str> = SCENARIOS.iter().filter_map(|s| s.1).collect();
        let distinct: BTreeSet<&str> = artefacts.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            artefacts.len(),
            "no two scenarios share a file"
        );

        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for entry in std::fs::read_dir(root).expect("repo root") {
            let file = entry.expect("dir entry").file_name();
            let file = file.to_string_lossy();
            if file.starts_with("BENCH_") && file.ends_with(".json") {
                assert!(
                    distinct.contains(&*file),
                    "{file} is committed but no scenario writes it"
                );
            }
        }
    }
}

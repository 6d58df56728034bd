//! The `ipop-bench` command line: anything it does not understand is a usage
//! error that runs nothing and writes nothing — a typo such as `--quik` used
//! to fall through to the full-size workload and overwrite a committed
//! artefact — and artefacts land in the current directory, wherever that is.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory under the build's temp dir.
fn temp_cwd(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp cwd");
    dir
}

fn ipop_bench(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ipop-bench"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn ipop-bench")
}

fn files_in(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .expect("read temp cwd")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

#[test]
fn bad_command_lines_exit_2_with_usage_and_write_nothing() {
    let cwd = temp_cwd("cli-rejects");
    let cases: &[&[&str]] = &[
        &[],                                 // no scenario
        &["hotpath"],                        // unknown scenario
        &["durability", "--quik"],           // unknown flag
        &["durability", "--verify"],         // a flag only ring_* take
        &["durability", "--quick", "--out"], // --out without a value
        &["table1", "--out", "t.json"],      // a printing scenario has no artefact
    ];
    for args in cases {
        let out = ipop_bench(&cwd, args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for scenario in ["table1", "brunet_arp", "durability", "ring_100k"] {
            assert!(
                stderr.contains(scenario),
                "{args:?}: usage lists {scenario}"
            );
        }
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        assert_eq!(
            files_in(&cwd),
            Vec::<String>::new(),
            "{args:?} wrote a file"
        );
    }
}

#[test]
fn a_printing_scenario_runs_end_to_end() {
    let cwd = temp_cwd("cli-prints");
    let out = ipop_bench(&cwd, &["brunet_arp"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Brunet-ARP"));
    assert_eq!(files_in(&cwd), Vec::<String>::new());
}

#[test]
fn an_artefact_lands_in_the_cwd_or_at_out() {
    let cwd = temp_cwd("cli-writes");
    let out = ipop_bench(&cwd, &["durability", "--quick"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = ipop_bench(&cwd, &["durability", "-q", "--out", "elsewhere.json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut files = files_in(&cwd);
    files.sort();
    assert_eq!(files, ["BENCH_durability.json", "elsewhere.json"]);
    let json = std::fs::read_to_string(cwd.join("elsewhere.json")).expect("artefact");
    for key in [
        "\"mode\": \"quick\"",
        "\"events\": ",
        "\"wall_s\": ",
        "\"events_per_sec\": ",
    ] {
        assert!(json.contains(key), "artefact carries {key}: {json}");
    }
}

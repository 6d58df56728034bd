//! The repository's benchmark: six workloads, four end-to-end metrics and a
//! per-layer ledger, measured from outside through the crates' public
//! functions. See `README.md` in this directory.
//!
//! ```text
//! ipop-benchmark --workload W --seed N --seconds S --trace 0|1   one workload; result JSON on the last line
//! ipop-benchmark run [--seed N] [--reps R] [--smoke] [--out FILE]  every workload, both passes, result file
//! ipop-benchmark compare A.json B.json                           diff two result files against the bounds
//! ```

mod calib;
mod fullstack;
mod json;
mod kernels;
mod layers;
mod metrics;
mod proc;
mod rep;
mod report;
mod ringtrace;
mod span;
mod stats;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: proc::CountingAlloc = proc::CountingAlloc;

/// Value following `flag`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| {
            v.parse::<T>()
                .map_err(|_| format!("bad value for {name}: {v}"))
        })
        .transpose()
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("child") => rep::child_main(&args[1..]).map(|()| true),
        Some("run") => report::run_all(
            parse_flag(args, "--seed")?,
            parse_flag(args, "--reps")?,
            args.iter().any(|a| a == "--smoke"),
            flag(args, "--out"),
        ),
        Some("compare") => match args {
            [_, a, b] => report::compare(a, b),
            _ => Err("usage: compare A.json B.json".into()),
        },
        _ => {
            let workload = flag(args, "--workload").ok_or(
                "usage: --workload W --seed N --seconds S --trace 0|1 | run | compare A B",
            )?;
            if !workloads::NAMES.contains(&workload) {
                return Err(format!(
                    "unknown workload {workload}; one of {}",
                    workloads::NAMES.join(", ")
                ));
            }
            let seed = parse_flag(args, "--seed")?.unwrap_or(1);
            let seconds: f64 = parse_flag(args, "--seconds")?.unwrap_or(10.0);
            let trace = match flag(args, "--trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                other => return Err(format!("bad value for --trace: {other}")),
            };
            report::run_one(workload, seed, seconds, trace)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ipop-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

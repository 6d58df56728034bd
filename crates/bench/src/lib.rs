//! Experiment harness regenerating every table and figure of the IPOP paper.
//!
//! Each experiment builds the relevant physical topology (`ipop-netsim`), deploys
//! either baseline agents or a full IPOP virtual network (`ipop`), runs the
//! corresponding workload (`ipop-apps`) inside the deterministic simulator and
//! reports the same quantities the paper's tables report. Independent scenarios of
//! one table run in parallel with rayon — each scenario is its own simulation, so
//! determinism per scenario is preserved.
//!
//! Every experiment is a scenario function returning an [`Outcome`]; the one
//! binary, `ipop-bench <scenario> [--quick] [--out PATH]`, dispatches them:
//!
//! | scenario | function | artefact |
//! |---|---|---|
//! | `table1` … `table4` (paper Tables I–IV) | [`table1::scenario`] … [`table4::scenario`] | printed |
//! | `fig5` (Fig. 5) | [`fig5::scenario`] | printed |
//! | `shortcuts` (§V.1 shortcut discussion) | [`ablations::shortcuts_scenario`] | printed |
//! | `brunet_arp` (§III-E Brunet-ARP) | [`ablations::brunet_arp_scenario`] | printed |
//! | `selfconfig` | [`selfconfig::scenario`] | `BENCH_selfconfig.json` |
//! | `migration` | [`migration::scenario`] | `BENCH_migration.json` |
//! | `durability`, `adversarial` | [`storm::durability`], [`storm::adversarial`] | `BENCH_durability.json`, `BENCH_adversarial.json` |
//! | `fanout` | [`fanout::scenario`] | `BENCH_fanout.json` |
//! | `streams` | [`streams::scenario`] | `BENCH_streams.json` |
//! | `ring_10k`, `ring_100k` | [`scale::scenario`] | `BENCH_scale.json`, `BENCH_scale_100k.json` |

pub mod ablations;
pub mod fanout;
pub mod fig5;
pub mod harness;
pub mod json;
pub mod migration;
pub mod report;
pub mod scale;
pub mod scenarios;
pub mod selfconfig;
pub mod storm;
pub mod streams;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

/// What a scenario hands back to `ipop-bench`.
pub struct Outcome {
    /// The artefact, without `wall_s` / `events_per_sec` (the binary owns the
    /// wall clock); `None` for the paper tables and ablations, which print.
    pub json: Option<json::Json>,
    /// The scenario's acceptance gate, evaluated on its own results. The
    /// binary enforces it only after the artefact is written, so a failing
    /// run still leaves its numbers behind.
    pub check: Result<(), String>,
}

impl Outcome {
    /// A scenario that measured `json` and gates it with `check`.
    pub fn artefact(json: json::Json, check: Result<(), String>) -> Self {
        Outcome {
            json: Some(json),
            check,
        }
    }

    /// A scenario that printed its table and gates nothing.
    pub fn printed() -> Self {
        Outcome {
            json: None,
            check: Ok(()),
        }
    }
}

/// One clause of a scenario's gate: `Err(msg)` unless `ok`.
pub(crate) fn ensure(ok: bool, msg: impl Into<String>) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg.into())
    }
}

/// `"quick"` or `"full"`, as reported in the artefacts.
pub fn mode(quick: bool) -> &'static str {
    if quick {
        "quick"
    } else {
        "full"
    }
}

/// Parse a `--quick` flag from the command line: the `examples/` run a
/// scaled-down workload when it is present (useful in CI and while iterating).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick" || a == "-q")
}

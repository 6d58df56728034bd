//! Fixture-driven self-tests: every rule has a flagged fixture that must
//! produce findings and a clean fixture that must not. Fixtures live under
//! `tests/fixtures/` (never compiled, only lexed) and are fed to the
//! analyzer under fake workspace-relative paths, because rules scope by
//! path prefix.

use ipop_lint::analyze_files;
use ipop_lint::report::Finding;

fn run(files: &[(&str, &str)]) -> Vec<Finding> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    analyze_files(&owned)
}

fn of_rule<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn d1_flags_hash_containers_in_deterministic_crates() {
    let f = run(&[(
        "crates/overlay/src/router.rs",
        include_str!("fixtures/d1_flagged.rs"),
    )]);
    let d1 = of_rule(&f, "d1");
    // Two `use` lines and two field types.
    assert_eq!(d1.len(), 4, "{d1:#?}");
    assert!(d1.iter().any(|f| f.message.contains("HashMap")));
    assert!(d1.iter().any(|f| f.message.contains("HashSet")));
}

#[test]
fn d1_accepts_ordered_containers_and_justified_allows() {
    let f = run(&[(
        "crates/overlay/src/router.rs",
        include_str!("fixtures/d1_clean.rs"),
    )]);
    assert!(of_rule(&f, "d1").is_empty(), "{f:#?}");
    assert!(of_rule(&f, "allow").is_empty(), "{f:#?}");
}

#[test]
fn d1_ignores_non_deterministic_crates() {
    let f = run(&[(
        "crates/apps/src/main_loop.rs",
        include_str!("fixtures/d1_flagged.rs"),
    )]);
    assert!(of_rule(&f, "d1").is_empty(), "{f:#?}");
}

#[test]
fn d2_flags_wall_clock_and_ambient_entropy() {
    let f = run(&[(
        "crates/netsim/src/timing.rs",
        include_str!("fixtures/d2_flagged.rs"),
    )]);
    let d2 = of_rule(&f, "d2");
    assert!(d2.iter().any(|f| f.message.contains("Instant")), "{d2:#?}");
    assert!(d2.iter().any(|f| f.message.contains("SystemTime")));
    assert!(d2.iter().any(|f| f.message.contains("thread_rng")));
    assert!(d2.iter().any(|f| f.message.contains("thread::sleep")));
}

#[test]
fn d2_accepts_sim_time_and_justified_wall_clock() {
    let f = run(&[(
        "crates/bench/src/scale.rs",
        include_str!("fixtures/d2_clean.rs"),
    )]);
    assert!(of_rule(&f, "d2").is_empty(), "{f:#?}");
}

#[test]
fn d2_exempts_bin_entry_points() {
    let f = run(&[(
        "crates/bench/src/bin/profile.rs",
        include_str!("fixtures/d2_flagged.rs"),
    )]);
    assert!(of_rule(&f, "d2").is_empty(), "{f:#?}");
}

#[test]
fn d3_flags_panics_and_indexing_in_decoders() {
    let f = run(&[(
        "crates/packet/src/header.rs",
        include_str!("fixtures/d3_flagged.rs"),
    )]);
    let d3 = of_rule(&f, "d3");
    assert!(d3.len() >= 4, "{d3:#?}");
    assert!(d3.iter().any(|f| f.message.contains(".unwrap()")));
    assert!(d3.iter().any(|f| f.message.contains("panic!")));
    assert!(d3.iter().any(|f| f.message.contains("index expression")));
}

#[test]
fn d3_accepts_total_decoders_and_fn_scope_allows() {
    let f = run(&[(
        "crates/packet/src/header.rs",
        include_str!("fixtures/d3_clean.rs"),
    )]);
    assert!(of_rule(&f, "d3").is_empty(), "{f:#?}");
}

#[test]
fn d3_ignores_files_outside_wire_crates() {
    let f = run(&[(
        "crates/netsim/src/header.rs",
        include_str!("fixtures/d3_flagged.rs"),
    )]);
    assert!(of_rule(&f, "d3").is_empty(), "{f:#?}");
}

const PACKETS_PATH: &str = "crates/overlay/src/packets.rs";
const CORPUS_PATH: &str = "crates/overlay/tests/proptest_fuzz.rs";

#[test]
fn d4_accepts_contiguous_tags_and_full_coverage() {
    let f = run(&[
        (PACKETS_PATH, include_str!("fixtures/d4_packets_clean.rs")),
        (CORPUS_PATH, include_str!("fixtures/d4_corpus.rs")),
    ]);
    assert!(of_rule(&f, "d4").is_empty(), "{f:#?}");
}

#[test]
fn d4_flags_tag_gaps_missing_arms_and_corpus_holes() {
    let f = run(&[
        (PACKETS_PATH, include_str!("fixtures/d4_packets_flagged.rs")),
        (CORPUS_PATH, include_str!("fixtures/d4_corpus.rs")),
    ]);
    let d4 = of_rule(&f, "d4");
    assert!(
        d4.iter().any(|f| f.message.contains("not contiguous")),
        "{d4:#?}"
    );
    assert!(d4.iter().any(|f| f.message.contains("no match arm")));
    assert!(d4.iter().any(|f| f.message.contains("never decoded")));
    assert!(d4
        .iter()
        .any(|f| f.message.contains("never constructed by the fuzz corpus")));
}

#[test]
fn d5_flags_dead_counters() {
    let f = run(&[(
        "crates/netsim/src/counters.rs",
        include_str!("fixtures/d5_flagged.rs"),
    )]);
    let d5 = of_rule(&f, "d5");
    assert_eq!(d5.len(), 1, "{d5:#?}");
    assert!(d5[0].message.contains("unroutable"));
}

#[test]
fn d5_accepts_counters_with_increment_sites() {
    let f = run(&[(
        "crates/netsim/src/counters.rs",
        include_str!("fixtures/d5_clean.rs"),
    )]);
    assert!(of_rule(&f, "d5").is_empty(), "{f:#?}");
}

#[test]
fn d5_sees_through_a_component_counter_that_is_only_copied_out() {
    // `OverlayNode::stats()` copies component counters into the flat struct;
    // that assignment satisfies D5 for the flat field, so the component's
    // own struct must be checked too.
    let f = run(&[(
        "crates/overlay/src/node.rs",
        include_str!("fixtures/d5_component_flagged.rs"),
    )]);
    let d5 = of_rule(&f, "d5");
    assert_eq!(d5.len(), 1, "{d5:#?}");
    assert!(d5[0].message.contains("StreamStats.bad_acks"));
}

#[test]
fn unjustified_or_unknown_allows_are_findings_and_do_not_suppress() {
    let f = run(&[(
        "crates/core/src/x.rs",
        include_str!("fixtures/allow_unjustified.rs"),
    )]);
    let allow = of_rule(&f, "allow");
    assert_eq!(allow.len(), 2, "{allow:#?}");
    assert!(allow.iter().any(|f| f.message.contains("no justification")));
    assert!(allow.iter().any(|f| f.message.contains("unknown rule")));
    // The bare allow must NOT have silenced the HashMap findings.
    assert_eq!(of_rule(&f, "d1").len(), 2, "{f:#?}");
}

#[test]
fn seeding_a_violation_into_a_clean_set_fails_the_lint() {
    let clean = [(
        "crates/overlay/src/router.rs".to_string(),
        include_str!("fixtures/d1_clean.rs").to_string(),
    )];
    assert!(of_rule(&analyze_files(&clean), "d1").is_empty());

    let mut seeded = clean.clone();
    seeded[0]
        .1
        .push_str("\npub fn oops() { let m: HashMap<u8, u8> = HashMap::new(); }\n");
    // Both mentions are on one line and dedup to a single finding.
    assert_eq!(of_rule(&analyze_files(&seeded), "d1").len(), 1);
}

#[test]
fn findings_come_out_sorted_and_deduped() {
    let f = run(&[
        (
            "crates/overlay/src/b.rs",
            "use std::collections::HashMap;\n",
        ),
        (
            "crates/overlay/src/a.rs",
            "use std::collections::HashMap;\nuse std::collections::HashSet;\n",
        ),
    ]);
    let d1 = of_rule(&f, "d1");
    assert_eq!(d1.len(), 3);
    let keys: Vec<_> = d1.iter().map(|f| (f.file.as_str(), f.line)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}

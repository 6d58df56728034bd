//! CONTRACTS.md C4 — honest counters. Every field of the workspace's counter
//! structs has at least one `.field +=` / `-=` / `=` site in its owning
//! crate's sources: a counter nothing updates reports a permanent zero that
//! reads as "no drops" when it means "not wired up". Plain string search, no
//! parser — a field is a `pub name:` line of the struct body, a site is
//! `.name` and the operator followed by a space or a line break.

use std::fs;
use std::path::Path;

/// Each counter struct and the crate whose `src/` must update its fields. A
/// component's own counters are listed beside `OverlayStats`: the copy-out in
/// `OverlayNode::stats()` (`s.stream_opened = vs.opened;`) is an assignment
/// site for the flat field, so only the component's entry notices a counter
/// nothing increments.
const COUNTERS: &[(&str, &str)] = &[
    ("crates/overlay", "OverlayStats"),
    ("crates/overlay", "StreamStats"),
    ("crates/overlay", "MonitorStats"),
    ("crates/netsim", "NetCounters"),
    ("crates/netsim", "ImpairmentCounters"),
    ("crates/netsim", "HostCounters"),
    ("crates/netstack", "EthCounters"),
    ("crates/netstack", "TapCounters"),
    ("crates/netstack", "StackCounters"),
    ("crates/core", "IpopMetrics"),
];

fn sources(dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).expect("source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(fs::read_to_string(&path).expect("source file"));
        }
    }
}

/// The `pub` fields of `pub struct name { … }`, if `src` declares it.
fn fields<'a>(src: &'a str, name: &str) -> Option<Vec<&'a str>> {
    let (_, body) = src.split_once(&format!("pub struct {name} {{\n"))?;
    let (body, _) = body.split_once("\n}")?;
    let field = |line: &'a str| Some(line.trim().strip_prefix("pub ")?.split_once(':')?.0);
    Some(body.lines().filter_map(field).collect())
}

fn updated(src: &str, field: &str) -> bool {
    ["+=", "-=", "="].iter().any(|op| {
        let site = format!(".{field} {op}");
        src.match_indices(&site)
            .any(|(at, _)| matches!(src[at + site.len()..].chars().next(), Some(' ' | '\n')))
    })
}

#[test]
fn every_counter_field_has_an_update_site() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    for (krate, name) in COUNTERS {
        let mut srcs = Vec::new();
        sources(&root.join(krate).join("src"), &mut srcs);
        let fields = srcs
            .iter()
            .find_map(|src| fields(src, name))
            .unwrap_or_else(|| panic!("struct {name} not found in {krate}/src"));
        assert!(!fields.is_empty(), "{name} parsed as having no fields");
        let dead: Vec<&str> = fields
            .into_iter()
            .filter(|field| !srcs.iter().any(|src| updated(src, field)))
            .collect();
        assert!(
            dead.is_empty(),
            "{name} fields never incremented or assigned in {krate}/src: {dead:?}"
        );
    }
}

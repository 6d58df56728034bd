//! The five determinism/wire-safety rules, D1–D5. Each rule is a pure
//! function from the analyzed file set to findings; suppression filtering
//! happens in [`crate::analyze_files`], not here.

use crate::lexer::TokKind;
use crate::report::Finding;
use crate::scan::NON_INDEX_KEYWORDS;
use crate::SourceFile;

/// Crates whose behaviour must be a pure function of the seed: everything
/// that runs under the deterministic simulator. `apps` is excluded — that is
/// where wall-clock and OS entropy legitimately enter.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "crates/simcore/",
    "crates/netsim/",
    "crates/overlay/",
    "crates/core/",
    "crates/netstack/",
    "crates/services/",
    "crates/bench/",
];

fn in_deterministic_crate(path: &str) -> bool {
    DETERMINISTIC_CRATES.iter().any(|p| path.starts_with(p))
}

/// D1: no `HashMap`/`HashSet` in deterministic crates. Iteration order of
/// `std` hash containers is seeded per-instance, so any trace that depends on
/// it diverges across runs. Use `BTreeMap`/`BTreeSet`, or justify a
/// never-iterated set with `lint:allow(d1)`.
pub fn d1(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files.iter().filter(|f| in_deterministic_crate(&f.path)) {
        for t in &f.lexed.tokens {
            if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
                out.push(Finding::new(
                    "d1",
                    &f.path,
                    t.line,
                    format!(
                        "{} in a deterministic crate: iteration order is per-instance \
                         random; use BTreeMap/BTreeSet or justify with lint:allow(d1)",
                        t.text
                    ),
                ));
            }
        }
    }
    out
}

/// D2: no wall clock or ambient randomness in deterministic crates (outside
/// `bin/` entry points). `Instant`/`SystemTime` reads and `thread_rng`-style
/// entropy make replays diverge; simulated code must use `SimTime` and the
/// seeded RNG that the harness threads through.
pub fn d2(files: &[SourceFile]) -> Vec<Finding> {
    const BANNED: &[&str] = &["Instant", "SystemTime", "thread_rng", "OsRng"];
    let mut out = Vec::new();
    for f in files
        .iter()
        .filter(|f| in_deterministic_crate(&f.path) && !f.path.contains("/bin/"))
    {
        let toks = &f.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            if BANNED.contains(&t.text.as_str()) {
                out.push(Finding::new(
                    "d2",
                    &f.path,
                    t.line,
                    format!(
                        "{} in a deterministic crate: wall-clock/ambient entropy breaks \
                         replay; use SimTime / the seeded RNG, or justify with lint:allow(d2)",
                        t.text
                    ),
                ));
            }
            // std::thread::sleep — real time passing inside simulated code.
            if t.text == "thread"
                && toks.get(i + 1).map(|t| t.text.as_str()) == Some("::")
                && toks.get(i + 2).map(|t| t.text.as_str()) == Some("sleep")
            {
                out.push(Finding::new(
                    "d2",
                    &f.path,
                    t.line,
                    "thread::sleep in a deterministic crate: virtual time never \
                     advances by real sleeping"
                        .to_string(),
                ));
            }
        }
    }
    out
}

/// D3: wire decoders must be total. Inside any fn of the `packet` or
/// `overlay` crates whose return type mentions `ParseError`, flag the things
/// that can panic on hostile input: `.unwrap()`, `.expect()`, panicking
/// macros, and direct index expressions.
pub fn d3(files: &[SourceFile]) -> Vec<Finding> {
    const PANIC_MACROS: &[&str] = &[
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "assert",
        "assert_eq",
        "assert_ne",
    ];
    let mut out = Vec::new();
    for f in files.iter().filter(|f| {
        f.path.starts_with("crates/packet/src/") || f.path.starts_with("crates/overlay/src/")
    }) {
        let toks = &f.lexed.tokens;
        for item in f.scan.fns.iter().filter(|i| i.ret.contains("ParseError")) {
            let (lo, hi) = item.body;
            if hi <= lo {
                continue;
            }
            for k in lo..=hi {
                let t = &toks[k];
                let prev = k.checked_sub(1).map(|p| &toks[p]);
                if t.kind == TokKind::Ident
                    && (t.text == "unwrap" || t.text == "expect")
                    && prev.is_some_and(|p| p.text == ".")
                {
                    out.push(Finding::new(
                        "d3",
                        &f.path,
                        t.line,
                        format!(
                            ".{}() inside decoder `{}`: decode paths must return \
                             ParseError, never panic",
                            t.text, item.name
                        ),
                    ));
                }
                if t.kind == TokKind::Ident
                    && PANIC_MACROS.contains(&t.text.as_str())
                    && toks.get(k + 1).map(|n| n.text.as_str()) == Some("!")
                {
                    out.push(Finding::new(
                        "d3",
                        &f.path,
                        t.line,
                        format!(
                            "{}! inside decoder `{}`: decode paths must return \
                             ParseError, never panic",
                            t.text, item.name
                        ),
                    ));
                }
                if t.kind == TokKind::Punct && t.text == "[" {
                    let indexes = match prev {
                        Some(p) if p.kind == TokKind::Ident => {
                            !NON_INDEX_KEYWORDS.contains(&p.text.as_str())
                        }
                        Some(p) if p.kind == TokKind::Punct => {
                            matches!(p.text.as_str(), ")" | "]" | "?")
                        }
                        _ => false,
                    };
                    if indexes {
                        out.push(Finding::new(
                            "d3",
                            &f.path,
                            t.line,
                            format!(
                                "index expression inside decoder `{}`: use `get`/slice \
                                 patterns/`try_into`, or justify with lint:allow(d3, fn)",
                                item.name
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// One wire family for D4: an enum, the fn that writes its tag bytes, the fn
/// that matches on them, and the fuzz corpus that must construct every
/// variant.
struct WireFamily {
    enum_name: &'static str,
    file: &'static str,
    enc: (&'static str, &'static str), // (owner, fn)
    dec: (&'static str, &'static str),
    corpus: &'static str,
}

const FAMILIES: &[WireFamily] = &[
    WireFamily {
        enum_name: "RoutedPayload",
        file: "crates/overlay/src/packets.rs",
        enc: ("RoutedPacket", "write"),
        dec: ("RoutedPacket", "read"),
        corpus: "crates/overlay/tests/proptest_fuzz.rs",
    },
    WireFamily {
        enum_name: "LinkMessage",
        file: "crates/overlay/src/packets.rs",
        enc: ("LinkMessage", "to_bytes"),
        dec: ("LinkMessage", "read"),
        corpus: "crates/overlay/tests/proptest_fuzz.rs",
    },
];

/// D4: wire-tag exhaustiveness. The literal tags written by the encoder must
/// be contiguous from 0, every one must have a decoder match arm with the
/// same maximum, and every enum variant must appear in the encoder, the
/// decoder, and the fuzz corpus generator. Catches the classic drift: a new
/// variant encoded but not decoded (or never fuzzed).
pub fn d4(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for fam in FAMILIES {
        let Some(src) = files.iter().find(|f| f.path == fam.file) else {
            continue; // not linting that part of the tree (e.g. fixtures)
        };
        let find_fn = |owner: &str, name: &str| {
            src.scan
                .fns
                .iter()
                .find(|f| f.name == name && f.owner.as_deref() == Some(owner))
        };
        let (Some(enc), Some(dec)) = (find_fn(fam.enc.0, fam.enc.1), find_fn(fam.dec.0, fam.dec.1))
        else {
            out.push(Finding::new(
                "d4",
                &src.path,
                1,
                format!(
                    "cannot locate {}::{} / {}::{} — rule D4 lost its anchor; \
                     update the WireFamily table in ipop-lint",
                    fam.enc.0, fam.enc.1, fam.dec.0, fam.dec.1
                ),
            ));
            continue;
        };

        let toks = &src.lexed.tokens;
        // Encoder tags: literal arguments of `.u8(<int>)` calls in the body.
        let mut enc_tags: Vec<u64> = Vec::new();
        for k in enc.body.0..=enc.body.1 {
            if toks[k].text == "."
                && toks.get(k + 1).map(|t| t.text.as_str()) == Some("u8")
                && toks.get(k + 2).map(|t| t.text.as_str()) == Some("(")
            {
                if let Some(v) = toks.get(k + 3).and_then(int_value) {
                    if toks.get(k + 4).map(|t| t.text.as_str()) == Some(")") {
                        enc_tags.push(v);
                    }
                }
            }
        }
        // Decoder tags: `<int> =>` match arms in the body.
        let mut dec_tags: Vec<u64> = Vec::new();
        for k in dec.body.0..=dec.body.1 {
            if toks.get(k + 1).map(|t| t.text.as_str()) == Some("=>") {
                if let Some(v) = int_value(&toks[k]) {
                    dec_tags.push(v);
                }
            }
        }
        enc_tags.sort_unstable();
        enc_tags.dedup();
        dec_tags.sort_unstable();
        dec_tags.dedup();

        if enc_tags.is_empty() {
            out.push(Finding::new(
                "d4",
                &src.path,
                enc.sig_line,
                format!(
                    "no literal wire tags found in {}::{} — rule D4 cannot check {}",
                    fam.enc.0, fam.enc.1, fam.enum_name
                ),
            ));
            continue;
        }
        let max_enc = *enc_tags.last().unwrap_or(&0);
        for tag in 0..=max_enc {
            if !enc_tags.contains(&tag) {
                out.push(Finding::new(
                    "d4",
                    &src.path,
                    enc.sig_line,
                    format!(
                        "{} wire tags are not contiguous: {} is unused below max {} \
                         (retiring a tag needs an explicit reserved write or renumbering)",
                        fam.enum_name, tag, max_enc
                    ),
                ));
            }
            if !dec_tags.contains(&tag) {
                out.push(Finding::new(
                    "d4",
                    &src.path,
                    dec.sig_line,
                    format!(
                        "{} tag {} is encoded by {}::{} but has no match arm in {}::{}",
                        fam.enum_name, tag, fam.enc.0, fam.enc.1, fam.dec.0, fam.dec.1
                    ),
                ));
            }
        }
        if let Some(&max_dec) = dec_tags.last() {
            if max_dec > max_enc {
                out.push(Finding::new(
                    "d4",
                    &src.path,
                    dec.sig_line,
                    format!(
                        "{}::{} decodes tag {} that no encoder writes (max written: {})",
                        fam.dec.0, fam.dec.1, max_dec, max_enc
                    ),
                ));
            }
        }

        // Variant coverage: encoder, decoder, and fuzz corpus must all
        // mention every variant by name.
        let Some(en) = src.scan.enums.iter().find(|e| e.name == fam.enum_name) else {
            out.push(Finding::new(
                "d4",
                &src.path,
                1,
                format!("enum {} not found in {}", fam.enum_name, src.path),
            ));
            continue;
        };
        let corpus = files.iter().find(|f| f.path == fam.corpus);
        let mentions = |range: (usize, usize), name: &str| {
            toks[range.0..=range.1]
                .iter()
                .any(|t| t.kind == TokKind::Ident && t.text == name)
        };
        for v in &en.variants {
            if !mentions(enc.body, v) {
                out.push(Finding::new(
                    "d4",
                    &src.path,
                    enc.sig_line,
                    format!(
                        "{}::{} is never encoded by {}::{}",
                        fam.enum_name, v, fam.enc.0, fam.enc.1
                    ),
                ));
            }
            if !mentions(dec.body, v) {
                out.push(Finding::new(
                    "d4",
                    &src.path,
                    dec.sig_line,
                    format!(
                        "{}::{} is never decoded by {}::{}",
                        fam.enum_name, v, fam.dec.0, fam.dec.1
                    ),
                ));
            }
            match corpus {
                Some(c) => {
                    let found = c
                        .lexed
                        .tokens
                        .iter()
                        .any(|t| t.kind == TokKind::Ident && t.text == *v);
                    if !found {
                        out.push(Finding::new(
                            "d4",
                            &c.path,
                            1,
                            format!(
                                "{}::{} is never constructed by the fuzz corpus — mutated-wire \
                                 coverage has a hole",
                                fam.enum_name, v
                            ),
                        ));
                    }
                }
                None => {
                    out.push(Finding::new(
                        "d4",
                        &src.path,
                        1,
                        format!(
                            "fuzz corpus file {} missing for {}",
                            fam.corpus, fam.enum_name
                        ),
                    ));
                    break;
                }
            }
        }
    }
    out
}

/// Parse a decimal or hex integer literal token (`13`, `0x0D`, `7u8`).
fn int_value(t: &crate::lexer::Token) -> Option<u64> {
    if t.kind != TokKind::Int {
        return None;
    }
    let s: String = t.text.chars().filter(|&c| c != '_').collect();
    if let Some(hex) = s.strip_prefix("0x") {
        let hex = hex.trim_end_matches(|c: char| c.is_ascii_alphabetic() && !c.is_ascii_hexdigit());
        return u64::from_str_radix(hex, 16).ok();
    }
    let digits: String = s.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// One counters struct for D5 and the crate whose sources must touch its
/// fields. A component's own counters are listed beside `OverlayStats`: the
/// copy-out in `OverlayNode::stats()` (`s.stream_opened = vs.opened;`) is an
/// assignment site for the flat field, so only the component struct's entry
/// notices a counter nothing increments.
const COUNTER_STRUCTS: &[(&str, &str)] = &[
    ("crates/overlay/", "OverlayStats"),
    ("crates/overlay/", "StreamStats"),
    ("crates/overlay/", "MonitorStats"),
    ("crates/netsim/", "NetCounters"),
    ("crates/netsim/", "ImpairmentCounters"),
];

/// D5: dead-counter detection. Every field of the stats/counters structs must
/// have at least one `.field +=` / `-=` / `=` site in its owning crate — a
/// counter nothing increments silently reports zero forever, which is worse
/// than no counter (it looks like "no drops" instead of "not measured").
pub fn d5(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for &(prefix, struct_name) in COUNTER_STRUCTS {
        let mut decl = None;
        for f in files.iter().filter(|f| f.path.starts_with(prefix)) {
            if let Some(s) = f.scan.structs.iter().find(|s| s.name == struct_name) {
                decl = Some((f, s));
                break;
            }
        }
        let Some((decl_file, st)) = decl else {
            // Only self-check when the crate is part of the analyzed set at
            // all (fixture runs feed single files from other crates).
            if files.iter().any(|f| f.path.starts_with(prefix)) {
                out.push(Finding::new(
                    "d5",
                    &format!("{prefix}src/lib.rs"),
                    1,
                    format!(
                        "struct {struct_name} not found under {prefix} — rule D5 lost its \
                         anchor; update COUNTER_STRUCTS in ipop-lint"
                    ),
                ));
            }
            continue;
        };
        for field in &st.fields {
            let mut touched = false;
            'files: for f in files.iter().filter(|f| f.path.starts_with(prefix)) {
                let toks = &f.lexed.tokens;
                for (i, t) in toks.iter().enumerate() {
                    if t.text == "."
                        && t.kind == TokKind::Punct
                        && toks.get(i + 1).map(|n| n.text.as_str()) == Some(field.name.as_str())
                        && matches!(
                            toks.get(i + 2).map(|n| n.text.as_str()),
                            Some("+=" | "-=" | "=")
                        )
                    {
                        touched = true;
                        break 'files;
                    }
                }
            }
            if !touched {
                out.push(Finding::new(
                    "d5",
                    &decl_file.path,
                    field.line,
                    format!(
                        "{}.{} is never incremented or assigned anywhere in {} — dead \
                         counter reports a permanent zero",
                        struct_name, field.name, prefix
                    ),
                ));
            }
        }
    }
    out
}

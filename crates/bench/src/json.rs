//! The one JSON writer of the bench crate: every `BENCH_*.json` artefact is a
//! [`Json`] value built by its scenario and rendered here. Writer only — the
//! artefacts are read by `diff`, CI and people, never by this crate.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order (artefacts read top-down) and
/// floats carry the number of decimals their field is reported with, so a
/// re-run that measures the same value writes the same bytes.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i128),
    /// A float printed with exactly this many decimals; `null` when it is
    /// NaN or infinite (JSON has neither).
    Fixed(f64, usize),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A 64-bit digest as the artefacts spell it: `0x` and 16 hex digits.
    pub fn hash(v: u64) -> Json {
        Json::Str(format!("{v:#018x}"))
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Append a member to an object.
    pub fn push(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(pairs) => pairs.push((key.into(), value)),
            other => panic!("push({key}) on a non-object: {other:?}"),
        }
    }

    /// Render indented, one scalar per line (so a line-based `diff` of two
    /// artefacts names the field that moved), with a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => write!(out, "{v}").expect("write to String"),
            Json::Fixed(v, d) if v.is_finite() => write!(out, "{v:.d$}").expect("write to String"),
            Json::Fixed(..) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    out.push_str(&"  ".repeat(depth + 1));
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.into())
    }
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Int(v as i128)
            }
        }
    )*};
}
json_from_int!(u32, u64, usize, i64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_keep_key_order_and_nest_with_two_space_indent() {
        let v = Json::obj([
            ("zeta", 1u32.into()),
            (
                "alpha",
                Json::obj([("inner", true.into()), ("n", Json::Null)]),
            ),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"zeta\": 1,\n  \"alpha\": {\n    \"inner\": true,\n    \"n\": null\n  }\n}\n"
        );
        assert_eq!(v.get("zeta"), Some(&Json::Int(1)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn strings_are_escaped() {
        let v: Json = "a\"b\\c\nd\u{1}".into();
        assert_eq!(v.pretty(), "\"a\\\"b\\\\c\\u000ad\\u0001\"\n");
    }

    #[test]
    fn floats_keep_their_decimals_and_non_finite_is_null() {
        assert_eq!(Json::Fixed(1.0, 4).pretty(), "1.0000\n");
        assert_eq!(Json::Fixed(0.9999874, 6).pretty(), "0.999987\n");
        assert_eq!(Json::Fixed(f64::NAN, 3).pretty(), "null\n");
        assert_eq!(Json::Fixed(f64::INFINITY, 1).pretty(), "null\n");
        assert_eq!(Json::from(-9i64).pretty(), "-9\n");
        assert_eq!(Json::hash(0xb6c8).pretty(), "\"0x000000000000b6c8\"\n");
    }

    #[test]
    fn push_appends_to_an_object() {
        let mut v = Json::obj([("events", 10u64.into())]);
        v.push("wall_s", Json::Fixed(0.5, 3));
        assert_eq!(v.pretty(), "{\n  \"events\": 10,\n  \"wall_s\": 0.500\n}\n");
    }
}

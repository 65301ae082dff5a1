//! The one JSON writer behind every artifact the workspace emits:
//! bench reports, the `BENCH_index.json` roll-up, telemetry summaries
//! and Perfetto traces.
//!
//! The writer streams into a `String` and owns every formatting
//! decision, so callers only name keys and values:
//!
//! - nesting and separators: containers are closures, so every brace
//!   and bracket closes and every comma lands by construction;
//! - layout: a container opened inside an array is written on one
//!   line (a table row); every other container puts each member on its
//!   own line, indented two spaces per level;
//! - strings (keys included) are escaped;
//! - numbers: integers verbatim, `f64` as the shortest round-trip
//!   decimal or at a fixed precision ([`Fixed`]), and a non-finite
//!   `f64` as `null`.
//!
//! ```
//! use tempus_telemetry::json::{self, Fixed, Hex};
//!
//! let doc = json::object(|o| {
//!     o.field("experiment", "demo").field("speedup", Fixed(2.5, 2));
//!     o.array("rows", |a| {
//!         a.object(|r| {
//!             r.field("digest", Hex(0xbeef)).field("ok", true);
//!         });
//!     });
//! });
//! assert_eq!(
//!     doc,
//!     "{\n  \"experiment\": \"demo\",\n  \"speedup\": 2.50,\n  \"rows\": [\n    \
//!      {\"digest\": \"000000000000beef\", \"ok\": true}\n  ]\n}\n"
//! );
//! ```

use std::fmt::Write as _;

/// A value the writer can emit.
pub trait JsonValue {
    /// Appends the value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

/// An `f64` written with a fixed number of decimal places (`null`
/// when not finite).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fixed(pub f64, pub usize);

/// A 64-bit digest written as a 16-digit lowercase hex string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hex(pub u64);

macro_rules! display_json {
    ($($t:ty),*) => {$(
        impl JsonValue for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_json!(bool, u8, u32, u64, usize, i64);

impl JsonValue for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl JsonValue for Fixed {
    fn write_json(&self, out: &mut String) {
        let Fixed(value, places) = *self;
        if value.is_finite() {
            let _ = write!(out, "{value:.places$}");
        } else {
            out.push_str("null");
        }
    }
}

impl JsonValue for Hex {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "\"{:016x}\"", self.0);
    }
}

impl JsonValue for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for ch in self.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if u32::from(c) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", u32::from(c));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl JsonValue for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: JsonValue + ?Sized> JsonValue for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// Streaming state shared by [`JsonObject`] and [`JsonArray`].
#[derive(Debug)]
struct Writer {
    out: String,
    depth: usize,
    /// Inside a one-line container.
    inline: bool,
    /// No member written yet in the open container.
    first: bool,
}

impl Writer {
    /// Separator and indentation ahead of the next member.
    fn member(&mut self) {
        if !std::mem::replace(&mut self.first, false) {
            self.out.push(',');
            if self.inline {
                self.out.push(' ');
            }
        }
        if !self.inline {
            self.newline();
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    fn key(&mut self, key: &str) {
        self.member();
        key.write_json(&mut self.out);
        self.out.push_str(": ");
    }

    fn container(&mut self, brackets: [char; 2], inline: bool, body: impl FnOnce(&mut Writer)) {
        let outer = (self.inline, self.first);
        self.inline |= inline;
        self.first = true;
        self.depth += 1;
        self.out.push(brackets[0]);
        body(self);
        self.depth -= 1;
        if !self.first && !self.inline {
            self.newline();
        }
        self.out.push(brackets[1]);
        (self.inline, self.first) = outer;
    }
}

/// An open JSON object: members are `key: value` pairs.
#[derive(Debug)]
pub struct JsonObject<'a>(&'a mut Writer);

/// An open JSON array.
#[derive(Debug)]
pub struct JsonArray<'a>(&'a mut Writer);

impl JsonObject<'_> {
    /// Writes `key: value`.
    pub fn field(&mut self, key: &str, value: impl JsonValue) -> &mut Self {
        self.0.key(key);
        value.write_json(&mut self.0.out);
        self
    }

    /// Writes `key: {…}`, with `body` filling the nested object.
    pub fn object(&mut self, key: &str, body: impl FnOnce(&mut JsonObject<'_>)) -> &mut Self {
        self.0.key(key);
        self.0
            .container(['{', '}'], false, |w| body(&mut JsonObject(w)));
        self
    }

    /// Writes `key: […]`, with `body` filling the array.
    pub fn array(&mut self, key: &str, body: impl FnOnce(&mut JsonArray<'_>)) -> &mut Self {
        self.0.key(key);
        self.0
            .container(['[', ']'], false, |w| body(&mut JsonArray(w)));
        self
    }
}

impl JsonArray<'_> {
    /// Appends one value.
    pub fn item(&mut self, value: impl JsonValue) -> &mut Self {
        self.0.member();
        value.write_json(&mut self.0.out);
        self
    }

    /// Appends one object, written on a single line.
    pub fn object(&mut self, body: impl FnOnce(&mut JsonObject<'_>)) -> &mut Self {
        self.0.member();
        self.0
            .container(['{', '}'], true, |w| body(&mut JsonObject(w)));
        self
    }
}

/// Writes one JSON document whose top level is an object filled by
/// `body`, ending in a newline.
#[must_use]
pub fn object(body: impl FnOnce(&mut JsonObject<'_>)) -> String {
    let mut writer = Writer {
        out: String::new(),
        depth: 0,
        inline: false,
        first: true,
    };
    writer.container(['{', '}'], false, |w| body(&mut JsonObject(w)));
    writer.out.push('\n');
    writer.out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_layout_and_empty_containers() {
        let doc = object(|o| {
            o.field("n", 3u64).object("empty", |_| {});
            o.array("none", |_| {});
            o.object("inner", |i| {
                i.field("a", -1i64).array("xs", |a| {
                    a.item(1u8).item(2u8);
                });
            });
            o.array("rows", |a| {
                a.object(|r| {
                    r.field("k", "v").object("args", |x| {
                        x.field("id", 7u32);
                    });
                    r.array("e", |_| {});
                });
                a.object(|_| {});
            });
        });
        let expected = "{\n  \"n\": 3,\n  \"empty\": {},\n  \"none\": [],\n  \"inner\": {\n    \
                        \"a\": -1,\n    \"xs\": [\n      1,\n      2\n    ]\n  },\n  \"rows\": [\n    \
                        {\"k\": \"v\", \"args\": {\"id\": 7}, \"e\": []},\n    {}\n  ]\n}\n";
        assert_eq!(doc, expected);
    }

    #[test]
    fn strings_and_keys_are_escaped() {
        let doc = object(|o| {
            o.field("q\"k", "a\"b\\c\nd\re\tf\u{1}g — ü");
        });
        assert_eq!(
            doc,
            "{\n  \"q\\\"k\": \"a\\\"b\\\\c\\nd\\re\\tf\\u0001g — ü\"\n}\n"
        );
    }

    #[test]
    fn numbers_and_non_finite_values() {
        let doc = object(|o| {
            o.field("f", 0.1f64)
                .field("whole", 2.0f64)
                .field("fixed", Fixed(1.23456, 3))
                .field("round", Fixed(2.0, 1))
                .field("nan", f64::NAN)
                .field("inf", f64::INFINITY)
                .field("fixed_nan", Fixed(f64::NEG_INFINITY, 2))
                .field("max", u64::MAX)
                .field("hex", Hex(0x1f))
                .field("yes", true)
                .field("owned", String::from("s"));
        });
        assert_eq!(
            doc,
            "{\n  \"f\": 0.1,\n  \"whole\": 2,\n  \"fixed\": 1.235,\n  \"round\": 2.0,\n  \
             \"nan\": null,\n  \"inf\": null,\n  \"fixed_nan\": null,\n  \
             \"max\": 18446744073709551615,\n  \"hex\": \"000000000000001f\",\n  \
             \"yes\": true,\n  \"owned\": \"s\"\n}\n"
        );
    }
}

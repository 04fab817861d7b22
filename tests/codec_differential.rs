//! The streaming JSON serializer and deserializer against the tree
//! paths they replaced, and the slice-by-8 checksum against the bytewise
//! one.
//!
//! Until PR 16 every `serde_json::to_*` call built a `Value` tree and
//! rendered that. The tree survives as a data type (`to_value`,
//! `json!`), so it is the oracle: for any value, streaming it must give
//! the bytes that building its tree and rendering the tree gives — both
//! through today's `to_vec(&tree)` and through [`reference`], the old
//! renderer kept here verbatim — compact and pretty alike.
//!
//! Until PR 20 every `serde_json::from_*` call parsed the whole document
//! into a `Value` and took the typed data out of the tree. That decoder
//! is kept in [`tree_decoder`] and is the oracle for the streaming one:
//! on any bytes — a value's compact or pretty encoding, the same with
//! keys reordered, added, removed or repeated, cut short, a byte changed
//! or a node replaced by one of another type — both accept and give the
//! same value, or both reject. The one intended difference is the number
//! grammar: the old parser leaned on `str::parse` and took `01`, `1.`,
//! `1.e5` and `-.5`; RFC 8259 and the new one do not.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use fremont::journal::observation::{Fact, Observation, Source};
use fremont::journal::proto::{
    IntrospectReport, Request, RequestEnvelope, Response, StoreBatchItem, TraceContext,
    WalStateReport,
};
use fremont::journal::query::{InterfaceQuery, SubnetQuery};
use fremont::journal::records::InterfaceId;
use fremont::journal::store::Journal;
use fremont::journal::time::JTime;
use fremont::net::{MacAddr, Subnet, SubnetMask};
use fremont::netsim::faults::{FaultEvent, FaultKind, FaultPlan};
use fremont::storage::crc32::crc32;
use fremont::storage::WalRecord;
use fremont::telemetry::TraceEvent;
use proptest::prelude::*;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

/// The renderer `vendor/serde_json/src/write.rs` held before the
/// streaming serializer replaced it.
mod reference {
    use serde_json::Value;

    pub fn render(value: &Value, pretty: bool) -> Vec<u8> {
        let mut out = String::new();
        emit(value, pretty.then_some(0), &mut out);
        out.into_bytes()
    }

    fn emit(value: &Value, indent: Option<usize>, out: &mut String) {
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(v) => out.push_str(&v.to_string()),
            Value::UInt(v) => out.push_str(&v.to_string()),
            Value::Float(v) => {
                if v.is_finite() {
                    let s = v.to_string();
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => emit_string(s, out),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(level) = indent {
                        newline_indent(level + 1, out);
                        emit(item, Some(level + 1), out);
                    } else {
                        emit(item, None, out);
                    }
                }
                if let Some(level) = indent {
                    newline_indent(level, out);
                }
                out.push(']');
            }
            Value::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, val)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(level) = indent {
                        newline_indent(level + 1, out);
                        emit_string(key, out);
                        out.push_str(": ");
                        emit(val, Some(level + 1), out);
                    } else {
                        emit_string(key, out);
                        out.push(':');
                        emit(val, None, out);
                    }
                }
                if let Some(level) = indent {
                    newline_indent(level, out);
                }
                out.push('}');
            }
        }
    }

    fn newline_indent(level: usize, out: &mut String) {
        out.push('\n');
        for _ in 0..level {
            out.push_str("  ");
        }
    }

    fn emit_string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// Streams `x` and renders its tree, compact and pretty; all must agree.
fn check<T: Serialize>(x: &T) -> Result<(), TestCaseError> {
    let tree = serde_json::to_value(x).expect("to_value");
    for (pretty, streamed, tree_streamed) in [
        (
            false,
            serde_json::to_vec(x).expect("to_vec"),
            serde_json::to_vec(&tree).expect("to_vec(tree)"),
        ),
        (
            true,
            serde_json::to_vec_pretty(x).expect("to_vec_pretty"),
            serde_json::to_vec_pretty(&tree).expect("to_vec_pretty(tree)"),
        ),
    ] {
        let streamed = String::from_utf8(streamed).expect("UTF-8");
        prop_assert_eq!(
            &streamed,
            &String::from_utf8(tree_streamed).expect("UTF-8"),
            "streamed value != streamed tree (pretty: {pretty})"
        );
        prop_assert_eq!(
            &streamed,
            &String::from_utf8(reference::render(&tree, pretty)).expect("UTF-8"),
            "streamed value != tree rendered by the old emitter (pretty: {pretty})"
        );
    }
    prop_assert_eq!(
        serde_json::to_string(x).expect("to_string").into_bytes(),
        serde_json::to_vec(x).expect("to_vec")
    );
    Ok(())
}

/// The decoder `serde_json::from_str` was until the streaming one
/// replaced it: `parse` the text into a tree, then `from_value` the tree
/// into the type.
///
/// `parse` is `vendor/serde_json/src/read.rs` and `take_field`,
/// `expect_array`, `expect_object`, `from_value` are
/// `vendor/serde/src/__private.rs`, both as the parent commit held them
/// (only the error type differs: the parser used `serde_json::Error`,
/// whose constructor is private). What cannot be kept verbatim is the
/// code the old derive generated and the `deserialize_tree` trait method
/// it called, since the types under test now derive the visitor shape.
/// `ValueDeserializer` therefore presents the tree to those visitors the
/// way the generated code read it: a struct is `expect_object` and one
/// `take_field` per declared field, in declaration order — so unknown
/// keys, repeated keys and absent keys are settled by `take_field`, not
/// by the visitor under test — a tuple is an array of exactly its
/// length, and an enum is a string naming a unit variant or a single-key
/// object naming any other.
mod tree_decoder {
    use serde::de::{
        DeserializeOwned, DeserializeSeed, Deserializer, EnumAccess, MapAccess, SeqAccess,
        VariantAccess, Visitor,
    };
    use serde::value::{Value, ValueError};

    type Error = ValueError;

    fn new_error(msg: String) -> Error {
        ValueError(msg)
    }

    /// Nesting limit: protects the stack from adversarial input arriving
    /// over the Journal wire protocol.
    const MAX_DEPTH: usize = 256;

    pub fn parse(input: &str) -> Result<Value, Error> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn err(&self, msg: &str) -> Error {
            new_error(format!("{msg} at byte {}", self.pos))
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn bump(&mut self) -> Option<u8> {
            let b = self.peek()?;
            self.pos += 1;
            Some(b)
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), Error> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected {:?}", b as char)))
            }
        }

        fn literal(&mut self, lit: &str, value: Value) -> Result<Value, Error> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(value)
            } else {
                Err(self.err(&format!("invalid literal (expected {lit})")))
            }
        }

        fn value(&mut self, depth: usize) -> Result<Value, Error> {
            if depth > MAX_DEPTH {
                return Err(self.err("JSON nesting too deep"));
            }
            match self.peek() {
                Some(b'n') => self.literal("null", Value::Null),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'"') => self.string().map(Value::Str),
                Some(b'[') => self.array(depth),
                Some(b'{') => self.object(depth),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                Some(c) => Err(self.err(&format!("unexpected character {:?}", c as char))),
                None => Err(self.err("unexpected end of input")),
            }
        }

        fn array(&mut self, depth: usize) -> Result<Value, Error> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value(depth + 1)?);
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b']') => return Ok(Value::Array(items)),
                    _ => return Err(self.err("expected ',' or ']' in array")),
                }
            }
        }

        fn object(&mut self, depth: usize) -> Result<Value, Error> {
            self.expect(b'{')?;
            let mut entries = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(entries));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value(depth + 1)?;
                entries.push((key, value));
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b'}') => return Ok(Value::Object(entries)),
                    _ => return Err(self.err("expected ',' or '}' in object")),
                }
            }
        }

        fn string(&mut self) -> Result<String, Error> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.bump() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => return Ok(out),
                    Some(b'\\') => match self.bump() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000
                                    + ((u32::from(hi) - 0xD800) << 10)
                                    + (u32::from(lo) - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(u32::from(hi))
                                    .ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    },
                    Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                    Some(c) if c < 0x80 => out.push(c as char),
                    Some(c) => {
                        // Multi-byte UTF-8: the input is validated UTF-8, so
                        // re-decode the sequence starting at pos-1.
                        let start = self.pos - 1;
                        let width = match c {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let end = (start + width).min(self.bytes.len());
                        let s = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid UTF-8 in string"))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }

        fn hex4(&mut self) -> Result<u16, Error> {
            let mut v: u16 = 0;
            for _ in 0..4 {
                let d = match self.bump() {
                    Some(c @ b'0'..=b'9') => c - b'0',
                    Some(c @ b'a'..=b'f') => c - b'a' + 10,
                    Some(c @ b'A'..=b'F') => c - b'A' + 10,
                    _ => return Err(self.err("invalid \\u escape")),
                };
                v = (v << 4) | u16::from(d);
            }
            Ok(v)
        }

        fn number(&mut self) -> Result<Value, Error> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            let mut is_float = false;
            if self.peek() == Some(b'.') {
                is_float = true;
                self.pos += 1;
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                is_float = true;
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .expect("number spans ASCII bytes");
            if text.is_empty() || text == "-" {
                return Err(self.err("invalid number"));
            }
            if !is_float {
                if let Some(stripped) = text.strip_prefix('-') {
                    if stripped.parse::<u64>().is_ok() || text.parse::<i64>().is_ok() {
                        if let Ok(v) = text.parse::<i64>() {
                            return Ok(Value::Int(v));
                        }
                    }
                } else if let Ok(v) = text.parse::<u64>() {
                    return Ok(Value::UInt(v));
                }
            }
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("invalid number"))
        }
    }

    /// Deserializer reading from an in-memory value tree.
    pub struct ValueDeserializer(pub Value);

    /// Deserializes any `DeserializeOwned` from a value tree.
    pub fn from_value<T: DeserializeOwned>(value: Value) -> Result<T, ValueError> {
        T::deserialize(ValueDeserializer(value))
    }

    /// Removes a field from an object's entries; `Null` when absent (so
    /// `Option` fields tolerate missing keys, as serde_json does).
    pub fn take_field(entries: &mut Vec<(String, Value)>, name: &str) -> Value {
        match entries.iter().position(|(k, _)| k == name) {
            Some(i) => entries.remove(i).1,
            None => Value::Null,
        }
    }

    /// Unwraps an array value.
    pub fn expect_array(value: Value, what: &str) -> Result<Vec<Value>, ValueError> {
        match value {
            Value::Array(items) => Ok(items),
            other => Err(ValueError(format!(
                "{what}: expected array, found {}",
                other.kind()
            ))),
        }
    }

    /// Unwraps an object value.
    pub fn expect_object(value: Value, what: &str) -> Result<Vec<(String, Value)>, ValueError> {
        match value {
            Value::Object(entries) => Ok(entries),
            other => Err(ValueError(format!(
                "{what}: expected object, found {}",
                other.kind()
            ))),
        }
    }

    /// `serde_json::from_slice` as it was.
    pub fn from_slice<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, Error> {
        let s = std::str::from_utf8(bytes).map_err(|e| new_error(format!("invalid UTF-8: {e}")))?;
        from_value(parse(s)?)
    }

    impl<'de> Deserializer<'de> for ValueDeserializer {
        type Error = ValueError;

        fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, ValueError> {
            match self.0 {
                Value::Null => visitor.visit_unit(),
                Value::Bool(v) => visitor.visit_bool(v),
                Value::Int(v) => visitor.visit_i64(v),
                Value::UInt(v) => visitor.visit_u64(v),
                Value::Float(v) => visitor.visit_f64(v),
                Value::Str(v) => visitor.visit_str(&v),
                // A `Vec` took every item; a tuple, a tuple struct and a
                // tuple variant first checked `items.len() != n`.
                Value::Array(items) => {
                    let mut items = items.into_iter();
                    let value = visitor.visit_seq(Items(&mut items))?;
                    match items.len() {
                        0 => Ok(value),
                        left => Err(ValueError(format!("{left} more elements than expected"))),
                    }
                }
                // A map and a `Value` took every entry.
                Value::Object(entries) => visitor.visit_map(Entries {
                    entries: entries.into_iter(),
                    value: None,
                }),
            }
        }

        fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, ValueError> {
            match self.0 {
                Value::Null => visitor.visit_none(),
                other => visitor.visit_some(ValueDeserializer(other)),
            }
        }

        fn deserialize_struct<V: Visitor<'de>>(
            self,
            name: &'static str,
            fields: &'static [&'static str],
            visitor: V,
        ) -> Result<V::Value, ValueError> {
            let mut obj = expect_object(self.0, name)?;
            let taken: Vec<(String, Value)> = fields
                .iter()
                .map(|field| ((*field).to_owned(), take_field(&mut obj, field)))
                .collect();
            visitor.visit_map(Entries {
                entries: taken.into_iter(),
                value: None,
            })
        }

        fn deserialize_enum<V: Visitor<'de>>(
            self,
            name: &'static str,
            _variants: &'static [&'static str],
            visitor: V,
        ) -> Result<V::Value, ValueError> {
            match self.0 {
                Value::Str(variant) => visitor.visit_enum(Variant {
                    variant,
                    content: None,
                }),
                Value::Object(mut obj) if obj.len() == 1 => {
                    let (variant, inner) = obj.remove(0);
                    visitor.visit_enum(Variant {
                        variant,
                        content: Some(inner),
                    })
                }
                other => Err(ValueError(format!(
                    "{name}: expected variant string or single-key object, found {}",
                    other.kind()
                ))),
            }
        }
    }

    struct Items<'a>(&'a mut std::vec::IntoIter<Value>);

    impl<'de> SeqAccess<'de> for Items<'_> {
        type Error = ValueError;

        fn next_element_seed<T: DeserializeSeed<'de>>(
            &mut self,
            seed: T,
        ) -> Result<Option<T::Value>, ValueError> {
            self.0
                .next()
                .map(|item| seed.deserialize(ValueDeserializer(item)))
                .transpose()
        }
    }

    struct Entries {
        entries: std::vec::IntoIter<(String, Value)>,
        value: Option<Value>,
    }

    impl<'de> MapAccess<'de> for Entries {
        type Error = ValueError;

        fn next_key_seed<K: DeserializeSeed<'de>>(
            &mut self,
            seed: K,
        ) -> Result<Option<K::Value>, ValueError> {
            let Some((key, value)) = self.entries.next() else {
                return Ok(None);
            };
            self.value = Some(value);
            seed.deserialize(ValueDeserializer(Value::Str(key)))
                .map(Some)
        }

        fn next_value_seed<V: DeserializeSeed<'de>>(
            &mut self,
            seed: V,
        ) -> Result<V::Value, ValueError> {
            let value = self.value.take().expect("a key was read first");
            seed.deserialize(ValueDeserializer(value))
        }
    }

    /// An enum's variant name and, in the single-key object form, what
    /// the key held. The string arms of the generated match knew the
    /// unit variants only, the object arms every other variant only.
    struct Variant {
        variant: String,
        content: Option<Value>,
    }

    impl Variant {
        fn unknown(&self) -> ValueError {
            ValueError(format!("unknown variant {:?}", self.variant))
        }
    }

    impl<'de> EnumAccess<'de> for Variant {
        type Error = ValueError;
        type Variant = Self;

        fn variant_seed<V: DeserializeSeed<'de>>(
            self,
            seed: V,
        ) -> Result<(V::Value, Self), ValueError> {
            let index = seed.deserialize(ValueDeserializer(Value::Str(self.variant.clone())))?;
            Ok((index, self))
        }
    }

    impl<'de> VariantAccess<'de> for Variant {
        type Error = ValueError;

        fn unit_variant(self) -> Result<(), ValueError> {
            match self.content {
                None => Ok(()),
                Some(_) => Err(self.unknown()),
            }
        }

        fn newtype_variant_seed<T: DeserializeSeed<'de>>(
            self,
            seed: T,
        ) -> Result<T::Value, ValueError> {
            match self.content {
                Some(inner) => seed.deserialize(ValueDeserializer(inner)),
                None => Err(self.unknown()),
            }
        }

        fn tuple_variant<V: Visitor<'de>>(
            self,
            len: usize,
            visitor: V,
        ) -> Result<V::Value, ValueError> {
            let Some(inner) = self.content else {
                return Err(self.unknown());
            };
            let items = expect_array(inner, &self.variant)?;
            if items.len() != len {
                return Err(ValueError(format!(
                    "{}: expected {len} elements, found {}",
                    self.variant,
                    items.len()
                )));
            }
            visitor.visit_seq(Items(&mut items.into_iter()))
        }

        fn struct_variant<V: Visitor<'de>>(
            self,
            fields: &'static [&'static str],
            visitor: V,
        ) -> Result<V::Value, ValueError> {
            match self.content {
                Some(inner) => {
                    ValueDeserializer(inner).deserialize_struct("variant", fields, visitor)
                }
                None => Err(self.unknown()),
            }
        }
    }
}

/// Whether the streaming decoder and the tree decoder agree on `bytes`
/// read as a `T`; the value, when both accept. Also reads `bytes` as a
/// `Value` both ways: there no visitor can object, so the trees are
/// equal or the two error messages are, byte position included.
fn agree<T: DeserializeOwned + Serialize>(
    what: &str,
    bytes: &[u8],
) -> Result<Option<T>, TestCaseError> {
    let shown = String::from_utf8_lossy(bytes);
    // The spellings the old number grammar let through.
    let stricter = |e: &serde_json::Error| e.to_string().starts_with("invalid number");

    let streamed = serde_json::from_slice::<serde_json::Value>(bytes);
    let tree = std::str::from_utf8(bytes)
        .map_err(|e| serde::value::ValueError(format!("invalid UTF-8: {e}")))
        .and_then(tree_decoder::parse);
    match (&streamed, &tree) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{what}: Value of {shown}"),
        (Err(e), _) if stricter(e) => {}
        (Err(a), Err(b)) => {
            prop_assert_eq!(a.to_string(), b.to_string(), "{what}: Value of {shown}")
        }
        (a, b) => prop_assert!(false, "{what}: Value of {shown}: {a:?} but the tree {b:?}"),
    }

    let streamed = serde_json::from_slice::<T>(bytes);
    let tree = tree_decoder::from_slice::<T>(bytes);
    match (streamed, tree) {
        (Ok(a), Ok(b)) => {
            let a_bytes = serde_json::to_string(&a).expect("to_string");
            prop_assert_eq!(
                &a_bytes,
                &serde_json::to_string(&b).expect("to_string"),
                "{what}: {shown}"
            );
            Ok(Some(a))
        }
        (Err(_), Err(_)) => Ok(None),
        (Err(e), Ok(_)) if stricter(&e) => Ok(None),
        (a, b) => {
            prop_assert!(
                false,
                "{what}: {shown}: streamed {:?} but the tree {:?}",
                a.map(drop),
                b.map(drop)
            );
            unreachable!()
        }
    }
}

/// A small deterministic generator for picking what to change.
struct Picks(u64);

impl Picks {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) as usize) % n.max(1)
    }
}

/// Every node of `doc`, children before their parent (so that what `f`
/// adds to a node is not itself visited).
fn for_each_node(doc: &mut serde_json::Value, f: &mut dyn FnMut(&mut serde_json::Value)) {
    use serde_json::Value;
    match doc {
        Value::Array(items) => items.iter_mut().for_each(|v| for_each_node(v, f)),
        Value::Object(entries) => entries.iter_mut().for_each(|(_, v)| for_each_node(v, f)),
        _ => {}
    }
    f(doc);
}

/// A copy of `doc` with `edit` applied to the `pick`-th (modulo their
/// number) node that `wanted` selects; `None` when it selects none.
fn edited(
    doc: &serde_json::Value,
    wanted: fn(&serde_json::Value) -> bool,
    pick: usize,
    edit: &mut dyn FnMut(&mut serde_json::Value),
) -> Option<serde_json::Value> {
    let mut doc = doc.clone();
    let mut count = 0;
    for_each_node(&mut doc, &mut |v| count += usize::from(wanted(v)));
    if count == 0 {
        return None;
    }
    let mut countdown = pick % count + 1;
    for_each_node(&mut doc, &mut |v| {
        if wanted(v) {
            countdown -= 1;
            if countdown == 0 {
                edit(v);
                countdown = usize::MAX;
            }
        }
    });
    Some(doc)
}

fn is_object(v: &serde_json::Value) -> bool {
    matches!(v, serde_json::Value::Object(_))
}

fn is_filled_object(v: &serde_json::Value) -> bool {
    matches!(v, serde_json::Value::Object(entries) if !entries.is_empty())
}

/// What an unknown key, or the later copy of a repeated one, holds: a
/// bit of everything, so skipping it walks every kind of token.
fn junk() -> serde_json::Value {
    serde_json::json!({
        "deep": serde_json::json!([1u8, -2i8, 0.5f64, "é\n\u{1}\"", true]),
        "none": serde_json::Value::Null,
    })
}

/// What the top of a type's encoding is, for the edits whose outcome
/// follows from it.
#[derive(Clone, Copy, PartialEq)]
enum Top {
    /// A struct's object: an unknown key and a repeated key change
    /// nothing.
    Struct,
    /// Any other typed target: keys may still come in any order.
    Other,
    /// A `Value`, which keeps every key in the order it came: only
    /// agreement is checked.
    Tree,
}

/// Decodes `x`'s encodings, and damaged copies of them, with both
/// decoders; `seed` picks where the damage goes.
fn check_decode<T: DeserializeOwned + Serialize>(
    x: &T,
    top: Top,
    seed: u64,
) -> Result<(), TestCaseError> {
    use serde_json::Value;
    let compact = serde_json::to_vec(x).expect("to_vec");
    let pretty = serde_json::to_vec_pretty(x).expect("to_vec_pretty");
    // A NaN is written as null and read back as an error, by both.
    let Some(back) = agree::<T>("compact", &compact)? else {
        prop_assert!(agree::<T>("pretty", &pretty)?.is_none());
        return Ok(());
    };
    let same = |what: &str, got: Option<T>| -> Result<(), TestCaseError> {
        let Some(got) = got else {
            prop_assert!(false, "{what}: rejected");
            unreachable!()
        };
        prop_assert_eq!(
            serde_json::to_vec(&got).expect("to_vec"),
            compact.clone(),
            "{what}: decoded to another value"
        );
        Ok(())
    };
    same("compact", Some(back))?;
    same("pretty", agree::<T>("pretty", &pretty)?)?;

    let doc = tree_decoder::parse(std::str::from_utf8(&compact).expect("UTF-8")).expect("parse");
    let mut picks = Picks(seed);
    let render = |doc: &Value, picks: &mut Picks| {
        if picks.below(2) == 0 {
            serde_json::to_vec(doc).expect("to_vec")
        } else {
            serde_json::to_vec_pretty(doc).expect("to_vec_pretty")
        }
    };

    // Keys in another order, in every object at once.
    let mut shuffled = doc.clone();
    for_each_node(&mut shuffled, &mut |v| {
        if let Value::Object(entries) = v {
            let by = picks.below(entries.len());
            entries.rotate_left(by);
            if picks.below(2) == 0 {
                entries.reverse();
            }
        }
    });
    let got = agree::<T>("shuffled", &render(&shuffled, &mut picks))?;
    if top != Top::Tree {
        same("shuffled", got)?;
    }

    // An Option's (and a unit struct's) key absent, everywhere at once.
    let mut sparse = doc.clone();
    for_each_node(&mut sparse, &mut |v| {
        if let Value::Object(entries) = v {
            entries.retain(|(_, v)| *v != Value::Null);
        }
    });
    let got = agree::<T>("nulls removed", &render(&sparse, &mut picks))?;
    if top == Top::Struct {
        same("nulls removed", got)?;
    }

    // An unknown key and a repeated key at the top, where what they do
    // to the value is known, and in an object picked anywhere.
    let unknown = |v: &mut Value, at: usize| {
        if let Value::Object(entries) = v {
            entries.insert(at % (entries.len() + 1), ("~unknown".to_owned(), junk()));
        }
    };
    let repeated = |v: &mut Value, which: usize, first: bool| {
        if let Value::Object(entries) = v {
            let key = entries[which % entries.len()].0.clone();
            if first {
                entries.insert(0, (key, junk()));
            } else {
                entries.push((key, junk()));
            }
        }
    };
    if top == Top::Struct {
        let mut with_unknown = doc.clone();
        unknown(&mut with_unknown, picks.below(8));
        same(
            "unknown key at the top",
            agree::<T>("unknown key at the top", &render(&with_unknown, &mut picks))?,
        )?;
        let mut with_repeat = doc.clone();
        repeated(&mut with_repeat, picks.below(8), false);
        same(
            "repeated key at the top",
            agree::<T>("repeated key at the top", &render(&with_repeat, &mut picks))?,
        )?;
    }
    let (pick, at, first) = (picks.below(usize::MAX), picks.below(8), picks.below(2) == 0);
    if let Some(d) = edited(&doc, is_object, pick, &mut |v| unknown(v, at)) {
        agree::<T>("unknown key", &render(&d, &mut picks))?;
    }
    if let Some(d) = edited(&doc, is_filled_object, pick, &mut |v| {
        repeated(v, at, first)
    }) {
        agree::<T>("repeated key", &render(&d, &mut picks))?;
    }
    let mut everywhere = doc.clone();
    for_each_node(&mut everywhere, &mut |v| unknown(v, at));
    agree::<T>("unknown key everywhere", &render(&everywhere, &mut picks))?;

    // Any one key removed.
    if let Some(d) = edited(&doc, is_filled_object, pick, &mut |v| {
        if let Value::Object(entries) = v {
            entries.remove(at % entries.len());
        }
    }) {
        agree::<T>("key removed", &render(&d, &mut picks))?;
    }

    // One node replaced by a value of another type.
    for _ in 0..2 {
        let d = edited(&doc, |_| true, picks.below(usize::MAX), &mut |v| {
            *v = match v {
                Value::Null => Value::Bool(false),
                Value::Bool(_) => Value::UInt(1),
                Value::Int(_) | Value::UInt(_) => Value::Str("7".to_owned()),
                Value::Float(_) => Value::Array(vec![]),
                Value::Str(_) => Value::UInt(7),
                Value::Array(_) => Value::Object(vec![]),
                Value::Object(_) => Value::Array(vec![Value::Null]),
            }
        })
        .expect("the root is a node");
        agree::<T>("type swapped", &render(&d, &mut picks))?;
    }

    // A string turned into a single-key object and the reverse: an enum
    // in the form its variant does not take.
    let to_keyed = edited(
        &doc,
        |v| matches!(v, Value::Str(_)),
        picks.below(usize::MAX),
        &mut |v| {
            if let Value::Str(name) = v {
                *v = Value::Object(vec![(std::mem::take(name), Value::Null)]);
            }
        },
    );
    let to_bare = edited(
        &doc,
        |v| matches!(v, Value::Object(entries) if entries.len() == 1),
        picks.below(usize::MAX),
        &mut |v| {
            if let Value::Object(entries) = v {
                *v = Value::Str(std::mem::take(&mut entries[0].0));
            }
        },
    );
    for d in [to_keyed, to_bare].into_iter().flatten() {
        agree::<T>("enum form swapped", &render(&d, &mut picks))?;
    }

    // Cut short, and one byte replaced.
    for bytes in [&compact, &pretty] {
        let cut = picks.below(bytes.len());
        let got = agree::<T>("truncated", &bytes[..cut])?;
        if matches!(bytes[0], b'{' | b'[' | b'"') {
            prop_assert!(got.is_none(), "accepted a truncated document");
        }
        const REPLACEMENTS: &[u8] = b"\"\\{}[]:,x \n0-.e\x00\xff";
        let mut flipped = bytes.clone();
        let at = picks.below(flipped.len());
        flipped[at] = REPLACEMENTS[picks.below(REPLACEMENTS.len())];
        agree::<T>("byte replaced", &flipped)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// Text with everything a JSON string has to escape or pass through:
/// quote, backslash, the short escapes, other control characters, DEL,
/// non-ASCII and astral code points.
fn arb_text() -> impl Strategy<Value = String> {
    const POOL: [char; 24] = [
        'a', 'Z', '0', '-', '.', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}',
        '\u{1}', '\u{1f}', '\u{7f}', 'é', 'ß', '日', '\u{2028}', '😀', '𝄞',
    ];
    proptest::collection::vec(0..POOL.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| POOL[i]).collect())
}

fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(1.0),
        Just(-0.0),
        Just(0.1),
        Just(1e300),
        Just(5e-324),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        any::<f64>(),
        any::<i32>().prop_map(f64::from),
    ]
}

fn arb_i64() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(i64::MIN),
        Just(i64::MAX),
        Just(0),
        Just(-1),
        any::<i64>()
    ]
}

fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![Just(u64::MAX), Just(0), any::<u64>()]
}

fn arb_source() -> impl Strategy<Value = Source> {
    (0..Source::EXPLORERS.len()).prop_map(|i| Source::EXPLORERS[i])
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    prop_oneof![
        (0u8..16).prop_map(|h| Ipv4Addr::new(10, 0, 0, h)),
        any::<u32>().prop_map(Ipv4Addr::from),
    ]
}

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr::new)
}

fn arb_mask() -> impl Strategy<Value = SubnetMask> {
    (0u8..=32).prop_map(|len| SubnetMask::from_prefix_len(len).expect("prefix length"))
}

fn arb_subnet() -> impl Strategy<Value = Subnet> {
    (arb_ip(), arb_mask()).prop_map(|(ip, mask)| Subnet::containing(ip, mask))
}

/// All five `Fact` variants, every optional field both ways, lists from
/// empty up.
fn arb_obs() -> impl Strategy<Value = Observation> {
    let fact = prop_oneof![
        (
            proptest::option::of(arb_ip()),
            proptest::option::of(arb_mac()),
            proptest::option::of(arb_text()),
            proptest::option::of(arb_mask()),
        )
            .prop_map(|(ip, mac, name, mask)| Fact::Interface {
                ip,
                mac,
                name,
                mask
            }),
        (arb_subnet(), any::<bool>()).prop_map(|(subnet, mask_assumed)| Fact::Subnet {
            subnet,
            mask_assumed
        }),
        (arb_subnet(), any::<u32>(), arb_ip(), arb_ip()).prop_map(
            |(subnet, host_count, lowest, highest)| Fact::SubnetStats {
                subnet,
                host_count,
                lowest,
                highest
            }
        ),
        (
            proptest::collection::vec(arb_ip(), 0..4),
            proptest::collection::vec(arb_text(), 0..3),
            proptest::collection::vec(arb_subnet(), 0..3),
        )
            .prop_map(|(interface_ips, interface_names, subnets)| Fact::Gateway {
                interface_ips,
                interface_names,
                subnets
            }),
        (
            arb_ip(),
            proptest::option::of(arb_mac()),
            any::<u32>(),
            any::<bool>()
        )
            .prop_map(
                |(ip, mac, advertised_routes, promiscuous)| Fact::RipSource {
                    ip,
                    mac,
                    advertised_routes,
                    promiscuous
                }
            ),
    ];
    (arb_source(), fact).prop_map(|(source, fact)| Observation::new(source, fact))
}

fn arb_batches() -> impl Strategy<Value = Vec<StoreBatchItem>> {
    proptest::collection::vec(
        (arb_u64(), proptest::collection::vec(arb_obs(), 0..6)).prop_map(|(now, observations)| {
            StoreBatchItem {
                now: JTime(now),
                observations,
            }
        }),
        0..4,
    )
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (arb_u64(), proptest::collection::vec(arb_obs(), 0..6)).prop_map(|(now, observations)| {
            Request::Store {
                now: JTime(now),
                observations,
            }
        }),
        (
            proptest::option::of(arb_ip()),
            proptest::option::of(arb_text()),
            proptest::option::of((arb_ip(), arb_ip())),
            proptest::option::of(any::<bool>()),
        )
            .prop_map(|(ip, name, ip_range, rip_source)| {
                Request::GetInterfaces(InterfaceQuery {
                    ip,
                    name,
                    ip_range,
                    rip_source,
                    ..InterfaceQuery::all()
                })
            }),
        Just(Request::GetGateways),
        Just(Request::GetSubnets(SubnetQuery::all())),
        arb_u64().prop_map(|id| Request::Delete(InterfaceId(id))),
        Just(Request::Stats),
        Just(Request::Flush),
        arb_batches().prop_map(|batches| Request::StoreBatch { batches }),
        arb_u64().prop_map(|trace_tail| Request::Introspect { trace_tail }),
    ]
}

/// A journal holding `obs`, for the record types only the store builds.
fn journal_of(obs: &[Observation]) -> Journal {
    let journal = Journal::new();
    journal.apply_batch(obs.iter().zip(1u64..).map(|(o, t)| (o, JTime(t))));
    journal
}

fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    let kind = prop_oneof![
        arb_text().prop_map(|node| FaultKind::NodeCrash { node }),
        arb_text().prop_map(|segment| FaultKind::Heal { segment }),
        (arb_text(), arb_f64(), arb_u64()).prop_map(
            |(segment, extra_loss, extra_latency_micros)| {
                FaultKind::Degrade {
                    segment,
                    extra_loss,
                    extra_latency_micros,
                }
            }
        ),
        (arb_text(), arb_ip()).prop_map(|(node, ip)| FaultKind::DuplicateIp { node, ip }),
        (arb_text(), any::<u8>())
            .prop_map(|(node, prefix_len)| FaultKind::WrongMask { node, prefix_len }),
        (arb_text(), arb_i64())
            .prop_map(|(node, skew_micros)| FaultKind::ClockSkew { node, skew_micros }),
    ];
    proptest::collection::vec(
        (arb_u64(), kind).prop_map(|(at_micros, kind)| FaultEvent { at_micros, kind }),
        0..6,
    )
    .prop_map(|events| FaultPlan { events })
}

// Shapes the workspace's own types do not cover: a unit struct, a
// tuple struct, a generic struct with a skipped field, one enum with a
// variant of each kind, tuples, a char and a map.

#[derive(Serialize, Deserialize)]
struct Marker;

#[derive(Serialize, Deserialize)]
struct Meters(f64);

#[derive(Serialize, Deserialize)]
struct Span(i64, u64);

#[derive(Serialize, Deserialize)]
struct Tagged<T> {
    label: String,
    #[serde(skip)]
    #[allow(dead_code)]
    scratch: u8,
    marker: Marker,
    inner: T,
}

#[derive(Serialize, Deserialize)]
enum Shape {
    Unit,
    Newtype(Meters),
    Tuple(i64, Option<u64>, char),
    Struct {
        by_name: BTreeMap<String, Vec<f64>>,
        span: Span,
        pair: (u8, bool),
        rest: Vec<Shape>,
    },
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    let leaf = || {
        prop_oneof![
            Just(()).prop_map(|()| Shape::Unit),
            arb_f64().prop_map(|v| Shape::Newtype(Meters(v))),
            (arb_i64(), proptest::option::of(arb_u64()), any::<char>())
                .prop_map(|(a, b, c)| Shape::Tuple(a, b, c)),
        ]
    };
    (
        proptest::collection::vec(
            (arb_text(), proptest::collection::vec(arb_f64(), 0..3)),
            0..4,
        ),
        arb_i64(),
        arb_u64(),
        any::<u8>(),
        proptest::collection::vec(leaf(), 0..4),
    )
        .prop_map(|(entries, a, b, c, rest)| Shape::Struct {
            by_name: entries.into_iter().collect(),
            span: Span(a, b),
            pair: (c, c % 2 == 0),
            rest,
        })
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn observations_and_wal_records(
        obs in arb_obs(),
        seq in arb_u64(),
        at in arb_u64(),
        seed in any::<u64>(),
    ) {
        check(&obs)?;
        check_decode(&obs, Top::Struct, seed)?;
        let record = WalRecord { seq, at: JTime(at), obs };
        check(&record)?;
        check_decode(&record, Top::Struct, seed)?;
    }

    #[test]
    fn requests(req in arb_request(), trace_id in arb_u64(), seed in any::<u64>()) {
        check(&req)?;
        check_decode(&req, Top::Other, seed)?;
        let envelope = RequestEnvelope {
            ctx: TraceContext { trace_id, parent_span: trace_id / 2, at_micros: 7 },
            req,
        };
        check(&envelope)?;
        check_decode(&envelope, Top::Struct, seed)?;
    }

    #[test]
    fn responses_and_snapshots(
        obs in proptest::collection::vec(arb_obs(), 0..24),
        text in arb_text(),
        n in arb_u64(),
        seed in any::<u64>(),
    ) {
        let journal = journal_of(&obs);
        let summary = journal.apply_batch(obs.iter().map(|o| (o, JTime(n / 2))));
        let trace_tail: Vec<TraceEvent> = (0..n % 3)
            .map(|i| TraceEvent {
                at: i,
                kind: "span_start".to_owned(),
                id: n,
                parent: 0,
                name: text.clone(),
                detail: text.clone(),
                trace_id: n,
                remote_parent: i,
            })
            .collect();
        for event in &trace_tail {
            check(event)?;
            check_decode(event, Top::Struct, seed)?;
        }
        for response in [
            Response::Stored(summary),
            Response::Interfaces(journal.get_interfaces(&InterfaceQuery::all())),
            Response::Gateways(journal.get_gateways()),
            Response::Subnets(journal.get_subnets(&SubnetQuery::all())),
            Response::Deleted(n % 2 == 0),
            Response::Stats(journal.stats()),
            Response::Flushed,
            Response::Error(text.clone()),
            Response::Introspection(Box::new(IntrospectReport {
                stats: journal.stats(),
                shards: (n % 3 != 0).then(|| journal.sharding_metrics()),
                wal: (n % 2 == 0).then(|| WalStateReport {
                    segment_first_seq: 1,
                    next_seq: n,
                    segment_bytes: n / 3,
                    sync_policy: text.clone(),
                }),
                metrics: text.clone(),
                trace_tail,
                trace_dropped: n,
                health: text,
            })),
        ] {
            check(&response)?;
            check_decode(&response, Top::Other, seed)?;
        }
        let snapshot = journal.to_snapshot();
        check(&snapshot)?;
        check_decode(&snapshot, Top::Struct, seed)?;
    }

    #[test]
    fn fault_plans(plan in arb_fault_plan(), seed in any::<u64>()) {
        check(&plan)?;
        check_decode(&plan, Top::Struct, seed)?;
    }

    #[test]
    fn every_shape_and_scalar(
        shape in arb_shape(),
        label in arb_text(),
        f in arb_f64(),
        i in arb_i64(),
        u in arb_u64(),
        seed in any::<u64>(),
    ) {
        check(&shape)?;
        check_decode(&shape, Top::Other, seed)?;
        let tuple = Tagged { label: label.clone(), scratch: 9, marker: Marker, inner: (f, i, u) };
        check(&tuple)?;
        check_decode(&tuple, Top::Struct, seed)?;
        let list = Tagged { label, scratch: 9, marker: Marker, inner: vec![None, Some(shape)] };
        check(&list)?;
        check_decode(&list, Top::Struct, seed)?;
        check(&f)?;
        check_decode(&f, Top::Other, seed)?;
        check(&i)?;
        check_decode(&i, Top::Other, seed)?;
        check(&u)?;
        check_decode(&u, Top::Other, seed)?;
        let pair = [Some(f as f32), None];
        check(&pair)?;
        check_decode(&pair, Top::Other, seed)?;
        let tree = serde_json::json!({
            "list": serde_json::json!([i, u, f]),
            "none": serde_json::Value::Null,
            "empty": serde_json::Value::Object(Vec::new()),
        });
        check(&tree)?;
        check_decode(&tree, Top::Tree, seed)?;
    }
}

/// Arrays in arrays, as deep as the text nests them.
#[derive(Serialize, Deserialize)]
struct Deep(Vec<Deep>);

#[test]
fn nesting_limit_is_where_it_was() {
    for depth in [1, 2, 255, 256, 257, 258, 259, 5000] {
        // The innermost array of 257 sits at depth 256, the limit.
        let arrays = "[".repeat(depth) + &"]".repeat(depth);
        let tree = agree::<serde_json::Value>("arrays", arrays.as_bytes()).unwrap();
        assert_eq!(tree.is_some(), depth <= 257, "Value, {depth} deep");
        let typed = agree::<Deep>("arrays", arrays.as_bytes()).unwrap();
        assert_eq!(typed.is_some(), depth <= 257, "typed, {depth} deep");
        // Under a key nobody reads, one level further down.
        let skipped = format!(r#"{{"label":"l","zzz":{arrays},"inner":0}}"#);
        let tagged = agree::<Tagged<u8>>("skipped arrays", skipped.as_bytes()).unwrap();
        assert_eq!(tagged.is_some(), depth <= 256, "skipped, {depth} deep");
        let objects = r#"{"k":"#.repeat(depth) + "null" + &"}".repeat(depth);
        let tree = agree::<serde_json::Value>("objects", objects.as_bytes()).unwrap();
        assert_eq!(tree.is_some(), depth <= 256, "objects, {depth} deep");
    }
    assert_eq!(
        serde_json::from_str::<Deep>(&"[".repeat(300))
            .map(drop)
            .unwrap_err()
            .to_string(),
        "JSON nesting too deep at byte 257"
    );
}

#[test]
fn an_error_in_a_pretty_document_names_the_byte() {
    let event = TraceEvent {
        at: 7,
        kind: "span_start".to_owned(),
        id: 3,
        parent: 1,
        name: "bruno".to_owned(),
        detail: String::new(),
        trace_id: 0,
        remote_parent: 0,
    };
    let pretty = serde_json::to_string_pretty(&event).unwrap();
    assert_eq!(pretty.lines().count(), 10, "{pretty}");
    // Not JSON any more: the same message, position included.
    let at = pretty.find("\"bruno\"").unwrap();
    let broken = pretty.replacen("\"bruno\"", "bruno", 1);
    let message = format!("unexpected character 'b' at byte {at}");
    assert_eq!(
        serde_json::from_str::<TraceEvent>(&broken)
            .unwrap_err()
            .to_string(),
        message
    );
    assert_eq!(
        tree_decoder::from_slice::<TraceEvent>(broken.as_bytes())
            .unwrap_err()
            .to_string(),
        message
    );
    // Still JSON, but not an event: the value that does not fit.
    let at = pretty.find("\"span_start\"").unwrap();
    let mistyped = pretty.replacen("\"span_start\"", "[1, 2]", 1);
    assert_eq!(
        serde_json::from_str::<TraceEvent>(&mistyped)
            .unwrap_err()
            .to_string(),
        format!("invalid type: sequence, expected a string at byte {at}")
    );
}

#[test]
fn known_renderings() {
    assert_eq!(serde_json::to_string(&1.0f64).unwrap(), "1.0");
    assert_eq!(serde_json::to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(
        serde_json::to_string(&i64::MIN).unwrap(),
        "-9223372036854775808"
    );
    assert_eq!(
        serde_json::to_string(&u64::MAX).unwrap(),
        "18446744073709551615"
    );
    assert_eq!(
        serde_json::to_string("a\"b\\c\u{1}\n😀").unwrap(),
        "\"a\\\"b\\\\c\\u0001\\n😀\""
    );
    assert_eq!(
        serde_json::to_string(&Shape::Tuple(-1, None, 'é')).unwrap(),
        "{\"Tuple\":[-1,null,\"é\"]}"
    );
    assert_eq!(
        serde_json::to_string_pretty(&Shape::Newtype(Meters(2.5))).unwrap(),
        "{\n  \"Newtype\": 2.5\n}"
    );
}

/// The checksum one byte at a time, as `crc32.rs` computed it before
/// slice-by-8.
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    crc ^ 0xFFFF_FFFF
}

#[test]
fn crc32_matches_bytewise_at_every_length_and_alignment() {
    // 72 bytes of a fixed LCG stream: every start offset 0..8 can take
    // every length 0..=64.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let data: Vec<u8> = (0..72)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 56) as u8
        })
        .collect();
    for offset in 0..8 {
        for len in 0..=64 {
            let slice = &data[offset..offset + len];
            assert_eq!(
                crc32(slice),
                crc32_bytewise(slice),
                "offset {offset} length {len}"
            );
        }
    }
    assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
}

//! The few JSON accessors the benchmark needs over the workspace's
//! `serde_json::Value`.

use serde_json::Value;

pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

pub fn as_array(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        _ => &[],
    }
}

pub fn str_field<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    get(v, key).and_then(as_str)
}

pub fn num_field(v: &Value, key: &str) -> Option<f64> {
    get(v, key).and_then(as_f64)
}

//! A deterministic folded-stack profiler over the span stream.
//!
//! Wall-clock profilers answer "where did the time go"; this one
//! answers "where did the *work* go" — work being logical units the
//! sim already counts (sim events, frames, observations, merge ops,
//! WAL bytes, fsyncs). Instrumented code attributes work to its open
//! span via [`crate::Telemetry::work`]; the folder charges each
//! amount to the span's full ancestry path. The output is the classic
//! flamegraph "folded" format, one line per stack:
//!
//! ```text
//! observations;driver.pump;driver.drain 412
//! ```
//!
//! with the unit as the root frame, so one file holds a separate
//! flame per unit. Because amounts and span paths derive only from
//! sim state, two same-seed runs fold to byte-identical profiles.

use std::collections::{BTreeMap, HashMap};

use crate::trace::TraceEvent;

/// Most frames a stack may have; deeper (cyclic) chains are cut.
const MAX_DEPTH: usize = 64;

/// Streaming folder: tracks span ancestry and accumulates `work`
/// amounts per `(unit, stack)` cell.
#[derive(Debug, Default)]
struct Folder {
    /// span id -> (name, parent id); spans are kept after close so
    /// late records still resolve (ids are never reused).
    spans: HashMap<u64, (String, u64)>,
    /// "unit;frame;frame" -> total amount. BTreeMap so rendering is
    /// naturally sorted and deterministic.
    cells: BTreeMap<String, u64>,
}

impl Folder {
    fn see(&mut self, ev: &TraceEvent) {
        match ev.kind.as_str() {
            "span_start" => {
                self.spans.insert(ev.id, (ev.name.clone(), ev.parent));
            }
            "work" => {
                let amount = ev.detail.parse::<u64>().unwrap_or(0);
                if amount == 0 {
                    return;
                }
                let key = self.stack_key(&ev.name, ev.id);
                *self.cells.entry(key).or_insert(0) += amount;
            }
            _ => {}
        }
    }

    /// Builds `unit;root;...;span` for the span's ancestry.
    fn stack_key(&self, unit: &str, span: u64) -> String {
        let mut frames: Vec<&str> = Vec::new();
        let mut cur = span;
        while cur != 0 && frames.len() < MAX_DEPTH {
            match self.spans.get(&cur) {
                Some((name, parent)) => {
                    frames.push(name.as_str());
                    cur = *parent;
                }
                None => {
                    frames.push("(unknown)");
                    break;
                }
            }
        }
        let mut key = String::from(unit);
        for frame in frames.iter().rev() {
            key.push(';');
            key.push_str(frame);
        }
        key
    }
}

/// Renders accumulated cells in folded-stack format, sorted by stack.
fn render_cells(cells: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    for (stack, amount) in cells {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&amount.to_string());
        out.push('\n');
    }
    out
}

/// Folds an already-captured event stream (e.g. a parsed JSONL trace)
/// into folded-stack text.
pub fn fold_events<'a, I>(events: I) -> String
where
    I: IntoIterator<Item = &'a TraceEvent>,
{
    let mut folder = Folder::default();
    for ev in events {
        folder.see(ev);
    }
    render_cells(&folder.cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: &str, id: u64, parent: u64, name: &str, detail: &str) -> TraceEvent {
        TraceEvent {
            at: 1,
            kind: kind.into(),
            id,
            parent,
            name: name.into(),
            detail: detail.into(),
            trace_id: 0,
            remote_parent: 0,
        }
    }

    #[test]
    fn folds_work_onto_ancestry_paths() {
        let trace = [
            ev("span_start", 1, 0, "driver.pump", ""),
            ev("span_start", 2, 1, "driver.drain", ""),
            ev("work", 2, 0, "observations", "5"),
            ev("work", 2, 0, "observations", "7"),
            ev("span_end", 2, 0, "", ""),
            ev("work", 1, 0, "merge_ops", "3"),
            ev("span_end", 1, 0, "", ""),
        ];
        let folded = fold_events(trace.iter());
        assert_eq!(
            folded,
            "merge_ops;driver.pump 3\nobservations;driver.pump;driver.drain 12\n"
        );
    }

    #[test]
    fn work_without_span_folds_to_unit_root() {
        let trace = [ev("work", 0, 0, "bytes", "100")];
        assert_eq!(fold_events(trace.iter()), "bytes 100\n");
    }

    #[test]
    fn unparseable_and_zero_amounts_are_skipped() {
        let trace = [
            ev("work", 0, 0, "bytes", "nope"),
            ev("work", 0, 0, "bytes", "0"),
        ];
        assert_eq!(fold_events(trace.iter()), "");
    }

    #[test]
    fn unknown_span_reference_is_marked_not_lost() {
        let trace = [ev("work", 99, 0, "bytes", "8")];
        assert_eq!(fold_events(trace.iter()), "bytes;(unknown) 8\n");
    }
}

//! The benchmark's own tracing: counter snapshots of the program's
//! public observables, and spans recorded around each public call the
//! benchmark makes.
//!
//! Spans live in this process's memory (never in the program's `obs`
//! span ring) and are written out once, when the run ends. A span may
//! carry the counter deltas observed over its interval; self time is
//! computed from the span tree at write-out.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json;

/// Values of the program's public counters at one instant, by name:
/// `gatesim::sim_transitions()`, `nn::train::epochs_run()`, and every
/// counter plus every histogram `_sum` / `_count` line of
/// `obs::metrics::render_prometheus()`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(BTreeMap<String, f64>);

/// Key of `gatesim::sim_transitions()` in a [`Counters`] map.
pub const SIM_TRANSITIONS: &str = "gatesim::sim_transitions";
/// Key of `nn::train::epochs_run()` in a [`Counters`] map.
pub const EPOCHS_RUN: &str = "nn::train::epochs_run";

impl Counters {
    /// Reads every counter now.
    pub fn now() -> Counters {
        let mut values = BTreeMap::new();
        values.insert(
            SIM_TRANSITIONS.to_string(),
            gatesim::sim_transitions() as f64,
        );
        values.insert(EPOCHS_RUN.to_string(), nn::train::epochs_run() as f64);
        for line in obs::metrics::render_prometheus().lines() {
            // Bucket lines carry labels; the `_sum`/`_count` lines and
            // plain counters do not.
            if line.starts_with('#') || line.contains('{') {
                continue;
            }
            if let Some((name, value)) = line.split_once(' ') {
                if let Ok(v) = value.trim().parse::<f64>() {
                    values.insert(name.to_string(), v);
                }
            }
        }
        Counters(values)
    }

    /// `self − before`, keeping only the names that moved. A name
    /// registered after `before` was taken counts from zero.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k)))
                .filter(|(_, d)| *d != 0.0)
                .collect(),
        )
    }

    /// A map holding exactly `pairs`.
    #[cfg(test)]
    pub fn from_pairs(pairs: &[(&str, f64)]) -> Counters {
        Counters(pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect())
    }

    /// The value under `name`, 0 when absent.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json::string(k), json::number(*v));
        }
        out.push('}');
    }
}

/// One finished span.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    name: String,
    start_s: f64,
    end_s: f64,
    deltas: Option<Counters>,
}

/// A span that has started but not yet ended.
#[derive(Debug)]
pub struct OpenSpan {
    /// The span's ID (0 when tracing is off), usable as a parent.
    pub id: u64,
    parent: u64,
    name: String,
    start: Instant,
}

/// The in-memory span recorder of one benchmark run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    run_id: u64,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; with `on == false` every call is a no-op.
    pub fn new(on: bool, run_id: u64) -> Tracer {
        Tracer {
            on,
            run_id,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts a span under `parent` (0 for a root span).
    pub fn open(&self, name: &str, parent: u64) -> OpenSpan {
        let id = if self.on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        OpenSpan {
            id,
            parent,
            name: name.to_string(),
            start: Instant::now(),
        }
    }

    /// Ends a span, attaching the counter deltas seen over it.
    pub fn close(&self, span: OpenSpan, deltas: Option<&Counters>) {
        self.close_at(span, Instant::now(), deltas);
    }

    /// Ends a span at an instant already taken by the caller.
    pub fn close_at(&self, span: OpenSpan, end: Instant, deltas: Option<&Counters>) {
        if !self.on {
            return;
        }
        let record = Span {
            id: span.id,
            parent: span.parent,
            name: span.name,
            start_s: span.start.duration_since(self.epoch).as_secs_f64(),
            end_s: end.duration_since(self.epoch).as_secs_f64(),
            deltas: deltas.cloned(),
        };
        self.spans.lock().expect("span list poisoned").push(record);
    }

    /// Self time per span ID: its duration minus the part of its
    /// interval covered by the union of its children.
    fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
        let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
        for s in spans {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_s, s.end_s));
        }
        spans
            .iter()
            .map(|s| {
                let mut covered = 0.0;
                if let Some(kids) = children.get_mut(&s.id) {
                    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                    let mut cursor = s.start_s;
                    for &(start, end) in kids.iter() {
                        let (lo, hi) = (start.max(cursor), end.min(s.end_s));
                        if hi > lo {
                            covered += hi - lo;
                            cursor = hi;
                        }
                    }
                }
                (s.id, (s.end_s - s.start_s - covered).max(0.0))
            })
            .collect()
    }

    /// Writes every recorded span, and the self time summed per span
    /// name, as one JSON document.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let self_s = Tracer::self_times(&spans);
        let mut by_name: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let e = by_name.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += s.end_s - s.start_s;
            e.2 += self_s[&s.id];
        }
        let mut out = String::with_capacity(128 + spans.len() * 96);
        let _ = write!(
            out,
            "{{\"run_id\":\"{:016x}\",\"workload\":{},\"seed\":{},\"by_name\":{{",
            self.run_id,
            json::string(workload),
            seed
        );
        for (i, (name, (count, total, own))) in by_name.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{count},\"total_s\":{},\"self_s\":{}}}",
                json::string(name),
                json::number(*total),
                json::number(*own)
            );
        }
        out.push_str("},\"spans\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":{},\"start_s\":{},\"end_s\":{},\"self_s\":{}",
                s.id,
                s.parent,
                json::string(&s.name),
                json::number(s.start_s),
                json::number(s.end_s),
                json::number(self_s[&s.id])
            );
            if let Some(d) = &s.deltas {
                out.push_str(",\"deltas\":");
                d.write_json(&mut out);
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_s: f64, end_s: f64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_s,
            end_s,
            deltas: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0.0, 10.0),
            // Two overlapping children cover [1, 6]; a third covers [8, 9].
            span(2, 1, 1.0, 4.0),
            span(3, 1, 3.0, 6.0),
            span(4, 1, 8.0, 9.0),
            span(5, 2, 1.0, 2.0),
        ];
        let own = Tracer::self_times(&spans);
        assert!((own[&1] - 4.0).abs() < 1e-12);
        assert!((own[&2] - 2.0).abs() < 1e-12);
        assert!((own[&5] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deltas_keep_only_moved_counters() {
        let mut before = Counters::default();
        before.0.insert("a".into(), 1.0);
        before.0.insert("b".into(), 2.0);
        let mut after = before.clone();
        after.0.insert("b".into(), 5.0);
        after.0.insert("c".into(), 7.0);
        let d = after.since(&before);
        assert_eq!(d.get("a"), 0.0);
        assert_eq!(d.get("b"), 3.0);
        assert_eq!(d.get("c"), 7.0);
        assert_eq!(d.0.len(), 2);
    }
}

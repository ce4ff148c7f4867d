//! Unified observability for the PowerPruning tree.
//!
//! Three pieces, all `std`-only and process-global:
//!
//! * [`metrics`] — a registry of named counters, gauges and
//!   fixed-bucket histograms. Handles are `Copy` wrappers around leaked
//!   atomics, so a registered metric costs one relaxed atomic op per
//!   update — cheap enough for the gate-simulation hot path. The whole
//!   registry renders as Prometheus text exposition
//!   ([`metrics::render_prometheus`]) for the daemon's `GET /metrics`.
//! * [`trace`] — RAII span guards recording `(name, parent, start,
//!   duration, fields)` into a bounded ring buffer, tagged with the
//!   thread's current **trace ID** so one request can be followed from
//!   the daemon's connection thread through the worker pool into the
//!   store's remote tier. The ring exports as chrome://tracing JSON
//!   ([`trace::trace_json`]).
//! * [`log`] — a leveled, timestamped stderr logger behind the
//!   `POWERPRUNING_LOG` env knob (`off | error | info | debug`), with
//!   the current trace ID woven into every line.
//!
//! A single process-wide switch ([`set_enabled`]) turns every metric
//! update and span record into a no-op — the characterization bench
//! uses it to prove the registry's hot-loop overhead stays under its
//! budget. Correctness-coupled accounting (the warm-cache "zero
//! transitions / zero epochs" counters) must therefore snapshot only
//! while recording is enabled; nothing in the production tree ever
//! disables it.

pub mod log;
pub mod metrics;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether metric updates and span recording are currently enabled.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables metric updates and span recording.
///
/// Bench-harness use only: the no-op path exists so overhead can be
/// *measured*, not so production code can opt out. Registered metrics
/// stay readable either way; they just stop moving while disabled.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

pub use trace::{current_trace, span, with_trace, SpanGuard, TraceContext, TraceId};

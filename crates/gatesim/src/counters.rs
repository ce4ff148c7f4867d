//! Process-wide gate-simulation activity counters.
//!
//! The warm-start cache's contract is "a warmed run performs zero
//! gate-level work". That claim needs an observable: every
//! [`crate::Simulator::transition`] and [`crate::BitSim::transition`]
//! bumps a global counter, so tests, the `charstore warm` CLI and the
//! characterization bench can assert that a cache-served pipeline run
//! triggered *no* simulation at all — not just that it was fast.
//!
//! The unit is one *stimulus vector* transition, regardless of engine:
//! a [`crate::BitSim::transition`] call that evaluates 64 packed
//! vectors in one pass records 64, so counts stay comparable across
//! the scalar and bit-parallel engines.
//!
//! The counter is monotonic for the life of the process; callers
//! interested in a window take a snapshot before and subtract after.
//! One relaxed atomic add per transition is noise next to the hundreds
//! of gate events each transition propagates.
//!
//! Every count is *mirrored* into the process-global [`obs`] metrics
//! registry (`gatesim_*` names) for the daemon's `/metrics` endpoint
//! and the CLI tables. The local atomic stays authoritative on
//! purpose: `sim_transitions()` backs the warm-cache "zero gate-level
//! work" *correctness* assertions, which must keep counting even when
//! the bench harness flips `obs::set_enabled(false)` to measure
//! registry overhead. The per-transition event totals (scheduled vs.
//! push-time-filtered) and the settle-time histogram live only on the
//! registry — they are observability, not contract.
//!
//! The event totals count what each engine schedules, so their unit
//! differs by engine: one scalar event on [`crate::Simulator`], one
//! 64-lane *word* event on [`crate::BitSim`]. A word event carries up
//! to 64 vectors' toggles, so `events_scheduled / transitions` falls by
//! design when work moves onto the bit-parallel engine.
//!
//! Word-event fragmentation is measured by one more `BitSim`-only
//! total, `gatesim_lane_toggles_total`: the lanes toggled by every
//! popped gate event (input edges excluded). Every popped `BitSim`
//! event toggles at least one lane and every scheduled one is popped,
//! so over a window of `BitSim` work, lane toggles ÷ `events_scheduled`
//! is the mean number of lanes per word event: 64 would be a perfectly
//! shared block, 1 a block whose lanes never glitch together. Like the
//! event totals it is tallied in a local and flushed once per
//! transition, so the power hot loop gains no per-event atomic.
//!
//! The settle-time histogram gets one observation per *timing* sample:
//! the scalar engine records every transition's settle time, while
//! `BitSim` records one per active lane only while nets are observed
//! (timing characterization) and none on the power path. Its count
//! therefore splits a run's transitions into timing and power
//! samples.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::LazyLock;

use obs::metrics::{counter, histogram, Counter, Histogram, LATENCY_SECONDS, SETTLE_PS};

static SIM_TRANSITIONS: AtomicU64 = AtomicU64::new(0);

/// Registry mirrors, registered once on first gate-level activity.
struct Registry {
    transitions: Counter,
    events_scheduled: Counter,
    events_filtered: Counter,
    lane_toggles: Counter,
    settle_ps: Histogram,
    gates_pruned: Counter,
    prune_plan_seconds: Histogram,
}

static REGISTRY: LazyLock<Registry> = LazyLock::new(|| Registry {
    transitions: counter("gatesim_sim_transitions_total"),
    events_scheduled: counter("gatesim_events_scheduled_total"),
    events_filtered: counter("gatesim_events_filtered_total"),
    lane_toggles: counter("gatesim_lane_toggles_total"),
    settle_ps: histogram("gatesim_settle_time_ps", SETTLE_PS),
    gates_pruned: counter("gatesim_gates_pruned_total"),
    prune_plan_seconds: histogram("gatesim_prune_plan_seconds", LATENCY_SECONDS),
});

/// Forces registration of the `gatesim_*` metrics so they render in
/// Prometheus exposition (at zero) before any simulation has run.
pub fn register_metrics() {
    LazyLock::force(&REGISTRY);
}

/// Total gate-level transitions simulated by this process so far, over
/// both the scalar and the bit-parallel engine.
#[must_use]
pub fn sim_transitions() -> u64 {
    SIM_TRANSITIONS.load(Ordering::Relaxed)
}

/// Records one simulated transition (crate-internal).
#[inline]
pub(crate) fn record_transition() {
    SIM_TRANSITIONS.fetch_add(1, Ordering::Relaxed);
    REGISTRY.transitions.inc();
}

/// Records `n` simulated transitions at once — the bit-parallel engine
/// counts one per *active lane*, not one per word (crate-internal).
#[inline]
pub(crate) fn record_transitions(n: u64) {
    SIM_TRANSITIONS.fetch_add(n, Ordering::Relaxed);
    REGISTRY.transitions.add(n);
}

/// Records one transition's event accounting: how many gate events the
/// engine scheduled versus how many re-evaluations push-time filtering
/// suppressed. Called once per `transition()` — the tallies are kept in
/// locals inside the hot loop (crate-internal).
#[inline]
pub(crate) fn record_events(scheduled: u64, filtered: u64) {
    REGISTRY.events_scheduled.add(scheduled);
    REGISTRY.events_filtered.add(filtered);
}

/// Records the lanes one `BitSim` transition's popped gate events
/// toggled, summed over its events (crate-internal).
#[inline]
pub(crate) fn record_lane_toggles(lanes: u64) {
    REGISTRY.lane_toggles.add(lanes);
}

/// Records a transition's settle time (last primary-output toggle) in
/// picoseconds (crate-internal).
#[inline]
pub(crate) fn record_settle_ps(ps: f64) {
    REGISTRY.settle_ps.observe(ps);
}

/// Records one settle time per lane of a bit-parallel block, each in
/// the same picoseconds as [`record_settle_ps`], with one registry
/// update per block (crate-internal).
#[inline]
pub(crate) fn record_settles_ps(ps: impl IntoIterator<Item = f64>) {
    REGISTRY.settle_ps.observe_many(ps);
}

/// Records one [`crate::PrunePlan`] pass: how many gates it proved
/// silent and how long the proof took (crate-internal).
#[inline]
pub(crate) fn record_prune_plan(pruned: u64, seconds: f64) {
    REGISTRY.gates_pruned.add(pruned);
    REGISTRY.prune_plan_seconds.observe(seconds);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotonic() {
        let before = sim_transitions();
        record_transition();
        record_transition();
        // Other tests in this process may also record; the counter only
        // ever grows.
        assert!(sim_transitions() >= before + 2);
    }

    #[test]
    fn bulk_record_counts_per_vector() {
        let before = sim_transitions();
        record_transitions(64);
        record_transitions(17);
        assert!(sim_transitions() >= before + 81);
    }
}

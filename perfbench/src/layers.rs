//! Metric definitions, and the per-layer view of one operation's
//! counter deltas.

use std::collections::BTreeMap;

use crate::stats;
use crate::trace::{Counters, EPOCHS_RUN, SIM_TRANSITIONS};

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("pipeline.prepare_s", "s"),
    ("pipeline.capture_s", "s"),
    ("pipeline.characterize_s", "s"),
    ("pipeline.timing_s", "s"),
    ("pipeline.remainder_s", "s"),
    ("pipeline.retrain_misses", "count"),
    ("pipeline.retrain_retries", "count"),
    ("pipeline.baseline_accuracy", "fraction"),
    ("pipeline.sweep_final_accuracy", "fraction"),
    ("pipeline.sweep_power_saving_pct", "%"),
    ("chars.power_samples_per_s", "1/s"),
    ("chars.timing_samples_per_s", "1/s"),
    ("gatesim.transitions", "count"),
    ("gatesim.events_scheduled", "count"),
    ("gatesim.events_filtered", "count"),
    ("gatesim.events_per_transition", "ratio"),
    ("gatesim.filter_ratio", "ratio"),
    ("gatesim.gates_pruned", "count"),
    ("nn.epochs", "count"),
    ("nn.train_s", "s"),
    ("nn.epoch_s", "s"),
    ("systolic.gemms_captured", "count"),
    ("charstore.gets", "count"),
    ("charstore.mem_hits", "count"),
    ("charstore.disk_hits", "count"),
    ("charstore.misses", "count"),
    ("charstore.puts", "count"),
    ("charstore.hit_ratio", "ratio"),
    ("charstore.get_s", "s"),
    ("charstore.put_s", "s"),
    ("charstore.disk_bytes", "bytes"),
    ("charserve.characterize_p50_ms", "ms"),
    ("charserve.object_get_p50_ms", "ms"),
    ("charserve.object_get_large_p50_ms", "ms"),
    ("charserve.object_put_p50_ms", "ms"),
    ("charserve.handler_s", "s"),
    ("charserve.wait_s", "s"),
    ("charserve.rejected", "count"),
    ("charserve.throttled", "count"),
    ("charserve.error_rate", "ratio"),
    ("parallel.jobs", "count"),
    ("bench.ops_traced", "count"),
    ("bench.ops_untraced", "count"),
    ("bench.trace_overhead_pct", "%"),
];

/// Per-layer values of one traced operation, by metric name.
pub type Row = BTreeMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The layer metrics every workload derives the same way from one
/// operation's counter deltas `d` and its wall time `op_s`.
/// `pipeline_op` marks operations that go through [`powerpruning::Pipeline`],
/// whose time outside the four cacheable stages is the remainder.
pub fn common_row(d: &Counters, op_s: f64, pipeline_op: bool) -> Row {
    let stage = |s: &str| d.get(&format!("pipeline_{s}_seconds_sum"));
    let stages: f64 = ["prepare", "capture", "characterize", "timing"]
        .iter()
        .map(|s| stage(s))
        .sum();
    let transitions = d.get(SIM_TRANSITIONS);
    // Timing runs on the lane-batched engine, which observes one settle
    // time per transition; power runs on the bit-parallel engine, which
    // observes none. The settle count therefore splits the transitions.
    let timing_samples = d.get("gatesim_settle_time_ps_count");
    let scheduled = d.get("gatesim_events_scheduled_total");
    let filtered = d.get("gatesim_events_filtered_total");
    let epochs = d.get(EPOCHS_RUN);
    let train_s = d.get("nn_training_epoch_seconds_sum");
    let mem_hits = d.get("charstore_mem_hits_total");
    let disk_hits = d.get("charstore_disk_hits_total");
    let misses = d.get("charstore_misses_total");
    let gets = mem_hits + disk_hits + misses;
    Row::from([
        ("pipeline.prepare_s", stage("prepare")),
        ("pipeline.capture_s", stage("capture")),
        ("pipeline.characterize_s", stage("characterize")),
        ("pipeline.timing_s", stage("timing")),
        (
            "pipeline.remainder_s",
            if pipeline_op { op_s - stages } else { 0.0 },
        ),
        (
            "pipeline.retrain_misses",
            d.get("charcache_retrain_misses_total"),
        ),
        (
            "chars.power_samples_per_s",
            ratio(transitions - timing_samples, stage("characterize")),
        ),
        (
            "chars.timing_samples_per_s",
            ratio(timing_samples, stage("timing")),
        ),
        ("gatesim.transitions", transitions),
        ("gatesim.events_scheduled", scheduled),
        ("gatesim.events_filtered", filtered),
        (
            "gatesim.events_per_transition",
            ratio(scheduled, transitions),
        ),
        (
            "gatesim.filter_ratio",
            ratio(filtered, scheduled + filtered),
        ),
        ("gatesim.gates_pruned", d.get("gatesim_gates_pruned_total")),
        ("nn.epochs", epochs),
        ("nn.train_s", train_s),
        ("nn.epoch_s", ratio(train_s, epochs)),
        (
            "systolic.gemms_captured",
            d.get("systolic_gemms_captured_total"),
        ),
        ("charstore.gets", gets),
        ("charstore.mem_hits", mem_hits),
        ("charstore.disk_hits", disk_hits),
        ("charstore.misses", misses),
        ("charstore.puts", d.get("charstore_puts_total")),
        ("charstore.hit_ratio", ratio(mem_hits + disk_hits, gets)),
        ("charstore.get_s", d.get("charstore_get_seconds_sum")),
        ("charstore.put_s", d.get("charstore_put_seconds_sum")),
        ("parallel.jobs", d.get("parallel_jobs_total")),
    ])
}

/// The work one operation did, as exact counts: the values that must
/// repeat exactly across operations and runs of one seed.
pub fn work_counters(d: &Counters, disk_bytes: u64) -> Vec<(&'static str, u64)> {
    let count = |name: &str| d.get(name).round() as u64;
    vec![
        ("nn.epochs", count(EPOCHS_RUN)),
        ("gatesim.transitions", count(SIM_TRANSITIONS)),
        (
            "gatesim.events_scheduled",
            count("gatesim_events_scheduled_total"),
        ),
        (
            "gatesim.events_filtered",
            count("gatesim_events_filtered_total"),
        ),
        ("gatesim.gates_pruned", count("gatesim_gates_pruned_total")),
        (
            "charstore.gets",
            count("charstore_mem_hits_total")
                + count("charstore_disk_hits_total")
                + count("charstore_misses_total"),
        ),
        ("charstore.puts", count("charstore_puts_total")),
        ("charstore.disk_bytes", disk_bytes),
    ]
}

/// Per-metric median over the rows of every traced operation.
pub fn median_row(rows: &[Row]) -> Row {
    let mut out = Row::new();
    for (name, _) in PER_LAYER {
        let values: Vec<f64> = rows.iter().filter_map(|r| r.get(name).copied()).collect();
        out.insert(name, stats::median(&values));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for name in &names {
            assert!(valid_name(name), "metric name {name:?}");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate metric names");
    }

    #[test]
    fn common_row_splits_transitions_by_settle_count() {
        let d = Counters::from_pairs(&[
            (SIM_TRANSITIONS, 1000.0),
            ("gatesim_settle_time_ps_count", 600.0),
            ("pipeline_characterize_seconds_sum", 2.0),
            ("pipeline_timing_seconds_sum", 3.0),
            ("gatesim_events_scheduled_total", 9000.0),
            ("gatesim_events_filtered_total", 1000.0),
        ]);
        let row = common_row(&d, 6.0, true);
        assert_eq!(row["chars.power_samples_per_s"], 200.0);
        assert_eq!(row["chars.timing_samples_per_s"], 200.0);
        assert_eq!(row["pipeline.remainder_s"], 1.0);
        assert_eq!(row["gatesim.events_per_transition"], 9.0);
        assert_eq!(row["gatesim.filter_ratio"], 0.1);
        assert_eq!(common_row(&d, 6.0, false)["pipeline.remainder_s"], 0.0);
    }
}

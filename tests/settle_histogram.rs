//! Meaning of the `gatesim_settle_time_ps` histogram: one observation
//! per *timing* sample and none per power sample. Benchmarks split a
//! run's transitions into timing and power samples by its count, so
//! `characterize_timing` must add exactly its analysed pair count and
//! `characterize_power` must add nothing.
//!
//! This lives in its own integration-test binary because the histogram
//! and `gatesim::sim_transitions()` are process-global: any
//! concurrently running test that simulates would pollute the deltas.
//! Keep this file to the single accounting test.

use powerpruning::chars::{
    characterize_power, characterize_timing, strided_codes, MacHardware, PowerConfig, PsumBinning,
    TimingConfig,
};
use systolic::stats::TransitionStats;

fn settle_count() -> u64 {
    obs::metrics::histogram("gatesim_settle_time_ps", obs::metrics::SETTLE_PS).count()
}

#[test]
fn settle_histogram_counts_timing_samples_only() {
    gatesim::register_metrics();
    let hw = MacHardware::small();

    // Timing, exhaustive: every off-diagonal activation pair of every
    // simulated code is one sample. 15 codes × 240 pairs also exercises
    // the 48-lane tail block of each code.
    let cfg = TimingConfig {
        exhaustive: true,
        weight_stride: 1,
        ..TimingConfig::default()
    };
    let levels = hw.act_levels() as u64;
    let codes = strided_codes(&hw.weight_codes(), cfg.weight_stride).len() as u64;
    let pairs = codes * (levels * levels - levels);
    let (settles, transitions) = (settle_count(), gatesim::sim_transitions());
    let _ = characterize_timing(&hw, &cfg);
    assert_eq!(
        settle_count() - settles,
        pairs,
        "timing settle observations"
    );
    assert_eq!(gatesim::sim_transitions() - transitions, pairs);

    // Power: transitions without a single settle observation.
    let mut stats = TransitionStats::new();
    for a in 0..14u8 {
        stats.record_activation(a, a + 1, 5);
    }
    let samples: Vec<(i32, i32)> = (0..100).map(|i| (i * 7 - 300, 300 - i * 5)).collect();
    let binning = PsumBinning::from_samples(&samples, 8, 12, 0);
    let cfg = PowerConfig {
        samples_per_weight: 70,
        seed: 5,
        clock_ps: 200.0,
        weight_stride: 4,
        baseline_fj_per_cycle: 0.0,
    };
    let codes = strided_codes(&hw.weight_codes(), cfg.weight_stride).len() as u64;
    let (settles, transitions) = (settle_count(), gatesim::sim_transitions());
    let _ = characterize_power(&hw, &stats, &binning, &cfg);
    assert_eq!(settle_count() - settles, 0, "power settle observations");
    assert_eq!(gatesim::sim_transitions() - transitions, codes * 70);
}

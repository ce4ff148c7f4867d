//! `mini_sweep`: the Fig. 8 power-threshold sweep of LeNet-5, each run
//! from a fresh copy of a store pre-warmed with the stage artifacts, so
//! every retrain point is computed.

use std::path::Path;

use powerpruning::pipeline::{NetworkKind, Pipeline, PipelineConfig, Scale};
use powerpruning::report::Fig8Series;

use crate::layers::{self, Row};
use crate::trace::Counters;
use crate::{require_store, timed, Outcome, RunCtx};

/// Set-up repetitions.
const SETUP_REPS: usize = 3;

/// The paper's Fig. 8 ladder as weight-value counts.
const MINI_COUNTS: [usize; 5] = [255, 86, 61, 48, 36];

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// The series with every float as its bit pattern, for exact equality
/// (the "None" threshold is a NaN).
fn bits(series: &Fig8Series) -> Vec<(u64, usize, u64, u64, u64)> {
    series
        .points
        .iter()
        .map(|p| {
            (
                p.0.to_bits(),
                p.1,
                p.2.to_bits(),
                p.3.to_bits(),
                p.4.to_bits(),
            )
        })
        .collect()
}

pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let mut cfg = PipelineConfig::for_scale(ctx.scale);
    cfg.seed = ctx.pipeline_seed(2);
    let kind = NetworkKind::LeNet5;
    let mut out = Outcome::default();
    let root = ctx.tracer.open("mini_sweep", 0);

    // Set-up: the baseline, capture and power-characterization
    // artifacts the sweep starts from, warmed into a fresh store each
    // repetition; the last one is kept.
    let mut base = None;
    for rep in 0..SETUP_REPS {
        let dir = ctx.fresh_dir(&format!("base-{rep}"))?;
        let span = ctx.tracer.open("setup.warm_stages", root.id);
        let (warmed, secs) = timed(|| {
            let pipeline = Pipeline::with_cache_dir(cfg, &dir);
            require_store(&pipeline)?;
            let mut prepared = pipeline.prepare(kind);
            let captures = pipeline.capture(&mut prepared);
            let _ = pipeline.characterize(&captures);
            Ok::<(), String>(())
        });
        ctx.tracer.close(span, None);
        warmed?;
        out.setup_s.push(secs);
        if let Some(old) = base.replace(dir) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let base = base.expect("at least one set-up repetition");

    let mut first: Option<Fig8Series> = None;
    let mut last_dir = None;
    let mut op_s = Vec::new();
    let loop_start = std::time::Instant::now();
    let mut i = 0;
    while i == 0 || loop_start.elapsed() < ctx.seconds {
        let traced = ctx.traced(i);
        let dir = ctx.work_dir.join(format!("sweep-{i}"));
        copy_dir(&base, &dir).map_err(|e| format!("copying the warmed store: {e}"))?;
        let pipeline = Pipeline::with_cache_dir(cfg, &dir);
        require_store(&pipeline)?;
        let before = Counters::now();
        let span = ctx.tracer.open("pipeline.power_threshold_sweep", root.id);
        let (series, secs) = timed(|| pipeline.power_threshold_sweep(kind));
        let d = Counters::now().since(&before);
        ctx.tracer.close(span, traced.then_some(&d));
        let bytes = crate::disk_bytes(&dir);
        out.attempted += 1;

        let counts: Vec<usize> = series.points.iter().map(|p| p.1).collect();
        if ctx.scale == Scale::Mini && counts != MINI_COUNTS {
            out.failures.push(format!(
                "sweep {i}: point counts {counts:?}, expected {MINI_COUNTS:?}"
            ));
        }
        out.work.push(layers::work_counters(&d, bytes));
        if traced {
            let p0 = series.points.first().copied().unwrap_or_default();
            let last = series.points.last().copied().unwrap_or_default();
            let retrain_points = series.points.len().saturating_sub(1) as f64;
            let mut row: Row = layers::common_row(&d, secs, true);
            row.insert(
                "pipeline.retrain_retries",
                d.get("charcache_retrain_hits_total") + d.get("charcache_retrain_misses_total")
                    - retrain_points,
            );
            row.insert("pipeline.baseline_accuracy", p0.4);
            row.insert("pipeline.sweep_final_accuracy", last.4);
            row.insert(
                "pipeline.sweep_power_saving_pct",
                100.0 * (p0.2 - last.2) / p0.2,
            );
            row.insert("charstore.disk_bytes", bytes as f64);
            out.rows.push(row);
            out.traced_units.push(secs);
        } else {
            op_s.push(secs);
            out.untraced_units.push(secs);
        }
        match &first {
            None => first = Some(series),
            Some(s0) => out.check(bits(&series) == bits(s0), || {
                format!("sweep {i}: series differs from sweep 0 of this seed")
            }),
        }
        if let Some(old) = last_dir.replace(dir) {
            let _ = std::fs::remove_dir_all(old);
        }
        i += 1;
    }
    out.ops_per_s = op_s.len() as f64 / op_s.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    out.windows.push(op_s);
    out.peak_rss_mb = crate::peak_rss_mb();

    // Replay over the last sweep's store: every point is now a stored
    // retrain, and the series must come back bit-identical.
    let series0 = first.expect("the loop runs at least once");
    out.outputs.push(crate::fnv1a(
        &bits(&series0)
            .iter()
            .flat_map(|p| [p.0, p.1 as u64, p.2, p.3, p.4])
            .flat_map(u64::to_le_bytes)
            .collect::<Vec<u8>>(),
    ));
    let dir = last_dir.expect("the loop runs at least once");
    let span = ctx.tracer.open("check.replay", root.id);
    let replay = Pipeline::with_cache_dir(cfg, &dir);
    require_store(&replay)?;
    let (epochs0, transitions0) = (nn::train::epochs_run(), gatesim::sim_transitions());
    let again = replay.power_threshold_sweep(kind);
    let work = (
        nn::train::epochs_run() - epochs0,
        gatesim::sim_transitions() - transitions0,
    );
    ctx.tracer.close(span, None);
    out.check(bits(&again) == bits(&series0) && work == (0, 0), || {
        format!(
            "replay: series equal={}, epochs={} transitions={} (expected a bit-identical \
             series at zero work)",
            bits(&again) == bits(&series0),
            work.0,
            work.1
        )
    });
    ctx.tracer.close(root, None);
    Ok(out)
}

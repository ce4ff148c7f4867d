//! `cold_mini`: one cold LeNet-5 `characterization_request` after
//! another, each against an empty store — the cost of a new config.

use powerpruning::chars::power::{characterize_power, characterize_power_scalar};
use powerpruning::chars::timing::{characterize_timing, characterize_timing_scalar};
use powerpruning::chars::{PowerConfig, TimingConfig};
use powerpruning::pipeline::{NetworkKind, Pipeline, PipelineConfig, Scale};
use powerpruning::{CharCache, CharacterizationRun};

use crate::layers::{self, Row};
use crate::trace::Counters;
use crate::{require_store, timed, Outcome, RunCtx};

/// Set-up repetitions. Set-up warms the process up with a cold Micro
/// request of the same configuration on an empty store: it starts the
/// thread pools, faults in the code and heap the Mini requests use, and
/// at about 0.2 s it is long enough to time steadily.
const SETUP_REPS: usize = 5;

/// Requests per run at least, whatever `--seconds` says: the median
/// of three keeps one slow request from moving the run's figure.
const MIN_REQUESTS: usize = 3;

/// Weight stride and samples per weight of the untimed engine check.
const CHECK_STRIDE: usize = 32;
const CHECK_SAMPLES: usize = 48;

pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let mut cfg = PipelineConfig::for_scale(ctx.scale);
    cfg.seed = ctx.pipeline_seed(1);
    let kind = NetworkKind::LeNet5;
    let mut out = Outcome::default();
    let root = ctx.tracer.open("cold_mini", 0);

    let mut warm_up = PipelineConfig::for_scale(Scale::Micro);
    warm_up.seed = cfg.seed;
    for rep in 0..SETUP_REPS {
        let span = ctx.tracer.open("setup.warm_up", root.id);
        let dir = ctx.fresh_dir(&format!("setup-{rep}"))?;
        let (warmed, secs) = timed(|| {
            let pipeline = Pipeline::with_cache_dir(warm_up, &dir);
            require_store(&pipeline)?;
            Ok::<bool, String>(pipeline.characterization_request(kind).manifest_hit)
        });
        ctx.tracer.close(span, None);
        out.check(!warmed?, || format!("set-up request {rep} was not cold"));
        out.setup_s.push(secs);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut first: Option<(std::path::PathBuf, CharacterizationRun)> = None;
    let mut op_s = Vec::new();
    let loop_start = std::time::Instant::now();
    let mut i = 0;
    while i < MIN_REQUESTS || loop_start.elapsed() < ctx.seconds {
        let traced = ctx.traced(i);
        let dir = ctx.fresh_dir(&format!("cold-{i}"))?;
        let pipeline = Pipeline::with_cache_dir(cfg, &dir);
        require_store(&pipeline)?;
        let before = Counters::now();
        let span = ctx
            .tracer
            .open("pipeline.characterization_request", root.id);
        let (run, secs) = timed(|| pipeline.characterization_request(kind));
        let d = Counters::now().since(&before);
        ctx.tracer.close(span, traced.then_some(&d));
        let bytes = crate::disk_bytes(&dir);
        out.attempted += 1;
        if run.manifest_hit || run.manifest.power_codes != 255 {
            out.failures.push(format!(
                "request {i}: manifest_hit={} power_codes={} (expected a cold \
                 request over 255 codes)",
                run.manifest_hit, run.manifest.power_codes
            ));
        }
        out.work.push(layers::work_counters(&d, bytes));
        if traced {
            let mut row: Row = layers::common_row(&d, secs, true);
            row.insert("charstore.disk_bytes", bytes as f64);
            row.insert("pipeline.baseline_accuracy", run.manifest.accuracy);
            out.rows.push(row);
            out.traced_units.push(secs);
        } else {
            op_s.push(secs);
            out.untraced_units.push(secs);
        }
        match &first {
            None => first = Some((dir, run)),
            Some((_, run0)) => {
                out.check(run.manifest == run0.manifest, || {
                    format!("request {i}: manifest differs from request 0 of this seed")
                });
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        i += 1;
    }
    out.ops_per_s = op_s.len() as f64 / op_s.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    out.windows.push(op_s);
    out.peak_rss_mb = crate::peak_rss_mb();

    let (dir, run) = first.expect("the loop runs at least once");
    let span = ctx.tracer.open("check.outputs", root.id);
    check_outputs(&mut out, cfg, &dir, &run)?;
    ctx.tracer.close(span, None);
    ctx.tracer.close(root, None);
    Ok(out)
}

/// The untimed output checks over the first request's store.
fn check_outputs(
    out: &mut Outcome,
    cfg: PipelineConfig,
    dir: &std::path::Path,
    run: &CharacterizationRun,
) -> Result<(), String> {
    out.outputs.push(crate::request_outputs(dir, run)?);
    // 255 finite power codes in the stored characterization.
    let cache = CharCache::open(dir).map_err(|e| e.to_string())?;
    let chars = cache.lookup_characterization(run.manifest.characterization);
    out.check(chars.is_some(), || {
        "the stored characterization artifact does not load".to_string()
    });
    let Some(chars) = chars else {
        return Ok(());
    };
    let profile = &chars.power_profile;
    out.check(
        profile.codes().len() == 255
            && profile
                .codes()
                .iter()
                .all(|&c| profile.power_uw(c).is_finite()),
        || {
            format!(
                "power profile: {} codes, not 255 finite ones",
                profile.codes().len()
            )
        },
    );

    // A warm replay on a fresh pipeline over the same store is a
    // manifest hit that costs no work.
    let replay = Pipeline::with_cache_dir(cfg, dir);
    require_store(&replay)?;
    let again = replay.characterization_request(NetworkKind::LeNet5);
    out.check(
        again.manifest_hit
            && again.training_epochs == 0
            && again.sim_transitions == 0
            && again.manifest == run.manifest,
        || {
            format!(
                "warm replay: manifest_hit={} epochs={} transitions={}, manifest equal={}",
                again.manifest_hit,
                again.training_epochs,
                again.sim_transitions,
                again.manifest == run.manifest
            )
        },
    );

    // The production engines agree with the scalar references on a
    // reduced strided config over this run's own stats and binning.
    let hw = replay.hardware();
    let power_cfg = PowerConfig {
        samples_per_weight: CHECK_SAMPLES,
        seed: cfg.seed ^ 0x909,
        clock_ps: replay.array().config().clock_ps,
        weight_stride: CHECK_STRIDE,
        baseline_fj_per_cycle: 90.0,
    };
    let fast = characterize_power(hw, &chars.stats, &chars.binning, &power_cfg);
    let scalar = characterize_power_scalar(hw, &chars.stats, &chars.binning, &power_cfg);
    out.check(fast == scalar, || {
        "characterize_power differs from characterize_power_scalar".to_string()
    });
    let timing_cfg = TimingConfig {
        exhaustive: false,
        samples: CHECK_SAMPLES,
        seed: cfg.seed ^ 0x7171,
        slow_floor_ps: 0.0,
        weight_stride: CHECK_STRIDE,
    };
    out.check(
        characterize_timing(hw, &timing_cfg) == characterize_timing_scalar(hw, &timing_cfg),
        || "characterize_timing differs from characterize_timing_scalar".to_string(),
    );
    Ok(())
}

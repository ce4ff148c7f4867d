//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <cold_mini|mini_sweep|warm_serve> --seed N
//!           --seconds S --trace <0|1> [--scale micro]
//! ```
//!
//! Runs one workload as a closed loop for `--seconds`, checks every
//! output, and prints as its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. An untraced run
//! (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) alternates untraced and traced operations, reports
//! the per-layer metrics, and writes its spans to
//! `.perfbench/trace/<workload>-seed<N>.json`. `--scale micro` shrinks
//! the pipeline workloads to a seconds-long smoke. See README.md.

mod cold_mini;
mod json;
mod layers;
mod mini_sweep;
mod stats;
mod trace;
mod warm_serve;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use powerpruning::pipeline::{Pipeline, Scale};
use powerpruning::{CharCache, CharacterizationRun};

use layers::{Row, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Everything a workload needs to run.
pub struct RunCtx {
    /// Pipeline scale of the pipeline workloads.
    pub scale: Scale,
    /// The workload seed every generated input derives from.
    pub seed: u64,
    /// How long the closed loop keeps starting operations.
    pub seconds: Duration,
    /// The run's span recorder.
    pub tracer: Tracer,
    /// Scratch directory of this run, removed when it ends.
    pub work_dir: PathBuf,
}

impl RunCtx {
    /// Whether operation `i` of the loop is traced: a traced run
    /// alternates untraced (even) and traced (odd) operations.
    pub fn traced(&self, i: usize) -> bool {
        self.tracer.on() && i % 2 == 1
    }

    /// A pipeline input seed for `stream`, derived from the workload
    /// seed. Kept below 2^53 so it survives a JSON number.
    pub fn pipeline_seed(&self, stream: u64) -> u64 {
        splitmix64(self.seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 11
    }

    /// A fresh, empty directory under the run's scratch directory.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work_dir.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Wall time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of every untraced operation, seconds, in measurement
    /// windows. The latency percentiles are taken per window and their
    /// median reported, so a burst of contention from outside the
    /// benchmark moves the windows it hits, not the run's figure.
    pub windows: Vec<Vec<f64>>,
    /// Untraced operations completed per second of measured time.
    pub ops_per_s: f64,
    /// Peak resident set size at the end of the measured loop, MiB.
    pub peak_rss_mb: f64,
    /// Durations of the untraced and traced units the tracing overhead
    /// compares (operations, or serving rounds).
    pub untraced_units: Vec<f64>,
    /// See [`Outcome::untraced_units`].
    pub traced_units: Vec<f64>,
    /// Per-layer rows of every traced operation.
    pub rows: Vec<Row>,
    /// Exact work counters of every operation, in loop order.
    pub work: Vec<Vec<(&'static str, u64)>>,
    /// Digests of the run's simulated outputs (see [`request_outputs`]).
    pub outputs: Vec<u64>,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Descriptions of every failed operation or check.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records one check: attempted, and failed with `what` unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Fails the run unless `pipeline` has a store attached: the
/// `POWERPRUNING_CACHE=off` switch would otherwise silently turn every
/// cached stage into a recomputation.
pub fn require_store(pipeline: &Pipeline) -> Result<(), String> {
    if pipeline.cache().is_none() {
        return Err("the pipeline has no artifact store attached \
                    (is POWERPRUNING_CACHE=off set?); refusing to run"
            .to_string());
    }
    Ok(())
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of the simulated outputs a characterization request stored
/// in the store at `dir`: its power profile, its timing profile and its
/// baseline accuracy, bit for bit.
pub fn request_outputs(dir: &Path, run: &CharacterizationRun) -> Result<u64, String> {
    let cache = CharCache::open(dir).map_err(|e| e.to_string())?;
    let chars = cache
        .lookup_characterization(run.manifest.characterization)
        .ok_or("the stored characterization artifact does not load")?;
    let timing = cache
        .lookup_timing(run.manifest.timing)
        .ok_or("the stored timing artifact does not load")?;
    let mut bytes = Vec::new();
    chars.power_profile.write_to(&mut bytes);
    timing.write_to(&mut bytes);
    bytes.extend(run.manifest.accuracy.to_bits().to_le_bytes());
    Ok(fnv1a(&bytes))
}

/// Bytes a store directory holds on disk.
pub fn disk_bytes(dir: &Path) -> u64 {
    charstore::Store::open(dir)
        .and_then(|s| s.disk_bytes())
        .unwrap_or(0)
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's own input generator.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scale = Scale::Mini;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("bad {flag} `{value}`: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = number()? != 0,
            "--scale" => {
                scale = match value.as_str() {
                    "mini" => Scale::Mini,
                    "micro" => Scale::Micro,
                    other => return Err(format!("unknown scale `{other}` (mini | micro)")),
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale,
    })
}

/// FNV-1a over this executable: identifies the program build whose
/// work counters a determinism record holds.
fn build_id() -> u64 {
    fnv1a(
        &std::env::current_exe()
            .and_then(std::fs::read)
            .unwrap_or_default(),
    )
}

/// Checks `now` against the record at `path`, or writes the record
/// when there is none yet.
fn check_record(out: &mut Outcome, path: &Path, now: &str, what: &str) {
    match std::fs::read_to_string(path) {
        Ok(before) => out.check(before == now, || {
            format!(
                "{what} differ from an earlier run of this seed ({}):\nearlier:\n{before}now:\n{now}",
                path.display()
            )
        }),
        Err(_) => {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            let _ = std::fs::write(path, now);
        }
    }
}

/// Checks that the run's simulated outputs match those of an earlier
/// run of the same workload, scale and seed, whatever build made it
/// (the first such run records them under `.perfbench/outputs/`). An
/// optimisation must leave every simulated result bit-identical.
fn check_outputs(out: &mut Outcome, workload: &str, args: &Args) {
    let now = out.outputs.iter().fold(String::new(), |mut s, d| {
        let _ = writeln!(s, "{d:016x}");
        s
    });
    let path = PathBuf::from(format!(
        ".perfbench/outputs/{workload}-{:?}-seed{}.txt",
        args.scale, args.seed
    ));
    check_record(out, &path, &now, "simulated outputs");
}

fn render_work(work: &[(&str, u64)]) -> String {
    work.iter().fold(String::new(), |mut s, (k, v)| {
        let _ = writeln!(s, "{k} {v}");
        s
    })
}

/// Checks that every operation of the run did the same work, and that
/// it matches an earlier run of the same build, workload and seed (the
/// first such run records it under `.perfbench/work/`).
fn check_determinism(out: &mut Outcome, workload: &str, args: &Args) {
    let Some(first) = out.work.first().cloned() else {
        return;
    };
    let varying: Vec<String> = out
        .work
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, w)| **w != first)
        .map(|(i, w)| format!("operation {i}: {w:?}"))
        .collect();
    out.check(varying.is_empty(), || {
        format!(
            "determinism: work counters differ between operations of one run \
             (operation 0: {first:?}; {})",
            varying.join("; ")
        )
    });
    let record = PathBuf::from(format!(
        ".perfbench/work/{:016x}-{workload}-{:?}-seed{}.txt",
        build_id(),
        args.scale,
        args.seed
    ));
    check_record(
        out,
        &record,
        &render_work(&first),
        "determinism: work counters",
    );
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let _ = write!(
        out,
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json::string(name),
        json::number(value),
        json::string(unit)
    );
}

fn end_to_end(out: &Outcome) -> Vec<f64> {
    let (mut p50, mut tails, mut pcts) = (Vec::new(), Vec::new(), Vec::new());
    for window in &out.windows {
        let ms: Vec<f64> = window.iter().map(|s| s * 1e3).collect();
        let (pct, tail) = stats::tail(&ms);
        p50.push(stats::median(&ms));
        tails.push(tail);
        pcts.push(pct);
    }
    eprintln!(
        "  {} untraced operations in {} window(s); tail = p{:?} per window \
         (the highest with at least {} samples beyond it, else the slowest)",
        out.windows.iter().map(Vec::len).sum::<usize>(),
        out.windows.len(),
        pcts.first().copied().unwrap_or(100.0),
        stats::TAIL_MIN_BEYOND
    );
    vec![
        stats::median(&out.setup_s),
        out.peak_rss_mb,
        stats::median(&p50),
        stats::median(&tails),
        out.ops_per_s,
    ]
}

fn per_layer(out: &Outcome) -> Row {
    let mut row = layers::median_row(&out.rows);
    let base = stats::median(&out.untraced_units);
    let traced = stats::median(&out.traced_units);
    row.insert(
        "bench.trace_overhead_pct",
        if base > 0.0 {
            100.0 * (traced - base) / base
        } else {
            0.0
        },
    );
    row.insert("bench.ops_traced", out.traced_units.len() as f64);
    row.insert("bench.ops_untraced", out.untraced_units.len() as f64);
    row
}

fn run(args: &Args) -> Result<bool, String> {
    if CharCache::disabled_by_env() {
        return Err(
            "POWERPRUNING_CACHE disables the artifact store, which every \
                    workload measures; unset it to run the benchmark"
                .to_string(),
        );
    }
    let run_id = splitmix64(
        u64::from(std::process::id())
            ^ std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as u64),
    );
    let work_dir = PathBuf::from(format!(
        ".perfbench/run-{}-{:08x}",
        args.workload, run_id as u32
    ));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let ctx = RunCtx {
        scale: args.scale,
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        tracer: Tracer::new(args.trace, run_id),
        work_dir,
    };
    eprintln!(
        "perfbench: workload {} seed {} for {} s, trace {}, scale {:?}",
        args.workload, args.seed, args.seconds, args.trace, args.scale
    );
    let result = match args.workload.as_str() {
        "cold_mini" => cold_mini::run(&ctx),
        "mini_sweep" => mini_sweep::run(&ctx),
        "warm_serve" => warm_serve::run(&ctx),
        other => Err(format!(
            "unknown workload `{other}` (cold_mini | mini_sweep | warm_serve)"
        )),
    };
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    let mut out = result?;
    check_determinism(&mut out, &args.workload, args);
    check_outputs(&mut out, &args.workload, args);

    if ctx.tracer.on() {
        let dir = Path::new(".perfbench/trace");
        let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
        std::fs::create_dir_all(dir)
            .and_then(|()| ctx.tracer.write(&path, &args.workload, args.seed))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("  spans written to {}", path.display());
    }
    for failure in &out.failures {
        eprintln!("FAILED: {failure}");
    }
    let correct = out.failures.is_empty();
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted.max(1),
        out.failures.len()
    );
    if args.trace {
        let row = per_layer(&out);
        for (name, unit) in PER_LAYER {
            metric(&mut line, name, row[name], unit);
        }
    } else {
        for ((name, unit), value) in END_TO_END.iter().zip(end_to_end(&out)) {
            metric(&mut line, name, value, unit);
        }
    }
    line.push_str("}}");
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

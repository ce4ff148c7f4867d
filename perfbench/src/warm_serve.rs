//! `warm_serve`: an in-process `charserve` daemon over a warmed Micro
//! store, serving the traffic the repository's own clients send it.
//!
//! Set-up records that traffic. Once per configuration it runs each
//! client of the daemon the repository ships (see [`Session`]), each
//! over an empty local store, and reads what the client asked for from
//! the client's local store afterwards, cross-checked against the
//! daemon's `/stats`. Every round replays the recorded requests, the
//! small ones [`SMALL_REPEAT`] times, over one keep-alive connection, in
//! an order the workload seed shuffles.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use charserve::json::{self, JsonValue};
use charserve::{Client, ServeConfig, Server};
use httpwire::{ClientConfig, HttpConnection, RequestSpec};
use powerpruning::pipeline::{NetworkKind, Pipeline, PipelineConfig, Scale};

use crate::layers::{self, Row};
use crate::stats;
use crate::trace::{Counters, Tracer};
use crate::{require_store, splitmix64, timed, Outcome, RunCtx};

/// Distinct Micro configurations (pipeline seeds) in the store.
const CONFIGS: usize = 2;
/// Set-up repetitions (each warms a fresh store).
const SETUP_REPS: usize = 5;
/// Objects up to this size are small; larger ones are the megabyte
/// stage artifacts.
const SMALL_OBJECT_BYTES: usize = 64 << 10;
/// Times a round repeats each recorded request that is neither a `PUT`
/// nor a `GET` of a large object; those heavy requests are sent once.
/// Replayed once each, the recorded traffic is a third `PUT`s and a
/// seventh megabyte `GET`s, and both ride on the host's disk and memory
/// bandwidth: over 10 seeds the round time spread by 10–31% of its
/// median from run to run, and up to 47% for its tail. Repeated 20
/// times, the small requests make up about 95% of a round, so its p50
/// and p90 are small-request latencies, and the heavy requests' costs
/// show in `ops_per_s` and in their own per-layer latencies.
const SMALL_REPEAT: usize = 20;
/// Response-body cap: above the largest stored artifact.
const RESPONSE_LIMIT: usize = 16 << 20;

/// The repository's clients of the daemon. Set-up runs each once per
/// configuration, in this order, and a round replays what they sent.
#[derive(Debug, Clone, Copy)]
enum Session {
    /// `charstore request`: one `POST /characterize`.
    Request,
    /// `charstore warm --remote` over an empty local store: every stage
    /// artifact is fetched with a `GET /object/<key>`.
    Warm,
    /// `charstore warm --remote --sweep` over an empty local store: as
    /// `Warm`, then the Fig. 8 sweep. The daemon lacks its retrain
    /// artifacts, so each is looked up (a `GET` the daemon answers 404),
    /// computed, and published with a `PUT /object/<key>`.
    Sweep,
}

const SESSIONS: [Session; 3] = [Session::Request, Session::Warm, Session::Sweep];

#[derive(Debug, Clone, Copy)]
enum Op {
    Characterize(usize),
    Get(usize),
    /// A `GET` of an object the daemon does not hold: a lookup before
    /// the object is published.
    Miss(usize),
    Put(usize),
}

/// Client-side latency routes, in `charserve.*_p50_ms` order.
const ROUTES: [&str; 4] = [
    "characterize",
    "object_get",
    "object_get_large",
    "object_put",
];

impl Op {
    fn route(self, exp: &Expected) -> usize {
        match self {
            Op::Characterize(_) => 0,
            Op::Get(k) if exp.objects[k].1.len() <= SMALL_OBJECT_BYTES => 1,
            Op::Miss(_) => 1,
            Op::Get(_) => 2,
            Op::Put(_) => 3,
        }
    }
}

/// What the daemon must answer.
struct Expected {
    /// `/characterize` request bodies, one per configuration.
    bodies: Vec<String>,
    /// The four stage-artifact digests of each configuration's
    /// set-up manifest, as the `artifacts` object names them.
    digests: Vec<[(&'static str, String); 4]>,
    /// `(path, bytes)` of every object a round requests.
    objects: Vec<(String, Vec<u8>)>,
    /// Per object, the path of a key the daemon does not hold, which a
    /// replayed lookup miss requests.
    absent: Vec<String>,
}

/// One client session's requests, by object key (hex).
#[derive(Default)]
struct Recorded {
    characterize: u64,
    /// Objects fetched.
    gets: Vec<String>,
    /// Objects looked up in vain, then published.
    puts: Vec<String>,
}

/// Keys of every object in the store at `dir`, as hex.
fn keys(dir: &Path) -> Result<BTreeSet<String>, String> {
    charstore::Store::open(dir)
        .and_then(|s| s.entries())
        .map(|entries| entries.iter().map(|e| e.key.to_hex()).collect())
        .map_err(|e| format!("listing {}: {e}", dir.display()))
}

fn stats_field(stats: &JsonValue, name: &str) -> u64 {
    stats.get(name).and_then(JsonValue::as_u64).unwrap_or(0)
}

/// The `/stats` counters a session moves: characterize requests,
/// object hits, object misses, object publishes.
fn session_stats(admin: &Client) -> Result<[u64; 4], String> {
    let stats = admin
        .stats()
        .and_then(|s| json::parse(&s))
        .map_err(|e| format!("/stats: {e}"))?;
    Ok([
        "requests",
        "object_hits",
        "object_misses",
        "object_publishes",
    ]
    .map(|name| stats_field(&stats, name)))
}

/// Runs one client session for `cfg` against the daemon and returns
/// the requests it sent. A pipeline client keeps every object it
/// fetched or computed in its local store: those the daemon held
/// before were fetched, the rest were looked up and then published.
fn record(
    session: Session,
    cfg: PipelineConfig,
    body: &str,
    addr: &str,
    daemon_dir: &Path,
    local_dir: &Path,
) -> Result<Recorded, String> {
    let kind = NetworkKind::LeNet5;
    if let Session::Request = session {
        Client::new(addr)
            .characterize(body)
            .map_err(|e| format!("POST /characterize: {e}"))?;
        return Ok(Recorded {
            characterize: 1,
            ..Recorded::default()
        });
    }
    let before = keys(daemon_dir)?;
    let pipeline = Pipeline::with_cache_dir_remote(cfg, local_dir, Some(addr));
    require_store(&pipeline)?;
    // The stage calls of `charstore warm`.
    let mut prepared = pipeline.prepare(kind);
    let captures = pipeline.capture(&mut prepared);
    let _ = pipeline.characterize(&captures);
    let _ = pipeline.characterize_timing(f64::MAX);
    if let Session::Sweep = session {
        let _ = pipeline.power_threshold_sweep(kind);
    }
    drop(pipeline);
    let local = keys(local_dir)?;
    Ok(Recorded {
        characterize: 0,
        gets: local.intersection(&before).cloned().collect(),
        puts: local.difference(&before).cloned().collect(),
    })
}

/// The requests of one round in an order shuffled by the workload
/// seed and the round.
fn shuffled(base: &[Op], seed: u64, round: usize) -> Vec<Op> {
    let mut ops = base.to_vec();
    let mut state = splitmix64(seed ^ splitmix64(round as u64));
    for i in (1..ops.len()).rev() {
        state = splitmix64(state);
        ops.swap(i, (state % (i as u64 + 1)) as usize);
    }
    ops
}

/// What one round of requests returned.
#[derive(Default)]
struct Driven {
    /// `(route, seconds)` per completed request, the route indexing
    /// [`ROUTES`].
    latencies: Vec<(usize, f64)>,
    characterize: u64,
    failures: Vec<String>,
}

fn verify(op: Op, status: u16, body: &[u8], exp: &Expected) -> Result<(), String> {
    let expected = if let Op::Miss(_) = op { 404 } else { 200 };
    if status != expected {
        return Err(format!("{op:?} answered {status}, not {expected}"));
    }
    match op {
        Op::Characterize(c) => {
            let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
            let v = json::parse(text)?;
            let artifacts = v.get("artifacts");
            let digests_match = exp.digests[c].iter().all(|(stage, hex)| {
                artifacts
                    .and_then(|a| a.get(stage))
                    .and_then(JsonValue::as_str)
                    == Some(hex.as_str())
            });
            if v.get("store_hit").and_then(JsonValue::as_bool) != Some(true) || !digests_match {
                return Err(format!(
                    "/characterize for config {c} is not a store hit with the set-up digests"
                ));
            }
        }
        Op::Get(k) if body != exp.objects[k].1.as_slice() => {
            return Err(format!(
                "GET {} body differs from the stored object",
                exp.objects[k].0
            ));
        }
        Op::Get(_) | Op::Miss(_) | Op::Put(_) => {}
    }
    Ok(())
}

fn spec(op: Op, exp: &Expected) -> RequestSpec<'_> {
    let (method, path, content_type, body): (_, &str, _, &[u8]) = match op {
        Op::Characterize(c) => (
            "POST",
            "/characterize",
            "application/json",
            exp.bodies[c].as_bytes(),
        ),
        Op::Get(k) => ("GET", &exp.objects[k].0, "text/plain", &[]),
        Op::Miss(k) => ("GET", &exp.absent[k], "text/plain", &[]),
        Op::Put(k) => (
            "PUT",
            &exp.objects[k].0,
            "application/octet-stream",
            &exp.objects[k].1,
        ),
    };
    RequestSpec {
        method,
        path,
        content_type,
        body,
        trace: None,
        response_limit: RESPONSE_LIMIT,
        keep_alive: true,
    }
}

/// Sends one round of requests over `conn`, each after the previous
/// reply (dialling when there is no connection), and checks every
/// reply.
fn drive(
    addr: &str,
    conn: &mut Option<HttpConnection>,
    ops: &[Op],
    exp: &Expected,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Driven {
    let mut out = Driven::default();
    for &op in ops {
        if let Op::Characterize(_) = op {
            out.characterize += 1;
        }
        let route = op.route(exp);
        let span = parent.map(|p| tracer.open(&format!("http.{}", ROUTES[route]), p));
        let start = Instant::now();
        let answer = match conn {
            Some(c) => c.send(&spec(op, exp)),
            None => HttpConnection::connect(addr, &ClientConfig::default())
                .and_then(|c| conn.insert(c).send(&spec(op, exp))),
        }
        .and_then(|()| {
            conn.as_mut()
                .expect("connected above")
                .read_response(RESPONSE_LIMIT)
        });
        let end = Instant::now();
        if let Some(span) = span {
            tracer.close_at(span, end, None);
        }
        let result = match answer {
            Ok((head, body)) => verify(op, head.status, &body, exp),
            Err(e) => {
                // The connection state is unknown after a transport
                // error; the next request dials afresh.
                *conn = None;
                Err(format!("{op:?}: {e}"))
            }
        };
        match result {
            Ok(()) => out
                .latencies
                .push((route, end.duration_since(start).as_secs_f64())),
            Err(e) => out.failures.push(e),
        }
    }
    out
}

/// Restricts the calling thread, and every thread it spawns from now
/// on, to the first CPU it may run on. Returns whether that took.
///
/// Serving is a chain of hand-offs between the client thread and the
/// reactor. Across the two vCPUs of a shared VM each hand-off is a
/// cross-CPU wake-up, which host CPU steal delays: unpinned, the serve
/// p50 of one seed moved between 0.08 and 0.11 ms from run to run;
/// pinned, between 0.045 and 0.055 ms. The price is that the serving
/// figures are single-core: work the daemon spreads over more cores
/// cannot show here.
fn pin_to_one_cpu() -> bool {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: both calls access exactly `size` bytes of `mask`, a live
    // local array; pid 0 is the calling thread.
    unsafe {
        if sched_getaffinity(0, size, mask.as_mut_ptr()) != 0 {
            return false;
        }
        let Some(word) = mask.iter().position(|&w| w != 0) else {
            return false;
        };
        let mut first = [0u64; 16];
        first[word] = mask[word] & mask[word].wrapping_neg();
        sched_setaffinity(0, size, first.as_ptr()) == 0
    }
}

pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let kind = NetworkKind::LeNet5;
    let configs: Vec<PipelineConfig> = (0..CONFIGS)
        .map(|c| {
            let mut cfg = PipelineConfig::for_scale(Scale::Micro);
            cfg.seed = ctx.pipeline_seed(10 + c as u64);
            cfg
        })
        .collect();
    let bodies: Vec<String> = configs
        .iter()
        .map(|cfg| {
            format!(
                "{{\"scale\": \"micro\", \"network\": \"lenet5\", \"seed\": {}}}",
                cfg.seed
            )
        })
        .collect();
    let mut out = Outcome::default();
    let root = ctx.tracer.open("warm_serve", 0);

    // Set-up: warm a fresh Micro store with every configuration.
    let mut warmed = None;
    for rep in 0..SETUP_REPS {
        let span = ctx.tracer.open("setup.warm_store", root.id);
        let dir = ctx.fresh_dir(&format!("store-{rep}"))?;
        let (runs, secs) = timed(|| {
            configs
                .iter()
                .map(|&cfg| {
                    let pipeline = Pipeline::with_cache_dir(cfg, &dir);
                    require_store(&pipeline)?;
                    Ok(pipeline.characterization_request(kind))
                })
                .collect::<Result<Vec<_>, String>>()
        });
        ctx.tracer.close(span, None);
        out.setup_s.push(secs);
        if let Some((old, _)) = warmed.replace((dir, runs?)) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let (dir, runs) = warmed.expect("at least one set-up repetition");
    for run in &runs {
        out.outputs.push(crate::request_outputs(&dir, run)?);
    }

    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        store_dir: dir.clone(),
        max_connections: 16,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot boot the daemon: {e}"))?;
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.serve());
    let admin = Client::new(&addr);
    admin.healthz().map_err(|e| format!("healthz: {e}"))?;

    // Record the traffic of every client session, untimed.
    let span = ctx.tracer.open("setup.record_clients", root.id);
    let mut sessions = Vec::new();
    for (c, &cfg) in configs.iter().enumerate() {
        for session in SESSIONS {
            let local = ctx.fresh_dir(&format!("client-{c}-{session:?}"))?;
            let before = session_stats(&admin)?;
            let rec = record(session, cfg, &bodies[c], &addr, &dir, &local)?;
            let after = session_stats(&admin)?;
            let _ = std::fs::remove_dir_all(&local);
            let moved = [0, 1, 2, 3].map(|i| after[i] - before[i]);
            let fetched = rec.gets.len() as u64;
            let inferred = [
                rec.characterize,
                fetched,
                rec.puts.len() as u64,
                rec.puts.len() as u64,
            ];
            out.check(moved == inferred, || {
                format!(
                    "{session:?} client, config {c}: /stats moved (requests, object hits, \
                     misses, publishes) by {moved:?}, the recording infers {inferred:?}"
                )
            });
            sessions.push((c, rec));
        }
    }
    ctx.tracer.close(span, None);

    // The objects a round requests, read back from the daemon's store.
    let store = charstore::Store::open(&dir).map_err(|e| e.to_string())?;
    let mut paths: Vec<String> = sessions
        .iter()
        .flat_map(|(_, rec)| rec.gets.iter().chain(&rec.puts).cloned())
        .collect();
    paths.sort_unstable();
    paths.dedup();
    let entries = store.entries().map_err(|e| e.to_string())?;
    let objects = paths
        .iter()
        .map(|hex| {
            entries
                .iter()
                .find(|e| e.key.to_hex() == *hex)
                .and_then(|e| store.get_encoded(e.key))
                .map(|bytes| (format!("/object/{hex}"), bytes))
                .ok_or_else(|| format!("object {hex} does not read back from the daemon's store"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    drop(store);
    // Per object, a key the daemon does not hold: its hex reversed.
    let absent = paths
        .iter()
        .map(|hex| {
            let other: String = hex.chars().rev().collect();
            if entries.iter().any(|e| e.key.to_hex() == other) {
                return Err(format!("the reverse of key {hex} is stored too"));
            }
            Ok(format!("/object/{other}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let index = |hex: &String| paths.binary_search(hex).expect("listed above");
    let recorded: Vec<Op> = sessions
        .iter()
        .flat_map(|(c, rec)| {
            (0..rec.characterize)
                .map(|_| Op::Characterize(*c))
                .chain(rec.gets.iter().map(|k| Op::Get(index(k))))
                .chain(
                    rec.puts
                        .iter()
                        .flat_map(|k| [Op::Miss(index(k)), Op::Put(index(k))]),
                )
                .collect::<Vec<_>>()
        })
        .collect();
    let exp = Expected {
        bodies,
        digests: runs
            .iter()
            .map(|r| {
                let m = &r.manifest;
                [
                    ("training", m.training.to_hex()),
                    ("capture", m.capture.to_hex()),
                    ("characterization", m.characterization.to_hex()),
                    ("timing", m.timing.to_hex()),
                ]
            })
            .collect(),
        absent,
        objects,
    };
    let base: Vec<Op> = recorded
        .iter()
        .flat_map(|&op| {
            let heavy = matches!(op.route(&exp), 2 | 3);
            std::iter::repeat_n(op, if heavy { 1 } else { SMALL_REPEAT })
        })
        .collect();
    let routes = base.iter().fold([0; 4], |mut n, op| {
        n[op.route(&exp)] += 1;
        n
    });
    eprintln!(
        "  warm_serve: {} recorded requests; a round is {}: {} POST /characterize, \
         {} small and {} large GET, {} PUT, over {} objects of {}..{} bytes",
        recorded.len(),
        base.len(),
        routes[0],
        routes[1],
        routes[2],
        routes[3],
        exp.objects.len(),
        exp.objects.iter().map(|o| o.1.len()).min().unwrap_or(0),
        exp.objects.iter().map(|o| o.1.len()).max().unwrap_or(0)
    );

    if !pin_to_one_cpu() {
        eprintln!("  warm_serve: could not pin to one CPU; serving unpinned");
    }
    let start_stats = session_stats(&admin)?;
    let mut conn = None;
    let (mut requests, mut characterize, mut request_failures) = (0u64, 0u64, 0u64);
    let mut round_rates = Vec::new();
    let loop_start = Instant::now();
    let mut round = 0;
    while round == 0 || loop_start.elapsed() < ctx.seconds {
        let traced = ctx.traced(round);
        let ops = shuffled(&base, ctx.seed, round);
        let before = Counters::now();
        let span = ctx.tracer.open("serve.round", root.id);
        let parent = traced.then_some(span.id);
        let start = Instant::now();
        let driven = drive(&addr, &mut conn, &ops, &exp, &ctx.tracer, parent);
        let secs = start.elapsed().as_secs_f64();
        let d = Counters::now().since(&before);
        ctx.tracer.close(span, traced.then_some(&d));

        let sent = ops.len() as u64;
        requests += sent;
        out.attempted += sent;
        characterize += driven.characterize;
        request_failures += driven.failures.len() as u64;
        out.failures.extend(driven.failures);
        let bytes = crate::disk_bytes(&dir);
        out.work.push(layers::work_counters(&d, bytes));
        if traced {
            let mut row: Row = layers::common_row(&d, secs, false);
            let mut total = 0.0;
            let mut by_route: [Vec<f64>; 4] = Default::default();
            for (route, s) in driven.latencies {
                total += s;
                by_route[route].push(s * 1e3);
            }
            for (name, samples) in [
                "charserve.characterize_p50_ms",
                "charserve.object_get_p50_ms",
                "charserve.object_get_large_p50_ms",
                "charserve.object_put_p50_ms",
            ]
            .into_iter()
            .zip(&by_route)
            {
                row.insert(name, stats::median(samples));
            }
            let handler_s = d.get("charserve_request_seconds_sum");
            row.insert("charserve.handler_s", handler_s);
            row.insert("charserve.wait_s", total - handler_s);
            row.insert("charstore.disk_bytes", bytes as f64);
            row.insert("pipeline.baseline_accuracy", runs[0].manifest.accuracy);
            out.rows.push(row);
            out.traced_units.push(secs);
        } else {
            // Each round is a latency window: about 600 requests leave
            // 60 samples beyond its p90 and 6 beyond its p99, so the
            // window tail is its p90.
            out.windows
                .push(driven.latencies.into_iter().map(|(_, s)| s).collect());
            out.untraced_units.push(secs);
            round_rates.push(sent as f64 / secs);
        }
        round += 1;
    }
    // The median round's throughput, for the same reason as the
    // per-round latency windows.
    out.ops_per_s = stats::median(&round_rates);
    out.peak_rss_mb = crate::peak_rss_mb();

    // Accounting checks against the daemon's own counters.
    drop(conn);
    let span = ctx.tracer.open("check.accounting", root.id);
    let end_stats = session_stats(&admin);
    let stats = admin
        .stats()
        .map_err(|e| e.to_string())
        .and_then(|s| json::parse(&s));
    let metrics = admin.metrics().unwrap_or_default();
    let shutdown = admin.shutdown();
    let stopped = daemon.join();
    ctx.tracer.close(span, None);
    let served = end_stats?[0] - start_stats[0];
    out.check(served == characterize, || {
        format!("/stats counts {served} characterize requests, the client sent {characterize}")
    });
    let observed = metrics
        .lines()
        .find_map(|l| l.strip_prefix("charserve_request_seconds_count "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0);
    out.check(observed >= requests, || {
        format!("/metrics observed {observed} requests, the client sent {requests}")
    });
    out.check(shutdown.is_ok() && matches!(stopped, Ok(Ok(()))), || {
        "the daemon did not shut down cleanly".to_string()
    });
    let stats = stats.map_err(|e| format!("/stats: {e}"))?;
    let error_rate = request_failures as f64 / requests as f64;
    for row in &mut out.rows {
        row.insert("charserve.rejected", stats_field(&stats, "rejected") as f64);
        row.insert(
            "charserve.throttled",
            stats_field(&stats, "throttled") as f64,
        );
        row.insert("charserve.error_rate", error_rate);
    }
    ctx.tracer.close(root, None);
    Ok(out)
}

//! `servebench`: the serving benchmark. Starts the real serving stack
//! in-process, drives one named workload over loopback TCP in a closed
//! loop, checks every answer, and prints the end-to-end metrics (or, with
//! `--trace 1`, replays the same requests layer by layer and prints the
//! per-layer metrics). See README.md in this directory.
//!
//! Usage: `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod instance;
mod provenance;
mod rng;
mod stack;
mod stats;
mod trace;
mod verify;
mod wire;
mod workload;

use hcl_server::ServingIndex;
use hcl_store::PackedOracle;
use instance::Instance;
use provenance::CpuTimes;
use stack::{Setup, Stack};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use wire::{Kind, Log, Target};
use workload::{Stream, Workload};

/// Complete set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Requests in flight on the one client connection.
pub const WINDOW: usize = 2;
/// Traffic before the measured window (cache fill, lazy set-up).
const WARMUP: Duration = Duration::from_secs(1);
/// Lifecycle round trips of a probe, over the whole run.
const PROBE_OPS: usize = 40;
/// Parts the measured window is cut into, with a probe slice after each.
const SEGMENTS: u64 = 4;
/// Steal share above which a second (or probe slice) is left out, as long
/// as at least half remain: it measured the hypervisor, not the program.
const STEAL_LIMIT: f64 = 0.02;

pub struct Args {
    pub workload: Workload,
    /// Seed of everything a run generates: the graph, its edit set, the
    /// request stream and the BiBFS sample.
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or(format!(
        "unknown workload {name:?} (expected one of: {})",
        Workload::ALL.map(Workload::name).join(", ")
    ))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|_| format!("{flag} needs a whole number"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args { workload, seed: number("--seed")?, seconds, trace })
}

/// A per-run directory for deployment files, inside the working directory
/// and removed when the run ends.
pub struct Scratch(String);

impl Scratch {
    fn create() -> Result<Scratch, String> {
        let dir = format!(".servebench/run-{}", std::process::id());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self, name: &str) -> String {
        format!("{}/{name}", self.0)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".servebench");
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Provenance and detail fields, printed before the result line.
    pub details: Vec<(String, String)>,
}

/// The deployment under test, its independently built references, and
/// the set-up timings.
pub struct Prepared {
    pub setup: Setup,
    pub setup_seconds: Vec<f64>,
    /// `references[0]` answers the base instance, `references[i + 1]` the
    /// instance with edit `i` inserted (built from scratch, `update-mix`).
    pub references: Vec<hcl_core::SharedOracle>,
    pub edits: Vec<(u32, u32)>,
}

/// Sets the workload's stack up `setups` times; the first set-up's own
/// build is the reference, the last one's stack is the system under test.
pub fn prepare(args: &Args, scratch: &Scratch, setups: usize) -> Result<Prepared, String> {
    let deploy_dir = scratch.path("deploy");
    let mut setup_seconds = Vec::new();
    let mut reference = None;
    let mut last = None;
    for i in 0..setups {
        // Tear the previous stack down first so set-ups never overlap.
        drop(last.take());
        let setup = stack::set_up(args.workload, args.seed, &deploy_dir)?;
        setup_seconds.push(setup.steps.total_s);
        if i == 0 {
            let oracle = setup.oracle.clone().unwrap_or_else(|| {
                hcl_core::SharedOracle::new(
                    std::sync::Arc::clone(&setup.instance.graph),
                    std::sync::Arc::clone(&setup.labelling),
                )
            });
            reference = Some(oracle);
        }
        last = Some(setup);
    }
    let setup = last.expect("at least one set-up");
    let reference = reference.expect("first set-up kept");
    let instance: &Instance = &setup.instance;
    if !instance.partition().respects_components(&instance.graph) {
        return Err("the 2-shard partition does not respect the components of G[V∖R]".into());
    }
    instance::check_reference_by_bfs(&instance.graph, &reference, args.seed)?;
    let edits = instance.edit_set(args.seed);
    let mut references = vec![reference];
    if args.workload == Workload::UpdateMix {
        for &edit in &edits {
            let graph = std::sync::Arc::new(instance.with_edit(edit));
            let (labelling, _) = hcl_core::HighwayCoverLabelling::build_parallel(
                &graph,
                &instance.landmarks,
                stack::BUILD_THREADS,
            )
            .map_err(|e| format!("reference build: {e}"))?;
            references.push(hcl_core::SharedOracle::new(graph, std::sync::Arc::new(labelling)));
        }
    }
    Ok(Prepared { setup, setup_seconds, references, edits })
}

/// The `UPDATE` figure: the mean of the median `ADD` and the median `DEL`
/// round trip. The two kinds cost differently, so a median over both would
/// sit on the boundary between them.
pub fn add_del_ms(adds: &[f64], dels: &[f64]) -> f64 {
    (stats::median(adds) + stats::median(dels)) / 2.0
}

/// [`add_del_ms`] of round trips that alternate `ADD`, `DEL`, ….
pub fn alternating_add_del_ms(ms: &[f64]) -> f64 {
    let adds: Vec<f64> = ms.iter().copied().step_by(2).collect();
    let dels: Vec<f64> = ms.iter().copied().skip(1).step_by(2).collect();
    add_del_ms(&adds, &dels)
}

/// Parses `key` out of a `STATS` body.
pub fn stat(body: &str, key: &str) -> Result<f64, String> {
    body.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
        .and_then(|v| v.parse().ok())
        .ok_or(format!("STATS has no {key}"))
}

/// Bytes the deployment's servers hold for the index.
pub fn index_bytes(stack: &Stack, routed: bool) -> Result<f64, String> {
    let body = stack.stats()?;
    if routed {
        stat(&body, "store_bytes")
    } else {
        Ok(stat(&body, "index_bytes")? + stat(&body, "sparse_bytes")?)
    }
}

/// Round trips of `ops` `UPDATE ADD`/`DEL`s (an even number) over the edit
/// set, with no other traffic; the graph ends where it started.
pub fn probe_updates(
    addr: std::net::SocketAddr,
    edits: &[(u32, u32)],
    ops: usize,
) -> Result<Vec<f64>, String> {
    let mut client = hcl_server::Client::connect(addr).map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for i in 0..ops {
        let (u, v) = edits[(i / 2) % edits.len()];
        let t = Instant::now();
        client.update(i.is_multiple_of(2), u, v).map_err(|e| format!("UPDATE probe: {e}"))?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(times)
}

/// Round trips of `ops` `RELOAD <path>`s with no other traffic.
pub fn probe_reloads(
    addr: std::net::SocketAddr,
    path: &str,
    ops: usize,
) -> Result<Vec<f64>, String> {
    let mut client = hcl_server::Client::connect(addr).map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for _ in 0..ops {
        let t = Instant::now();
        client.reload(path, None).map_err(|e| format!("RELOAD probe: {e}"))?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(times)
}

/// Writes the reference (unsharded) index as one packed file.
pub fn pack_reference(prepared: &Prepared, scratch: &Scratch) -> Result<String, String> {
    let path = scratch.path("full.hclx");
    let reference = &prepared.references[0];
    hcl_store::save_packed(reference.labelling(), reference.sparse_view(), &path)
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

/// The closed-loop traffic of one run, with its measured-window figures.
pub struct Traffic {
    pub log: Log,
    pub query: stats::Windowed,
    pub batch: stats::Windowed,
    /// Distances answered per second: the median second of the window.
    pub throughput: f64,
    pub reload_ms: Vec<f64>,
    pub update_adds_ms: Vec<f64>,
    pub update_dels_ms: Vec<f64>,
    /// Steal share of each one-second window.
    pub window_steal: Vec<f64>,
    pub windows_kept: usize,
    pub slices_kept: usize,
}

/// Drives the workload's stream against the prepared stack: `WARMUP`,
/// then `args.seconds` of measured traffic in `SEGMENTS` parts.
///
/// `RELOAD` and `UPDATE` figures come from the traffic where the workload
/// has the operation. Otherwise `PROBE_OPS` round trips run, a slice after
/// each part, against side servers that carry no traffic: an
/// in-memory one for `UPDATE`, a packed one that reloads the unsharded
/// index for `RELOAD`. Spread over the run, the probes sample all of it,
/// not one moment.
pub fn traffic(args: &Args, prepared: &Prepared, scratch: &Scratch) -> Result<Traffic, String> {
    let setup = &prepared.setup;
    let deploy_dir = scratch.path("deploy");
    let target = Target {
        addr: setup.stack.addr,
        reload_dir: args.workload.routed().then_some(deploy_dir.as_str()),
        edits: &prepared.edits,
    };
    let serve = |index| stack::serve(index).map_err(|e| format!("probe server: {e}"));
    let update_side = match args.workload {
        Workload::UpdateMix => None,
        _ => Some(serve(ServingIndex::Memory(prepared.references[0].clone()))?),
    };
    let reload_side = match args.workload {
        Workload::ZipfRoutedPacked => None,
        _ => {
            let path = pack_reference(prepared, scratch)?;
            let oracle = PackedOracle::open(&path).map_err(|e| format!("{path}: {e}"))?;
            Some((serve(ServingIndex::Packed(oracle))?, path))
        }
    };

    let n = setup.instance.num_vertices();
    let mut stream = Stream::new(args.workload, n, &prepared.edits, args.seed);
    let segments = SEGMENTS.min(args.seconds);
    let probe_ops = (PROBE_OPS / segments as usize / 2 * 2).max(2);
    let sampler = provenance::StealSampler::start();
    let mut log = Log::default();
    let (mut query, mut batch) = (Vec::new(), Vec::new());
    let mut per_second = vec![0.0; args.seconds as usize];
    let mut window_start = Vec::new();
    // In-traffic `RELOAD`/`UPDATE` round trips: (offset into the measured
    // time, `None` in the warm-up; ms; is an `ADD`).
    let mut lifecycle = Vec::new();
    let mut updates_seen = 0;
    // Probe slices: when, reload round trips, update round trips.
    let mut slices = Vec::new();
    let mut measured_ns = 0;
    for k in 0..segments {
        let seconds = args.seconds * (k + 1) / segments - args.seconds * k / segments;
        let warmup = if k == 0 { WARMUP } else { Duration::ZERO };
        let epoch = Instant::now();
        window_start.extend((0..seconds).map(|s| epoch + warmup + Duration::from_secs(s)));
        let deadline = epoch + warmup + Duration::from_secs(seconds);
        let part = wire::drive(&target, WINDOW, epoch, Some(deadline), log.version, || {
            Some(stream.next_op())
        })
        .map_err(|e| format!("load: {e}"))?;
        // Offsets into the measured time, so windows run on across parts.
        let from = warmup.as_nanos() as u64;
        let until = from + seconds * 1_000_000_000;
        for r in &part.records {
            let is_add = r.kind == Kind::Update && updates_seen % 2 == 0;
            updates_seen += (r.kind == Kind::Update) as usize;
            let measured = r.end_ns >= from && r.end_ns < until;
            if r.ok && !measured && matches!(r.kind, Kind::Reload | Kind::Update) {
                lifecycle.push((None, r.latency_ns() as f64 / 1e6, is_add));
            }
            if !r.ok || !measured {
                continue;
            }
            let at = measured_ns + r.end_ns - from;
            let distances = match r.kind {
                Kind::Query => {
                    query.push((at, r.latency_ns()));
                    1.0
                }
                Kind::Batch => {
                    batch.push((at, r.latency_ns()));
                    workload::BATCH_PAIRS as f64
                }
                Kind::Reload | Kind::Update => {
                    lifecycle.push((Some(at), r.latency_ns() as f64 / 1e6, is_add));
                    0.0
                }
            };
            per_second[(at / 1_000_000_000) as usize] += distances;
        }
        measured_ns += seconds * 1_000_000_000;
        log.absorb(part);
        let started = Instant::now();
        let updates = match &update_side {
            Some(server) => probe_updates(server.local_addr(), &prepared.edits, probe_ops)?,
            None => Vec::new(),
        };
        let reloads = match &reload_side {
            Some((server, path)) => probe_reloads(server.local_addr(), path, probe_ops)?,
            None => Vec::new(),
        };
        slices.push((started, Instant::now(), reloads, updates));
    }
    let steal = sampler.finish();

    // Seconds and probe slices during which the hypervisor stole more than
    // `STEAL_LIMIT` of the CPU are left out (at most half of them).
    let window_steal: Vec<f64> =
        window_start.iter().map(|&s| steal.share(s, s + Duration::from_secs(1))).collect();
    let keep = stats::calm(&window_steal, STEAL_LIMIT);
    let slice_steal: Vec<f64> = slices.iter().map(|(a, b, ..)| steal.share(*a, *b)).collect();
    let keep_slice = stats::calm(&slice_steal, STEAL_LIMIT);
    // In-traffic round trips from the kept seconds, or all of them, warm-up
    // included, when those hold no `RELOAD`, or no `ADD` or `DEL` (short
    // runs).
    let calm: Vec<_> = lifecycle
        .iter()
        .filter(|(at, ..)| at.is_some_and(|at| keep[(at / 1_000_000_000) as usize]))
        .collect();
    let has = |add: bool| calm.iter().any(|l| l.2 == add);
    let complete = match args.workload {
        Workload::UpdateMix => has(true) && has(false),
        _ => !calm.is_empty(),
    };
    let chosen: Vec<_> = if complete { calm } else { lifecycle.iter().collect() };
    let (mut reload_ms, mut adds, mut dels) = (Vec::new(), Vec::new(), Vec::new());
    for &&(_, ms, is_add) in &chosen {
        match (args.workload, is_add) {
            (Workload::ZipfRoutedPacked, _) => reload_ms.push(ms),
            (_, true) => adds.push(ms),
            (_, false) => dels.push(ms),
        }
    }
    for ((_, _, reloads, updates), _) in slices.iter().zip(&keep_slice).filter(|(_, &k)| k) {
        reload_ms.extend(reloads);
        adds.extend(updates.iter().step_by(2));
        dels.extend(updates.iter().skip(1).step_by(2));
    }
    let calm_seconds: Vec<f64> =
        per_second.iter().zip(&keep).filter(|(_, &k)| k).map(|(&d, _)| d).collect();
    Ok(Traffic {
        query: stats::windowed(&query, &keep),
        batch: stats::windowed(&batch, &keep),
        throughput: stats::median(&calm_seconds),
        log,
        reload_ms,
        update_adds_ms: adds,
        update_dels_ms: dels,
        window_steal,
        windows_kept: keep.iter().filter(|&&k| k).count(),
        slices_kept: keep_slice.iter().filter(|&&k| k).count(),
    })
}

fn end_to_end(args: &Args, scratch: &Scratch) -> Result<Outcome, String> {
    let started = Instant::now();
    let prepared = prepare(args, scratch, SETUPS)?;
    let prepare_s = started.elapsed().as_secs_f64();
    let setup = &prepared.setup;
    let traffic_started = Instant::now();
    let traffic = traffic(args, &prepared, scratch)?;
    let traffic_s = traffic_started.elapsed().as_secs_f64();
    let Traffic { log, query, batch, throughput, reload_ms, .. } = &traffic;
    let (adds, dels) = (&traffic.update_adds_ms, &traffic.update_dels_ms);
    if reload_ms.is_empty() || adds.is_empty() || dels.is_empty() {
        return Err("no successful RELOAD/UPDATE round trip to report".into());
    }
    let index_mb = index_bytes(&setup.stack, args.workload.routed())? / 1e6;
    let verify_started = Instant::now();
    let checked = verify::check(&log.answers, &prepared.references);
    let correct = checked.is_ok();
    let verify_s = verify_started.elapsed().as_secs_f64();

    let failed = log.failed();
    let ok_ratio = 1.0 - failed as f64 / log.attempted.max(1) as f64;
    let metrics = vec![
        metric("setup_s", stats::median(&prepared.setup_seconds), "s"),
        metric("throughput_qps", *throughput, "1/s"),
        metric("query_p50_us", query.p50 / 1e3, "us"),
        metric("query_p99_us", query.p99 / 1e3, "us"),
        metric("batch_p50_us", batch.p50 / 1e3, "us"),
        metric("batch_p95_us", batch.p95 / 1e3, "us"),
        metric("reload_ms", stats::median(reload_ms), "ms"),
        metric("update_ms", add_del_ms(adds, dels), "ms"),
        metric("ok_ratio", ok_ratio, "ratio"),
        metric("index_mb", index_mb, "MB"),
    ];
    let mut details = vec![
        ("setup_s_each".to_string(), format!("{:?}", prepared.setup_seconds)),
        ("setup_steps_ms".to_string(), format!("{:?}", setup.steps)),
        ("query_samples".to_string(), query.samples.to_string()),
        ("query_min_window_samples".to_string(), query.min_window_samples.to_string()),
        ("batch_samples".to_string(), batch.samples.to_string()),
        ("batch_min_window_samples".to_string(), batch.min_window_samples.to_string()),
        ("windows_kept".to_string(), format!("{} of {}", traffic.windows_kept, args.seconds)),
        ("window_steal".to_string(), format!("{:.4?}", traffic.window_steal)),
        ("probe_slices_kept".to_string(), traffic.slices_kept.to_string()),
        ("reload_samples".to_string(), reload_ms.len().to_string()),
        ("update_samples".to_string(), (adds.len() + dels.len()).to_string()),
        ("error_ratio".to_string(), (failed as f64 / log.attempted.max(1) as f64).to_string()),
        ("refused".to_string(), log.refused.to_string()),
        ("degraded".to_string(), log.degraded.to_string()),
        ("disconnected".to_string(), log.disconnected.to_string()),
        ("answers_checked".to_string(), log.answers.len().to_string()),
        (
            "phase_seconds".to_string(),
            format!("prepare {prepare_s:.2}, traffic {traffic_s:.2}, verify {verify_s:.2}"),
        ),
    ];
    if let Some(e) = &log.first_error {
        details.push(("first_error".to_string(), e.clone()));
    }
    if let Err(e) = checked {
        details.push(("correctness".to_string(), e));
    }
    Ok(Outcome { correct, attempted: log.attempted, failed, metrics, details })
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let cpu_before = CpuTimes::now();
    let scratch = Scratch::create()?;
    let outcome =
        if args.trace { trace::run(&args, &scratch)? } else { end_to_end(&args, &scratch)? };
    drop(scratch);
    let steal = CpuTimes::now().steal_share_since(&cpu_before);

    let mut provenance = vec![
        ("workload".to_string(), args.workload.name().to_string()),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), args.trace.to_string()),
        ("git_rev".to_string(), provenance::git_rev()),
        ("nproc".to_string(), provenance::nproc().to_string()),
        ("steal_share".to_string(), steal.to_string()),
        ("window".to_string(), WINDOW.to_string()),
    ];
    provenance.extend(outcome.details);
    let fields: Vec<String> =
        provenance.iter().map(|(k, v)| format!("{}: {}", json_string(k), json_string(v))).collect();
    println!("{{\"provenance\": {{{}}}}}", fields.join(", "));
    for m in &outcome.metrics {
        eprintln!("{:<36} {:>16} {}", m.name, json_number(m.value), m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("servebench: {e}");
        std::process::exit(1);
    }
}

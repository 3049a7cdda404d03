//! The traced run (`--trace 1`): the workload's request sequence replayed
//! at each layer's public entry point, innermost first, with every span
//! recorded from outside the program.
//!
//! | layer | entry point replayed | span of one request |
//! |---|---|---|
//! | `hcl-graph` + `hcl-core` | `storage::upper_bound_on` / `distance_on` over `MemIndex` | its pairs that missed the cache |
//! | `hcl-store` | the same over the packed `IndexView` | its pairs that missed the cache |
//! | `QueryService` | `QueryService::distance`, pair by pair | all its pairs |
//! | `BatchExecutor` | `submit_query` / `submit`, closed loop of `WINDOW` | submit → callback |
//! | `transport` | `Server::bind` over loopback, closed loop of `WINDOW` | wire round trip |
//! | `hcl-router` | `Router::bind` over the packed shards, closed loop | wire round trip |
//!
//! Below the router a request becomes one sub-request per shard it
//! touches (`PartitionMap::route`, `aggregate::split_batch`), replayed on
//! every shard at once; a request's span at such a layer is the slowest of
//! its sub-requests. A layer's self time is its span minus the span of the
//! layer it calls, on the same request.
//!
//! Every layer is replayed on every workload. The accounting check sums
//! only the layers on the workload's own path; `hcl-store` and
//! `hcl-router` are on it only for `zipf-routed-packed`.

use crate::stack::{self, Stack, CACHE_ENTRIES, WORKERS_PER_SERVER};
use crate::stats::{median, percentile, sorted};
use crate::wire::{self, Answer, Target, UNREACHABLE};
use crate::workload::{Op, Stream};
use crate::{metric, Args, Metric, Outcome, Prepared, Scratch, WINDOW};
use hcl_core::storage::{distance_on, upper_bound_on};
use hcl_core::update::apply_edit;
use hcl_core::{
    EdgeEdit, LabelStorage, MemIndex, PairFilter, PartitionMap, QueryContext, ShardRoute,
    SharedOracle, SparseNeighbors, SparseView,
};
use hcl_server::batch::DEFAULT_MAX_PENDING;
use hcl_server::{
    BatchExecutor, CacheConfig, QueryError, QueryService, ServingIndex, ShardedCache,
};
use hcl_store::PackedOracle;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Reads replayed unrecorded first at every layer (cache fill).
const REPLAY_WARM: u64 = 8_192;
/// Reads replayed and recorded at every layer.
const REPLAY_READS: u64 = 16_384;
/// How far the on-path self times may sum from the untraced end-to-end
/// p50, as a share of it.
const ACCOUNTING_TOLERANCE: f64 = 0.25;
/// Repetitions of each timed lifecycle step.
const LIFECYCLE_REPS: usize = 10;

/// Layer names, innermost first; indices into a request's self times.
const LAYERS: [&str; 6] = ["core", "store", "service", "executor", "transport", "router"];
const CORE: usize = 0;
const STORE: usize = 1;
const SERVICE: usize = 2;
const EXECUTOR: usize = 3;
const TRANSPORT: usize = 4;
const ROUTER: usize = 5;

/// The replayed sequence: the first reads of the workload's stream, with
/// the lifecycle requests that fall between them.
struct Replay {
    ops: Vec<Op>,
    /// Recorded reads, as indices into `ops`.
    reads: Vec<usize>,
}

impl Replay {
    fn new(args: &Args, n: usize, edits: &[(u32, u32)]) -> Replay {
        let mut stream = Stream::new(args.workload, n, edits, args.seed);
        let mut ops = Vec::new();
        let mut reads = Vec::new();
        let mut seen = 0;
        while seen < REPLAY_WARM + REPLAY_READS {
            let op = stream.next_op();
            if op.is_read() {
                if seen >= REPLAY_WARM {
                    reads.push(ops.len());
                }
                seen += 1;
            }
            ops.push(op);
        }
        Replay { ops, reads }
    }

    fn recorded(&self, op: usize) -> bool {
        op >= self.reads[0]
    }
}

/// Per-request span of one layer, by op index (`NaN`: not recorded).
type Spans = Vec<f64>;

/// One server of a layout: the requests it receives (tagged with the op
/// index of the client request they serve), and its index.
struct ServerPlan {
    subs: Vec<(usize, Op)>,
    /// Its packed index file, also what a `RELOAD` on it loads.
    packed_path: String,
    /// The in-memory twin of its index: the `hcl-core` layer.
    mem: SharedOracle,
    /// Whether the deployment serves the packed file (else `mem`).
    serve_packed: bool,
}

impl ServerPlan {
    fn index(&self) -> Result<ServingIndex, String> {
        Ok(if self.serve_packed {
            let oracle = PackedOracle::open(&self.packed_path)
                .map_err(|e| format!("{}: {e}", self.packed_path))?;
            ServingIndex::Packed(oracle)
        } else {
            ServingIndex::Memory(self.mem.clone())
        })
    }

    fn recorded_pairs(&self, replay: &Replay) -> Vec<(u32, u32)> {
        self.subs
            .iter()
            .filter(|(i, op)| op.is_read() && replay.recorded(*i))
            .flat_map(|(_, op)| op.pairs().iter().copied())
            .collect()
    }
}

/// Splits the replay into per-shard sub-streams the way the router does.
/// Shards serve packed files, which refuse `UPDATE`, so updates are left
/// out (the routed workload has none).
fn shard_subs(replay: &Replay, map: &PartitionMap) -> Vec<Vec<(usize, Op)>> {
    let mut subs = vec![Vec::new(); map.num_shards() as usize];
    for (i, op) in replay.ops.iter().enumerate() {
        match op {
            Op::Query((s, t)) => match map.route(*s, *t) {
                ShardRoute::Single(a) => subs[a as usize].push((i, op.clone())),
                ShardRoute::Scatter(a, b) => {
                    subs[a as usize].push((i, op.clone()));
                    subs[b as usize].push((i, op.clone()));
                }
            },
            Op::Batch(pairs) => {
                for slice in hcl_router::aggregate::split_batch(map, pairs) {
                    subs[slice.shard as usize].push((i, Op::Batch(slice.pairs)));
                }
            }
            Op::Reload => subs.iter_mut().for_each(|s| s.push((i, Op::Reload))),
            Op::Update { .. } => {}
        }
    }
    subs
}

/// Per-pair timings of one index backend.
struct IndexPass {
    bound_ns: Vec<f64>,
    query_ns: Vec<f64>,
    bound: Vec<u32>,
    distance: Vec<u32>,
    searched: Vec<bool>,
}

fn index_pass<S: LabelStorage + SparseNeighbors + ?Sized>(
    index: &S,
    pairs: &[(u32, u32)],
) -> IndexPass {
    let mut ctx = QueryContext::new(index.num_vertices());
    for &(s, t) in pairs.iter().take(2048) {
        black_box(distance_on(index, &mut ctx, s, t));
    }
    let mut pass = IndexPass {
        bound_ns: Vec::with_capacity(pairs.len()),
        query_ns: Vec::with_capacity(pairs.len()),
        bound: Vec::with_capacity(pairs.len()),
        distance: Vec::with_capacity(pairs.len()),
        searched: Vec::with_capacity(pairs.len()),
    };
    for &(s, t) in pairs {
        let t0 = Instant::now();
        let bound = black_box(upper_bound_on(index, &mut ctx, s, t));
        let t1 = Instant::now();
        let d = black_box(distance_on(index, &mut ctx, s, t));
        let t2 = Instant::now();
        pass.bound_ns.push((t1 - t0).as_nanos() as f64);
        pass.query_ns.push((t2 - t1).as_nanos() as f64);
        pass.bound.push(bound);
        pass.distance.push(d.unwrap_or(UNREACHABLE));
        pass.searched.push(s != t && !index.is_landmark(s) && !index.is_landmark(t));
    }
    pass
}

fn edge_edit(add: bool, (u, v): (u32, u32)) -> EdgeEdit {
    if add {
        EdgeEdit::Add(u, v)
    } else {
        EdgeEdit::Delete(u, v)
    }
}

/// Applies a lifecycle request at the in-process layers; returns the graph
/// version reads see next.
fn apply_lifecycle(
    service: &QueryService,
    op: &Op,
    reload_path: &str,
    edits: &[(u32, u32)],
    version: u8,
) -> Result<u8, String> {
    match *op {
        Op::Reload => {
            service
                .reload_from_paths(reload_path, None, 0)
                .map_err(|e| format!("service reload: {e}"))?;
            Ok(version)
        }
        Op::Update { add, edit } => {
            service
                .apply_update(edge_edit(add, edits[edit]))
                .map_err(|e| format!("service update: {e}"))?;
            Ok(if add { edit as u8 + 1 } else { 0 })
        }
        _ => Ok(version),
    }
}

struct ServicePass {
    op_ns: Spans,
    /// Per recorded pair, in `recorded_pairs` order.
    pair_hit: Vec<bool>,
    pair_ns: Vec<f64>,
    answers: Vec<Answer>,
    evictions: u64,
    stale: u64,
}

fn service_pass(
    service: &QueryService,
    plan: &ServerPlan,
    replay: &Replay,
    edits: &[(u32, u32)],
) -> Result<ServicePass, String> {
    let mut pass = ServicePass {
        op_ns: vec![f64::NAN; replay.ops.len()],
        pair_hit: Vec::new(),
        pair_ns: Vec::new(),
        answers: Vec::new(),
        evictions: 0,
        stale: 0,
    };
    let mut version = 0u8;
    let mut before = None;
    for (i, op) in &plan.subs {
        if !op.is_read() {
            version = apply_lifecycle(service, op, &plan.packed_path, edits, version)?;
            continue;
        }
        let recorded = replay.recorded(*i);
        if recorded && before.is_none() {
            before = Some(service.cache_stats());
        }
        let mut total = 0.0;
        for &(s, t) in op.pairs() {
            let hits = service.cache_stats().hits;
            let t0 = Instant::now();
            let d = service.distance(s, t).map_err(|e| format!("service: {e}"))?;
            let ns = t0.elapsed().as_nanos() as f64;
            total += ns;
            if recorded {
                pass.pair_hit.push(service.cache_stats().hits > hits);
                pass.pair_ns.push(ns);
                let got = d.unwrap_or(UNREACHABLE);
                pass.answers.push(Answer { s, t, version, got, bound_only: false });
            }
        }
        if recorded {
            pass.op_ns[*i] = total;
        }
    }
    let after = service.cache_stats();
    let before = before.unwrap_or(after);
    pass.evictions = after.evictions - before.evictions;
    pass.stale = after.stale - before.stale;
    Ok(pass)
}

struct ExecutorPass {
    op_ns: Spans,
    answers: Vec<Answer>,
    queued_max: usize,
    shed: u64,
}

/// An executor completion: op index, when, and the distances.
type Done = (usize, Instant, Result<Vec<Option<u32>>, QueryError>);

fn executor_pass(
    service: Arc<QueryService>,
    plan: &ServerPlan,
    replay: &Replay,
    edits: &[(u32, u32)],
) -> Result<ExecutorPass, String> {
    let executor = BatchExecutor::with_queue_cap(
        Arc::clone(&service),
        WORKERS_PER_SERVER,
        DEFAULT_MAX_PENDING,
    );
    let (tx, rx) = mpsc::channel::<Done>();
    let mut pass = ExecutorPass {
        op_ns: vec![f64::NAN; replay.ops.len()],
        answers: Vec::new(),
        queued_max: 0,
        shed: 0,
    };
    // Submission time and graph version, by position in `plan.subs`.
    let mut started: Vec<Option<(Instant, u8)>> = vec![None; plan.subs.len()];
    let mut in_flight = 0usize;
    let mut version = 0u8;
    for (k, (_, op)) in plan.subs.iter().enumerate() {
        if !op.is_read() {
            while in_flight > 0 {
                complete(&rx, plan, replay, &mut started, &mut pass)?;
                in_flight -= 1;
            }
            version = apply_lifecycle(&service, op, &plan.packed_path, edits, version)?;
            continue;
        }
        while in_flight >= WINDOW {
            complete(&rx, plan, replay, &mut started, &mut pass)?;
            in_flight -= 1;
        }
        let tx = tx.clone();
        started[k] = Some((Instant::now(), version));
        let submitted = match op {
            Op::Query((s, t)) => executor.submit_query(
                *s,
                *t,
                Box::new(move |r| {
                    let _ = tx.send((k, Instant::now(), r.map(|d| vec![d])));
                }),
            ),
            Op::Batch(pairs) => executor.submit(
                pairs.clone(),
                Box::new(move |r| {
                    let _ = tx.send((k, Instant::now(), r));
                }),
            ),
            Op::Reload | Op::Update { .. } => unreachable!("lifecycle ops handled above"),
        };
        submitted.map_err(|e| format!("executor refused a request: {e}"))?;
        in_flight += 1;
        pass.queued_max = pass.queued_max.max(executor.queued());
    }
    while in_flight > 0 {
        complete(&rx, plan, replay, &mut started, &mut pass)?;
        in_flight -= 1;
    }
    pass.shed = service.metrics().shed_requests.load(Ordering::Relaxed);
    Ok(pass)
}

/// Waits for one executor completion and records it.
fn complete(
    rx: &mpsc::Receiver<Done>,
    plan: &ServerPlan,
    replay: &Replay,
    started: &mut [Option<(Instant, u8)>],
    pass: &mut ExecutorPass,
) -> Result<(), String> {
    let (k, end, result) = rx.recv().map_err(|_| "executor dropped a completion")?;
    let (start, version) = started[k].take().expect("completion of a submitted request");
    let distances = result.map_err(|e| format!("executor: {e}"))?;
    let (i, op) = &plan.subs[k];
    if replay.recorded(*i) {
        pass.op_ns[*i] = (end - start).as_nanos() as f64;
        for (&(s, t), d) in op.pairs().iter().zip(distances) {
            let got = d.unwrap_or(UNREACHABLE);
            pass.answers.push(Answer { s, t, version, got, bound_only: false });
        }
    }
    Ok(())
}

struct WirePass {
    op_ns: Spans,
    log: wire::Log,
}

/// Replays `subs` over one connection to `target`, closed loop of
/// `WINDOW`.
fn wire_pass(
    target: &Target<'_>,
    subs: &[(usize, Op)],
    replay: &Replay,
) -> Result<WirePass, String> {
    let mut ops = subs.iter().map(|(_, op)| op.clone());
    let log = wire::drive(target, WINDOW, Instant::now(), None, 0, || ops.next())
        .map_err(|e| format!("wire replay: {e}"))?;
    if log.failed() > 0 {
        return Err(format!("wire replay failed: {:?}", log.first_error));
    }
    let mut op_ns = vec![f64::NAN; replay.ops.len()];
    for (record, (i, _)) in log.records.iter().zip(subs) {
        if replay.recorded(*i) {
            op_ns[*i] = record.latency_ns() as f64;
        }
    }
    Ok(WirePass { op_ns, log })
}

/// Everything one server's replay recorded, innermost layer first.
struct ServerTrace {
    mem: IndexPass,
    packed: IndexPass,
    pairs: Vec<(u32, u32)>,
    svc: ServicePass,
    exec: ExecutorPass,
    wire: WirePass,
    /// Per request: its cache-missing pairs' `hcl-core` time, and the
    /// same on the index the server actually serves.
    core_ns: Spans,
    index_ns: Spans,
}

/// Replays one server's sub-stream at every in-process layer and over the
/// wire to a fresh server of its own.
fn trace_server(
    plan: &ServerPlan,
    replay: &Replay,
    edits: &[(u32, u32)],
) -> Result<ServerTrace, String> {
    let pairs = plan.recorded_pairs(replay);
    let mem = index_pass(&MemIndex::new(plan.mem.labelling(), plan.mem.sparse_view()), &pairs);
    let full = PackedOracle::open(&plan.packed_path).map_err(|e| e.to_string())?;
    let packed = index_pass(full.view(), &pairs);
    let service = QueryService::with_index(plan.index()?, CACHE_ENTRIES);
    let svc = service_pass(&service, plan, replay, edits)?;
    let service = Arc::new(QueryService::with_index(plan.index()?, CACHE_ENTRIES));
    let exec = executor_pass(service, plan, replay, edits)?;
    let wire = wire_over_fresh_server(plan, replay, edits)?;

    let mut core_ns = vec![f64::NAN; replay.ops.len()];
    let mut index_ns = vec![f64::NAN; replay.ops.len()];
    let path = if plan.serve_packed { &packed } else { &mem };
    let mut p = 0;
    for (i, op) in &plan.subs {
        if !(op.is_read() && replay.recorded(*i)) {
            continue;
        }
        let (mut core, mut index) = (0.0, 0.0);
        for _ in op.pairs() {
            if !svc.pair_hit[p] {
                core += mem.query_ns[p];
                index += path.query_ns[p];
            }
            p += 1;
        }
        core_ns[*i] = core;
        index_ns[*i] = index;
    }
    Ok(ServerTrace { mem, packed, pairs, svc, exec, wire, core_ns, index_ns })
}

fn wire_over_fresh_server(
    plan: &ServerPlan,
    replay: &Replay,
    edits: &[(u32, u32)],
) -> Result<WirePass, String> {
    let server = stack::serve(plan.index()?).map_err(|e| e.to_string())?;
    let target = Target { addr: server.local_addr(), reload_dir: Some(&plan.packed_path), edits };
    let pass = wire_pass(&target, &plan.subs, replay);
    server.shutdown();
    pass
}

/// Runs `f` for every server plan at once, one thread each (shards work
/// in parallel in the deployment too).
fn per_server<T: Send>(
    plans: &[ServerPlan],
    f: impl Fn(&ServerPlan) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = plans.iter().map(|plan| scope.spawn(|| f(plan))).collect();
        workers.into_iter().map(|w| w.join().expect("replay thread panicked")).collect()
    })
}

/// A request's span at a layer below the router: its slowest sub-request.
fn slowest(spans: impl Iterator<Item = Spans>, len: usize) -> Spans {
    let mut out = vec![f64::NAN; len];
    for s in spans {
        for (o, x) in out.iter_mut().zip(s) {
            if !x.is_nan() && (o.is_nan() || x > *o) {
                *o = x;
            }
        }
    }
    out
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn p50(xs: Vec<f64>) -> f64 {
    percentile(&sorted(xs), 0.5)
}

fn concat<T: Clone>(traces: &[ServerTrace], f: impl Fn(&ServerTrace) -> &[T]) -> Vec<T> {
    traces.iter().flat_map(|t| f(t).iter().cloned()).collect()
}

fn select(xs: &[f64], mask: &[bool], want: bool) -> Vec<f64> {
    xs.iter().zip(mask).filter(|(_, &m)| m == want).map(|(&x, _)| x).collect()
}

pub fn run(args: &Args, scratch: &Scratch) -> Result<Outcome, String> {
    let prepared = crate::prepare(args, scratch, 1)?;
    let reference = &prepared.references[0];
    let instance = &prepared.setup.instance;
    let n = instance.num_vertices();
    let routed = args.workload.routed();
    let map = instance.partition();
    let deploy_dir = scratch.path("deploy");
    let edits = &prepared.edits;

    // Untraced traffic on the workload's own stack first: the end-to-end
    // figures the layer self times must account for.
    let traffic = crate::traffic(args, &prepared, scratch)?;
    let mut answers = traffic.log.answers.clone();
    let mut attempted = traffic.log.attempted;
    let mut failed = traffic.log.failed();

    // Packed files the replays need: the unsharded index and, where the
    // workload does not deploy one, the sharded deployment.
    let t = Instant::now();
    let full_path = crate::pack_reference(&prepared, scratch)?;
    let pack_ms = ms_since(t);
    if !routed {
        hcl_store::write_packed_deployment(
            &deploy_dir,
            &instance.graph,
            &prepared.setup.labelling,
            &map,
        )
        .map_err(|e| format!("packed deployment: {e}"))?;
    }
    let t = Instant::now();
    black_box(SparseView::build(&instance.graph, reference.labelling().highway()));
    let sparsify_ms = ms_since(t);

    let replay = Replay::new(args, n, edits);
    let shard_plans: Vec<ServerPlan> = shard_subs(&replay, &map)
        .into_iter()
        .enumerate()
        .map(|(shard, subs)| {
            let graph = Arc::new(map.shard_graph(&instance.graph, shard as u32));
            let sparse = Arc::new(SparseView::build(&graph, reference.labelling().highway()));
            ServerPlan {
                subs,
                packed_path: hcl_core::partition::shard_packed_path(&deploy_dir, shard as u32),
                mem: SharedOracle::from_parts(graph, reference.labelling_arc(), sparse),
                serve_packed: true,
            }
        })
        .collect();
    let direct_plan = ServerPlan {
        subs: replay.ops.iter().cloned().enumerate().collect(),
        packed_path: full_path.clone(),
        mem: reference.clone(),
        serve_packed: false,
    };

    // Below the router, innermost first, on the workload's own path; for
    // the unsharded workloads the shards' wire round trips are replayed
    // too, as the router's inner layer.
    let path_plans = if routed { shard_plans } else { vec![direct_plan] };
    let traces = per_server(&path_plans, |plan| trace_server(plan, &replay, edits))?;
    let shard_wire: Spans = if routed {
        slowest(traces.iter().map(|t| t.wire.op_ns.clone()), replay.ops.len())
    } else {
        let plans: Vec<ServerPlan> = shard_subs(&replay, &map)
            .into_iter()
            .enumerate()
            .map(|(shard, subs)| ServerPlan {
                subs,
                packed_path: hcl_core::partition::shard_packed_path(&deploy_dir, shard as u32),
                mem: reference.clone(),
                serve_packed: true,
            })
            .collect();
        let wires = per_server(&plans, |plan| wire_over_fresh_server(plan, &replay, edits))?;
        slowest(wires.into_iter().map(|w| w.op_ns), replay.ops.len())
    };
    let routed_stack = Stack::routed(&deploy_dir, map.clone())?;
    let router = wire_pass(
        &Target { addr: routed_stack.addr, reload_dir: Some(&deploy_dir), edits },
        &replay
            .ops
            .iter()
            .cloned()
            .enumerate()
            .filter(|(_, op)| !matches!(op, Op::Update { .. }))
            .collect::<Vec<_>>(),
        &replay,
    )?;
    answers.extend_from_slice(&router.log.answers);
    attempted += router.log.attempted;
    for t in &traces {
        attempted += t.wire.log.attempted;
        failed += t.wire.log.failed();
        for a in t.wire.log.answers.iter().chain(&t.svc.answers).chain(&t.exec.answers) {
            let bound_only = routed && matches!(map.route(a.s, a.t), ShardRoute::Scatter(..));
            answers.push(Answer { bound_only, ..*a });
        }
    }

    // Request spans per layer, and self times.
    let len = replay.ops.len();
    let layer_spans: [Spans; 6] = [
        slowest(traces.iter().map(|t| t.core_ns.clone()), len),
        slowest(traces.iter().map(|t| t.index_ns.clone()), len),
        slowest(traces.iter().map(|t| t.svc.op_ns.clone()), len),
        slowest(traces.iter().map(|t| t.exec.op_ns.clone()), len),
        if routed { shard_wire.clone() } else { traces[0].wire.op_ns.clone() },
        router.op_ns.clone(),
    ];
    let mut spans = Vec::new();
    let self_ns: Vec<[f64; 6]> = replay
        .reads
        .iter()
        .map(|&i| {
            let mut own = [0.0; 6];
            for l in 0..6 {
                let span = layer_spans[l][i];
                let inner = match l {
                    CORE => 0.0,
                    ROUTER => shard_wire[i],
                    _ => layer_spans[l - 1][i],
                };
                own[l] = span - inner;
                spans.push((i, LAYERS[l], span));
            }
            own
        })
        .collect();

    // On-path accounting per request type.
    let on_path: &[usize] = if routed {
        &[CORE, STORE, SERVICE, EXECUTOR, TRANSPORT, ROUTER]
    } else {
        &[CORE, SERVICE, EXECUTOR, TRANSPORT]
    };
    let outer = if routed { ROUTER } else { TRANSPORT };
    let mut accounting = Vec::new();
    for (name, want_query) in [("query", true), ("batch", false)] {
        let of_kind: Vec<usize> = (0..replay.reads.len())
            .filter(|&k| matches!(replay.ops[replay.reads[k]], Op::Query(_)) == want_query)
            .collect();
        let per_layer: Vec<f64> =
            (0..6).map(|l| p50(of_kind.iter().map(|&k| self_ns[k][l]).collect()) / 1e3).collect();
        let sum_us: f64 = on_path.iter().map(|&l| per_layer[l]).sum();
        let traced_us =
            p50(of_kind.iter().map(|&k| layer_spans[outer][replay.reads[k]]).collect()) / 1e3;
        let untraced_us = if want_query { traffic.query.p50 } else { traffic.batch.p50 } / 1e3;
        accounting.push((name, sum_us, traced_us, untraced_us, per_layer));
    }

    let mut metrics: Vec<Metric> = Vec::new();
    let mem_query = concat(&traces, |t| &t.mem.query_ns);
    let path_pass = |f: fn(&IndexPass) -> &[f64]| -> Vec<f64> {
        concat(&traces, |t| f(if routed { &t.packed } else { &t.mem }))
    };
    let path_query = path_pass(|p| &p.query_ns);
    let path_bound = path_pass(|p| &p.bound_ns);
    let searched_mask = concat(&traces, |t| &t.mem.searched);
    let pairs = concat(&traces, |t| &t.pairs);

    // hcl-graph: the bounded search alone (query minus merge, same pair).
    let search: Vec<f64> =
        path_query.iter().zip(&path_bound).map(|(q, b)| (q - b).max(0.0)).collect();
    let searched = sorted(select(&search, &searched_mask, true));
    metrics.push(metric("graph.search_ns_p50", percentile(&searched, 0.5), "ns"));
    metrics.push(metric("graph.search_ns_p99", percentile(&searched, 0.99), "ns"));
    metrics.push(metric(
        "graph.searched_ratio",
        searched.len() as f64 / pairs.len() as f64,
        "ratio",
    ));

    // hcl-core.
    let bounds = concat(&traces, |t| &t.mem.bound);
    let distances = concat(&traces, |t| &t.mem.distance);
    let exact = bounds.iter().zip(&distances).filter(|(b, d)| b == d).count();
    let labels = reference.labelling().labels();
    let entries: usize = pairs
        .iter()
        .map(|&(s, t)| labels.label_lanes(s).0.len() + labels.label_lanes(t).0.len())
        .sum();
    let mem_bound = concat(&traces, |t| &t.mem.bound_ns);
    metrics.push(metric("core.merge_ns_p50", p50(path_bound.clone()), "ns"));
    metrics.push(metric("core.query_ns_p50", p50(mem_query.clone()), "ns"));
    metrics.push(metric("core.bound_exact_ratio", exact as f64 / pairs.len() as f64, "ratio"));
    metrics.push(metric(
        "core.label_entries_per_query",
        entries as f64 / pairs.len() as f64,
        "count",
    ));
    metrics.push(metric("core.build_ms", prepared.setup.steps.build_ms, "ms"));
    metrics.push(metric("core.sparsify_ms", sparsify_ms, "ms"));
    let cached_pairs: Vec<((u32, u32), u32)> =
        pairs.iter().copied().zip(distances.iter().copied()).collect();
    metrics.extend(edit_metrics(&prepared, &cached_pairs)?);

    // hcl-store.
    let reload_file = if routed {
        hcl_core::partition::shard_packed_path(&deploy_dir, 0)
    } else {
        full_path.clone()
    };
    let mut open_ms = Vec::new();
    for _ in 0..LIFECYCLE_REPS {
        let t = Instant::now();
        black_box(PackedOracle::open(&reload_file).map_err(|e| e.to_string())?);
        open_ms.push(ms_since(t));
    }
    let packed_query = concat(&traces, |t| &t.packed.query_ns);
    let packed_bound = concat(&traces, |t| &t.packed.bound_ns);
    let full = PackedOracle::open(&full_path).map_err(|e| e.to_string())?;
    metrics.push(metric("store.open_ms", median(&open_ms), "ms"));
    metrics.push(metric("store.query_ns_p50", p50(packed_query), "ns"));
    metrics.push(metric("store.decode_ns_p50", p50(packed_bound) - p50(mem_bound), "ns"));
    metrics.push(metric("store.pack_ms", pack_ms, "ms"));
    metrics.push(metric(
        "store.bytes_per_vertex",
        full.view().store_bytes() as f64 / n as f64,
        "B",
    ));

    // QueryService.
    let pair_ns = concat(&traces, |t| &t.svc.pair_ns);
    let pair_hit = concat(&traces, |t| &t.svc.pair_hit);
    let hit_ns = select(&pair_ns, &pair_hit, true);
    let miss_ns = select(&pair_ns, &pair_hit, false);
    let hits = hit_ns.len() as f64;
    metrics.push(metric(
        "service.hit_ns_p50",
        if hit_ns.is_empty() { 0.0 } else { p50(hit_ns) },
        "ns",
    ));
    metrics.push(metric("service.miss_ns_p50", p50(miss_ns), "ns"));
    metrics.push(metric("service.cache_hit_ratio", hits / pair_hit.len() as f64, "ratio"));
    let evictions: u64 = traces.iter().map(|t| t.svc.evictions).sum();
    let stale: u64 = traces.iter().map(|t| t.svc.stale).sum();
    metrics.push(metric("service.cache_evictions", evictions as f64, "count"));
    metrics.push(metric("service.cache_stale", stale as f64, "count"));
    metrics.extend(service_lifecycle_metrics(&prepared, &cached_pairs, &reload_file)?);

    // BatchExecutor and transport.
    let (q, b) = (&accounting[0].4, &accounting[1].4);
    metrics.push(metric("executor.query_overhead_us", q[EXECUTOR], "us"));
    metrics.push(metric("executor.batch_overhead_us", b[EXECUTOR], "us"));
    let queued_max = traces.iter().map(|t| t.exec.queued_max).max().unwrap_or(0);
    let shed: u64 = traces.iter().map(|t| t.exec.shed).sum();
    metrics.push(metric("executor.queued_max", queued_max as f64, "count"));
    metrics.push(metric("executor.shed", shed as f64, "count"));
    metrics.push(metric("transport.query_overhead_us", q[TRANSPORT], "us"));
    metrics.push(metric("transport.batch_overhead_us", b[TRANSPORT], "us"));
    let wire_bytes: u64 =
        traces.iter().map(|t| t.wire.log.request_bytes + t.wire.log.response_bytes).sum();
    let wire_distances: usize = traces.iter().map(|t| t.wire.log.answers.len()).sum();
    metrics.push(metric(
        "transport.bytes_per_query",
        wire_bytes as f64 / wire_distances.max(1) as f64,
        "B",
    ));

    // hcl-router.
    let (mut single, mut scatter) = (Vec::new(), Vec::new());
    for (k, &i) in replay.reads.iter().enumerate() {
        if let Op::Query((s, t)) = replay.ops[i] {
            match map.route(s, t) {
                ShardRoute::Single(_) => single.push(self_ns[k][ROUTER] / 1e3),
                ShardRoute::Scatter(..) => scatter.push(self_ns[k][ROUTER] / 1e3),
            }
        }
    }
    let all_pairs: Vec<(u32, u32)> =
        replay.reads.iter().flat_map(|&i| replay.ops[i].pairs().iter().copied()).collect();
    let scattered = all_pairs
        .iter()
        .filter(|&&(s, t)| matches!(map.route(s, t), ShardRoute::Scatter(..)))
        .count();
    metrics.push(metric("router.single_owner_hop_us", p50(single), "us"));
    metrics.push(metric("router.scatter_hop_us", p50(scatter), "us"));
    metrics.push(metric(
        "router.scatter_ratio",
        scattered as f64 / all_pairs.len() as f64,
        "ratio",
    ));
    metrics.push(metric(
        "router.reload_fanout_ms",
        reload_fanout_ms(&routed_stack, &deploy_dir)?,
        "ms",
    ));
    let router_metrics = routed_stack.router.as_ref().expect("routed stack has a router").metrics();
    let counter = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed) as f64;
    metrics.push(metric("router.failovers", counter(&router_metrics.failovers), "count"));
    metrics.push(metric("router.errors", counter(&router_metrics.errors), "count"));
    drop(routed_stack);

    // The trace itself: accounting against the untraced run, and overhead.
    let mut table = String::new();
    let mut accounted = true;
    for (name, sum_us, traced_us, untraced_us, per_layer) in &accounting {
        let unaccounted = (sum_us - untraced_us).abs() / untraced_us;
        accounted &= unaccounted <= ACCOUNTING_TOLERANCE;
        metrics.push(metric(&format!("trace.{name}_unaccounted_ratio"), unaccounted, "ratio"));
        metrics.push(metric(&format!("trace.{name}_overhead_us"), traced_us - untraced_us, "us"));
        let _ = write!(table, "{name:<5} self p50 us:");
        for (l, us) in per_layer.iter().enumerate() {
            let mark = if on_path.contains(&l) { "" } else { "*" };
            let _ = write!(table, " {}{mark} {us:.1}", LAYERS[l]);
        }
        let _ = writeln!(
            table,
            " | on-path sum {sum_us:.1} vs untraced p50 {untraced_us:.1}: {:.1}% apart \
             (tolerance {:.0}%) | traced p50 {traced_us:.1}, tracing overhead {:.1}",
            unaccounted * 100.0,
            ACCOUNTING_TOLERANCE * 100.0,
            traced_us - untraced_us,
        );
    }
    let _ = writeln!(table, "(* = off this workload's path, replayed for its metrics only)");
    let spans_path = write_spans(args, &spans)?;

    let checked = crate::verify::check(&answers, &prepared.references);
    let mut details = vec![
        ("accounting_within_tolerance".to_string(), accounted.to_string()),
        ("accounting_tolerance".to_string(), ACCOUNTING_TOLERANCE.to_string()),
        ("replayed_reads".to_string(), replay.reads.len().to_string()),
        ("spans".to_string(), spans.len().to_string()),
        ("spans_file".to_string(), spans_path),
        ("untraced_query_p50_us".to_string(), (traffic.query.p50 / 1e3).to_string()),
        ("untraced_batch_p50_us".to_string(), (traffic.batch.p50 / 1e3).to_string()),
        ("answers_checked".to_string(), answers.len().to_string()),
    ];
    if let Err(e) = &checked {
        details.push(("correctness".to_string(), e.clone()));
    }
    print!("{table}");
    Ok(Outcome { correct: checked.is_ok(), attempted, failed, metrics, details })
}

/// `core.apply_edit_ms`, `core.pair_filter_ms`, `core.affected_vertices`
/// over the instance's edit set, and `service.retag_kept_ratio`: the share
/// of a full cache of replayed pairs that the retag after each edit keeps.
fn edit_metrics(
    prepared: &Prepared,
    cached_pairs: &[((u32, u32), u32)],
) -> Result<Vec<Metric>, String> {
    let reference = &prepared.references[0];
    let (mut apply_ms, mut filter_ms, mut affected, mut kept) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &edit in &prepared.edits {
        let t = Instant::now();
        let added = apply_edit(
            reference.graph(),
            reference.labelling(),
            reference.sparse_view(),
            edge_edit(true, edit),
        )
        .map_err(|e| format!("apply_edit: {e}"))?;
        apply_ms.push(ms_since(t));
        affected.push(added.affected_vertices as f64);
        let t = Instant::now();
        let filter = PairFilter::for_edit(reference.graph(), &added.graph, edge_edit(true, edit));
        filter_ms.push(ms_since(t));
        let cache =
            ShardedCache::new(CacheConfig { capacity: CACHE_ENTRIES, ..CacheConfig::default() });
        for &((s, t), d) in cached_pairs {
            cache.insert(s, t, 0, (d != UNREACHABLE).then_some(d));
        }
        let entries = cache.len().max(1) as f64;
        kept.push(cache.retag(0, 1, |s, t, d| filter.keeps(s, t, d)) as f64 / entries);
        let t = Instant::now();
        let deleted =
            apply_edit(&added.graph, &added.labelling, &added.sparse, edge_edit(false, edit))
                .map_err(|e| format!("apply_edit: {e}"))?;
        apply_ms.push(ms_since(t));
        affected.push(deleted.affected_vertices as f64);
        let t = Instant::now();
        black_box(PairFilter::for_edit(&added.graph, &deleted.graph, edge_edit(false, edit)));
        filter_ms.push(ms_since(t));
    }
    Ok(vec![
        metric("core.apply_edit_ms", crate::alternating_add_del_ms(&apply_ms), "ms"),
        metric("core.pair_filter_ms", crate::alternating_add_del_ms(&filter_ms), "ms"),
        metric("core.affected_vertices", median(&affected), "count"),
        metric("service.retag_kept_ratio", median(&kept), "ratio"),
    ])
}

/// `service.apply_update_ms` (in memory, cache full of replayed pairs) and
/// `service.reload_ms` (remapping the file a reload of this workload
/// opens).
fn service_lifecycle_metrics(
    prepared: &Prepared,
    cached_pairs: &[((u32, u32), u32)],
    reload_file: &str,
) -> Result<Vec<Metric>, String> {
    let service = QueryService::with_index(
        ServingIndex::Memory(prepared.references[0].clone()),
        CACHE_ENTRIES,
    );
    let cache = service.cache().expect("service built with a cache");
    for &((s, t), d) in cached_pairs {
        cache.insert(s, t, 0, (d != UNREACHABLE).then_some(d));
    }
    let mut update_ms = Vec::new();
    for &edit in &prepared.edits {
        for add in [true, false] {
            let t = Instant::now();
            service.apply_update(edge_edit(add, edit)).map_err(|e| format!("apply_update: {e}"))?;
            update_ms.push(ms_since(t));
        }
    }
    let mut reload_ms = Vec::new();
    for _ in 0..LIFECYCLE_REPS {
        let t = Instant::now();
        service.reload_from_paths(reload_file, None, 0).map_err(|e| format!("reload: {e}"))?;
        reload_ms.push(ms_since(t));
    }
    Ok(vec![
        metric("service.apply_update_ms", crate::alternating_add_del_ms(&update_ms), "ms"),
        metric("service.reload_ms", median(&reload_ms), "ms"),
    ])
}

/// Router `RELOAD <dir>` round trip minus a direct `RELOAD` of shard 0's
/// file on shard 0: what the fan-out and its confirmation add.
fn reload_fanout_ms(stack: &Stack, dir: &str) -> Result<f64, String> {
    let routed = crate::probe_reloads(stack.addr, dir, LIFECYCLE_REPS)?;
    let shard0 = hcl_core::partition::shard_packed_path(dir, 0);
    let direct = crate::probe_reloads(stack.servers[0].local_addr(), &shard0, LIFECYCLE_REPS)?;
    Ok(median(&routed) - median(&direct))
}

/// Writes the spans as TSV (`request layer ns`; one request's spans share
/// its id) under `.servebench/`; returns the path.
fn write_spans(args: &Args, spans: &[(usize, &str, f64)]) -> Result<String, String> {
    let path = format!(".servebench/spans-{}-seed{}.tsv", args.workload.name(), args.seed);
    let mut out = String::from("request\tlayer\tns\n");
    for (request, layer, ns) in spans {
        let _ = writeln!(out, "{request}\t{layer}\t{ns}");
    }
    std::fs::write(&path, out).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

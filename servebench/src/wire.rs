//! The closed-loop load generator: one connection, at most `window`
//! requests in flight, the next request sent only when a response frees a
//! slot. Responses come back in request order (docs/PROTOCOL.md), so the
//! in-flight queue is a FIFO.

use crate::workload::Op;
use hcl_graph::VertexId;
use hcl_server::protocol;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Query,
    Batch,
    Reload,
    Update,
}

/// One request's client-observed round trip, in nanoseconds since the
/// epoch `drive` was given.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
}

impl Record {
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// `got` of an unreachable pair.
pub const UNREACHABLE: u32 = u32::MAX;

/// One answered distance, kept for the correctness gate. `version` is the
/// graph version the answer must match: 0 for the base instance, `i + 1`
/// after `UPDATE ADD` of edit `i` was acknowledged.
#[derive(Clone, Copy, Debug)]
pub struct Answer {
    pub s: VertexId,
    pub t: VertexId,
    pub version: u8,
    pub got: u32,
    /// Only an upper bound is promised: one shard's answer to a pair the
    /// router scatters (the router's minimum over shards is exact).
    pub bound_only: bool,
}

#[derive(Debug, Default)]
pub struct Log {
    /// One record per request, in the order sent.
    pub records: Vec<Record>,
    pub answers: Vec<Answer>,
    pub attempted: u64,
    /// Reads answered `ERR` (refused or failed).
    pub refused: u64,
    /// Reads answered `DIST~`/`DISTS~` (an upper bound, not exact).
    pub degraded: u64,
    /// Requests lost to a closed connection.
    pub disconnected: u64,
    /// `RELOAD`/`UPDATE` answered with anything but success.
    pub lifecycle_failed: u64,
    pub request_bytes: u64,
    pub response_bytes: u64,
    pub first_error: Option<String>,
    /// Graph version after the last acknowledged `UPDATE`.
    pub version: u8,
}

impl Log {
    pub fn failed(&self) -> u64 {
        self.refused + self.degraded + self.disconnected + self.lifecycle_failed
    }

    fn error(&mut self, message: String) {
        self.first_error.get_or_insert(message);
    }

    /// Appends a later log of the same stream.
    pub fn absorb(&mut self, later: Log) {
        self.records.extend(later.records);
        self.answers.extend(later.answers);
        self.attempted += later.attempted;
        self.refused += later.refused;
        self.degraded += later.degraded;
        self.disconnected += later.disconnected;
        self.lifecycle_failed += later.lifecycle_failed;
        self.request_bytes += later.request_bytes;
        self.response_bytes += later.response_bytes;
        if let Some(e) = later.first_error {
            self.error(e);
        }
        self.version = later.version;
    }
}

/// Where the stream goes, and what lifecycle requests name.
pub struct Target<'a> {
    pub addr: SocketAddr,
    /// Deployment directory named by `RELOAD` (routed workload).
    pub reload_dir: Option<&'a str>,
    /// The instance's edit set, indexed by `Op::Update::edit`.
    pub edits: &'a [(VertexId, VertexId)],
}

fn encode(op: &Op, target: &Target<'_>, out: &mut String) {
    out.clear();
    match op {
        Op::Query((s, t)) => {
            let _ = writeln!(out, "QUERY {s} {t}");
        }
        Op::Batch(pairs) => {
            let _ = writeln!(out, "BATCH {}", pairs.len());
            for (s, t) in pairs {
                let _ = writeln!(out, "{s} {t}");
            }
        }
        Op::Reload => {
            let dir = target.reload_dir.expect("RELOAD needs a deployment directory");
            let _ = writeln!(out, "RELOAD {dir}");
        }
        Op::Update { add, edit } => {
            let (u, v) = target.edits[*edit];
            let _ = writeln!(out, "UPDATE {} {u} {v}", if *add { "ADD" } else { "DEL" });
        }
    }
}

/// Drives `next` against `target`, starting at graph `version`, until it
/// returns `None` or `deadline` passes, then drains. `UPDATE`s are sent
/// alone: the pipeline is drained before each and resumes after its
/// acknowledgement, so every read has exactly one graph version.
pub fn drive(
    target: &Target<'_>,
    window: usize,
    epoch: Instant,
    deadline: Option<Instant>,
    version: u8,
    mut next: impl FnMut() -> Option<Op>,
) -> io::Result<Log> {
    let stream = TcpStream::connect(target.addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let now_ns = || epoch.elapsed().as_nanos() as u64;

    let mut log = Log { version, ..Log::default() };
    let mut inflight: VecDeque<(Op, u64)> = VecDeque::with_capacity(window);
    let mut held: Option<Op> = None;
    let mut stopping = false;
    let mut request = String::new();
    let mut line = String::new();
    loop {
        while !stopping && inflight.len() < window {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                stopping = true;
                break;
            }
            let Some(op) = held.take().or_else(&mut next) else {
                stopping = true;
                break;
            };
            if matches!(op, Op::Update { .. }) && !inflight.is_empty() {
                held = Some(op);
                break;
            }
            encode(&op, target, &mut request);
            let start = now_ns();
            writer.write_all(request.as_bytes())?;
            log.attempted += 1;
            log.request_bytes += request.len() as u64;
            inflight.push_back((op, start));
            if held.is_none() && matches!(inflight.back(), Some((Op::Update { .. }, _))) {
                // Nothing else goes out until the edit is acknowledged.
                break;
            }
        }
        let Some((op, start)) = inflight.pop_front() else {
            if stopping {
                break;
            }
            continue;
        };
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            log.disconnected += 1 + inflight.len() as u64;
            log.error("server closed the connection".to_string());
            break;
        }
        let end = now_ns();
        log.response_bytes += line.len() as u64;
        let response = line.trim_end();
        let (kind, ok) = match &op {
            Op::Query((s, t)) => match protocol::parse_query_response_tagged(response) {
                Ok((_, true)) => {
                    log.degraded += 1;
                    (Kind::Query, false)
                }
                Ok((d, false)) => {
                    let got = d.unwrap_or(UNREACHABLE);
                    let version = log.version;
                    log.answers.push(Answer { s: *s, t: *t, version, got, bound_only: false });
                    (Kind::Query, true)
                }
                Err(e) => {
                    log.refused += 1;
                    log.error(format!("QUERY {s} {t}: {e}"));
                    (Kind::Query, false)
                }
            },
            Op::Batch(pairs) => {
                match protocol::parse_batch_response_tagged(response, pairs.len()) {
                    Ok((_, true)) => {
                        log.degraded += 1;
                        (Kind::Batch, false)
                    }
                    Ok((ds, false)) => {
                        for (&(s, t), d) in pairs.iter().zip(ds) {
                            log.answers.push(Answer {
                                s,
                                t,
                                version: log.version,
                                got: d.unwrap_or(UNREACHABLE),
                                bound_only: false,
                            });
                        }
                        (Kind::Batch, true)
                    }
                    Err(e) => {
                        log.refused += 1;
                        log.error(format!("BATCH: {e}"));
                        (Kind::Batch, false)
                    }
                }
            }
            Op::Reload => {
                let ok = protocol::parse_reload_response(response)
                    .map_err(|e| log.error(format!("RELOAD: {e}")))
                    .is_ok();
                (Kind::Reload, ok)
            }
            Op::Update { add, edit } => {
                let ok = protocol::parse_update_response(response)
                    .map_err(|e| log.error(format!("UPDATE: {e}")))
                    .is_ok();
                if ok {
                    log.version = if *add { *edit as u8 + 1 } else { 0 };
                }
                (Kind::Update, ok)
            }
        };
        if !ok && matches!(kind, Kind::Reload | Kind::Update) {
            log.lifecycle_failed += 1;
        }
        log.records.push(Record { kind, start_ns: start, end_ns: end, ok });
    }
    Ok(log)
}

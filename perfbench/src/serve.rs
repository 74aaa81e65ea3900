//! `serve-open`: independent clients hitting the `neursc_cli serve`
//! daemon, driven open-loop over loopback.
//!
//! Requests are due on a fixed schedule (`rate` per second) whatever the
//! daemon does, and each is timed from its due time, so a stall also
//! charges the requests queued behind it. In the open-loop phases each
//! connection (`nproc / 2` of them, at least one) has a sender thread,
//! which sleeps until a request is due, and a reader thread blocked on the
//! socket, which timestamps replies as they arrive. Saturation is closed
//! loop, one thread per connection.
//!
//! The request mix is an assumption, fixed by the seed, not a measured
//! log of this system:
//! - Each query is drawn from the pool with Zipf-like popularity,
//!   `P(rank i) ∝ i^-ZIPF_S`. Breslau et al., "Web Caching and Zipf-like
//!   Distributions: Evidence and Implications" (INFOCOM 1999), find web
//!   request popularity Zipf-like with exponents from 0.64 to 0.83
//!   across traces; `ZIPF_S` is 0.75, inside that range. The run prints
//!   the share of queries that repeat an earlier query of the run (the
//!   most a result cache could save).
//! - `estimate_batch` frames carry half the daemon's default batch size
//!   (`ServeConfig::max_batch`), and they are `1 / (1 + that size)` of
//!   the frames, so single frames and batch frames carry equal shares of
//!   the queries and both batcher paths are loaded alike.
//!
//! Phases: a warm-up; the reference rate, whose latencies are the
//! end-to-end latency metrics; then saturation, one daemon batch
//! (`ServeConfig::max_batch`) of requests in flight, whose completion
//! rate is `throughput_per_s`. Both phases run as `WINDOWS` consecutive
//! windows, and each metric is the median over the windows in which the
//! hypervisor stole the least CPU time (`least_stolen`), so a burst of
//! noise from other tenants of the host does not move it.
//! `REF_RATE` is less than a tenth of the saturation rate measured on a
//! 2-vCPU host (1300–1550 rps), so queueing stays rare at the reference
//! rate.
//! The traced run adds the rate ladder (`LADDER_BASE · 2^(k/16)` rps):
//! doubling until a rung fails, then bisection between the last pass and
//! that failure. A rung passes when every request is answered correctly,
//! the tail (by the tail rule) stays within `TAIL_LIMIT_MS`, and the
//! backlog does not grow (last-quarter median latency within twice the
//! first quarter's plus 2 ms); the highest passing rung is `serve.max_rps`.
//! The ladder is per-layer rather than end-to-end because on a shared
//! 2-core host its pass/fail edge moves by more than the bound between
//! runs of one seed.

use crate::gen::{self, GRAPH, MODEL};
use crate::stats;
use crate::trace::Trace;
use crate::{dur, least_stolen, median_setup, secs, with_steal, Outcome, RunCtx, WINDOWS};
use neursc_core::obs::span_with_ns;
use neursc_core::persist::load_model;
use neursc_core::GraphContext;
use neursc_graph::io::load_graph;
use neursc_graph::Graph;
use neursc_serve::client::{estimate_batch_request, estimate_request};
use neursc_serve::json::{self, Json};
use neursc_serve::server::ServeConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Reference rate, requests per second.
const REF_RATE: f64 = 100.0;
/// Shares of `--seconds`: the reference phase, the saturation phase, and
/// each ladder rung (traced run only).
const REF_SHARE: f64 = 0.6;
const SAT_SHARE: f64 = 0.3;
const RUNG_SHARE: f64 = 0.06;
const WARMUP_SECS: f64 = 0.5;
/// An upper bound on the saturation completion rate, used to size the
/// saturation plan.
const SAT_PLAN_RATE: f64 = 20_000.0;
/// Lowest ladder rung, requests per second.
const LADDER_BASE: f64 = 25.0;
/// Tail latency limit a ladder rung must meet.
const TAIL_LIMIT_MS: f64 = 25.0;
/// A rung stops sending once this many requests are outstanding (the
/// backlog is growing) — well below the daemon's queue bound, so nothing
/// is ever refused.
const MAX_OUTSTANDING: usize = 200;
/// Zipf exponent of query popularity (see the module docs).
const ZIPF_S: f64 = 0.75;
/// Interval between `stats` polls for the queue depth.
const POLL: Duration = Duration::from_millis(50);
/// How long a connection waits for outstanding replies after its last send.
const REPLY_GRACE: Duration = Duration::from_secs(5);
/// Ids at or above this are `stats` polls.
const POLL_ID: u64 = 1 << 40;
/// Set-ups per run: a daemon start takes milliseconds and varies with
/// the host's process start-up, so more of them than elsewhere.
const SETUP_REPS: usize = 21;

/// Shortest rung: enough requests at the lowest rate for the pass test.
const MIN_RUNG_SECS: f64 = 0.4;
/// Ladder rungs per doubling of the rate.
const RUNGS_PER_OCTAVE: u32 = 16;
/// Highest ladder rung index (`LADDER_BASE · 2^10` rps).
const MAX_RUNG: u32 = 10 * RUNGS_PER_OCTAVE;

/// A spawned daemon; killed on drop unless shut down cleanly.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn spawn(cli: &Path, dir: &Path, threads: usize) -> Result<Daemon, String> {
        let mut child = Command::new(cli)
            .arg("serve")
            .arg("--model")
            .arg(dir.join(MODEL))
            .arg("--data")
            .arg(dir.join(GRAPH))
            .args(["--listen", "127.0.0.1:0", "--threads", &threads.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(_) => line
                .trim()
                .strip_prefix("listening on ")
                .map(str::to_string),
            Err(_) => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon did not report its address: {line:?}"));
        };
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// Blocks until the daemon answers `probe` with an ok reply.
    fn wait_ready(&self, probe: &Graph) -> Result<(), String> {
        let reply = self.call(&estimate_request(0, probe))?;
        match reply.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(()),
            _ => Err(format!("first reply not ok: {}", reply.render())),
        }
    }

    /// One request/reply on a fresh connection.
    fn call(&self, frame: &str) -> Result<Json, String> {
        let mut s = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        s.write_all(format!("{frame}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut line = String::new();
        BufReader::new(s)
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        json::parse(&line).map_err(|e| format!("bad reply {line:?}: {e:?}"))
    }

    fn stats(&self) -> Result<Json, String> {
        let j = self.call("{\"verb\":\"stats\",\"id\":1}")?;
        j.get("stats")
            .cloned()
            .ok_or_else(|| "stats reply without stats".into())
    }

    /// `(VmHWM, VmRSS)` of the daemon, MB.
    fn memory_mb(&self) -> (f64, f64) {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|r| r.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
                .map_or(0.0, |kb| kb / 1024.0)
        };
        (field("VmHWM:"), field("VmRSS:"))
    }

    /// Drains the daemon with the `shutdown` verb and waits for its exit.
    fn shutdown(mut self) -> Result<(), String> {
        let _ = self.call("{\"verb\":\"shutdown\",\"id\":2}");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(st)) if st.success() => return Ok(()),
                Ok(Some(st)) => return Err(format!("daemon exited with {st}")),
                Ok(None) if Instant::now() < deadline => std::thread::sleep(POLL),
                _ => return Err("daemon did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The daemon's default batch size.
fn max_batch() -> usize {
    ServeConfig::default().max_batch
}

/// The seeded request mix: which pool queries each request carries.
struct Mix {
    rng: StdRng,
    cdf: Vec<f64>,
    perm: Vec<usize>,
    /// Queries per batch frame, and the share of frames that are batches.
    batch_queries: usize,
    batch_share: f64,
    /// Which pool queries were drawn so far, and the draws and repeats
    /// since the last [`Mix::take_counts`].
    seen: Vec<bool>,
    draws: usize,
    repeats: usize,
}

impl Mix {
    fn new(seed: u64, pool: usize) -> Mix {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x006d_6978);
        let weights: Vec<f64> = (1..=pool).map(|r| (r as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mut perm: Vec<usize> = (0..pool).collect();
        for i in (1..pool).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let batch_queries = (max_batch() / 2).max(2);
        Mix {
            rng,
            cdf,
            perm,
            batch_queries,
            batch_share: 1.0 / (1 + batch_queries) as f64,
            seen: vec![false; pool],
            draws: 0,
            repeats: 0,
        }
    }

    fn draw(&mut self) -> usize {
        let u: f64 = self.rng.gen();
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.perm.len() - 1);
        let q = self.perm[rank];
        self.draws += 1;
        self.repeats += usize::from(std::mem::replace(&mut self.seen[q], true));
        q
    }

    /// The queries of the next request: one, or a batch.
    fn next(&mut self) -> Vec<usize> {
        let n = if self.rng.gen_bool(self.batch_share) {
            self.batch_queries
        } else {
            1
        };
        (0..n).map(|_| self.draw()).collect()
    }

    /// Queries drawn, and how many of them repeat an earlier draw, since
    /// the last call.
    fn take_counts(&mut self) -> (usize, usize) {
        let c = (self.draws, self.repeats);
        (self.draws, self.repeats) = (0, 0);
        c
    }
}

/// One scheduled request.
struct Req {
    /// Offset of its due time from the phase start.
    due: Duration,
    queries: Vec<usize>,
}

/// The open-loop schedule of one phase: request `k` is due at `k / rate`.
fn schedule(rate: f64, seconds: f64) -> Vec<Duration> {
    let n = (rate * seconds).round().max(1.0) as usize;
    (0..n)
        .map(|k| Duration::from_secs_f64(k as f64 / rate))
        .collect()
}

/// Latency of a reply, timed from the request's due time (not its send
/// time), in ms.
fn latency_from_due(start: Instant, due: Duration, reply_at: Instant) -> f64 {
    reply_at
        .saturating_duration_since(start + due)
        .as_secs_f64()
        * 1e3
}

/// What one phase observed.
#[derive(Default)]
struct PhaseResult {
    /// Per request index: latency from due time (ms) and send lag (ms);
    /// NaN latency for requests never sent or answered.
    timings: Vec<(usize, f64, f64)>,
    sent: usize,
    failed: usize,
    failures: Vec<String>,
    aborted: bool,
    max_pending: u64,
    /// Per answered request: its due offset and reply instant.
    replies: Vec<(Duration, Instant)>,
    start: Option<Instant>,
    /// Queries the phase's requests carry, and how many of them repeat an
    /// earlier query of the run.
    queries: usize,
    repeats: usize,
}

/// Runs one phase over `conns` connections; every reply is checked
/// against `reference`.
fn run_phase(
    addr: &str,
    plan: &[Req],
    conns: usize,
    reference: &[u64],
    frames: &[String],
    load: Load,
    trace: Option<&Trace>,
) -> Result<PhaseResult, String> {
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<Result<PhaseResult, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mine: Vec<usize> = (c..plan.len()).step_by(conns).collect();
                    let conn = Conn {
                        addr,
                        plan,
                        mine: &mine,
                        start,
                        reference,
                        frames,
                    };
                    match load {
                        Load::Open { cap } => drive_open(&conn, cap.div_ceil(conns), c == 0, trace),
                        Load::Closed { window, stop } => {
                            drive_closed(&conn, window.div_ceil(conns), stop)
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    let mut all = PhaseResult {
        start: Some(start),
        ..PhaseResult::default()
    };
    for r in results {
        let r = r?;
        all.timings.extend(r.timings);
        all.replies.extend(r.replies);
        all.sent += r.sent;
        all.failed += r.failed;
        all.failures.extend(r.failures);
        all.aborted |= r.aborted;
        all.max_pending = all.max_pending.max(r.max_pending);
    }
    all.timings.sort_by_key(|t| t.0);
    Ok(all)
}

/// How a phase paces its requests.
#[derive(Debug, Clone, Copy)]
enum Load {
    /// Each request when due; stop once `cap` requests are outstanding
    /// (split evenly over the connections).
    Open { cap: usize },
    /// Keep `window` requests in flight (split evenly over the
    /// connections) until `stop` after the phase start (saturation).
    Closed { window: usize, stop: Duration },
}

/// What one generator connection sends and checks.
struct Conn<'a> {
    addr: &'a str,
    plan: &'a [Req],
    /// Indices into `plan` of this connection's requests, in order.
    mine: &'a [usize],
    start: Instant,
    reference: &'a [u64],
    frames: &'a [String],
}

impl Conn<'_> {
    fn connect(&self) -> Result<TcpStream, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(stream)
    }

    /// Fills in each sent request's latency from the reader's timings,
    /// and counts the requests never answered as failed.
    fn finish(&self, mut out: PhaseResult, lags: Vec<(usize, f64)>) -> PhaseResult {
        out.sent = lags.len();
        let lat: std::collections::HashMap<usize, f64> =
            out.timings.iter().map(|t| (t.0, t.1)).collect();
        out.timings = lags
            .into_iter()
            .map(|(k, lag)| (k, lat.get(&k).copied().unwrap_or(f64::NAN), lag))
            .collect();
        let missing = out.sent.saturating_sub(lat.len());
        if missing > 0 {
            out.failed += missing;
            out.failures.push(format!("{missing} requests unanswered"));
        }
        out
    }
}

/// A closed-loop connection on one thread: `window` requests in flight,
/// the next one written as soon as a reply is read, none after `stop`;
/// then the outstanding replies are drained. One thread rather than a
/// sender and a reader, so saturation costs the generator one wake-up per
/// reply and leaves the cores to the daemon.
fn drive_closed(conn: &Conn, window: usize, stop: Duration) -> Result<PhaseResult, String> {
    let stream = conn.connect()?;
    stream
        .set_read_timeout(Some(REPLY_GRACE))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let end = conn.start + stop;
    let mut out = PhaseResult::default();
    let mut lags = Vec::new();
    let mut send = |lags: &mut Vec<(usize, f64)>| -> Result<(), String> {
        let k = conn.mine[lags.len()];
        writer
            .write_all(conn.frames[k].as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        lags.push((k, 0.0));
        Ok(())
    };
    sleep_until(conn.start);
    while lags.len() < window.min(conn.mine.len()) {
        send(&mut lags)?;
    }
    let mut answered = 0;
    let mut line = String::new();
    while answered < lags.len() {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Err("daemon closed the connection".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("read: {e}")),
        }
        let now = Instant::now();
        if handle_reply(
            &mut out,
            line.trim(),
            now,
            conn.plan,
            conn.start,
            conn.reference,
        ) {
            answered += 1;
            if now < end && lags.len() < conn.mine.len() {
                send(&mut lags)?;
            }
        }
    }
    Ok(conn.finish(out, lags))
}

/// Shared between a connection's sender and its reader.
struct Progress {
    /// Requests written so far, and whether the sender has finished.
    sent: AtomicUsize,
    done: AtomicBool,
    /// Replies to requests (not stats polls) read so far.
    answered: AtomicUsize,
}

/// An open-loop connection: the calling thread sends each request when
/// due (sleeping in between), and a reader thread blocks on the socket and
/// timestamps each reply the moment it arrives. Socket read timeouts are
/// not used for pacing: their granularity is the kernel tick, milliseconds.
/// Sending stops early once `cap` requests are outstanding.
fn drive_open(
    conn: &Conn,
    cap: usize,
    poll_stats: bool,
    trace: Option<&Trace>,
) -> Result<PhaseResult, String> {
    let mut stream = conn.connect()?;
    let rstream = stream.try_clone().map_err(|e| e.to_string())?;
    rstream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .map_err(|e| e.to_string())?;
    let progress = Progress {
        sent: AtomicUsize::new(0),
        done: AtomicBool::new(false),
        answered: AtomicUsize::new(0),
    };
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let read = || read_replies(rstream, conn, &progress);
            match trace {
                Some(t) => t.scope(read),
                None => read(),
            }
        });
        let sent = send_requests(&mut stream, conn, cap, poll_stats, &progress);
        progress.done.store(true, Ordering::SeqCst);
        let out = reader
            .join()
            .map_err(|_| "reader thread panicked".to_string())??;
        let (lags, aborted) = sent?;
        let mut out = conn.finish(out, lags);
        out.aborted = aborted;
        Ok(out)
    })
}

/// The sending half: returns `(request, send lag ms)` per request sent and
/// whether the backlog cap stopped the phase.
fn send_requests(
    stream: &mut TcpStream,
    conn: &Conn,
    cap: usize,
    poll_stats: bool,
    progress: &Progress,
) -> Result<(Vec<(usize, f64)>, bool), String> {
    let mut lags = Vec::with_capacity(conn.mine.len());
    let mut next_poll = conn.start;
    let write = |stream: &mut TcpStream, frame: &str| {
        stream
            .write_all(frame.as_bytes())
            .map_err(|e| format!("write: {e}"))
    };
    for &k in conn.mine {
        let due = conn.start + conn.plan[k].due;
        sleep_until(due);
        if lags.len() - progress.answered.load(Ordering::SeqCst) >= cap {
            return Ok((lags, true));
        }
        if poll_stats && Instant::now() >= next_poll {
            write(
                stream,
                &format!("{{\"verb\":\"stats\",\"id\":{}}}\n", POLL_ID + k as u64),
            )?;
            next_poll = Instant::now() + POLL;
        }
        let lag = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
        write(stream, &conn.frames[k])?;
        lags.push((k, lag));
        progress.sent.store(lags.len(), Ordering::SeqCst);
    }
    Ok((lags, false))
}

/// Sleeps until `due` (returns at once if it has passed).
fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// The reading half: handles replies until the sender is done and every
/// request it sent is answered, or `REPLY_GRACE` passes after that.
fn read_replies(
    mut stream: TcpStream,
    conn: &Conn,
    progress: &Progress,
) -> Result<PhaseResult, String> {
    let mut out = PhaseResult::default();
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut done_at: Option<Instant> = None;
    loop {
        if progress.done.load(Ordering::SeqCst) {
            let t = *done_at.get_or_insert_with(Instant::now);
            let sent = progress.sent.load(Ordering::SeqCst);
            if progress.answered.load(Ordering::SeqCst) >= sent || t.elapsed() > REPLY_GRACE {
                return Ok(out);
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("daemon closed the connection".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => return Err(format!("read: {e}")),
        }
        let now = Instant::now();
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            if handle_reply(
                &mut out,
                String::from_utf8_lossy(&line).trim(),
                now,
                conn.plan,
                conn.start,
                conn.reference,
            ) {
                progress.answered.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

/// Records one reply line; returns whether it answered a request (as
/// opposed to a stats poll or garbage).
fn handle_reply(
    out: &mut PhaseResult,
    line: &str,
    now: Instant,
    plan: &[Req],
    start: Instant,
    reference: &[u64],
) -> bool {
    let mut fail = |why: String| {
        out.failed += 1;
        out.failures.push(why);
    };
    let reply = match json::parse(line) {
        Ok(j) => j,
        Err(e) => {
            fail(format!("unparsable reply: {e:?}"));
            return false;
        }
    };
    let id = reply.get("id").and_then(Json::as_u64).unwrap_or(u64::MAX);
    if id >= POLL_ID {
        let pending = reply
            .get("stats")
            .and_then(|s| s.get("pending"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        out.max_pending = out.max_pending.max(pending);
        return false;
    }
    let k = id as usize;
    let Some(req) = plan.get(k) else {
        fail(format!("reply with unknown id {id}"));
        return false;
    };
    let latency_ms = latency_from_due(start, req.due, now);
    // A client span from the request's due time to its reply; inert
    // outside a traced scope.
    span_with_ns("serve.request", (latency_ms * 1e6) as u64);
    out.timings.push((k, latency_ms, f64::NAN));
    out.replies.push((req.due, now));
    let slots: Vec<&Json> = match reply.get("results").and_then(Json::as_arr) {
        Some(items) => items.iter().collect(),
        None => vec![&reply],
    };
    if slots.len() != req.queries.len() {
        fail(format!("request {k}: {} results", slots.len()));
        return true;
    }
    for (slot, &qi) in slots.iter().zip(&req.queries) {
        let ok = slot.get("ok").and_then(Json::as_bool) == Some(true);
        match slot.get("estimate").and_then(Json::as_f64) {
            Some(v) if ok && v.to_bits() == reference[qi] => {}
            _ => {
                fail(format!("request {k} query {qi}: {line}"));
                return true;
            }
        }
    }
    true
}

/// Builds the requests due at `dues` and their wire frames.
fn plan_phase(mix: &mut Mix, qs: &[Graph], dues: Vec<Duration>) -> (Vec<Req>, Vec<String>) {
    let plan: Vec<Req> = dues
        .into_iter()
        .map(|due| Req {
            due,
            queries: mix.next(),
        })
        .collect();
    let frames = plan
        .iter()
        .enumerate()
        .map(|(k, r)| {
            let f = if r.queries.len() == 1 {
                estimate_request(k as u64, &qs[r.queries[0]])
            } else {
                let batch: Vec<Graph> = r.queries.iter().map(|&i| qs[i].clone()).collect();
                estimate_batch_request(k as u64, &batch)
            };
            format!("{f}\n")
        })
        .collect();
    (plan, frames)
}

fn latencies(p: &PhaseResult) -> Vec<f64> {
    p.timings
        .iter()
        .map(|t| t.1)
        .filter(|v| v.is_finite())
        .collect()
}

/// Whether a ladder rung met the limit with no growing backlog.
fn rung_passes(p: &PhaseResult) -> bool {
    let lat = latencies(p);
    if p.aborted || p.failed > 0 || lat.len() < 8 {
        return false;
    }
    let q = lat.len() / 4;
    let early = stats::median(&lat[..q]);
    let late = stats::median(&lat[lat.len() - q..]);
    stats::tail(&lat).value <= TAIL_LIMIT_MS && late <= 2.0 * early + 2.0
}

fn histogram(stats: &Json, name: &str) -> (f64, f64) {
    let h = stats
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get(name));
    let f = |k: &str| {
        h.and_then(|h| h.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    (f("count"), f("sum"))
}

fn counter(stats: &Json, name: &str) -> f64 {
    stats
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let cli = ctx.cli.as_deref().ok_or("serve-open needs --cli")?;
    let qs = gen::read_queries(&ctx.dir)?;
    let seed = gen::read_seed(&ctx.dir)?;
    let mut out = Outcome::default();

    // The offline reference from the same model file, untimed.
    let reference: Vec<u64> = {
        let g = load_graph(&ctx.dir.join(GRAPH)).map_err(|e| e.to_string())?;
        let model = load_model(&ctx.dir.join(MODEL)).map_err(|e| e.to_string())?;
        let gctx = GraphContext::new();
        qs.iter()
            .map(|q| {
                model
                    .estimate_detailed_with(q, &g, &gctx)
                    .map(|d| d.count.to_bits())
            })
            .collect::<Result<_, _>>()
            .map_err(|e| format!("offline reference: {e}"))?
    };

    let (setup_s, daemon) = median_setup(SETUP_REPS, || {
        let t0 = Instant::now();
        let d = Daemon::spawn(cli, &ctx.dir, ctx.nproc)?;
        d.wait_ready(&qs[0])?;
        Ok((secs(t0), d))
    })?;
    out.set("setup_s", setup_s);
    let (_, rss_start) = daemon.memory_mb();
    // Each connection takes two generator threads (sender and reader), so
    // the generator stays within `nproc` threads.
    let conns = (ctx.nproc / 2).max(1);
    let mut mix = Mix::new(seed, qs.len());
    let mut run = |dues: Vec<Duration>,
                   load: Load,
                   trace: Option<&Trace>,
                   out: &mut Outcome|
     -> Result<PhaseResult, String> {
        let (plan, frames) = plan_phase(&mut mix, &qs, dues);
        let (queries, repeats) = mix.take_counts();
        let mut p = run_phase(&daemon.addr, &plan, conns, &reference, &frames, load, trace)?;
        (p.queries, p.repeats) = (queries, repeats);
        out.attempted += p.sent as u64;
        out.failed += p.failed as u64;
        for f in p.failures.iter().take(5) {
            out.notes.push(format!("FAILED: {f}"));
        }
        Ok(p)
    };
    let open = Load::Open {
        cap: MAX_OUTSTANDING,
    };

    run(schedule(REF_RATE, WARMUP_SECS), open, None, &mut out)?;
    // The traced run splits the reference phase into an untraced and a
    // traced half, and skips saturation for the ladder.
    let ref_secs = ctx.seconds * REF_SHARE / if ctx.traced { 2.0 } else { 1.0 };
    let before = daemon.stats()?;
    let (mut windows, mut steal, mut lags) = (Vec::new(), Vec::new(), Vec::new());
    let (mut queries, mut repeats, mut max_pending) = (0, 0, 0);
    for _ in 0..WINDOWS {
        let dues = schedule(REF_RATE, ref_secs / WINDOWS as f64);
        let (p, stolen) = with_steal(|| run(dues, open, None, &mut out));
        let p = p?;
        let lat = latencies(&p);
        if lat.is_empty() {
            return Err("no replies at the reference rate".into());
        }
        windows.push(lat);
        steal.push(stolen);
        lags.extend(p.timings.iter().map(|t| t.2));
        (queries, repeats) = (queries + p.queries, repeats + p.repeats);
        max_pending = max_pending.max(p.max_pending);
    }
    let after = daemon.stats()?;
    let ref_lat = windows.concat();
    out.windowed_latencies(
        &format!("request at {REF_RATE} rps, from due time"),
        &windows,
        &steal,
    );
    out.notes.push(format!(
        "mix: {:.1}% of the {queries} queries at the reference rate repeat an earlier query of \
         the run",
        100.0 * repeats as f64 / queries.max(1) as f64,
    ));
    let (c0, s0) = histogram(&before, "serve.batch.ns");
    let (c1, s1) = histogram(&after, "serve.batch.ns");
    let (_, z0) = histogram(&before, "serve.batch.size");
    let (_, z1) = histogram(&after, "serve.batch.size");
    let batches = (c1 - c0).max(1.0);
    let batch_ms = (s1 - s0) / batches / 1e6;
    out.set("serve.batch_ms", batch_ms);
    out.set("serve.batch_size_mean", (z1 - z0) / batches);
    let mean_lat = stats::mean(&ref_lat);
    out.set("serve.outside_batch_ms", mean_lat - batch_ms);
    out.set("serve.generator_lag_ms", stats::tail(&lags).value);
    // Memory after a fixed number of requests (warm-up plus reference), so
    // a phase whose length depends on capacity does not move it.
    let (hwm, rss_ref) = daemon.memory_mb();
    out.set("peak_rss_mb", hwm);
    out.set("serve.rss_growth_mb", rss_ref - rss_start);

    if ctx.traced {
        // The reference phase again, at once, with a client span recorded
        // per reply.
        let trace = Trace::default();
        let traced = run(schedule(REF_RATE, ref_secs), open, Some(&trace), &mut out)?;
        let traced_ms = stats::mean(&latencies(&traced));
        out.set("tracing_overhead_pct", (traced_ms / mean_lat - 1.0) * 100.0);
        out.set("unattributed_us", (traced_ms - batch_ms) * 1e3);
        out.notes.push(format!(
            "reconcile: batch {batch_ms:.3} ms + unattributed {:.3} ms = traced {traced_ms:.3} ms; \
             untraced {mean_lat:.3} ms (server batch time is the stats histogram mean)",
            traced_ms - batch_ms
        ));
        out.tracer = Some(trace);
    }

    if ctx.traced {
        // The rate ladder: doubling rungs until one fails, then bisection
        // between the last pass and that failure.
        let rung_secs = (ctx.seconds * RUNG_SHARE).max(MIN_RUNG_SECS);
        let rate_of = |k: u32| LADDER_BASE * 2f64.powf(k as f64 / RUNGS_PER_OCTAVE as f64);
        let mut rung = |k: u32, out: &mut Outcome| -> Result<bool, String> {
            let p = run(schedule(rate_of(k), rung_secs), open, None, out)?;
            max_pending = max_pending.max(p.max_pending);
            let pass = rung_passes(&p);
            let lat = latencies(&p);
            out.notes.push(format!(
                "ladder: {:.1} rps {} (tail {:.2} ms, {} sent, {} failed{})",
                rate_of(k),
                if pass { "pass" } else { "fail" },
                if lat.is_empty() {
                    f64::NAN
                } else {
                    stats::tail(&lat).value
                },
                p.sent,
                p.failed,
                if p.aborted { ", backlog cap hit" } else { "" }
            ));
            Ok(pass)
        };
        let mut best: Option<u32> = None;
        let mut k = 0;
        while k <= MAX_RUNG && rung(k, &mut out)? {
            best = Some(k);
            k += RUNGS_PER_OCTAVE;
        }
        if let Some(mut lo) = best.filter(|&b| b + RUNGS_PER_OCTAVE <= MAX_RUNG) {
            let mut hi = lo + RUNGS_PER_OCTAVE;
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                if rung(mid, &mut out)? {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            best = Some(lo);
        }
        out.set("serve.max_rps", best.map_or(0.0, rate_of));
    } else {
        // Saturation: one daemon batch of requests in flight, in windows.
        let window = ctx.seconds * SAT_SHARE / WINDOWS as f64;
        let n_sat = (window * SAT_PLAN_RATE) as usize;
        let (mut rates, mut steal) = (Vec::new(), Vec::new());
        for _ in 0..WINDOWS {
            let load = Load::Closed {
                window: max_batch(),
                stop: dur(window),
            };
            let (sat, stolen) =
                with_steal(|| run(vec![Duration::ZERO; n_sat], load, None, &mut out));
            let sat = sat?;
            max_pending = max_pending.max(sat.max_pending);
            let end = sat.start.expect("phase start") + dur(window);
            let done = sat.replies.iter().filter(|r| r.1 <= end).count();
            if done == 0 || sat.replies.len() >= n_sat {
                return Err(format!(
                    "saturation window answered {done} of {n_sat} planned"
                ));
            }
            rates.push(done as f64 / window);
            steal.push(stolen);
        }
        let kept: Vec<f64> = least_stolen(&steal).into_iter().map(|i| rates[i]).collect();
        out.set("throughput_per_s", stats::median(&kept));
        out.notes.push(format!(
            "saturation: median over the {} least-stolen of {WINDOWS} windows; rps {:?}, \
             steal {steal:?} ticks",
            kept.len(),
            rates.iter().map(|r| r.round()).collect::<Vec<_>>()
        ));
    }
    out.set("serve.queue_depth_max", max_pending as f64);

    let end = daemon.stats()?;
    out.set("serve.rejected", counter(&end, "serve.rejected"));
    out.set("obs.spans_dropped", counter(&end, "obs.spans_dropped"));
    daemon.shutdown()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_rate() {
        let s = schedule(100.0, 1.0);
        assert_eq!(s.len(), 100);
        assert_eq!(s[0], Duration::ZERO);
        assert_eq!(s[50], Duration::from_millis(500));
    }

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        // A request due at 10 ms, sent late at 30 ms because the generator
        // stalled, answered at 32 ms: its latency is 22 ms, not 2 ms.
        let start = Instant::now();
        let due = Duration::from_millis(10);
        let reply = start + Duration::from_millis(32);
        assert!((latency_from_due(start, due, reply) - 22.0).abs() < 1e-9);
    }

    #[test]
    fn a_stalled_generator_charges_the_requests_behind_the_stall() {
        // Requests due every 10 ms; the generator stalls until 100 ms, then
        // sends all of them, and each is answered 1 ms after sending.
        let start = Instant::now();
        let lat: Vec<f64> = schedule(100.0, 0.1)
            .into_iter()
            .enumerate()
            .map(|(k, due)| {
                let sent = Duration::from_millis(100 + k as u64);
                latency_from_due(start, due, start + sent + Duration::from_millis(1))
            })
            .collect();
        // Timed from send, every request would read 1 ms.
        assert!((lat[0] - 101.0).abs() < 1e-9);
        assert!(lat.iter().all(|&l| l > 10.0));
        assert!(stats::median(&lat) > 50.0);
    }

    #[test]
    fn mix_is_seeded_and_skewed() {
        let draws = |seed| {
            let mut m = Mix::new(seed, 1000);
            (0..2000).map(|_| m.next()).collect::<Vec<_>>()
        };
        assert_eq!(draws(3), draws(3));
        assert_ne!(draws(3), draws(4));
        let mut hits = vec![0usize; 1000];
        for r in draws(3) {
            for q in r {
                hits[q] += 1;
            }
        }
        hits.sort_unstable();
        // The most popular query is drawn far more often than the median one.
        assert!(hits[999] > 4 * hits[500].max(1));
        // Batch frames carry as many queries as single frames.
        let all = draws(3);
        let singles = all.iter().filter(|r| r.len() == 1).count();
        let batched: usize = all.iter().filter(|r| r.len() > 1).map(Vec::len).sum();
        let ratio = batched as f64 / singles as f64;
        assert!(
            (0.85..1.15).contains(&ratio),
            "{batched} batched vs {singles} single"
        );
    }

    #[test]
    fn repeats_are_counted_against_every_earlier_draw() {
        let mut m = Mix::new(3, 50);
        let n: usize = (0..200).map(|_| m.next().len()).sum();
        let (draws, repeats) = m.take_counts();
        assert_eq!(draws, n);
        // At most 50 distinct queries, so at least n - 50 repeats.
        assert!(repeats >= n - 50);
        assert_eq!(m.take_counts(), (0, 0));
    }
}

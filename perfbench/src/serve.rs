//! The serve workloads: a recorded Geant2012 failure trace replayed into a
//! `drift-bottle serve` child process over loopback TCP.
//!
//! The generator is this process: the main thread sends, one reader
//! thread receives on every connection (at most two), so the client side
//! never needs more than two threads or two connections.

use crate::pins::Pins;
use crate::report::{median, percentile, Report};
use crate::spec::{self, Kind};
use crate::trace::Spans;
use crate::Args;
use db_core::classifier::timeline;
use db_core::{prepare, DriftBottleSystem, Engine, PrepareConfig, SystemConfig, VariantSpec};
use db_flowmon::WindowConfig;
use db_netsim::{
    FailureScenario, SimConfig, SimTime, Simulator, TraceRecorder, TrafficConfig, TrafficGen,
};
use db_serve::server::flow_record;
use db_serve::{decode_frame, encode_frame, Frame, Record, MAX_FRAME_BYTES, PROTO_VERSION};
use db_telemetry::scope::{ScopeMeta, ScopeRecorder};
use db_topology::{zoo, LinkId, RouteTable};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const TOPO: &str = "geant2012";
const DENSITY: f64 = 1.0;
/// Traffic seed of every serve trace (and of the daemon's `Hello`).
const TRAFFIC_SEED: u64 = 1;
/// Records per `Records` frame: a quarter of `load_gen`'s 8192, so that
/// one run holds enough batches for its percentiles. A p99 needs 1,000
/// batches (ten beyond it). In the closed loop (`serve.batch_rtt_ms_p99`)
/// that is ~2 s at 2048 records and ~980k rec/s, but ~8 s at 8192. In the
/// open loop (`serve.lat_ms_p99`) it is ~7 s at 2048 and 300k rec/s, but
/// ~27 s at 8192, longer than a run.
pub const BATCH: usize = 2048;
/// Closed loop: batches in flight, as in `load_gen`.
const DEPTH: usize = 8;
/// Open loop: offered records per second, well below saturation: about a
/// third of the closed-loop ceiling (0.85–1.0M records/s on a 2-vCPU host).
pub const RATE: f64 = 300_000.0;
/// Open loop, reader connection: besides one `PulseReq` per `IngestAck`
/// (the load of a `PulseSub`, to which the daemon publishes a `Pulse` per
/// batch), a `StatsReq` every second, the refresh period of `drift-bottle
/// top`. Nothing in the repository requests snapshots on a schedule; a
/// `SnapshotReq` every 250 ms gives `serve.snapshot_ms_p50` ~59 samples per
/// 15 s run, where it needs 20 (ten beyond the median).
const STATS_EVERY: f64 = 1.0;
const SNAPSHOT_EVERY: f64 = 0.25;
/// Carrier retention the sessions ask for, in windows.
const WINDOW_CAP: u32 = 8;
const SETUP_REPS: usize = 3;
/// Replay pairs, with and without the scope recorder, the traced run
/// takes `telemetry.scope_ns_per_rec` from.
const SCOPE_PAIRS: usize = 3;
/// An open-loop run whose generator sent its p99 batch later than this
/// (two batch intervals) after it could have is invalid: it fell behind
/// the schedule it was to offer. Wake-up jitter of a shared 2-vCPU host
/// alone reaches ~2.5 ms at p99.
pub const SEND_LAG_P99_BOUND_MS: f64 = 10.0;
/// How long to wait for replies still in flight when sending stops.
const DRAIN: Duration = Duration::from_secs(30);

/// Environment knobs of the daemon that would change what is measured.
const DAEMON_ENV: &[&str] = &[
    "DB_SMOKE",
    "DB_THREADS",
    "DB_SERVE_ADDR",
    "DB_SERVE_WINDOW_CAP",
    "DB_SERVE_PROM_ADDR",
    "DB_SERVE_FLIGHT",
];

/// Failure traces a serve run replays in rotation, one per pass: the
/// busiest link failed, then the second-busiest, and so on.
pub const FAILURES: usize = 4;

/// The replayed input: [`FAILURES`] single-link-failure traces of one
/// traffic matrix, replayed pass after pass in rotation from `start`, each
/// pass's timestamps moved forward by `period`. Every run replays every
/// failure; the seed only picks the one it starts with.
pub struct Trace {
    /// Per failure: its records and the failed link.
    failures: Vec<(Vec<Record>, u16)>,
    start: usize,
    period: u64,
    interval: u64,
}

impl Trace {
    /// Record the failure traces: Geant2012 at density 1.0 under traffic
    /// seed [`TRAFFIC_SEED`], each failure at the standard timeline point.
    pub fn record(start: usize) -> Trace {
        let topo = zoo::geant2012();
        let routes = RouteTable::build(&topo);
        let traffic = TrafficConfig::with_density(DENSITY);
        let flows = TrafficGen::generate_auto(&topo, &routes, &traffic, TRAFFIC_SEED);
        let wcfg = WindowConfig::for_network(&routes, SimTime::from_ms(4));
        let (t_fail, _, end) = timeline(&wcfg, traffic.start_spread);
        let mut load = vec![0u32; topo.link_count()];
        for f in &flows {
            for l in &f.path.links {
                load[l.idx()] += 1;
            }
        }
        let mut by_load: Vec<usize> = (0..load.len()).collect();
        by_load.sort_by_key(|&i| (std::cmp::Reverse(load[i]), i));
        let cfg = SimConfig {
            end,
            tick_interval: wcfg.interval,
            ..Default::default()
        };
        let failures = by_load[..FAILURES]
            .iter()
            .map(|&l| {
                let link = LinkId(u16::try_from(l).expect("link ids fit u16"));
                let scenario = FailureScenario::single_link(link, t_fail);
                let mut sim = Simulator::new(
                    &topo,
                    flows.clone(),
                    cfg.clone(),
                    &scenario,
                    TRAFFIC_SEED,
                    TraceRecorder::new(),
                );
                sim.run();
                let (rec, _) = sim.finish();
                let records = rec
                    .observations
                    .iter()
                    .map(|o| Record {
                        at_ns: o.at.as_ns(),
                        flow: o.info.flow.0,
                        src: o.info.src.0,
                        dst: o.info.dst.0,
                        seq: o.info.seq,
                        size: o.info.size,
                        node: o.info.node.0,
                        hop_index: o.info.hop_index,
                        is_ingress: o.info.is_ingress,
                        is_last_switch: o.info.is_last_switch,
                    })
                    .collect();
                (records, link.0)
            })
            .collect();
        let interval = wcfg.interval.as_ns();
        Trace {
            failures,
            start: start % FAILURES,
            // The next pass starts two intervals past this one's end, on a
            // tick boundary, so window edges stay regular.
            period: (end.as_ns() / interval + 2) * interval,
            interval,
        }
    }

    /// The failure replayed by `pass`.
    fn failure(&self, pass: usize) -> usize {
        (self.start + pass) % FAILURES
    }

    fn pass(&self, pass: usize) -> &[Record] {
        &self.failures[self.failure(pass)].0
    }

    fn link(&self, pass: usize) -> u16 {
        self.failures[self.failure(pass)].1
    }

    fn batches_in(&self, pass: usize) -> usize {
        self.pass(pass).len().div_ceil(BATCH)
    }

    fn rebased(&self, pass: usize, r: &Record) -> Record {
        Record {
            at_ns: r.at_ns + pass as u64 * self.period,
            ..*r
        }
    }

    /// The first `n` records of the replay, in order.
    fn records(&self, n: usize) -> impl Iterator<Item = Record> + '_ {
        (0..)
            .flat_map(move |p| self.pass(p).iter().map(move |r| self.rebased(p, r)))
            .take(n)
    }

    /// Batch `b` of the replay: its records, pass, and the window of its
    /// last record (every earlier window is closed once it is ingested).
    /// Batches never span passes.
    fn batch(&self, b: usize) -> (Vec<Record>, usize, u64) {
        let cycle: usize = (0..FAILURES).map(|p| self.batches_in(p)).sum();
        let (mut pass, mut chunk) = (b / cycle * FAILURES, b % cycle);
        while chunk >= self.batches_in(pass) {
            chunk -= self.batches_in(pass);
            pass += 1;
        }
        let records = self.pass(pass);
        let lo = chunk * BATCH;
        let recs: Vec<Record> = records[lo..(lo + BATCH).min(records.len())]
            .iter()
            .map(|r| self.rebased(pass, r))
            .collect();
        let last_window = recs.last().map_or(0, |r| r.at_ns / self.interval);
        (recs, pass, last_window)
    }
}

// -- the daemon ----------------------------------------------------------------

/// Build `drift-bottle` from this checkout and return its path.
pub fn build_daemon() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "drift-bottle",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building drift-bottle failed ({status})"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = Path::new(&target).join("release").join("drift-bottle");
    bin.exists()
        .then_some(bin)
        .ok_or_else(|| "drift-bottle binary not found after build".into())
}

/// A running `drift-bottle serve` child.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Start a daemon on ephemeral loopback ports; returns once it listens.
    fn spawn(bin: &Path, log: &Path) -> Result<Daemon, String> {
        let file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr=127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(file);
        for k in DAEMON_ENV {
            cmd.env_remove(k);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut d = Daemon {
            child,
            addr: String::new(),
        };
        let give_up = Instant::now() + Duration::from_secs(60);
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            // Up to the `;` that follows it, so a half-written line is
            // not taken for the address.
            let addr = text
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_once(';'));
            if let Some((a, _)) = addr {
                d.addr = a.trim().to_string();
                return Ok(d);
            }
            if Instant::now() > give_up || d.child.try_wait().ok().flatten().is_some() {
                d.stop();
                return Err(format!("daemon did not start: {text}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::host::peak_rss_mb(Some(self.child.id()))
    }

    /// Ask the daemon to stop, then reap it (killing it if it lingers).
    fn shutdown(mut self) -> Result<(), String> {
        let said_bye = (|| {
            let mut s = TcpStream::connect(&self.addr).ok()?;
            s.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
            send(&mut s, &Frame::Shutdown).ok()?;
            (recv(&mut s).ok()? == Frame::Bye).then_some(())
        })();
        let give_up = Instant::now() + Duration::from_secs(10);
        while Instant::now() < give_up {
            if let Ok(Some(_)) = self.child.try_wait() {
                return said_bye.ok_or_else(|| "daemon exited without Bye".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.stop();
        Err("daemon did not exit after Shutdown".into())
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.stop();
        }
    }
}

fn send(s: &mut TcpStream, f: &Frame) -> std::io::Result<()> {
    db_serve::write_frame(s, f)?;
    s.flush()
}

fn recv(s: &mut TcpStream) -> std::io::Result<Frame> {
    db_serve::read_frame(s)?
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "closed"))
}

fn hello(addr: &str, traffic_seed: u64) -> Result<TcpStream, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    send(
        &mut s,
        &Frame::Hello {
            proto: PROTO_VERSION,
            topo: TOPO.into(),
            density: DENSITY,
            seed: traffic_seed,
            window_cap: WINDOW_CAP,
        },
    )
    .map_err(|e| e.to_string())?;
    match recv(&mut s).map_err(|e| e.to_string())? {
        Frame::HelloAck { .. } => Ok(s),
        other => Err(format!("expected HelloAck, got {other:?}")),
    }
}

/// Cold start: spawn a daemon and connect until its `HelloAck` (engine
/// built, classifier trained). Returns the daemon and the seconds it took.
fn cold_start(bin: &Path, log: &Path, traffic_seed: u64) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let d = Daemon::spawn(bin, log)?;
    drop(hello(&d.addr, traffic_seed)?);
    Ok((d, t.elapsed().as_secs_f64()))
}

// -- the reader thread ---------------------------------------------------------

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

const POLLIN: i16 = 0x1;

/// Wait up to `timeout_ms` until one of `fds` is readable; returns which.
fn wait_readable(fds: &[i32], timeout_ms: i32) -> Vec<bool> {
    let mut p: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    // SAFETY: `p` is a live, correctly laid out `struct pollfd` array of
    // `p.len()` entries for the whole call.
    let n = unsafe { poll(p.as_mut_ptr(), p.len() as u64, timeout_ms) };
    p.iter().map(|x| n > 0 && x.revents != 0).collect()
}

/// Bytes received on one connection, cut into frames.
struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuf {
    fn next(&mut self) -> Option<Result<Frame, String>> {
        let avail = &self.buf[self.start..];
        let len = u32::from_be_bytes(avail.get(..4)?.try_into().ok()?);
        if len > MAX_FRAME_BYTES {
            return Some(Err(format!(
                "frame length {len} exceeds the protocol limit"
            )));
        }
        let len = len as usize;
        let payload = avail.get(4..4 + len)?;
        let frame = decode_frame(payload).map_err(|e| format!("bad frame: {e:?}"));
        self.start += 4 + len;
        if self.start > self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Some(frame)
    }
}

/// What the reader has seen, shared with the sender.
#[derive(Default)]
struct Seen {
    /// Per `Records` frame on the ingest connection, in order.
    acks: Vec<Ack>,
    /// `Stats` replies, with arrival time and connection.
    stats: Vec<(f64, usize, Frame)>,
    /// `StatsReq` frames sent, on either connection.
    stats_reqs: usize,
    /// The ingest connection's last `Pulse` reply (daemon batch latency).
    pulse_reply: Option<Frame>,
    /// `PulseReq` frames sent on the reader connection.
    pulse_reqs: u64,
    /// Send time of each `SnapshotReq`.
    snapshot_reqs: Vec<f64>,
    /// Arrival of each `Snapshot` reply.
    snapshots: Vec<f64>,
    /// Per window: when a `Pulse` carrying it first arrived.
    window_seen_at: Vec<f64>,
    pulse_frames: u64,
    pulse_points: u64,
    /// Sending has ended: no more scheduled requests go out.
    schedule_over: bool,
    errors: Vec<String>,
    closed: bool,
}

/// The reply to one `Records` frame.
#[derive(Debug, Clone)]
struct Ack {
    at: f64,
    warnings: u64,
    /// Links warned about, sorted, without repeats.
    links: Vec<u16>,
    ok: bool,
}

struct Shared {
    seen: Mutex<Seen>,
    changed: Condvar,
    t0: Instant,
}

impl Shared {
    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Seen> {
        self.seen.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wait until `done` holds or `limit` passes; returns whether it held.
    fn wait_for(&self, limit: Duration, done: impl Fn(&Seen) -> bool) -> bool {
        let give_up = Instant::now() + limit;
        let mut g = self.lock();
        while !done(&g) {
            let left = give_up.saturating_duration_since(Instant::now());
            if left.is_zero() || g.closed {
                return done(&g);
            }
            g = self
                .changed
                .wait_timeout(g, left)
                .map(|(g, _)| g)
                .unwrap_or_else(|e| e.into_inner().0);
        }
        true
    }

    /// Record frame `f`, received on connection `conn` at `at`.
    fn take(&self, conn: usize, f: Frame, at: f64) {
        let mut g = self.lock();
        match (conn, f) {
            (0, Frame::IngestAck { warnings, .. }) => g.acks.push(Ack {
                at,
                warnings: warnings.len() as u64,
                links: {
                    let mut l: Vec<u16> = warnings.iter().map(|w| w.link).collect();
                    l.sort_unstable();
                    l.dedup();
                    l
                },
                ok: true,
            }),
            (0, Frame::Error(e)) => {
                g.acks.push(Ack {
                    at,
                    warnings: 0,
                    links: Vec::new(),
                    ok: false,
                });
                g.errors.push(e);
            }
            (0, p @ Frame::Pulse(_)) => g.pulse_reply = Some(p),
            (_, s @ Frame::Stats { .. }) => g.stats.push((at, conn, s)),
            (_, Frame::Snapshot(_)) => g.snapshots.push(at),
            (_, Frame::Pulse(p)) => {
                g.pulse_frames += 1;
                g.pulse_points += p.points.len() as u64;
                let next = usize::try_from(p.next_window).unwrap_or(usize::MAX);
                while g.window_seen_at.len() < next {
                    g.window_seen_at.push(at);
                }
            }
            (c, other) => g
                .errors
                .push(format!("connection {c}: unexpected {other:?}")),
        }
        drop(g);
        self.changed.notify_all();
    }

    /// Send one request on the reader connection. It is counted before it
    /// goes out, so the drain waits for its reply; a scheduled request is
    /// not sent once sending has ended.
    fn request(&self, conn: &mut TcpStream, req: Req) {
        let frame = {
            let mut g = self.lock();
            match req {
                Req::Pulse => {
                    g.pulse_reqs += 1;
                    Frame::PulseReq {
                        from_window: g.window_seen_at.len() as u64,
                    }
                }
                _ if g.schedule_over => return,
                Req::Stats => {
                    g.stats_reqs += 1;
                    Frame::StatsReq
                }
                Req::Snapshot => {
                    let at = self.now();
                    g.snapshot_reqs.push(at);
                    Frame::SnapshotReq
                }
            }
        };
        if let Err(e) = send(conn, &frame) {
            self.lock().errors.push(format!("reader connection: {e}"));
            self.changed.notify_all();
        }
    }
}

/// A request on the reader connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Req {
    /// Sent as each `IngestAck` arrives.
    Pulse,
    /// Every [`STATS_EVERY`] seconds.
    Stats,
    /// Every [`SNAPSHOT_EVERY`] seconds.
    Snapshot,
}

/// Receive on every connection until told to stop or all are closed.
///
/// Connection 0 is the ingest connection. Connection 1, when present, is
/// the reader connection, and this thread also sends its requests: a
/// `PulseReq` as each `IngestAck` arrives, so a window's pulse lag holds no
/// polling period, and `StatsReq` / `SnapshotReq` on their schedules until
/// `until` seconds on the shared clock.
fn reader(
    shared: Arc<Shared>,
    mut conns: Vec<TcpStream>,
    stop: Arc<std::sync::atomic::AtomicBool>,
    until: f64,
) {
    let fds: Vec<i32> = conns.iter().map(|c| c.as_raw_fd()).collect();
    let mut bufs: Vec<FrameBuf> = conns
        .iter()
        .map(|_| FrameBuf {
            buf: Vec::new(),
            start: 0,
        })
        .collect();
    let mut open = vec![true; conns.len()];
    let mut chunk = vec![0u8; 1 << 16];
    // (next due, period, request) of the reader connection's schedules.
    let mut schedule = [
        (STATS_EVERY, STATS_EVERY, Req::Stats),
        (SNAPSHOT_EVERY, SNAPSHOT_EVERY, Req::Snapshot),
    ];
    let side = conns.len() > 1;
    while open.iter().any(|&o| o) && !stop.load(std::sync::atomic::Ordering::Acquire) {
        let timeout_ms = match schedule.iter().map(|s| s.0).reduce(f64::min) {
            Some(next) if side && next < until => {
                ((next - shared.now()) * 1e3).ceil().clamp(0.0, 20.0) as i32
            }
            _ => 20,
        };
        let ready = wait_readable(&fds, timeout_ms);
        if side {
            for (due, every, req) in &mut schedule {
                if *due < until && *due <= shared.now() {
                    *due += *every;
                    shared.request(&mut conns[1], *req);
                }
            }
        }
        for (i, ready) in ready.into_iter().enumerate() {
            if !ready || !open[i] {
                continue;
            }
            match conns[i].read(&mut chunk) {
                Ok(0) | Err(_) => open[i] = false,
                Ok(n) => {
                    bufs[i].buf.extend_from_slice(&chunk[..n]);
                    while let Some(frame) = bufs[i].next() {
                        match frame {
                            Ok(f) => {
                                let at = shared.now();
                                if side && i == 0 && matches!(f, Frame::IngestAck { .. }) {
                                    shared.request(&mut conns[1], Req::Pulse);
                                }
                                shared.take(i, f, at);
                            }
                            Err(e) => {
                                shared.lock().errors.push(format!("connection {i}: {e}"));
                                open[i] = false;
                                break;
                            }
                        }
                    }
                }
            }
        }
    }
    shared.lock().closed = true;
    shared.changed.notify_all();
}

// -- one load segment ------------------------------------------------------------

/// One batch as the sender saw it.
#[derive(Debug, Clone, Copy)]
struct Sent {
    due: f64,
    sent: f64,
    /// When the write returned (a full socket blocks it).
    written: f64,
    records: usize,
    pass: usize,
    last_window: u64,
}

/// Everything one load segment measured.
struct Load {
    sent: Vec<Sent>,
    seen: Seen,
    /// Final `Stats` of the ingest connection (after every ack).
    final_stats: Option<Frame>,
}

impl Load {
    fn ack(&self, i: usize) -> Option<&Ack> {
        self.seen.acks.get(i)
    }

    /// Per batch: send time to ack, ms (failed batches miss every limit).
    fn rtt_ms(&self) -> Vec<f64> {
        (0..self.sent.len())
            .map(|i| match self.ack(i) {
                Some(a) if a.ok => (a.at - self.sent[i].sent) * 1e3,
                _ => f64::INFINITY,
            })
            .collect()
    }

    /// Per batch: due time to ack, ms.
    fn lat_ms(&self) -> Vec<f64> {
        (0..self.sent.len())
            .map(|i| match self.ack(i) {
                Some(a) if a.ok => (a.at - self.sent[i].due) * 1e3,
                _ => f64::INFINITY,
            })
            .collect()
    }

    /// Per batch: how late the generator itself sent it — after its due
    /// time and after the previous write returned, so time the daemon
    /// held the socket full is not counted (the latencies carry it).
    fn send_lag_ms(&self) -> Vec<f64> {
        let mut free = f64::NEG_INFINITY;
        self.sent
            .iter()
            .map(|s| {
                let lag = (s.sent - s.due.max(free)) * 1e3;
                free = s.written;
                lag.max(0.0)
            })
            .collect()
    }

    /// Records acked per second, from the first send to the last ack.
    fn rps(&self) -> f64 {
        let acked: usize = (0..self.sent.len())
            .filter(|&i| self.ack(i).is_some_and(|a| a.ok))
            .map(|i| self.sent[i].records)
            .sum();
        let first = self.sent.first().map_or(0.0, |s| s.sent);
        let last = self.seen.acks.iter().map(|a| a.at).fold(first, f64::max);
        acked as f64 / (last - first).max(1e-9)
    }

    /// Per window closed by a batch of this segment: from that batch's due
    /// time until a `Pulse` carrying the window arrived, ms. The reader
    /// asks for a pulse as each ack arrives, so this is the closing batch's
    /// latency (it fires the window's tick) plus one `PulseReq` round trip,
    /// which waits behind a `SnapshotReq` the connection has in progress.
    fn pulse_lag_ms(&self) -> Vec<f64> {
        let mut out = Vec::new();
        let mut closed_up_to = 0;
        for s in &self.sent {
            for w in closed_up_to..s.last_window {
                let seen = usize::try_from(w)
                    .ok()
                    .and_then(|w| self.seen.window_seen_at.get(w));
                out.push(seen.map_or(f64::INFINITY, |&at| (at - s.due) * 1e3));
            }
            closed_up_to = closed_up_to.max(s.last_window);
        }
        out
    }

    /// Per `SnapshotReq`: round trip, ms.
    fn snapshot_ms(&self) -> Vec<f64> {
        self.seen
            .snapshot_reqs
            .iter()
            .enumerate()
            .map(|(i, &sent)| {
                self.seen
                    .snapshots
                    .get(i)
                    .map_or(f64::INFINITY, |&at| (at - sent) * 1e3)
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loop {
    /// Closed: the next batch goes when fewer than [`DEPTH`] are in flight.
    Closed,
    /// Open: batch `b` is due at `b · BATCH / RATE`, and a reader
    /// connection sends the requests of [`Req`].
    Open,
}

/// Drive a fresh daemon for `seconds` from the start of the replay.
///
/// The open loop's reader connection polls with `PulseReq` rather than
/// holding a `PulseSub`: the daemon writes a connection's request replies
/// (session thread) and its subscribed `Pulse` frames (writer thread) to
/// one socket without ordering them, so a 4 MB `Snapshot` reply can
/// interleave with a `Pulse` and corrupt the stream.
fn load(
    daemon: &Daemon,
    trace: &Trace,
    args: &Args,
    seconds: f64,
    spans: Option<&Spans>,
) -> Result<Load, String> {
    let mode = mode_of(args);
    let mut ingest = hello(&daemon.addr, TRAFFIC_SEED)?;
    let mut conns = vec![ingest.try_clone().map_err(|e| e.to_string())?];
    if mode == Loop::Open {
        conns.push(hello(&daemon.addr, TRAFFIC_SEED)?);
    }
    let shared = Arc::new(Shared {
        seen: Mutex::new(Seen::default()),
        changed: Condvar::new(),
        t0: Instant::now(),
    });
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let start = shared.now();
    let thread = {
        let (shared, stop) = (shared.clone(), stop.clone());
        std::thread::spawn(move || reader(shared, conns, stop, start + seconds))
    };

    let mut result = Ok(());
    let mut sent: Vec<Sent> = Vec::new();
    let dt = BATCH as f64 / RATE;
    loop {
        let i = sent.len();
        let due = match mode {
            Loop::Closed => {
                if shared.now() - start >= seconds {
                    break;
                }
                if !shared.wait_for(DRAIN, |g| g.acks.len() + DEPTH > i) {
                    result = Err("closed loop: no ack within the drain limit".to_string());
                    break;
                }
                std::thread::sleep(args.batch_sleep);
                shared.now()
            }
            Loop::Open => {
                let due = start + i as f64 * dt;
                if due - start >= seconds {
                    break;
                }
                sleep_until(shared.t0, due);
                due
            }
        };
        let (records, pass, last_window) = trace.batch(i);
        let n = records.len();
        let at = shared.now();
        if let Err(e) = send(&mut ingest, &Frame::Records(records)) {
            result = Err(format!("ingest connection: {e}"));
            break;
        }
        sent.push(Sent {
            due,
            sent: at,
            written: shared.now(),
            records: n,
            pass,
            last_window,
        });
    }
    // Close out: the ingest connection's counters and the daemon's batch
    // latency percentiles, then every outstanding reply.
    let n = sent.len();
    {
        let mut g = shared.lock();
        g.schedule_over = true;
        g.stats_reqs += 1;
    }
    let tail = send(&mut ingest, &Frame::StatsReq).and_then(|()| {
        send(
            &mut ingest,
            &Frame::PulseReq {
                from_window: u64::MAX,
            },
        )
    });
    let drained = shared.wait_for(DRAIN, |g| {
        !g.errors.is_empty()
            || (g.acks.len() >= n
                && g.pulse_reply.is_some()
                && g.stats.len() >= g.stats_reqs
                && g.snapshots.len() >= g.snapshot_reqs.len()
                && g.pulse_frames >= g.pulse_reqs)
    });
    stop.store(true, std::sync::atomic::Ordering::Release);
    let _ = ingest.shutdown(std::net::Shutdown::Both);
    let _ = thread.join();
    let mut seen = std::mem::take(&mut *shared.lock());
    result?;
    tail.map_err(|e| format!("ingest connection: {e}"))?;
    if !drained {
        seen.errors
            .push("replies still missing after the drain limit".into());
    }
    let final_stats = seen
        .stats
        .iter()
        .rev()
        .find(|(_, c, _)| *c == 0)
        .map(|(_, _, s)| s.clone());
    if let Some(spans) = spans {
        let at = |x: f64| shared.t0 + Duration::from_secs_f64(x.max(0.0));
        for (i, s) in sent.iter().enumerate() {
            let end = seen.acks.get(i).map_or(s.sent, |a| a.at);
            spans.record("serve.batch", i as u64, None, at(s.sent), at(end));
        }
    }
    Ok(Load {
        sent,
        seen,
        final_stats,
    })
}

fn sleep_until(t0: Instant, at: f64) {
    let target = t0 + Duration::from_secs_f64(at);
    let now = Instant::now();
    if target > now {
        std::thread::sleep(target - now);
    }
}

/// Warnings per complete pass against the pins; batches applied whole.
fn check_outputs(report: &mut Report, trace: &Trace, load: &Load) {
    let pins = Pins::load();
    let mut batches = 0u64;
    let mut bad_batches = 0u64;
    // pass → (batches acked, warnings, failed link warned)
    let mut passes: std::collections::BTreeMap<usize, (usize, u64, bool)> = Default::default();
    for (i, s) in load.sent.iter().enumerate() {
        batches += 1;
        let e = passes.entry(s.pass).or_insert((0, 0, false));
        match load.ack(i) {
            Some(a) if a.ok => {
                e.0 += 1;
                e.1 += a.warnings;
                e.2 |= a.links.binary_search(&trace.link(s.pass)).is_ok();
            }
            _ => bad_batches += 1,
        }
    }
    for err in &load.seen.errors {
        report.check(false, format!("daemon reply: {err}"));
    }
    report.checks(batches, bad_batches, "batches (acked whole)");
    for (&pass, &(_, warnings, hit)) in passes.iter().filter(|&(&p, v)| v.0 == trace.batches_in(p))
    {
        let k = trace.failure(pass);
        let Some(pin) = pins.serve(k).filter(|p| p.link == trace.link(pass)) else {
            report.check(
                false,
                format!(
                    "failure trace {k} (link {}) is not pinned",
                    trace.link(pass)
                ),
            );
            continue;
        };
        let want = if pass == 0 { pin.first } else { pin.next };
        report.check(
            warnings == want && hit,
            format!("pass {pass} (link {}): {warnings} warnings (pinned {want}), failed link warned: {hit}", pin.link),
        );
    }
}

/// The engine the daemon builds for a `Hello`, in this process.
fn engine_like_daemon(
    prep: &db_core::Prepared,
    traffic_seed: u64,
    scope: bool,
) -> Engine<db_dtree::TableClassifier> {
    let flows = TrafficGen::generate_auto(
        &prep.topo,
        prep.routes.as_ref(),
        &TrafficConfig::with_density(DENSITY),
        traffic_seed,
    );
    let system = DriftBottleSystem::deploy(
        &prep.topo,
        &flows,
        prep.wcfg,
        prep.table.clone(),
        vec![VariantSpec::drift_bottle()],
        SystemConfig {
            interval: prep.wcfg.interval,
            ..Default::default()
        },
        (SimTime::ZERO, SimTime::from_ns(u64::MAX)),
    );
    let mut engine = Engine::new(system);
    engine.set_live_warnings();
    if scope {
        let sys = SystemConfig::default();
        let rec = Arc::new(ScopeRecorder::default());
        rec.set_meta(ScopeMeta {
            interval_ns: prep.wcfg.interval.as_ns(),
            t_fail_ns: 0,
            total_links: u32::try_from(prep.topo.link_count()).unwrap_or(u32::MAX),
            total_switches: u32::try_from(prep.topo.node_count()).unwrap_or(u32::MAX),
            alpha: sys.warning.alpha,
            beta: sys.warning.beta,
            hop_min: sys.warning.hop_min,
        });
        engine.set_scope(rec);
    }
    engine.set_retention(WINDOW_CAP);
    engine
}

/// An in-process replay of the first `n` records of the endless trace,
/// with every tick fired through `advance_to` so tick time is split from
/// record time.
struct Replay {
    engine: Engine<db_dtree::TableClassifier>,
    warnings: u64,
    record_ns: f64,
    tick_us: Vec<f64>,
    carriers_peak: usize,
}

impl Replay {
    /// Record and tick time, ns.
    fn total_ns(&self) -> f64 {
        self.record_ns + self.tick_us.iter().sum::<f64>() * 1e3
    }
}

fn replay(prep: &db_core::Prepared, trace: &Trace, n: usize, scope: bool) -> Replay {
    let mut engine = engine_like_daemon(prep, TRAFFIC_SEED, scope);
    let interval = trace.interval;
    let mut next_tick = interval;
    let mut warnings = 0u64;
    let mut record_ns = 0.0;
    let mut tick_us = Vec::new();
    let mut carriers_peak = 0;
    let mut block = Instant::now();
    for r in trace.records(n) {
        if r.at_ns >= next_tick {
            record_ns += block.elapsed().as_nanos() as f64;
            let t = Instant::now();
            warnings += engine.advance_to(SimTime::from_ns(r.at_ns)).len() as u64;
            tick_us.push(t.elapsed().as_secs_f64() * 1e6);
            carriers_peak = carriers_peak.max(engine.carriers_in_flight());
            next_tick = (r.at_ns / interval + 1) * interval;
            block = Instant::now();
        }
        warnings += engine.ingest(&flow_record(&r)).len() as u64;
    }
    record_ns += block.elapsed().as_nanos() as f64;
    Replay {
        engine,
        warnings,
        record_ns,
        tick_us,
        carriers_peak,
    }
}

/// `(warnings, slow_ticks)` of a `Stats` frame.
fn stats_counts(f: &Frame) -> Option<(u64, u64)> {
    match f {
        Frame::Stats {
            warnings,
            slow_ticks,
            ..
        } => Some((*warnings, *slow_ticks)),
        _ => None,
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench_out")
}

fn mode_of(args: &Args) -> Loop {
    match spec::workload(&args.workload).map(|w| w.kind) {
        Some(Kind::ServeMixed) => Loop::Open,
        _ => Loop::Closed,
    }
}

/// Start a daemon cold; returns it and the seconds until its `HelloAck`.
fn start_daemon(args: &Args, i: usize) -> Result<(Daemon, f64), String> {
    let bin = build_daemon()?;
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let log = out_dir().join(format!("{}-daemon-{i}.log", args.workload));
    cold_start(&bin, &log, TRAFFIC_SEED)
}

fn cat<T: Clone>(parts: impl IntoIterator<Item = Vec<T>>) -> Vec<T> {
    parts.into_iter().flatten().collect()
}

/// `--trace 0`: the end-to-end metrics. Each of [`SETUP_REPS`] daemons is
/// started cold, then driven for an equal share of the measuring time from
/// the next failure trace in the rotation; latencies pool every daemon's
/// samples and rates take the median, so one slow process does not decide
/// the run.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut trace = Trace::record(0);
    let mode = mode_of(args);
    let (mut setups, mut rss, mut loads) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..SETUP_REPS {
        trace.start = (args.seed as usize + i) % FAILURES;
        let (daemon, s) = start_daemon(args, i)?;
        setups.push(s);
        let l = load(
            &daemon,
            &trace,
            args,
            args.seconds / SETUP_REPS as f64,
            None,
        )?;
        rss.push(daemon.peak_rss_mb().unwrap_or(f64::NAN));
        daemon.shutdown()?;
        check_outputs(report, &trace, &l);
        loads.push(l);
    }
    report.metric(
        "setup_s",
        median(&setups),
        format!("median of {SETUP_REPS} cold starts: spawn until HelloAck"),
    );
    report.metric(
        "peak_rss_mb",
        median(&rss),
        format!("median over {SETUP_REPS} daemons"),
    );
    let rps: Vec<f64> = loads.iter().map(Load::rps).collect();
    let shape = match mode {
        Loop::Closed => format!("ingest_rps: batches of {BATCH}, {DEPTH} in flight, 1 connection"),
        Loop::Open => format!("ingest_rps: offered {RATE} rec/s in batches of {BATCH}"),
    };
    report.metric(
        "throughput_per_s",
        median(&rps),
        format!("{shape}; median over {SETUP_REPS} daemons of {rps:.0?}"),
    );
    match mode {
        Loop::Closed => {
            let rtt = cat(loads.iter().map(Load::rtt_ms));
            report.percentile("latency_ms_p50", &rtt, 0.5);
            report.alias("latency_ms_p50", "batch_rtt_ms_p50");
        }
        Loop::Open => {
            check_send_lag(&cat(loads.iter().map(Load::send_lag_ms)))?;
            let lat = cat(loads.iter().map(Load::lat_ms));
            report.percentile("latency_ms_p50", &lat, 0.5);
            report.alias("latency_ms_p50", "lat_ms_p50");
        }
    }
    Ok(())
}

/// An open-loop run whose generator fell behind schedule is invalid.
fn check_send_lag(lag: &[f64]) -> Result<(), String> {
    let p99 = percentile(lag, 0.99).map_or(f64::INFINITY, |p| p.value);
    if p99 > SEND_LAG_P99_BOUND_MS {
        return Err(format!(
            "invalid run: the generator sent its p99 batch {p99:.3} ms late \
             (bound {SEND_LAG_P99_BOUND_MS} ms); not reported"
        ));
    }
    Ok(())
}

/// `--trace 1`: one load segment against one daemon, then in-process
/// replays of exactly the records the daemon ingested.
pub fn run_traced(args: &Args, report: &mut Report, spans: &Spans) -> Result<(), String> {
    let trace = Trace::record(args.seed as usize % FAILURES);
    let (daemon, _) = start_daemon(args, 0)?;
    let mode = mode_of(args);
    let l = load(&daemon, &trace, args, args.seconds, Some(spans))?;
    daemon.shutdown()?;
    check_outputs(report, &trace, &l);

    // The serve workloads' own end-to-end tails and readers, over this
    // run's one load segment; each is 0 on the workload it does not fit.
    let tails = [
        "serve.batch_rtt_ms_p99",
        "serve.lat_ms_p99",
        "serve.pulse_lag_ms_p95",
        "serve.snapshot_ms_p50",
    ];
    for name in tails {
        report.metric(name, 0.0, "not exercised by this workload");
    }
    match mode {
        Loop::Closed => report.percentile("serve.batch_rtt_ms_p99", &l.rtt_ms(), 0.99),
        Loop::Open => {
            check_send_lag(&l.send_lag_ms())?;
            report.percentile("serve.lat_ms_p99", &l.lat_ms(), 0.99);
            report.percentile("serve.pulse_lag_ms_p95", &l.pulse_lag_ms(), 0.95);
            report.percentile("serve.snapshot_ms_p50", &l.snapshot_ms(), 0.5);
        }
    }

    // Daemon-side numbers: its own batch histogram and counters.
    let (batch_p50_us, batch_p99_us) = match &l.seen.pulse_reply {
        Some(Frame::Pulse(p)) => (p.p50_us, p.p99_us),
        _ => (f64::NAN, f64::NAN),
    };
    let (daemon_warnings, slow_ticks) = l
        .final_stats
        .as_ref()
        .and_then(stats_counts)
        .ok_or("no final Stats from the daemon")?;
    report.metric(
        "serve.batch_us_p50",
        batch_p50_us,
        "daemon serve.ingest_batch_us, whole run",
    );
    report.metric(
        "serve.batch_us_p99",
        batch_p99_us,
        "daemon serve.ingest_batch_us, whole run",
    );
    let rtt_p50 = median(&l.rtt_ms());
    report.metric(
        "serve.wait_ms_p50",
        rtt_p50 - batch_p50_us / 1e3,
        format!("client batch round trip p50 {rtt_p50:.3} ms minus daemon batch p50"),
    );
    report.metric("serve.slow_ticks", slow_ticks as f64, "Stats");
    // Both count what the daemon does for `PulseSub` subscribers, and the
    // reader connection cannot hold a subscription (see `load`).
    for name in ["serve.sub_dropped", "serve.pulse_lag_windows_max"] {
        report.metric(name, 0.0, "not exercised: no connection holds a PulseSub");
    }
    report.metric(
        "serve.pulse_frames",
        l.seen.pulse_frames as f64,
        "received by the reader connection",
    );
    report.metric(
        "serve.pulse_points",
        l.seen.pulse_points as f64,
        "received by the reader connection",
    );
    let lag = l.send_lag_ms();
    let (lag_p99, lag_max) = match mode {
        Loop::Open => (
            percentile(&lag, 0.99).map_or(f64::NAN, |p| p.value),
            lag.iter().copied().fold(0.0, f64::max),
        ),
        Loop::Closed => (0.0, 0.0),
    };
    report.metric("gen.send_lag_ms_p99", lag_p99, format!("n={}", lag.len()));
    report.metric("gen.send_lag_ms_max", lag_max, format!("n={}", lag.len()));
    report.metric(
        "trace.overhead_frac",
        0.0,
        "no tracing on the measured path: the daemon runs untraced and batch spans are recorded after the drain",
    );

    // Frame codec on the workload's own frames: one pass of batches.
    let frames: Vec<Frame> = (0..trace.batches_in(0))
        .map(|i| Frame::Records(trace.batch(i).0))
        .collect();
    let t = Instant::now();
    let bytes: Vec<Vec<u8>> = spans.time("serve.encode", 0, None, || {
        frames.iter().map(encode_frame).collect()
    });
    let enc_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    let decoded: Vec<_> = spans.time("serve.decode", 0, None, || {
        bytes.iter().map(|b| decode_frame(b)).collect()
    });
    let dec_ns = t.elapsed().as_nanos() as f64;
    let round_trip = decoded
        .iter()
        .zip(&frames)
        .all(|(d, f)| d.as_ref().ok() == Some(f));
    report.check(
        round_trip,
        "Records frames survive encode_frame/decode_frame",
    );
    let n_rec = trace.pass(0).len() as f64;
    report.metric(
        "serve.frame_encode_ns_per_rec",
        enc_ns / n_rec,
        "one pass of Records frames",
    );
    report.metric(
        "serve.frame_decode_ns_per_rec",
        dec_ns / n_rec,
        "one pass of Records frames",
    );

    // The engine in-process, on exactly the records the daemon ingested.
    db_telemetry::enable();
    let reg = db_telemetry::global();
    let s0 = reg.snapshot();
    let t = Instant::now();
    let prep = spans.time("core.prepare", 0, None, || {
        prepare(zoo::geant2012(), &PrepareConfig::default())
    });
    let prepare_s = t.elapsed().as_secs_f64();
    let s1 = reg.snapshot();
    db_telemetry::disable();
    crate::batch::report_training(report, &s0, &s1, prepare_s);
    let n: usize = l.sent.iter().map(|s| s.records).sum();
    let with = spans.time("core.engine_replay", 0, None, || {
        replay(&prep, &trace, n, true)
    });
    report.check(
        with.warnings == daemon_warnings,
        format!(
            "in-process replay raised {} warnings, the daemon {daemon_warnings}",
            with.warnings
        ),
    );
    report.metric(
        "core.engine_record_ns",
        with.record_ns / n as f64,
        format!("{n} records, ticks excluded"),
    );
    let ticks_note = format!("n={} ticks", with.tick_us.len());
    report.metric(
        "core.engine_tick_us_p50",
        median(&with.tick_us),
        ticks_note.clone(),
    );
    report.metric(
        "core.engine_tick_us_max",
        with.tick_us.iter().copied().fold(0.0, f64::max),
        ticks_note,
    );
    report.metric(
        "core.engine_carriers_peak",
        with.carriers_peak as f64,
        "sampled at every tick",
    );
    // The recorder's cost is a few percent of a replay, less than this
    // host's drift between two replays: the median of alternating pairs.
    let prefix = n.min(trace.pass(0).len() + trace.pass(1).len());
    let scope_ns: Vec<f64> = (0..SCOPE_PAIRS)
        .map(|i| {
            let (mut with_ns, mut without_ns) = (0.0, 0.0);
            for scope in if i % 2 == 0 {
                [true, false]
            } else {
                [false, true]
            } {
                let ns = spans.time("core.engine_replay", 1 + i as u64, None, || {
                    replay(&prep, &trace, prefix, scope).total_ns()
                });
                *(if scope { &mut with_ns } else { &mut without_ns }) = ns;
            }
            (with_ns - without_ns) / prefix as f64
        })
        .collect();
    report.metric(
        "telemetry.scope_ns_per_rec",
        median(&scope_ns),
        format!(
            "median of {SCOPE_PAIRS} replays of {prefix} records with less without the ScopeRecorder: {scope_ns:.1?}"
        ),
    );
    let mut snap_ms = Vec::new();
    let mut snap_bytes = 0;
    for i in 0..3 {
        let t = Instant::now();
        snap_bytes = spans.time("core.engine_snapshot", i, None, || {
            with.engine.snapshot().len()
        });
        snap_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.metric(
        "core.engine_snapshot_ms",
        median(&snap_ms),
        "median of 3 Engine::snapshot()",
    );
    report.metric("core.engine_snapshot_bytes", snap_bytes as f64, "");
    Ok(())
}

/// `--pin serve`: per failure trace, the warnings of a pass replayed on a
/// fresh engine and of one replayed right after the previous trace in the
/// rotation (checked against a longer history), from the same in-process
/// engine the traced run checks the daemon with.
pub fn pin() -> Result<(), String> {
    let prep = prepare(zoo::geant2012(), &PrepareConfig::default());
    let mut trace = Trace::record(0);
    // Warnings of the `passes`-th pass of the rotation starting at `start`.
    let last_pass = |trace: &mut Trace, start: usize, passes: usize| {
        trace.start = start % FAILURES;
        let len = |k: usize| (0..k).map(|p| trace.pass(p).len()).sum::<usize>();
        let upto = replay(&prep, trace, len(passes), true).warnings;
        let before = replay(&prep, trace, len(passes - 1), true).warnings;
        upto - before
    };
    for k in 0..FAILURES {
        let first = last_pass(&mut trace, k, 1);
        let next = last_pass(&mut trace, k + FAILURES - 1, 2);
        let longer = last_pass(&mut trace, k + FAILURES - 2, 3);
        if next != longer {
            return Err(format!(
                "failure {k}: {next} warnings after one pass, {longer} after two"
            ));
        }
        trace.start = k;
        println!("serve {k} {first} {next} {}", trace.link(0));
    }
    Ok(())
}

//! Measurement from outside the program: timing wrappers around the trait
//! objects the benchmark hands to the program, and an in-memory span log
//! written out when a traced run ends.

use crate::json::{self, Json};
use db_dtree::FlowClassifier;
use db_flowmon::{FeatureVector, FlowStatus};
use db_netsim::{Annotation, HopInfo, Observer, SimTime};
use db_topology::{NodeId, Path, Routes};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Calls and busy time of one wrapped interface.
#[derive(Debug, Default)]
pub struct Probe {
    pub calls: AtomicU64,
    pub ns: AtomicU64,
}

impl Probe {
    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns.fetch_add(ns_since(t), Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        r
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn ms(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// `Prepared::routes` behind a counter and a timer.
#[derive(Debug)]
pub struct TimedRoutes {
    inner: Arc<dyn Routes>,
    pub probe: Probe,
}

impl TimedRoutes {
    pub fn new(inner: Arc<dyn Routes>) -> Self {
        TimedRoutes {
            inner,
            probe: Probe::default(),
        }
    }
}

impl Routes for TimedRoutes {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn path(&self, src: NodeId, dst: NodeId) -> Path {
        self.probe.timed(|| self.inner.path(src, dst))
    }
    fn latency_ms(&self, src: NodeId, dst: NodeId) -> f64 {
        self.probe.timed(|| self.inner.latency_ms(src, dst))
    }
    fn rtt_ms(&self, src: NodeId, dst: NodeId) -> f64 {
        self.probe.timed(|| self.inner.rtt_ms(src, dst))
    }
    fn all_rtts_ms(&self) -> Vec<f64> {
        self.probe.timed(|| self.inner.all_rtts_ms())
    }
}

/// The switches' classifier behind a counter and a timer.
pub struct TimedClassifier<C> {
    inner: C,
    probe: Arc<Probe>,
}

impl<C> TimedClassifier<C> {
    pub fn new(inner: C, probe: Arc<Probe>) -> Self {
        TimedClassifier { inner, probe }
    }
}

impl<C: FlowClassifier> FlowClassifier for TimedClassifier<C> {
    fn classify(&self, x: &FeatureVector) -> FlowStatus {
        self.probe.timed(|| self.inner.classify(x))
    }
}

/// The simulator's observer (the per-switch pipeline) behind timers, so the
/// event loop's own time is `Simulator::run` minus the callbacks.
pub struct TimedObserver<O> {
    pub inner: O,
    pub packet_ns: u64,
    pub packets: u64,
    pub tick_ns: u64,
    pub ticks: u64,
}

impl<O> TimedObserver<O> {
    pub fn new(inner: O) -> Self {
        TimedObserver {
            inner,
            packet_ns: 0,
            packets: 0,
            tick_ns: 0,
            ticks: 0,
        }
    }
}

impl<O: Observer> Observer for TimedObserver<O> {
    fn on_packet(&mut self, now: SimTime, info: &HopInfo, ann: &mut Annotation) {
        let t = Instant::now();
        self.inner.on_packet(now, info, ann);
        self.packet_ns += ns_since(t);
        self.packets += 1;
    }

    fn on_tick(&mut self, now: SimTime) {
        let t = Instant::now();
        self.inner.on_tick(now);
        self.tick_ns += ns_since(t);
        self.ticks += 1;
    }
}

/// One recorded span. The parent is named; it shares the span's id.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    id: u64,
    parent: Option<&'static str>,
    start_us: f64,
    end_us: f64,
}

/// Spans kept in memory for the whole run, written out at its end.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    log: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Record a span of unit/batch `id` that ran from `start` to `end`.
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        let us = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64() * 1e6;
        let span = Span {
            name,
            id,
            parent,
            start_us: us(start),
            end_us: us(end),
        };
        self.log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(span);
    }

    /// Time `f` as a span ending now.
    pub fn time<R>(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<&'static str>,
        f: impl FnOnce() -> R,
    ) -> R {
        let t = Instant::now();
        let r = f();
        self.record(name, id, parent, t, Instant::now());
        r
    }

    pub fn len(&self) -> usize {
        self.log.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Write every span, with the run's fingerprint, to `path`.
    pub fn write(&self, path: &std::path::Path, fingerprint: Json) -> std::io::Result<()> {
        let spans = self.log.lock().unwrap_or_else(|e| e.into_inner());
        let rows = spans
            .iter()
            .map(|s| {
                json::obj([
                    ("name", json::str(s.name)),
                    ("id", Json::Num(s.id as f64)),
                    ("parent", s.parent.map_or(Json::Null, json::str)),
                    ("start_us", Json::Num(s.start_us)),
                    ("end_us", Json::Num(s.end_us)),
                ])
            })
            .collect();
        let doc = json::obj([("fingerprint", fingerprint), ("spans", Json::Arr(rows))]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, json::pretty(&doc))
    }
}

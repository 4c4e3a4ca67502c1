//! The batch workloads: cold `prepare`, then a time-bounded `db-runner`
//! sweep, in this process. The traced run repeats the same units through
//! a unit composed from wrapped trait objects and checks that it
//! reproduces `run_scenario` exactly.

use crate::pins::Pins;
use crate::report::{median, percentile, Report, MIN_BEYOND};
use crate::trace::{Probe, Spans, TimedClassifier, TimedObserver, TimedRoutes};
use crate::Args;
use db_core::classifier::{prepare, timeline, PrepareConfig, Prepared};
use db_core::experiment::{
    covered_links, run_scenario, ScenarioKind, ScenarioOutcome, ScenarioSetup,
};
use db_core::{DriftBottleSystem, Engine, LocalizationMetrics, VariantResult, VariantSpec};
use db_netsim::{SimConfig, Simulator, TrafficConfig, TrafficGen};
use db_runner::SweepBuilder;
use db_topology::{CsrTopology, LinkId, NodeId, OnDemandRoutes, Routes};
use db_util::Pcg64;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sweep workers (the box has two cores).
pub const WORKERS: usize = 2;
/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// A timed segment runs at least this many units, so the median unit time
/// has [`MIN_BEYOND`] samples beyond it.
const MIN_UNITS: usize = 2 * MIN_BEYOND;
/// Covered links the Geant workload fails, evenly spaced over the covered
/// set: one pass takes about the measuring time, so every run covers the
/// same scenarios whatever the seed.
const GEANT_UNITS: usize = 30;
const DENSITY: f64 = 1.0;
/// Units (traffic seed, busiest link) of the scale workload.
const SCALE_UNITS: usize = 8;

/// One sweep unit: what fails, under which traffic, and its pin key.
#[derive(Debug, Clone)]
pub struct Unit {
    pub key: u16,
    pub kind: ScenarioKind,
    pub traffic_seed: u64,
}

struct Shape {
    topo: &'static str,
    variants: fn() -> Vec<VariantSpec>,
    units: fn(&Prepared) -> Vec<Unit>,
}

fn shape(workload: &str) -> Shape {
    match workload {
        "scale-as10k" => Shape {
            topo: "as:10000",
            variants: || vec![VariantSpec::drift_bottle()],
            units: scale_units,
        },
        _ => Shape {
            topo: "geant2012",
            variants: VariantSpec::fig8_set,
            units: geant_units,
        },
    }
}

/// [`GEANT_UNITS`] covered links, evenly spaced over the covered set,
/// under one traffic matrix (the §6 protocol: all scenarios see the same
/// workload).
fn geant_units(prep: &Prepared) -> Vec<Unit> {
    let covered = covered_links(prep);
    let n = GEANT_UNITS.min(covered.len());
    (0..n)
        .map(|i| covered[i * covered.len() / n])
        .map(|l| Unit {
            key: l.0,
            kind: ScenarioKind::SingleLink(l),
            traffic_seed: 1,
        })
        .collect()
}

/// [`SCALE_UNITS`] sampled workloads, each failing the link most of its
/// flows cross. Every unit brings its own 64 flow sources, more than the
/// route cache holds across units, so routing works in every unit. The
/// links are found on a private router, leaving the prepared cache cold.
fn scale_units(prep: &Prepared) -> Vec<Unit> {
    let router =
        OnDemandRoutes::with_capacity(Arc::new(CsrTopology::from_topology(&prep.topo)), 64);
    let traffic = TrafficConfig::with_density(DENSITY);
    (0..SCALE_UNITS)
        .map(|j| {
            let traffic_seed = 1 << 8 | j as u64;
            let flows = TrafficGen::generate_auto(&prep.topo, &router, &traffic, traffic_seed);
            let mut load = vec![0u32; prep.topo.link_count()];
            for f in &flows {
                for l in &f.path.links {
                    load[l.idx()] += 1;
                }
            }
            let busiest = (0..load.len())
                .max_by_key(|&i| (load[i], std::cmp::Reverse(i)))
                .unwrap_or(0);
            let link = LinkId(u16::try_from(busiest).expect("link ids fit u16"));
            Unit {
                key: u16::try_from(j).expect("few units"),
                kind: ScenarioKind::SingleLink(link),
                traffic_seed,
            }
        })
        .collect()
}

/// The units of `workload` in the order `seed` gives them. The unit set is
/// the same for every seed, so a run's mix of scenarios — and its cost —
/// does not depend on the seed; only which units come first does.
pub fn units(workload: &str, prep: &Prepared, seed: u64) -> Vec<Unit> {
    let units = (shape(workload).units)(prep);
    let mut rng = Pcg64::new_stream(seed, 0x0BE7);
    rng.sample_indices(units.len(), units.len())
        .into_iter()
        .map(|i| units[i].clone())
        .collect()
}

/// Cold start: load the topology and train.
pub fn cold_prepare(workload: &str) -> Result<Prepared, String> {
    let topo = db_topology::load::load(shape(workload).topo).map_err(|e| e.to_string())?;
    Ok(prepare(topo, &PrepareConfig::default()))
}

/// FNV-1a over what the §6 protocol reports for a scenario: ground
/// truth, then per variant its name, reported links and F1.
pub fn digest(o: &ScenarioOutcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for l in &o.ground_truth {
        eat(&l.0.to_le_bytes());
    }
    for v in &o.variants {
        eat(v.name.as_bytes());
        eat(&[0xFF]);
        for l in &v.reported {
            eat(&l.0.to_le_bytes());
        }
        eat(&v.metrics.f1.to_bits().to_le_bytes());
    }
    h
}

/// When a segment stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// After about this long, as [`may_stop`] decides.
    After(Duration),
    /// After exactly this many units.
    Units(usize),
}

/// A run of consecutive units from the start of the unit list.
struct Segment {
    /// Per unit position: its outcome, `None` when the unit failed.
    outcomes: Vec<Option<ScenarioOutcome>>,
    unit_s: Vec<f64>,
    /// Summed wall time of the `run_with` calls.
    wall_s: f64,
}

/// Whether a timed segment stops after `done` units of a `len`-unit list
/// that took `wall_s`. It stops only at the end of a pass, so every unit
/// weighs the same in every run, and after [`MIN_UNITS`]: at the pass end
/// nearest `target_s` (the next pass would take the mean pass time so far),
/// so a small change in speed does not add a pass.
fn may_stop(done: usize, len: usize, wall_s: f64, target_s: f64) -> bool {
    if done < MIN_UNITS || !done.is_multiple_of(len) {
        return false;
    }
    let k = (done / len) as f64;
    wall_s >= target_s * 2.0 * k / (2.0 * k + 1.0)
}

/// Run units through `SweepBuilder::run_with`, a pass at a time, so the
/// workers wait for each other once per pass.
fn sweep<F>(
    prep: &Prepared,
    workload: &str,
    units: &[Unit],
    stop: Stop,
    unit_sleep: Duration,
    run: F,
) -> Result<Segment, String>
where
    F: Fn(&ScenarioSetup, &Unit, usize) -> ScenarioOutcome + Sync,
{
    let variants = (shape(workload).variants)();
    let setup = ScenarioSetup::builder(prep)
        .density(DENSITY)
        .variants(variants.clone())
        .build()
        .map_err(|e| e.to_string())?;
    let mut seg = Segment {
        outcomes: Vec::new(),
        unit_s: Vec::new(),
        wall_s: 0.0,
    };
    loop {
        let done = seg.outcomes.len();
        let step = units.len() - done % units.len();
        let n = match stop {
            Stop::After(d) if may_stop(done, units.len(), seg.wall_s, d.as_secs_f64()) => break,
            Stop::Units(n) if done >= n => break,
            Stop::Units(n) => step.min(n - done),
            Stop::After(_) => step,
        };
        let chunk: Vec<&Unit> = (done..done + n).map(|p| &units[p % units.len()]).collect();
        let times = Mutex::new(Vec::with_capacity(n));
        let builder = SweepBuilder::new(workload, prep)
            .density(DENSITY)
            .variants(variants.clone())
            .scenarios(chunk.iter().map(|u| u.kind.clone()))
            .workers(WORKERS);
        let t = Instant::now();
        // Each unit carries its own traffic seed (the scale units differ
        // in traffic), so the job's derived seed is replaced by it.
        let report = builder
            .run_with(|job| {
                let t0 = Instant::now();
                let unit = chunk[job.unit];
                let mut s = setup.clone();
                s.seed = unit.traffic_seed;
                let outcome = run(&s, unit, done + job.unit);
                std::thread::sleep(unit_sleep);
                times
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(t0.elapsed().as_secs_f64());
                outcome
            })
            .map_err(|e| e.to_string())?;
        seg.wall_s += t.elapsed().as_secs_f64();
        seg.unit_s
            .extend(times.into_inner().unwrap_or_else(|e| e.into_inner()));
        let mut slots: Vec<Option<ScenarioOutcome>> = vec![None; n];
        for u in report.units {
            if let Some(o) = u.outcome() {
                slots[u.unit] = Some(o.clone());
            }
        }
        seg.outcomes.extend(slots);
    }
    Ok(seg)
}

/// Check every unit of a segment against its pinned digest.
fn check_pins(report: &mut Report, workload: &str, units: &[Unit], seg: &Segment) {
    let pins = Pins::load();
    for (p, o) in seg.outcomes.iter().enumerate() {
        let u = &units[p % units.len()];
        match (o, pins.unit(workload, u.key)) {
            (None, _) => report.check(false, format!("unit {p} ({:?}) failed", u.kind)),
            (Some(o), Some(w)) => report.check(
                digest(o) == w,
                format!(
                    "unit {p} ({:?}): digest {:016x}, pinned {w:016x}",
                    u.kind,
                    digest(o)
                ),
            ),
            (Some(_), None) => report.check(false, format!("unit key {} is not pinned", u.key)),
        }
    }
}

/// `--trace 0`: the end-to-end metrics.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let w = args.workload.as_str();
    let mut setups = Vec::new();
    let mut prep = None;
    for _ in 0..SETUP_REPS {
        drop(prep.take());
        let t = Instant::now();
        prep = Some(cold_prepare(w)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let prep = prep.expect("at least one set-up");
    report.metric(
        "setup_s",
        median(&setups),
        format!("median of {SETUP_REPS} cold prepare() calls"),
    );
    let units = units(w, &prep, args.seed);
    let seg = sweep(
        &prep,
        w,
        &units,
        Stop::After(Duration::from_secs_f64(args.seconds)),
        args.unit_sleep,
        |s, u, _| run_scenario(s, &u.kind),
    )?;
    check_pins(report, w, &units, &seg);
    let n = seg.outcomes.len();
    report.metric(
        "throughput_per_s",
        n as f64 / seg.wall_s,
        format!(
            "scenarios_per_s: {n} units in {:.3} s, {WORKERS} workers, set-up excluded",
            seg.wall_s
        ),
    );
    let unit_ms: Vec<f64> = seg.unit_s.iter().map(|s| s * 1e3).collect();
    report.percentile("latency_ms_p50", &unit_ms, 0.5);
    report.alias("latency_ms_p50", "sweep unit wall time");
    report.metric(
        "peak_rss_mb",
        crate::host::peak_rss_mb(None).unwrap_or(f64::NAN),
        "this process",
    );
    Ok(())
}

/// Per-unit probes of the composed unit, summed over the traced segment.
#[derive(Debug, Default)]
struct Totals {
    units: u64,
    traffic_ms: f64,
    run_ms: f64,
    packet_ns: u64,
    packets: u64,
    tick_ns: u64,
    ticks: u64,
    events: u64,
    hop_events: u64,
    score_ms: f64,
}

/// `run_scenario`, composed from public parts with the routes, classifier
/// and observer wrapped in timers.
fn composed_unit(
    setup: &ScenarioSetup,
    kind: &ScenarioKind,
    id: u64,
    spans: &Spans,
    classify: &Arc<Probe>,
    totals: &Mutex<Totals>,
) -> ScenarioOutcome {
    let prep = setup.prep;
    let t_unit = Instant::now();
    let traffic = TrafficConfig::with_density(setup.density);
    let t = Instant::now();
    let flows = TrafficGen::generate_auto(&prep.topo, prep.routes.as_ref(), &traffic, setup.seed);
    let traffic_end = Instant::now();
    spans.record("netsim.traffic", id, Some("unit"), t, traffic_end);
    let (t_fail, window, end) = timeline(&prep.wcfg, traffic.start_spread);
    let scenario = kind.build(prep, t_fail);
    let ground_truth = scenario.failed_links_at(&prep.topo, t_fail);
    let mut system = DriftBottleSystem::deploy(
        &prep.topo,
        &flows,
        prep.wcfg,
        TimedClassifier::new(prep.table.clone(), classify.clone()),
        setup.variants.clone(),
        setup.sys.clone(),
        window,
    );
    let cfg = SimConfig {
        end,
        tick_interval: prep.wcfg.interval,
        background_loss: setup.background_loss,
        ..Default::default()
    };
    if let Some(reg) = db_telemetry::active() {
        system.set_metrics(reg);
    }
    let mut sim = Simulator::new(
        &prep.topo,
        flows,
        cfg,
        &scenario,
        setup.seed,
        TimedObserver::new(Engine::new(system)),
    );
    if let Some(reg) = db_telemetry::active() {
        sim.set_metrics(reg);
    }
    let t = Instant::now();
    sim.run();
    let run_end = Instant::now();
    spans.record("netsim.run", id, Some("unit"), t, run_end);
    let (observer, stats) = sim.finish();
    let system = observer.inner.into_system();
    let total_links = prep.topo.link_count();
    let variants: Vec<VariantResult> = system
        .results()
        .map(|(spec, log, ratios)| {
            let reported: Vec<LinkId> = log.reported_links.iter().copied().collect();
            let metrics = LocalizationMetrics::compute(
                reported.iter().copied(),
                ground_truth.iter().copied(),
                total_links,
            );
            let mut pair_counts: Vec<((NodeId, LinkId), u64)> =
                log.by_pair.iter().map(|(k, v)| (*k, v.count)).collect();
            pair_counts.sort_unstable_by_key(|&(k, _)| k);
            VariantResult {
                name: spec.name.clone(),
                reported,
                metrics,
                reported_pairs: log.reported_pairs.iter().copied().collect(),
                pair_counts,
                raises: log.raises,
                ratios: ratios.to_vec(),
            }
        })
        .collect();
    let score_end = Instant::now();
    spans.record("core.score", id, Some("unit"), run_end, score_end);
    spans.record("unit", id, None, t_unit, score_end);
    let mut tot = totals.lock().unwrap_or_else(|e| e.into_inner());
    tot.units += 1;
    tot.traffic_ms += (traffic_end - t_unit).as_secs_f64() * 1e3;
    tot.run_ms += (run_end - t).as_secs_f64() * 1e3;
    tot.packet_ns += observer.packet_ns;
    tot.packets += observer.packets;
    tot.tick_ns += observer.tick_ns;
    tot.ticks += observer.ticks;
    tot.events += stats.events_processed;
    tot.hop_events += stats.hop_events;
    tot.score_ms += (score_end - run_end).as_secs_f64() * 1e3;
    ScenarioOutcome {
        ground_truth,
        t_fail,
        window,
        variants,
        stats,
    }
}

fn counter_delta(a: &db_telemetry::Snapshot, b: &db_telemetry::Snapshot, name: &str) -> f64 {
    (b.counter(name).unwrap_or(0) - a.counter(name).unwrap_or(0)) as f64
}

fn timing_s(s: &db_telemetry::Snapshot, name: &str) -> f64 {
    s.timings
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, t)| t.total_ns as f64 / 1e9)
}

/// Training metrics from registry snapshots taken around one cold,
/// telemetry-on `prepare()` of `prepare_s` seconds.
pub fn report_training(
    report: &mut Report,
    s0: &db_telemetry::Snapshot,
    s1: &db_telemetry::Snapshot,
    prepare_s: f64,
) {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let monitor_s = timing_s(s1, "phase.monitor") - timing_s(s0, "phase.monitor");
    report.metric(
        "core.prepare_s",
        prepare_s,
        "one cold prepare(), telemetry on",
    );
    report.metric(
        "core.prepare_monitor_s_sum",
        monitor_s,
        "phase.monitor span total",
    );
    report.metric(
        "core.prepare_par_eff",
        monitor_s / (workers * prepare_s),
        format!("monitor sum / ({workers} workers x prepare_s)"),
    );
    for (metric, counter) in [
        ("flowmon.register_updates.setup", "flowmon.register_updates"),
        ("flowmon.feature_vectors.setup", "flowmon.feature_vectors"),
    ] {
        report.metric(metric, counter_delta(s0, s1, counter), "during prepare()");
    }
}

/// `--trace 1`: an untraced reference segment, then a traced cold
/// `prepare` and the same units through the composed, wrapped unit.
pub fn run_traced(args: &Args, report: &mut Report, spans: &Spans) -> Result<(), String> {
    let w = args.workload.as_str();
    let half = Duration::from_secs_f64(args.seconds / 2.0);

    // Untraced reference: telemetry off, `run_scenario` as the runner runs it.
    let prep_a = cold_prepare(w)?;
    let units = units(w, &prep_a, args.seed);
    let seg_a = sweep(
        &prep_a,
        w,
        &units,
        Stop::After(half),
        Duration::ZERO,
        |s, u, _| run_scenario(s, &u.kind),
    )?;
    drop(prep_a);
    let n = seg_a.outcomes.len();
    check_pins(report, w, &units, &seg_a);

    // Traced: registry on, spans around every call into a layer.
    db_telemetry::enable();
    let reg = db_telemetry::global();
    let s0 = reg.snapshot();
    let t = Instant::now();
    let mut prep = spans.time("core.prepare", 0, None, || cold_prepare(w))?;
    let prepare_s = t.elapsed().as_secs_f64();
    let s1 = reg.snapshot();
    let routes = Arc::new(TimedRoutes::new(prep.routes.clone()));
    prep.routes = routes.clone() as Arc<dyn Routes>;
    let classify = Arc::new(Probe::default());
    let totals = Mutex::new(Totals::default());
    let seg_b = sweep(
        &prep,
        w,
        &units,
        Stop::Units(n),
        Duration::ZERO,
        |s, u, p| composed_unit(s, &u.kind, p as u64, spans, &classify, &totals),
    )?;
    let s2 = reg.snapshot();
    db_telemetry::disable();

    for (p, (a, b)) in seg_a.outcomes.iter().zip(&seg_b.outcomes).enumerate() {
        report.check(
            a.is_some() && a == b,
            format!("unit {p}: the wrapped unit does not reproduce run_scenario"),
        );
    }

    report_training(report, &s0, &s1, prepare_s);

    let tot = totals.into_inner().unwrap_or_else(|e| e.into_inner());
    let per = |x: f64| x / tot.units.max(1) as f64;
    let note = format!("mean of {} traced units", tot.units);
    let hits = counter_delta(&s1, &s2, "routes.cache_hits");
    let misses = counter_delta(&s1, &s2, "routes.cache_misses");
    report.metric(
        "topology.route_calls",
        per(routes.probe.calls() as f64),
        note.clone(),
    );
    report.metric("topology.route_ms", per(routes.probe.ms()), note.clone());
    report.metric("topology.cache_hits", per(hits), note.clone());
    report.metric("topology.cache_misses", per(misses), note.clone());
    report.metric(
        "topology.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        format!("{hits} hits / {} lookups", hits + misses),
    );
    let observer_ms = (tot.packet_ns + tot.tick_ns) as f64 / 1e6;
    let self_ms = tot.run_ms - observer_ms;
    report.metric("netsim.traffic_ms", per(tot.traffic_ms), note.clone());
    report.metric(
        "netsim.self_ms",
        per(self_ms),
        "Simulator::run minus observer callbacks",
    );
    report.metric("netsim.events", per(tot.events as f64), note.clone());
    report.metric(
        "netsim.hop_events",
        per(tot.hop_events as f64),
        note.clone(),
    );
    report.metric(
        "netsim.ns_per_event",
        self_ms * 1e6 / tot.events.max(1) as f64,
        format!("{} events", tot.events),
    );
    report.metric(
        "core.on_packet_ns",
        tot.packet_ns as f64 / tot.packets.max(1) as f64,
        format!("{} hop events", tot.packets),
    );
    report.metric(
        "core.on_tick_ms",
        per(tot.tick_ns as f64 / 1e6),
        note.clone(),
    );
    report.metric("core.ticks", per(tot.ticks as f64), note.clone());
    let calls = classify.calls.load(Ordering::Relaxed);
    report.metric(
        "dtree.classify_ns",
        classify.ns.load(Ordering::Relaxed) as f64 / calls.max(1) as f64,
        format!("{calls} calls"),
    );
    report.metric("dtree.classifications", per(calls as f64), note.clone());
    for (metric, counter) in [
        ("inference.aggregations", "inference.aggregations"),
        ("inference.topk_truncations", "inference.topk_truncations"),
        ("inference.warnings", "inference.warnings"),
        ("flowmon.register_updates.run", "flowmon.register_updates"),
        ("flowmon.feature_vectors.run", "flowmon.feature_vectors"),
    ] {
        report.metric(metric, per(counter_delta(&s1, &s2, counter)), note.clone());
    }
    report.metric("core.score_ms", per(tot.score_ms), note);

    let p50 = percentile(&seg_a.unit_s, 0.5).map_or_else(|| median(&seg_a.unit_s), |p| p.value);
    report.metric("runner.unit_s_p50", p50, format!("untraced segment, n={n}"));
    report.metric(
        "runner.unit_s_max",
        seg_a.unit_s.iter().copied().fold(0.0, f64::max),
        format!("untraced segment, n={n}"),
    );
    report.metric(
        "runner.busy_frac",
        seg_a.unit_s.iter().sum::<f64>() / (WORKERS as f64 * seg_a.wall_s),
        "unit time / (workers x sweep wall), untraced segment",
    );
    report.metric(
        "trace.overhead_frac",
        seg_b.wall_s / seg_a.wall_s - 1.0,
        format!(
            "same {n} units: traced {:.3} s, untraced {:.3} s",
            seg_b.wall_s, seg_a.wall_s
        ),
    );
    Ok(())
}

/// `--pin`: print the digest of every unit.
pub fn pin(workload: &str) -> Result<(), String> {
    let prep = cold_prepare(workload)?;
    let units = (shape(workload).units)(&prep);
    let seg = sweep(
        &prep,
        workload,
        &units,
        Stop::Units(units.len()),
        Duration::ZERO,
        |s, u, _| run_scenario(s, &u.kind),
    )?;
    for (u, o) in units.iter().zip(&seg.outcomes) {
        let o = o
            .as_ref()
            .ok_or_else(|| format!("unit {:?} failed", u.kind))?;
        println!("{workload} {} {:016x}", u.key, digest(o));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_timed_segment_stops_at_the_pass_end_nearest_its_target() {
        // A 20-unit pass of 7 to 14 s ends a 10 s segment; one of 6 s
        // does not, and the next pass end (12 s) is nearer.
        assert!(may_stop(20, 20, 7.0, 10.0));
        assert!(may_stop(20, 20, 14.0, 10.0));
        assert!(!may_stop(20, 20, 6.0, 10.0));
        assert!(may_stop(40, 20, 12.0, 10.0));
        // Never mid-pass, never below MIN_UNITS.
        assert!(!may_stop(24, 20, 30.0, 10.0));
        assert!(!may_stop(16, 8, 30.0, 10.0));
        assert!(may_stop(24, 8, 18.0, 10.0));
    }
}

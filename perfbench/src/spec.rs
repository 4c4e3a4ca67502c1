//! What the benchmark measures: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric
//! each is expected to move. `BENCHMARK.json` and `LAYERS.md` are rendered
//! from these tables (`--write-manifest`), and a self-test keeps the
//! committed copies in sync.

use crate::json::{self, Json};

/// How a workload drives the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In-process `db-runner` sweep; the daemon is not involved.
    Batch,
    /// Closed loop against a `drift-bottle serve` child: one connection,
    /// a fixed number of batches in flight.
    ServeIngest,
    /// Open loop against a `drift-bottle serve` child at a fixed offered
    /// rate, plus a reader connection.
    ServeMixed,
}

/// One named workload. Every workload reports every end-to-end metric.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Why the workload exists, its loop type and rate (one line).
    pub why: &'static str,
}

/// Whether a larger value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug)]
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// What the metric is on each kind of workload.
    pub meaning: &'static str,
    /// Share of the parent's median by which the metric may worsen. The
    /// CPU-bound metrics carry the largest bound allowed: on a shared
    /// 2-vCPU host the same binary's single-thread speed drifts by
    /// ±15% from one run to the next (README.md, "Noise").
    pub bound: f64,
}

/// A per-layer metric from the traced run.
#[derive(Debug)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric(s) this layer metric should move, and where.
    pub moves: &'static str,
}

/// Seconds one run measures (`run_seconds`).
pub const RUN_SECONDS: u32 = 15;

/// Where the benchmark lives, relative to the repository root.
pub const PATHS: &[&str] = &["perfbench"];

/// The benchmark's command line, before `--workload … --seed … --seconds …
/// --trace …`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sweep-geant",
        kind: Kind::Batch,
        why: "Batch, 2 workers: cold prepare(Geant2012), then a db-runner sweep of 30 covered single-link \
              failures with the Fig. 8 variants. netsim and the per-switch pipeline do the work",
    },
    Workload {
        name: "scale-as10k",
        kind: Kind::Batch,
        why: "Batch, 2 workers: cold prepare(as:10000), then single-link failures on the busiest link of \
              8 sampled workloads, 1 variant. Only workload where Dijkstra and the route cache matter",
    },
    Workload {
        name: "serve-ingest",
        kind: Kind::ServeIngest,
        why: "Closed loop, 1 loopback connection, 8 batches of 2048 records in flight (load_gen sends 8192; \
              2048 gives p99 its 1000 batches): Geant2012 failure traces replayed into a serve child",
    },
    Workload {
        name: "serve-mixed",
        kind: Kind::ServeMixed,
        why: "Open loop, 300000 rec/s in 2048-record batches; a 2nd connection sends a PulseReq per ack (a \
              PulseSub's load), StatsReq every 1 s (top), SnapshotReq every 250 ms",
    },
];

/// The end-to-end metrics. Every workload reports all of them, so each is
/// defined on both kinds of workload: a batch workload's operation is a
/// sweep unit, a serve workload's is a batch of records.
pub const E2E: &[E2e] = &[
    E2e {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        meaning: "cold start until ready: median of 3 cold prepare() calls (batch) or of 3 daemon \
                  spawns until HelloAck (serve)",
        bound: 0.25,
    },
    E2e {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        meaning:
            "peak RSS (VmHWM) of the process under test: this process (batch), the daemon (serve)",
        bound: 0.1,
    },
    E2e {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        meaning: "sweep units completed per second of sweep wall time, set-up excluded (batch); \
                  records acked per second (serve; fixed by the offered rate on serve-mixed)",
        bound: 0.25,
    },
    E2e {
        name: "latency_ms_p50",
        unit: "ms",
        better: Better::Lower,
        meaning:
            "median of one sweep unit's wall time (batch), one batch's send -> IngestAck round \
                  trip (serve-ingest), one batch's due time -> IngestAck (serve-mixed)",
        bound: 0.25,
    },
];

const TRAIN: &str = "setup_s on every workload, most on scale-as10k";
const ROUTING: &str =
    "throughput_per_s, latency_ms_p50 and setup_s on scale-as10k; ~0 on sweep-geant, none on serve-*";
const SIM: &str =
    "throughput_per_s, latency_ms_p50 on sweep-geant and scale-as10k; none on serve-*";
const DAEMON: &str =
    "throughput_per_s, latency_ms_p50 on serve-ingest; latency_ms_p50 on serve-mixed";
const TAILS: &str =
    "the serve.* tail and reader metrics, latency_ms_p50 on serve-mixed, peak_rss_mb on serve-*";
const INGEST_TAIL: &str = "tail of latency_ms_p50 on serve-ingest (0 elsewhere)";
const MIXED_TAIL: &str = "tail of latency_ms_p50 on serve-mixed (0 elsewhere)";
const READERS: &str = "readers beside latency_ms_p50 on serve-mixed (0 elsewhere)";
const SUBS: &str = "not exercised (0): no connection holds a PulseSub, see README.md";

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

pub const LAYERS: &[Layer] = &[
    // Training (`classifier::prepare`).
    layer("core.prepare_s", "s", Lower, TRAIN),
    layer("core.prepare_monitor_s_sum", "s", Lower, TRAIN),
    layer("core.prepare_par_eff", "ratio", Higher, TRAIN),
    layer("flowmon.register_updates.setup", "count", Lower, TRAIN),
    layer("flowmon.feature_vectors.setup", "count", Lower, TRAIN),
    // Routing and the LRU route cache.
    layer("topology.route_calls", "count/unit", Lower, ROUTING),
    layer("topology.route_ms", "ms/unit", Lower, ROUTING),
    layer("topology.cache_hits", "count/unit", Higher, ROUTING),
    layer("topology.cache_misses", "count/unit", Lower, ROUTING),
    layer("topology.cache_hit_ratio", "ratio", Higher, ROUTING),
    // Simulator.
    layer("netsim.traffic_ms", "ms/unit", Lower, SIM),
    layer("netsim.self_ms", "ms/unit", Lower, SIM),
    layer("netsim.events", "count/unit", Lower, SIM),
    layer("netsim.hop_events", "count/unit", Lower, SIM),
    layer("netsim.ns_per_event", "ns", Lower, SIM),
    // Per-switch pipeline in batch runs.
    layer("core.on_packet_ns", "ns", Lower, SIM),
    layer("core.on_tick_ms", "ms/unit", Lower, SIM),
    layer("core.ticks", "count/unit", Lower, SIM),
    layer("dtree.classify_ns", "ns", Lower, SIM),
    layer("dtree.classifications", "count/unit", Lower, SIM),
    layer("inference.aggregations", "count/unit", Lower, SIM),
    layer("inference.topk_truncations", "count/unit", Lower, SIM),
    layer("inference.warnings", "count/unit", Lower, SIM),
    layer("flowmon.register_updates.run", "count/unit", Lower, SIM),
    layer("flowmon.feature_vectors.run", "count/unit", Lower, SIM),
    layer("core.score_ms", "ms/unit", Lower, SIM),
    // Runner.
    layer("runner.unit_s_p50", "s", Lower, SIM),
    layer("runner.unit_s_max", "s", Lower, SIM),
    layer("runner.busy_frac", "ratio", Higher, SIM),
    // Daemon path.
    layer("serve.frame_decode_ns_per_rec", "ns", Lower, DAEMON),
    layer("serve.frame_encode_ns_per_rec", "ns", Lower, DAEMON),
    layer("core.engine_record_ns", "ns", Lower, DAEMON),
    layer("telemetry.scope_ns_per_rec", "ns", Lower, DAEMON),
    layer("serve.batch_us_p50", "us", Lower, DAEMON),
    layer("serve.wait_ms_p50", "ms", Lower, DAEMON),
    // Daemon tails and readers. They are end-to-end figures of the serve
    // workloads alone, so they are reported by the traced run: every
    // end-to-end metric has to be defined on every workload.
    layer("serve.batch_rtt_ms_p99", "ms", Lower, INGEST_TAIL),
    layer("serve.lat_ms_p99", "ms", Lower, MIXED_TAIL),
    layer("serve.pulse_lag_ms_p95", "ms", Lower, READERS),
    layer("serve.snapshot_ms_p50", "ms", Lower, READERS),
    layer("core.engine_tick_us_p50", "us", Lower, TAILS),
    layer("core.engine_tick_us_max", "us", Lower, TAILS),
    layer("core.engine_snapshot_ms", "ms", Lower, TAILS),
    layer("core.engine_snapshot_bytes", "bytes", Lower, TAILS),
    layer("core.engine_carriers_peak", "count", Lower, TAILS),
    layer("serve.batch_us_p99", "us", Lower, TAILS),
    layer("serve.slow_ticks", "count", Lower, TAILS),
    layer("serve.sub_dropped", "count", Lower, SUBS),
    layer("serve.pulse_lag_windows_max", "windows", Lower, SUBS),
    layer("serve.pulse_frames", "count", Higher, TAILS),
    layer("serve.pulse_points", "count", Higher, TAILS),
    // Validity of the measurement itself.
    layer(
        "gen.send_lag_ms_p99",
        "ms",
        Lower,
        "validity of latency_ms_p50 and serve.lat_ms_p99 on serve-mixed",
    ),
    layer(
        "gen.send_lag_ms_max",
        "ms",
        Lower,
        "validity of latency_ms_p50 and serve.lat_ms_p99 on serve-mixed",
    ),
    layer(
        "trace.overhead_frac",
        "ratio",
        Lower,
        "validity: traced against untraced work rate (batch; 0 on serve-*, untraced daemon)",
    ),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn e2e(name: &str) -> Option<&'static E2e> {
    E2E.iter().find(|m| m.name == name)
}

pub fn layer_spec(name: &str) -> Option<&'static Layer> {
    LAYERS.iter().find(|m| m.name == name)
}

/// The `BENCHMARK.json` document.
pub fn manifest() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| json::str(s)).collect());
    json::obj([
        ("command", strs(COMMAND)),
        ("paths", strs(PATHS)),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| json::obj([("name", json::str(w.name)), ("why", json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                E2E.iter()
                    .map(|m| {
                        json::obj([
                            ("name", json::str(m.name)),
                            ("unit", json::str(m.unit)),
                            ("better", json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                LAYERS
                    .iter()
                    .map(|m| {
                        json::obj([
                            ("name", json::str(m.name)),
                            ("unit", json::str(m.unit)),
                            ("better", json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `BENCHMARK.json` as committed: one key per line at the top level.
pub fn manifest_text() -> String {
    json::pretty(&manifest())
}

/// The layer-metric → end-to-end-metric → workload table, as Markdown.
pub fn layers_markdown() -> String {
    let mut s = String::from(
        "# Per-layer metrics\n\n\
         Generated by `cargo run --release --manifest-path perfbench/Cargo.toml -- --write-manifest`\n\
         from `perfbench/src/spec.rs`; do not edit by hand.\n\n\
         Each metric comes from the traced run (`--trace 1`) and names the end-to-end metric it\n\
         should move, and on which workload. A layer a workload does not exercise reports 0.\n\
         `/unit` means a mean per sweep unit.\n\n\
         | metric | unit | better | moves |\n|---|---|---|---|\n",
    );
    for m in LAYERS {
        s.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        ));
    }
    s.push_str(
        "\n# End-to-end metrics\n\n\
         Every workload reports all of them (`--trace 0`).\n\n\
         | metric | unit | better | bound | meaning |\n|---|---|---|---|---|\n",
    );
    for m in E2E {
        s.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.meaning
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = E2E
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(LAYERS.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "-")));
        for (n, u) in names {
            assert!(name_ok(n), "bad name {n}");
            assert!(unit_ok(u), "bad unit {u:?} of {n}");
            assert!(seen.insert(n), "name {n} used twice");
        }
    }

    #[test]
    fn limits_of_the_manifest_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&E2E.len()));
        assert!((1..=128).contains(&LAYERS.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in E2E {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = e2e("setup_s").expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(E2E.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest_text().len() <= 64 * 1024);
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|a| a.len() <= 200));
    }

    #[test]
    fn committed_manifest_round_trips() {
        let committed = include_str!("../../BENCHMARK.json");
        let parsed = json::parse(committed).expect("BENCHMARK.json parses");
        assert_eq!(
            parsed,
            manifest(),
            "BENCHMARK.json is stale: run --write-manifest"
        );
        assert_eq!(json::parse(&json::pretty(&parsed)).as_ref(), Ok(&parsed));
        let keys: Vec<&str> = json::keys(&parsed);
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn committed_layer_table_is_current() {
        assert_eq!(
            include_str!("../LAYERS.md"),
            layers_markdown(),
            "perfbench/LAYERS.md is stale: run --write-manifest"
        );
    }
}

//! Ground-truth labeling and dataset assembly.
//!
//! §4.1: "During offline training, we label a record of features as abnormal
//! if the packets from corresponding unidirectional flow cannot reach the
//! monitor at the time due to failures. Otherwise, it is labeled as normal."
//!
//! Concretely, a (switch, flow, interval) row is **abnormal** iff
//!
//! 1. the flow was live during the interval (it had started and had not
//!    naturally finished sending — a flow that simply ended is *normal*), and
//! 2. some ground-truth failed link lay on the flow's **upstream** path
//!    w.r.t. the monitoring switch for the whole interval.
//!
//! §6.1: "The generated dataset is divided into a training set and a testing
//! set at the ratio of 3:1."

use crate::monitor::{MonitorRow, NetworkMonitor};
use crate::window::FeatureVector;
use db_netsim::{FailureScenario, FlowId, FlowSpec, SimStats, SimTime};
use db_topology::{NodeId, Topology};
use db_util::Pcg64;

/// Classifier target: the status of a monitored flow in a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowStatus {
    /// The flow behaves as its transport would on a healthy path.
    Normal,
    /// Packets of the flow fail to reach the monitor because of a failure.
    Abnormal,
}

/// One labeled sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The monitoring switch.
    pub switch: NodeId,
    /// The monitored flow.
    pub flow: FlowId,
    /// Tick time (end of the sampled interval).
    pub at: SimTime,
    /// Feature vector (Table 2).
    pub features: FeatureVector,
    /// Ground-truth label.
    pub label: FlowStatus,
}

/// Labels monitoring rows against a failure scenario.
///
/// §4.1's criterion is physical: a window is abnormal iff "the packets from
/// the corresponding unidirectional flow **cannot reach the monitor** at the
/// time due to failures". A failure on a distant upstream link does not
/// silence the monitor instantly — packets already past the failed link keep
/// arriving for as long as the propagation from that link to the monitor.
/// On topologies with very long links (Tinet's 78 ms bridges) that in-flight
/// tail spans many sampling intervals, so the labeler shifts each failure's
/// visibility horizon by the link-to-monitor propagation delay.
pub struct Labeler<'a> {
    topo: &'a Topology,
    interval: SimTime,
    starts: Vec<SimTime>,
    finished_at: Vec<Option<SimTime>>,
    /// Active spans per link, expanded over node failures: `(from, until)`.
    spans: std::collections::BTreeMap<db_topology::LinkId, Vec<(SimTime, Option<SimTime>)>>,
}

impl<'a> Labeler<'a> {
    /// Build a labeler from the scenario and the post-run statistics (which
    /// carry each flow's natural completion time).
    pub fn new(
        topo: &'a Topology,
        scenario: &'a FailureScenario,
        flows: &[FlowSpec],
        stats: &SimStats,
        interval: SimTime,
    ) -> Self {
        assert_eq!(
            flows.len(),
            stats.finished_at.len(),
            "stats must come from the same flow table"
        );
        let mut spans: std::collections::BTreeMap<_, Vec<(SimTime, Option<SimTime>)>> =
            std::collections::BTreeMap::new();
        for e in &scenario.events {
            let links: Vec<db_topology::LinkId> = match e.kind {
                db_netsim::FailureKind::LinkDown(l) => vec![l],
                db_netsim::FailureKind::LinkCorrupt(l, rate) => {
                    if rate >= db_netsim::failure::MIN_CORRUPT_RATE {
                        vec![l]
                    } else {
                        vec![]
                    }
                }
                db_netsim::FailureKind::NodeDown(n) => topo.incident_links(n),
            };
            for l in links {
                spans.entry(l).or_default().push((e.at, e.repair_at));
            }
        }
        Labeler {
            topo,
            interval,
            starts: flows.iter().map(|f| f.start).collect(),
            finished_at: stats.finished_at.clone(),
            spans,
        }
    }

    /// Label one row given the flow's upstream links at the monitoring
    /// switch, in path order (source side first).
    pub fn label(
        &self,
        flow: FlowId,
        upstream: &[db_topology::LinkId],
        tick: SimTime,
    ) -> FlowStatus {
        let interval_start = tick.saturating_sub(self.interval);
        // Live during the interval?
        let started = self.starts[flow.idx()] < tick;
        let finished_before = self.finished_at[flow.idx()]
            .map(|t| t < interval_start)
            .unwrap_or(false);
        if !started || finished_before {
            return FlowStatus::Normal;
        }
        if self.spans.is_empty() {
            return FlowStatus::Normal;
        }
        // Walk the upstream path monitor-side first, accumulating the
        // propagation delay from each link to the monitor.
        let mut suffix_ms = 0.0;
        for l in upstream.iter().rev() {
            let lat = self.topo.link(*l).latency_ms;
            if let Some(spans) = self.spans.get(l) {
                // The last packets launched just before the failure need the
                // link's own propagation plus the rest of the path to reach
                // the monitor; only after that is the monitor truly silenced.
                let visible_delay = SimTime::from_ms_f64(suffix_ms + lat);
                for &(from, until) in spans {
                    let visible_from = from + visible_delay;
                    let covers_interval =
                        visible_from <= interval_start && until.is_none_or(|u| tick <= u);
                    if covers_interval {
                        return FlowStatus::Abnormal;
                    }
                }
            }
            suffix_ms += lat;
        }
        FlowStatus::Normal
    }
}

/// A labeled dataset.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// All samples.
    pub samples: Vec<Sample>,
}

impl Dataset {
    /// Label every collected monitoring row.
    pub fn from_rows(rows: &[MonitorRow], monitor: &NetworkMonitor, labeler: &Labeler) -> Self {
        let samples = rows
            .iter()
            .map(|r| {
                let upstream = monitor
                    .upstream(r.switch, r.flow)
                    .expect("row produced by a registered flow");
                Sample {
                    switch: r.switch,
                    flow: r.flow,
                    at: r.at,
                    features: r.features,
                    label: labeler.label(r.flow, upstream, r.at),
                }
            })
            .collect();
        Dataset { samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// `(normal, abnormal)` counts.
    pub fn class_counts(&self) -> (usize, usize) {
        let abnormal = self
            .samples
            .iter()
            .filter(|s| s.label == FlowStatus::Abnormal)
            .count();
        (self.samples.len() - abnormal, abnormal)
    }
}

/// The §6.1 3:1 split with training-side class balancing, as index
/// vectors over `labels` (one label per sample, in dataset order), so no
/// sample is copied.
///
/// Shuffles `0..labels.len()`, cuts the first `train_fraction` (rounded)
/// for training, then downsamples the training side's majority class to at
/// most `ratio` times its minority class (unless the minority is empty or
/// the majority is already within the cap). Returns `(train, test)`:
/// `train` lists the kept training samples in shuffled order, `test` the
/// held-out samples in shuffled order.
pub fn split_balanced(
    labels: &[FlowStatus],
    train_fraction: f64,
    ratio: f64,
    rng: &mut Pcg64,
) -> (Vec<usize>, Vec<usize>) {
    assert!(
        (0.0..=1.0).contains(&train_fraction),
        "train fraction must be in [0,1]"
    );
    assert!(ratio >= 1.0, "ratio must be at least 1");
    let mut idx: Vec<usize> = (0..labels.len()).collect();
    rng.shuffle(&mut idx);
    let cut = (labels.len() as f64 * train_fraction).round() as usize;
    let test = idx.split_off(cut);
    let mut train = idx;

    let abnormal = train
        .iter()
        .filter(|&&i| labels[i] == FlowStatus::Abnormal)
        .count();
    let normal = train.len() - abnormal;
    let (major, minor, major_label) = if normal >= abnormal {
        (normal, abnormal, FlowStatus::Normal)
    } else {
        (abnormal, normal, FlowStatus::Abnormal)
    };
    if minor == 0 || (major as f64) <= ratio * minor as f64 {
        return (train, test);
    }
    let keep_major = (ratio * minor as f64).round() as usize;
    // Positions (within `train`) of the majority class; draw which of
    // them survive, then filter `train` in place, keeping its order.
    let major_pos: Vec<usize> = (0..train.len())
        .filter(|&p| labels[train[p]] == major_label)
        .collect();
    let mut keep = vec![false; train.len()];
    for c in rng.sample_indices(major_pos.len(), keep_major) {
        keep[major_pos[c]] = true;
    }
    let mut p = 0;
    train.retain(|&i| {
        let kept = labels[i] != major_label || keep[p];
        p += 1;
        kept
    });
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowConfig;
    use db_netsim::{SimConfig, Simulator, TrafficConfig, TrafficGen};
    use db_topology::{zoo, LinkId, RouteTable};

    /// End-to-end: simulate a failing line network, label, and check the
    /// labels match physical intuition.
    fn build_line_dataset(seed: u64) -> (Dataset, Vec<FlowSpec>) {
        let topo = zoo::line(4);
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), seed);
        let wcfg = WindowConfig::for_network(&routes, SimTime::from_ms(4));
        let nm = NetworkMonitor::deploy(&topo, &flows, wcfg);
        let scenario = FailureScenario::single_link(LinkId(1), SimTime::from_ms(100));
        let cfg = SimConfig {
            end: SimTime::from_ms(200),
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, flows.clone(), cfg, &scenario, seed, nm);
        sim.run();
        let (nm, stats) = sim.finish();
        let labeler = Labeler::new(&topo, &scenario, &flows, &stats, SimTime::from_ms(4));
        let ds = Dataset::from_rows(&nm.rows, &nm, &labeler);
        (ds, flows)
    }

    #[test]
    fn labels_follow_failure_geometry() {
        let (ds, flows) = build_line_dataset(1);
        assert!(!ds.is_empty());
        let (normal, abnormal) = ds.class_counts();
        assert!(normal > 0 && abnormal > 0, "both classes must appear");
        assert!(normal > abnormal, "normal dominates (imbalance of §6.3)");
        // Abnormal rows only appear after the failure, at monitors whose
        // upstream part of the flow path contains the failed link l1.
        for s in ds
            .samples
            .iter()
            .filter(|s| s.label == FlowStatus::Abnormal)
        {
            assert!(
                s.at > SimTime::from_ms(100),
                "abnormal before failure at {}",
                s.at
            );
            let flow = &flows[s.flow.idx()];
            let upstream = flow
                .path
                .upstream_links(s.switch)
                .expect("monitor lies on the flow path");
            assert!(
                upstream.contains(&LinkId(1)),
                "abnormal at {:?} but l1 is not upstream for flow {:?}",
                s.switch,
                flow.id
            );
        }
    }

    #[test]
    fn ingress_switch_rows_are_always_normal() {
        // At a flow's ingress switch the upstream path is empty, so no
        // failure can make it abnormal (§2.2).
        let (ds, flows) = build_line_dataset(2);
        for s in &ds.samples {
            let flow = &flows[s.flow.idx()];
            if s.switch == flow.src {
                assert_eq!(s.label, FlowStatus::Normal);
            }
        }
    }

    #[test]
    fn split_preserves_size_and_disjointness() {
        let (ds, _) = build_line_dataset(3);
        let labels: Vec<FlowStatus> = ds.samples.iter().map(|s| s.label).collect();
        let mut rng = Pcg64::new(7);
        // An infinite cap keeps the whole training side.
        let (train, test) = split_balanced(&labels, 0.75, f64::INFINITY, &mut rng);
        assert_eq!(train.len() + test.len(), ds.len());
        let expected = (ds.len() as f64 * 0.75).round() as usize;
        assert_eq!(train.len(), expected);
        let mut all: Vec<usize> = train.into_iter().chain(test).collect();
        all.sort_unstable();
        assert_eq!(all, (0..ds.len()).collect::<Vec<_>>());
    }

    #[test]
    fn balanced_caps_majority() {
        let (ds, _) = build_line_dataset(4);
        let labels: Vec<FlowStatus> = ds.samples.iter().map(|s| s.label).collect();
        let mut rng = Pcg64::new(8);
        let (train, test) = split_balanced(&labels, 1.0, 3.0, &mut rng);
        assert!(test.is_empty());
        let a = train
            .iter()
            .filter(|&&i| labels[i] == FlowStatus::Abnormal)
            .count();
        let n = train.len() - a;
        assert!(a > 0);
        assert!(
            n as f64 <= 3.0 * a as f64 + 1.0,
            "normal {n} vs abnormal {a}"
        );
        // All abnormal samples kept.
        assert_eq!(a, ds.class_counts().1);
    }

    /// A seeded synthetic dataset: `n` samples, each abnormal with
    /// probability `p_abnormal`; sample `i` carries `FlowId(i)` so a pick
    /// names the sample it came from.
    fn synthetic(n: u32, p_abnormal: f64, seed: u64) -> Dataset {
        let mut rng = Pcg64::new(seed);
        let samples = (0..n)
            .map(|i| Sample {
                switch: NodeId(0),
                flow: FlowId(i),
                at: SimTime::from_ms(u64::from(i)),
                features: [0.0; crate::window::NUM_FEATURES],
                label: if rng.chance(p_abnormal) {
                    FlowStatus::Abnormal
                } else {
                    FlowStatus::Normal
                },
            })
            .collect();
        Dataset { samples }
    }

    /// Picks of `split_balanced` on a synthetic dataset, as sample ids.
    fn picks(n: u32, p_abnormal: f64, seed: u64, ratio: f64) -> (Vec<u32>, Vec<u32>) {
        let ds = synthetic(n, p_abnormal, seed);
        let labels: Vec<FlowStatus> = ds.samples.iter().map(|s| s.label).collect();
        let mut rng = Pcg64::new(seed + 100);
        let (train, test) = split_balanced(&labels, 0.75, ratio, &mut rng);
        let ids = |v: &[usize]| v.iter().map(|&i| ds.samples[i].flow.0).collect();
        (ids(&train), ids(&test))
    }

    fn digest(ids: &[u32]) -> u64 {
        let bytes: Vec<u8> = ids.iter().flat_map(|x| x.to_be_bytes()).collect();
        db_util::wire::fnv1a64(&bytes)
    }

    /// The expected picks below were captured from the copying
    /// `Dataset::split` followed by `Dataset::balanced` that
    /// `split_balanced` replaced: same draws, same samples, same order.
    #[test]
    fn split_balanced_matches_the_copying_split() {
        // Downsampling branch (35 normal vs 5 abnormal, cap 2:1).
        let (train, test) = picks(40, 0.15, 21, 2.0);
        assert_eq!(train, [28, 3, 8, 36, 34, 39, 7, 19, 22, 9, 21, 33]);
        assert_eq!(test, [0, 11, 12, 35, 31, 10, 32, 6, 2, 14]);
        // Keep-all branch: the same split, already within an 8:1 cap.
        let (train, test) = picks(40, 0.15, 21, 8.0);
        assert_eq!(
            train,
            [
                25, 24, 28, 3, 4, 8, 36, 17, 13, 30, 34, 23, 39, 37, 29, 26, 18, 7, 5, 19, 1, 27,
                15, 38, 22, 16, 20, 9, 21, 33
            ]
        );
        assert_eq!(test, [0, 11, 12, 35, 31, 10, 32, 6, 2, 14]);
        // Larger sets: normal majority downsampled, within the cap, an
        // abnormal majority downsampled, and no minority at all.
        for (n, p, seed, len, dtrain, dtest) in [
            (
                5000,
                0.07,
                22,
                1315,
                0x5bba_e822_140d_59fe,
                0x9ab7_99a7_c506_57a2,
            ),
            (
                5000,
                0.3,
                23,
                3750,
                0x3d3c_4cd9_0700_af04,
                0xee17_d215_6c8f_534c,
            ),
            (
                5000,
                0.9,
                24,
                1965,
                0xe05e_e6af_a3b9_85e4,
                0xfd5f_6e02_7962_e057,
            ),
            (
                300,
                0.0,
                25,
                225,
                0x50b3_0f91_dcf9_39ce,
                0x3787_dbc0_f1ff_444a,
            ),
        ] {
            let (train, test) = picks(n, p, seed, 4.0);
            assert_eq!(train.len(), len, "n={n} p={p}");
            assert_eq!(test.len(), n as usize / 4, "n={n} p={p}");
            assert_eq!(
                (digest(&train), digest(&test)),
                (dtrain, dtest),
                "n={n} p={p}"
            );
        }
    }

    #[test]
    fn no_failure_means_all_normal() {
        let topo = zoo::line(3);
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), 5);
        let wcfg = WindowConfig::for_network(&routes, SimTime::from_ms(4));
        let nm = NetworkMonitor::deploy(&topo, &flows, wcfg);
        let scenario = FailureScenario::none();
        let cfg = SimConfig {
            end: SimTime::from_ms(100),
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, flows.clone(), cfg, &scenario, 5, nm);
        sim.run();
        let (nm, stats) = sim.finish();
        let labeler = Labeler::new(&topo, &scenario, &flows, &stats, SimTime::from_ms(4));
        let ds = Dataset::from_rows(&nm.rows, &nm, &labeler);
        assert!(!ds.is_empty());
        assert_eq!(ds.class_counts().1, 0);
    }

    #[test]
    fn finished_flow_is_normal_even_under_failure() {
        // Construct the check directly on the labeler.
        let topo = zoo::line(3);
        let scenario = FailureScenario::single_link(LinkId(0), SimTime::from_ms(10));
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), 6);
        let mut stats = SimStats {
            finished_at: vec![None; flows.len()],
            ..Default::default()
        };
        // Flow 0 finished naturally at 20 ms.
        stats.finished_at[0] = Some(SimTime::from_ms(20));
        let labeler = Labeler::new(&topo, &scenario, &flows, &stats, SimTime::from_ms(4));
        let upstream = [LinkId(0)];
        // Interval ending at 50 ms: failure active, but the flow is long done.
        assert_eq!(
            labeler.label(FlowId(0), &upstream, SimTime::from_ms(50)),
            FlowStatus::Normal
        );
        // While it was live, the same geometry is abnormal.
        assert_eq!(
            labeler.label(FlowId(0), &upstream, SimTime::from_ms(18)),
            FlowStatus::Abnormal
        );
        // Before the failure: normal.
        assert_eq!(
            labeler.label(FlowId(0), &upstream, SimTime::from_ms(8)),
            FlowStatus::Normal
        );
        // Empty upstream (ingress): normal.
        assert_eq!(
            labeler.label(FlowId(0), &[], SimTime::from_ms(18)),
            FlowStatus::Normal
        );
    }
}

//! Percentiles, output checks, and the result line.

use crate::json::{self, Json};
use crate::spec;

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// A percentile with the sample base it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub n: usize,
    pub beyond: usize,
}

/// The nearest-rank `q`-quantile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie above its rank. A failed operation enters as
/// `f64::INFINITY`, so it misses every limit.
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Pct {
        value: v[rank - 1],
        n,
        beyond,
    })
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// Everything one run reports: metrics, operation counts, failed checks.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Report {
    /// Record a metric; its unit comes from the spec tables. A value that
    /// could not be measured is a failed check, never a number.
    pub fn metric(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        if !value.is_finite() {
            self.check(false, format!("{name}: no finite value measured"));
            return;
        }
        let unit = spec::e2e(name)
            .map(|m| m.unit)
            .or_else(|| spec::layer_spec(name).map(|m| m.unit))
            .unwrap_or_else(|| panic!("metric {name} is not in the spec"));
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    /// Record the `q`-quantile of `samples` as `name`, stating its sample
    /// base and the neighbouring percentiles; too few samples beyond it is
    /// a failed check.
    pub fn percentile(&mut self, name: &'static str, samples: &[f64], q: f64) {
        match percentile(samples, q) {
            Some(p) if p.value.is_finite() => {
                let others: Vec<String> = [0.5, 0.9, 0.95, 0.99]
                    .iter()
                    .filter_map(|&o| {
                        percentile(samples, o)
                            .map(|x| format!("p{} {:.3}", (o * 100.0).round(), x.value))
                    })
                    .collect();
                self.metric(
                    name,
                    p.value,
                    format!("n={}, {} beyond; {}", p.n, p.beyond, others.join(", ")),
                )
            }
            Some(p) => self.check(
                false,
                format!(
                    "{name}: a failed operation sits at the percentile (n={})",
                    p.n
                ),
            ),
            None => self.check(
                false,
                format!(
                    "{name}: {} samples leave fewer than {MIN_BEYOND} beyond the percentile",
                    samples.len()
                ),
            ),
        }
    }

    /// Prefix a metric's note with the workload-specific figure it stands
    /// for.
    pub fn alias(&mut self, name: &str, alias: &str) {
        if let Some(m) = self.metrics.iter_mut().find(|m| m.name == name) {
            m.note = format!("{alias}: {}", m.note);
        }
    }

    /// Count one checked operation; a failure is kept with its reason.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what.into());
        }
    }

    /// Count `n` operations of which `failed` failed, for `what`.
    pub fn checks(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            self.problems.push(format!("{failed} of {n} {what} failed"));
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        json::obj([("value", Json::Num(m.value)), ("unit", json::str(m.unit))]),
                    )
                })
                .collect(),
        );
        json::compact(&json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ]))
    }

    /// Human-readable lines printed before the result line.
    pub fn human(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            s.push_str(&format!(
                "  {:<34} {:>16.6} {}{note}\n",
                m.name, m.value, m.unit
            ));
        }
        s.push_str(&format!(
            "  checks: {} attempted, {} failed\n",
            self.attempted, self.failed
        ));
        for p in &self.problems {
            s.push_str(&format!("  FAILED: {p}\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&xs, 0.99).expect("1000 samples carry a p99");
        assert_eq!((p99.value, p99.n, p99.beyond), (990.0, 1000, 10));
        assert!(percentile(&xs[..999], 0.99).is_none());
        let p50 = percentile(&xs[..21], 0.5).expect("21 samples carry a median");
        assert_eq!((p50.value, p50.beyond), (11.0, 10));
        assert!(percentile(&xs[..19], 0.5).is_none());
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn failed_operations_miss_every_limit() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs[0] = f64::INFINITY;
        assert_eq!(percentile(&xs, 0.5).map(|p| p.value), Some(51.0));
        let mut r = Report::default();
        r.percentile("latency_ms_p50", &vec![f64::INFINITY; 40], 0.5);
        assert!(!r.correct() && r.metrics.is_empty());
    }

    #[test]
    fn a_percentile_states_its_sample_count() {
        let mut r = Report::default();
        let xs: Vec<f64> = (0..2000).map(f64::from).collect();
        r.percentile("serve.batch_rtt_ms_p99", &xs, 0.99);
        r.percentile("serve.batch_rtt_ms_p99", &xs[..500], 0.99);
        assert_eq!(r.metrics.len(), 1);
        assert!(r.metrics[0]
            .note
            .starts_with("n=2000, 20 beyond; p50 999.000"));
        assert!(r.human().contains("n=2000, 20 beyond"));
        assert_eq!(r.failed, 1);
        r.alias("serve.batch_rtt_ms_p99", "batch_rtt_ms_p99");
        assert!(r.metrics[0]
            .note
            .starts_with("batch_rtt_ms_p99: n=2000, 20 beyond"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.metric("setup_s", 0.812_345_678_9, "");
        r.check(true, "unit 0");
        let line = r.result_line();
        let v = json::parse(&line).expect("result line is JSON");
        assert_eq!(
            json::keys(&v),
            ["correct", "attempted", "failed", "metrics"]
        );
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.812_345_678_9));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

//! The reporting rule: how samples become metrics, how failures are
//! counted, and the result line the benchmark ends with.

use multiem_serve::metrics::percentile_ms;

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [(&str, f64); 4] =
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9), ("p75", 0.75)];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// One timing, summarised: the median, the highest percentile with at
/// least [`MIN_BEYOND`] samples beyond it (the maximum when no percentile
/// qualifies), the maximum, and the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median in milliseconds.
    pub p50_ms: f64,
    /// Which percentile `tail_ms` is (`"p99"`, ..., or `"max"`).
    pub tail_label: &'static str,
    /// The tail percentile in milliseconds.
    pub tail_ms: f64,
    /// Largest sample in milliseconds.
    pub max_ms: f64,
}

impl Summary {
    /// Summarise nanosecond samples (any order).
    pub fn of(mut samples_ns: Vec<u64>) -> Self {
        samples_ns.sort_unstable();
        let n = samples_ns.len();
        let (tail_label, tail_q) = TAIL_LADDER
            .iter()
            .copied()
            .find(|&(_, q)| beyond(n, q) >= MIN_BEYOND)
            .unwrap_or(("max", 1.0));
        Self {
            n,
            p50_ms: percentile_ms(&samples_ns, 0.5),
            tail_label,
            tail_ms: percentile_ms(&samples_ns, tail_q),
            max_ms: percentile_ms(&samples_ns, 1.0),
        }
    }
}

/// Samples strictly above the nearest-rank `q`-quantile of `n` samples (the
/// rank [`percentile_ms`] picks).
fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let idx = ((n - 1) as f64 * q).round() as usize;
    n - 1 - idx
}

/// Operations attempted and failed. A failure is a non-2xx response (429
/// included), a transport error, an unparsable answer or a failed
/// correctness check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Fold another tally into this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A named metric with its unit and value, plus a note for the human report
/// (which workload-level quantity it is and over how many samples).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub note: String,
}

/// Everything one run reports: correctness checks, the tally, and metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub checks: Vec<(String, bool)>,
    /// Observations for the human report that are not checks.
    pub notes: Vec<String>,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Record a correctness check; a failed check also counts as a failed
    /// operation.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
        self.tally.record(ok);
    }

    /// Add a metric.
    pub fn metric(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            note: note.into(),
        });
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.tally.failed == 0
    }

    /// Human-readable lines: checks, then each metric with unit and note.
    pub fn human_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (what, ok) in &self.checks {
            lines.push(format!(
                "check {}: {what}",
                if *ok { "ok  " } else { "FAIL" }
            ));
        }
        for note in &self.notes {
            lines.push(format!("note: {note}"));
        }
        lines.push(format!(
            "ops attempted {} failed {} fail_ratio {}",
            self.tally.attempted,
            self.tally.failed,
            self.tally.fail_ratio()
        ));
        for m in &self.metrics {
            lines.push(format!(
                "{:<26} {:>14.6} {:<6} {}",
                m.name, m.value, m.unit, m.note
            ));
        }
        lines
    }

    /// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
    /// Values keep every digit (Rust's shortest round-trip float format).
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(values: impl IntoIterator<Item = u64>) -> Vec<u64> {
        values.into_iter().map(|v| v * 1_000_000).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let s = Summary::of(ms(1..=1000));
        assert_eq!((s.n, s.tail_label), (1000, "p99"));
        assert_eq!(s.tail_ms, 990.0);
        assert_eq!(s.max_ms, 1000.0);
        // 950 samples: the nearest-rank p99 leaves 9, so the tail falls
        // back to p90.
        assert_eq!(Summary::of(ms(1..=950)).tail_label, "p90");
        // 20 000 samples: p99.9 qualifies.
        assert_eq!(Summary::of(ms(1..=20_000)).tail_label, "p99.9");
        // Too few samples for any percentile: the tail is the maximum.
        let few = Summary::of(ms([3, 1, 2]));
        assert_eq!((few.tail_label, few.tail_ms, few.p50_ms), ("max", 3.0, 2.0));
    }

    #[test]
    fn median_is_order_independent_and_empty_is_zero() {
        assert_eq!(Summary::of(ms([5, 1, 9, 3, 7])).p50_ms, 5.0);
        let empty = Summary::of(Vec::new());
        assert_eq!((empty.n, empty.p50_ms, empty.tail_label), (0, 0.0, "max"));
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut tally = Tally::default();
        for ok in [true, false, true, true] {
            tally.record(ok);
        }
        assert_eq!((tally.attempted, tally.failed), (4, 1));
        assert_eq!(tally.fail_ratio(), 0.25);

        // A failed correctness check is a failed operation too.
        let mut report = Report {
            tally,
            ..Report::default()
        };
        report.check("answers parse", false);
        assert_eq!((report.tally.attempted, report.tally.failed), (5, 2));
        assert!(!report.correct());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut report = Report::default();
        report.check("ok", true);
        report.metric("op_p50_ms", "ms", 1.25, "");
        let line = report.result_json();
        let value: serde::Value = serde_json::from_str(&line).expect("valid json");
        let keys: Vec<&str> = value
            .as_map()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"op_p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}"));
    }
}

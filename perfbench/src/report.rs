//! The benchmark's result: named metrics with units, sample counts and
//! the clock they were read from, printed as a table plus one JSON line.

use std::fmt::Write as _;

use crate::stats::{iqr_frac, median};

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall clock or host memory: noisy, compared against bounds.
    Host,
    /// The simulator's modeled clock or an exact count: repeats exactly
    /// for a given seed, and a host-only change must leave it identical.
    Model,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Independent samples the value summarises (1 for a single reading).
    pub samples: usize,
    /// Interquartile range over median, when the value is a median.
    pub spread: Option<f64>,
    pub clock: Clock,
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Runs, queries or probe validations attempted.
    pub attempted: u64,
    /// Attempts that errored, were rejected, or produced a wrong output.
    pub failed: u64,
    /// One line per failure, printed before the result.
    pub notes: Vec<String>,
    /// Context lines printed above the table, outside the JSON result.
    pub info: Vec<String>,
}

impl Report {
    /// A host reading derived from `samples` measurements.
    pub fn host(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.push(name, unit, value, samples, None, Clock::Host);
    }

    /// The median of host samples, with their spread.
    pub fn host_median(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        let spread = Some(iqr_frac(samples));
        self.push(
            name,
            unit,
            median(samples),
            samples.len(),
            spread,
            Clock::Host,
        );
    }

    pub fn model(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.push(name, unit, value, 1, None, Clock::Model);
    }

    fn push(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: usize,
        spread: Option<f64>,
        clock: Clock,
    ) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
            spread,
            clock,
        });
    }

    /// Records one checked attempt; a failed one also leaves a note.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Rejects a metric the JSON result cannot carry: a bad name, a
    /// duplicate, or a non-finite value.
    pub fn validate(&self) -> Result<(), String> {
        for (i, m) in self.metrics.iter().enumerate() {
            if !valid_name(m.name) {
                return Err(format!("invalid metric name {:?}", m.name));
            }
            if self.metrics[..i].iter().any(|o| o.name == m.name) {
                return Err(format!("duplicate metric {:?}", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
        }
        Ok(())
    }

    /// The human-readable table: name, value, unit, samples, spread
    /// (IQR over median), clock.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>18} {:<9} {:>7} {:>8}  clock",
            "metric", "value", "unit", "samples", "iqr/med"
        );
        for m in &self.metrics {
            let clock = match m.clock {
                Clock::Host => "host",
                Clock::Model => "model",
            };
            let spread = m.spread.map_or("-".into(), |s| format!("{s:.4}"));
            let _ = writeln!(
                out,
                "{:<28} {:>18.6} {:<9} {:>7} {spread:>8}  {clock}",
                m.name, m.value, m.unit, m.samples
            );
        }
        out
    }

    /// The single-line JSON result: `correct`, `attempted`, `failed`,
    /// and every metric's value and unit.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// A metric name: a leading letter or digit, then at most 63 of
/// `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in [
            "setup_s",
            "xbar.search_ns_per_search",
            "knob.scalar_speedup",
            "p99-us",
            "0x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "slash/",
            "quote\"",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn json_line_carries_every_metric_and_the_verdict() {
        let mut r = Report::default();
        r.host("latency_ms", "ms", 1.25, 10);
        r.model("ops.mac_ops", "count", 42.0);
        r.check(true, String::new);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"ops.mac_ops\": {\"value\": 42, \"unit\": \"count\"}}}"
        );
        r.check(false, || "wrong output".into());
        assert!(!r.correct());
        assert_eq!(r.notes, ["FAILED: wrong output"]);
    }

    #[test]
    fn validate_rejects_duplicates_and_non_finite_values() {
        let mut r = Report::default();
        r.host("a", "s", 1.0, 1);
        assert!(r.validate().is_ok());
        r.host("a", "s", 2.0, 1);
        assert!(r.validate().is_err());
        let mut r = Report::default();
        r.host("a", "s", f64::NAN, 1);
        assert!(r.validate().is_err());
    }
}

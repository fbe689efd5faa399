//! What one benchmark run reports, and how it is printed.
//!
//! Every run prints a human-readable table (the workload's named metrics
//! with unit and sample count, then the per-layer table in a traced run)
//! and, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

use crate::stats::Summary;
use std::fmt::Write as _;

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value summarises (1 for a single measurement or an
    /// exact count).
    pub samples: usize,
}

/// The result of one workload run.
#[derive(Default)]
pub struct Report {
    /// The contract's end-to-end metrics (tracing off).
    pub end_to_end: Vec<Metric>,
    /// The workload's own named metrics, printed for readers.
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: refused, unanswered, or wrong.
    pub failed: u64,
    /// Outputs found wrong by a correctness check.
    pub wrong: u64,
    /// Messages describing failed checks.
    pub problems: Vec<String>,
    /// Free-form provenance and context lines.
    pub notes: Vec<String>,
    /// The high-water RSS to report, when the workload fixes the point at
    /// which it is read; otherwise it is read at the end of the run.
    pub peak_rss_kb: Option<u64>,
}

impl Report {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.end_to_end.push(metric(name, value, unit, samples));
    }

    /// Adds a named (reader-facing) metric.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.named.push(metric(name, value, unit, samples));
    }

    /// Adds the median and tail of a timing series as named metrics
    /// `<base>_p50_<unit>` and `<base>_<p90|p99>_<unit>` (no tail when too
    /// few samples lie beyond any).
    pub fn named_summary(&mut self, base: &str, s: &Summary, unit: &'static str) {
        self.named(&format!("{base}_p50_{unit}"), s.p50, unit, s.n);
        if s.tail_label != "p50" {
            self.named(
                &format!("{base}_{}_{unit}", s.tail_label),
                s.tail,
                unit,
                s.n,
            );
        }
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.layers.push(metric(name, value, unit, samples));
    }

    /// Records one attempted operation and whether it succeeded.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records one correctness check; a failed check marks the run
    /// incorrect and keeps `problem` (only the first few are kept).
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.wrong += 1;
            if self.problems.len() < 8 {
                self.problems.push(problem());
            }
        }
    }

    /// Records an operation whose output is checked: a wrong output is
    /// both a failed operation and a failed check.
    pub fn checked_op(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.op(ok);
        self.check(ok, problem);
    }

    /// Prints the human-readable tables and the final JSON line. With
    /// `traced`, the JSON carries the per-layer metrics; otherwise the
    /// end-to-end ones.
    pub fn print(&self, workload: &str, traced: bool) -> String {
        let correct = self.wrong == 0;
        let mut out = String::new();
        let _ = writeln!(out, "== perfbench workload {workload} ==");
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        let table = |out: &mut String, title: &str, metrics: &[Metric]| {
            let _ = writeln!(out, "-- {title} --");
            for m in metrics {
                let _ = writeln!(
                    out,
                    "  {:<34} {:>16.4} {:<8} (n={})",
                    m.name, m.value, m.unit, m.samples
                );
            }
        };
        table(&mut out, "named metrics", &self.named);
        if traced {
            table(&mut out, "per-layer metrics (traced run)", &self.layers);
        } else {
            table(&mut out, "end-to-end metrics", &self.end_to_end);
        }
        let _ = writeln!(
            out,
            "-- attempted {} failed {} wrong {} correct {correct} --",
            self.attempted, self.failed, self.wrong
        );
        for p in &self.problems {
            let _ = writeln!(out, "  FAILED: {p}");
        }
        let metrics = if traced {
            &self.layers
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        out
    }
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

/// JSON has no NaN or infinity; an undefined value (a ratio over zero
/// work) is reported as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

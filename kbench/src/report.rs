//! What one workload run produced, and its two output lines.

use std::fmt::Write as _;

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a timing, when it is a statistic over samples.
    pub samples: Option<usize>,
}

/// Operations attempted and failed, plus the output checks that failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed output check; any entry makes the run incorrect.
    pub wrong: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` records it as failed.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.fail(why);
        }
    }

    /// Records a failed operation that was already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.wrong.len() < 20 {
            eprintln!("kbench: FAILED: {why}");
        }
        self.wrong.push(why);
    }

    /// Share of attempted operations that succeeded.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed as f64 / self.attempted as f64
    }
}

/// A finished workload run.
pub struct Outcome {
    pub tally: Tally,
    /// The gated metrics: end-to-end when untraced, per-layer when traced.
    pub metrics: Vec<Metric>,
    /// The same figures under per-workload names (untraced runs only).
    pub named: Vec<Metric>,
    /// Extra report fields, already JSON-encoded values.
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// A run that stopped before it measured anything.
    pub fn aborted(tally: Tally) -> Outcome {
        Outcome {
            tally,
            metrics: Vec::new(),
            named: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.tally.wrong.is_empty() && self.tally.attempted > 0
    }
}

/// `{"name":{"value":v,"unit":u[,"samples":n]},...}`
fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"",
            m.name,
            number(m.value),
            m.unit
        );
        if let (true, Some(n)) = (with_samples, m.samples) {
            let _ = write!(out, ",\"samples\":{n}");
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// A JSON number with every digit the measurement has.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Human-readable report line: provenance, the per-workload metric names and
/// the notes. Printed before the result line.
pub fn report_line(workload: &str, env_json: &str, o: &Outcome) -> String {
    let mut out = format!("{{\"kbench\":\"report\",\"workload\":\"{workload}\",\"env\":{env_json}");
    if !o.named.is_empty() {
        let _ = write!(out, ",\"named\":{}", metrics_json(&o.named, true));
    }
    for (key, value) in &o.notes {
        let _ = write!(out, ",\"{key}\":{value}");
    }
    let _ = write!(out, ",\"failed_checks\":{}}}", o.tally.wrong.len());
    out
}

/// The result line, printed last: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        o.correct(),
        o.tally.attempted,
        o.tally.failed,
        metrics_json(&o.metrics, false)
    )
}

//! End-to-end benchmark of the PAR-BS simulator: simulated cycles per
//! host second on the paper's own workloads, checked against a traced
//! stepper that splits each cycle across the layers of `System::tick`.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! the predictions they are meant to test.

pub mod host;
pub mod run;
pub mod traced;
pub mod workloads;

use std::fmt::Write as _;

use run::{Metric, Outcome};

/// The last line a run prints: one JSON object with `correct`,
/// `attempted`, `failed` and the end-to-end (or, traced, the per-layer)
/// metrics.
#[must_use]
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics: &[Metric] = if trace { &outcome.per_layer } else { &outcome.end_to_end };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_number(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

/// `v` as a JSON number with every digit `f64` holds; non-finite values
/// (which no metric should produce) become `null`.
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// A JSON string literal of `s`.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

//! Observed single runs: attach [`parbs_obs`] sinks and one
//! [`parbs_monitor`] monitor per spec to every DRAM channel, run a mix
//! once, and collect the trace payload, counter summary and monitor
//! reports — the engine behind `parbs-sim --trace-out`, `--check-invariants`
//! (the `prelude:invariants` spec) and `--spec`.
//!
//! Channel 0 (where most requests of a 1-channel Table 2 system land)
//! carries the trace and counter sinks; every channel gets the monitors,
//! since the PAR-BS batching rules hold per controller.

use parbs_monitor::{Monitor, Spec};
use parbs_obs::{downcast_sink, ChromeTraceSink, CounterSink, EventSink, FanoutSink, JsonlSink};
use parbs_workloads::MixSpec;

use crate::{EvalOverrides, Harness, RunResult, SchedulerKind, SimConfig, System};

/// Serialization format for `--trace-out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// Chrome trace-event JSON (load in Perfetto / `chrome://tracing`).
    #[default]
    Chrome,
    /// One JSON object per line, every event verbatim.
    Jsonl,
}

impl TraceFormat {
    /// Parses a `--trace-format` argument.
    #[must_use]
    pub fn parse(s: &str) -> Option<TraceFormat> {
        match s {
            "chrome" => Some(TraceFormat::Chrome),
            "jsonl" => Some(TraceFormat::Jsonl),
            _ => None,
        }
    }

    /// The CLI name of the format.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceFormat::Chrome => "chrome",
            TraceFormat::Jsonl => "jsonl",
        }
    }
}

/// What to observe during a [`run_observed`] run.
#[derive(Debug, Clone, Default)]
pub struct ObserveOptions {
    /// Serialize channel 0's event stream in this format.
    pub trace: Option<TraceFormat>,
    /// Attach one monitor compiled from each spec to every channel.
    pub specs: Vec<Spec>,
}

/// Monitor outcome of one (channel, spec) pair.
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// Channel index.
    pub channel: usize,
    /// Index into [`ObserveOptions::specs`] of the spec this monitor ran.
    pub spec: usize,
    /// One-line monitor summary (events monitored, alarms).
    pub summary: String,
    /// Formatted alarms (`[severity] name cycle N: message`).
    pub alarms: Vec<String>,
    /// Fire count per trigger: `(name, severity, count)`.
    pub trigger_counts: Vec<(String, parbs_monitor::Severity, u64)>,
    /// Events this channel's monitor processed.
    pub events: u64,
    /// True when no error-severity trigger fired on this channel.
    pub ok: bool,
}

/// Everything collected from one observed run.
#[derive(Debug)]
pub struct ObservedRun {
    /// The ordinary simulation result.
    pub result: RunResult,
    /// Serialized channel-0 trace, when a format was requested.
    pub trace: Option<String>,
    /// Channel-0 counter summary (always collected).
    pub counters: String,
    /// Monitor reports, channel by channel and spec by spec within a
    /// channel (empty unless specs were given).
    pub monitors: Vec<MonitorReport>,
}

/// Starts a channel's sink stack with one monitor per spec, in spec order.
/// Sinks pushed afterwards come back from [`take_monitors`] untouched.
pub(crate) fn monitor_fanout(specs: &[Spec]) -> FanoutSink {
    let mut fan = FanoutSink::new();
    for spec in specs {
        fan.push(Box::new(spec.monitor()));
    }
    fan
}

/// Takes apart a sink stack built by [`monitor_fanout`] over `specs` specs:
/// the monitors in spec order, then the sinks pushed after them.
///
/// # Panics
///
/// Panics if `sink` is not such a stack.
pub(crate) fn take_monitors(
    sink: Box<dyn EventSink>,
    specs: usize,
) -> (Vec<Monitor>, Vec<Box<dyn EventSink>>) {
    let Ok(fan) = downcast_sink::<FanoutSink>(sink) else {
        panic!("a channel sink is always a monitor fan-out")
    };
    let mut monitors = fan.into_sinks();
    let rest = monitors.split_off(specs);
    let monitors = monitors
        .into_iter()
        .map(|m| {
            *downcast_sink::<Monitor>(m).unwrap_or_else(|_| panic!("monitors lead the fan-out"))
        })
        .collect();
    (monitors, rest)
}

/// Builds the per-channel sink stack: the monitors (see [`monitor_fanout`]),
/// then, on channel 0, the counters and the trace serializer.
fn attach(sys: &mut System, opts: &ObserveOptions) {
    for c in 0..sys.channels() {
        let mut fan = monitor_fanout(&opts.specs);
        if c == 0 {
            fan.push(Box::new(CounterSink::new()));
            match opts.trace {
                Some(TraceFormat::Chrome) => fan.push(Box::new(ChromeTraceSink::new())),
                Some(TraceFormat::Jsonl) => fan.push(Box::new(JsonlSink::new(Vec::new()))),
                None => {}
            }
        }
        if !fan.is_empty() {
            sys.set_event_sink(c, Box::new(fan));
        }
    }
}

/// Detaches every sink and folds their contents into an [`ObservedRun`].
fn detach(sys: &mut System, result: RunResult, specs: usize) -> ObservedRun {
    let mut out =
        ObservedRun { result, trace: None, counters: String::new(), monitors: Vec::new() };
    for c in 0..sys.channels() {
        let Some(sink) = sys.take_event_sink(c) else { continue };
        let (monitors, rest) = take_monitors(sink, specs);
        for (spec, mon) in monitors.into_iter().enumerate() {
            out.monitors.push(MonitorReport {
                channel: c,
                spec,
                summary: mon.summary(),
                alarms: mon.alarms().iter().map(ToString::to_string).collect(),
                trigger_counts: mon
                    .trigger_counts()
                    .into_iter()
                    .map(|(n, s, k)| (n.to_owned(), s, k))
                    .collect(),
                events: mon.events,
                ok: mon.ok(),
            });
        }
        for child in rest {
            let child = match downcast_sink::<CounterSink>(child) {
                Ok(counters) => {
                    out.counters = counters.summary();
                    continue;
                }
                Err(child) => child,
            };
            let child = match downcast_sink::<ChromeTraceSink>(child) {
                Ok(chrome) => {
                    out.trace = Some(chrome.finish());
                    continue;
                }
                Err(child) => child,
            };
            if let Ok(jsonl) = downcast_sink::<JsonlSink<Vec<u8>>>(child) {
                out.trace = Some(jsonl.into_string());
            }
        }
    }
    out
}

/// Runs `mix` once under `scheduler` with sinks attached per `opts`, on
/// the system [`Harness::shared_system`] builds (same streams, seeds and
/// salts as the plan's shared run).
///
/// # Panics
///
/// Panics if the mix's core count differs from `cfg.cores`.
#[must_use]
pub fn run_observed(
    cfg: SimConfig,
    mix: &MixSpec,
    scheduler: &SchedulerKind,
    opts: &ObserveOptions,
) -> ObservedRun {
    let mut sys = Harness::new(cfg).shared_system(mix, scheduler, &EvalOverrides::none());
    attach(&mut sys, opts);
    let result = sys.run();
    detach(&mut sys, result, opts.specs.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbs_workloads::case_study_1;

    fn quick_cfg(cores: usize) -> SimConfig {
        SimConfig { target_instructions: 1_500, ..SimConfig::for_cores(cores) }
    }

    #[test]
    fn observed_parbs_run_is_clean_and_produces_a_trace() {
        let mix = case_study_1();
        let opts = ObserveOptions {
            trace: Some(TraceFormat::Chrome),
            specs: vec![parbs_monitor::prelude::invariants(), parbs_monitor::prelude::qos()],
        };
        let obs = run_observed(
            quick_cfg(mix.cores()),
            &mix,
            &SchedulerKind::ParBs(Default::default()),
            &opts,
        );
        assert!(!obs.result.timed_out);
        let trace = obs.trace.expect("chrome trace requested");
        assert!(trace.starts_with('{') && trace.contains("\"traceEvents\""));
        assert!(trace.contains("batch "), "batch spans present");
        assert!(obs.counters.contains("thread"), "counter summary: {}", obs.counters);
        assert!(obs.monitors.iter().all(|m| m.alarms.is_empty()), "{:?}", obs.monitors);
        // Every channel reports each spec, in spec order: the four
        // invariant triggers, then the three QoS ones.
        let per_channel: Vec<(usize, usize)> =
            obs.monitors.iter().map(|m| (m.spec, m.trigger_counts.len())).collect();
        assert_eq!(per_channel, [(0, 4), (1, 3)]);
        assert_eq!(obs.monitors[0].events, obs.monitors[1].events, "both saw the same stream");
    }

    #[test]
    fn jsonl_format_emits_one_object_per_line() {
        let mix = case_study_1();
        let opts = ObserveOptions { trace: Some(TraceFormat::Jsonl), specs: Vec::new() };
        let obs = run_observed(quick_cfg(mix.cores()), &mix, &SchedulerKind::FrFcfs, &opts);
        let trace = obs.trace.expect("jsonl trace requested");
        let mut lines = 0usize;
        for line in trace.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            lines += 1;
        }
        assert!(lines > 100, "a real run produces many events, got {lines}");
        assert!(obs.monitors.is_empty(), "no monitors attached");
    }

    #[test]
    fn trace_format_parses_cli_names() {
        assert_eq!(TraceFormat::parse("chrome"), Some(TraceFormat::Chrome));
        assert_eq!(TraceFormat::parse("jsonl"), Some(TraceFormat::Jsonl));
        assert_eq!(TraceFormat::parse("xml"), None);
        assert_eq!(TraceFormat::default().name(), "chrome");
    }
}

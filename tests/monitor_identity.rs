//! Verdict identity: the declarative `prelude::invariants()` monitor spec —
//! the simulator's only production invariant checker — reaches the same
//! pass/violation verdicts, including the offending cycle and thread, as
//! the hand-written reference oracle in `tests/common`, online over live
//! controller event streams and offline over a JSONL replay of the same
//! trace. Both also count the same events on every channel.
//!
//! Pass-side identity runs the full seven-scheduler zoo over the paper case
//! studies and random mixes; violation-side identity uses a deliberately
//! broken batching scheduler (Rule 2 inverted) plus hand-built event
//! streams that break each rule, so both checkers have real violations to
//! agree on, triple by triple.

mod common;

use common::{InvariantOracle, RuleTwoInverted, Verdict};
use parbs_dram::{Controller, DramConfig, LineAddr, Request, RequestKind, ThreadId};
use parbs_monitor::{prelude, replay_jsonl, Monitor, Spec};
use parbs_obs::{downcast_sink, CmdKind, Event, EventSink, FanoutSink, JsonlSink, RankEntry};
use parbs_sim::{run_observed, Harness, ObserveOptions, SchedulerKind, SimConfig, TraceFormat};
use parbs_workloads::{case_study_1, case_study_2, case_study_3, random_mixes, MixSpec};

fn monitor_verdicts(mon: &Monitor) -> Vec<Verdict> {
    let mut v: Vec<Verdict> =
        mon.alarms().iter().map(|a| (a.name.clone(), a.at, a.thread)).collect();
    v.sort();
    v
}

/// One channel's checkers after a run: the oracle, the prelude monitor, and
/// the JSONL trace of the same stream when one was recorded.
struct Checked {
    oracle: InvariantOracle,
    monitor: Monitor,
    trace: Option<String>,
}

/// The sink stack [`take_checked`] takes apart: oracle, monitor, then an
/// optional JSONL recorder.
fn checked_fan(spec: &Spec, record: bool) -> Box<dyn EventSink> {
    let mut fan = FanoutSink::new();
    fan.push(Box::new(InvariantOracle::default()));
    fan.push(Box::new(spec.monitor()));
    if record {
        fan.push(Box::new(JsonlSink::new(Vec::new())));
    }
    Box::new(fan)
}

fn take_checked(sink: Box<dyn EventSink>) -> Checked {
    let Ok(fan) = downcast_sink::<FanoutSink>(sink) else { panic!("fan-out attached") };
    let mut sinks = fan.into_sinks().into_iter();
    let oracle = downcast_sink::<InvariantOracle>(sinks.next().unwrap()).ok().unwrap();
    let monitor = downcast_sink::<Monitor>(sinks.next().unwrap()).ok().unwrap();
    let trace = sinks.next().map(|s| downcast_sink::<JsonlSink<Vec<u8>>>(s).ok().unwrap());
    Checked { oracle: *oracle, monitor: *monitor, trace: trace.map(|t| t.into_string()) }
}

/// The oracle and the monitor agree on the stream: same event count, same
/// (rule, cycle, thread) verdicts — and so does an offline replay of the
/// recorded trace.
fn assert_identical(label: &str, spec: &Spec, ch: &Checked) -> Vec<Verdict> {
    let verdicts = ch.oracle.verdicts();
    assert_eq!(ch.oracle.events, ch.monitor.events, "{label}: both saw every event");
    assert_eq!(monitor_verdicts(&ch.monitor), verdicts, "{label}: online verdicts agree");
    if let Some(trace) = &ch.trace {
        let replayed = replay_jsonl(spec, trace).expect("round-trip trace replays");
        assert_eq!(replayed.events, ch.monitor.events, "{label}: replay saw the online stream");
        assert_eq!(monitor_verdicts(&replayed), verdicts, "{label}: replay verdicts agree");
    }
    verdicts
}

fn assert_identical_and_clean(mix: &MixSpec, kind: &SchedulerKind, spec: &Spec) {
    let cfg = SimConfig { target_instructions: 800, ..SimConfig::for_cores(mix.cores()) };
    let mut sys = Harness::new(cfg).shared_system(mix, kind, &Default::default());
    for c in 0..sys.channels() {
        sys.set_event_sink(c, checked_fan(spec, c == 0));
    }
    let result = sys.run();
    assert!(!result.timed_out);
    for c in 0..sys.channels() {
        let label = format!("{} on '{}' channel {c}", kind.name(), mix.name);
        let checked = take_checked(sys.take_event_sink(c).expect("sink attached above"));
        assert_eq!(assert_identical(&label, spec, &checked), Vec::<Verdict>::new(), "{label}");
    }
}

#[test]
fn zoo_verdicts_match_on_the_case_studies() {
    let spec = prelude::invariants();
    for kind in SchedulerKind::zoo_seven() {
        for mix in [case_study_1(), case_study_2(), case_study_3()] {
            assert_identical_and_clean(&mix, &kind, &spec);
        }
    }
}

#[test]
fn zoo_verdicts_match_on_random_mixes() {
    // The 8-core mix runs on two channels, so per-channel identity covers
    // more than channel 0.
    let spec = prelude::invariants();
    for kind in SchedulerKind::zoo_seven() {
        for mix in random_mixes(4, 2, 13).into_iter().chain(random_mixes(8, 1, 13)) {
            assert_identical_and_clean(&mix, &kind, &spec);
        }
    }
}

#[test]
fn qos_spec_runs_clean_across_the_zoo() {
    // The QoS prelude is advisory (warn-only); it must run everywhere
    // without error-severity alarms and replay to the same trigger counts.
    let spec = prelude::qos();
    let mix = case_study_1();
    for kind in SchedulerKind::zoo_seven() {
        let cfg = SimConfig { target_instructions: 800, ..SimConfig::for_cores(mix.cores()) };
        let opts = ObserveOptions { trace: Some(TraceFormat::Jsonl), specs: vec![spec.clone()] };
        let obs = run_observed(cfg, &mix, &kind, &opts);
        assert!(obs.monitors.iter().all(|m| m.ok), "{}: {:?}", kind.name(), obs.monitors);
        let replayed = replay_jsonl(&spec, &obs.trace.expect("jsonl trace")).expect("replays");
        let ch0 = obs.monitors.iter().find(|m| m.channel == 0).expect("channel 0");
        let online: Vec<(String, parbs_monitor::Severity, u64)> = ch0.trigger_counts.clone();
        let offline: Vec<(String, parbs_monitor::Severity, u64)> =
            replayed.trigger_counts().into_iter().map(|(n, s, k)| (n.to_owned(), s, k)).collect();
        assert_eq!(online, offline, "{}: trigger counts replay identically", kind.name());
    }
}

#[test]
fn broken_scheduler_verdicts_are_identical_online_and_offline() {
    let spec = prelude::invariants();
    let mut ctrl = Controller::new(DramConfig::default(), Box::new(RuleTwoInverted::default()));
    ctrl.set_event_sink(checked_fan(&spec, true));
    // Three same-(bank,row) read pairs across threads: even ids get marked,
    // odd ids do not, and the broken priority serves the unmarked ones first.
    for id in 0..6u64 {
        let addr = LineAddr { channel: 0, bank: (id / 2) as usize, row: 5, col: id };
        ctrl.try_enqueue(Request::new(id, ThreadId(id as usize % 3), addr, RequestKind::Read, 0))
            .unwrap();
    }
    let mut now = 0;
    let done = ctrl.run_to_drain(&mut now, 1_000_000);
    assert_eq!(done.len(), 6);

    let checked = take_checked(ctrl.take_event_sink().expect("sink attached above"));
    let verdicts = assert_identical("broken scheduler", &spec, &checked);
    assert!(!verdicts.is_empty(), "the broken scheduler must trip the invariant checkers");
    assert!(
        verdicts.iter().all(|(name, _, thread)| name == "marked-first" && thread.is_some()),
        "rule-2 inversion produces marked-first verdicts with a thread: {verdicts:?}"
    );
}

fn enq(request: u64, thread: usize, bank: usize, row: u64) -> Event {
    Event::Enqueued { at: 0, request, thread, write: false, rank: 0, bank, row }
}

fn mark(request: u64, thread: usize, bank: usize) -> Event {
    Event::Marked { at: 1, request, thread, rank: 0, bank }
}

fn formed(id: u64, cap: Option<u32>, exclusive: bool) -> Event {
    Event::BatchFormed { at: 1, id, marked: 0, cap, exclusive, per_thread: vec![] }
}

fn read_cmd(request: u64, thread: usize, bank: usize, row: u64, marked: bool) -> Event {
    Event::CommandIssued {
        at: 2,
        request,
        thread,
        kind: CmdKind::Read,
        rank: 0,
        bank,
        row,
        col: 0,
        marked,
        service: None,
        data_end: Some(50),
    }
}

fn done(request: u64) -> Event {
    Event::Completed { at: 3, request, thread: 0, write: false, arrival: 0, finish: 60 }
}

/// A ranking of `(thread, rank, max_bank_load, total_load)` entries.
fn ranked(max_total: bool, entries: &[(usize, u32, u32, u32)]) -> Event {
    let entries = entries
        .iter()
        .map(|&(thread, rank, max_bank_load, total_load)| RankEntry {
            thread,
            rank,
            max_bank_load,
            total_load,
        })
        .collect();
    Event::RankComputed { at: 9, batch: 1, max_total, entries }
}

#[test]
fn hand_built_streams_get_identical_verdicts_rule_by_rule() {
    let spec = prelude::invariants();
    let uncapped: Vec<Event> =
        std::iter::once(formed(1, None, true)).chain((0..40).map(|i| mark(i, 0, 0))).collect();
    let cases: Vec<(&str, Vec<Event>, Vec<Verdict>)> = vec![
        (
            "clean batched stream",
            vec![
                enq(1, 0, 0, 5),
                enq(2, 1, 0, 5),
                formed(1, Some(5), true),
                mark(1, 0, 0),
                mark(2, 1, 0),
                read_cmd(1, 0, 0, 5, true),
                done(1),
                read_cmd(2, 1, 0, 5, true),
                done(2),
                formed(2, Some(5), true),
            ],
            vec![],
        ),
        (
            // Unmarked request 2 reads bank 0 row 5 while marked request 1
            // to the same bank+row is still queued.
            "unmarked read over a schedulable marked one",
            vec![enq(1, 0, 0, 5), enq(2, 1, 0, 5), mark(1, 0, 0), read_cmd(2, 1, 0, 5, false)],
            vec![("marked-first".into(), 2, Some(1))],
        ),
        (
            // Different row: the marked request was not schedulable there.
            "unmarked read to a different row",
            vec![enq(1, 0, 0, 5), mark(1, 0, 0), enq(2, 1, 0, 7), read_cmd(2, 1, 0, 7, false)],
            vec![],
        ),
        (
            "marking-cap overrun",
            vec![
                enq(1, 0, 3, 1),
                enq(2, 0, 3, 2),
                enq(3, 0, 3, 3),
                formed(1, Some(2), true),
                mark(1, 0, 3),
                mark(2, 0, 3),
                mark(3, 0, 3),
            ],
            vec![("marking-cap".into(), 1, Some(0))],
        ),
        ("uncapped batch", uncapped, vec![]),
        (
            // Request 1 never completed, yet batch 2 claims to form.
            "premature exclusive batch",
            vec![
                enq(1, 0, 0, 5),
                formed(1, Some(5), true),
                mark(1, 0, 0),
                formed(2, Some(5), true),
            ],
            vec![("batch-exclusive".into(), 1, None)],
        ),
        (
            "static batches renew without a drain",
            vec![
                enq(1, 0, 0, 5),
                formed(1, Some(5), false),
                mark(1, 0, 0),
                formed(2, Some(5), false),
            ],
            vec![],
        ),
        (
            "Max-Total order broken",
            vec![ranked(true, &[(0, 0, 4, 4), (1, 1, 1, 1)])],
            vec![("rank-order".into(), 9, None)],
        ),
        ("Max-Total order kept", vec![ranked(true, &[(1, 0, 1, 1), (0, 1, 4, 4)])], vec![]),
        (
            "ranking not a permutation",
            vec![ranked(false, &[(0, 0, 1, 1), (1, 0, 1, 1)])],
            vec![("rank-order".into(), 9, None)],
        ),
    ];
    for (label, events, expected) in cases {
        let mut sink = checked_fan(&spec, false);
        for e in &events {
            sink.record(e);
        }
        let checked = take_checked(sink);
        assert_eq!(checked.oracle.events, events.len() as u64, "{label}");
        assert_eq!(assert_identical(label, &spec, &checked), expected, "{label}");
    }
}

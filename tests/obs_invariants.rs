//! Tier-1 observability suite: the PAR-BS batching invariants hold on every
//! shipped mix, and the production checker — the `prelude::invariants()`
//! monitor spec — actually detects a scheduler that breaks them.
//!
//! The invariants are checked *from the event stream alone* (Rule 1/2
//! marked-first service, Marking-Cap, batch exclusivity, Max-Total rank
//! order), so a clean report here means the cycle-level controller and the
//! scheduler agree about what a batch is — not just that the scheduler's
//! internal counters are self-consistent.

mod common;

use common::RuleTwoInverted;
use parbs_dram::{
    Controller, DramConfig, LineAddr, MemoryScheduler, Request, RequestKind, ThreadId,
};
use parbs_monitor::{prelude, Monitor};
use parbs_obs::downcast_sink;
use parbs_sim::{run_observed, ObserveOptions, SchedulerKind, SimConfig, TraceFormat};
use parbs_workloads::{case_study_1, case_study_2, case_study_3, random_mixes, MixSpec};

fn assert_clean(mix: &MixSpec, kind: &SchedulerKind, target: u64) {
    let cfg = SimConfig { target_instructions: target, ..SimConfig::for_cores(mix.cores()) };
    let channels = cfg.dram.channels();
    let opts = ObserveOptions { trace: None, specs: vec![prelude::invariants()] };
    let obs = run_observed(cfg, mix, kind, &opts);
    assert!(
        obs.monitors.iter().all(|m| m.ok && m.alarms.is_empty()),
        "{} on '{}' violated batching invariants:\n{}",
        kind.name(),
        mix.name,
        obs.monitors.iter().flat_map(|m| m.alarms.iter()).cloned().collect::<Vec<_>>().join("\n")
    );
    assert_eq!(obs.monitors.len(), channels, "every channel must have been checked");
}

/// Enqueues `reads` (thread, address), ids in order from 0, on a fresh
/// controller under the invariant prelude, runs it to drain and returns
/// the monitor.
fn drain_checked(scheduler: Box<dyn MemoryScheduler>, reads: &[(usize, LineAddr)]) -> Monitor {
    let mut ctrl = Controller::new(DramConfig::default(), scheduler);
    ctrl.set_event_sink(Box::new(prelude::invariants().monitor()));
    for (id, &(thread, addr)) in (0u64..).zip(reads) {
        ctrl.try_enqueue(Request::new(id, ThreadId(thread), addr, RequestKind::Read, 0)).unwrap();
    }
    let mut now = 0;
    let done = ctrl.run_to_drain(&mut now, 1_000_000);
    assert_eq!(done.len(), reads.len());
    let sink = ctrl.take_event_sink().expect("sink attached above");
    let Ok(mon) = downcast_sink::<Monitor>(sink) else {
        panic!("the attached sink is a Monitor");
    };
    *mon
}

#[test]
fn parbs_is_clean_on_the_case_studies() {
    for mix in [case_study_1(), case_study_2(), case_study_3()] {
        assert_clean(&mix, &SchedulerKind::ParBs(Default::default()), 1_200);
    }
}

#[test]
fn parbs_is_clean_on_random_mixes() {
    for mix in random_mixes(4, 2, 7) {
        assert_clean(&mix, &SchedulerKind::ParBs(Default::default()), 1_000);
    }
}

#[test]
fn baselines_are_trivially_clean() {
    // Non-batching schedulers emit no marking events, so the batching
    // invariants hold vacuously — but the sink must still run and report.
    // BLISS and ATLAS additionally stream their own events (blacklist
    // set/clear, quantum rollover) through the same sink, which must
    // ignore them without tripping.
    let mix = case_study_1();
    for kind in [
        SchedulerKind::FrFcfs,
        SchedulerKind::Stfm,
        SchedulerKind::Bliss(Default::default()),
        SchedulerKind::Atlas(Default::default()),
    ] {
        assert_clean(&mix, &kind, 1_000);
    }
}

#[test]
fn invariant_sink_catches_a_rule_two_violation() {
    // Two reads to the same (bank, row): id 0 gets marked, id 1 does not,
    // and the broken priority serves id 1 first.
    let reads: Vec<(usize, LineAddr)> =
        (0..2).map(|id| (id, LineAddr { channel: 0, bank: 0, row: 5, col: id as u64 })).collect();
    let mon = drain_checked(Box::new(RuleTwoInverted::default()), &reads);
    assert!(!mon.ok(), "an error-severity trigger fired");
    assert!(
        mon.alarms().iter().any(|a| a.name == "marked-first" && a.thread == Some(1)),
        "expected a marked-first alarm on thread 1, got: {:?}",
        mon.alarms()
    );
    let report = mon.alarms()[0].to_string();
    assert!(report.contains("[error] marked-first"), "{report}");
}

#[test]
fn a_well_behaved_parbs_controller_run_stays_clean_at_the_dram_level() {
    use parbs::{ParBsConfig, ParBsScheduler};
    // An adversarial-ish shape: two threads interleaved on the same bank
    // plus a third spread across banks.
    let mut reads = Vec::new();
    for round in 0..6 {
        for (thread, bank, row) in [(0, 0, 1), (1, 0, 2), (2, round % 8, 3)] {
            let col = reads.len() as u64;
            reads.push((thread, LineAddr { channel: 0, bank, row, col }));
        }
    }
    let mon = drain_checked(Box::new(ParBsScheduler::new(ParBsConfig::default())), &reads);
    assert!(mon.ok() && mon.alarms().is_empty(), "alarms: {:?}", mon.alarms());
    assert!(
        mon.summary().contains("0 alarms"),
        "summary mentions the clean outcome: {}",
        mon.summary()
    );
}

#[test]
fn jsonl_and_chrome_payloads_come_from_the_same_run_shape() {
    // Sanity: both formats serialize without error on a real mix and the
    // chrome payload is JSON-shaped with per-bank and per-thread tracks.
    let mix = case_study_1();
    let cfg = SimConfig { target_instructions: 800, ..SimConfig::for_cores(mix.cores()) };
    let opts = ObserveOptions { trace: Some(TraceFormat::Chrome), specs: Vec::new() };
    let obs = run_observed(cfg, &mix, &SchedulerKind::ParBs(Default::default()), &opts);
    let chrome = obs.trace.expect("chrome payload");
    assert!(chrome.contains("\"bank 0\"") && chrome.contains("\"thread 0\""), "named tracks");
    assert!(chrome.contains("process_name"), "track metadata present");
}

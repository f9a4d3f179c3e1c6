//! Cross-validation of the liveness model checker against the simulator's
//! observability stack: the witness traces `parbs-analyze check-liveness`
//! emits are replayed through the obs event bus into the *same*
//! `prelude:invariants` monitor spec that judges real simulated runs. A
//! clean replay means the abstract model's serves speak the exact event
//! protocol the simulator emits (marking, batch formation, completion
//! accounting) — so a bound proved on the model is a statement about the
//! same discipline the simulator implements, not a private re-definition.

use parbs_analyze::{check_scheduler_liveness, LivenessConfig, LivenessVerdict, ALL_SCHEDULERS};
use parbs_monitor::prelude;
use parbs_obs::EventSink;
use parbs_sim::{run_observed, ObserveOptions, SchedulerKind, SimConfig};
use parbs_workloads::case_study_1;

/// Replays `events` through a fresh `prelude:invariants` monitor and
/// returns it for inspection.
fn monitored(events: &[parbs_obs::Event]) -> parbs_monitor::Monitor {
    let mut mon = prelude::invariants().monitor();
    for e in events {
        mon.record(e);
    }
    mon
}

#[test]
fn every_zoo_witness_replays_clean_through_the_invariant_spec() {
    let cfg = LivenessConfig::tiny();
    for name in ALL_SCHEDULERS {
        let report = check_scheduler_liveness(name, &cfg).expect("zoo schedulers have contracts");
        assert!(report.claim_verified(), "{report}");
        let witness = report.witness.as_ref().expect("closed explorations carry a witness");
        let events = witness.to_events(&report.policy, &cfg);
        assert!(!events.is_empty(), "{name} witness must produce events");
        let mon = monitored(&events);
        assert!(
            mon.ok(),
            "{name} witness replay tripped invariants: {} / {:?}",
            mon.summary(),
            mon.alarms()
        );
    }
}

#[test]
fn the_starvation_lasso_is_observable_on_the_event_bus() {
    // The FR-FCFS lasso unrolls into a concrete event stream: the victim
    // is enqueued and never completes, while the hammering adversary's
    // requests complete forever — visible, protocol-clean starvation.
    let cfg = LivenessConfig::tiny();
    let report = check_scheduler_liveness("FR-FCFS", &cfg).unwrap();
    assert!(matches!(report.verdict, LivenessVerdict::Unbounded));
    let witness = report.witness.as_ref().unwrap();
    assert!(!witness.cycle.is_empty(), "a lasso has a cycle");
    let events = witness.to_events(&report.policy, &cfg);
    let mon = monitored(&events);
    assert!(mon.ok(), "{} / {:?}", mon.summary(), mon.alarms());
    // The victim (thread 0) is enqueued but never completed.
    let victim_enqueued =
        events.iter().any(|e| matches!(e, parbs_obs::Event::Enqueued { thread: 0, .. }));
    let victim_completed =
        events.iter().any(|e| matches!(e, parbs_obs::Event::Completed { thread: 0, .. }));
    assert!(victim_enqueued && !victim_completed, "the lasso starves the victim observably");
}

#[test]
fn the_same_spec_judges_model_witnesses_and_simulated_runs() {
    // One spec, two worlds: a real PAR-BS simulation must be clean under
    // `prelude:invariants`, and so must the model checker's PAR-BS
    // witness — the cross-validation that makes the proved bound about
    // the same discipline the simulator implements.
    let mix = case_study_1();
    let sim_cfg = SimConfig { target_instructions: 1_500, ..SimConfig::for_cores(mix.cores()) };
    let opts = ObserveOptions { trace: None, specs: vec![prelude::invariants()] };
    let obs = run_observed(sim_cfg, &mix, &SchedulerKind::ParBs(Default::default()), &opts);
    assert!(obs.monitors.iter().all(|m| m.alarms.is_empty()), "{:?}", obs.monitors);

    let cfg = LivenessConfig::tiny();
    let report = check_scheduler_liveness("PAR-BS", &cfg).unwrap();
    let events = report.witness.as_ref().unwrap().to_events(&report.policy, &cfg);
    let mon = monitored(&events);
    assert!(mon.ok(), "{} / {:?}", mon.summary(), mon.alarms());
}

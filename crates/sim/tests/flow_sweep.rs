//! End-to-end tests of the open-loop flow frontend: determinism across
//! worker counts and a 10k-requester smoke run.

use parbs_sim::{run_flow, run_flow_sweep, SchedulerKind, SimConfig};
use parbs_workloads::{BoundedPareto, FlowConfig};

fn quick_flows() -> FlowConfig {
    FlowConfig {
        requesters: 64,
        arrival_rate: 0.02,
        size: BoundedPareto { alpha: 1.2, min: 2, max: 16 },
        request_gap: 4,
        line_space: 1 << 20,
        seed: 42,
    }
}

#[test]
fn sweep_results_identical_at_any_jobs_level() {
    let cfg = SimConfig::for_cores(4);
    let schedulers = [SchedulerKind::FrFcfs, SchedulerKind::ParBs(Default::default())];
    let scales = [16, 64];
    let flows = quick_flows();
    let serial = run_flow_sweep(&cfg, &schedulers, &scales, &flows, &[], 1);
    let fanned = run_flow_sweep(&cfg, &schedulers, &scales, &flows, &[], 4);
    assert_eq!(serial.len(), fanned.len());
    for (a, b) in serial.iter().zip(&fanned) {
        assert_eq!(a.scheduler, b.scheduler);
        assert_eq!(a.requesters, b.requesters);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.summary, b.summary, "{} @ {} diverged across jobs", a.scheduler, a.requesters);
        assert_eq!(a.drive.cycles, b.drive.cycles);
        assert_eq!(a.drive.read_latency, b.drive.read_latency);
        assert_eq!(a.drive.peak_backlog, b.drive.peak_backlog);
    }
}

#[test]
fn ten_thousand_requesters_complete() {
    // 16-core DRAM shape (4 channels) so a 10k-flow open-loop run stays
    // under service capacity and drains promptly; sizes kept small — this
    // is a scale smoke test, not a load test.
    let cfg = SimConfig::for_cores(16);
    let flows = FlowConfig {
        requesters: 10_000,
        arrival_rate: 0.05,
        size: BoundedPareto { alpha: 1.2, min: 2, max: 4 },
        request_gap: 2,
        line_space: 1 << 22,
        seed: 7,
    };
    let r = run_flow(&cfg, &SchedulerKind::ParBs(Default::default()), &flows, &[]);
    assert!(!r.drive.timed_out, "10k flows drain in {} cycles", r.drive.cycles);
    assert_eq!(r.completed, 10_000);
    assert_eq!(r.summary.flows, 10_000);
    assert!(r.summary.slowdown_p50 >= 1.0);
}

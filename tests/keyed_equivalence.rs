//! End-to-end equivalence of the controller's two selection paths: the
//! cached-priority-key hot path must reproduce, command for command and
//! cycle for cycle, the retired full-queue comparator sort it replaced —
//! under every shipped scheduler, with the DRAM protocol checker enabled.
//!
//! The workload is a fig08-style 4-core mix: four threads with different
//! intensities and row localities, reads and writes, bursty arrivals —
//! enough to exercise batch formation (PAR-BS), capture-window expiry
//! (NFQ/STFQ), fairness-mode switches (STFM, via synthetic stall reports),
//! write drains, and refresh.
//!
//! Every mix runs twice: once with sparse stall reports, and once with a
//! varying report on every DRAM cycle, the cadence `System::tick` uses. The
//! keyed path neither re-keys on a stall report nor walks the slots its
//! idle bound skips, so the second run is the one that holds stall-driven
//! policies to the key-caching contract.

use parbs::{BatchingMode, ParBsConfig, ParBsScheduler, ThreadPriority};
use parbs_baselines::{
    AtlasScheduler, BlissScheduler, FrFcfsScheduler, NfqScheduler, StfmScheduler,
};
use parbs_dram::{
    Command, CommandTraceSink, Completion, Controller, DramConfig, FcfsScheduler, LineAddr,
    MemoryScheduler, Request, RequestKind, ThreadId, DRAM_CYCLE,
};
use parbs_obs::downcast_sink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled arrival of the synthetic mix.
struct Arrival {
    at: u64,
    req: Request,
}

/// A deterministic 4-thread mix: thread 0 is intensive with high row
/// locality, thread 1 is intensive with random rows (mcf-like), thread 2 is
/// moderate, thread 3 is light and bursty. ~15% writes.
fn mix(seed: u64, count: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrivals = Vec::new();
    let mut now = 0u64;
    let mut hot_rows = [0u64; 4];
    for id in 0..count {
        let thread = match rng.gen_range(0u32..10) {
            0..=3 => 0usize,
            4..=6 => 1,
            7..=8 => 2,
            _ => 3,
        };
        // Per-thread arrival pacing; thread 3 arrives in far-apart bursts.
        now += match thread {
            0 | 1 => rng.gen_range(0u64..6),
            2 => rng.gen_range(0u64..20),
            _ => {
                if rng.gen_bool(0.2) {
                    rng.gen_range(100u64..400)
                } else {
                    0
                }
            }
        };
        // Row locality: thread 0 mostly re-hits its current row; thread 1
        // almost never does.
        let hit_chance = [0.85, 0.05, 0.5, 0.5][thread];
        if !rng.gen_bool(hit_chance) {
            hot_rows[thread] = rng.gen_range(0u64..32);
        }
        let kind = if rng.gen_bool(0.15) { RequestKind::Write } else { RequestKind::Read };
        let addr = LineAddr {
            channel: 0,
            bank: rng.gen_range(0usize..8),
            row: hot_rows[thread],
            col: rng.gen_range(0u64..64),
        };
        arrivals
            .push(Arrival { at: now, req: Request::new(id, ThreadId(thread), addr, kind, now) });
    }
    arrivals
}

/// How a run feeds per-thread stall feedback to the controller, reported
/// after the tick of the cycle, as `System::tick` does.
#[derive(Debug, Clone, Copy)]
enum Stalls {
    /// No stall feedback.
    Off,
    /// One of three fixed reports every 1000 cycles.
    Sparse,
    /// A seeded, varying report on every DRAM cycle, the cadence of
    /// `System::tick`: each thread stalls for part of the DRAM cycle with
    /// its own probability.
    EveryDramCycle(u64),
    /// From the given cycle on, every thread stalls for the whole of every
    /// DRAM cycle.
    SaturatedFrom(u64),
}

impl Stalls {
    /// The per-thread report due after the tick of cycle `now`, if any.
    fn report(self, now: u64, rng: &mut StdRng) -> Option<[u64; 4]> {
        let dram_slot = now.is_multiple_of(DRAM_CYCLE);
        match self {
            Stalls::Off => None,
            Stalls::Sparse => {
                let sparse = [[37, 0, 0, 0], [0, 911, 13, 0], [5, 5, 5, 450]];
                (now > 0 && now.is_multiple_of(1_000))
                    .then(|| sparse[(now / 1_000) as usize % sparse.len()])
            }
            Stalls::EveryDramCycle(_) => dram_slot.then(|| {
                [0.9, 0.6, 0.3, 0.05].map(|p| {
                    if rng.gen_bool(p) {
                        rng.gen_range(1..=DRAM_CYCLE)
                    } else {
                        0
                    }
                })
            }),
            Stalls::SaturatedFrom(from) => (dram_slot && now >= from).then_some([DRAM_CYCLE; 4]),
        }
    }
}

/// Drives one controller through `arrivals` until every request completes
/// and returns its full command trace. Enqueues retry while the request
/// buffer is full; stall feedback follows `stalls`.
fn run(mut ctrl: Controller, arrivals: &[Arrival], stalls: Stalls) -> Vec<(u64, Command)> {
    ctrl.set_event_sink(Box::new(CommandTraceSink::new()));
    let mut out: Vec<Completion> = Vec::new();
    let mut completed = 0usize;
    let mut now = 0u64;
    let mut next = 0usize;
    let mut pending: Option<Request> = None;
    let mut rng = StdRng::seed_from_u64(match stalls {
        Stalls::EveryDramCycle(seed) => seed,
        _ => 0,
    });
    while completed < arrivals.len() {
        assert!(now < 10_000_000, "the controller failed to drain the mix");
        if let Some(req) = pending.take() {
            if ctrl.try_enqueue(req.clone()).is_err() {
                pending = Some(req);
            }
        }
        while pending.is_none() && next < arrivals.len() && arrivals[next].at <= now {
            let req = arrivals[next].req.clone();
            if ctrl.try_enqueue(req.clone()).is_err() {
                pending = Some(req);
            }
            next += 1;
        }
        ctrl.tick(now, &mut out);
        if let Some(deltas) = stalls.report(now, &mut rng) {
            ctrl.report_stall_cycles(&deltas, now);
        }
        completed += out.len();
        out.clear();
        now += 1;
    }
    let sink = ctrl.take_event_sink().expect("sink attached above");
    let Ok(sink) = downcast_sink::<CommandTraceSink>(sink) else {
        panic!("the attached sink is a CommandTraceSink");
    };
    sink.into_trace()
}

/// Runs `arrivals` through the keyed and comparator paths under the same
/// stall feedback, asserts the traces are identical, and returns the trace.
fn assert_traces_agree(
    name: &str,
    make: &dyn Fn() -> Box<dyn MemoryScheduler>,
    arrivals: &[Arrival],
    stalls: Stalls,
) -> Vec<(u64, Command)> {
    let cfg = DramConfig::default();
    let keyed = Controller::with_checker(cfg.clone(), make());
    let mut comparator = Controller::with_checker(cfg, make());
    comparator.set_comparator_path(true);
    let trace_k = run(keyed, arrivals, stalls);
    let trace_c = run(comparator, arrivals, stalls);
    assert_eq!(trace_k.len(), trace_c.len(), "{name} {stalls:?}: command counts differ");
    for (i, (k, c)) in trace_k.iter().zip(&trace_c).enumerate() {
        assert_eq!(k, c, "{name} {stalls:?}: traces diverge at command {i}");
    }
    trace_k
}

/// Runs the 4-core mix through both paths, with sparse stall reports and
/// with a report on every DRAM cycle, and asserts the traces are identical.
fn assert_paths_agree(name: &str, make: &dyn Fn() -> Box<dyn MemoryScheduler>) {
    let arrivals = mix(0xC0FFEE, 600);
    for stalls in [Stalls::Sparse, Stalls::EveryDramCycle(0x57A11), Stalls::EveryDramCycle(7)] {
        assert_traces_agree(name, make, &arrivals, stalls);
    }
}

#[test]
fn fcfs_keyed_path_matches_comparator() {
    assert_paths_agree("FCFS", &|| Box::new(FcfsScheduler::new()));
}

#[test]
fn frfcfs_keyed_path_matches_comparator() {
    assert_paths_agree("FR-FCFS", &|| Box::new(FrFcfsScheduler::new()));
}

#[test]
fn parbs_keyed_path_matches_comparator() {
    assert_paths_agree("PAR-BS", &|| Box::new(ParBsScheduler::new(ParBsConfig::default())));
}

#[test]
fn parbs_eslot_with_priorities_keyed_path_matches_comparator() {
    // Empty-slot batching re-marks every slot and the priority levels give
    // threads different marking cadences — the hardest key-staleness case.
    assert_paths_agree("PAR-BS/eslot", &|| {
        let cfg = ParBsConfig {
            batching: BatchingMode::EmptySlot,
            marking_cap: Some(3),
            ..ParBsConfig::default()
        };
        let mut s = ParBsScheduler::new(cfg);
        s.set_thread_priority(ThreadId(2), ThreadPriority::Level(2));
        s.set_thread_priority(ThreadId(3), ThreadPriority::Opportunistic);
        Box::new(s)
    });
}

#[test]
fn nfq_keyed_path_matches_comparator() {
    assert_paths_agree("NFQ", &|| Box::new(NfqScheduler::new()));
}

#[test]
fn stfq_keyed_path_matches_comparator() {
    assert_paths_agree("STFQ", &|| Box::new(NfqScheduler::stfq()));
}

#[test]
fn stfm_keyed_path_matches_comparator() {
    assert_paths_agree("STFM", &|| Box::new(StfmScheduler::new()));
}

#[test]
fn bliss_keyed_path_matches_comparator() {
    // Blacklist state mutates on column commands (between pre_schedules),
    // so this exercises the dirty-flag staleness reporting.
    assert_paths_agree("BLISS", &|| Box::new(BlissScheduler::new()));
}

#[test]
fn atlas_keyed_path_matches_comparator() {
    // Quantum rollovers re-rank all threads mid-run; the keyed path must
    // pick the rank changes up on the same cycle the comparator does.
    assert_paths_agree("ATLAS", &|| Box::new(AtlasScheduler::new()));
}

#[test]
fn stfm_fairness_mode_flipped_by_stall_reports_alone_matches_comparator() {
    // Thread 0 streams row hits to bank 0 while thread 1's four younger
    // requests to another row of the same bank wait behind them, accruing
    // interference. FR-FCFS order serves thread 0 first. Stall reports on
    // every DRAM cycle from cycle 200 on give both threads measured stall
    // time, and thread 1's interference then makes it look slowed, so
    // STFM's fairness mode boosts it over the row hits — with nothing but
    // the reports changing. The keyed path must see the switch through
    // `pre_schedule` on the same cycle the comparator does.
    let row_hits = (0..24).map(|id| (id, 0, 1));
    let conflicts = (24..28).map(|id| (id, 1, 2));
    let arrivals: Vec<Arrival> = row_hits
        .chain(conflicts)
        .map(|(id, thread, row)| Arrival {
            at: 0,
            req: Request::new(
                id,
                ThreadId(thread),
                LineAddr { channel: 0, bank: 0, row, col: id },
                RequestKind::Read,
                0,
            ),
        })
        .collect();
    let stfm = || -> Box<dyn MemoryScheduler> { Box::new(StfmScheduler::new()) };
    let traces: Vec<Vec<(u64, Command)>> = [Stalls::Off, Stalls::SaturatedFrom(200)]
        .into_iter()
        .map(|stalls| assert_traces_agree("STFM", &stfm, &arrivals, stalls))
        .collect();
    assert_ne!(traces[0], traces[1], "the stall reports must change STFM's schedule");
    let first_conflict = |trace: &[(u64, Command)]| {
        trace.iter().position(|(_, c)| c.request.0 >= 24).expect("thread 1 is served")
    };
    assert!(
        first_conflict(&traces[1]) < first_conflict(&traces[0]),
        "fairness mode must serve thread 1 earlier than FR-FCFS order does"
    );
}

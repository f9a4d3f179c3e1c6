//! Property-based validation: under random request streams and adversarial
//! (but total-order) scheduling policies, the controller never violates a
//! DRAM timing constraint and always drains every request.

use std::cmp::Ordering;

use parbs_dram::{
    Channel, Command, CommandKind, Controller, DramConfig, FcfsScheduler, MemoryScheduler,
    ProtocolChecker, Request, RequestId, RequestKind, SchedView, ThreadId, TimingParams,
    DRAM_CYCLE,
};
use proptest::prelude::*;

/// Services youngest requests first — a deliberately pathological order that
/// still must produce a legal command stream.
#[derive(Debug, Default)]
struct LifoScheduler;

impl MemoryScheduler for LifoScheduler {
    fn name(&self) -> &str {
        "LIFO"
    }
    fn priority_key(&self, req: &Request, _view: &SchedView<'_>) -> u128 {
        u128::from(req.id.0)
    }
    fn compare(&self, a: &Request, b: &Request, _view: &SchedView<'_>) -> Ordering {
        b.id.cmp(&a.id)
    }
}

/// Orders requests by a keyed hash — arbitrary but stable total order.
#[derive(Debug)]
struct HashOrderScheduler {
    key: u64,
}

impl MemoryScheduler for HashOrderScheduler {
    fn name(&self) -> &str {
        "HASH"
    }
    fn priority_key(&self, req: &Request, _view: &SchedView<'_>) -> u128 {
        // Smaller hash wins under `compare`, so invert for the packed key.
        let h = (req.id.0 ^ self.key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (u128::from(!h) << 64) | u128::from(u64::MAX - req.id.0)
    }
    fn compare(&self, a: &Request, b: &Request, _view: &SchedView<'_>) -> Ordering {
        let h = |r: &Request| (r.id.0 ^ self.key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h(a).cmp(&h(b)).then(a.id.cmp(&b.id))
    }
}

#[derive(Debug, Clone)]
struct ReqSpec {
    thread: u8,
    bank: u8,
    row: u8,
    col: u8,
    write: bool,
    gap: u16,
}

fn req_spec() -> impl Strategy<Value = ReqSpec> {
    (0u8..4, 0u8..8, 0u8..4, 0u8..32, any::<bool>(), 0u16..200).prop_map(
        |(thread, bank, row, col, write, gap)| ReqSpec { thread, bank, row, col, write, gap },
    )
}

fn run_stream(specs: &[ReqSpec], scheduler: Box<dyn MemoryScheduler>) -> (usize, usize) {
    let cfg = DramConfig::default();
    let mapper = cfg.mapper();
    let mut ctrl = Controller::with_checker(cfg, scheduler);
    let mut out = Vec::new();
    let mut now = 0u64;
    let mut expected_reads = 0;
    let mut expected_writes = 0;
    for (i, s) in specs.iter().enumerate() {
        // Advance time by the spec's gap, ticking the controller.
        for _ in 0..s.gap {
            ctrl.tick(now, &mut out);
            now += 1;
        }
        let addr = mapper.decode(mapper.encode(parbs_dram::LineAddr {
            channel: 0,
            bank: s.bank as usize,
            row: s.row as u64,
            col: s.col as u64,
        }));
        let kind = if s.write { RequestKind::Write } else { RequestKind::Read };
        let req = Request::new(i as u64, ThreadId(s.thread as usize), addr, kind, now);
        if ctrl.try_enqueue(req).is_ok() {
            if s.write {
                expected_writes += 1;
            } else {
                expected_reads += 1;
            }
        }
    }
    out.extend(ctrl.run_to_drain(&mut now, 10_000_000));
    let done = out;
    let reads = done.iter().filter(|c| c.kind == RequestKind::Read).count();
    let writes = done.iter().filter(|c| c.kind == RequestKind::Write).count();
    assert_eq!(reads, expected_reads, "every accepted read must complete");
    assert_eq!(writes, expected_writes, "every accepted write must complete");
    (reads, writes)
}

/// Every command that fits `ch`'s row-buffer state right now: per bank an
/// activate of one of four rows (closed bank) or a precharge plus a read and
/// a write of the open row (open bank), and a refresh of every rank.
fn valid_commands(ch: &Channel) -> Vec<Command> {
    let mut out = Vec::new();
    for bank in 0..ch.bank_count() {
        let rank = ch.rank_of(bank);
        let cmd = |kind, row| Command { kind, rank, bank, row, col: 0, request: RequestId(0) };
        match ch.bank(bank).open_row() {
            None => out.extend((0..4).map(|row| cmd(CommandKind::Activate, row))),
            Some(row) => out.extend(
                [CommandKind::Precharge, CommandKind::Read, CommandKind::Write]
                    .map(|kind| cmd(kind, row)),
            ),
        }
    }
    out.extend((0..ch.rank_count()).map(|rank| Command::refresh(rank, RequestId(u64::MAX))));
    out
}

/// Replays a random legal command history on a `ranks`-rank channel: each
/// step picks one structurally valid command and issues it on the first
/// free command-clock edge at or after its earliest issue cycle, plus a
/// random delay. Before every step, each valid command must be blocked at
/// every cycle from the last issue up to its `earliest_issue`, issuable at
/// it, and — on command-clock edges — rejected and then accepted at the
/// same cycles by the independent rule-table [`ProtocolChecker`].
fn check_earliest_issue(ranks: usize, steps: &[(u16, u8)]) -> Result<(), TestCaseError> {
    let timing = TimingParams::ddr2_800();
    let mut ch = Channel::with_ranks(ranks, 4, timing);
    let mut checker = ProtocolChecker::with_ranks(ranks, 4, timing);
    // The first command-clock edge free for the next command.
    let mut next_slot = 0u64;
    for &(choice, delay) in steps {
        let candidates = valid_commands(&ch);
        for cmd in &candidates {
            let earliest = ch.earliest_issue(cmd);
            prop_assert!(ch.can_issue(cmd, earliest), "{cmd:?} blocked at its earliest {earliest}");
            for t in next_slot..earliest {
                prop_assert!(!ch.can_issue(cmd, t), "{cmd:?} issuable at {t} < {earliest}");
            }
            let first_edge = earliest.max(next_slot).next_multiple_of(DRAM_CYCLE);
            for t in (next_slot..first_edge).step_by(DRAM_CYCLE as usize) {
                prop_assert!(checker.check(cmd, t).is_err(), "checker accepts {cmd:?} at {t}");
            }
            let verdict = checker.check(cmd, first_edge);
            prop_assert!(verdict.is_ok(), "checker rejects at {first_edge}: {verdict:?}");
        }
        let cmd = candidates[usize::from(choice) % candidates.len()];
        let at = ch.earliest_issue(&cmd).max(next_slot).next_multiple_of(DRAM_CYCLE)
            + u64::from(delay) * DRAM_CYCLE;
        let verdict = checker.observe(&cmd, at);
        prop_assert!(verdict.is_ok(), "history step rejected: {verdict:?}");
        ch.issue(&cmd, ThreadId(0), at);
        next_slot = at + DRAM_CYCLE;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn earliest_issue_is_the_first_legal_cycle_on_one_rank(
        steps in proptest::collection::vec((any::<u16>(), 0u8..4), 1..60),
    ) {
        check_earliest_issue(1, &steps)?;
    }

    #[test]
    fn earliest_issue_is_the_first_legal_cycle_on_two_ranks(
        steps in proptest::collection::vec((any::<u16>(), 0u8..4), 1..60),
    ) {
        check_earliest_issue(2, &steps)?;
    }

    #[test]
    fn fcfs_never_violates_protocol(specs in proptest::collection::vec(req_spec(), 1..120)) {
        // `Controller::with_checker` panics on the first protocol violation.
        run_stream(&specs, Box::new(FcfsScheduler::new()));
    }

    #[test]
    fn lifo_never_violates_protocol(specs in proptest::collection::vec(req_spec(), 1..120)) {
        run_stream(&specs, Box::new(LifoScheduler));
    }

    #[test]
    fn hash_order_never_violates_protocol(
        specs in proptest::collection::vec(req_spec(), 1..120),
        key in any::<u64>(),
    ) {
        run_stream(&specs, Box::new(HashOrderScheduler { key }));
    }

    #[test]
    fn latencies_are_bounded_below_by_row_hit_minimum(
        specs in proptest::collection::vec(req_spec(), 1..40),
    ) {
        let cfg = DramConfig::default();
        let t = cfg.timing;
        let mut ctrl = Controller::with_checker(cfg, Box::new(FcfsScheduler::new()));
        let mut now = 0u64;
        for (i, s) in specs.iter().enumerate() {
            let addr = parbs_dram::LineAddr {
                channel: 0, bank: s.bank as usize, row: s.row as u64, col: s.col as u64,
            };
            let _ = ctrl.try_enqueue(Request::new(
                i as u64, ThreadId(s.thread as usize), addr, RequestKind::Read, now,
            ));
        }
        let done = ctrl.run_to_drain(&mut now, 10_000_000);
        let min = t.t_cl + t.t_burst + t.front_latency;
        for c in &done {
            prop_assert!(c.latency() >= min, "latency {} below physical minimum {min}", c.latency());
        }
    }
}

//! Test-only helpers shared by the workspace integration tests: the
//! hand-written reference oracle for the PAR-BS batching invariants, and a
//! deliberately broken batching scheduler that violates them.
//!
//! Production code checks the invariants with the `prelude::invariants()`
//! monitor spec; `monitor_identity.rs` holds that spec to this oracle
//! verdict by verdict.

// Each test crate includes this module and uses a different part of it.
#![allow(dead_code)]

use std::collections::HashMap;

use parbs_dram::{MemoryScheduler, Request, SchedView};
use parbs_obs::{CmdKind, Event, EventSink};

/// The identity of one verdict: (rule/trigger name, offending cycle,
/// offending thread). The oracle and the monitor both reduce to this.
pub type Verdict = (String, u64, Option<usize>);

/// Per-request state the oracle tracks between `Enqueued` and `Completed`.
#[derive(Debug, Clone, Copy)]
struct Tracked {
    thread: usize,
    bank: usize,
    row: u64,
    write: bool,
    marked: bool,
}

/// Reference checker for the four PAR-BS batching invariants, restated over
/// the event stream alone (so it is sound for any scheduler on the bus):
///
/// 1. **marked-first** (Rule 2, batched-first): a column `RD` must not
///    issue for an *unmarked* read while a *marked* read to the **same bank
///    and row** is queued — such a pair has identical readiness, so
///    servicing the unmarked one ranked it above a schedulable marked one.
/// 2. **marking-cap** (Rule 1): at most Marking-Cap requests marked per
///    (thread, bank) within one batch, using the cap announced by the
///    batch's `BatchFormed` event.
/// 3. **batch-exclusive** (Rule 1): a new exclusive batch may form only
///    after every marked request of the previous batch completed. Static
///    time-based batching announces `exclusive: false` and is exempt.
/// 4. **rank-order** (Rule 3, Max-Total): ranks must be `0..n`, and a
///    ranking claiming the Max-Total scheme must list threads in
///    non-decreasing (max-bank-load, total-load) order.
#[derive(Debug, Default)]
pub struct InvariantOracle {
    /// Outstanding requests by id.
    tracked: HashMap<u64, Tracked>,
    /// Marking-Cap of the current batch (`None` = uncapped).
    cap: Option<u32>,
    /// Marks charged per (thread, bank) in the current batch.
    marks: HashMap<(usize, usize), u32>,
    /// Violations, in detection order.
    pub violations: Vec<Verdict>,
    /// Total events observed.
    pub events: u64,
}

impl InvariantOracle {
    /// The violations, sorted for comparison against monitor alarms.
    pub fn verdicts(&self) -> Vec<Verdict> {
        let mut v = self.violations.clone();
        v.sort();
        v
    }

    fn report(&mut self, rule: &str, at: u64, thread: Option<usize>) {
        self.violations.push((rule.to_owned(), at, thread));
    }
}

impl EventSink for InvariantOracle {
    fn record(&mut self, event: &Event) {
        self.events += 1;
        match event {
            Event::Enqueued { request, thread, write, bank, row, .. } => {
                self.tracked.insert(
                    *request,
                    Tracked {
                        thread: *thread,
                        bank: *bank,
                        row: *row,
                        write: *write,
                        marked: false,
                    },
                );
            }
            Event::BatchFormed { at, cap, exclusive, .. } => {
                if *exclusive && self.tracked.values().any(|t| t.marked && !t.write) {
                    self.report("batch-exclusive", *at, None);
                }
                self.cap = *cap;
                self.marks.clear();
            }
            Event::Marked { at, request, thread, bank, .. } => {
                if let Some(t) = self.tracked.get_mut(request) {
                    t.marked = true;
                }
                let used = self.marks.entry((*thread, *bank)).or_insert(0);
                *used += 1;
                if self.cap.is_some_and(|cap| *used > cap) {
                    self.report("marking-cap", *at, Some(*thread));
                }
            }
            Event::RankComputed { at, max_total, entries, .. } => {
                let mut ranks: Vec<u32> = entries.iter().map(|e| e.rank).collect();
                ranks.sort_unstable();
                let is_permutation = ranks.iter().enumerate().all(|(i, &r)| r == i as u32);
                let mut by_rank = entries.clone();
                by_rank.sort_by_key(|e| e.rank);
                let sorted = by_rank.windows(2).all(|p| {
                    (p[0].max_bank_load, p[0].total_load) <= (p[1].max_bank_load, p[1].total_load)
                });
                if !is_permutation || (*max_total && !sorted) {
                    self.report("rank-order", *at, None);
                }
            }
            Event::CommandIssued {
                at,
                request,
                thread,
                kind: CmdKind::Read,
                bank,
                row,
                marked: false,
                ..
            } => {
                let blocked = self.tracked.iter().any(|(id, t)| {
                    id != request && !t.write && t.marked && t.bank == *bank && t.row == *row
                });
                if blocked {
                    self.report("marked-first", *at, Some(*thread));
                }
            }
            Event::Completed { request, .. } => {
                self.tracked.remove(request);
            }
            Event::CommandIssued { .. }
            | Event::BatchDrained { .. }
            | Event::WriteDrain { .. }
            | Event::Refresh { .. }
            | Event::BusSample { .. }
            | Event::BlacklistSet { .. }
            | Event::BlacklistCleared { .. }
            | Event::QuantumRolled { .. } => {}
        }
    }
}

/// A deliberately broken batching scheduler: it marks every even-id request
/// (announcing the batch like PAR-BS does) but then *prioritizes unmarked
/// requests*, inverting Rule 2. An invariant checker must catch the
/// marked-first violation from the controller's event stream.
#[derive(Default)]
pub struct RuleTwoInverted {
    observing: bool,
    events: Vec<Event>,
}

impl MemoryScheduler for RuleTwoInverted {
    fn name(&self) -> &str {
        "broken"
    }

    fn pre_schedule(&mut self, queue: &mut [Request], view: &SchedView<'_>) -> bool {
        let announce_at = self.events.len();
        let mut marked = 0u32;
        for r in queue.iter_mut() {
            if !r.marked && r.id.0 % 2 == 0 {
                r.marked = true;
                marked += 1;
                if self.observing {
                    self.events.push(Event::Marked {
                        at: view.now,
                        request: r.id.0,
                        thread: r.thread.0,
                        rank: r.addr.bank / view.channel.banks_per_rank(),
                        bank: r.addr.bank,
                    });
                }
            }
        }
        if marked > 0 && self.observing {
            self.events.insert(
                announce_at,
                Event::BatchFormed {
                    at: view.now,
                    id: 1,
                    marked,
                    cap: None,
                    exclusive: false,
                    per_thread: Vec::new(),
                },
            );
        }
        marked > 0
    }

    fn priority_key(&self, req: &Request, _view: &SchedView<'_>) -> u128 {
        // Higher key = served first: unmarked requests win, ties oldest-first.
        (u128::from(!req.marked) << 64) | u128::from(u64::MAX - req.id.0)
    }

    fn set_observing(&mut self, enabled: bool) {
        self.observing = enabled;
        if !enabled {
            self.events.clear();
        }
    }

    fn drain_events(&mut self, out: &mut Vec<Event>) {
        out.append(&mut self.events);
    }
}

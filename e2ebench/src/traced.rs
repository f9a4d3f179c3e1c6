//! The traced stepper: one shared-run simulation stepped cycle by cycle
//! through the same public calls `System::tick` makes, with each call
//! timed from here. Nothing inside the simulator is instrumented, so the
//! untraced runs measure exactly what users run.
//!
//! The stepper mirrors `System::{begin_run, step_cycle, tick,
//! issue_memory_ops, finish_run}` statement for statement. The output check
//! compares its [`RunResult`] with the untraced `System::run` of the same
//! job, so a semantic drift between the two fails every run; a change that
//! only restructures `System::tick` for speed must be mirrored here by hand
//! for the per-layer times to follow it.

use std::collections::HashMap;
use std::time::Instant;

use parbs_cpu::{Core, InstructionStream, MissId};
use parbs_dram::{
    AddressMapper, BlpTracker, Completion, Controller, Request, RequestKind, ThreadId, DRAM_CYCLE,
};
use parbs_sim::{RunResult, SchedulerKind, SimConfig, ThreadRunStats};
use parbs_workloads::{MixSpec, SyntheticStream};

/// Host self time (seconds) and model counts of the layers of
/// `System::tick`, summed over every traced cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTrace {
    /// `Controller::tick` on DRAM-cycle boundaries: delivery scan, BLP
    /// sampling, `pre_schedule`, refresh, write drain and the selection.
    pub ctrl_decide_s: f64,
    /// `Controller::tick` between boundaries: the completion scan only.
    pub ctrl_deliver_s: f64,
    /// Completion routing through the in-flight map into
    /// `Core::complete_read`.
    pub route_s: f64,
    /// `Core::tick` of every core.
    pub core_tick_s: f64,
    /// `pending_read`/`pending_write` + `AddressMapper::decode` +
    /// `Controller::try_enqueue`.
    pub issue_s: f64,
    /// Stall deltas + `report_stall_cycles` + `banks_servicing_thread`.
    pub feedback_s: f64,
    /// Wall time of the whole traced run, first cycle to result.
    pub wall_s: f64,
    /// Processor cycles simulated.
    pub cycles: u64,
    /// Per-core `Core::tick` calls.
    pub core_ticks: u64,
    /// Decision slots: controller ticks on DRAM-cycle boundaries.
    pub slots: u64,
    /// Read-queue length summed over slots, sampled before each decision.
    pub read_q_sum: u64,
    /// Write-queue length summed over slots, sampled before each decision.
    pub write_q_sum: u64,
    /// Cycles in which every core's memory-stall counter advanced.
    pub all_stalled_cycles: u64,
    /// DRAM commands issued (refreshes included).
    pub commands: u64,
    /// Read requests accepted by the controllers.
    pub reads: u64,
    /// Write requests accepted by the controllers.
    pub writes: u64,
    /// All-bank refreshes issued.
    pub refreshes: u64,
    /// Requests whose first command was a column command.
    pub row_hits: u64,
    /// Requests classified as row hit, closed or conflict.
    pub row_accesses: u64,
}

impl LayerTrace {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &LayerTrace) {
        self.ctrl_decide_s += other.ctrl_decide_s;
        self.ctrl_deliver_s += other.ctrl_deliver_s;
        self.route_s += other.route_s;
        self.core_tick_s += other.core_tick_s;
        self.issue_s += other.issue_s;
        self.feedback_s += other.feedback_s;
        self.wall_s += other.wall_s;
        self.cycles += other.cycles;
        self.core_ticks += other.core_ticks;
        self.slots += other.slots;
        self.read_q_sum += other.read_q_sum;
        self.write_q_sum += other.write_q_sum;
        self.all_stalled_cycles += other.all_stalled_cycles;
        self.commands += other.commands;
        self.reads += other.reads;
        self.writes += other.writes;
        self.refreshes += other.refreshes;
        self.row_hits += other.row_hits;
        self.row_accesses += other.row_accesses;
    }
}

/// The shared-run system of one job, assembled from the public parts the
/// harness assembles it from.
pub struct TracedSim {
    cfg: SimConfig,
    cores: Vec<Core>,
    controllers: Vec<Controller>,
    mapper: AddressMapper,
    next_request: u64,
    inflight: HashMap<u64, (usize, MissId)>,
    prev_stall: Vec<u64>,
    blp: Vec<BlpTracker>,
    thread_worst_case: Vec<u64>,
    completions: Vec<Completion>,
    trace: LayerTrace,
    /// Each core's memory-stall counter at the start of the cycle.
    stall_before: Vec<u64>,
}

impl TracedSim {
    /// Builds the system `Harness::shared_system(mix, kind, &none)` builds
    /// on a harness with base configuration `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the mix's core count differs from `cfg.cores`.
    #[must_use]
    pub fn new(cfg: &SimConfig, mix: &MixSpec, kind: &SchedulerKind) -> Self {
        assert_eq!(mix.cores(), cfg.cores, "mix '{}' needs {} cores", mix.name, mix.cores());
        let cfg = cfg.clone();
        let cores = mix
            .benchmarks
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let stream: Box<dyn InstructionStream> =
                    Box::new(SyntheticStream::new(b, cfg.geometry(), cfg.seed, i as u64));
                Core::new(cfg.core, stream)
            })
            .collect();
        let controllers = (0..cfg.dram.channels())
            .map(|_| Controller::new(cfg.dram.clone(), kind.build(&cfg)))
            .collect();
        let n = cfg.cores;
        TracedSim {
            mapper: cfg.dram.mapper(),
            cores,
            controllers,
            next_request: 0,
            inflight: HashMap::new(),
            prev_stall: vec![0; n],
            blp: vec![BlpTracker::new(); n],
            thread_worst_case: vec![0; n],
            completions: Vec::new(),
            trace: LayerTrace::default(),
            stall_before: vec![0; n],
            cfg,
        }
    }

    /// Runs to completion (every thread at its target, or `max_cycles`),
    /// returning the result `System::run` returns and the layer trace.
    pub fn run(mut self) -> (RunResult, LayerTrace) {
        let start = Instant::now();
        let n = self.cores.len();
        let target = self.cfg.target_instructions;
        let mut snapshots: Vec<Option<ThreadRunStats>> = vec![None; n];
        let mut remaining = n;
        let mut now = 0;
        let mut timed_out = false;
        while remaining > 0 {
            if now >= self.cfg.max_cycles {
                timed_out = true;
                break;
            }
            self.tick(now);
            for (t, slot) in snapshots.iter_mut().enumerate() {
                if slot.is_none() && self.cores[t].stats().committed >= target {
                    *slot = Some(self.snapshot_at(t, now + 1));
                    remaining -= 1;
                }
            }
            now += 1;
        }
        let result = self.finish(snapshots, now, timed_out);
        let mut trace = self.trace;
        trace.cycles = now;
        for c in &self.controllers {
            let s = c.stats();
            trace.commands += s.commands_issued;
            trace.reads += s.reads_received;
            trace.writes += s.writes_received;
            trace.refreshes += s.refreshes;
            trace.row_hits += s.row_hits;
            trace.row_accesses += s.row_hits + s.row_closed + s.row_conflicts;
        }
        trace.wall_s = start.elapsed().as_secs_f64();
        (result, trace)
    }

    fn finish(
        &self,
        mut snapshots: Vec<Option<ThreadRunStats>>,
        now: u64,
        timed_out: bool,
    ) -> RunResult {
        let threads: Vec<ThreadRunStats> = (0..self.cores.len())
            .map(|t| snapshots[t].take().unwrap_or_else(|| self.snapshot_at(t, now.max(1))))
            .collect();
        let (hits, total): (u64, u64) = self
            .controllers
            .iter()
            .map(|c| {
                let s = c.stats();
                (s.row_hits, s.row_hits + s.row_closed + s.row_conflicts)
            })
            .fold((0, 0), |(h, t), (h2, t2)| (h + h2, t + t2));
        let mut read_latency = parbs_metrics::LatencyHistogram::new();
        for c in &self.controllers {
            read_latency.merge(&c.stats().read_latency);
        }
        RunResult {
            worst_case_latency: self.thread_worst_case.iter().copied().max().unwrap_or(0),
            threads,
            cycles: now,
            row_hit_rate: if total == 0 { 0.0 } else { hits as f64 / total as f64 },
            timed_out,
            read_latency,
        }
    }

    fn snapshot_at(&self, t: usize, cycles: u64) -> ThreadRunStats {
        let s = self.cores[t].stats();
        let (hits, total) = self
            .controllers
            .iter()
            .map(|c| {
                let cat = c.stats().thread_read_categories.get(t).copied().unwrap_or((0, 0, 0));
                (cat.0, cat.0 + cat.1 + cat.2)
            })
            .fold((0u64, 0u64), |(h, n), (h2, n2)| (h + h2, n + n2));
        let blps: Vec<f64> = self
            .controllers
            .iter()
            .map(|c| c.stats().thread_blp_average(ThreadId(t)))
            .filter(|v| *v > 0.0)
            .collect();
        ThreadRunStats {
            instructions: s.committed,
            cycles,
            mem_stall_cycles: s.mem_stall_cycles,
            dram_reads: s.dram_reads,
            dram_writes: s.dram_writes,
            blp: if blps.is_empty() { 0.0 } else { blps.iter().sum::<f64>() / blps.len() as f64 },
            read_hit_rate: if total == 0 { 0.0 } else { hits as f64 / total as f64 },
            worst_case_latency: self.thread_worst_case[t],
        }
    }

    /// One processor cycle, each layer timed from its first call to its
    /// last; the model counts are taken outside the timed spans.
    fn tick(&mut self, now: u64) {
        let boundary = now.is_multiple_of(DRAM_CYCLE);
        for (b, c) in self.stall_before.iter_mut().zip(&self.cores) {
            *b = c.stats().mem_stall_cycles;
        }
        if boundary {
            for ctrl in &self.controllers {
                self.trace.slots += 1;
                self.trace.read_q_sum += ctrl.reads().len() as u64;
                self.trace.write_q_sum += ctrl.write_queue_len() as u64;
            }
        }
        let t0 = Instant::now();
        for ctrl in &mut self.controllers {
            ctrl.tick(now, &mut self.completions);
        }
        let t1 = Instant::now();
        for c in self.completions.drain(..) {
            if c.kind == RequestKind::Read {
                if let Some((core, miss)) = self.inflight.remove(&c.request.0) {
                    self.cores[core].complete_read(miss);
                    let wc = &mut self.thread_worst_case[c.thread.0];
                    *wc = (*wc).max(c.latency());
                }
            }
        }
        let t2 = Instant::now();
        for core in &mut self.cores {
            core.tick(now);
        }
        let t3 = Instant::now();
        for t in 0..self.cores.len() {
            self.issue_memory_ops(t, now);
        }
        let t4 = Instant::now();
        if boundary {
            let stalls: Vec<u64> = self
                .cores
                .iter()
                .enumerate()
                .map(|(t, c)| {
                    let total = c.stats().mem_stall_cycles;
                    let delta = total - self.prev_stall[t];
                    self.prev_stall[t] = total;
                    delta
                })
                .collect();
            for ctrl in &mut self.controllers {
                ctrl.report_stall_cycles(&stalls, now);
            }
            for t in 0..self.cores.len() {
                let busy: usize = self
                    .controllers
                    .iter()
                    .map(|c| c.channel().banks_servicing_thread(ThreadId(t), now))
                    .sum();
                self.blp[t].record(busy);
            }
            self.trace.feedback_s += t4.elapsed().as_secs_f64();
        }
        let ctrl_s = (t1 - t0).as_secs_f64();
        if boundary {
            self.trace.ctrl_decide_s += ctrl_s;
        } else {
            self.trace.ctrl_deliver_s += ctrl_s;
        }
        self.trace.route_s += (t2 - t1).as_secs_f64();
        self.trace.core_tick_s += (t3 - t2).as_secs_f64();
        self.trace.issue_s += (t4 - t3).as_secs_f64();
        self.trace.core_ticks += self.cores.len() as u64;
        if self.cores.iter().zip(&self.stall_before).all(|(c, &b)| c.stats().mem_stall_cycles > b) {
            self.trace.all_stalled_cycles += 1;
        }
    }

    fn issue_memory_ops(&mut self, t: usize, now: u64) {
        while let Some((line, miss)) = self.cores[t].pending_read() {
            let addr = self.mapper.decode(line);
            let ctrl = &mut self.controllers[addr.channel];
            if !ctrl.can_accept_read() {
                break;
            }
            let mut req =
                Request::new(self.next_request, ThreadId(t), addr, RequestKind::Read, now);
            req.priority_level = self.cfg.priority_of(t).period().map(|p| p as u8);
            ctrl.try_enqueue(req).expect("capacity was checked");
            self.inflight.insert(self.next_request, (t, miss));
            self.next_request += 1;
            self.cores[t].read_issued(miss);
        }
        while let Some(line) = self.cores[t].pending_write() {
            let addr = self.mapper.decode(line);
            let ctrl = &mut self.controllers[addr.channel];
            if !ctrl.can_accept_write() {
                break;
            }
            let mut req =
                Request::new(self.next_request, ThreadId(t), addr, RequestKind::Write, now);
            req.priority_level = self.cfg.priority_of(t).period().map(|p| p as u8);
            ctrl.try_enqueue(req).expect("capacity was checked");
            self.next_request += 1;
            self.cores[t].write_issued();
        }
    }
}

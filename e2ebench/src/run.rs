//! One benchmark run: set-up, the traced reference pass, the untraced
//! measured rounds, the output check, and the metrics they yield.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use parbs_sim::{EvalPlan, Harness, MixEvaluation, RunResult, SchedulerKind, SimConfig};

use crate::host::{SpeedProbe, PROBE_REF_NS_PER_STEP};
use crate::traced::{LayerTrace, TracedSim};
use crate::workloads::{inputs, Inputs, Scale, Workload};

/// Set-up repetitions before the first round; one more precedes each
/// round, so the samples `setup_s` takes the median of span the run.
const SETUP_WARM_REPEATS: usize = 5;

/// Speed-probe calls on each side of a `sweep4` round's `run_plan`.
const SWEEP_PROBES: usize = 8;

/// Share of a single-simulation round's run time spent probing: after
/// each job the probe runs until its time reaches this share of the run
/// time so far, and at least once, so long jobs get as many samples of
/// the host's speed as short ones.
const PROBE_SHARE: f64 = 0.02;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated streams and mixes.
    pub seed: u64,
    /// Measured rounds start until this many seconds have passed (at least
    /// one round runs).
    pub seconds: f64,
    /// Whether to run the traced harness pass and report per-layer metrics.
    pub trace: bool,
    /// Run length.
    pub scale: Scale,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Untraced job executions checked.
    pub attempted: u64,
    /// Checked executions that panicked, timed out or differed from the
    /// reference.
    pub failed: u64,
    /// Unscaled simulated Mcycles per host second of each measured
    /// untraced round, in run order.
    pub round_rates: Vec<f64>,
    /// Host-speed factor of each round (see [`crate::host::SpeedProbe`]):
    /// probe time per step ÷ [`PROBE_REF_NS_PER_STEP`]. Above 1 the host
    /// ran slower than the reference.
    pub round_host_factors: Vec<f64>,
    /// (mix, scheduler) jobs in one round.
    pub jobs_per_round: usize,
    /// Times the set-up path was timed.
    pub setup_repeats: usize,
    /// End-to-end metrics, from untraced runs only.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (empty unless traced).
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    /// Share of checked executions that failed.
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `q`-quantile of `values`, interpolating linearly between ranks.
fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Checks an untraced shared run against the traced stepper's run of the
/// same job: equal cycles, every `ThreadRunStats` field, row-hit rate,
/// worst-case latency and latency histogram, and no timeout.
///
/// # Errors
///
/// Returns what differed.
pub fn check_run(reference: &RunResult, got: &RunResult) -> Result<(), String> {
    if got.timed_out {
        return Err(format!("timed out after {} cycles", got.cycles));
    }
    if got.cycles != reference.cycles {
        return Err(format!("cycles {} != reference {}", got.cycles, reference.cycles));
    }
    if let Some(t) = (0..got.threads.len().max(reference.threads.len()))
        .find(|&t| got.threads.get(t) != reference.threads.get(t))
    {
        return Err(format!("thread {t} stats differ from the reference"));
    }
    if got != reference {
        return Err("aggregate run statistics differ from the reference".to_owned());
    }
    Ok(())
}

/// Checks a sweep row's shared-run fields against the traced stepper's run
/// of the same job.
///
/// # Errors
///
/// Returns what differed.
pub fn check_row(reference: &RunResult, row: &MixEvaluation) -> Result<(), String> {
    let shared = RunResult {
        threads: row.shared.clone(),
        row_hit_rate: row.row_hit_rate,
        worst_case_latency: row.worst_case_latency,
        ..reference.clone()
    };
    check_run(reference, &shared)
}

/// A measured untraced round: every job of the workload once.
#[derive(Debug, Clone, Copy, Default)]
struct Round {
    /// Seconds inside the measured calls (`System::run`, or `run_plan`).
    run_s: f64,
    /// Seconds of the whole round, system construction included and
    /// speed probes left out.
    wall_s: f64,
    cycles: u64,
    instructions: u64,
    rows: usize,
    /// Seconds in speed-probe calls, how many were made, and the wall
    /// seconds they took with their warm-up.
    probe_s: f64,
    probes: u64,
    probe_wall_s: f64,
}

impl Round {
    fn mcycles_per_s(&self) -> f64 {
        self.cycles as f64 / self.run_s / 1e6
    }

    fn probe(&mut self, probe: &mut SpeedProbe, calls: usize) {
        let start = Instant::now();
        for _ in 0..calls {
            self.probe_s += probe.time();
            self.probes += 1;
        }
        self.probe_wall_s += start.elapsed().as_secs_f64();
    }

    fn host_factor(&self) -> f64 {
        host_factor(self.probe_s, self.probes)
    }
}

/// The host-speed factor of `calls` probe calls that took `probe_s`:
/// their time per step over the reference, or 1 without calls.
fn host_factor(probe_s: f64, calls: u64) -> f64 {
    if calls == 0 {
        return 1.0;
    }
    let ns_per_step = probe_s * 1e9 / (calls * SpeedProbe::STEPS) as f64;
    ns_per_step / PROBE_REF_NS_PER_STEP
}

/// The output check of the untraced rounds. Each job's executions are
/// compared with its first; the first is compared with the traced
/// reference after the rounds, so that the traced pass runs after
/// `peak_rss_mb` is read and cannot raise it.
struct FirstRuns<T> {
    first: Vec<Option<T>>,
    /// Executions of each job equal to its first, the first included.
    agreeing: Vec<u64>,
}

impl<T: PartialEq> FirstRuns<T> {
    fn new(jobs: usize) -> Self {
        FirstRuns { first: (0..jobs).map(|_| None).collect(), agreeing: vec![0; jobs] }
    }

    /// Records job `i`'s output (`None` if it panicked).
    fn record(&mut self, i: usize, output: Option<T>) -> Result<(), String> {
        let output = output.ok_or("the run panicked")?;
        match &self.first[i] {
            Some(first) if *first != output => {
                return Err("differs from the job's first untraced run".to_owned())
            }
            Some(_) => {}
            None => self.first[i] = Some(output),
        }
        self.agreeing[i] += 1;
        Ok(())
    }

    /// Checks each job's first output with `check` and returns the
    /// executions that agreed with a first output that failed it.
    fn finish(&self, plan: &EvalPlan, check: impl Fn(usize, &T) -> Result<(), String>) -> u64 {
        let mut bad = 0;
        for (i, job) in plan.jobs().iter().enumerate() {
            let Some(first) = &self.first[i] else { continue };
            if let Err(why) = check(i, first) {
                eprintln!("check failed: {} / {}: {why}", job.mix.name, job.kind.name());
                bad += self.agreeing[i];
            }
        }
        bad
    }
}

/// Checks an untraced output against the traced reference run of its job.
fn against_reference<T>(
    reference: &Reference,
    i: usize,
    output: &T,
    check: fn(&RunResult, &T) -> Result<(), String>,
) -> Result<(), String> {
    let expected = reference.results[i].as_ref().ok_or("the traced reference run panicked")?;
    check(expected, output)
}

/// The traced reference pass: every job through the traced stepper.
struct Reference {
    results: Vec<Option<RunResult>>,
    all: LayerTrace,
    by_scheduler: Vec<(&'static str, LayerTrace)>,
}

fn reference_pass(cfg: &SimConfig, plan: &EvalPlan) -> Reference {
    let mut all = LayerTrace::default();
    let mut by_scheduler: Vec<(&'static str, LayerTrace)> =
        SchedulerKind::zoo_seven().iter().map(|k| (k.name(), LayerTrace::default())).collect();
    let results = plan
        .jobs()
        .iter()
        .map(|job| {
            let (result, trace) = guarded(|| TracedSim::new(cfg, &job.mix, &job.kind).run())?;
            all.add(&trace);
            if let Some((_, t)) = by_scheduler.iter_mut().find(|(n, _)| *n == job.kind.name()) {
                t.add(&trace);
            }
            Some(result)
        })
        .collect();
    Reference { results, all, by_scheduler }
}

/// Runs one benchmark run.
#[must_use]
pub fn run(opts: &Options) -> Outcome {
    let mut probe = SpeedProbe::new();
    let mut setup_times: Vec<f64> =
        (1..SETUP_WARM_REPEATS).map(|_| scaled_setup(opts, &mut probe).0).collect();
    let (first, inputs) = scaled_setup(opts, &mut probe);
    setup_times.push(first);
    let jobs = parbs_sim::default_jobs();
    let mut attempted = 0;
    let mut failed = 0;
    let mut rounds = Vec::new();
    let harness = Harness::new(inputs.cfg.clone());
    let serial = opts
        .workload
        .is_sweep()
        .then(|| guarded(|| Harness::new(inputs.cfg.clone()).run_plan(&inputs.plan, 1)));
    let mut first_runs = FirstRuns::new(inputs.plan.len());
    let mut first_rows = FirstRuns::new(inputs.plan.len());
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
        setup_times.push(scaled_setup(opts, &mut probe).0);
        let (round, bad) = match &serial {
            Some(serial) => {
                sweep_round(&inputs, jobs, &mut first_rows, serial.as_deref(), &mut probe)
            }
            None => single_round(&harness, &inputs.plan, &mut first_runs, &mut probe),
        };
        attempted += round.rows as u64;
        failed += bad;
        rounds.push(round);
    }
    let peak_rss_mb = crate::host::peak_rss_mib().unwrap_or(0.0);
    let reference = reference_pass(&inputs.cfg, &inputs.plan);
    failed +=
        first_runs.finish(&inputs.plan, |i, r| against_reference(&reference, i, r, check_run));
    failed +=
        first_rows.finish(&inputs.plan, |i, r| against_reference(&reference, i, r, check_row));
    let harness_pass =
        (opts.trace && serial.is_some()).then(|| traced_harness_pass(&inputs, jobs, &reference));
    if let Some((_, bad)) = harness_pass {
        failed += bad;
        attempted += inputs.plan.len() as u64;
    }
    // Other tenants of the host slow whole stretches of a run down. Each
    // round's rate is scaled by the speed probe taken beside it, and a
    // rate is the median of the scaled rounds.
    let rate = |f: &dyn Fn(&Round) -> f64| {
        let mut v: Vec<f64> = rounds.iter().map(|r| f(r) * r.host_factor()).collect();
        quantile(&mut v, 0.5)
    };
    let end_to_end = vec![
        metric("sim_mcycles_per_s", rate(&Round::mcycles_per_s), "Mcycles/s"),
        metric("sim_minstr_per_s", rate(&|r| r.instructions as f64 / r.run_s / 1e6), "Minstr/s"),
        metric("sweep_rows_per_s", rate(&|r| r.rows as f64 / r.run_s), "rows/s"),
        metric("setup_s", quantile(&mut setup_times, 0.5), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    let per_layer = if opts.trace {
        let median_of = |f: &dyn Fn(&Round) -> f64| {
            let mut v: Vec<f64> = rounds.iter().map(f).collect();
            quantile(&mut v, 0.5)
        };
        let untraced = HarnessTrace {
            shared_s: median_of(&|r| r.run_s),
            parallel_eff: median_of(&|r| r.run_s / r.wall_s),
            ..HarnessTrace::default()
        };
        let harness = harness_pass.map_or(untraced, |(h, _)| h);
        // Same jobs, untraced: the single-sim rounds time exactly the
        // reference jobs; the sweep's harness pass times their shared runs.
        let trace_overhead = ratio(reference.all.wall_s, harness.shared_s);
        layer_metrics(&reference, &harness, trace_overhead)
    } else {
        Vec::new()
    };
    Outcome {
        attempted,
        failed,
        round_rates: rounds.iter().map(Round::mcycles_per_s).collect(),
        round_host_factors: rounds.iter().map(Round::host_factor).collect(),
        jobs_per_round: inputs.plan.len(),
        setup_repeats: setup_times.len(),
        end_to_end,
        per_layer,
    }
}

/// Times the set-up path once — configuration, mixes, `Harness::new`,
/// and the streams and `System::new` of every job, each system dropped
/// before the next is built as the rounds do — and returns the time with
/// the generated inputs.
/// [`setup`]'s time divided by the host-speed factor of a probe call
/// made right after it: set-up drifts with the host as the rounds do.
fn scaled_setup(opts: &Options, probe: &mut SpeedProbe) -> (f64, Inputs) {
    let (seconds, inputs) = setup(opts);
    (seconds / host_factor(probe.time(), 1), inputs)
}

fn setup(opts: &Options) -> (f64, Inputs) {
    let start = Instant::now();
    let inputs = inputs(opts.workload, opts.seed, &opts.scale);
    let harness = Harness::new(inputs.cfg.clone());
    let mut elapsed = start.elapsed();
    for job in inputs.plan.jobs() {
        let t0 = Instant::now();
        let system = harness.shared_system(&job.mix, &job.kind, &job.overrides);
        elapsed += t0.elapsed();
        drop(system);
    }
    (elapsed.as_secs_f64(), inputs)
}

fn single_round(
    harness: &Harness,
    plan: &EvalPlan,
    first_runs: &mut FirstRuns<RunResult>,
    probe: &mut SpeedProbe,
) -> (Round, u64) {
    let start = Instant::now();
    let mut round = Round::default();
    let mut bad = 0;
    for (i, job) in plan.jobs().iter().enumerate() {
        let mut system = harness.shared_system(&job.mix, &job.kind, &job.overrides);
        let t0 = Instant::now();
        let result = guarded(|| system.run());
        round.run_s += t0.elapsed().as_secs_f64();
        round.rows += 1;
        if let Some(r) = &result {
            round.cycles += r.cycles;
            round.instructions += r.threads.iter().map(|t| t.instructions).sum::<u64>();
        }
        let verdict = match &result {
            Some(r) if r.timed_out => Err(format!("timed out after {} cycles", r.cycles)),
            _ => first_runs.record(i, result),
        };
        if let Err(why) = verdict {
            eprintln!("check failed: {} / {}: {why}", job.mix.name, job.kind.name());
            bad += 1;
        }
        round.probe(probe, 1);
        while round.probe_s < PROBE_SHARE * round.run_s {
            round.probe(probe, 1);
        }
    }
    round.wall_s = start.elapsed().as_secs_f64() - round.probe_wall_s;
    (round, bad)
}

fn sweep_round(
    inputs: &Inputs,
    jobs: usize,
    first_rows: &mut FirstRuns<MixEvaluation>,
    serial: Option<&[MixEvaluation]>,
    probe: &mut SpeedProbe,
) -> (Round, u64) {
    let start = Instant::now();
    let mut round = Round::default();
    round.probe(probe, SWEEP_PROBES);
    let harness = Harness::new(inputs.cfg.clone());
    let t0 = Instant::now();
    let rows = guarded(|| harness.run_plan(&inputs.plan, jobs));
    round.run_s = t0.elapsed().as_secs_f64();
    round.probe(probe, SWEEP_PROBES);
    let plan = inputs.plan.jobs();
    round.rows = plan.len();
    let Some(rows) = rows else {
        eprintln!("check failed: run_plan at jobs={jobs} panicked");
        return (round, plan.len() as u64);
    };
    let mut bad = 0;
    for (i, (job, row)) in plan.iter().zip(rows).enumerate() {
        round.cycles += row.shared.iter().map(|t| t.cycles).max().unwrap_or(0);
        round.instructions += row.shared.iter().map(|t| t.instructions).sum::<u64>();
        let verdict = match serial {
            None => Err("run_plan at jobs=1 panicked".to_owned()),
            Some(serial) if serial.get(i) != Some(&row) => {
                Err(format!("row differs from run_plan at jobs=1 vs jobs={jobs}"))
            }
            Some(_) => first_rows.record(i, Some(row)),
        };
        if let Err(why) = verdict {
            eprintln!("check failed: {} / {}: {why}", job.mix.name, job.kind.name());
            bad += 1;
        }
    }
    // The alone baselines the round simulated, each once: their stats are
    // read back from the memo after the clock stopped.
    let mut seen = HashSet::new();
    for job in plan {
        for bench in &job.mix.benchmarks {
            if seen.insert((bench.name, job.kind.name())) {
                let alone = harness.alone(bench, &job.kind);
                round.cycles += alone.cycles;
                round.instructions += alone.instructions;
            }
        }
    }
    round.wall_s = start.elapsed().as_secs_f64() - round.probe_wall_s;
    (round, bad)
}

/// Time charged to the harness layer.
#[derive(Debug, Clone, Copy, Default)]
struct HarnessTrace {
    alone_runs: u64,
    cache_hits: u64,
    alone_s: f64,
    shared_s: f64,
    parallel_eff: f64,
}

/// The traced harness pass: the sweep's plan on a cold harness at `jobs`
/// workers, each job timed around `Harness::run_shared` and the
/// `Harness::alone` lookups of its threads. Returns the trace and the
/// number of shared runs that differed from the reference.
fn traced_harness_pass(inputs: &Inputs, jobs: usize, reference: &Reference) -> (HarnessTrace, u64) {
    let harness = Harness::new(inputs.cfg.clone());
    let plan = inputs.plan.jobs();
    let next = AtomicUsize::new(0);
    let worker = || {
        let (mut shared_s, mut alone_s, mut bad) = (0.0, 0.0, 0u64);
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = plan.get(i) else { break };
            let t0 = Instant::now();
            let shared = harness.run_shared(&job.mix, &job.kind, &job.overrides);
            let t1 = Instant::now();
            for bench in &job.mix.benchmarks {
                let _ = harness.alone(bench, &job.kind);
            }
            alone_s += t1.elapsed().as_secs_f64();
            shared_s += (t1 - t0).as_secs_f64();
            let verdict = reference.results[i].as_ref().map_or_else(
                || Err("the traced reference run panicked".to_owned()),
                |e| check_run(e, &shared),
            );
            if let Err(why) = verdict {
                eprintln!("check failed: {} / {}: {why}", job.mix.name, job.kind.name());
                bad += 1;
            }
        }
        (shared_s, alone_s, bad)
    };
    let start = Instant::now();
    let per_worker = guarded(|| {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..jobs.max(1)).map(|_| scope.spawn(worker)).collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("a harness worker panicked"))
                .collect::<Vec<_>>()
        })
    });
    let wall_s = start.elapsed().as_secs_f64();
    let Some(per_worker) = per_worker else {
        eprintln!("check failed: the traced harness pass panicked");
        return (HarnessTrace::default(), plan.len() as u64);
    };
    let (shared_s, alone_s, bad) =
        per_worker.iter().fold((0.0, 0.0, 0), |(s, a, b), &(s2, a2, b2)| (s + s2, a + a2, b + b2));
    let stats = harness.cache_stats();
    let trace = HarnessTrace {
        alone_runs: stats.misses,
        cache_hits: stats.hits,
        alone_s,
        shared_s,
        parallel_eff: ratio(shared_s + alone_s, jobs.max(1) as f64 * wall_s),
    };
    (trace, bad)
}

fn layer_metrics(
    reference: &Reference,
    harness: &HarnessTrace,
    trace_overhead: f64,
) -> Vec<Metric> {
    let t = &reference.all;
    let slots = t.slots as f64;
    let mut out = vec![
        metric("sim.ctrl_decide_s", t.ctrl_decide_s, "s"),
        metric("dram.ns_per_slot", ratio(t.ctrl_decide_s * 1e9, slots), "ns"),
    ];
    for (name, s) in &reference.by_scheduler {
        out.push(metric(
            format!("dram.ns_per_slot.{name}"),
            ratio(s.ctrl_decide_s * 1e9, s.slots as f64),
            "ns",
        ));
    }
    out.extend([
        metric("dram.slots", slots, "count"),
        metric("dram.commands", t.commands as f64, "count"),
        metric("dram.idle_slot_frac", 1.0 - ratio(t.commands as f64, slots), "ratio"),
        metric("dram.read_q_mean", ratio(t.read_q_sum as f64, slots), "requests"),
        metric("dram.write_q_mean", ratio(t.write_q_sum as f64, slots), "requests"),
        metric(
            "cpu.all_stalled_frac",
            ratio(t.all_stalled_cycles as f64, t.cycles as f64),
            "ratio",
        ),
        metric("sim.core_tick_s", t.core_tick_s, "s"),
        metric("cpu.ns_per_core_tick", ratio(t.core_tick_s * 1e9, t.core_ticks as f64), "ns"),
        metric("sim.feedback_s", t.feedback_s, "s"),
        metric("sim.issue_s", t.issue_s, "s"),
        metric("sim.route_s", t.route_s, "s"),
        metric("sim.ctrl_deliver_s", t.ctrl_deliver_s, "s"),
        metric("sim.cycles", t.cycles as f64, "count"),
        metric("dram.reads", t.reads as f64, "count"),
        metric("dram.writes", t.writes as f64, "count"),
        metric("dram.refreshes", t.refreshes as f64, "count"),
        metric("dram.row_hit_rate", ratio(t.row_hits as f64, t.row_accesses as f64), "ratio"),
        metric("sim.traced_wall_s", t.wall_s, "s"),
        metric("sim.trace_overhead", trace_overhead, "ratio"),
        metric("harness.alone_runs", harness.alone_runs as f64, "count"),
        metric("harness.cache_hits", harness.cache_hits as f64, "count"),
        metric("harness.alone_s", harness.alone_s, "s"),
        metric("harness.shared_s", harness.shared_s, "s"),
        metric("harness.parallel_eff", harness.parallel_eff, "ratio"),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{inputs, Scale, Workload};

    #[test]
    fn first_runs_count_every_execution_of_a_job_whose_first_run_is_wrong() {
        let plan = inputs(Workload::Heavy16, 1, &Scale::TINY).plan;
        let mut runs = FirstRuns::new(plan.len());
        assert_eq!(runs.record(0, Some(1)), Ok(()));
        assert_eq!(runs.record(0, Some(1)), Ok(()));
        assert!(runs.record(0, Some(2)).is_err(), "a run that differs from the first");
        assert!(runs.record(1, None).is_err(), "a panicked run");
        assert_eq!(runs.record(2, Some(5)), Ok(()));
        assert_eq!(
            runs.finish(&plan, |_, &v| if v == 1 { Err("wrong".into()) } else { Ok(()) }),
            2
        );
        assert_eq!(runs.finish(&plan, |_, _| Ok(())), 0);
    }
}

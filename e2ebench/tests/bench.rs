//! Tests of the benchmark itself: its metric names, its workload inputs,
//! its output check and a tiny-scale run of every workload.

use parbs_e2ebench::run::{check_row, check_run, run, Metric, Options, Outcome};
use parbs_e2ebench::traced::TracedSim;
use parbs_e2ebench::workloads::{balanced_mixes, inputs, Scale, Workload};
use parbs_sim::{Harness, RunResult};

fn tiny(workload: Workload, trace: bool) -> Outcome {
    run(&Options { workload, seed: 7, seconds: 0.0, trace, scale: Scale::TINY })
}

/// The `name` fields of one array of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("name is a string").to_owned())
        .collect()
}

fn names(metrics: &[Metric]) -> Vec<String> {
    metrics.iter().map(|m| m.name.clone()).collect()
}

fn tiny_result(seed: u64) -> RunResult {
    let mut i = inputs(Workload::Case4, seed, &Scale::TINY);
    i.cfg.target_instructions = 300;
    let job = &i.plan.jobs()[0];
    Harness::new(i.cfg.clone()).shared_system(&job.mix, &job.kind, &job.overrides).run()
}

#[test]
fn tiny_runs_of_every_workload_pass_the_output_check_and_emit_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = tiny(workload, trace);
            let w = workload.name();
            assert!(outcome.attempted > 0, "{w}: nothing attempted");
            assert_eq!(outcome.failed, 0, "{w}: the traced stepper must reproduce every run");
            assert_eq!(names(&outcome.end_to_end), end_to_end, "{w}: end-to-end metrics");
            let expected_layers = if trace { per_layer.clone() } else { Vec::new() };
            assert_eq!(names(&outcome.per_layer), expected_layers, "{w}: per-layer metrics");
            for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
                assert!(m.value.is_finite(), "{w}: {} is {}", m.name, m.value);
            }
            for m in &outcome.end_to_end {
                assert!(m.value > 0.0, "{w}: end-to-end {} must never be 0", m.name);
            }
            assert_eq!(outcome.round_host_factors.len(), outcome.round_rates.len(), "{w}");
            for f in &outcome.round_host_factors {
                assert!(f.is_finite() && *f > 0.0, "{w}: host-speed factor {f}");
            }
        }
    }
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let outcome = tiny(Workload::Light16, true);
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        assert!(
            !m.name.is_empty()
                && m.name.len() <= 64
                && m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && m.name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "bad metric name {:?}",
            m.name
        );
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {:?} of {}",
            m.unit,
            m.name
        );
    }
    let line = parbs_e2ebench::result_line(&outcome, true);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
}

#[test]
fn a_different_seed_changes_the_sweep_mixes_and_the_streams() {
    let a = inputs(Workload::Sweep4, 1, &Scale::TINY);
    let b = inputs(Workload::Sweep4, 2, &Scale::TINY);
    let mixes = |i: &parbs_e2ebench::workloads::Inputs| -> Vec<Vec<&str>> {
        i.plan.jobs().iter().map(|j| j.mix.benchmarks.iter().map(|b| b.name).collect()).collect()
    };
    assert_ne!(mixes(&a), mixes(&b), "the seed must change the sweep's mixes");
    assert_eq!(
        mixes(&a),
        mixes(&inputs(Workload::Sweep4, 1, &Scale::TINY)),
        "same seed, same mixes"
    );
    assert_ne!(tiny_result(1), tiny_result(2), "the seed must change the streams");
}

#[test]
fn balanced_mixes_keep_the_work_per_seed_fixed() {
    for seed in [1, 2, 3] {
        let mixes = balanced_mixes(seed);
        assert_eq!(mixes.len(), 70, "one mix per four-of-eight category subset");
        let mut counts = std::collections::HashMap::<&str, usize>::new();
        for mix in &mixes {
            let mut cats: Vec<u8> = mix.benchmarks.iter().map(|b| b.category).collect();
            cats.sort_unstable();
            cats.dedup();
            assert_eq!(cats.len(), 4, "{}: categories must be distinct", mix.name);
            for b in &mix.benchmarks {
                *counts.entry(b.name).or_default() += 1;
            }
        }
        for bench in parbs_workloads::all_benchmarks() {
            let pool = parbs_workloads::all_benchmarks()
                .iter()
                .filter(|b| b.category == bench.category)
                .count();
            let share = 35 / pool;
            let got = counts.get(bench.name).copied().unwrap_or(0);
            assert!(
                got == share || got == share + 1,
                "seed {seed}: {} appears {got} times, expected {share} or {}",
                bench.name,
                share + 1
            );
        }
    }
}

#[test]
fn the_output_check_catches_a_perturbed_run_result() {
    let reference = tiny_result(3);
    assert_eq!(check_run(&reference, &reference.clone()), Ok(()));
    let perturbations: [fn(&mut RunResult); 6] = [
        |r| r.cycles += 1,
        |r| r.threads[0].mem_stall_cycles += 1,
        |r| r.threads[3].blp += 1e-9,
        |r| r.row_hit_rate += 1e-9,
        |r| r.read_latency.record(1),
        |r| r.timed_out = true,
    ];
    for (i, perturb) in perturbations.iter().enumerate() {
        let mut bad = reference.clone();
        perturb(&mut bad);
        assert!(check_run(&reference, &bad).is_err(), "perturbation {i} went unnoticed");
    }
}

#[test]
fn the_traced_stepper_reproduces_system_run() {
    let i = inputs(Workload::Case4, 11, &Scale::TINY);
    let harness = Harness::new(i.cfg.clone());
    for job in i.plan.jobs() {
        let untraced = harness.shared_system(&job.mix, &job.kind, &job.overrides).run();
        let (traced, layers) = TracedSim::new(&i.cfg, &job.mix, &job.kind).run();
        assert_eq!(check_run(&traced, &untraced), Ok(()), "{} / {}", job.mix.name, job.kind.name());
        assert_eq!(layers.cycles, untraced.cycles);
        assert!(layers.slots > 0 && layers.core_ticks == 4 * untraced.cycles);
    }
    let row = harness.evaluate(&i.plan.jobs()[0]);
    let (traced, _) = TracedSim::new(&i.cfg, &i.plan.jobs()[0].mix, &i.plan.jobs()[0].kind).run();
    assert_eq!(check_row(&traced, &row), Ok(()));
    let mut bad = row;
    bad.shared[1].dram_reads += 1;
    assert!(check_row(&traced, &bad).is_err(), "a perturbed sweep row went unnoticed");
}

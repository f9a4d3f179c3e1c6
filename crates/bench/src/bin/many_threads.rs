//! Scaling benchmark for the sparse per-thread state (`ThreadTable`)
//! migration: the cost of one steady-state scheduling decision as the
//! **registered requester population** grows 16 → 1 000 → 10 000 while the
//! live working set stays capped (≤ 1 024 threads with real per-thread
//! state, 128-entry decision queue).
//!
//! With the old dense `Vec`-per-thread state this curve was linear in the
//! largest thread id; with `ThreadTable` it must be flat. The trailing
//! assert gates exactly that: the worst per-scheduler ratio of
//! 10k-population decision cost to 16-population decision cost stays
//! within 2x. Emits `BENCH_many_threads.json` in the working directory.
//!
//! Run with: `cargo run --release -p parbs-bench --bin many_threads`
//! (`--quick` shrinks the sample count for CI).

use std::hint::black_box;

use parbs_bench::hotpath;
use parbs_bench::report::{self, json_str, median_ns};
use parbs_dram::SchedView;

/// Registered-population scales: the baseline and the two sparse extremes.
const POPULATIONS: [usize; 3] = [16, 1_000, 10_000];
/// Cap on threads carrying live scheduler state at any population.
const ACTIVE_CAP: usize = 1_024;
/// Decision-queue length for every measurement.
const QUEUE_LEN: u64 = 128;

struct Row {
    scheduler: &'static str,
    population: usize,
    active: usize,
    decision_ns: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (samples, iters) = if quick { (15, 100) } else { (50, 1_000) };
    let mut rows: Vec<Row> = Vec::new();
    for kind in hotpath::all_schedulers() {
        for population in POPULATIONS {
            let active = population.min(ACTIVE_CAP);
            let (mut sched, mut q, channel) =
                hotpath::warmed_sparse(&kind, QUEUE_LEN, population, active);
            let view = SchedView { channel: &channel, now: 100 };
            let mut keys = Vec::new();
            // One steady-state first-try decision: the event-driven
            // `pre_schedule` pass, a full key refresh, and the top key.
            let decision_ns = median_ns(samples, iters, || {
                sched.pre_schedule(black_box(&mut q), &view);
                hotpath::compute_keys(&*sched, &q, &view, &mut keys);
                black_box(hotpath::decide_by_key_scan(&keys));
            });
            println!(
                "{:8} population={population:<6} active={active:<5} decision {decision_ns:>9.1} ns",
                kind.name()
            );
            rows.push(Row { scheduler: kind.name(), population, active, decision_ns });
        }
    }

    // Per scheduler: decision cost at the 10k population relative to the
    // 16-thread baseline. Flat (≈1.0) is the sparse-state promise.
    let mut worst_ratio = 0.0f64;
    let mut worst_name = "";
    for kind in hotpath::all_schedulers() {
        let at = |pop: usize| {
            rows.iter()
                .find(|r| r.scheduler == kind.name() && r.population == pop)
                .map(|r| r.decision_ns)
                .expect("row exists")
        };
        let ratio = at(10_000) / at(16);
        if ratio > worst_ratio {
            worst_ratio = ratio;
            worst_name = kind.name();
        }
    }
    let json_rows: Vec<Vec<report::Field>> = rows
        .iter()
        .map(|r| {
            vec![
                ("scheduler", json_str(r.scheduler)),
                ("population", r.population.to_string()),
                ("active", r.active.to_string()),
                ("decision_ns", format!("{:.1}", r.decision_ns)),
            ]
        })
        .collect();
    report::write(
        "many_threads",
        &[("unit", json_str("ns_per_decision"))],
        "rows",
        &json_rows,
        &[("worst_ratio_10k_vs_16", format!("{worst_ratio:.2}"))],
    );
    println!(
        "\nwrote BENCH_many_threads.json (worst 10k/16 decision-cost ratio {worst_ratio:.2}x, \
         {worst_name})"
    );
    assert!(
        worst_ratio <= 2.0,
        "sparse-state regression: {worst_name}'s decision cost at a 10k-requester population \
         is {worst_ratio:.2}x its 16-thread baseline (must stay within 2x)"
    );
}

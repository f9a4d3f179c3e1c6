//! Snapshot benchmark of the controller's scheduling hot path: the retired
//! full-queue comparator sort vs. a first-try keyed decision (the top of
//! the cached priority keys), per scheduler, at 32/64/128-entry queues.
//! Emits `BENCH_sched_hotpath.json` in the working directory.
//!
//! It times one selection over a prepared queue, not a controller slot: a
//! slot also walks past requests whose commands are not ready, samples
//! BLP, runs `pre_schedule` and checks refresh and write drain. These
//! numbers do not predict the slot cost; the end-to-end benchmark's
//! `dram.ns_per_slot` measures it.
//!
//! Run with: `cargo run --release -p parbs-bench --bin sched_hotpath`
//! (`--quick` shrinks the sample count for CI).

use std::hint::black_box;

use parbs_bench::hotpath;
use parbs_bench::report::{self, json_str, median_ns};
use parbs_dram::SchedView;

struct Row {
    scheduler: &'static str,
    queue_len: u64,
    sort_ns: f64,
    keyed_ns: f64,
    refresh_ns: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (samples, iters) = if quick { (15, 200) } else { (50, 2_000) };
    let mut rows: Vec<Row> = Vec::new();
    for kind in hotpath::all_schedulers() {
        for n in [32u64, 64, 128] {
            let (sched, queue, channel) = hotpath::warmed(&kind, n);
            let view = SchedView { channel: &channel, now: 100 };
            let sort_ns = median_ns(samples, iters, || {
                black_box(hotpath::decide_by_sort(&*sched, black_box(&queue), &view));
            });
            let mut keys = Vec::new();
            hotpath::compute_keys(&*sched, &queue, &view, &mut keys);
            let keyed_ns = median_ns(samples, iters, || {
                black_box(hotpath::decide_by_key_scan(black_box(&keys)));
            });
            let refresh_ns = median_ns(samples, iters, || {
                hotpath::compute_keys(&*sched, black_box(&queue), &view, &mut keys);
                black_box(keys.len());
            });
            println!(
                "{:8} n={n:<4} sort {sort_ns:>9.1} ns  keyed {keyed_ns:>7.1} ns  \
                 refresh {refresh_ns:>8.1} ns  speedup {:>5.1}x",
                kind.name(),
                sort_ns / keyed_ns
            );
            rows.push(Row { scheduler: kind.name(), queue_len: n, sort_ns, keyed_ns, refresh_ns });
        }
    }

    let json_rows: Vec<Vec<report::Field>> = rows
        .iter()
        .map(|r| {
            vec![
                ("scheduler", json_str(r.scheduler)),
                ("queue_len", r.queue_len.to_string()),
                ("sort_ns", format!("{:.1}", r.sort_ns)),
                ("keyed_ns", format!("{:.1}", r.keyed_ns)),
                ("key_refresh_ns", format!("{:.1}", r.refresh_ns)),
                ("speedup", format!("{:.2}", r.sort_ns / r.keyed_ns)),
            ]
        })
        .collect();
    let worst_128 = rows
        .iter()
        .filter(|r| r.queue_len == 128)
        .map(|r| r.sort_ns / r.keyed_ns)
        .fold(f64::INFINITY, f64::min);
    report::write(
        "sched_hotpath",
        &[("unit", json_str("ns_per_decision"))],
        "rows",
        &json_rows,
        &[("min_speedup_128", format!("{worst_128:.2}"))],
    );
    println!("\nwrote BENCH_sched_hotpath.json (min 128-entry speedup {worst_128:.1}x)");
    assert!(
        worst_128 >= 2.0,
        "hot-path regression: 128-entry keyed decision must be >= 2x faster than the sort \
         (got {worst_128:.2}x)"
    );
}

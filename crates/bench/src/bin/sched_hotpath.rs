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

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use parbs_bench::hotpath;
use parbs_dram::SchedView;

/// Median nanoseconds per call of `f`, over `samples` samples of `iters`
/// timed iterations each.
fn median_ns(samples: usize, iters: u32, mut f: impl FnMut()) -> f64 {
    // Warmup.
    for _ in 0..iters {
        f();
    }
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[per_call.len() / 2]
}

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

    let mut json = String::from(
        "{\n  \"benchmark\": \"sched_hotpath\",\n  \"unit\": \"ns_per_decision\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"scheduler\": \"{}\", \"queue_len\": {}, \"sort_ns\": {:.1}, \
             \"keyed_ns\": {:.1}, \"key_refresh_ns\": {:.1}, \"speedup\": {:.2}}}{}",
            r.scheduler,
            r.queue_len,
            r.sort_ns,
            r.keyed_ns,
            r.refresh_ns,
            r.sort_ns / r.keyed_ns,
            if i + 1 == rows.len() { "\n" } else { ",\n" }
        );
    }
    let worst_128 = rows
        .iter()
        .filter(|r| r.queue_len == 128)
        .map(|r| r.sort_ns / r.keyed_ns)
        .fold(f64::INFINITY, f64::min);
    let _ = write!(json, "  ],\n  \"min_speedup_128\": {worst_128:.2}\n}}\n");
    std::fs::write("BENCH_sched_hotpath.json", &json).expect("write BENCH_sched_hotpath.json");
    println!("\nwrote BENCH_sched_hotpath.json (min 128-entry speedup {worst_128:.1}x)");
    assert!(
        worst_128 >= 2.0,
        "hot-path regression: 128-entry keyed decision must be >= 2x faster than the sort \
         (got {worst_128:.2}x)"
    );
}

//! Criterion microbenchmarks: per-component costs of the simulator and the
//! scheduling policies. The paper argues PAR-BS is *simple to implement*
//! (priority comparisons, no division); `scheduler_decision` quantifies the
//! software-model analogue: the cost of one controller scheduling slot per
//! policy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use parbs::{AbstractBatch, AbstractPolicy, ParBsConfig, ParBsScheduler};
use parbs_cpu::InstructionStream;
use parbs_dram::{AddressMapper, Controller, DramConfig, LineAddr, Request, RequestKind, ThreadId};
use parbs_sim::{SchedulerKind, SimConfig, System};
use parbs_workloads::{by_name, case_study_1, StreamGeometry, SyntheticStream};

/// A controller preloaded with `n` requests spread over threads and banks.
fn loaded_controller(kind: &SchedulerKind, n: u64) -> Controller {
    let cfg = SimConfig::for_cores(4);
    let mut ctrl = Controller::new(DramConfig::default(), kind.build(&cfg));
    for i in 0..n {
        let addr = LineAddr { channel: 0, bank: (i % 8) as usize, row: (i * 7 % 13), col: i % 32 };
        ctrl.try_enqueue(Request::new(i, ThreadId((i % 4) as usize), addr, RequestKind::Read, 0))
            .unwrap();
    }
    ctrl
}

fn scheduler_decision(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler_decision_64req");
    for kind in SchedulerKind::paper_five() {
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, kind| {
            b.iter_batched(
                || loaded_controller(kind, 64),
                |mut ctrl| {
                    let mut out = Vec::new();
                    // 16 DRAM-cycle decision slots.
                    for now in (0..160).step_by(10) {
                        ctrl.tick(now, &mut out);
                    }
                    black_box(out.len())
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// The tentpole comparison: a first-try scheduling decision over an n-entry
/// queue via the retired full-queue comparator sort vs. the top of the
/// cached priority keys, for every shipped policy at 32/64/128 entries.
fn sched_hotpath(c: &mut Criterion) {
    use parbs_bench::hotpath;
    use parbs_dram::SchedView;
    for n in [32u64, 64, 128] {
        let mut group = c.benchmark_group(format!("sched_hotpath_{n}req"));
        for kind in hotpath::all_schedulers() {
            let (sched, queue, channel) = hotpath::warmed(&kind, n);
            let view = SchedView { channel: &channel, now: 100 };
            group.bench_function(BenchmarkId::new("sort", kind.name()), |b| {
                b.iter(|| black_box(hotpath::decide_by_sort(&*sched, &queue, &view)));
            });
            let mut keys = Vec::new();
            hotpath::compute_keys(&*sched, &queue, &view, &mut keys);
            group.bench_function(BenchmarkId::new("keyed", kind.name()), |b| {
                b.iter(|| black_box(hotpath::decide_by_key_scan(black_box(&keys))));
            });
            group.bench_function(BenchmarkId::new("key_refresh", kind.name()), |b| {
                b.iter(|| {
                    hotpath::compute_keys(&*sched, &queue, &view, &mut keys);
                    black_box(keys.len())
                });
            });
        }
        group.finish();
    }
}

fn batch_formation(c: &mut Criterion) {
    use parbs_dram::{Channel, MemoryScheduler, SchedView, TimingParams};
    c.bench_function("parbs_batch_formation_128req", |b| {
        let channel = Channel::new(8, TimingParams::ddr2_800());
        b.iter_batched(
            || {
                let sched = ParBsScheduler::new(ParBsConfig::default());
                let queue: Vec<Request> = (0..128)
                    .map(|i| {
                        Request::new(
                            i,
                            ThreadId((i % 8) as usize),
                            LineAddr { channel: 0, bank: (i % 8) as usize, row: i / 8, col: 0 },
                            RequestKind::Read,
                            0,
                        )
                    })
                    .collect();
                (sched, queue)
            },
            |(mut sched, mut queue)| {
                let view = SchedView { channel: &channel, now: 0 };
                sched.pre_schedule(&mut queue, &view);
                black_box(queue.iter().filter(|r| r.marked).count())
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

fn abstract_fig3(c: &mut Criterion) {
    let batch = AbstractBatch::figure3_example();
    c.bench_function("abstract_fig3_parbs", |b| {
        b.iter(|| black_box(batch.completion_times(AbstractPolicy::ParBs)));
    });
}

fn address_mapping(c: &mut Criterion) {
    let mapper = AddressMapper::canonical(4, 8, 32).unwrap();
    c.bench_function("address_decode_encode", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for line in 0..1_000u64 {
                acc ^= mapper.encode(mapper.decode(black_box(line * 97)));
            }
            black_box(acc)
        });
    });
}

fn stream_generation(c: &mut Criterion) {
    c.bench_function("synthetic_stream_10k_instrs", |b| {
        b.iter_batched(
            || {
                SyntheticStream::new(
                    by_name("mcf").unwrap(),
                    StreamGeometry::baseline_4core(),
                    7,
                    0,
                )
            },
            |mut s| {
                let mut loads = 0u32;
                for _ in 0..10_000 {
                    if !matches!(s.next_instr(), parbs_cpu::Instr::Compute) {
                        loads += 1;
                    }
                }
                black_box(loads)
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

fn end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_cs1_1k_instr");
    group.sample_size(10);
    for kind in [SchedulerKind::FrFcfs, SchedulerKind::ParBs(ParBsConfig::default())] {
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, kind| {
            b.iter(|| {
                let cfg = SimConfig { target_instructions: 1_000, ..SimConfig::for_cores(4) };
                let mix = case_study_1();
                let streams: Vec<Box<dyn InstructionStream>> = mix
                    .benchmarks
                    .iter()
                    .enumerate()
                    .map(|(i, bench)| {
                        Box::new(SyntheticStream::new(bench, cfg.geometry(), cfg.seed, i as u64))
                            as Box<dyn InstructionStream>
                    })
                    .collect();
                let mut sys = System::new(cfg, streams, kind);
                black_box(sys.run().cycles)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    scheduler_decision,
    sched_hotpath,
    batch_formation,
    abstract_fig3,
    address_mapping,
    stream_generation,
    end_to_end
);
criterion_main!(benches);

//! Criterion benchmarks of the simulation engine itself: task throughput,
//! rendezvous handling, and contention-epoch recomputation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use olab_sim::{ConstantRate, Engine, GpuId, StreamKind, TaskSpec, Workload};

/// A chain of `n` dependent compute tasks on one GPU.
fn chain_workload(n: usize) -> Workload<()> {
    let mut w = Workload::new(1);
    for i in 0..n {
        let mut spec = TaskSpec::compute(olab_sim::label!("t{}", i), GpuId(0), ());
        if i > 0 {
            spec.deps.push(olab_sim::TaskId((i - 1) as u32));
        }
        w.push(spec);
    }
    w
}

/// `n` tasks spread over 8 GPUs with interleaved collectives.
fn mixed_workload(n: usize) -> Workload<()> {
    let mut w = Workload::new(8);
    for i in 0..n {
        if i % 10 == 9 {
            w.push(TaskSpec::new(
                olab_sim::label!("coll{}", i),
                (0..8).map(GpuId).collect::<Vec<_>>(),
                StreamKind::Comm,
                (),
            ));
        } else {
            w.push(TaskSpec::compute(
                olab_sim::label!("k{}", i),
                GpuId((i % 8) as u16),
                (),
            ));
        }
    }
    w
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    for &n in &[100usize, 1000, 5000] {
        group.throughput(Throughput::Elements(n as u64));
        let chain = chain_workload(n);
        group.bench_with_input(BenchmarkId::new("chain", n), &chain, |b, w| {
            b.iter(|| Engine::new(ConstantRate::default()).run(w).unwrap())
        });
        let mixed = mixed_workload(n);
        group.bench_with_input(BenchmarkId::new("mixed_8gpu", n), &mixed, |b, w| {
            b.iter(|| Engine::new(ConstantRate::default()).run(w).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);

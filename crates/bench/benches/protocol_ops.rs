//! Criterion benchmarks of the protocol engine's critical paths: inline-hit
//! throughput, miss servicing, downgrades, and synchronization — each as a
//! small fixed machine run. These track *simulator* performance (host
//! seconds); the paper-facing numbers (simulated cycles) come from the
//! experiment binaries.

use std::future::Future;

use criterion::{criterion_group, criterion_main, Criterion};
use shasta_cluster::{CostModel, Topology};
use shasta_core::api::{body, Body, Dsm};
use shasta_core::protocol::{Machine, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};

fn machine(procs: u32, clustering: u32, cfg: ProtocolConfig) -> (Machine, u64) {
    let topo = Topology::paper_placement(procs, clustering).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), cfg, 1 << 20);
    let a = m.setup(|s| s.malloc(4_096, BlockHint::Line, HomeHint::Explicit(0)));
    (m, a)
}

fn run<F, Fut>(procs: u32, clustering: u32, cfg: ProtocolConfig, f: F)
where
    F: FnOnce(u32, Dsm) -> Fut + Send + Clone + 'static,
    Fut: Future<Output = ()> + Send + 'static,
{
    let (mut m, _) = machine(procs, clustering, cfg);
    let bodies: Vec<Body> = (0..procs)
        .map(|p| {
            let f = f.clone();
            body(move |dsm| f(p, dsm))
        })
        .collect();
    m.run(bodies);
}

fn bench_inline_hits(c: &mut Criterion) {
    c.bench_function("inline_hit_loads_1k", |b| {
        b.iter(|| {
            let (mut m, a) = machine(1, 1, ProtocolConfig::smp());
            let bodies: Vec<Body> = vec![body(move |mut dsm: Dsm| async move {
                dsm.store_u64(a, 7).await;
                for _ in 0..1_000 {
                    std::hint::black_box(dsm.load_u64(a).await);
                }
            })];
            m.run(bodies);
        })
    });
}

fn bench_remote_misses(c: &mut Criterion) {
    c.bench_function("remote_read_misses_64", |b| {
        b.iter(|| {
            run(8, 1, ProtocolConfig::base(), move |p, mut dsm| async move {
                if p == 4 {
                    for i in 0..64u64 {
                        std::hint::black_box(dsm.load_u64(0x1000 + i * 64).await);
                    }
                }
                dsm.barrier(0).await;
            })
        })
    });
}

fn bench_downgrades(c: &mut Criterion) {
    c.bench_function("downgrade_round_trips_32", |b| {
        b.iter(|| {
            run(8, 4, ProtocolConfig::smp(), move |p, mut dsm| async move {
                // Node 0 writes; node 1 reads; repeat — every round forces
                // an exclusive->shared downgrade with messages.
                for i in 0..32u64 {
                    if p < 2 {
                        dsm.store_u64(0x1000, i).await;
                    }
                    dsm.barrier(2 * i as u32).await;
                    if p >= 4 {
                        std::hint::black_box(dsm.load_u64(0x1000).await);
                    }
                    dsm.barrier(2 * i as u32 + 1).await;
                }
            })
        })
    });
}

fn bench_sync(c: &mut Criterion) {
    c.bench_function("lock_handoffs_256", |b| {
        b.iter(|| {
            run(8, 4, ProtocolConfig::smp(), move |_, mut dsm| async move {
                for _ in 0..32 {
                    dsm.acquire(5).await;
                    dsm.compute(50);
                    dsm.release(5).await;
                }
                dsm.barrier(0).await;
            })
        })
    });
    c.bench_function("barriers_64", |b| {
        b.iter(|| {
            run(8, 4, ProtocolConfig::smp(), move |_, mut dsm| async move {
                for i in 0..64u32 {
                    dsm.barrier(i).await;
                }
            })
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_inline_hits, bench_remote_misses, bench_downgrades, bench_sync
);
criterion_main!(benches);

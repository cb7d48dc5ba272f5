//! Micro-benchmarks of the simulator's hot paths: the max-min fair-share
//! solver, object placement, erasure coding, and the core op chains.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use daos_core::{ErasureCode, ObjectClass, OidAllocator, PoolMap};
use simkit::fairshare::FairShare;
use simkit::units::{GB, MB};
use simkit::{Rate, ResourceId, SplitMix64};

/// Progressive filling over a 16-server-deployment-sized snapshot:
/// ~1000 flows with 5-resource paths over ~800 resources.
fn quick(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("micro");
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.sample_size(20);
    g
}

fn bench_fairshare(c: &mut Criterion) {
    let n_res = 800usize;
    let caps: Vec<Rate> = (0..n_res).map(|i| Rate(GB + (i as f64) * MB)).collect();
    let mut rng = SplitMix64::new(42);
    let flows: Vec<Vec<ResourceId>> = (0..1000)
        .map(|_| {
            (0..5)
                .map(|_| ResourceId(rng.next_below(n_res as u64) as u32))
                .collect()
        })
        .collect();
    let mut group = quick(c);
    for (name, tol) in [("fairshare_exact", 0.0), ("fairshare_banded_2pct", 0.02)] {
        group.bench_function(name, |b| {
            let mut fs = FairShare::new();
            fs.set_tolerance(tol);
            b.iter(|| {
                fs.clear();
                for (i, path) in flows.iter().enumerate() {
                    fs.insert(i as u32, path);
                }
                fs.solve(&caps)
            });
        });
    }
    group.finish();
}

/// Per-object layout generation (shuffle + fault-domain interleave).
fn bench_placement(c: &mut Criterion) {
    let pm = PoolMap::new(16, 16);
    let mut alloc = OidAllocator::new();
    let mut g = quick(c);
    g.bench_function("layout_sx_256_targets", |b| {
        b.iter_batched(
            || alloc.next(ObjectClass::SX, 0),
            |oid| pm.layout(&oid, ObjectClass::SX),
            BatchSize::SmallInput,
        );
    });
    g.bench_function("layout_ec2p1_256_targets", |b| {
        b.iter_batched(
            || alloc.next(ObjectClass::EC_2P1, 0),
            |oid| pm.layout(&oid, ObjectClass::EC_2P1),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

/// Reed-Solomon encode and degraded-decode of a 1 MiB stripe.
fn bench_erasure(c: &mut Criterion) {
    let ec = ErasureCode::new(2, 1);
    let mut rng = SplitMix64::new(7);
    let cell = 512 * 1024;
    let mut d0 = vec![0u8; cell];
    let mut d1 = vec![0u8; cell];
    rng.fill_bytes(&mut d0);
    rng.fill_bytes(&mut d1);
    let mut g = quick(c);
    g.bench_function("ec_2p1_encode_1mib", |b| {
        b.iter(|| ec.encode(&[&d0, &d1]));
    });
    let parity = ec.encode(&[&d0, &d1]);
    let cells = vec![None, Some(d1.clone()), Some(parity[0].clone())];
    g.bench_function("ec_2p1_reconstruct_1mib", |b| {
        b.iter(|| ec.reconstruct(&cells).unwrap());
    });
    g.finish();
}

/// One simulated 1 MiB write op end-to-end (chain build + execution).
fn bench_sim_op(c: &mut Criterion) {
    use cluster::{ClusterSpec, Payload};
    use daos_core::{ContainerProps, DaosSystem, DataMode};
    use simkit::{run, OpId, Scheduler, World};
    struct Sink;
    impl World for Sink {
        fn on_op_complete(&mut self, _op: OpId, _s: &mut Scheduler) {}
    }
    let mut g = quick(c);
    g.bench_function("daos_array_write_1mib_sim", |b| {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(4, 1).build(&mut sched);
        let mut daos = DaosSystem::deploy(&topo, &mut sched, 4, DataMode::Sized);
        let (cid, s) = daos.cont_create(0, ContainerProps::default());
        sched.submit(s, OpId(0));
        run(&mut sched, &mut Sink);
        let (oid, s) = daos.array_create(0, cid, ObjectClass::SX, 1 << 20).unwrap();
        sched.submit(s, OpId(0));
        run(&mut sched, &mut Sink);
        let mut off = 0u64;
        b.iter(|| {
            let step = daos
                .array_write(0, cid, oid, off, Payload::Sized(1 << 20))
                .unwrap();
            off += 1 << 20;
            sched.submit(step, OpId(1));
            run(&mut sched, &mut Sink);
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fairshare,
    bench_placement,
    bench_erasure,
    bench_sim_op
);
criterion_main!(benches);

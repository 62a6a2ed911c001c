//! Criterion micro-benchmarks of the substrates: task spawn/dependency
//! throughput, message-passing latency and bandwidth, collectives.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::sync::Arc;
use taskrt::{ObjId, Region, Runtime};
use vmpi::{CollAlgo, NetworkModel, ReduceOp, World};

fn bench_task_spawn(c: &mut Criterion) {
    let mut g = c.benchmark_group("taskrt");
    g.sample_size(10);
    g.bench_function("spawn_1000_independent", |bench| {
        bench.iter_batched(
            || Runtime::new(2),
            |rt| {
                for _ in 0..1000 {
                    rt.spawn(Vec::new(), || {});
                }
                rt.taskwait();
            },
            criterion::BatchSize::PerIteration,
        );
    });
    // Steady-state AMR shape: a persistent runtime re-submitting the
    // same chained stream every iteration inside a trace scope. After
    // the stream stabilizes (3 recordings) the edges replay from the
    // frozen trace, skipping the claim table — the fastest-sample
    // estimator reports the replayed iterations.
    g.bench_function("spawn_1000_chained", |bench| {
        let rt = Runtime::new(2);
        let obj = ObjId::fresh();
        bench.iter(|| {
            let scope = rt.trace_scope(1);
            for _ in 0..1000 {
                rt.task().inout(Region::new(obj, 0..1)).body(|| {}).spawn();
            }
            drop(scope);
            rt.taskwait();
        });
    });
    // The pre-replay shape (fresh runtime each iteration, no scope):
    // every spawn takes full claim-table analysis.
    g.bench_function("spawn_1000_chained_noreplay", |bench| {
        bench.iter_batched(
            || (Runtime::new(2), ObjId::fresh()),
            |(rt, obj)| {
                for _ in 0..1000 {
                    rt.task().inout(Region::new(obj, 0..1)).body(|| {}).spawn();
                }
                rt.taskwait();
            },
            criterion::BatchSize::PerIteration,
        );
    });
    g.bench_function("spawn_1000_fan_in_multidep", |bench| {
        bench.iter_batched(
            || Runtime::new(2),
            |rt| {
                let objs: Vec<ObjId> = (0..1000).map(|_| ObjId::fresh()).collect();
                for &o in &objs {
                    rt.task().out(Region::new(o, 0..4)).body(|| {}).spawn();
                }
                rt.task()
                    .accesses(
                        objs.iter()
                            .map(|&o| taskrt::Access::read(Region::new(o, 0..4))),
                    )
                    .body(|| {})
                    .spawn();
                rt.taskwait();
            },
            criterion::BatchSize::PerIteration,
        );
    });
    g.finish();
}

fn bench_vmpi(c: &mut Criterion) {
    let mut g = c.benchmark_group("vmpi");
    g.sample_size(10);
    g.bench_function("pingpong_8B", |bench| {
        let world = World::new(2, NetworkModel::instant());
        bench.iter(|| {
            world.run(|comm| {
                if comm.rank() == 0 {
                    comm.send(&[1.0f64], 1, 0).unwrap();
                    let _ = comm.recv::<f64>(1, 1).unwrap();
                } else {
                    let _ = comm.recv::<f64>(0, 0).unwrap();
                    comm.send(&[2.0f64], 0, 1).unwrap();
                }
            });
        });
    });
    let payload = vec![0.0f64; 128 * 1024];
    g.throughput(Throughput::Bytes((payload.len() * 8) as u64));
    g.bench_function("transfer_1MB", |bench| {
        let world = World::new(2, NetworkModel::instant());
        bench.iter(|| {
            world.run(|comm| {
                if comm.rank() == 0 {
                    comm.send(&payload, 1, 0).unwrap();
                } else {
                    let _ = comm.recv::<f64>(0, 0).unwrap();
                }
            });
        });
    });
    // The production collective path: topology-aware two-level trees
    // (`--coll hier`) over 2 nodes × 4 ranks. Ranks sharing a node
    // combine through an in-process slot instead of exchanging matched
    // messages, so only the node leaders touch the message layer.
    g.bench_function("allreduce_8ranks", |bench| {
        let net = NetworkModel::instant()
            .with_ranks_per_node(4)
            .with_coll(CollAlgo::Hier);
        let world = World::new(8, net);
        bench.iter(|| {
            world.run(|comm| {
                comm.allreduce_scalar(comm.rank() as i64, ReduceOp::Sum)
                    .unwrap()
            });
        });
    });
    // Flat binomial reference (the pre-hier shape) for the same world.
    g.bench_function("allreduce_8ranks_flat", |bench| {
        let world = World::new(8, NetworkModel::instant());
        bench.iter(|| {
            world.run(|comm| {
                comm.allreduce_scalar(comm.rank() as i64, ReduceOp::Sum)
                    .unwrap()
            });
        });
    });
    g.finish();
}

fn bench_shared_buffer(c: &mut Criterion) {
    let mut g = c.benchmark_group("shmem");
    g.sample_size(20);
    let buf = shmem::SharedBuffer::<f64>::new(1 << 16);
    let data = vec![1.0f64; 1 << 16];
    g.throughput(Throughput::Bytes(((1usize << 16) * 8) as u64));
    g.bench_function("claimed_write_64k", |bench| {
        let s = buf.full();
        bench.iter(|| s.write_from(&data));
    });
    g.bench_function("claimed_read_64k", |bench| {
        let s = buf.full();
        let mut out = vec![0.0f64; 1 << 16];
        bench.iter(|| s.read_into(&mut out));
    });
    g.finish();
}

fn bench_tampi_roundtrip(c: &mut Criterion) {
    // One full task-bound exchange: recv task + consumer chain.
    let mut g = c.benchmark_group("tampi");
    g.sample_size(10);
    g.bench_function("tampi_bound_exchange", |bench| {
        bench.iter(|| {
            let world = World::new(2, NetworkModel::instant());
            world.run(|comm| {
                let comm = Arc::new(comm);
                let rt = Runtime::new(2);
                if comm.rank() == 0 {
                    let c = Arc::clone(&comm);
                    rt.task()
                        .body(move || tampi::isend(&c, &[1.0f64; 64], 1, 0).unwrap())
                        .spawn();
                } else {
                    let buf = vmpi::SharedBuffer::<f64>::new(64);
                    let obj = ObjId::fresh();
                    let c = Arc::clone(&comm);
                    let slice = buf.full();
                    rt.task()
                        .out(Region::new(obj, 0..64))
                        .body(move || tampi::irecv_into(&c, slice, 0, 0).unwrap())
                        .spawn();
                    let slice = buf.full();
                    rt.task()
                        .input(Region::new(obj, 0..64))
                        .body(move || {
                            assert_eq!(slice.to_vec()[0], 1.0);
                        })
                        .spawn();
                }
                rt.taskwait();
            });
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_task_spawn,
    bench_vmpi,
    bench_shared_buffer,
    bench_tampi_roundtrip
);
criterion_main!(benches);

//! Criterion microbenchmarks of the cycle-level simulator itself: how fast
//! the host can simulate a collection cycle per preset and core count,
//! and how fast each memory backend ticks on its own.
//! (Simulated-cycle results live in the `fig5_*`/`table*` binaries; this
//! file measures the *simulator's* throughput, which gates how large an
//! experiment is practical.)
//!
//! ```text
//! cargo bench -p hwgc-bench --bench simulator -- memory_backends
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hwgc_core::{GcConfig, SimCollector};
use hwgc_memsim::{
    DramConfig, DramMemorySystem, MemBackend, MemBackendKind, MemConfig, MemorySystem, Port,
};
use hwgc_workloads::{Preset, WorkloadSpec};
use std::hint::black_box;
use std::time::Duration;

fn sim_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_collection");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for preset in [Preset::Jlisp, Preset::Javacc, Preset::Db] {
        for cores in [1usize, 16] {
            group.bench_with_input(
                BenchmarkId::new(preset.name(), cores),
                &cores,
                |b, &cores| {
                    let spec = WorkloadSpec::new(preset, 42);
                    b.iter_batched(
                        || spec.build(),
                        |mut heap| {
                            SimCollector::new(GcConfig::with_cores(cores)).collect(&mut heap)
                        },
                        criterion::BatchSize::LargeInput,
                    );
                },
            );
        }
    }
    // The Figure 6 configuration (+20 cycles on every access), the
    // repository benchmark's `fig6_16c` workload.
    group.bench_function(BenchmarkId::new("javac+20", 16), |b| {
        let spec = WorkloadSpec::new(Preset::Javac, 42);
        let mut cfg = GcConfig::with_cores(16);
        cfg.mem = cfg.mem.with_extra_latency(20);
        b.iter_batched(
            || spec.build(),
            |mut heap| SimCollector::new(cfg).collect(&mut heap),
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

/// Cores in the memory-layer request stream.
const STREAM_CORES: usize = 16;
/// Cycles per memory-layer iteration.
const STREAM_CYCLES: u64 = 100_000;

/// One memory-layer call of a recorded request stream.
#[derive(Debug, Clone, Copy)]
enum StreamOp {
    /// `tick`, then drain the retirement masks as the sparse engine does.
    Tick,
    Issue(usize, Port, u32),
    Consume(usize, Port),
}

/// Record a seeded 16-core request stream against a backend: each cycle
/// ticks memory, then each core consumes any completed load and, with
/// probability 3/8, tries to issue on a random port — body ports
/// streaming through a per-core region (so bursts occur), header ports
/// at random addresses in a 4096-word table (so the comparator array and
/// bank conflicts occur). Only the calls that did something are kept,
/// so a replay spends its time in the memory layer, not in polling.
fn record_stream<B: MemBackend>(cfg: MemConfig) -> Vec<StreamOp> {
    let mut m = B::new_backend(STREAM_CORES, cfg);
    let mut script = Vec::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut body = [0u32; STREAM_CORES];
    for _ in 0..STREAM_CYCLES {
        m.tick();
        script.push(StreamOp::Tick);
        for (core, next_body) in body.iter_mut().enumerate() {
            for port in [Port::HeaderLoad, Port::BodyLoad] {
                if m.load_ready(core, port) {
                    m.consume_load(core, port);
                    script.push(StreamOp::Consume(core, port));
                }
            }
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 8 >= 3 {
                continue;
            }
            let port = Port::ALL[(x >> 3) as usize % 4];
            if m.port_busy(core, port) {
                continue;
            }
            let addr = match port {
                Port::BodyLoad | Port::BodyStore => {
                    *next_body += 1;
                    (core as u32 + 1) << 20 | *next_body
                }
                Port::HeaderLoad | Port::HeaderStore => (x >> 8) as u32 % 4096,
            };
            assert!(m.try_issue(core, port, addr));
            script.push(StreamOp::Issue(core, port, addr));
        }
    }
    script
}

/// Replay a recorded stream on a fresh backend with the wake feed on.
/// The backend is deterministic, so every call succeeds exactly as it
/// did while recording. Returns the issue count.
fn replay_stream<B: MemBackend>(cfg: MemConfig, script: &[StreamOp]) -> u64 {
    let mut m = B::new_backend(STREAM_CORES, cfg);
    m.enable_wake_feed(STREAM_CORES);
    for &op in script {
        match op {
            StreamOp::Tick => {
                m.tick();
                black_box(m.retired());
                m.clear_retired();
            }
            StreamOp::Issue(core, port, addr) => {
                black_box(m.try_issue(core, port, addr));
            }
            StreamOp::Consume(core, port) => {
                black_box(m.consume_load(core, port));
            }
        }
    }
    m.stats().total_issued()
}

/// The memory layer alone: a recorded 16-core stream at +20 latency,
/// replayed through each backend, so the calendar, service-start and
/// issue costs have a number outside the engine.
fn memory_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("memory_backends");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let fixed = MemConfig {
        backend: MemBackendKind::Fixed,
        ..MemConfig::default()
    }
    .with_extra_latency(20);
    let dram = fixed.with_backend(MemBackendKind::Dram(DramConfig::default()));
    let fixed_script = record_stream::<MemorySystem>(fixed);
    group.bench_function("fixed+20/16", |b| {
        b.iter(|| replay_stream::<MemorySystem>(fixed, &fixed_script))
    });
    let dram_script = record_stream::<DramMemorySystem>(dram);
    group.bench_function("dram+20/16", |b| {
        b.iter(|| replay_stream::<DramMemorySystem>(dram, &dram_script))
    });
    group.finish();
}

fn seq_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("sequential_cheney");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for preset in [Preset::Jlisp, Preset::Db] {
        group.bench_function(preset.name(), |b| {
            let spec = WorkloadSpec::new(preset, 42);
            b.iter_batched(
                || spec.build(),
                |mut heap| hwgc_core::SeqCheney::new().collect(&mut heap),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, sim_throughput, memory_backends, seq_reference);
criterion_main!(benches);

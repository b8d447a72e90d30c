//! Host-speed calibration and the outside-in layer microbenches.
//!
//! Every microbench drives one layer's public API with a stream the
//! benchmark generates from a fixed seed, so its numbers depend only on
//! the layer's code and the host.

use std::hint::black_box;
use std::time::Instant;

use hwgc_memsim::{
    DramConfig, DramMemorySystem, MemBackend, MemBackendKind, MemConfig, MemorySystem, Port,
};
use hwgc_sync::SyncBlock;

use crate::stats::median;

/// SplitMix64: the benchmark's own generator for synthetic streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Words in one calibration buffer (4 MiB): larger than a core's private
/// caches, so the kernel mixes cache misses with dependent arithmetic the
/// way the simulator's heap and queue walks do.
const CAL_WORDS: usize = 1 << 19;
/// Read-modify-write steps per calibration pass (a few ms on current hosts).
const CAL_STEPS: u32 = 300_000;

/// Seconds one calibration pass takes on the reference host. Host-time
/// metrics are reported in reference-host units: a measured time `t`
/// taken beside a pass that took `c` reads as `t * CAL_REF_S / c`.
///
/// Why: on shared hosts the whole machine drifts between speed modes
/// 1.3-1.6x apart every few seconds, and a pass run right beside each
/// measurement drifts with it, so the ratio holds steady where the raw
/// time does not. Raw times are printed beside every normalized one.
pub const CAL_REF_S: f64 = 2.5e-3;

/// The calibration kernel and its buffer.
pub struct Calibrator {
    buf: Vec<u64>,
}

fn cal_pass(buf: &mut [u64]) -> u64 {
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut acc: u64 = 0;
    for _ in 0..CAL_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) % buf.len();
        acc = acc.wrapping_add(buf[i]);
        buf[i] = acc;
    }
    acc
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            buf: vec![1u64; CAL_WORDS],
        }
    }

    /// Wall seconds of one pass.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        black_box(cal_pass(&mut self.buf));
        t.elapsed().as_secs_f64()
    }
}

/// Repetitions of every microbench; the median is reported.
const MICRO_REPS: usize = 5;

fn median_of_reps(mut rep: impl FnMut() -> f64) -> f64 {
    let xs: Vec<f64> = (0..MICRO_REPS).map(|_| rep()).collect();
    median(&xs)
}

/// SB cores exercised by the lock microbench.
const SB_CORES: usize = 16;
/// Round-trip pairs per microbench repetition.
const SB_ITERS: u32 = 400_000;

/// Host ns per SB lock round-trip (acquire then release), driving
/// `SyncBlock` directly: each step claims and releases `scan` for one core
/// and locks and unlocks one header for it, while half the cores hold
/// header locks of their own, as in a contended 16-core collection.
pub fn sb_roundtrip_ns(seed: u64) -> f64 {
    median_of_reps(|| {
        let mut rng = Rng::new(seed);
        let mut sb = SyncBlock::new(SB_CORES);
        let holders = SB_CORES / 2;
        for c in holders..SB_CORES {
            assert!(sb.try_lock_header(c, 0x10_0000 + c as u32));
        }
        let t = Instant::now();
        for _ in 0..SB_ITERS {
            let r = rng.next_u64();
            let core = (r % holders as u64) as usize;
            let addr = ((r >> 8) % 4096) as u32;
            sb.begin_cycle();
            if sb.try_acquire_scan(core) {
                sb.release_scan(core);
            }
            if sb.try_lock_header(core, addr) {
                sb.unlock_header(core);
            }
        }
        black_box(sb.stats());
        t.elapsed().as_nanos() as f64 / (2.0 * f64::from(SB_ITERS))
    })
}

/// Simulated cores of the memory microbench.
const MEM_CORES: usize = 16;
/// Ticks per memory microbench repetition.
const MEM_TICKS: u32 = 400_000;

/// Host ns per memory-backend tick under a seeded request stream: every
/// cycle each core consumes its completed loads, then one random core
/// issues on one random port if it is free (about one request per cycle,
/// the rate the 16-core workloads run at), then the backend ticks.
fn mem_tick_ns<B: MemBackend>(cfg: MemConfig, seed: u64) -> f64 {
    median_of_reps(|| {
        let mut rng = Rng::new(seed);
        let mut mem = B::new_backend(MEM_CORES, cfg);
        let t = Instant::now();
        for _ in 0..MEM_TICKS {
            for core in 0..MEM_CORES {
                for port in [Port::HeaderLoad, Port::BodyLoad] {
                    if mem.load_ready(core, port) {
                        black_box(mem.consume_load(core, port));
                    }
                }
            }
            let r = rng.next_u64();
            let core = (r % MEM_CORES as u64) as usize;
            let port = Port::ALL[((r >> 8) % 4) as usize];
            if !mem.port_busy(core, port) {
                mem.try_issue(core, port, ((r >> 16) % (1 << 20)) as u32);
            }
            mem.tick();
        }
        black_box(mem.cycle());
        t.elapsed().as_nanos() as f64 / f64::from(MEM_TICKS)
    })
}

/// [`mem_tick_ns`] on the fixed latency/bandwidth backend.
pub fn fixed_tick_ns(seed: u64) -> f64 {
    let cfg = MemConfig {
        backend: MemBackendKind::Fixed,
        ..MemConfig::default()
    };
    mem_tick_ns::<MemorySystem>(cfg, seed)
}

/// [`mem_tick_ns`] on the DRAM bank/row backend (default timings).
pub fn dram_tick_ns(seed: u64) -> f64 {
    let cfg = MemConfig {
        backend: MemBackendKind::Dram(DramConfig::default()),
        ..MemConfig::default()
    };
    mem_tick_ns::<DramMemorySystem>(cfg, seed)
}

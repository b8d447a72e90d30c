//! The four workloads and the ops they repeat, untraced and traced.
//!
//! An op of a single-configuration workload is one verified run: build
//! the heap, capture a snapshot, collect, verify against the snapshot.
//! An op of the sweep is one full Figure 5 grid through `run_jobset`,
//! one call per preset.

use std::collections::BTreeMap;
use std::time::Instant;

use hwgc_core::{GcConfig, GcOutcome, GcStats, SeqCheney, SimCollector};
use hwgc_heap::{verify_collection, Heap, Snapshot};
use hwgc_jobs::{run_jobset, ExecOptions, JobSet, ResultCache, SimJob};
use hwgc_memsim::{DramConfig, MemBackendKind};
use hwgc_obs::HostProfiler;
use hwgc_sync::LockKind;
use hwgc_workloads::{Preset, WorkloadSpec};

use crate::pins::{PinCheck, Pins};
use crate::stats::Span;

/// The Figure 5 core counts.
pub const SWEEP_CORES: [usize; 5] = [1, 2, 4, 8, 16];

/// The paper's best 16-core speedup (Figure 5).
pub const PAPER_SPEEDUP_16C: f64 = 12.1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig6_16c,
    Compress1c,
    Db16Dram,
    Fig5Sweep,
}

/// What a workload runs.
pub enum Shape {
    Single {
        spec: WorkloadSpec,
        cfg: GcConfig,
    },
    /// One job set per preset, each holding its five core counts.
    Sweep {
        parts: Vec<JobSet>,
    },
}

impl Shape {
    /// Every job of a sweep, in order (empty for a single configuration).
    pub fn jobs(&self) -> impl Iterator<Item = &SimJob> {
        let parts: &[JobSet] = match self {
            Shape::Single { .. } => &[],
            Shape::Sweep { parts } => parts,
        };
        parts.iter().flat_map(|p| p.jobs())
    }
}

/// A config built the one supported way: `GcConfig::with_cores` plus the
/// named `mem` fields. The backend is always set explicitly, so the
/// result does not depend on the memory-backend environment knob.
fn config(cores: usize, extra_latency: u32, backend: MemBackendKind) -> GcConfig {
    let mut cfg = GcConfig::with_cores(cores);
    cfg.mem.extra_latency = extra_latency;
    cfg.mem.backend = backend;
    cfg
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig6_16c,
        Workload::Compress1c,
        Workload::Db16Dram,
        Workload::Fig5Sweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6_16c => "fig6_16c",
            Workload::Compress1c => "compress_1c",
            Workload::Db16Dram => "db16_dram",
            Workload::Fig5Sweep => "fig5_sweep",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn shape(self, seed: u64) -> Shape {
        let single = |preset, scale, cfg| Shape::Single {
            spec: WorkloadSpec {
                preset,
                seed,
                scale,
            },
            cfg,
        };
        match self {
            Workload::Fig6_16c => single(Preset::Javac, 1.0, config(16, 20, MemBackendKind::Fixed)),
            Workload::Compress1c => {
                single(Preset::Compress, 4.0, config(1, 0, MemBackendKind::Fixed))
            }
            Workload::Db16Dram => single(
                Preset::Db,
                1.0,
                config(16, 0, MemBackendKind::Dram(DramConfig::default())),
            ),
            Workload::Fig5Sweep => Shape::Sweep {
                parts: Preset::ALL
                    .into_iter()
                    .map(|preset| {
                        JobSet::from_jobs(SWEEP_CORES.into_iter().map(|cores| SimJob {
                            spec: WorkloadSpec::new(preset, seed),
                            cfg: config(cores, 0, MemBackendKind::Fixed),
                        }))
                    })
                    .collect(),
            },
        }
    }
}

/// Does the preset's heap depend on the seed? Only the randomized
/// topologies do; the others are the same graph for every seed.
pub fn seed_sensitive(preset: Preset) -> bool {
    matches!(preset, Preset::Db | Preset::Javac | Preset::Javacc)
}

/// The pin key of one sweep cell.
pub fn cell_label(job: &SimJob) -> String {
    format!("{}/{}", job.spec.preset.name(), job.cfg.n_cores)
}

/// Checks every op's outcome: against its pin on a pinned seed, and
/// against the first outcome of the same cell in this run on every seed
/// (the simulator is deterministic, so a repeat must match exactly).
pub struct Checker<'a> {
    pins: &'a Pins,
    workload: &'static str,
    seed: u64,
    first: BTreeMap<String, (u64, u64)>,
    /// Every problem found, in order.
    pub problems: Vec<String>,
}

impl<'a> Checker<'a> {
    pub fn new(pins: &'a Pins, workload: &'static str, seed: u64) -> Checker<'a> {
        Checker {
            pins,
            workload,
            seed,
            first: BTreeMap::new(),
            problems: Vec::new(),
        }
    }

    /// `workload` or `workload cell`, for messages.
    pub fn at(&self, cell: &str) -> String {
        if cell.is_empty() {
            self.workload.to_string()
        } else {
            format!("{} {cell}", self.workload)
        }
    }

    /// Record a failure found elsewhere (verification, a panic).
    pub fn fail(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Check one cell's statistics; `false` (and a recorded problem) on
    /// a pin mismatch or a run-to-run difference.
    pub fn check(&mut self, cell: &str, stats: &GcStats) -> bool {
        let got = (stats.total_cycles, stats.digest());
        let mut ok = true;
        if let PinCheck::Mismatch {
            pinned_cycles,
            pinned_digest,
        } = self
            .pins
            .check(self.workload, self.seed, cell, got.0, got.1)
        {
            self.fail(format!(
                "{} seed {}: {} cycles / digest {}, pinned {pinned_cycles} / {pinned_digest}",
                self.at(cell),
                self.seed,
                got.0,
                got.1
            ));
            ok = false;
        }
        let first = *self.first.entry(cell.to_string()).or_insert(got);
        if first != got {
            self.fail(format!(
                "{}: {got:?} differs from this run's first outcome {first:?}",
                self.at(cell)
            ));
            ok = false;
        }
        ok
    }

    /// The sequential Cheney collector is the functional oracle: it must
    /// copy exactly the objects and words the simulated collector did.
    pub fn oracle(&mut self, cell: &str, stats: &GcStats, seq: (u64, u64)) -> bool {
        let sim = (stats.objects_copied, stats.words_copied);
        if sim != seq {
            self.fail(format!(
                "{}: copied (objects, words) {sim:?}, SeqCheney {seq:?}",
                self.at(cell)
            ));
        }
        sim == seq
    }
}

/// Host seconds of each step of one untraced verified run.
#[derive(Debug, Clone, Copy)]
pub struct RunTimes {
    pub build: f64,
    pub capture: f64,
    pub collect: f64,
    pub verify: f64,
}

impl RunTimes {
    pub fn total(&self) -> f64 {
        self.build + self.capture + self.collect + self.verify
    }
}

/// One untraced verified run; `Err` when verification fails.
pub fn verified_run(spec: &WorkloadSpec, cfg: GcConfig) -> Result<(GcOutcome, RunTimes), String> {
    let t = Instant::now();
    let mut heap = spec.build();
    let build = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let snap = Snapshot::capture(&heap);
    let capture = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let out = SimCollector::new(cfg).collect(&mut heap);
    let collect = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let verdict = verify_collection(&heap, out.free, &snap);
    let verify = t.elapsed().as_secs_f64();
    verdict.map_err(|e| format!("{} failed verification: {e}", spec.preset))?;
    Ok((
        out,
        RunTimes {
            build,
            capture,
            collect,
            verify,
        },
    ))
}

/// `(objects, words)` the sequential oracle copies on a fresh copy of `heap`.
pub fn seq_copied(heap: &Heap) -> (u64, u64) {
    let mut h = heap.clone();
    let out = SeqCheney::new().collect(&mut h);
    (out.objects_copied, out.words_copied)
}

/// One `run_jobset` call over `part`, in-process, with no result cache.
/// `run_jobset` verifies every cell and panics on a failure; the caller
/// catches it.
///
/// A sweep is one call per preset rather than one call for all forty
/// cells so that the untraced run can calibrate between calls: a single
/// call lasts long enough for the host's speed to change under it.
pub fn run_part(part: &JobSet, cache: &ResultCache) -> Result<Vec<GcOutcome>, String> {
    let opts = ExecOptions {
        binary: "hwgc-perfbench".to_string(),
        cache,
        progress: None,
        workers: 0,
        journal: None,
    };
    let report = run_jobset(part, &opts).map_err(|e| format!("run_jobset: {e}"))?;
    if report.skipped != 0 {
        return Err(format!("{} cells came from a cache", report.skipped));
    }
    Ok(report.outcomes.into_iter().map(|(out, _)| out).collect())
}

/// Σ cycles of a sweep and its error against the paper's best 16-core
/// speedup. `cells` pairs every job with its outcome.
pub fn sweep_summary(cells: &[(&SimJob, &GcOutcome)]) -> (u64, f64) {
    let total = cells.iter().map(|(_, o)| o.stats.total_cycles).sum();
    let cycles = |preset: Preset, cores: usize| {
        cells
            .iter()
            .find(|(j, _)| j.spec.preset == preset && j.cfg.n_cores == cores)
            .map(|(_, o)| o.stats.total_cycles as f64)
    };
    let best = Preset::ALL
        .into_iter()
        .filter_map(|p| Some(cycles(p, 1)? / cycles(p, 16)?))
        .fold(0.0, f64::max);
    (total, (best - PAPER_SPEEDUP_16C).abs() / PAPER_SPEEDUP_16C)
}

/// In-memory span recorder for the traced run.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    pub op: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let i = self.stack.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.now();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Close every span still open (after a caught panic).
    pub fn unwind(&mut self) {
        while !self.stack.is_empty() {
            self.exit();
        }
    }
}

/// Counters of one traced op (summed over cells for the sweep).
#[derive(Debug, Clone, Default)]
pub struct OpCounters {
    pub total_cycles: u64,
    pub words_copied: u64,
    pub cycles_executed: u64,
    pub calendar_pops: u64,
    pub park_total: u64,
    pub wake_mem: u64,
    pub wake_sb: u64,
    /// Scan, free, header.
    pub acquired: [u64; 3],
    pub failed: [u64; 3],
    pub stall_header_lock: u64,
    pub stall_scan_lock: u64,
    pub mem_issued: u64,
    pub comparator_blocked_cycles: u64,
    pub queue_occupancy_sum: u64,
    pub mem_cycles: u64,
    pub dram_row_hits: u64,
    pub dram_accesses: u64,
    /// Host ns the hostprof `mem.tick` timer attributed (not exact).
    pub mem_tick_ns: u64,
    /// Memory ticks that timer covered.
    pub mem_ticks: u64,
    /// Heap allocations during the untraced collect.
    pub collect_allocs: u64,
}

impl OpCounters {
    fn add(&mut self, stats: &GcStats, prof: &HostProfiler, collect_allocs: u64) {
        const LOCKS: [LockKind; 3] = [LockKind::Scan, LockKind::Free, LockKind::Header];
        self.total_cycles += stats.total_cycles;
        self.words_copied += stats.words_copied;
        self.cycles_executed += prof.counter("engine.cycles_executed");
        self.calendar_pops += prof.counter("engine.calendar.pops");
        self.park_total += prof.counter_prefix_sum("engine.park.");
        self.wake_mem += prof.counter("engine.wake.mem");
        self.wake_sb += prof.counter("engine.wake.sb");
        for (i, kind) in LOCKS.into_iter().enumerate() {
            self.acquired[i] += stats.sync.acquired(kind);
            self.failed[i] += stats.sync.failed(kind);
        }
        self.stall_header_lock += stats.stall.header_lock;
        self.stall_scan_lock += stats.stall.scan_lock;
        self.mem_issued += stats.mem.total_issued();
        self.comparator_blocked_cycles += stats.mem.comparator_blocked_cycles;
        self.queue_occupancy_sum += stats.mem.queue_occupancy_sum;
        self.mem_cycles += stats.mem.cycles;
        if let Some(d) = &stats.mem.dram {
            self.dram_row_hits += d.row_hits;
            self.dram_accesses += d.total_accesses();
        }
        if let Some(t) = prof.timer("mem.tick") {
            self.mem_tick_ns += t.total_ns;
            self.mem_ticks += t.count;
        }
        self.collect_allocs += collect_allocs;
    }
}

/// One traced verified run of `spec` under `cfg`, recorded as spans under
/// the currently open span: the untraced steps a verified run takes, then
/// `collect_hostprof` and `SeqCheney::collect` on copies of the same heap
/// for the engine counters and the oracle. `allocs` reads the benchmark's
/// allocation counter.
pub fn traced_run(
    rec: &mut Recorder,
    spec: &WorkloadSpec,
    cfg: GcConfig,
    allocs: fn() -> u64,
    counters: &mut OpCounters,
    checker: &mut Checker,
    cell: &str,
) -> bool {
    let mut heap = rec.span("workloads.build", || spec.build());
    let snap = rec.span("heap.capture", || Snapshot::capture(&heap));
    let mut prof_heap = heap.clone();
    let mut seq_heap = heap.clone();
    let a0 = allocs();
    let out = rec.span("core.collect", || SimCollector::new(cfg).collect(&mut heap));
    let collect_allocs = allocs() - a0;
    let verdict = rec.span("heap.verify", || verify_collection(&heap, out.free, &snap));
    let mut prof = HostProfiler::new();
    let traced = rec.span("core.collect_hostprof", || {
        SimCollector::new(cfg).collect_hostprof(&mut prof_heap, &mut prof)
    });
    let seq = rec.span("core.seq_collect", || {
        SeqCheney::new().collect(&mut seq_heap)
    });
    counters.add(&out.stats, &prof, collect_allocs);

    let mut ok = checker.check(cell, &out.stats);
    if let Err(e) = verdict {
        checker.fail(format!("{} failed verification: {e}", checker.at(cell)));
        ok = false;
    }
    if traced.stats != out.stats {
        checker.fail(format!(
            "{}: collect_hostprof changed GcStats",
            checker.at(cell)
        ));
        ok = false;
    }
    ok &= checker.oracle(cell, &out.stats, (seq.objects_copied, seq.words_copied));
    ok
}

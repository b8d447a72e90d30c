//! The repository benchmark: host time the simulator takes to turn
//! simulated GC cycles into verified heaps, on four workloads, plus a
//! separate traced run that splits the cost by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig6_16c|compress_1c|db16_dram|fig5_sweep|all> \
//!     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--pin-entries]
//! ```
//!
//! * `--trace 0` (default) measures the end-to-end metrics with nothing
//!   traced; `--trace 1` records spans around every call into a layer,
//!   runs `collect_hostprof` for the engine counters and the layer
//!   microbenches, and reports the per-layer metrics. The spans are
//!   written to `perfbench/out/` when the run ends.
//! * `--seed` is the workload seed (default 42). Seeds 42 and the
//!   held-out seed in `pins.json` are pinned: every op's cycle count and
//!   `GcStats` digest must equal its pin. On every seed each collection
//!   is verified against its pre-collection snapshot and must repeat the
//!   run's first outcome exactly; the `SeqCheney` oracle checks the first
//!   single-configuration set-up and every traced collection.
//! * `--pin-entries` runs one op and prints its `pins.json` entries.
//!
//! Host times are reported in reference-host units (see
//! [`micro::CAL_REF_S`]): each is scaled by a fixed calibration pass timed
//! beside it, so they hold still while a shared host drifts between speed
//! modes. The report prints the raw times beside them.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Any `HWGC_*` variable in the
//! environment makes the benchmark refuse to run: the library reads
//! several of them as defaults, and the numbers would silently change.

mod micro;
mod pins;
mod stats;
mod work;

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hwgc_core::{GcConfig, GcOutcome};
use hwgc_jobs::{backend_label, engine_label, JobSet, ResultCache};
use hwgc_obs::Json;
use hwgc_workloads::WorkloadSpec;

use crate::micro::{Calibrator, CAL_REF_S};
use crate::pins::{pin_entry_json, Pin, Pins};
use crate::stats::{median, quartiles, self_times, tail, trimmed_mean};
use crate::work::{Checker, OpCounters, Recorder, Shape, Workload};

/// Counts heap allocations, for `core.allocs_per_collect`, and tracks
/// the peak of live heap bytes, for `peak_heap_mb`.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        grow(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

const PINS: &str = include_str!("../pins.json");

/// Set-ups per run; `setup_s` is their median, in reference-host
/// seconds like every other host time. The first is timed from process
/// start.
const SETUP_REPS: usize = 5;

/// Slices the measured window is cut into for the run-to-run quartiles
/// every report prints.
const SEGMENTS: usize = 5;

/// Job-pool threads. One: on a two-core host a two-thread sweep varied by
/// 9-11% from run to run (any other runnable thread stalls half the
/// pool), against 4-6% for one thread calibrated like the other
/// workloads.
const POOL_THREADS: usize = 1;

const USAGE: &str =
    "usage: hwgc-perfbench --workload <fig6_16c|compress_1c|db16_dram|fig5_sweep|all> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--pin-entries]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin_entries: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        pin_entries: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--pin-entries" {
            args.pin_entries = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::by_name(&value).ok_or_else(|| bad(&"unknown workload"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The `HWGC_*` variables present in the environment.
fn hwgc_env() -> Vec<String> {
    let mut found: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HWGC_"))
        .collect();
    found.sort();
    found
}

fn panic_text(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// `/proc/loadavg`'s three averages, for the report header.
fn load_avg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|| "unavailable".into())
}

/// Peak of live heap bytes in MiB. The job pool's threads make the
/// process's resident set depend on which allocator arenas they happened
/// to use; live bytes do not.
fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Extra context for the human report (raw value, sample count…).
    note: String,
    /// `(q1, q3)` of the metric across the run's segments.
    segments: Option<(f64, f64)>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
        segments: None,
    }
}

impl Metric {
    fn note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// Everything one workload run produced.
struct Report {
    workload: Workload,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// The metrics the JSON line carries.
    metrics: Vec<Metric>,
    /// Metrics printed for people only (n/a on some workloads, or zero).
    extra: Vec<Metric>,
    header: Vec<String>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Host-state lines every report starts with.
fn host_header(pool: usize, load_before: &str, trace: bool) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut h = vec![
        format!("host: nproc {nproc}, job pool {pool} threads"),
        format!("load average before: {load_before}; after: {}", load_avg()),
    ];
    if !trace {
        h.push(format!(
            "host-time metrics are in reference-host units: each time is scaled by {:.1} ms / \
             a calibration pass run beside it (raw values in brackets)",
            CAL_REF_S * 1e3
        ));
    }
    h
}

fn seed_line(pins: &Pins, w: Workload, seed: u64, shape: &Shape) -> String {
    let pinned = if pins.pinned(w.name(), seed) {
        if seed == pins.held_out_seed {
            "pinned, held out"
        } else {
            "pinned"
        }
    } else {
        "unpinned: checked by verification, the SeqCheney oracle and run-to-run determinism"
    };
    let sensitive: Vec<&str> = match shape {
        Shape::Single { spec, .. } => vec![spec.preset.name()],
        Shape::Sweep { .. } => {
            let mut v: Vec<&str> = shape.jobs().map(|j| j.spec.preset.name()).collect();
            v.dedup();
            v
        }
    }
    .into_iter()
    .filter(|p| hwgc_workloads::Preset::by_name(p).is_some_and(work::seed_sensitive))
    .collect();
    let changes = if sensitive.is_empty() {
        "the seed changes nothing in this workload".to_string()
    } else {
        format!("the seed changes {}", sensitive.join(", "))
    };
    format!("seed {seed} ({pinned}); {changes}")
}

fn config_line(spec: &WorkloadSpec, cfg: &GcConfig) -> String {
    format!(
        "{} scale {} on {} cores: engine {} ({:?}), backend {}, extra latency {}",
        spec.preset.name(),
        spec.scale,
        cfg.n_cores,
        engine_label(cfg),
        cfg.effective_engine(),
        backend_label(cfg),
        cfg.mem.extra_latency
    )
}

/// Split `(at, sample)` pairs into [`SEGMENTS`] equal slices of the
/// measured window and apply `f` to each non-empty slice.
fn per_segment<T: Clone>(
    samples: &[(f64, T)],
    window: f64,
    f: impl Fn(&[T]) -> f64,
) -> Option<(f64, f64)> {
    let values: Vec<f64> = (0..SEGMENTS)
        .filter_map(|k| {
            let lo = window * k as f64 / SEGMENTS as f64;
            let hi = window * (k + 1) as f64 / SEGMENTS as f64;
            let part: Vec<T> = samples
                .iter()
                .filter(|(at, _)| *at >= lo && (*at < hi || k == SEGMENTS - 1))
                .map(|(_, s)| s.clone())
                .collect();
            (!part.is_empty()).then(|| f(&part))
        })
        .collect();
    quartiles(&values)
}

/// A tail with its percentile and sample count, or the maximum when the
/// run is too short for any percentile to have ten samples beyond it.
fn tail_or_max(xs: &[f64]) -> (f64, String) {
    match tail(xs) {
        Some(t) => (
            t.value,
            format!("p{} of {} samples, {} beyond", t.pct, t.samples, t.beyond),
        ),
        None => (
            xs.iter().copied().fold(f64::NAN, f64::max),
            format!("max of {} samples: too few for a percentile", xs.len()),
        ),
    }
}

/// Runs `f`, counting it as one attempted op; a panic or `Err` is a
/// failed op.
fn attempt<R>(
    attempted: &mut u64,
    failed: &mut u64,
    checker: &mut Checker,
    f: impl FnOnce() -> Result<R, String>,
) -> Option<R> {
    *attempted += 1;
    let r = match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(format!("panicked: {}", panic_text(p))),
    };
    r.map_err(|e| {
        *failed += 1;
        checker.fail(e);
    })
    .ok()
}

/// Untraced run of a single-configuration workload.
fn run_single(
    w: Workload,
    spec: WorkloadSpec,
    cfg: GcConfig,
    seed: u64,
    seconds: f64,
    pins: &Pins,
    process_start: Instant,
) -> Report {
    let mut checker = Checker::new(pins, w.name(), seed);
    let (mut attempted, mut failed) = (0, 0);
    let mut cal = Calibrator::new();
    let mut setups = Vec::new();
    let mut cycles = 0;
    for i in 0..SETUP_REPS {
        let t = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let out = attempt(&mut attempted, &mut failed, &mut checker, || {
            work::verified_run(&spec, cfg).map(|(out, _)| out)
        });
        if let Some(out) = out {
            let oracle_ok =
                i > 0 || checker.oracle("", &out.stats, work::seq_copied(&spec.build()));
            if !checker.check("", &out.stats) || !oracle_ok {
                failed += 1;
            }
            cycles = out.stats.total_cycles;
        }
        let c = cal.measure();
        setups.push(t.elapsed().as_secs_f64() * CAL_REF_S / c);
    }

    // (at, (collect s, verified-run s, calibration s))
    let mut samples: Vec<(f64, (f64, f64, f64))> = Vec::new();
    let start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    while start.elapsed() < window {
        let r = attempt(&mut attempted, &mut failed, &mut checker, || {
            work::verified_run(&spec, cfg)
        });
        let c = cal.measure();
        if let Some((out, times)) = r {
            if checker.check("", &out.stats) {
                samples.push((
                    start.elapsed().as_secs_f64(),
                    (times.collect, times.total(), c),
                ));
            } else {
                failed += 1;
            }
        }
    }

    let norm = |x: f64, c: f64| x * CAL_REF_S / c * 1e3;
    let collect_ms =
        |s: &[(f64, f64, f64)]| s.iter().map(|&(x, _, c)| norm(x, c)).collect::<Vec<_>>();
    let run_ms = |s: &[(f64, f64, f64)]| s.iter().map(|&(_, x, c)| norm(x, c)).collect::<Vec<_>>();
    let raw = |s: &[(f64, f64, f64)], pick: fn(&(f64, f64, f64)) -> f64| {
        median(&s.iter().map(|x| pick(x) * 1e3).collect::<Vec<_>>())
    };
    let all: Vec<(f64, f64, f64)> = samples.iter().map(|(_, s)| *s).collect();
    let mcps = |s: &[(f64, f64, f64)]| cycles as f64 / trimmed_mean(&collect_ms(s)) / 1e3;
    let (collect_tail, collect_tail_note) = tail_or_max(&collect_ms(&all));
    let (run_tail, run_tail_note) = tail_or_max(&run_ms(&all));
    let rss = peak_rss_mb().unwrap_or(f64::NAN);

    let metrics = vec![
        Metric {
            segments: per_segment(&samples, seconds, mcps),
            ..metric("sim_mcycles_per_s", mcps(&all), "Mcycles/ref-s").note(format!(
                "[{:.3} raw] trimmed mean of collects",
                cycles as f64
                    / trimmed_mean(&all.iter().map(|s| s.0 * 1e3).collect::<Vec<_>>())
                    / 1e3
            ))
        },
        Metric {
            segments: per_segment(&samples, seconds, |s| median(&run_ms(s))),
            ..metric("op_ms_p50", median(&run_ms(&all)), "ref-ms")
                .note(format!("[{:.3} raw] verified run", raw(&all, |s| s.1)))
        },
        metric("sim_gc_cycles", cycles as f64, "cycles"),
        Metric {
            segments: quartiles(&setups),
            ..metric("setup_s", median(&setups), "s")
                .note(format!("median of {SETUP_REPS} set-ups, ref-host s"))
        },
        metric("peak_heap_mb", peak_heap_mb(), "MiB"),
    ];
    let extra = vec![
        metric("op_ms_tail", run_tail, "ref-ms").note(run_tail_note),
        Metric {
            segments: per_segment(&samples, seconds, |s| tail_or_max(&collect_ms(s)).0),
            ..metric("collect_ms_p90", collect_tail, "ref-ms").note(collect_tail_note)
        },
        metric("verified_run_ms_p50", median(&run_ms(&all)), "ref-ms").note("= op_ms_p50".into()),
        metric("sweep_s", f64::NAN, "ref-s"),
        metric("fig5_err_16c", f64::NAN, "ratio"),
        metric("peak_rss_mb", rss, "MiB"),
        metric(
            "ops_failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ];
    Report {
        workload: w,
        attempted,
        failed,
        problems: checker.problems,
        metrics,
        extra,
        header: vec![config_line(&spec, &cfg)],
    }
}

/// One sweep op's outcomes and host seconds, raw and in reference-host
/// units.
struct SweepOp {
    outs: Vec<GcOutcome>,
    raw_s: f64,
    ref_s: f64,
}

/// Every part of the sweep through `run_jobset`, with `cal` run before
/// each part and after the last. Each part's time is scaled by the mean of
/// the two passes on either side of it.
fn sweep_op(
    parts: &[JobSet],
    cache: &ResultCache,
    cal: &mut dyn FnMut() -> f64,
) -> Result<SweepOp, String> {
    let mut op = SweepOp {
        outs: Vec::new(),
        raw_s: 0.0,
        ref_s: 0.0,
    };
    let mut before = cal();
    for part in parts {
        let t = Instant::now();
        op.outs.extend(work::run_part(part, cache)?);
        let dt = t.elapsed().as_secs_f64();
        let after = cal();
        op.raw_s += dt;
        op.ref_s += dt * CAL_REF_S * 2.0 / (before + after);
        before = after;
    }
    Ok(op)
}

/// Untraced run of the sweep workload.
fn run_sweep(
    w: Workload,
    parts: &[JobSet],
    pool: usize,
    seed: u64,
    seconds: f64,
    pins: &Pins,
    process_start: Instant,
) -> Report {
    let jobs = || parts.iter().flat_map(|p| p.jobs());
    let mut checker = Checker::new(pins, w.name(), seed);
    let (mut attempted, mut failed) = (0, 0);
    let cache = ResultCache::disabled();
    let mut cal = Calibrator::new();
    let mut setups = Vec::new();
    let (mut cycles, mut err_16c) = (0, f64::NAN);
    let check = |checker: &mut Checker, outs: &[GcOutcome]| {
        jobs().zip(outs).fold(true, |ok, (j, o)| {
            checker.check(&work::cell_label(j), &o.stats) && ok
        })
    };
    let mut samples: Vec<(f64, (f64, f64))> = Vec::new();
    let mut start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let mut rep = 0;
    // SETUP_REPS set-ups, then sweeps until the window closes.
    while rep < SETUP_REPS || start.elapsed() < window {
        let t = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let r = attempt(&mut attempted, &mut failed, &mut checker, || {
            sweep_op(parts, &cache, &mut || cal.measure())
        });
        // The set-up is scaled like the sweep it ran.
        let scale = r.as_ref().map_or(1.0, |op| op.ref_s / op.raw_s);
        if let Some(op) = r {
            let cells: Vec<_> = jobs().zip(&op.outs).collect();
            if !check(&mut checker, &op.outs) {
                failed += 1;
            } else if rep >= SETUP_REPS {
                samples.push((start.elapsed().as_secs_f64(), (op.raw_s, op.ref_s)));
            }
            (cycles, err_16c) = work::sweep_summary(&cells);
        }
        if rep < SETUP_REPS {
            setups.push(t.elapsed().as_secs_f64() * scale);
            start = Instant::now();
        }
        rep += 1;
    }

    let sweep_ms = |s: &[(f64, f64)]| s.iter().map(|&(_, r)| r * 1e3).collect::<Vec<_>>();
    let all: Vec<(f64, f64)> = samples.iter().map(|(_, s)| *s).collect();
    let raw_ms = median(&all.iter().map(|s| s.0 * 1e3).collect::<Vec<_>>());
    let mcps = |s: &[(f64, f64)]| cycles as f64 / trimmed_mean(&sweep_ms(s)) / 1e3;
    let (sweep_tail, sweep_tail_note) = tail_or_max(&sweep_ms(&all));
    let p50 = median(&sweep_ms(&all));
    let rss = peak_rss_mb().unwrap_or(f64::NAN);
    let n_cells = jobs().count();
    let metrics = vec![
        Metric {
            segments: per_segment(&samples, seconds, mcps),
            ..metric("sim_mcycles_per_s", mcps(&all), "Mcycles/ref-s").note(format!(
                "[{:.3} raw] Σ cycles / trimmed mean of sweeps",
                cycles as f64
                    / trimmed_mean(&all.iter().map(|s| s.0 * 1e3).collect::<Vec<_>>())
                    / 1e3
            ))
        },
        Metric {
            segments: per_segment(&samples, seconds, |s| median(&sweep_ms(s))),
            ..metric("op_ms_p50", p50, "ref-ms")
                .note(format!("[{raw_ms:.3} raw] one {n_cells}-cell sweep"))
        },
        metric("sim_gc_cycles", cycles as f64, "cycles").note("Σ over cells".into()),
        Metric {
            segments: quartiles(&setups),
            ..metric("setup_s", median(&setups), "s")
                .note(format!("median of {SETUP_REPS} set-ups, ref-host s"))
        },
        metric("peak_heap_mb", peak_heap_mb(), "MiB"),
    ];
    let extra = vec![
        metric("op_ms_tail", sweep_tail, "ref-ms").note(sweep_tail_note),
        metric("collect_ms_p90", f64::NAN, "ref-ms"),
        metric("verified_run_ms_p50", f64::NAN, "ref-ms"),
        metric("sweep_s", p50 / 1e3, "ref-s").note("= op_ms_p50 / 1000".into()),
        metric("fig5_err_16c", err_16c, "ratio").note(format!(
            "best 16-core speedup {:.2} against the paper's {}",
            work::PAPER_SPEEDUP_16C * (1.0 + err_16c),
            work::PAPER_SPEEDUP_16C
        )),
        metric("peak_rss_mb", rss, "MiB"),
        metric(
            "ops_failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ];
    let cfg = &parts[0].jobs()[0].cfg;
    Report {
        workload: w,
        attempted,
        failed,
        problems: checker.problems,
        metrics,
        extra,
        header: vec![format!(
            "{n_cells} cells: 8 presets x cores {:?}, one run_jobset call per preset, in-process \
             on a pool of {pool}, no cache; engine at 1 core {:?}, at 16 cores {:?}; backend {}",
            work::SWEEP_CORES,
            GcConfig::with_cores(1).effective_engine(),
            GcConfig::with_cores(16).effective_engine(),
            backend_label(cfg),
        )],
    }
}

/// Sum of self time per span name within each op, in op order.
fn self_ns_per_op(rec: &Recorder, ops: u64) -> Vec<BTreeMap<&'static str, u64>> {
    let mut per_op = vec![BTreeMap::new(); ops as usize];
    for (s, own) in rec.spans.iter().zip(self_times(&rec.spans)) {
        if let Some(m) = per_op.get_mut(s.op as usize) {
            *m.entry(s.name).or_insert(0) += own;
        }
    }
    per_op
}

/// Traced run of any workload: spans around every layer call, engine
/// counters from `collect_hostprof`, then the layer microbenches.
fn run_traced(
    w: Workload,
    shape: &Shape,
    pool: usize,
    seed: u64,
    seconds: f64,
    pins: &Pins,
) -> Report {
    let mut checker = Checker::new(pins, w.name(), seed);
    let (mut attempted, mut failed) = (0, 0);
    let mut rec = Recorder::new();
    let cache = ResultCache::disabled();
    let mut counters: Vec<OpCounters> = Vec::new();
    let start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    while start.elapsed() < window || counters.is_empty() {
        let mut c = OpCounters::default();
        rec.op = counters.len() as u64;
        rec.enter("op");
        let r = catch_unwind(AssertUnwindSafe(|| match shape {
            Shape::Single { spec, cfg } => {
                work::traced_run(&mut rec, spec, *cfg, allocs, &mut c, &mut checker, "")
            }
            Shape::Sweep { parts } => {
                let mut outs = Vec::new();
                for part in parts {
                    match rec.span("jobs.run_jobset", || work::run_part(part, &cache)) {
                        Ok(o) => outs.extend(o),
                        Err(e) => checker.fail(e),
                    }
                }
                let mut ok = outs.len() == shape.jobs().count();
                for (job, o) in shape.jobs().zip(&outs) {
                    ok &= checker.check(&work::cell_label(job), &o.stats);
                }
                for job in shape.jobs() {
                    rec.enter("cell");
                    let label = work::cell_label(job);
                    ok &= work::traced_run(
                        &mut rec,
                        &job.spec,
                        job.cfg,
                        allocs,
                        &mut c,
                        &mut checker,
                        &label,
                    );
                    rec.exit();
                }
                ok
            }
        }));
        rec.unwind();
        attempted += 1;
        let complete = match r {
            Ok(ok) => {
                failed += u64::from(!ok);
                true
            }
            Err(p) => {
                failed += 1;
                checker.fail(format!("panicked: {}", panic_text(p)));
                false
            }
        };
        // A panicked op's counters are partial; repeat the first op's so
        // every op keeps one entry.
        counters.push(if complete || counters.is_empty() {
            c
        } else {
            counters[0].clone()
        });
    }
    let ops = counters.len() as u64;

    // Microbenches, outside every op.
    rec.op = ops;
    let sb_ns = rec.span("micro.sync_block", || micro::sb_roundtrip_ns(seed));
    let fixed_ns = rec.span("micro.fixed_tick", || micro::fixed_tick_ns(seed));
    let dram_ns = rec.span("micro.dram_tick", || micro::dram_tick_ns(seed));
    let spans_note = write_spans(w, seed, &rec);

    let per_op = self_ns_per_op(&rec, ops);
    // Per-op self ns of the spans named `name`.
    let col = |name: &str| -> Vec<f64> {
        per_op
            .iter()
            .map(|m| *m.get(name).unwrap_or(&0) as f64)
            .collect()
    };
    let ms = |name: &str| median(&col(name)) / 1e6;
    let per_op_ratio = |num: &[f64], den: &[f64]| {
        median(&num.iter().zip(den).map(|(a, b)| a / b).collect::<Vec<_>>())
    };
    let of_counters =
        |f: fn(&OpCounters) -> u64| -> Vec<f64> { counters.iter().map(|c| f(c) as f64).collect() };
    let collect = col("core.collect");
    let hostprof = col("core.collect_hostprof");
    let collect_ns = median(&collect);
    let c0 = &counters[0];
    let (is_dram, collects) = match shape {
        Shape::Single { cfg, .. } => (backend_label(cfg) != "fixed", 1),
        Shape::Sweep { .. } => (false, shape.jobs().count()),
    };
    let acquired: u64 = c0.acquired.iter().sum();
    let (pool_threads, efficiency) = match shape {
        Shape::Single { .. } => (0, 0.0),
        Shape::Sweep { .. } => {
            let steps = [
                "workloads.build",
                "heap.capture",
                "core.collect",
                "heap.verify",
            ]
            .map(col);
            let pooled = col("jobs.run_jobset");
            let eff: Vec<f64> = (0..ops as usize)
                .map(|i| {
                    let serial: f64 = steps.iter().map(|s| s[i]).sum();
                    stats::parallel_efficiency(serial as u64, pool, pooled[i] as u64)
                })
                .collect();
            (pool, median(&eff))
        }
    };
    let header_fail = stats::fail_ratio(c0.acquired[2], c0.failed[2]);
    let exact = |name, v: u64, unit| metric(name, v as f64, unit);
    let metrics = vec![
        metric("workloads.build_ms", ms("workloads.build"), "ms"),
        metric("heap.snapshot_ms", ms("heap.capture"), "ms"),
        metric("heap.verify_ms", ms("heap.verify"), "ms"),
        exact("heap.words_copied", c0.words_copied, "words"),
        metric("core.collect_ms", ms("core.collect"), "ms"),
        metric(
            "core.ns_per_sim_cycle",
            per_op_ratio(&collect, &of_counters(|c| c.total_cycles)),
            "ns",
        ),
        metric(
            "core.ns_per_exec_cycle",
            per_op_ratio(&collect, &of_counters(|c| c.cycles_executed)),
            "ns",
        ),
        metric(
            "core.allocs_per_collect",
            median(&of_counters(|c| c.collect_allocs)) / collects as f64,
            "count",
        ),
        metric(
            "core.collect_over_seq",
            per_op_ratio(&collect, &col("core.seq_collect")),
            "ratio",
        ),
        exact("engine.cycles_executed", c0.cycles_executed, "cycles"),
        metric(
            "engine.skip_ratio",
            stats::skip_ratio(c0.cycles_executed, c0.total_cycles),
            "ratio",
        ),
        exact("engine.calendar.pops", c0.calendar_pops, "count"),
        exact("engine.park.total", c0.park_total, "count"),
        exact("engine.wake.mem", c0.wake_mem, "count"),
        exact("engine.wake.sb", c0.wake_sb, "count"),
        exact("sync.scan.acquired", c0.acquired[0], "count"),
        exact("sync.scan.failed", c0.failed[0], "count"),
        exact("sync.free.acquired", c0.acquired[1], "count"),
        exact("sync.free.failed", c0.failed[1], "count"),
        exact("sync.header.acquired", c0.acquired[2], "count"),
        exact("sync.header.failed", c0.failed[2], "count"),
        metric("sync.header.fail_ratio", header_fail, "ratio"),
        exact("stall.header_lock", c0.stall_header_lock, "cycles"),
        exact("stall.scan_lock", c0.stall_scan_lock, "cycles"),
        metric("sync.sb_roundtrip_ns", sb_ns, "ns"),
        // Acquisitions only: the sparse engine replays a parked core's
        // failed retries in bulk rather than one SB call each.
        metric(
            "sync.sb_est_share",
            sb_ns * acquired as f64 / collect_ns,
            "ratio",
        )
        .note("microbench ns x acquisitions / collect ns".into()),
        exact("mem.issued", c0.mem_issued, "count"),
        exact(
            "mem.comparator_blocked_cycles",
            c0.comparator_blocked_cycles,
            "cycles",
        ),
        metric(
            "mem.queue_mean_depth",
            c0.queue_occupancy_sum as f64 / c0.mem_cycles.max(1) as f64,
            "requests",
        ),
        metric(
            "dram.row_hit_rate",
            if c0.dram_accesses == 0 {
                0.0
            } else {
                c0.dram_row_hits as f64 / c0.dram_accesses as f64
            },
            "ratio",
        )
        .note(if is_dram {
            String::new()
        } else {
            "no DRAM backend: 0".into()
        }),
        metric("mem.fixed_tick_ns", fixed_ns, "ns").note(if is_dram {
            "backend not in use".into()
        } else {
            String::new()
        }),
        metric("mem.dram_tick_ns", dram_ns, "ns").note(if is_dram {
            String::new()
        } else {
            "backend not in use".into()
        }),
        metric(
            "mem.tick_share",
            per_op_ratio(&of_counters(|c| c.mem_tick_ns), &hostprof),
            "ratio",
        )
        .note("in situ: hostprof mem.tick / traced collect".into()),
        metric(
            "mem.tick_insitu_ns",
            per_op_ratio(
                &of_counters(|c| c.mem_tick_ns),
                &of_counters(|c| c.mem_ticks),
            ),
            "ns",
        )
        .note(format!(
            "in situ, beside the {} microbench; includes the timer's own cost",
            if is_dram { "DRAM" } else { "fixed" }
        )),
        exact("jobs.pool_threads", pool_threads as u64, "threads"),
        metric("jobs.parallel_efficiency", efficiency, "ratio").note(if pool_threads == 0 {
            "no job pool in this workload: 0".into()
        } else {
            String::new()
        }),
        metric(
            "obs.hostprof_overhead",
            per_op_ratio(&hostprof, &collect),
            "ratio",
        ),
    ];
    let mut header = match shape {
        Shape::Single { spec, cfg } => vec![config_line(spec, cfg)],
        Shape::Sweep { .. } => vec![format!(
            "{} cells through run_jobset on a pool of {pool}, then each cell traced serially",
            shape.jobs().count()
        )],
    };
    header.push(format!("{ops} traced ops; {spans_note}"));
    Report {
        workload: w,
        attempted,
        failed,
        problems: checker.problems,
        metrics,
        extra: Vec::new(),
        header,
    }
}

/// Write the spans as JSON lines under `perfbench/out/`; returns a note
/// for the report.
fn write_spans(w: Workload, seed: u64, rec: &Recorder) -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}-seed{seed}.jsonl", w.name());
    let mut text = String::new();
    for s in &rec.spans {
        let line = Json::Obj(vec![
            ("name".into(), Json::Str(s.name.into())),
            ("start_ns".into(), Json::Int(s.start_ns.into())),
            ("end_ns".into(), Json::Int(s.end_ns.into())),
            (
                "parent".into(),
                s.parent.map_or(Json::Null, |p| Json::Int(p as i128)),
            ),
            ("op".into(), Json::Int(s.op.into())),
        ]);
        let _ = writeln!(text, "{}", line.to_string_compact());
    }
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, text)) {
        Ok(()) => format!("{} spans written to perfbench/out/", rec.spans.len()),
        Err(e) => format!("spans not written ({path}: {e})"),
    }
}

fn print_report(r: &Report, seed_line: &str, trace: bool, seconds: f64) {
    println!(
        "== {} ({}, {seconds} s) ==",
        r.workload.name(),
        if trace {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        }
    );
    for h in &r.header {
        println!("  {h}");
    }
    println!("  {seed_line}");
    println!("  ops: {} attempted, {} failed", r.attempted, r.failed);
    let mut distinct: Vec<(&String, usize)> = Vec::new();
    for p in &r.problems {
        match distinct.iter_mut().find(|(q, _)| *q == p) {
            Some((_, n)) => *n += 1,
            None => distinct.push((p, 1)),
        }
    }
    for (p, n) in distinct.iter().take(10) {
        println!("  PROBLEM (x{n}): {p}");
    }
    println!(
        "  {:<30} {:>14} {:<14} segment q1..q3 ({SEGMENTS} slices)",
        "metric", "value", "unit"
    );
    for m in r.metrics.iter().chain(&r.extra) {
        let value = if m.value.is_nan() {
            "n/a".to_string()
        } else {
            format!("{:.4}", m.value)
        };
        let seg = m
            .segments
            .map_or(String::new(), |(a, b)| format!("{a:.4}..{b:.4}"));
        println!(
            "  {:<30} {value:>14} {:<14} {seg:<24} {}",
            m.name, m.unit, m.note
        );
    }
}

fn json_line(reports: &[Report], prefixed: bool) -> String {
    let mut metrics = Vec::new();
    for r in reports {
        for m in &r.metrics {
            let name = if prefixed {
                format!("{}.{}", r.workload.name(), m.name)
            } else {
                m.name.to_string()
            };
            metrics.push((
                name,
                Json::Obj(vec![
                    ("value".into(), Json::Float(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            ));
        }
    }
    Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(reports.iter().all(Report::correct)),
        ),
        (
            "attempted".into(),
            Json::Int(reports.iter().map(|r| i128::from(r.attempted)).sum()),
        ),
        (
            "failed".into(),
            Json::Int(reports.iter().map(|r| i128::from(r.failed)).sum()),
        ),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_string_compact()
}

/// `--pin-entries`: one op, printed as `pins.json` entries.
fn pin_entries(w: Workload, shape: &Shape, seed: u64) -> Result<(), String> {
    let outs: Vec<(String, GcOutcome)> = match shape {
        Shape::Single { spec, cfg } => vec![(String::new(), work::verified_run(spec, *cfg)?.0)],
        Shape::Sweep { parts } => {
            let op = sweep_op(parts, &ResultCache::disabled(), &mut || CAL_REF_S)?;
            shape.jobs().map(work::cell_label).zip(op.outs).collect()
        }
    };
    for (cell, out) in outs {
        let pin = Pin {
            workload: w.name().into(),
            seed,
            cell,
            cycles: out.stats.total_cycles,
            digest: out.stats.digest(),
        };
        println!("{},", pin_entry_json(&pin));
    }
    Ok(())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let load_before = load_avg();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = hwgc_env();
    if !env.is_empty() {
        eprintln!(
            "refusing to run: {} set in the environment; the library reads HWGC_* variables as \
             defaults, so the workloads would not be the ones this benchmark defines",
            env.join(", ")
        );
        return ExitCode::from(2);
    }
    let pins = match Pins::parse(PINS) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pins.json: {e}");
            return ExitCode::from(2);
        }
    };
    let pool = POOL_THREADS;
    // The job pool's size is read from the environment; this benchmark is
    // the only place that sets it, before any thread starts.
    std::env::set_var("HWGC_JOBS", pool.to_string());

    let mut reports = Vec::new();
    for (i, &w) in args.workloads.iter().enumerate() {
        let shape = w.shape(args.seed);
        // The first set-up of the first workload counts from process start.
        let setup_start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        if args.pin_entries {
            if let Err(e) = pin_entries(w, &shape, args.seed) {
                eprintln!("{e}");
                return ExitCode::from(1);
            }
            continue;
        }
        let mut report = match (&shape, args.trace) {
            (_, true) => run_traced(w, &shape, pool, args.seed, args.seconds, &pins),
            (Shape::Single { spec, cfg }, false) => {
                run_single(w, *spec, *cfg, args.seed, args.seconds, &pins, setup_start)
            }
            (Shape::Sweep { parts }, false) => {
                run_sweep(w, parts, pool, args.seed, args.seconds, &pins, setup_start)
            }
        };
        let mut header = host_header(pool, &load_before, args.trace);
        header.append(&mut report.header);
        report.header = header;
        print_report(
            &report,
            &seed_line(&pins, w, args.seed, &shape),
            args.trace,
            args.seconds,
        );
        reports.push(report);
    }
    if !args.pin_entries {
        println!("{}", json_line(&reports, args.workloads.len() > 1));
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric a section of `BENCHMARK.json` lists.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        doc.get(section)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn reported(r: &Report) -> Vec<(String, String)> {
        assert!(r.correct(), "{:?}", r.problems);
        r.metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
                (m.name.to_string(), m.unit.to_string())
            })
            .collect()
    }

    /// Every report carries exactly the metrics `BENCHMARK.json` declares,
    /// in its order and units. Runs each kind of report for a moment.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "runs the simulator; use --release")]
    fn reports_carry_exactly_the_declared_metrics() {
        std::env::set_var("HWGC_JOBS", POOL_THREADS.to_string());
        let pins = Pins::parse(PINS).unwrap();
        let e2e = declared("end_to_end");
        let per_layer = declared("per_layer");
        let w = Workload::Fig6_16c;
        let shape = w.shape(42);
        let Shape::Single { spec, cfg } = &shape else {
            unreachable!()
        };
        let single = run_single(w, *spec, *cfg, 42, 0.01, &pins, Instant::now());
        assert_eq!(reported(&single), e2e);
        assert_eq!(
            reported(&run_traced(w, &shape, POOL_THREADS, 42, 0.01, &pins)),
            per_layer
        );

        let w = Workload::Fig5Sweep;
        let shape = w.shape(42);
        let Shape::Sweep { parts } = &shape else {
            unreachable!()
        };
        let sweep = run_sweep(w, parts, POOL_THREADS, 42, 0.01, &pins, Instant::now());
        assert_eq!(reported(&sweep), e2e);
    }
}

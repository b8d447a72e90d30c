//! Differential check of the event-horizon fast-forward: on every
//! workload preset and every adversarial graph in the catalog, the
//! fast-forwarding engine must report *exactly* what the naive per-cycle
//! loop reports — the same `GcStats` (total cycles, stall attribution,
//! memory and SB counters), the same allocation frontier, and, where the
//! SB event log is captured, the same cycle-stamped event stream.
//!
//! The fast engine runs this loop at one core and above
//! [`SPARSE_MAX_CORES`]; in between it runs the sparse loop, which has
//! its own matrix in `tests/sparse.rs`. The core axis is therefore
//! `{1, SPARSE_MAX_CORES + 1}`: the single-core default and a
//! multi-core run of the same loop.
//!
//! The workload matrix rides the `HWGC_JOBS` worker pool; every pair is
//! an independent simulation.

use hwgc_check::graphs;
use hwgc_core::config::SPARSE_MAX_CORES;
use hwgc_core::{EngineKind, EngineLoop, GcConfig, SignalTrace, SimCollector};
use hwgc_heap::Heap;
use hwgc_jobs::par_map;
use hwgc_workloads::{Preset, WorkloadSpec};

const CORES: [usize; 2] = [1, SPARSE_MAX_CORES + 1];

fn ff_config(cores: usize) -> GcConfig {
    let cfg = GcConfig::with_cores(cores);
    assert_eq!(cfg.effective_engine(), EngineLoop::FastForward);
    cfg
}

fn naive_config(cores: usize) -> GcConfig {
    GcConfig {
        engine: EngineKind::Reference,
        ..ff_config(cores)
    }
}

#[test]
fn every_preset_is_bit_exact_under_fast_forward() {
    let mut pairs: Vec<(Preset, usize)> = Vec::new();
    for preset in Preset::ALL {
        for cores in CORES {
            pairs.push((preset, cores));
        }
    }
    par_map(&pairs, |_, &(preset, cores)| {
        let base = WorkloadSpec::new(preset, 42).build();
        let mut fast_heap = base.clone();
        let mut naive_heap = base;
        let fast = SimCollector::new(ff_config(cores)).collect(&mut fast_heap);
        let naive = SimCollector::new(naive_config(cores)).collect(&mut naive_heap);
        assert_eq!(
            fast.stats,
            naive.stats,
            "{}/{cores}c: stats diverged under fast-forward",
            preset.name()
        );
        assert_eq!(
            fast.free,
            naive.free,
            "{}/{cores}c: allocation frontier diverged",
            preset.name()
        );
    });
}

#[test]
fn every_catalog_graph_preserves_the_sb_event_stream() {
    let catalog: Vec<(&'static str, Heap)> = graphs::catalog();
    par_map(&catalog, |_, (name, heap)| {
        for cores in CORES {
            let mut fast_heap = heap.clone();
            let mut naive_heap = heap.clone();
            // Event capture forces k = 0 whenever a skipped window would
            // drop per-cycle lock-failure events, so the streams must
            // match record for record.
            let mut fast_trace = SignalTrace::with_events(1 << 40);
            let mut naive_trace = SignalTrace::with_events(1 << 40);
            let fast =
                SimCollector::new(ff_config(cores)).collect_traced(&mut fast_heap, &mut fast_trace);
            let naive = SimCollector::new(naive_config(cores))
                .collect_traced(&mut naive_heap, &mut naive_trace);
            assert_eq!(
                fast.stats, naive.stats,
                "{name}/{cores}c: stats diverged under fast-forward"
            );
            assert_eq!(
                fast.free, naive.free,
                "{name}/{cores}c: allocation frontier diverged"
            );
            assert_eq!(
                fast_trace.events(),
                naive_trace.events(),
                "{name}/{cores}c: SB event streams diverged"
            );
            assert_eq!(
                fast_trace.rows(),
                naive_trace.rows(),
                "{name}/{cores}c: sampled trace rows diverged"
            );
        }
    });
}

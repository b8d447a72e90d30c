//! Self-observation must not perturb the simulation: a run with the
//! [`hwgc_obs::HostProfiler`] attached must produce bit-identical
//! `GcStats` and allocation frontier to a hostprof-off run of the same
//! heap, on both engines. This is the property that lets wall-clock
//! profiling stay on in CI legs and experiment binaries without
//! invalidating a single deterministic number — and what keeps the
//! profiler's *deterministic* counters (park/wake statistics, jumps)
//! honest: they describe exactly the run the plain door would have
//! executed.

use hwgc_core::{EngineKind, GcConfig, SimCollector};
use hwgc_memsim::MemConfig;
use hwgc_obs::HostProfiler;
use hwgc_workloads::{Preset, WorkloadSpec};

fn config(engine: EngineKind, cores: usize, extra: u32) -> GcConfig {
    GcConfig {
        n_cores: cores,
        mem: MemConfig::default().with_extra_latency(extra),
        engine,
        ..GcConfig::default()
    }
}

#[test]
fn hostprof_on_equals_hostprof_off_across_engines() {
    let engines = [EngineKind::Reference, EngineKind::Fast];
    let presets = [Preset::Compress, Preset::Javac];
    // 1 core runs the fast engine's fast-forward loop, 4 and 16 its
    // sparse loop.
    for engine in engines {
        for preset in presets {
            for (cores, extra) in [(1usize, 20u32), (4, 0), (16, 20)] {
                let cfg = config(engine, cores, extra);
                let base = WorkloadSpec::new(preset, 42).build();

                let mut plain_heap = base.clone();
                let plain = SimCollector::new(cfg).collect(&mut plain_heap);

                let mut prof = HostProfiler::new();
                let mut prof_heap = base;
                let profiled = SimCollector::new(cfg).collect_hostprof(&mut prof_heap, &mut prof);

                assert_eq!(
                    profiled.stats,
                    plain.stats,
                    "{engine:?}/{}/{cores}c +{extra}: hostprof-on GcStats diverged",
                    preset.name()
                );
                assert_eq!(
                    profiled.free,
                    plain.free,
                    "{engine:?}/{}/{cores}c +{extra}: hostprof-on free diverged",
                    preset.name()
                );
                assert_eq!(
                    prof_heap.words(),
                    plain_heap.words(),
                    "{engine:?}/{}/{cores}c +{extra}: hostprof-on heap image diverged",
                    preset.name()
                );

                // The profiler actually observed the run: the cycle
                // counter is a full-loop count, so it can never exceed
                // the simulated total, and the fast engine must have
                // skipped at least something on these workloads.
                let executed = prof.counter("engine.cycles_executed");
                assert!(
                    executed > 0,
                    "{engine:?}/{}: no cycles observed",
                    preset.name()
                );
                assert!(
                    executed <= plain.stats.total_cycles,
                    "{engine:?}/{}: observed {executed} executed cycles > {} simulated",
                    preset.name(),
                    plain.stats.total_cycles
                );
                if engine == EngineKind::Fast {
                    assert!(
                        executed < plain.stats.total_cycles,
                        "{}/{cores}c +{extra}: the fast engine skipped no cycle",
                        preset.name()
                    );
                }
            }
        }
    }
}

#[test]
fn deterministic_counters_are_stable_across_reruns() {
    // Two profiled runs of the same configuration must agree on every
    // deterministic counter and histogram — this is what makes them
    // golden-testable. (Timers and notes are explicitly exempt.)
    let cfg = config(EngineKind::Fast, 16, 20);
    let run = || {
        let mut heap = WorkloadSpec::new(Preset::Compress, 42).build();
        let mut prof = HostProfiler::new();
        SimCollector::new(cfg).collect_hostprof(&mut heap, &mut prof);
        prof
    };
    let (a, b) = (run(), run());
    assert_eq!(
        a.deterministic_json().to_string_compact(),
        b.deterministic_json().to_string_compact(),
        "deterministic counters diverged between identical runs"
    );
}

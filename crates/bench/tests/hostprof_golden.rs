//! Golden-file tests for the host profiler's *deterministic* efficacy
//! counters on two 16-core regimes of the default engine (the sparse
//! loop):
//!
//! * **compress/16c, +20 latency** — long copy streams: most parks are
//!   body loads, and the all-parked jump histogram fills;
//! * **javac/16c, +0 latency** — the contended regime: header-lock and
//!   empty-worklist parks dominate and the SB wakes most cores.
//!
//! Only [`hwgc_obs::HostProfiler::deterministic_json`] is goldened —
//! counters and histograms, never timers, notes or spans. If a
//! wall-clock-dependent value ever leaks into that subset, these tests
//! go flaky on the spot, which is exactly the alarm they exist to raise
//! (alongside the cross-run stability check in the core crate's
//! `hostprof_differential` suite).
//!
//! To regenerate after an intentional counter change:
//! `HWGC_UPDATE_GOLDENS=1 cargo test -p hwgc-bench --test hostprof_golden`.

use std::path::PathBuf;

use hwgc_bench::run_hostprof;
use hwgc_core::{EngineLoop, GcConfig};
use hwgc_memsim::MemConfig;
use hwgc_obs::{validate_hostprof_json, Json};
use hwgc_workloads::{Preset, WorkloadSpec};

fn config(extra: u32) -> GcConfig {
    let cfg = GcConfig {
        n_cores: 16,
        mem: MemConfig::default().with_extra_latency(extra),
        ..GcConfig::default()
    };
    assert_eq!(cfg.effective_engine(), EngineLoop::Sparse);
    cfg
}

/// Render the deterministic subset one key per line so golden diffs read
/// like a counter changelog, not a JSON blob.
fn render(det: &Json) -> String {
    let mut out = String::new();
    for section in ["counters", "histograms"] {
        out.push_str(section);
        out.push('\n');
        if let Some(Json::Obj(pairs)) = det.get(section) {
            for (k, v) in pairs {
                out.push_str(&format!("  {k} {}\n", v.to_string_compact()));
            }
        }
    }
    out
}

fn golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("testdata")
        .join(name);
    if std::env::var_os("HWGC_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e}; regenerate with HWGC_UPDATE_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; if the change is intentional, \
         regenerate with HWGC_UPDATE_GOLDENS=1"
    );
}

#[test]
fn copy_stream_compress_counters_match_golden() {
    let spec = WorkloadSpec::new(Preset::Compress, 42);
    let (_, prof) = run_hostprof(&spec, config(20));
    assert!(
        prof.counter("engine.park.body_load") > 0,
        "compress/16c +20 must park on body loads — the golden would be vacuous"
    );
    validate_hostprof_json(&prof.to_json_string()).expect("hostprof JSON validates");
    golden(
        "hostprof_golden_compress16.txt",
        &render(&prof.deterministic_json()),
    );
}

#[test]
fn contended_javac_counters_match_golden() {
    let spec = WorkloadSpec::new(Preset::Javac, 42);
    let (_, prof) = run_hostprof(&spec, config(0));
    assert!(
        prof.counter("engine.park.header_lock") > 0,
        "javac/16c +0 must park on header locks — the golden would be vacuous"
    );
    golden(
        "hostprof_golden_javac16.txt",
        &render(&prof.deterministic_json()),
    );
}

//! Collector configuration.

use hwgc_memsim::MemConfig;

/// Configuration of a simulated collection cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcConfig {
    /// Number of coprocessor cores (the prototype supports 1–16).
    pub n_cores: usize,
    /// Memory-system timing model.
    pub mem: MemConfig,
    /// Ablation C (paper Section VI-B, javac discussion): read the mark
    /// bit *without* acquiring the header lock first, and only attempt a
    /// locking read if the mark bit is clear. Already-forwarded children —
    /// the common case for popular objects — then never contend on the
    /// header lock.
    pub test_before_lock: bool,
    /// Extension 1 (paper conclusions): distribute work at a granularity
    /// finer than whole objects. `Some(L)` lets a scan claim take at most
    /// `L` body words of a large object, so several cores can copy one
    /// object concurrently; the synchronization block tracks the
    /// outstanding chunks and the last finisher blackens. `None` is the
    /// paper's object-granularity baseline.
    pub line_split: Option<u32>,
    /// Test harness knob: permute the core tick order every cycle with
    /// this seed. The paper's SB arbitrates with a *static* priority
    /// (`None`, the default — cores tick in index order); a permuted order
    /// models any other legal arbiter and lets tests explore different
    /// interleavings of the same collection. Functional results must be
    /// identical either way; only stall attribution may shift.
    pub tick_permutation_seed: Option<u64>,
    /// Upper bound on simulated cycles before the engine assumes a model
    /// bug and panics with diagnostics.
    pub max_cycles: u64,
    /// What-if ablation knob: give the SB's `scan`/`free` registers one
    /// write port *per core*, so a same-cycle register write no longer
    /// blocks the next acquirer (the `scan_lock`/`free_lock` stall class
    /// loses its write-port-conflict share). Lock holds themselves are
    /// unchanged — claim and evacuation atomicity still rely on them.
    /// Not a paper configuration; used to validate the what-if predictor.
    pub multiport_sb: bool,
    /// Which simulation engine advances the collection (default
    /// [`EngineKind::Fast`]). Both engines are bit-exact — identical
    /// `GcStats`, SB event stamps, trace rows and probe streams — so the
    /// choice changes host time only; see [`GcConfig::effective_engine`]
    /// for the loop each one runs.
    pub engine: EngineKind,
}

/// Most cores the sparse loop can schedule: its wake sets are `u64`
/// bitmasks, one bit per core. Larger configurations run the naive loop
/// with fast-forward (see [`GcConfig::effective_engine`]).
pub const SPARSE_MAX_CORES: usize = 64;

/// Which simulation engine advances the collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The per-cycle oracle: tick every core every cycle, no skipping of
    /// any kind. Every differential compares the fast loops against it.
    Reference,
    /// The fastest bit-exact loop for the configuration, chosen by
    /// [`GcConfig::effective_engine`].
    #[default]
    Fast,
}

/// The simulation loop a configuration runs, as resolved by
/// [`GcConfig::effective_engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineLoop {
    /// Tick every core every cycle ([`EngineKind::Reference`]).
    Naive,
    /// The naive loop plus event-horizon fast-forward: when every core
    /// is stalled on in-flight memory and nothing else can change, the
    /// clock jumps to the next memory completion in one step, with the
    /// skipped per-cycle statistics replicated in bulk. Suppressed at
    /// run time while a schedule policy or a mutator could observe the
    /// skipped cycles.
    FastForward,
    /// The sparse active-set loop: cores whose next retry provably fails
    /// park on per-resource wake conditions — SB lock releases, memory
    /// retirements — and the clock jumps to the earliest wake, so
    /// per-cycle work is O(runnable) instead of O(n_cores). Composes
    /// with schedule policies; a mutator (which ticks every cycle)
    /// switches the run to the naive loop.
    Sparse,
}

impl Default for GcConfig {
    fn default() -> GcConfig {
        GcConfig {
            n_cores: 1,
            mem: MemConfig::default(),
            test_before_lock: false,
            line_split: None,
            tick_permutation_seed: None,
            multiport_sb: false,
            max_cycles: 2_000_000_000,
            engine: EngineKind::Fast,
        }
    }
}

impl GcConfig {
    /// Convenience constructor for the common case.
    pub fn with_cores(n_cores: usize) -> GcConfig {
        GcConfig {
            n_cores,
            ..GcConfig::default()
        }
    }

    /// The loop this configuration runs — the engine's only
    /// configuration gate, so ledgers and reports that label a run by
    /// this value name the loop that actually ran.
    ///
    /// [`EngineKind::Reference`] always runs the naive loop.
    /// [`EngineKind::Fast`] runs the sparse loop, except at a single
    /// core and above [`SPARSE_MAX_CORES`], where it runs the naive loop
    /// with fast-forward. At one core the sparse loop's wake bookkeeping
    /// costs more than it saves — the active set *is* the core — and
    /// forcing it there cost compress about 29% of its simulated-cycle
    /// throughput.
    pub fn effective_engine(&self) -> EngineLoop {
        match self.engine {
            EngineKind::Reference => EngineLoop::Naive,
            EngineKind::Fast if self.n_cores == 1 || self.n_cores > SPARSE_MAX_CORES => {
                EngineLoop::FastForward
            }
            EngineKind::Fast => EngineLoop::Sparse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_single_core() {
        let c = GcConfig::default();
        assert_eq!(c.n_cores, 1);
        assert!(!c.test_before_lock);
        assert_eq!(c.engine, EngineKind::Fast);
    }

    #[test]
    fn with_cores_sets_count_only() {
        let c = GcConfig::with_cores(16);
        assert_eq!(c.n_cores, 16);
        assert_eq!(c.mem, MemConfig::default());
    }

    #[test]
    fn effective_engine_resolves_each_kind() {
        let at = |engine, n_cores| GcConfig {
            engine,
            ..GcConfig::with_cores(n_cores)
        };
        for n in [1, 2, 16, SPARSE_MAX_CORES, SPARSE_MAX_CORES + 1] {
            assert_eq!(
                at(EngineKind::Reference, n).effective_engine(),
                EngineLoop::Naive
            );
        }
        assert_eq!(
            at(EngineKind::Fast, 1).effective_engine(),
            EngineLoop::FastForward
        );
        for n in [2, 16, SPARSE_MAX_CORES] {
            assert_eq!(
                at(EngineKind::Fast, n).effective_engine(),
                EngineLoop::Sparse
            );
        }
        assert_eq!(
            at(EngineKind::Fast, SPARSE_MAX_CORES + 1).effective_engine(),
            EngineLoop::FastForward
        );
    }
}

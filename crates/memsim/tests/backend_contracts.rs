//! Property tests for the `MemBackend` timing contracts, run against
//! BOTH backends (the fixed-latency model and the bank/row DRAM model).
//!
//! The engine's fast-forward machinery (event-horizon jumps, the sparse
//! active-set loop) is only sound if every backend honors three
//! contracts, tested here:
//!
//! 1. **Activity lower bound** — `next_activity_cycle` never overshoots:
//!    no core-visible change (a load completing, a store freeing its
//!    port) happens strictly before the returned cycle; `None` means no
//!    change ever happens without new issues.
//! 2. **Retirement timing** — replaying the event log, each retirement
//!    lands exactly `latency` after its service start. (DRAM) Within a
//!    bank consecutive service starts are separated by the earlier
//!    access's full occupancy (one access in flight per bank, plus the
//!    closed-page precharge re-arm). (Fixed) A body access is a burst
//!    continuation — latency `extra_latency` alone — exactly when the
//!    previous access started on its `(core, port)` was to `addr − 1`.
//! 3. **Wake completeness** — with the wake feed on, the per-port masks
//!    of `retired()` after a tick are exactly the `(core, port)` pairs
//!    whose load became ready or whose store freed its buffer in that
//!    tick (shadow comparison against polling, the naive engine's view),
//!    bit for bit — the port too, because a parked core wakes only on the
//!    port its retry waits on.

use hwgc_memsim::{
    DramConfig, DramMemorySystem, MemBackend, MemBackendKind, MemConfig, MemEvent, MemorySystem,
    PagePolicy, Port, PORT_COUNT,
};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Issue { core: usize, port: usize, addr: u32 },
    Tick,
    Consume { core: usize, port: usize },
}

fn ops(cores: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            ((0..cores), (0..PORT_COUNT), (0u32..256)).prop_map(|(core, port, addr)| Op::Issue {
                core,
                port,
                addr
            }),
            Just(Op::Tick),
            ((0..cores), prop_oneof![Just(0usize), Just(2)])
                .prop_map(|(core, port)| Op::Consume { core, port }),
        ],
        1..160,
    )
}

fn dram_configs() -> impl Strategy<Value = DramConfig> {
    (
        (1u32..3, 1u32..3, 1u32..4, 2u32..8),
        (
            prop_oneof![Just(1u32), Just(2), Just(4)],
            prop_oneof![Just(4u32), Just(16), Just(64)],
            prop_oneof![Just(PagePolicy::Open), Just(PagePolicy::Closed)],
        ),
    )
        .prop_map(
            |((t_rcd, t_cas, t_rp, t_ras), (n_banks, row_words, page_policy))| DramConfig {
                t_rcd,
                t_cas,
                t_rp,
                t_ras,
                n_banks,
                row_words,
                page_policy,
            },
        )
}

const CORES: usize = 3;

/// Apply one op, tolerating busy ports / unready loads (the strategies
/// generate blind sequences; the protocol checks are elsewhere).
fn apply<B: MemBackend>(m: &mut B, op: Op) {
    match op {
        Op::Issue { core, port, addr } => {
            let p = Port::ALL[port];
            if !m.port_busy(core, p) {
                assert!(m.try_issue(core, p, addr));
            }
        }
        Op::Tick => m.tick(),
        Op::Consume { core, port } => {
            let p = Port::ALL[port];
            if m.load_ready(core, p) {
                m.consume_load(core, p);
            }
        }
    }
}

/// The naive engine's view of a backend: which `(core, port)` pairs a
/// core could act on right now (a completed load, or a free buffer).
fn visible_state<B: MemBackend>(m: &B) -> Vec<(bool, bool)> {
    (0..CORES)
        .flat_map(|c| {
            Port::ALL
                .iter()
                .map(move |&p| (p.is_load() && m.load_ready(c, p), m.port_busy(c, p)))
        })
        .collect()
}

/// Contract 1: between `cycle + 1` and `next_activity_cycle() - 1`
/// inclusive, ticking changes nothing a core can see.
fn check_activity_lower_bound<B: MemBackend + Clone>(m: &B) {
    let mut shadow = m.clone();
    match m.next_activity_cycle() {
        None => {
            // No future activity at all: a long run of hollow ticks must
            // leave the visible state untouched.
            let before = visible_state(&shadow);
            for _ in 0..64 {
                shadow.tick();
                prop_assert_eq!(
                    &visible_state(&shadow),
                    &before,
                    "activity after next_activity_cycle() == None"
                );
            }
        }
        Some(target) => {
            let before = visible_state(&shadow);
            // Strictly before the bound nothing may change. (The bound
            // may be conservative: activity at `target` is allowed but
            // not required.)
            while shadow.cycle() + 1 < target {
                shadow.tick();
                prop_assert_eq!(
                    &visible_state(&shadow),
                    &before,
                    "activity at cycle {} before the {} bound",
                    shadow.cycle(),
                    target
                );
            }
        }
    }
}

/// Drain helper: upper-bounds how long any access chain can take.
fn drain_bound(n_ops: usize, worst_latency: u32) -> usize {
    n_ops * (worst_latency as usize + 2) + 64
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Contract 1 on the fixed backend, probed after every op.
    #[test]
    fn fixed_next_activity_is_a_lower_bound(
        ops in ops(CORES),
        lat in 0u32..6,
        bw in 1u32..4,
        extra in prop_oneof![Just(0u32), Just(3)],
    ) {
        let cfg = MemConfig { latency: lat, bandwidth: bw, ..MemConfig::default() }
            .with_extra_latency(extra);
        let mut m = MemorySystem::new(CORES, cfg);
        for &op in &ops {
            apply(&mut m, op);
            check_activity_lower_bound(&m);
        }
    }

    /// Contract 1 on the DRAM backend, probed after every op.
    #[test]
    fn dram_next_activity_is_a_lower_bound(
        ops in ops(CORES),
        dram in dram_configs(),
        bw in 1u32..4,
        extra in prop_oneof![Just(0u32), Just(3)],
    ) {
        let cfg = MemConfig { bandwidth: bw, ..MemConfig::default() }
            .with_backend(MemBackendKind::Dram(dram))
            .with_extra_latency(extra);
        let mut m = DramMemorySystem::new(CORES, cfg);
        for &op in &ops {
            apply(&mut m, op);
            check_activity_lower_bound(&m);
        }
    }

    /// Contract 2: replay the DRAM event log. Retirements land exactly
    /// `latency` after service start, and per bank the next service
    /// start waits for the previous access's full occupancy.
    #[test]
    fn dram_retirement_respects_bank_timing(
        ops in ops(CORES),
        dram in dram_configs(),
        bw in 1u32..4,
    ) {
        let cfg = MemConfig { bandwidth: bw, ..MemConfig::default() }
            .with_backend(MemBackendKind::Dram(dram));
        let mut m = DramMemorySystem::new(CORES, cfg);
        m.enable_event_log();
        for &op in &ops {
            apply(&mut m, op);
        }
        for _ in 0..drain_bound(ops.len(), dram.t_ras + dram.t_rp + dram.t_rcd + dram.t_cas) {
            m.tick();
        }
        for c in 0..CORES {
            for &p in &[Port::HeaderLoad, Port::BodyLoad] {
                if m.load_ready(c, p) {
                    m.consume_load(c, p);
                }
            }
        }
        prop_assert!(m.all_idle(), "traffic failed to drain");

        let log = m.take_event_log();
        // (a) Each ServiceStart's retirement is exactly `latency` later.
        let mut in_service: Vec<Option<(u64, u32)>> = vec![None; CORES * PORT_COUNT];
        // (b) Per-bank: cycle the bank frees up after its last access.
        let mut bank_free_at: Vec<u64> = vec![0; dram.n_banks as usize];
        let mut pending_bank: Option<u32> = None;
        for rec in &log {
            match rec.event {
                MemEvent::DramAccess { bank, .. } => {
                    prop_assert!(pending_bank.is_none(), "DramAccess without ServiceStart");
                    pending_bank = Some(bank);
                    prop_assert!(
                        rec.cycle >= bank_free_at[bank as usize],
                        "bank {} started a new access at {} while busy until {}",
                        bank, rec.cycle, bank_free_at[bank as usize]
                    );
                }
                MemEvent::ServiceStart { core, port, latency } => {
                    let bank = pending_bank.take().expect("ServiceStart without DramAccess");
                    let rearm = match dram.page_policy {
                        PagePolicy::Open => 0,
                        PagePolicy::Closed => dram.t_rp as u64,
                    };
                    bank_free_at[bank as usize] = rec.cycle + latency as u64 + rearm;
                    let slot = core as usize * PORT_COUNT + port as usize;
                    prop_assert!(in_service[slot].is_none(), "double service start");
                    in_service[slot] = Some((rec.cycle, latency));
                }
                MemEvent::Retire { core, port } => {
                    let slot = core as usize * PORT_COUNT + port as usize;
                    let (started, latency) =
                        in_service[slot].take().expect("retire without service");
                    prop_assert_eq!(
                        rec.cycle,
                        started + latency as u64,
                        "retirement not exactly latency after service start"
                    );
                }
                _ => {}
            }
        }
        prop_assert!(in_service.iter().all(Option::is_none), "unretired service");
    }

    /// Contract 2 on the fixed backend, under FIFO and reordered service:
    /// replay the event log. Retirements land exactly `latency` after
    /// service start, and a body access's latency is `extra` exactly
    /// when it continues its `(core, port)` stream — the latency the
    /// backend fixes at issue is the one service start would compute.
    #[test]
    fn fixed_retirement_respects_latency_and_burst_rule(
        ops in ops(CORES),
        lat in 1u32..6,
        bw in 1u32..4,
        extra in prop_oneof![Just(0u32), Just(3)],
        reorder in prop_oneof![Just(None), (0u64..1_000).prop_map(Some)],
    ) {
        let mut cfg = MemConfig { latency: lat, bandwidth: bw, ..MemConfig::default() }
            .with_extra_latency(extra);
        cfg.service_reorder_seed = reorder;
        let mut m = MemorySystem::new(CORES, cfg);
        m.enable_event_log();
        // Eight addresses, so streams continue (`addr − 1` then `addr`)
        // often enough to exercise the burst path.
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|op| match op {
                Op::Issue { core, port, addr } => Op::Issue { core, port, addr: addr % 8 },
                op => op,
            })
            .collect();
        for &op in &ops {
            apply(&mut m, op);
        }
        for _ in 0..drain_bound(ops.len(), lat + extra) {
            m.tick();
        }
        for c in 0..CORES {
            for &p in &[Port::HeaderLoad, Port::BodyLoad] {
                if m.load_ready(c, p) {
                    m.consume_load(c, p);
                }
            }
        }
        prop_assert!(m.all_idle(), "traffic failed to drain");

        let log = m.take_event_log();
        let slot = |core: u32, port: Port| core as usize * PORT_COUNT + port as usize;
        // Per slot: the address of the transaction in the buffer, the
        // address of the last access that started service, and the
        // cycle the access in service retires at.
        let mut addr_of: Vec<Option<u32>> = vec![None; CORES * PORT_COUNT];
        let mut last_started: Vec<Option<u32>> = vec![None; CORES * PORT_COUNT];
        let mut due_at: Vec<Option<u64>> = vec![None; CORES * PORT_COUNT];
        for rec in &log {
            match rec.event {
                MemEvent::Issue { core, port, addr } => addr_of[slot(core, port)] = Some(addr),
                MemEvent::ServiceStart { core, port, latency } => {
                    let s = slot(core, port);
                    let addr = addr_of[s].expect("service start without an issue");
                    if matches!(port, Port::BodyLoad | Port::BodyStore) {
                        let burst = last_started[s] == Some(addr.wrapping_sub(1));
                        prop_assert_eq!(
                            latency == extra,
                            burst,
                            "core {} {:?} at {}: latency {} with previous start {:?}",
                            core, port, addr, latency, last_started[s]
                        );
                    } else {
                        prop_assert_eq!(latency, lat + extra, "header access latency");
                    }
                    last_started[s] = Some(addr);
                    prop_assert!(due_at[s].is_none(), "double service start");
                    due_at[s] = Some(rec.cycle + latency as u64);
                }
                MemEvent::Retire { core, port } => {
                    let started = due_at[slot(core, port)].take();
                    prop_assert_eq!(
                        Some(rec.cycle),
                        started,
                        "retirement not exactly latency after service start"
                    );
                }
                _ => {}
            }
        }
        prop_assert!(due_at.iter().all(Option::is_none), "unretired service");
    }

    /// Contract 3 on the fixed backend: the wake feed reports exactly
    /// the cores whose visible state improved in a tick.
    #[test]
    fn fixed_wake_feed_is_complete(
        ops in ops(CORES),
        lat in 0u32..6,
        bw in 1u32..4,
    ) {
        let cfg = MemConfig { latency: lat, bandwidth: bw, ..MemConfig::default() };
        let m = MemorySystem::new(CORES, cfg);
        check_wake_feed(m, ops, lat);
    }

    /// Contract 3 on the DRAM backend.
    #[test]
    fn dram_wake_feed_is_complete(
        ops in ops(CORES),
        dram in dram_configs(),
        bw in 1u32..4,
    ) {
        let cfg = MemConfig { bandwidth: bw, ..MemConfig::default() }
            .with_backend(MemBackendKind::Dram(dram));
        let m = DramMemorySystem::new(CORES, cfg);
        check_wake_feed(m, ops, dram.t_ras + dram.t_rp + dram.t_rcd + dram.t_cas);
    }
}

/// Shadow-naive comparison: before each tick poll the full visible
/// state (as the naive engine would); after it, the improvements — a
/// load turning ready, a busy port freeing — must equal the `retired()`
/// masks bit for bit. A parked core relies on exactly this to resume.
fn check_wake_feed<B: MemBackend>(mut m: B, ops: Vec<Op>, worst_latency: u32) {
    m.enable_wake_feed(CORES);
    let mut script = ops.clone();
    // Append draining ticks so late-issued traffic also exercises the feed.
    script.extend(std::iter::repeat_n(
        Op::Tick,
        drain_bound(ops.len(), worst_latency),
    ));
    for op in script {
        if matches!(op, Op::Tick) {
            let before = (0..CORES)
                .map(|c| {
                    Port::ALL
                        .iter()
                        .map(|&p| (p.is_load() && m.load_ready(c, p), m.port_busy(c, p)))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>();
            m.clear_retired();
            m.tick();
            let mut improved = [0u64; PORT_COUNT];
            for (c, ports) in before.iter().enumerate() {
                for (i, &p) in Port::ALL.iter().enumerate() {
                    let (was_ready, was_busy) = ports[i];
                    let now_ready = p.is_load() && m.load_ready(c, p);
                    let now_busy = m.port_busy(c, p);
                    if (now_ready && !was_ready) || (was_busy && !now_busy) {
                        improved[i] |= 1 << c;
                    }
                }
            }
            prop_assert_eq!(
                m.retired(),
                improved,
                "retirement masks differ from the polled improvements at cycle {}",
                m.cycle()
            );
        } else {
            apply(&mut m, op);
        }
    }
}

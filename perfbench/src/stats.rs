//! The benchmark's own arithmetic: order statistics, the tail-percentile
//! rule, span self time and the derived per-layer ratios. Pure functions,
//! unit-tested below.

/// Median of `xs` (mean of the middle pair for even lengths); `NaN` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Share of samples dropped from each end by [`trimmed_mean`].
const TRIM: f64 = 0.1;

/// Mean of `xs` without its lowest and highest tenth; `NaN` when empty.
/// Throughput is a mean by nature (total work over total time), and on a
/// host whose speed flips between modes the mean moves with the share of
/// time spent in each mode where a median jumps between them; trimming
/// keeps one preempted sample from moving it.
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let cut = (s.len() as f64 * TRIM) as usize;
    let kept = &s[cut..s.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads this benchmark prints match the ones its acceptance rule
/// computes. `None` with fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((q(1), q(3)))
}

/// The tail percentiles the benchmark may report, highest first.
const TAIL_LADDER: [u32; 5] = [99, 95, 90, 75, 50];

/// Samples that must lie strictly beyond a reported tail value.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail value: the highest percentile of [`TAIL_LADDER`] that has at
/// least [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (99, 95, 90, 75 or 50).
    pub pct: u32,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Pick the highest ladder percentile whose nearest-rank position leaves
/// at least ten samples beyond it. `None` when even the median would not
/// (fewer than twenty samples).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    TAIL_LADDER.iter().find_map(|&pct| {
        // Nearest rank: ceil(pct/100 * n), 1-based.
        let rank = (pct as usize * n).div_ceil(100);
        let beyond = n.checked_sub(rank)?;
        (rank >= 1 && beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            pct,
            value: s[rank - 1],
            samples: n,
            beyond,
        })
    })
}

/// One recorded span: a call into a layer, timed from the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The op (one verified run, or one sweep round) the span belongs to.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are merged, so
/// concurrent children are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            // Clip to the parent's interval.
            let (a, b) = (s.start_ns.max(ps.start_ns), s.end_ns.min(ps.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut open: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                match open {
                    Some((oa, ob)) if a <= ob => open = Some((oa, ob.max(b))),
                    _ => {
                        if let Some((oa, ob)) = open {
                            covered += ob - oa;
                        }
                        open = Some((a, b));
                    }
                }
            }
            if let Some((oa, ob)) = open {
                covered += ob - oa;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Share of simulated cycles the engine did not execute one by one
/// (fast-forward jumps, all-parked jumps): `1 - executed / total`.
pub fn skip_ratio(cycles_executed: u64, total_cycles: u64) -> f64 {
    if total_cycles == 0 {
        return 0.0;
    }
    1.0 - cycles_executed as f64 / total_cycles as f64
}

/// How well the job pool used its threads: the serial time of every
/// cell, divided by `threads` times the pool's wall time for the sweep.
pub fn parallel_efficiency(serial_cell_ns: u64, threads: usize, sweep_wall_ns: u64) -> f64 {
    if threads == 0 || sweep_wall_ns == 0 {
        return 0.0;
    }
    serial_cell_ns as f64 / (threads as f64 * sweep_wall_ns as f64)
}

/// Share of attempts that failed: `failed / (acquired + failed)`.
pub fn fail_ratio(acquired: u64, failed: u64) -> f64 {
    let attempts = acquired + failed;
    if attempts == 0 {
        0.0
    } else {
        failed as f64 / attempts as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates beyond the data.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_from_each_end() {
        // Ten samples: the lowest and the highest go.
        let mut xs: Vec<f64> = (1..=8).map(|_| 10.0).collect();
        xs.extend([0.0, 1000.0]);
        assert_eq!(trimmed_mean(&xs), 10.0);
        // Fewer than ten: nothing is dropped.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!(trimmed_mean(&[]).is_nan());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 100 samples: p99 leaves 1 beyond, p95 leaves 5, p90 leaves 10.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value, t.samples, t.beyond), (90, 90.0, 100, 10));
        // 200 samples: p95 has rank 190, 10 beyond.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (95, 190.0, 10));
        // 99 samples: p90 has rank 90 (ceil 89.1) and only 9 beyond, so
        // the rule drops to p75 (rank 75, 24 beyond).
        let xs: Vec<f64> = (1..=99).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (75, 75.0, 24));
        // 20 samples: only the median qualifies; 19 do not reach it.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| (t.pct, t.beyond)), Some((50, 10)));
        assert_eq!(tail(&xs[..19]), None);
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("op", 0, 100, None),
            span("build", 10, 30, Some(0)),
            span("collect", 40, 90, Some(0)),
            // A grandchild reduces its parent, not the op.
            span("inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn self_time_merges_overlapping_children() {
        let spans = [
            span("sweep", 0, 100, None),
            span("cell", 10, 60, Some(0)),
            span("cell", 40, 80, Some(0)),
            // Overhangs the parent's end: only the inside part counts.
            span("cell", 90, 120, Some(0)),
        ];
        // Covered: [10, 80) and [90, 100) = 80 ns.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn derived_ratios_match_hand_computed_values() {
        // 75 of 100 cycles executed one by one: a quarter skipped.
        assert_eq!(skip_ratio(75, 100), 0.25);
        // 124,475 of 174,089: 49,614 / 174,089 = 0.284992...
        assert!((skip_ratio(124_475, 174_089) - 0.284_992).abs() < 1e-6);
        assert_eq!(skip_ratio(10, 10), 0.0);
        assert_eq!(skip_ratio(0, 0), 0.0);
        // 1.6 s of serial cell time on 2 threads in a 1.0 s sweep.
        assert_eq!(parallel_efficiency(1_600, 2, 1_000), 0.8);
        assert_eq!(parallel_efficiency(1_600, 0, 1_000), 0.0);
        assert_eq!(fail_ratio(35_999, 388_241), 388_241.0 / 424_240.0);
        assert_eq!(fail_ratio(0, 0), 0.0);
    }
}

//! The retirement calendar both memory backends share: a timing wheel.
//!
//! Every in-service transaction sits in the wheel bucket of its
//! retirement cycle, `done_at & (W − 1)`. A bucket is a bitset over port
//! slots, `slot = core * PORT_COUNT + port`, one bit per port buffer, so a
//! retire cycle takes exactly the due transactions as whole words instead
//! of scanning every port buffer — those scans were O(cores × ports) on
//! nearly every cycle at 16 cores and dominated the whole simulator
//! (DESIGN §8, "Profiling the simulator"). Walking a bucket's set bits in
//! ascending order retires a cycle's batch in `(core, port)` order, the
//! order of the original full port scan.
//!
//! The wheel is sized once from the configuration: `W` is the smallest
//! power of two above the backend's maximum service latency (at least 64,
//! so the bucket occupancy bitmap is whole words). Every entry's
//! `done_at` then lies within `W − 1` cycles of the current one, so no two
//! live entries in one bucket belong to different cycles. A port buffer
//! holds one transaction, so a slot is set at most once, and in-service
//! transactions never cancel, so the wheel holds no stale entries.
//!
//! The engines tick every cycle on which something retires (clock jumps
//! stop short of the retirement horizon), so each bucket is taken at
//! exactly its entries' `done_at`; the backends assert this in debug
//! builds. [`RetireCalendar::take`] and [`RetireCalendar::next_due`] hand
//! the backends a due bucket as slot ids, so the bucket layout stays in
//! this module. The next retirement is found from the occupancy bitmap by
//! a masked word scan and `trailing_zeros`. Nothing allocates after
//! construction.

/// Timing-wheel retirement calendar (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct RetireCalendar {
    /// `W − 1`; `W` is a power of two and at least 64.
    mask: u64,
    /// The maximum service latency the wheel was sized for.
    horizon: u64,
    /// 64-bit words per bucket: `ceil(slots / 64)`.
    words: usize,
    /// `W` buckets of `words` words each, bucket-major.
    buckets: Vec<u64>,
    /// Bit `b` set ⇔ bucket `b` is non-empty; `W / 64` words.
    occupied: Vec<u64>,
}

impl RetireCalendar {
    /// An empty wheel for `slots` port buffers whose service latencies
    /// never exceed `horizon` cycles.
    pub(crate) fn new(slots: usize, horizon: u64) -> RetireCalendar {
        let n_buckets = (horizon + 1).next_power_of_two().max(64);
        let words = slots.div_ceil(64).max(1);
        RetireCalendar {
            mask: n_buckets - 1,
            horizon,
            words,
            buckets: vec![0; n_buckets as usize * words],
            occupied: vec![0; n_buckets as usize / 64],
        }
    }

    /// Number of buckets, `W`.
    #[cfg(test)]
    pub(crate) fn wheel_len(&self) -> u64 {
        self.mask + 1
    }

    /// Schedule `slot` to retire at `done_at`, `1..=horizon` cycles after
    /// `now`. The slot must not already be scheduled (one transaction per
    /// port buffer).
    #[inline]
    pub(crate) fn push(&mut self, now: u64, done_at: u64, slot: usize) {
        debug_assert!(
            done_at > now && done_at - now <= self.horizon,
            "retirement at {done_at} outside the wheel's horizon from {now}"
        );
        let bucket = (done_at & self.mask) as usize;
        let word = &mut self.buckets[bucket * self.words + slot / 64];
        debug_assert_eq!(*word & (1 << (slot % 64)), 0, "slot {slot} scheduled twice");
        *word |= 1 << (slot % 64);
        self.occupied[bucket / 64] |= 1 << (bucket % 64);
    }

    /// The earliest scheduled retirement after `now`, `u64::MAX` when the
    /// wheel is empty. Every entry must be due within the horizon of
    /// `now` (nothing due at or before it is left untaken).
    #[inline]
    pub(crate) fn next_after(&self, now: u64) -> u64 {
        // The start word from the start bit up, the following words in
        // wheel order, and the start word again for the buckets below the
        // start bit (with a one-word bitmap, that is the same word whole).
        let start = (now + 1) & self.mask;
        let n = self.occupied.len();
        let first = (start / 64) as usize;
        for i in 0..=n {
            let w = (first + i) % n;
            let mut bits = self.occupied[w];
            if i == 0 {
                bits &= !0 << (start % 64);
            }
            if bits != 0 {
                let bucket = (w as u64) * 64 + u64::from(bits.trailing_zeros());
                return now + 1 + (bucket.wrapping_sub(start) & self.mask);
            }
        }
        u64::MAX
    }

    /// Take the bucket due at `cycle`, to be walked with
    /// [`RetireCalendar::next_due`]. Entries pushed while walking land in
    /// other buckets (every latency is below `W`), so the walk sees
    /// exactly the entries due at `cycle`.
    #[inline]
    pub(crate) fn take(&mut self, cycle: u64) -> Due {
        let bucket = (cycle & self.mask) as usize;
        self.occupied[bucket / 64] &= !(1 << (bucket % 64));
        let first = bucket * self.words;
        Due {
            first,
            next: first,
            end: first + self.words,
            bits: 0,
        }
    }

    /// The next slot of the taken bucket `due`, in ascending slot order,
    /// emptying the bucket as it goes; `None` once it is empty.
    #[inline]
    pub(crate) fn next_due(&mut self, due: &mut Due) -> Option<usize> {
        while due.bits == 0 {
            if due.next == due.end {
                return None;
            }
            due.bits = std::mem::take(&mut self.buckets[due.next]);
            due.next += 1;
        }
        let slot = (due.next - 1 - due.first) * 64 + due.bits.trailing_zeros() as usize;
        due.bits &= due.bits - 1;
        Some(slot)
    }
}

/// A bucket taken off the wheel and not yet fully walked (see
/// [`RetireCalendar::take`]). It holds no borrow, so the caller may
/// mutate itself between [`RetireCalendar::next_due`] calls.
#[derive(Debug)]
pub(crate) struct Due {
    /// Index of the bucket's first word.
    first: usize,
    /// Index of the next word to load.
    next: usize,
    /// One past the bucket's last word.
    end: usize,
    /// The unwalked slot bits of word `next − 1`.
    bits: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Take every entry due at `cycle` as `(done_at, slot)`, in slot
    /// order.
    fn take_all(cal: &mut RetireCalendar, cycle: u64) -> Vec<(u64, usize)> {
        let mut due = cal.take(cycle);
        let mut got = Vec::new();
        while let Some(slot) = cal.next_due(&mut due) {
            got.push((cycle, slot));
        }
        got
    }

    #[test]
    fn takes_in_done_at_then_slot_order() {
        let mut cal = RetireCalendar::new(8, 9);
        assert_eq!(cal.next_after(0), u64::MAX);
        cal.push(0, 7, 4);
        cal.push(0, 5, 3);
        cal.push(0, 7, 2);
        cal.push(0, 5, 1);
        cal.push(0, 9, 0);
        assert_eq!(cal.next_after(0), 5);
        assert_eq!(cal.next_after(4), 5);
        assert_eq!(take_all(&mut cal, 5), vec![(5, 1), (5, 3)]);
        assert_eq!(cal.next_after(5), 7);
        assert_eq!(take_all(&mut cal, 7), vec![(7, 2), (7, 4)]);
        assert_eq!(cal.next_after(7), 9);
        assert_eq!(take_all(&mut cal, 9), vec![(9, 0)]);
        assert_eq!(cal.next_after(9), u64::MAX);
        assert!(take_all(&mut cal, 10).is_empty());
    }

    #[test]
    fn wheel_size_follows_the_horizon() {
        assert_eq!(RetireCalendar::new(4, 0).wheel_len(), 64);
        assert_eq!(RetireCalendar::new(4, 25).wheel_len(), 64);
        assert_eq!(RetireCalendar::new(4, 63).wheel_len(), 64);
        assert_eq!(RetireCalendar::new(4, 64).wheel_len(), 128);
        assert_eq!(RetireCalendar::new(4, 3000).wheel_len(), 4096);
        assert_eq!(RetireCalendar::new(4, 4095).wheel_len(), 4096);
        assert_eq!(RetireCalendar::new(4, 4096).wheel_len(), 8192);
    }

    #[test]
    fn next_after_on_an_empty_wheel_is_never() {
        for horizon in [0u64, 25, 200, 3000] {
            let cal = RetireCalendar::new(80, horizon);
            for now in [0u64, 1, 63, 64, 4095, 1 << 40] {
                assert_eq!(
                    cal.next_after(now),
                    u64::MAX,
                    "horizon {horizon}, now {now}"
                );
            }
        }
    }

    #[test]
    fn next_after_finds_entries_at_the_horizon_edge() {
        // An entry exactly `horizon` (and `W − 1`) ahead sits in the
        // bucket just before `now`'s: the search must wrap all the way.
        for horizon in [25u64, 63, 64, 127, 3000, 4095] {
            let mut cal = RetireCalendar::new(16, horizon);
            let w = cal.wheel_len();
            for now in [0u64, 1, 62, 63, 64, w - 1, w, 5 * w + 17] {
                for lat in [1, horizon / 2 + 1, horizon] {
                    cal.push(now, now + lat, 3);
                    assert_eq!(cal.next_after(now), now + lat, "W {w}, now {now}, +{lat}");
                    assert_eq!(take_all(&mut cal, now + lat), vec![(now + lat, 3)]);
                    assert_eq!(cal.next_after(now + lat), u64::MAX);
                }
            }
        }
    }

    /// Drive the wheel with a seeded stream of pushes at random latencies
    /// up to its horizon, taking every cycle, and compare each cycle's
    /// batch and the next retirement against a min-heap reference.
    fn matches_a_min_heap(slots: usize, horizon: u64, cycles: u64, seed: u64) {
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, HashSet};
        let mut cal = RetireCalendar::new(slots, horizon);
        let mut heap = BinaryHeap::new();
        let mut x = seed | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut live = HashSet::new();
        for cycle in 0..cycles {
            let mut expect = Vec::new();
            while heap
                .peek()
                .is_some_and(|Reverse(e): &Reverse<(u64, usize)>| e.0 <= cycle)
            {
                let Reverse(e) = heap.pop().unwrap();
                assert_eq!(e.0, cycle, "entry left untaken past its done_at");
                expect.push(e);
            }
            let got = take_all(&mut cal, cycle);
            assert_eq!(
                got, expect,
                "slots {slots}, horizon {horizon}, cycle {cycle}"
            );
            for &(_, slot) in &got {
                live.remove(&slot);
            }
            for _ in 0..(next() % 6) {
                let slot = (next() % slots as u64) as usize;
                if live.insert(slot) {
                    // Bias towards the extremes: 1 and the full horizon.
                    let lat = match next() % 4 {
                        0 => 1,
                        1 => horizon,
                        _ => 1 + next() % horizon,
                    };
                    cal.push(cycle, cycle + lat, slot);
                    heap.push(Reverse((cycle + lat, slot)));
                }
            }
            let heap_next = heap.peek().map_or(u64::MAX, |Reverse(e)| e.0);
            assert_eq!(cal.next_after(cycle), heap_next, "cycle {cycle}");
        }
    }

    #[test]
    fn matches_a_min_heap_on_a_seeded_stream() {
        // 16 cores (one-word buckets), 20 cores (two words, the second
        // partial), 64 cores (four full words) and 65 cores (the fixed
        // backend above the sparse limit: five words).
        for cores in [16usize, 20, 64, 65] {
            matches_a_min_heap(cores * 4, 25, 2_000, 0x9E37_79B9_7F4A_7C15);
        }
    }

    #[test]
    fn matches_a_min_heap_across_hundreds_of_wraps() {
        // A one-word occupancy bitmap (W = 64) wrapped ~600 times, and a
        // two-word one (W = 128) at its full horizon.
        matches_a_min_heap(64, 63, 40_000, 7);
        matches_a_min_heap(80, 127, 40_000, 11);
    }

    #[test]
    fn matches_a_min_heap_on_a_large_latency_wheel() {
        // `latency: 3000` ⇒ W = 4096: the occupancy bitmap spans 64 words,
        // and the stream wraps the wheel ~100 times.
        matches_a_min_heap(64, 3000, 400_000, 0xC0FFEE);
    }
}

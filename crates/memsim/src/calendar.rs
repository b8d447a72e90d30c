//! The retirement calendar both memory backends share.
//!
//! One `(done_at, core, port)` entry per in-service transaction. A retire
//! cycle pops exactly the transactions that are due instead of scanning
//! every port buffer and then rescanning for the next retirement — the
//! scans were O(cores × ports) on nearly every cycle at 16 cores and
//! dominated the whole simulator (DESIGN §8, "Profiling the simulator").
//! In-service transactions never cancel, so the calendar holds no stale
//! entries, and the `(core, port)` tie break retires a cycle's batch in
//! the order the original full port scan produced.
//!
//! The entries live in one preallocated `Vec` kept sorted *descending*,
//! so the earliest retirement is the last element: peek and pop are O(1).
//! A new transaction retires at the current cycle plus its latency, i.e.
//! last or nearly so, so an insertion finds its slot within the first few
//! entries and shifts the rest by one. The calendar is bounded by the
//! port-buffer count (a few dozen entries at 16 cores), a size at which
//! that contiguous move beats a binary heap's sift on every pop. Each
//! entry is packed into one integer whose order is the
//! `(done_at, core, port)` order, so every comparison is a single
//! integer compare.

/// Sorted retirement calendar (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct RetireCalendar {
    /// Packed keys (see [`pack`]), descending; the next retirement is
    /// last.
    entries: Vec<u128>,
}

/// `done_at` in the high 64 bits, then the core, then the port in the
/// low byte: integer order is `(done_at, core, port)` order.
#[inline]
fn pack(done_at: u64, core: usize, port: usize) -> u128 {
    debug_assert!(port < 256 && (core as u64) < 1 << 56);
    (u128::from(done_at) << 64) | ((core as u128) << 8) | port as u128
}

impl RetireCalendar {
    /// An empty calendar that never reallocates below `capacity` entries.
    pub(crate) fn with_capacity(capacity: usize) -> RetireCalendar {
        RetireCalendar {
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Schedule `(core, port)` to retire at `done_at`. Keys are unique:
    /// a port buffer holds at most one transaction.
    #[inline]
    pub(crate) fn push(&mut self, done_at: u64, core: usize, port: usize) {
        let key = pack(done_at, core, port);
        let at = self
            .entries
            .iter()
            .position(|&e| e < key)
            .unwrap_or(self.entries.len());
        self.entries.insert(at, key);
    }

    /// The earliest scheduled retirement cycle, `u64::MAX` when empty.
    #[inline]
    pub(crate) fn next_at(&self) -> u64 {
        self.entries.last().map_or(u64::MAX, |&e| (e >> 64) as u64)
    }

    /// Remove and return the earliest entry, `(done_at, core, port)`, if
    /// it is due at or before `cycle`.
    #[inline]
    pub(crate) fn pop_due(&mut self, cycle: u64) -> Option<(u64, usize, usize)> {
        match self.entries.last() {
            Some(&e) if (e >> 64) as u64 <= cycle => {
                self.entries.pop();
                Some(((e >> 64) as u64, (e as u64 >> 8) as usize, e as u8 as usize))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_done_at_then_core_then_port_order() {
        let mut cal = RetireCalendar::with_capacity(8);
        assert_eq!(cal.next_at(), u64::MAX);
        cal.push(7, 1, 0);
        cal.push(5, 2, 3);
        cal.push(7, 0, 2);
        cal.push(5, 2, 1);
        cal.push(9, 0, 0);
        assert_eq!(cal.next_at(), 5);
        assert_eq!(cal.pop_due(4), None, "nothing due before cycle 5");
        assert_eq!(cal.pop_due(5), Some((5, 2, 1)));
        assert_eq!(cal.pop_due(5), Some((5, 2, 3)));
        assert_eq!(cal.pop_due(5), None);
        assert_eq!(cal.next_at(), 7);
        assert_eq!(cal.pop_due(8), Some((7, 0, 2)));
        assert_eq!(cal.pop_due(8), Some((7, 1, 0)));
        assert_eq!(cal.pop_due(8), None);
        assert_eq!(cal.pop_due(u64::MAX), Some((9, 0, 0)));
        assert_eq!(cal.next_at(), u64::MAX);
        assert_eq!(cal.pop_due(u64::MAX), None);
    }

    #[test]
    fn matches_a_min_heap_on_a_seeded_stream() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut cal = RetireCalendar::with_capacity(64);
        let mut heap = BinaryHeap::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut live = std::collections::HashSet::new();
        for cycle in 0..2_000u64 {
            for _ in 0..(next() % 4) {
                let (core, port) = ((next() % 16) as usize, (next() % 4) as usize);
                if live.insert((core, port)) {
                    let done_at = cycle + 1 + next() % 30;
                    cal.push(done_at, core, port);
                    heap.push(Reverse((done_at, core, port)));
                }
            }
            let mut expect = Vec::new();
            while heap.peek().is_some_and(|Reverse(e)| e.0 <= cycle) {
                expect.push(heap.pop().unwrap().0);
            }
            let mut got = Vec::new();
            while let Some(e) = cal.pop_due(cycle) {
                got.push(e);
            }
            assert_eq!(got, expect, "cycle {cycle}");
            for &(_, core, port) in &got {
                live.remove(&(core, port));
            }
            let heap_next = heap.peek().map_or(u64::MAX, |Reverse(e)| e.0);
            assert_eq!(cal.next_at(), heap_next);
        }
    }
}

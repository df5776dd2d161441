//! A calendar-queue event scheduler (timing wheel).
//!
//! The simulator's PMC event queue was originally a
//! `BinaryHeap<Reverse<(time, seq)>>`: every push and pop costs a
//! log-time sift through a heap whose order is *almost* already known,
//! because most events are scheduled at most a few hundred cycles past
//! the current time (the largest single latency in the ASPLOS '21 table
//! is the 500 ns trap ≈ 1000 cycles).
//!
//! [`EventWheel`] exploits that locality. It keeps a power-of-two ring
//! of one-cycle buckets covering the window `[base, base + N)` where
//! `base` is the time of the last popped event. Push is O(1): index
//! `time & (N-1)`, append. Pop finds the next non-empty bucket with a
//! word-scan over an occupancy bitmap — O(1) amortized because the scan
//! resumes from `base` and events cluster tightly behind it.
//!
//! Events scheduled at or beyond `base + N` go to an overflow min-heap
//! ordered on `(time, seq)`, their payloads parked in the slab. Once
//! `base` catches up, migration pops only the heap entries whose time has
//! entered the window, so an overflow event costs O(log n) once, however
//! many migrations it waits through. Overflow is not rare: a saturated
//! PM-controller write port schedules completions far past the ring.
//! ArraySwaps stays in the ring at 8 cores, but PMEM-Spec's ArraySwaps
//! (8 FASEs per thread, seed 11) pushes ~17K / 205K / 436K events to
//! overflow at 16 / 32 / 64 cores, and ~2.1M at 64 cores with Figure
//! 10's 400 FASEs per thread.
//!
//! # Ordering contract
//!
//! The wheel pops in exactly the order the `BinaryHeap` did: ascending
//! `(time, seq)` where `seq` is the global push counter. Within a
//! bucket every entry shares one time (the window is one bucket wide
//! per cycle), so FIFO append order *is* seq order. Migration keeps it
//! without sorting, by the *prepend invariant*: when an overflow entry
//! and a ring entry share a time `t`, the overflow entry was pushed
//! while `base` was lower (`base` never decreases), so it was pushed
//! first and has the smaller seq. The heap yields a time's entries in
//! seq order, so migration links that run, in order, in front of the
//! bucket's existing list. The randomized test at the bottom checks the
//! contract against a real `BinaryHeap` under [`SimRng`]-driven
//! schedules, including far-future pushes that force the overflow path
//! and a saturated-backlog regime that keeps thousands of events there.
//!
//! # Examples
//!
//! ```
//! use pmemspec_engine::wheel::EventWheel;
//! use pmemspec_engine::clock::Cycle;
//!
//! let mut w = EventWheel::new();
//! w.push(Cycle::from_raw(20), 'b');
//! w.push(Cycle::from_raw(10), 'a');
//! assert_eq!(w.pop_next(Cycle::from_raw(15)), Some((Cycle::from_raw(10), 'a')));
//! assert_eq!(w.pop_next(Cycle::from_raw(15)), None); // 'b' is still in the future
//! assert_eq!(w.pop_next(Cycle::MAX), Some((Cycle::from_raw(20), 'b')));
//! ```

use crate::clock::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Default ring size: covers 4096 cycles (≈2 µs simulated) past the
/// last popped event, several times the largest latency any component
/// schedules ahead. Only queueing behind a saturated PM-controller port
/// reaches past it, which the overflow heap absorbs (see the module
/// doc for how often that happens).
const DEFAULT_BUCKETS: usize = 4096;

/// Null slot index for the intrusive bucket lists.
const NIL: u32 = u32::MAX;

/// One slab entry: an event's payload plus the link to the next entry
/// of its bucket (or of the free list when vacant). Overflow events
/// hold a slot too, unlinked until they migrate into a bucket.
#[derive(Debug, Clone)]
struct Slot<T> {
    next: u32,
    /// `None` while the slot sits on the free list.
    value: Option<T>,
}

/// A timing-wheel priority queue popping in ascending `(time, seq)`
/// order, where `seq` is the order of insertion.
///
/// Buckets are intrusive singly linked lists through one shared slab,
/// so pushing and popping events never allocates once the slab has
/// grown to the peak number of outstanding events — a per-bucket
/// `VecDeque` would pay a malloc for every bucket the schedule touches.
#[derive(Debug, Clone)]
pub struct EventWheel<T> {
    /// Backing store for all queued events plus a free list.
    slab: Vec<Slot<T>>,
    /// Head of the free list, [`NIL`] when empty.
    free: u32,
    /// Per-bucket list head; bucket `time & mask` holds the events for
    /// the unique `time` in `[base, base + N)` congruent to its index.
    /// Within a bucket entries are in seq order.
    heads: Vec<u32>,
    /// Per-bucket list tail, for O(1) FIFO append.
    tails: Vec<u32>,
    /// Occupancy bitmap over buckets, one bit per bucket.
    occupied: Vec<u64>,
    mask: u64,
    /// Raw time of the last popped event; every live event is at or
    /// after `base`, and every ring event is before `base + N`.
    base: u64,
    /// Global push counter (the tie-break of the ordering contract).
    seq: u64,
    /// Total entries, ring + overflow.
    len: usize,
    /// Entries currently in the ring (len minus overflow), so an empty
    /// ring never pays a full bitmap scan.
    ring_len: usize,
    /// Memoized [`EventWheel::scan`] result for the current `(base,
    /// occupancy)` state: `Some((index, distance))` of the earliest ring
    /// bucket, or `None` when unknown. Keeps back-to-back `pop_next` /
    /// `next_time` calls from re-scanning the bitmap.
    cached_scan: Option<(usize, u64)>,
    /// Events at or beyond `base + N` at push time, as a min-heap of
    /// `(time, seq, slot)`; the payload waits in `slab[slot]`.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl<T> Default for EventWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventWheel<T> {
    /// Creates a wheel with the default ring size.
    pub fn new() -> Self {
        Self::with_buckets(DEFAULT_BUCKETS)
    }

    /// Creates a wheel whose ring covers `buckets` cycles. Exposed so
    /// tests can use a tiny ring to force the overflow path.
    ///
    /// # Panics
    ///
    /// Panics unless `buckets` is a power of two and a multiple of 64.
    pub fn with_buckets(buckets: usize) -> Self {
        assert!(
            buckets.is_power_of_two() && buckets >= 64,
            "ring size must be a power of two and at least one bitmap word"
        );
        EventWheel {
            slab: Vec::new(),
            free: NIL,
            heads: vec![NIL; buckets],
            tails: vec![NIL; buckets],
            occupied: vec![0u64; buckets / 64],
            mask: (buckets - 1) as u64,
            base: 0,
            seq: 0,
            len: 0,
            ring_len: 0,
            cached_scan: None,
            overflow: BinaryHeap::new(),
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Takes a slot from the free list (or grows the slab) and fills it.
    fn alloc_slot(&mut self, value: T) -> u32 {
        if self.free != NIL {
            let s = self.free;
            let slot = &mut self.slab[s as usize];
            self.free = slot.next;
            slot.next = NIL;
            slot.value = Some(value);
            s
        } else {
            let s = u32::try_from(self.slab.len()).expect("slab fits in u32");
            self.slab.push(Slot {
                next: NIL,
                value: Some(value),
            });
            s
        }
    }

    /// Appends slot `s` to bucket `i`'s list; see [`EventWheel::mark`].
    /// Same effect as `link_after(i, tails[i], ..)`, but the push path
    /// measured faster without the general splice.
    fn link_tail(&mut self, i: usize, s: u32, dist: u64) {
        if self.tails[i] == NIL {
            self.heads[i] = s;
        } else {
            self.slab[self.tails[i] as usize].next = s;
        }
        self.tails[i] = s;
        self.mark(i, dist);
    }

    /// Links slot `s` into bucket `i` right after slot `prev`, or at the
    /// head when `prev` is [`NIL`]; see [`EventWheel::mark`].
    fn link_after(&mut self, i: usize, prev: u32, s: u32, dist: u64) {
        let next = if prev == NIL {
            std::mem::replace(&mut self.heads[i], s)
        } else {
            std::mem::replace(&mut self.slab[prev as usize].next, s)
        };
        self.slab[s as usize].next = next;
        if next == NIL {
            self.tails[i] = s;
        }
        self.mark(i, dist);
    }

    /// Records one more entry in bucket `i`, which lies `dist` cycles
    /// past `base`: sets its occupancy bit and keeps the scan memo exact.
    fn mark(&mut self, i: usize, dist: u64) {
        self.occupied[i / 64] |= 1u64 << (i % 64);
        self.ring_len += 1;
        // A known scan result stays exact under insertions: only a
        // strictly earlier slot can displace it (an equal distance is
        // the same one-cycle bucket).
        if let Some((_, d)) = self.cached_scan {
            if dist < d {
                self.cached_scan = Some((i, dist));
            }
        }
    }

    /// Schedules `value` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped event — the
    /// simulator never schedules into the past, and the ring indexing
    /// depends on it.
    pub fn push(&mut self, time: Cycle, value: T) {
        let t = time.raw();
        assert!(
            t >= self.base,
            "event scheduled before the last popped event"
        );
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        let dist = t - self.base;
        if dist > self.mask {
            self.push_overflow(t, seq, value);
        } else {
            let i = (t & self.mask) as usize;
            let s = self.alloc_slot(value);
            self.link_tail(i, s, dist);
        }
    }

    /// The far-future half of [`EventWheel::push`], kept out of line so
    /// the ring path stays small enough to inline into its callers.
    #[inline(never)]
    fn push_overflow(&mut self, t: u64, seq: u64, value: T) {
        let s = self.alloc_slot(value);
        self.overflow.push(Reverse((t, seq, s)));
    }

    /// Pops the earliest event if its time is at or before `now`;
    /// returns the event's scheduled time alongside its payload.
    pub fn pop_next(&mut self, now: Cycle) -> Option<(Cycle, T)> {
        if self.len == 0 {
            return None;
        }
        loop {
            self.migrate();
            if let Some((i, dist)) = self.scan_cached() {
                let t = self.base + dist;
                if t > now.raw() {
                    return None;
                }
                let s = self.heads[i];
                debug_assert_ne!(s, NIL, "scanned bucket is non-empty");
                let slot = &mut self.slab[s as usize];
                let value = slot.value.take().expect("occupied slot has a value");
                self.heads[i] = slot.next;
                slot.next = self.free;
                self.free = s;
                // Rebase to the popped time: the same bucket (distance 0
                // from the new base) is still the earliest if non-empty;
                // otherwise the next scan starts fresh.
                self.cached_scan = if self.heads[i] == NIL {
                    self.tails[i] = NIL;
                    self.occupied[i / 64] &= !(1u64 << (i % 64));
                    None
                } else {
                    Some((i, 0))
                };
                self.base = t;
                self.len -= 1;
                self.ring_len -= 1;
                return Some((Cycle::from_raw(t), value));
            }
            // Ring empty but len > 0: everything lives in overflow, at
            // or beyond base + N. Jump base forward and migrate — but
            // only if something is actually poppable, because `base`
            // must stay at the last *popped* time (new events may still
            // be pushed between it and the overflow).
            let overflow_min = self.overflow_min();
            debug_assert_ne!(overflow_min, u64::MAX, "len > 0 with nothing queued");
            if overflow_min > now.raw() {
                return None;
            }
            self.base = overflow_min;
            self.cached_scan = None;
        }
    }

    /// The time of the earliest queued event, without popping it.
    pub fn next_time(&mut self) -> Option<Cycle> {
        if self.len == 0 {
            return None;
        }
        // The ring candidate and the overflow minimum are incomparable
        // in general (overflow can hold an event *earlier* than a ring
        // event pushed after base advanced), so take the min of both.
        let ring = self.scan_cached().map(|(_, dist)| self.base + dist);
        let t = ring.unwrap_or(u64::MAX).min(self.overflow_min());
        Some(Cycle::from_raw(t))
    }

    /// Earliest overflow time; `u64::MAX` when the overflow is empty.
    fn overflow_min(&self) -> u64 {
        self.overflow
            .peek()
            .map_or(u64::MAX, |&Reverse((t, _, _))| t)
    }

    /// [`EventWheel::scan`] through the memo: skips the bitmap walk when
    /// the ring is empty or the previous result is still valid.
    fn scan_cached(&mut self) -> Option<(usize, u64)> {
        if self.ring_len == 0 {
            return None;
        }
        if self.cached_scan.is_none() {
            self.cached_scan = self.scan();
            debug_assert!(self.cached_scan.is_some(), "non-empty ring must scan");
        }
        self.cached_scan
    }

    /// Moves the overflow events whose time has entered the ring window
    /// into their buckets. By the prepend invariant (module doc) each
    /// time's run goes, in the heap's seq order, in front of whatever
    /// the ring already holds at that time.
    fn migrate(&mut self) {
        // Every overflow time is at or after `base`; an empty heap reads
        // as `u64::MAX` and never enters the window.
        if self.overflow_min() - self.base > self.mask {
            return;
        }
        self.migrate_due();
    }

    /// The work of [`EventWheel::migrate`] once something is due, kept
    /// out of line like [`EventWheel::push_overflow`].
    #[inline(never)]
    fn migrate_due(&mut self) {
        // The time and slot of the entry migrated last, so the next
        // entry of the same time links in behind it.
        let mut run = (u64::MAX, NIL);
        while let Some(&Reverse((t, _, s))) = self.overflow.peek() {
            let dist = t - self.base;
            if dist > self.mask {
                break;
            }
            self.overflow.pop();
            let prev = if run.0 == t { run.1 } else { NIL };
            self.link_after((t & self.mask) as usize, prev, s, dist);
            run = (t, s);
        }
    }

    /// Finds the first occupied bucket at or after `base`'s slot,
    /// scanning the bitmap circularly; returns `(index, distance)`
    /// where `distance` is in cycles from `base`.
    fn scan(&self) -> Option<(usize, u64)> {
        let n = self.heads.len();
        let words = self.occupied.len();
        let start = (self.base & self.mask) as usize;
        let (sw, sb) = (start / 64, start % 64);
        for k in 0..=words {
            let widx = (sw + k) % words;
            let word = if k == 0 {
                // Only bits at or after the start slot.
                self.occupied[sw] & (!0u64 << sb)
            } else if k == words {
                // Back at the start word: only the bits *before* the
                // start slot, i.e. the far end of the window.
                self.occupied[sw] & !(!0u64 << sb)
            } else {
                self.occupied[widx]
            };
            if word != 0 {
                let i = widx * 64 + word.trailing_zeros() as usize;
                let dist = ((i + n - start) & self.mask as usize) as u64;
                return Some((i, dist));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The reference scheduler the wheel must match pop-for-pop.
    #[derive(Default)]
    struct HeapRef {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        seq: u64,
    }

    impl HeapRef {
        fn push(&mut self, time: u64, value: u32) {
            self.heap.push(Reverse((time, self.seq, value)));
            self.seq += 1;
        }

        fn pop_next(&mut self, now: u64) -> Option<(u64, u32)> {
            let &Reverse((t, _, v)) = self.heap.peek()?;
            if t > now {
                return None;
            }
            self.heap.pop();
            Some((t, v))
        }
    }

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut w = EventWheel::new();
        w.push(Cycle::from_raw(5), 'x');
        w.push(Cycle::from_raw(3), 'a');
        w.push(Cycle::from_raw(3), 'b');
        let mut out = Vec::new();
        while let Some((t, v)) = w.pop_next(Cycle::MAX) {
            out.push((t.raw(), v));
        }
        assert_eq!(out, vec![(3, 'a'), (3, 'b'), (5, 'x')]);
        assert!(w.is_empty());
    }

    #[test]
    fn respects_now_like_a_drain() {
        let mut w = EventWheel::new();
        w.push(Cycle::from_raw(10), 1u8);
        w.push(Cycle::from_raw(20), 2u8);
        assert_eq!(w.next_time(), Some(Cycle::from_raw(10)));
        assert_eq!(w.pop_next(Cycle::from_raw(9)), None);
        assert_eq!(
            w.pop_next(Cycle::from_raw(10)),
            Some((Cycle::from_raw(10), 1))
        );
        assert_eq!(w.pop_next(Cycle::from_raw(10)), None);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn overflow_entry_can_precede_ring_entry() {
        // base advances so that an overflow event's time enters the
        // window *below* a ring event pushed later — migration must
        // restore global order.
        let mut w = EventWheel::with_buckets(64);
        w.push(Cycle::from_raw(0), 0u32);
        w.push(Cycle::from_raw(70), 1u32); // beyond base+64: overflow
        assert_eq!(w.pop_next(Cycle::MAX), Some((Cycle::from_raw(0), 0)));
        w.push(Cycle::from_raw(80), 2u32); // base is 0: also overflow
        w.push(Cycle::from_raw(40), 3u32); // inside the window: ring
        assert_eq!(w.pop_next(Cycle::MAX), Some((Cycle::from_raw(40), 3)));
        // Now base=40: both 70 and 80 are inside [40, 104) and migrate.
        assert_eq!(w.pop_next(Cycle::MAX), Some((Cycle::from_raw(70), 1)));
        assert_eq!(w.pop_next(Cycle::MAX), Some((Cycle::from_raw(80), 2)));
        assert!(w.is_empty());
    }

    #[test]
    fn ring_empty_jumps_base_to_overflow() {
        let mut w = EventWheel::with_buckets(64);
        w.push(Cycle::from_raw(1000), 7u32); // far future: pure overflow
        assert_eq!(w.next_time(), Some(Cycle::from_raw(1000)));
        assert_eq!(w.pop_next(Cycle::from_raw(999)), None);
        assert_eq!(
            w.pop_next(Cycle::from_raw(1000)),
            Some((Cycle::from_raw(1000), 7))
        );
    }

    #[test]
    fn same_time_order_survives_migration() {
        let mut w = EventWheel::with_buckets(64);
        w.push(Cycle::from_raw(0), 0u32);
        w.push(Cycle::from_raw(100), 1u32); // overflow, seq 1
        assert_eq!(w.pop_next(Cycle::MAX), Some((Cycle::from_raw(0), 0)));
        w.push(Cycle::from_raw(100), 2u32); // overflow again (100 - 0 > 63)
        assert_eq!(w.pop_next(Cycle::from_raw(50)), None);
        w.push(Cycle::from_raw(50), 3u32);
        assert_eq!(w.pop_next(Cycle::MAX), Some((Cycle::from_raw(50), 3)));
        // Both time-100 entries migrate into one bucket; seq order holds.
        assert_eq!(w.pop_next(Cycle::MAX), Some((Cycle::from_raw(100), 1)));
        assert_eq!(w.pop_next(Cycle::MAX), Some((Cycle::from_raw(100), 2)));
    }

    #[test]
    fn overflow_run_is_prepended_before_ring_entries_of_its_time() {
        // Two t=100 entries go to overflow while base is 0; after base
        // reaches 50, two more t=100 pushes land in the ring directly.
        // Migration must put the (earlier-pushed) overflow run first.
        let mut w = EventWheel::with_buckets(64);
        w.push(Cycle::from_raw(0), 0u32);
        assert_eq!(w.pop_next(Cycle::MAX), Some((Cycle::from_raw(0), 0)));
        w.push(Cycle::from_raw(100), 1u32);
        w.push(Cycle::from_raw(100), 2u32);
        w.push(Cycle::from_raw(50), 3u32);
        assert_eq!(w.overflow.len(), 2);
        assert_eq!(
            w.pop_next(Cycle::from_raw(50)),
            Some((Cycle::from_raw(50), 3))
        );
        w.push(Cycle::from_raw(100), 4u32); // 100 - 50 < 64: ring
        w.push(Cycle::from_raw(100), 5u32);
        assert_eq!(w.overflow.len(), 2, "the new pushes bypass overflow");
        assert_eq!(w.next_time(), Some(Cycle::from_raw(100)));
        let order: Vec<u32> = std::iter::from_fn(|| w.pop_next(Cycle::MAX))
            .map(|(t, v)| {
                assert_eq!(t.raw(), 100);
                v
            })
            .collect();
        assert_eq!(order, vec![1, 2, 4, 5]);
        assert!(w.is_empty());
    }

    /// How a randomized schedule pushes and advances time.
    #[derive(Clone, Copy, Debug)]
    enum Regime {
        /// Mostly near-term pushes with occasional far-future ones, on a
        /// tiny ring so overflow and migration are constantly exercised,
        /// plus periodic full drains.
        Mixed,
        /// The 64-core PM-controller shape on the default ring: thousands
        /// of events outstanding 4096–65536 cycles ahead while `base`
        /// creeps forward in small steps, never fully drained until the
        /// end. Times sit on a 16-cycle grid, like completions on a
        /// write port's service slots, so ring pushes at the ring's far
        /// end often share a time with a not-yet-migrated overflow entry.
        SaturatedBacklog,
    }

    impl Regime {
        /// Push times are rounded up to a multiple of this.
        fn grid(self) -> u64 {
            match self {
                Regime::Mixed => 1,
                Regime::SaturatedBacklog => 16,
            }
        }
    }

    /// A push distance for `regime`, in cycles past the push's anchor.
    fn random_delta(rng: &mut SimRng, regime: Regime) -> u64 {
        match (regime, rng.next_u64() % 8) {
            (Regime::Mixed, 0..=4) => rng.next_u64() % 32,
            (Regime::Mixed, 5 | 6) => rng.next_u64() % 512,
            (Regime::Mixed, _) => 64 + rng.next_u64() % 4096, // overflow
            (Regime::SaturatedBacklog, 0 | 1) => rng.next_u64() % 64,
            // Straddling the ring's far end, where ring pushes meet
            // overflow entries of the same time before they migrate.
            (Regime::SaturatedBacklog, 2) => 4032 + rng.next_u64() % 64,
            (Regime::SaturatedBacklog, _) => 4096 + rng.next_u64() % 61_440,
        }
    }

    /// Replays a SimRng-driven schedule of interleaved pushes and drains
    /// against the reference heap, pop for pop; returns the peak
    /// overflow length so callers can check the regime was reached.
    fn replay_against_heap(seed: u64, regime: Regime) -> usize {
        let mut rng = SimRng::seed_from_u64(0x4ee1 ^ seed);
        let (mut wheel, steps) = match regime {
            Regime::Mixed => (EventWheel::with_buckets(64), 4000),
            Regime::SaturatedBacklog => (EventWheel::new(), 6000),
        };
        let mut heap = HeapRef::default();
        let mut now = 0u64;
        let mut floor = 0u64; // last popped time: pushes must be >= this
        let mut next_value = 0u32;
        let mut peak_overflow = 0;
        let mut push = |wheel: &mut EventWheel<u32>, heap: &mut HeapRef, t: u64| {
            let t = t.next_multiple_of(regime.grid());
            wheel.push(Cycle::from_raw(t), next_value);
            heap.push(t, next_value);
            next_value += 1;
        };
        for _ in 0..steps {
            match (regime, rng.next_u64() % 10) {
                // Pushes, relative to the pop floor or just behind `now`
                // (backfill between the two).
                (_, 0..=5) => {
                    let t = floor.max(now.saturating_sub(16)) + random_delta(&mut rng, regime);
                    push(&mut wheel, &mut heap, t);
                }
                // Drain everything up to `now`, comparing pop-for-pop.
                // Like a simulator event handler, a pop sometimes
                // schedules a follow-up relative to its own time, so
                // pushes land between a pop and the next migration.
                (Regime::SaturatedBacklog, _) | (Regime::Mixed, 6..=8) => {
                    now += match regime {
                        Regime::Mixed => rng.next_u64() % 128,
                        Regime::SaturatedBacklog => rng.next_u64() % 16,
                    };
                    loop {
                        let got = wheel.pop_next(Cycle::from_raw(now));
                        let want = heap.pop_next(now);
                        assert_eq!(
                            got.map(|(t, v)| (t.raw(), v)),
                            want,
                            "divergence at now={now} seed={seed} regime={regime:?}"
                        );
                        let Some((t, _)) = got else { break };
                        floor = t.raw();
                        if rng.next_u64().is_multiple_of(4) {
                            let t = floor + random_delta(&mut rng, regime);
                            push(&mut wheel, &mut heap, t);
                        }
                    }
                    assert_eq!(
                        wheel.next_time().map(Cycle::raw),
                        heap.heap.peek().map(|&Reverse((t, _, _))| t)
                    );
                }
                // Final-drain pattern (`drain_events(Cycle::MAX)`).
                (Regime::Mixed, _) => {
                    while let Some((t, v)) = wheel.pop_next(Cycle::MAX) {
                        assert_eq!(heap.pop_next(u64::MAX), Some((t.raw(), v)));
                        floor = t.raw();
                    }
                    assert!(heap.heap.is_empty());
                }
            }
            assert_eq!(wheel.len(), heap.heap.len());
            peak_overflow = peak_overflow.max(wheel.overflow.len());
        }
        while let Some((t, v)) = wheel.pop_next(Cycle::MAX) {
            assert_eq!(heap.pop_next(u64::MAX), Some((t.raw(), v)));
        }
        assert!(heap.heap.is_empty());
        peak_overflow
    }

    /// The contract test: randomized schedules in both regimes, replayed
    /// against the reference heap.
    #[test]
    fn randomized_equivalence_with_binary_heap() {
        for seed in 0..8u64 {
            replay_against_heap(seed, Regime::Mixed);
            let peak = replay_against_heap(seed, Regime::SaturatedBacklog);
            assert!(
                peak > 1000,
                "seed {seed}: saturated backlog peaked at only {peak} overflow events"
            );
        }
    }

    #[test]
    #[should_panic(expected = "before the last popped")]
    fn pushing_into_the_past_panics() {
        let mut w = EventWheel::new();
        w.push(Cycle::from_raw(100), ());
        w.pop_next(Cycle::MAX);
        w.push(Cycle::from_raw(99), ());
    }
}

//! The run loop's scheduling frontier: the next few runnable cores in
//! schedule order, so most steps pick the next core without reading
//! every core's clock.
//!
//! A core's schedule key is `(time << 6) | index`: keys order by local
//! time, and ties go to the lower index because the index sits in the
//! low bits. A full scan keeps the smallest [`DEPTH`] keys, sorted, and
//! a `bound`: every runnable core whose key is not held has a key at or
//! above it. A held key below `bound` is therefore exact, and the
//! smallest one is the next core to run as long as no held core's clock
//! moves behind the frontier's back (see [`crate::system::System::run_with`]).

use pmemspec_engine::clock::Cycle;
use pmemspec_engine::config::MAX_CORES;

/// Low key bits that hold the core index.
const INDEX_BITS: u32 = 6;
const _: () = assert!(
    MAX_CORES <= 1 << INDEX_BITS,
    "core index must fit the key's low bits"
);

/// How many keys a frontier holds.
const DEPTH: usize = 8;

/// The schedule key of core `index` at local time `time`.
#[inline]
pub(crate) fn key(time: Cycle, index: usize) -> u64 {
    debug_assert!(
        time.raw() < 1 << (64 - INDEX_BITS),
        "core {index}'s clock {time} overflows the schedule key"
    );
    (time.raw() << INDEX_BITS) | index as u64
}

/// The core index a schedule key belongs to.
#[inline]
pub(crate) fn index(key: u64) -> usize {
    (key & ((1 << INDEX_BITS) - 1)) as usize
}

/// Up to [`DEPTH`] schedule keys, sorted, plus the `bound` below which
/// they are the smallest keys of the whole runnable set.
#[derive(Debug, Clone)]
pub(crate) struct Frontier {
    /// `keys[1..=len]` in descending order, so the head (the smallest
    /// key) is `keys[len]` and popping it is a decrement. `keys[0]` is a
    /// `u64::MAX` sentinel: it is the head of an empty frontier and stops
    /// an insertion's shift loop.
    keys: [u64; DEPTH + 1],
    len: usize,
    /// Every key this frontier evicted or refused since the last clear
    /// is at or above `bound`.
    bound: u64,
}

impl Default for Frontier {
    fn default() -> Self {
        Frontier {
            keys: [u64::MAX; DEPTH + 1],
            len: 0,
            bound: u64::MAX,
        }
    }
}

impl Frontier {
    /// Empties the frontier, ahead of a full scan.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.bound = u64::MAX;
    }

    /// Adds `key`. When the frontier is full, the larger of `key` and the
    /// largest held key is dropped, and `bound` falls to it.
    #[inline]
    pub(crate) fn insert(&mut self, key: u64) {
        if self.len == DEPTH {
            let largest = self.keys[1];
            if key > largest {
                self.bound = self.bound.min(key);
                return;
            }
            self.bound = self.bound.min(largest);
            let mut i = 1;
            while i < DEPTH && self.keys[i + 1] > key {
                self.keys[i] = self.keys[i + 1];
                i += 1;
            }
            self.keys[i] = key;
            return;
        }
        let mut i = self.len;
        while self.keys[i] < key {
            self.keys[i + 1] = self.keys[i];
            i -= 1;
        }
        self.keys[i + 1] = key;
        self.len += 1;
    }

    /// Removes and returns the smallest held key.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        Some(self.keys[self.len + 1])
    }

    /// The next core after a step left the running core at `key` with
    /// the runnable set unchanged: that core again while its key is the
    /// smallest; else the head, when it is below `bound`, with `key`
    /// taking its place; else `None`, and the caller must scan.
    #[inline]
    pub(crate) fn next(&mut self, key: u64) -> Option<usize> {
        let head = self.keys[self.len];
        if key < head.min(self.bound) {
            return Some(index(key));
        }
        if head < self.bound {
            // Keys are distinct, so `head < key` here: the head wins.
            self.len -= 1;
            self.insert(key);
            return Some(index(head));
        }
        None
    }

    #[cfg(test)]
    fn held(&self) -> Vec<u64> {
        self.keys[1..=self.len].iter().rev().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmemspec_engine::rng::SimRng;

    #[test]
    fn keys_order_by_time_then_index() {
        let k = |t, i| key(Cycle::from_raw(t), i);
        assert!(k(5, 63) < k(6, 0));
        assert!(k(5, 2) < k(5, 3));
        assert_eq!(index(k(123, 45)), 45);
        assert_eq!(index(k(0, MAX_CORES - 1)), MAX_CORES - 1);
    }

    #[test]
    fn a_full_frontier_evicts_its_largest_key_into_the_bound() {
        let mut f = Frontier::default();
        for k in (0..DEPTH as u64).map(|k| 10 * (k + 1)) {
            f.insert(k);
        }
        assert_eq!(f.bound, u64::MAX);
        f.insert(5);
        assert_eq!(f.bound, 80, "80 was evicted");
        f.insert(100);
        assert_eq!(f.bound, 80, "100 was refused above the bound");
        f.insert(75);
        assert_eq!(f.bound, 75, "75 was refused below the bound");
        f.insert(65);
        assert_eq!(f.bound, 70, "70 was evicted");
        assert_eq!(f.held(), vec![5, 10, 20, 30, 40, 50, 60, 65]);
        f.clear();
        assert_eq!((f.pop(), f.bound), (None, u64::MAX));
    }

    /// The frontier's content, checked against every key it was given.
    fn check(f: &Frontier, live: &[u64], dropped_min: u64) {
        let held = f.held();
        assert!(held.windows(2).all(|w| w[0] < w[1]), "{held:?}");
        assert!(held.len() <= DEPTH);
        assert!(held.iter().all(|k| live.contains(k)), "{held:?} ⊄ {live:?}");
        assert!(
            f.bound <= dropped_min,
            "bound {} above the dropped key {dropped_min}",
            f.bound
        );
        for k in live.iter().filter(|k| !held.contains(k)) {
            assert!(*k >= f.bound, "unheld key {k} below bound {}", f.bound);
        }
    }

    /// Inserts `k`, folding whatever key the frontier dropped into
    /// `dropped_min`.
    fn insert_tracked(f: &mut Frontier, k: u64, dropped_min: &mut u64) -> bool {
        let before = f.held();
        f.insert(k);
        let after = f.held();
        for x in before.iter().chain([&k]).filter(|x| !after.contains(x)) {
            *dropped_min = (*dropped_min).min(*x);
        }
        before.len() == DEPTH
    }

    /// A SimRng-driven mix of inserts, head pops, clears and run-loop
    /// steps (`next`), replayed against a brute-force sorted `Vec` of
    /// every live key. Times come from a small range so keys often tie
    /// on time and the index decides, and the frontier is often full.
    #[test]
    fn matches_a_sorted_vec_under_random_operations() {
        for seed in 0..40 {
            let mut rng = SimRng::seed_from_u64(0xf207 ^ seed);
            let cores = [2, 8, 9, 64][seed as usize % 4];
            let mut f = Frontier::default();
            // Sorted keys of every core the frontier accounts for.
            let mut live: Vec<u64> = Vec::new();
            // Smallest key evicted or refused since the last clear.
            let mut dropped_min = u64::MAX;
            let mut full_seen = false;
            for _ in 0..3000 {
                let free: Vec<usize> = (0..cores)
                    .filter(|i| live.iter().all(|&k| index(k) != *i))
                    .collect();
                let fresh = if free.is_empty() {
                    None
                } else {
                    let t = Cycle::from_raw(rng.gen_range(40));
                    Some(key(t, free[rng.gen_index(free.len())]))
                };
                match (rng.gen_range(10), fresh) {
                    (0, _) => {
                        f.clear();
                        live.clear();
                        dropped_min = u64::MAX;
                    }
                    (1..=4, Some(k)) => {
                        full_seen |= insert_tracked(&mut f, k, &mut dropped_min);
                        live.push(k);
                        live.sort_unstable();
                    }
                    (5 | 6, _) => {
                        let head = f.held().first().copied();
                        assert_eq!(f.pop(), head);
                        if let Some(h) = head {
                            if h < f.bound {
                                assert_eq!(h, live[0], "an exact head is the global minimum");
                            }
                            live.retain(|&k| k != h);
                        }
                    }
                    (_, Some(k)) => {
                        // A step: the running core's new key `k` is not
                        // held, and `next` must pick the minimum of it
                        // and the live keys, or ask for a scan.
                        let min = live.first().map_or(k, |&m| m.min(k));
                        let (head, bound) = (f.held().first().copied(), f.bound);
                        match f.next(k) {
                            Some(i) if i == index(k) => assert_eq!(k, min),
                            Some(i) => {
                                assert_eq!((Some(min), index(min)), (head, i));
                                live.retain(|&x| x != min);
                                live.push(k);
                                live.sort_unstable();
                            }
                            None => {
                                let head = head.unwrap_or(u64::MAX);
                                assert!(k > bound.min(head) && head > bound);
                                // The run loop scans: rebuild from every
                                // live key plus the running core's.
                                f.clear();
                                dropped_min = u64::MAX;
                                live.push(k);
                                live.sort_unstable();
                                for &x in &live {
                                    insert_tracked(&mut f, x, &mut dropped_min);
                                }
                                assert_eq!(
                                    f.pop(),
                                    Some(live.remove(0)),
                                    "a scan's head is the minimum"
                                );
                            }
                        }
                    }
                    _ => {}
                }
                check(&f, &live, dropped_min);
            }
            if cores > DEPTH {
                assert!(full_seen, "seed {seed}: the frontier never filled");
            }
        }
    }
}

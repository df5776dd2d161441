//! A set-associative tag array with true-LRU replacement.
//!
//! Used for both the private L1 data caches and the shared LLC. The array
//! tracks tags and dirty bits only — data values live in the global
//! [`crate::image::MemoryImage`], which is kept coherent by construction.

use pmemspec_isa::addr::LineAddr;

/// One resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Way {
    line: LineAddr,
    dirty: bool,
    /// Higher = more recently used.
    lru: u64,
}

/// The outcome of inserting a line into the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inserted {
    /// A line that had to leave to make room, with its dirty bit.
    pub victim: Option<(LineAddr, bool)>,
}

/// A set-associative cache tag array.
///
/// # Examples
///
/// ```
/// use pmemspec_mem::cache::SetAssocCache;
/// use pmemspec_isa::Addr;
///
/// let mut c = SetAssocCache::new(4, 2); // 4 sets, 2 ways
/// let line = Addr::pm(0).line();
/// assert!(!c.contains(line));
/// c.insert(line, false);
/// assert!(c.contains(line));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Way storage, handed out of `arena` one full set at a time on
    /// first touch: `sets[s]` is 1 + the set's arena offset (0 = never
    /// touched). Two zeroed flat allocations up front and one growing
    /// arena keep construction and teardown to three heap operations,
    /// where per-set boxes cost a malloc/free pair for every touched
    /// set of every `System` built.
    sets: Vec<u32>,
    arena: Vec<Way>,
    /// Resident-way count of each set (the prefix of its arena block).
    lens: Vec<u8>,
    ways: usize,
    tick: u64,
    /// 1-entry memo of the last [`SetAssocCache::touch`] hit: the line
    /// and its arena slot. Core access streams hit the same line in
    /// bursts (read-modify-write, word-by-word copies), and the memo
    /// turns those repeats into one array access instead of a set scan.
    /// Must be cleared by anything that moves or removes ways
    /// (`insert`'s swap-remove eviction, `invalidate`, `clear`);
    /// `clean` only edits a dirty bit in place, so it keeps the memo.
    mru: Option<(LineAddr, usize)>,
}

impl SetAssocCache {
    /// Creates an array with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero or
    /// exceeds 255.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0, "cache needs at least one way");
        assert!(ways <= u8::MAX as usize, "way count must fit in a byte");
        SetAssocCache {
            sets: vec![0; sets],
            arena: Vec::new(),
            lens: vec![0; sets],
            ways,
            tick: 0,
            mru: None,
        }
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (line.raw() as usize) & (self.sets.len() - 1)
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The resident ways of set `s`.
    #[inline]
    fn set(&self, s: usize) -> &[Way] {
        match self.sets[s] {
            0 => &[],
            base => {
                let b = (base - 1) as usize;
                &self.arena[b..b + self.lens[s] as usize]
            }
        }
    }

    /// The resident ways of set `s`, mutable.
    #[inline]
    fn set_mut(&mut self, s: usize) -> &mut [Way] {
        match self.sets[s] {
            0 => &mut [],
            base => {
                let b = (base - 1) as usize;
                &mut self.arena[b..b + self.lens[s] as usize]
            }
        }
    }

    /// True when the line is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        let s = self.set_index(line);
        self.set(s).iter().any(|w| w.line == line)
    }

    /// True when the line is resident and dirty.
    pub fn is_dirty(&self, line: LineAddr) -> bool {
        let s = self.set_index(line);
        self.set(s).iter().any(|w| w.line == line && w.dirty)
    }

    /// Marks a hit: refreshes LRU and optionally sets the dirty bit.
    ///
    /// Returns false when the line is not resident (no state change).
    pub fn touch(&mut self, line: LineAddr, write: bool) -> bool {
        let tick = self.bump();
        if let Some((l, idx)) = self.mru {
            if l == line {
                let w = &mut self.arena[idx];
                debug_assert_eq!(w.line, line, "stale MRU memo");
                w.lru = tick;
                if write {
                    w.dirty = true;
                }
                return true;
            }
        }
        let s = self.set_index(line);
        let base = match self.sets[s] {
            0 => return false,
            b => (b - 1) as usize,
        };
        let len = self.lens[s] as usize;
        match self.arena[base..base + len]
            .iter()
            .position(|w| w.line == line)
        {
            Some(p) => {
                let w = &mut self.arena[base + p];
                w.lru = tick;
                if write {
                    w.dirty = true;
                }
                self.mru = Some((line, base + p));
                true
            }
            None => false,
        }
    }

    /// Installs a (missing) line, evicting the LRU way if the set is full.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line is already resident — callers
    /// must use [`SetAssocCache::touch`] for hits so LRU state stays
    /// sound. (Release builds skip the residency scan: it sits on the
    /// hottest simulator path and every caller checks first.)
    pub fn insert(&mut self, line: LineAddr, dirty: bool) -> Inserted {
        debug_assert!(!self.contains(line), "inserting resident line {line}");
        self.mru = None;
        let s = self.set_index(line);
        let tick = self.bump();
        let full_ways = self.ways;
        if self.sets[s] == 0 {
            // First touch of this set: carve its full associativity out
            // of the arena.
            self.sets[s] = self.arena.len() as u32 + 1;
            self.arena.resize(
                self.arena.len() + full_ways,
                Way {
                    line,
                    dirty: false,
                    lru: 0,
                },
            );
        }
        let b = (self.sets[s] - 1) as usize;
        let ways = &mut self.arena[b..b + full_ways];
        let mut len = self.lens[s] as usize;
        let victim = if len == full_ways {
            let (idx, _) = ways[..len]
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .expect("full set is non-empty");
            let v = ways[idx];
            // Matches `Vec::swap_remove` + `push`: the last way moves
            // into the victim's slot and the new line lands at the end.
            ways[idx] = ways[len - 1];
            len -= 1;
            Some((v.line, v.dirty))
        } else {
            None
        };
        ways[len] = Way {
            line,
            dirty,
            lru: tick,
        };
        self.lens[s] = (len + 1) as u8;
        Inserted { victim }
    }

    /// Removes a line (coherence invalidation), returning whether it was
    /// resident and dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        self.mru = None;
        let s = self.set_index(line);
        let len = self.lens[s] as usize;
        let ways = self.set_mut(s);
        let idx = ways.iter().position(|w| w.line == line)?;
        let dirty = ways[idx].dirty;
        ways[idx] = ways[len - 1];
        self.lens[s] = (len - 1) as u8;
        Some(dirty)
    }

    /// Clears the dirty bit (after a writeback that keeps the line), e.g.
    /// `CLWB` semantics. Returns false when not resident.
    pub fn clean(&mut self, line: LineAddr) -> bool {
        let s = self.set_index(line);
        if let Some(w) = self.set_mut(s).iter_mut().find(|w| w.line == line) {
            w.dirty = false;
            true
        } else {
            false
        }
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates all resident lines with their dirty bits.
    pub fn lines(&self) -> impl Iterator<Item = (LineAddr, bool)> + '_ {
        (0..self.sets.len())
            .flat_map(|s| self.set(s))
            .map(|w| (w.line, w.dirty))
    }

    /// Number of resident dirty lines.
    pub fn dirty_lines(&self) -> usize {
        self.lines().filter(|&(_, dirty)| dirty).count()
    }

    /// Drops everything (power-failure simulation). Keeps allocations:
    /// the tag storage is reused when execution resumes.
    pub fn clear(&mut self) {
        self.lens.fill(0);
        self.mru = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmemspec_isa::Addr;

    /// Lines that map to the same set of a 4-set cache: stride 4 lines.
    fn line(i: u64) -> LineAddr {
        Addr::pm(i * 4 * 64).line()
    }

    #[test]
    fn insert_then_hit() {
        let mut c = SetAssocCache::new(4, 2);
        let l = line(0);
        assert_eq!(c.insert(l, false).victim, None);
        assert!(c.contains(l));
        assert!(c.touch(l, false));
        assert!(!c.is_dirty(l));
        assert!(c.touch(l, true));
        assert!(c.is_dirty(l));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = SetAssocCache::new(4, 2);
        c.insert(line(0), false);
        c.insert(line(1), true);
        c.touch(line(0), false); // line 0 is now MRU
        let out = c.insert(line(2), false);
        assert_eq!(
            out.victim,
            Some((line(1), true)),
            "LRU (line 1) evicted dirty"
        );
        assert!(c.contains(line(0)));
        assert!(c.contains(line(2)));
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = SetAssocCache::new(4, 2);
        c.insert(line(0), true);
        c.insert(line(1), false);
        assert_eq!(c.invalidate(line(0)), Some(true));
        assert_eq!(c.invalidate(line(1)), Some(false));
        assert_eq!(c.invalidate(line(2)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn clean_clears_dirty_bit() {
        let mut c = SetAssocCache::new(4, 2);
        c.insert(line(0), true);
        assert!(c.clean(line(0)));
        assert!(!c.is_dirty(line(0)));
        assert!(c.contains(line(0)), "clean keeps the line resident");
        assert!(!c.clean(line(1)));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = SetAssocCache::new(4, 1);
        // Four consecutive lines land in four different sets.
        for i in 0..4u64 {
            let l = Addr::pm(i * 64).line();
            assert_eq!(c.insert(l, false).victim, None);
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = SetAssocCache::new(4, 2);
        c.insert(line(0), true);
        c.insert(line(1), false);
        c.clear();
        assert!(c.is_empty());
        assert!(!c.contains(line(0)));
    }

    #[test]
    fn lines_iterator_reports_dirty_bits() {
        let mut c = SetAssocCache::new(4, 2);
        c.insert(line(0), true);
        c.insert(line(1), false);
        let mut all: Vec<_> = c.lines().collect();
        all.sort_by_key(|(l, _)| l.raw());
        assert_eq!(all, vec![(line(0), true), (line(1), false)]);
    }

    /// The MRU memo must not survive an eviction that swap-moves the
    /// memoized way: after `insert(line 2)` evicts line 0, line 1 has
    /// moved into slot 0, and a stale memo would touch the wrong way.
    #[test]
    fn touch_memo_survives_same_set_eviction() {
        let mut c = SetAssocCache::new(4, 2);
        c.insert(line(0), false);
        c.insert(line(1), false);
        assert!(c.touch(line(1), false)); // memoize line 1 (slot 1)
        c.touch(line(0), false); // swap memo to line 0
        assert!(c.touch(line(1), true)); // line 1 MRU again, memoized
        let out = c.insert(line(2), false); // evicts line 0, moves line 1
        assert_eq!(out.victim, Some((line(0), false)));
        assert!(c.touch(line(1), false), "moved line still hits");
        assert!(c.is_dirty(line(1)), "dirty bit followed the line");
        assert!(!c.touch(line(0), false), "evicted line misses");
    }

    #[test]
    fn touch_memo_cleared_by_invalidate_and_clear() {
        let mut c = SetAssocCache::new(4, 2);
        c.insert(line(0), false);
        assert!(c.touch(line(0), false)); // memoized
        assert_eq!(c.invalidate(line(0)), Some(false));
        assert!(!c.touch(line(0), true), "invalidated line misses");
        c.insert(line(1), false);
        assert!(c.touch(line(1), false)); // memoized
        c.clear();
        assert!(!c.touch(line(1), false), "cleared cache misses");
        assert!(c.is_empty());
    }

    #[test]
    fn touch_memo_repeated_hits_keep_lru_fresh() {
        let mut c = SetAssocCache::new(4, 2);
        c.insert(line(0), false);
        c.insert(line(1), false);
        // Repeated memo-path touches of line 0 must keep bumping its
        // LRU stamp, so line 1 is the eviction victim.
        for _ in 0..4 {
            assert!(c.touch(line(0), false));
        }
        let out = c.insert(line(2), false);
        assert_eq!(out.victim, Some((line(1), false)));
        // clean() keeps the memo valid: dirty via memo, clean, re-dirty.
        assert!(c.touch(line(0), true));
        assert!(c.clean(line(0)));
        assert!(c.touch(line(0), true));
        assert!(c.is_dirty(line(0)));
    }

    // The residency check is a `debug_assert!` (see `insert`'s doc).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "resident")]
    fn double_insert_panics() {
        let mut c = SetAssocCache::new(4, 2);
        c.insert(line(0), false);
        c.insert(line(0), false);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_panics() {
        let _ = SetAssocCache::new(3, 2);
    }
}

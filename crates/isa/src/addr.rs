//! Simulated physical addresses.
//!
//! The machine has a single physical address space split into two regions:
//! DRAM below [`PM_BASE`] and persistent memory at and above it. Addresses
//! are word (8-byte) aligned; caches operate on 64-byte lines.

use std::fmt;

/// Bytes per machine word. All loads and stores are word-sized.
pub const WORD_BYTES: u64 = 8;

/// Bytes per cache line, fixed across the hierarchy (Table 3).
pub const LINE_BYTES: u64 = 64;

/// First byte of the persistent-memory region.
///
/// Everything below is DRAM (volatile); everything at or above persists.
pub const PM_BASE: u64 = 1 << 40;

/// Which memory technology backs an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Volatile DRAM.
    Dram,
    /// Persistent memory.
    Pm,
}

/// Bytes each region can address: 16 GiB, a 31-bit word index.
///
/// [`Addr`] holds a region bit plus a word index in a `u32`, so a DRAM
/// offset or a PM offset must stay below this.
pub const REGION_BYTES: u64 = (PM_BIT as u64) * WORD_BYTES;

/// The top bit of an [`Addr`]'s word index: set for PM.
const PM_BIT: u32 = 1 << 31;

/// A word-aligned simulated physical address.
///
/// Stored as a 4-byte word index with the PM region in the top bit, so
/// each region addresses [`REGION_BYTES`] (16 GiB); [`Addr::raw`] gives
/// the byte address back. Addresses order like their byte addresses
/// (every PM address above every DRAM one).
///
/// # Examples
///
/// ```
/// use pmemspec_isa::addr::{Addr, MemSpace, PM_BASE};
///
/// let a = Addr::pm(128);
/// assert_eq!(a.space(), MemSpace::Pm);
/// assert_eq!(a.raw(), PM_BASE + 128);
/// assert_eq!(a.line(), Addr::pm(128).line());
/// assert_eq!(Addr::pm(128).line(), Addr::pm(184).line());
/// assert_ne!(Addr::pm(128).line(), Addr::pm(192).line());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(u32);

impl Addr {
    /// Creates an address from a raw byte address.
    ///
    /// # Panics
    ///
    /// Panics if `raw` is not word aligned or lies [`REGION_BYTES`] or
    /// more past the start of its region.
    pub fn new(raw: u64) -> Self {
        assert_eq!(raw % WORD_BYTES, 0, "address {raw:#x} is not word aligned");
        Addr::checked(raw)
            .unwrap_or_else(|| panic!("address {raw:#x} is past its region's 16 GiB limit"))
    }

    /// The address at byte address `raw`, or `None` when `raw` is not
    /// word aligned or lies past its region's [`REGION_BYTES`]. For raw
    /// words read back from memory (log recovery), which may hold
    /// anything.
    pub fn checked(raw: u64) -> Option<Self> {
        let (region, offset) = if raw >= PM_BASE {
            (PM_BIT, raw - PM_BASE)
        } else {
            (0, raw)
        };
        (raw.is_multiple_of(WORD_BYTES) && offset < REGION_BYTES)
            .then_some(Addr(region | (offset / WORD_BYTES) as u32))
    }

    /// An address `offset` bytes into the PM region.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not word aligned or not below
    /// [`REGION_BYTES`].
    pub fn pm(offset: u64) -> Self {
        Addr::new(PM_BASE + offset)
    }

    /// An address `offset` bytes into the DRAM region.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not word aligned, overflows into PM, or is
    /// not below [`REGION_BYTES`].
    pub fn dram(offset: u64) -> Self {
        assert!(offset < PM_BASE, "DRAM offset overflows into PM region");
        Addr::new(offset)
    }

    /// The raw byte address.
    #[inline]
    pub const fn raw(self) -> u64 {
        // The region bit (31) lands on PM_BASE's bit (40); the word index
        // scales to bytes.
        (((self.0 & PM_BIT) as u64) << 9) | (((self.0 & !PM_BIT) as u64) * WORD_BYTES)
    }

    /// Which region backs this address.
    pub const fn space(self) -> MemSpace {
        if self.is_pm() {
            MemSpace::Pm
        } else {
            MemSpace::Dram
        }
    }

    /// True when this address persists across power failure.
    #[inline]
    pub const fn is_pm(self) -> bool {
        self.0 & PM_BIT != 0
    }

    /// The cache line containing this address.
    #[inline]
    pub const fn line(self) -> LineAddr {
        LineAddr(self.raw() / LINE_BYTES)
    }

    /// The address `bytes` later.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not word aligned or the result leaves the
    /// region's [`REGION_BYTES`].
    pub fn offset(self, bytes: u64) -> Addr {
        Addr::new(self.raw() + bytes)
    }

    /// Word index within the cache line (0..8).
    pub const fn word_in_line(self) -> usize {
        (self.0 % (LINE_BYTES / WORD_BYTES) as u32) as usize
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.space() {
            MemSpace::Pm => write!(f, "pm:{:#x}", self.raw() - PM_BASE),
            MemSpace::Dram => write!(f, "dram:{:#x}", self.raw()),
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A cache-line-aligned address (line number, not byte address).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(u64);

impl LineAddr {
    /// The line number (byte address divided by [`LINE_BYTES`]).
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The first byte address of the line.
    pub fn base(self) -> Addr {
        Addr::new(self.0 * LINE_BYTES)
    }

    /// Which region backs this line.
    pub const fn space(self) -> MemSpace {
        if self.is_pm() {
            MemSpace::Pm
        } else {
            MemSpace::Dram
        }
    }

    /// True when the line lives in persistent memory.
    pub const fn is_pm(self) -> bool {
        self.0 >= PM_BASE / LINE_BYTES
    }

    /// Iterates the eight word addresses inside this line.
    pub fn words(self) -> impl Iterator<Item = Addr> {
        let base = self.base();
        (0..(LINE_BYTES / WORD_BYTES)).map(move |i| base.offset(i * WORD_BYTES))
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line[{}]", self.base())
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pm_and_dram_regions() {
        assert_eq!(Addr::pm(0).space(), MemSpace::Pm);
        assert_eq!(Addr::dram(0).space(), MemSpace::Dram);
        assert!(Addr::pm(64).is_pm());
        assert!(!Addr::dram(64).is_pm());
    }

    #[test]
    fn line_grouping() {
        let a = Addr::pm(0);
        let b = Addr::pm(56);
        let c = Addr::pm(64);
        assert_eq!(a.line(), b.line());
        assert_ne!(a.line(), c.line());
        assert_eq!(c.line().base(), c);
    }

    #[test]
    fn line_words_enumerate_eight() {
        let words: Vec<Addr> = Addr::pm(128).line().words().collect();
        assert_eq!(words.len(), 8);
        assert_eq!(words[0], Addr::pm(128));
        assert_eq!(words[7], Addr::pm(184));
    }

    #[test]
    fn word_in_line_indexing() {
        assert_eq!(Addr::pm(0).word_in_line(), 0);
        assert_eq!(Addr::pm(8).word_in_line(), 1);
        assert_eq!(Addr::pm(56).word_in_line(), 7);
        assert_eq!(Addr::pm(64).word_in_line(), 0);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn unaligned_address_panics() {
        let _ = Addr::new(3);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn dram_overflow_panics() {
        let _ = Addr::dram(PM_BASE);
    }

    #[test]
    fn line_is_pm_follows_base() {
        assert!(Addr::pm(0).line().is_pm());
        assert!(!Addr::dram(0).line().is_pm());
    }

    #[test]
    fn raw_round_trips_the_first_and_last_word_of_each_region() {
        let last = REGION_BYTES - WORD_BYTES;
        for raw in [0, last, PM_BASE, PM_BASE + last] {
            assert_eq!(Addr::new(raw).raw(), raw, "{raw:#x}");
        }
        assert_eq!(Addr::dram(last).space(), MemSpace::Dram);
        assert_eq!(Addr::pm(last).space(), MemSpace::Pm);
        assert_eq!(Addr::pm(last).line().raw(), (PM_BASE + last) / LINE_BYTES);
        assert_eq!(Addr::pm(last).word_in_line(), 7);
    }

    #[test]
    #[should_panic(expected = "16 GiB limit")]
    fn one_word_past_the_pm_region_panics() {
        let _ = Addr::pm(REGION_BYTES);
    }

    #[test]
    #[should_panic(expected = "16 GiB limit")]
    fn one_word_past_the_dram_region_panics() {
        let _ = Addr::dram(REGION_BYTES);
    }

    #[test]
    fn checked_rejects_what_new_panics_on() {
        assert_eq!(Addr::checked(PM_BASE + 8), Some(Addr::pm(8)));
        assert_eq!(Addr::checked(PM_BASE + 3), None);
        assert_eq!(Addr::checked(REGION_BYTES), None);
        assert_eq!(Addr::checked(PM_BASE + REGION_BYTES), None);
        assert_eq!(Addr::checked(u64::MAX - 7), None);
    }

    #[test]
    fn order_is_byte_address_order_across_regions() {
        let last = REGION_BYTES - WORD_BYTES;
        let mut sample = vec![
            Addr::pm(64),
            Addr::dram(last),
            Addr::pm(0),
            Addr::dram(0xc0),
            Addr::pm(last),
            Addr::dram(0),
            Addr::pm(0x41a_8fc0),
            Addr::dram(8),
        ];
        let mut by_raw = sample.clone();
        sample.sort();
        by_raw.sort_by_key(|a| a.raw());
        assert_eq!(sample, by_raw);
        assert!(sample[..4].iter().all(|a| !a.is_pm()));
    }

    #[test]
    fn debug_forms() {
        assert_eq!(format!("{}", Addr::pm(16)), "pm:0x10");
        assert_eq!(format!("{}", Addr::dram(16)), "dram:0x10");
        assert!(format!("{}", Addr::pm(0).line()).contains("pm:0x0"));
    }
}

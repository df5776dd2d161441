//! Concrete instructions executed by a simulated core.
//!
//! The op set is the union of what the five implemented designs need:
//! ordinary loads/stores and compute, the x86 persistence primitives
//! (`CLWB`, `SFENCE`), HOPS' `ofence`/`dfence`, StrandWeaver's
//! `NewStrand`/`JoinStrand`/`persist-barrier`, and PMEM-Spec's
//! `spec-barrier`/`spec-assign`/`spec-revoke`, plus synchronization,
//! recovery checkpoints, and FASE-boundary markers interpreted by the
//! simulator and the failure-atomic runtime.

use std::fmt;

use crate::addr::Addr;

/// Identifies a simulated hardware thread (one per core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub usize);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifies a program-level mutex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub u32);

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lock{}", self.0)
    }
}

/// Identifies one failure-atomic section (FASE) *instance* within a thread.
///
/// Ids are unique per thread, not globally; `(ThreadId, FaseId)` is global.
/// A thread holds at most `u32::MAX + 1` FASEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaseId(pub u32);

impl fmt::Display for FaseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fase{}", self.0)
    }
}

/// Mixer used by checksummed log-entry headers ([`ValueSrc::LogTag`]) and
/// by log recovery to re-validate them. The 64-bit finalizer of
/// MurmurHash3.
pub fn log_mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// A 64-bit word held at 4-byte alignment, so that [`ValueSrc`] packs
/// into 12 bytes and [`Op`] into 16. Read it by value with [`Word::get`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C, packed(4))]
pub struct Word(u64);

impl Word {
    /// Wraps a value.
    pub const fn new(v: u64) -> Self {
        Word(v)
    }

    /// The value.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.get(), f)
    }
}

/// Where a store's value comes from.
///
/// Undo logging must record the *pre-image* of the data it will overwrite;
/// that value is only known at execution time, so log stores use
/// [`ValueSrc::OldOf`] and the interpreter resolves it against the current
/// volatile memory image. Log-entry headers embed a checksum over the
/// entry so recovery can reject torn entries — [`ValueSrc::LogTag`]
/// resolves to `tag ^ log_mix(target) ^ log_mix(current value of target)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueSrc {
    /// A value fixed at program-generation time.
    Imm(Word),
    /// The value the given address holds at the moment the store executes
    /// (the undo-log pre-image).
    OldOf(Addr),
    /// The value at `addr` plus `delta` (wrapping) at execution time —
    /// a fetch-and-add, used for shared counters (queue head/tail, TPC-C
    /// order ids and stock decrements) whose runtime value depends on
    /// lock interleaving.
    OldPlus {
        /// The counter address.
        addr: Addr,
        /// The increment, sign-extended to 64 bits when added.
        delta: i32,
    },
    /// A checksummed log-entry header covering `target`'s address and its
    /// value at execution time.
    LogTag {
        /// Generation tag (sequence number, entry index, ...), widened to
        /// 64 bits in the checksum.
        tag: u32,
        /// The data word this log entry covers.
        target: Addr,
    },
}

impl ValueSrc {
    /// Shorthand for an immediate.
    pub const fn imm(v: u64) -> Self {
        ValueSrc::Imm(Word::new(v))
    }

    /// The value this source yields when `read` gives each address's
    /// current value: the one definition every interpreter resolves
    /// stores with.
    #[inline]
    pub fn resolve(self, read: impl Fn(Addr) -> u64) -> u64 {
        match self {
            ValueSrc::Imm(v) => v.get(),
            ValueSrc::OldOf(a) => read(a),
            ValueSrc::OldPlus { addr, delta } => read(addr).wrapping_add(delta as i64 as u64),
            ValueSrc::LogTag { tag, target } => {
                ValueSrc::log_tag_value(u64::from(tag), target, read(target))
            }
        }
    }

    /// The checksum a [`ValueSrc::LogTag`] store produces for a known
    /// pre-image; recovery recomputes this to validate entries.
    pub fn log_tag_value(tag: u64, target: Addr, old_value: u64) -> u64 {
        tag ^ log_mix(target.raw()) ^ log_mix(old_value)
    }
}

impl From<u64> for ValueSrc {
    fn from(v: u64) -> Self {
        ValueSrc::imm(v)
    }
}

/// One instruction of a lowered per-thread program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A word load. Blocks the thread for the hierarchy round trip.
    Load { addr: Addr },
    /// A word store. Retires into the store queue; drains asynchronously.
    Store { addr: Addr, value: ValueSrc },
    /// x86 `CLWB`: asynchronously write the line back toward the PM
    /// controller; occupies a store-queue entry until it completes.
    Clwb { addr: Addr },
    /// x86 `SFENCE`: stall until all prior stores and CLWBs complete.
    Sfence,
    /// HOPS `ofence`: epoch boundary in the persist buffer; no stall.
    Ofence,
    /// HOPS `dfence`: stall until the persist buffer drains.
    Dfence,
    /// PMEM-Spec `spec-barrier`: stall until this core's persist path has
    /// delivered all prior PM stores to the PM controller (ADR domain).
    SpecBarrier,
    /// StrandWeaver `NewStrand`: begin a new strand; its persists carry no
    /// ordering dependency on earlier strands.
    NewStrand,
    /// StrandWeaver `JoinStrand`: stall until every strand issued so far
    /// has drained to the persistent domain (the durability point).
    JoinStrand,
    /// StrandWeaver `persist-barrier`: order persists *within* the current
    /// strand (an intra-strand epoch boundary; no stall).
    StrandBarrier,
    /// PMEM-Spec `spec-assign`: read-and-increment the global speculation
    /// counter; subsequent PM stores are tagged with the value read.
    SpecAssign,
    /// PMEM-Spec `spec-revoke`: stop tagging PM stores.
    SpecRevoke,
    /// Busy computation for the given number of core cycles.
    Compute { cycles: u32 },
    /// Acquire a program mutex (establishes happens-before).
    Lock { lock: LockId },
    /// Release a program mutex.
    Unlock { lock: LockId },
    /// A checkpoint inside a FASE (§6.3): misspeculation recovery resumes
    /// from the most recent checkpoint instead of the FASE beginning,
    /// bounding re-execution to one region.
    Checkpoint,
    /// Start of a failure-atomic section; the re-execution point on abort.
    FaseBegin { fase: FaseId },
    /// End of a failure-atomic section; lazy recovery checks the
    /// misspeculation flag here.
    FaseEnd { fase: FaseId },
}

impl Op {
    /// The address this op touches, if any.
    pub fn addr(&self) -> Option<Addr> {
        match *self {
            Op::Load { addr } | Op::Store { addr, .. } | Op::Clwb { addr } => Some(addr),
            _ => None,
        }
    }

    /// True for ops that constrain or force persist ordering: the fences
    /// and barriers of every design plus StrandWeaver's `join-strand`
    /// durability point. These are the instants where the set of reachable
    /// persisted states changes shape, so crash-point samplers weight them
    /// heavily.
    pub fn is_ordering_point(&self) -> bool {
        matches!(
            self,
            Op::Sfence
                | Op::Ofence
                | Op::Dfence
                | Op::SpecBarrier
                | Op::StrandBarrier
                | Op::JoinStrand
        )
    }

    /// The assembly mnemonic ("ld", "spec-barrier", "fase-end", ...).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Load { .. } => "ld",
            Op::Store { .. } => "st",
            Op::Clwb { .. } => "clwb",
            Op::Sfence => "sfence",
            Op::Ofence => "ofence",
            Op::Dfence => "dfence",
            Op::SpecBarrier => "spec-barrier",
            Op::NewStrand => "new-strand",
            Op::JoinStrand => "join-strand",
            Op::StrandBarrier => "persist-barrier",
            Op::SpecAssign => "spec-assign",
            Op::SpecRevoke => "spec-revoke",
            Op::Compute { .. } => "compute",
            Op::Lock { .. } => "lock",
            Op::Unlock { .. } => "unlock",
            Op::Checkpoint => "checkpoint",
            Op::FaseBegin { .. } => "fase-begin",
            Op::FaseEnd { .. } => "fase-end",
        }
    }

    /// True for ops whose execution instant is an interesting crash
    /// boundary: every ordering point, plus cache-line write-backs,
    /// checkpoints, and FASE begin/end markers. The crash-consistency
    /// fuzzer samples crash cycles densely around these and sparsely
    /// elsewhere.
    pub fn is_crash_boundary(&self) -> bool {
        self.is_ordering_point()
            || matches!(
                self,
                Op::Clwb { .. } | Op::Checkpoint | Op::FaseBegin { .. } | Op::FaseEnd { .. }
            )
    }

    /// True for ops that only certain designs may execute (used by program
    /// validation to catch lowering mix-ups).
    pub fn is_design_specific(&self) -> bool {
        matches!(
            self,
            Op::Clwb { .. }
                | Op::Sfence
                | Op::Ofence
                | Op::Dfence
                | Op::SpecBarrier
                | Op::SpecAssign
                | Op::SpecRevoke
                | Op::NewStrand
                | Op::JoinStrand
                | Op::StrandBarrier
        )
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())?;
        match self {
            Op::Load { addr } | Op::Clwb { addr } => write!(f, " {addr}"),
            Op::Store { addr, value } => write!(f, " {addr} <- {value:?}"),
            Op::Compute { cycles } => write!(f, " {cycles}"),
            Op::Lock { lock } | Op::Unlock { lock } => write!(f, " {lock}"),
            Op::FaseBegin { fase } | Op::FaseEnd { fase } => write!(f, " {fase}"),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_extraction() {
        let a = Addr::pm(8);
        assert_eq!(Op::Load { addr: a }.addr(), Some(a));
        assert_eq!(
            Op::Store {
                addr: a,
                value: ValueSrc::imm(1)
            }
            .addr(),
            Some(a)
        );
        assert_eq!(Op::Clwb { addr: a }.addr(), Some(a));
        assert_eq!(Op::Sfence.addr(), None);
        assert_eq!(Op::Compute { cycles: 3 }.addr(), None);
    }

    #[test]
    fn ordering_and_boundary_classification() {
        for op in [
            Op::Sfence,
            Op::Ofence,
            Op::Dfence,
            Op::SpecBarrier,
            Op::StrandBarrier,
            Op::JoinStrand,
        ] {
            assert!(op.is_ordering_point(), "{op} should order persists");
            assert!(op.is_crash_boundary(), "{op} should be a crash boundary");
        }
        // Boundaries that do not order persists.
        for op in [
            Op::Clwb { addr: Addr::pm(0) },
            Op::Checkpoint,
            Op::FaseBegin { fase: FaseId(0) },
            Op::FaseEnd { fase: FaseId(0) },
        ] {
            assert!(!op.is_ordering_point(), "{op} should not order persists");
            assert!(op.is_crash_boundary(), "{op} should be a crash boundary");
        }
        // Plain data ops are neither.
        for op in [
            Op::Load { addr: Addr::pm(0) },
            Op::Compute { cycles: 1 },
            Op::Lock { lock: LockId(0) },
            Op::NewStrand,
            Op::SpecAssign,
        ] {
            assert!(!op.is_ordering_point(), "{op}");
            assert!(!op.is_crash_boundary(), "{op}");
        }
    }

    #[test]
    fn design_specific_classification() {
        assert!(Op::Sfence.is_design_specific());
        assert!(Op::Dfence.is_design_specific());
        assert!(Op::SpecBarrier.is_design_specific());
        assert!(!Op::Load { addr: Addr::pm(0) }.is_design_specific());
        assert!(!Op::Lock { lock: LockId(0) }.is_design_specific());
    }

    #[test]
    fn value_src_from_u64() {
        let v: ValueSrc = 7u64.into();
        assert_eq!(v, ValueSrc::imm(7));
        assert_eq!(format!("{v:?}"), "Imm(7)");
    }

    #[test]
    fn compact_layout() {
        assert_eq!(std::mem::size_of::<ValueSrc>(), 12);
        assert_eq!(std::mem::size_of::<Op>(), 16);
        assert_eq!(std::mem::size_of::<crate::abs::AbsOp>(), 20);
        assert_eq!(std::mem::size_of::<Option<Op>>(), 16);
    }

    #[test]
    fn negative_deltas_wrap_like_the_u64_add() {
        let mem = |_: Addr| 5u64;
        let dec = ValueSrc::OldPlus {
            addr: Addr::pm(0),
            delta: -1,
        };
        assert_eq!(dec.resolve(mem), 5u64.wrapping_add(u64::MAX));
        let zero = |_: Addr| 0u64;
        assert_eq!(dec.resolve(zero), u64::MAX);
        let min = ValueSrc::OldPlus {
            addr: Addr::pm(0),
            delta: i32::MIN,
        };
        assert_eq!(min.resolve(zero), (i32::MIN as i64) as u64);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Op::Sfence.to_string(), "sfence");
        assert_eq!(ThreadId(2).to_string(), "t2");
        assert_eq!(LockId(1).to_string(), "lock1");
        assert_eq!(FaseId(9).to_string(), "fase9");
        assert!(Op::Load { addr: Addr::pm(0) }.to_string().starts_with("ld"));
    }
}

//! Lowering the abstract IR to per-design instruction streams (Figure 2).
//!
//! | Abstract op | IntelX86 / DPO | HOPS | StrandWeaver | PMEM-Spec |
//! |---|---|---|---|---|
//! | `LogWrite` | `st; clwb` | `st` | `st` | `st` |
//! | `LogOrder`/`DataOrder` | `sfence` | `ofence` | `persist-barrier` | *(nothing — FIFO path)* |
//! | `DataWrite` | `st; clwb` | `st` | `st` | `st` |
//! | `FaseBegin` | marker | marker | marker`; new-strand` | marker |
//! | `FaseEnd` | `sfence` | `dfence` | `join-strand` | `spec-barrier` |
//! | `LockAcquire` | `lock` | `lock` | `lock` | `lock; spec-assign` |
//! | `LockRelease` | `unlock` | `unlock` | `unlock` | `spec-revoke; unlock` |
//!
//! DPO runs the identical instruction stream as IntelX86 (the paper
//! evaluates DPO on unmodified x86 binaries, §8.1); the two differ only in
//! the hardware model. StrandWeaver is an extension beyond the paper's
//! evaluated designs (§9).

use crate::abs::{AbsOp, AbsProgram};
use crate::op::Op;
use crate::program::{Program, ThreadProgram};

/// The four hardware/ISA designs the paper evaluates (§8.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DesignKind {
    /// Epoch persistency with stock x86 `CLWB`/`SFENCE` (the baseline).
    IntelX86,
    /// Delegated Persist Ordering (Kolli et al., MICRO 2016): buffered
    /// strict persistency, persist buffers in the coherence domain,
    /// globally serialized flushes.
    Dpo,
    /// HOPS (Nalli et al., ASPLOS 2017): buffered epoch persistency with
    /// `ofence`/`dfence` and a bloom filter at the PM controller.
    Hops,
    /// This paper's contribution: speculative strict persistency over a
    /// decoupled persist path.
    PmemSpec,
    /// StrandWeaver (Gogte et al., ISCA 2020): strand persistency —
    /// per-core strand buffers whose strands drain concurrently;
    /// `NewStrand` severs ordering dependencies, `persist-barrier` orders
    /// within a strand, `JoinStrand` is the durability point. The paper's
    /// §9 comparison; an extension beyond its evaluated designs.
    StrandWeaver,
}

impl DesignKind {
    /// The four designs the paper evaluates (§8.1), in presentation
    /// order.
    pub const ALL: [DesignKind; 4] = [
        DesignKind::IntelX86,
        DesignKind::Dpo,
        DesignKind::Hops,
        DesignKind::PmemSpec,
    ];

    /// All five implemented designs, including the StrandWeaver extension.
    pub const ALL_EXTENDED: [DesignKind; 5] = [
        DesignKind::IntelX86,
        DesignKind::Dpo,
        DesignKind::Hops,
        DesignKind::StrandWeaver,
        DesignKind::PmemSpec,
    ];

    /// Short label used in reports and CSV headers.
    pub fn label(self) -> &'static str {
        match self {
            DesignKind::IntelX86 => "IntelX86",
            DesignKind::Dpo => "DPO",
            DesignKind::Hops => "HOPS",
            DesignKind::PmemSpec => "PMEM-Spec",
            DesignKind::StrandWeaver => "StrandWeaver",
        }
    }

    /// Whether a design-specific op may appear in this design's programs.
    pub fn allows(self, op: &Op) -> bool {
        match self {
            DesignKind::IntelX86 | DesignKind::Dpo => {
                matches!(op, Op::Clwb { .. } | Op::Sfence)
            }
            DesignKind::Hops => matches!(op, Op::Ofence | Op::Dfence),
            DesignKind::PmemSpec => {
                matches!(op, Op::SpecBarrier | Op::SpecAssign | Op::SpecRevoke)
            }
            DesignKind::StrandWeaver => {
                matches!(op, Op::NewStrand | Op::JoinStrand | Op::StrandBarrier)
            }
        }
    }
}

impl std::fmt::Display for DesignKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which formal persistency model a design implements, in the sense of
/// Khyzha & Lahav's *Taming x86-TSO Persistency* taxonomy. Litmus
/// expectations are keyed on this: designs in one class share the same
/// allowed/forbidden persisted-outcome sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PersistencyClass {
    /// Persist order == (buffered) store order: DPO delegates ordering to
    /// in-coherence-domain buffers, PMEM-Spec speculates over a FIFO
    /// persist path — neither lets two same-thread PM stores persist out
    /// of order.
    Strict,
    /// Persists reorder freely *within* an epoch and are ordered only
    /// across fence-delimited epochs: stock x86 CLWB/SFENCE and HOPS
    /// ofence/dfence.
    Epoch,
    /// Strand persistency: ordering holds within a strand (between
    /// persist-barriers); distinct strands drain concurrently. Within one
    /// strand, outcomes look epoch-like between barriers.
    Strand,
}

impl DesignKind {
    /// The persistency model this design presents to crash observers.
    pub fn persistency_class(self) -> PersistencyClass {
        match self {
            DesignKind::Dpo | DesignKind::PmemSpec => PersistencyClass::Strict,
            DesignKind::IntelX86 | DesignKind::Hops => PersistencyClass::Epoch,
            DesignKind::StrandWeaver => PersistencyClass::Strand,
        }
    }
}

/// The abstract-level intent behind one lowered op: which kind of
/// abstract op the lowering emitted it for. Produced alongside the op
/// stream by [`lower_program_with_meta`] so static analyses can key
/// persist obligations on what the program *meant* (log vs. data store,
/// ordering point, durability barrier) instead of reverse-engineering
/// intent from the instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpRole {
    /// A PM store realizing an [`AbsOp::LogWrite`].
    Log,
    /// A PM store realizing an [`AbsOp::DataWrite`].
    Data,
    /// A `CLWB` covering the line of a preceding PM store.
    Flush,
    /// A fence realizing [`AbsOp::LogOrder`] or [`AbsOp::DataOrder`].
    Order,
    /// The durability barrier emitted at a FASE end.
    Durability,
    /// A DRAM store.
    Volatile,
    /// A load (PM or DRAM).
    Read,
    /// Busy compute.
    Compute,
    /// A recovery checkpoint marker.
    Checkpoint,
    /// Mutex acquire.
    Lock,
    /// Mutex release.
    Unlock,
    /// PMEM-Spec `spec-assign` (inserted after the lock).
    SpecAssign,
    /// PMEM-Spec `spec-revoke` (inserted before the unlock).
    SpecRevoke,
    /// StrandWeaver `new-strand` at a FASE begin.
    NewStrand,
    /// The FASE begin marker.
    FaseBegin,
    /// The FASE end marker.
    FaseEnd,
}

/// Lowering metadata for one lowered op: its role plus the index of the
/// abstract op it realizes. Several lowered ops may share one abstract
/// index (`st; clwb`, `lock; spec-assign`, barrier + marker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMeta {
    /// What the op realizes.
    pub role: OpRole,
    /// Index into the thread's abstract op list.
    pub abs_index: u32,
}

/// Lowering metadata for one thread, aligned with its lowered op stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadMeta {
    /// `ops[i]` describes the thread's `i`-th lowered op.
    pub ops: Vec<OpMeta>,
    /// Abstract indices of every [`AbsOp::LogOrder`]/[`AbsOp::DataOrder`],
    /// in program order — recorded even when the design emits nothing for
    /// them (PMEM-Spec's FIFO path): the *obligation* that earlier
    /// persists order before later ones exists regardless of whether the
    /// design needs an instruction to realize it.
    pub order_points: Vec<u32>,
}

/// Lowering metadata for a whole program, aligned with [`Program`]'s
/// threads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramMeta {
    /// One entry per thread, in [`Program`] thread order.
    pub threads: Vec<ThreadMeta>,
}

/// Lowers one thread's abstract ops for `design`, filling `meta` when
/// given.
///
/// On IntelX86/DPO, consecutive PM stores to one cache line share a single
/// trailing `CLWB` (what a compiler or PM library emits); the pending CLWB
/// is flushed before any op that leaves the line.
fn lower_thread(
    design: DesignKind,
    abs_ops: &[AbsOp],
    mut meta: Option<&mut ThreadMeta>,
) -> ThreadProgram {
    let wants_clwb = matches!(design, DesignKind::IntelX86 | DesignKind::Dpo);
    let mut ops = Vec::with_capacity(abs_ops.len() * 2);
    let with_meta = meta.is_some();
    if let Some(m) = meta.as_deref_mut() {
        m.ops.reserve(abs_ops.len() * 2);
    }
    // The pending CLWB's address, plus the abstract index of the last
    // store it covers (its provenance in the metadata).
    let mut pending_clwb: Option<(crate::addr::Addr, u32)> = None;
    let mut emit = |ops: &mut Vec<Op>, op: Op, role: OpRole, abs_index: u32| {
        ops.push(op);
        if let Some(m) = meta.as_deref_mut() {
            m.ops.push(OpMeta { role, abs_index });
        }
    };
    let mut order_points = Vec::new();
    for (ai, &a) in abs_ops.iter().enumerate() {
        let ai = ai as u32;
        // Any op other than a PM store to the same line closes the
        // pending CLWB first.
        match a {
            AbsOp::LogWrite { addr, .. } | AbsOp::DataWrite { addr, .. }
                if pending_clwb.is_some_and(|(p, _)| p.line() == addr.line()) => {}
            _ => {
                if let Some((addr, covered)) = pending_clwb.take() {
                    emit(&mut ops, Op::Clwb { addr }, OpRole::Flush, covered);
                }
            }
        }
        let mut emit = |op: Op, role: OpRole| emit(&mut ops, op, role, ai);
        match a {
            AbsOp::LogWrite { addr, value } | AbsOp::DataWrite { addr, value } => {
                let role = if matches!(a, AbsOp::LogWrite { .. }) {
                    OpRole::Log
                } else {
                    OpRole::Data
                };
                emit(Op::Store { addr, value }, role);
                if wants_clwb {
                    pending_clwb = Some((addr, ai));
                }
            }
            AbsOp::LogOrder | AbsOp::DataOrder => {
                if with_meta {
                    order_points.push(ai);
                }
                match design {
                    DesignKind::IntelX86 | DesignKind::Dpo => emit(Op::Sfence, OpRole::Order),
                    DesignKind::Hops => emit(Op::Ofence, OpRole::Order),
                    DesignKind::StrandWeaver => emit(Op::StrandBarrier, OpRole::Order),
                    // The FIFO persist path preserves intra-thread order;
                    // nothing to emit (§4.2).
                    DesignKind::PmemSpec => {}
                }
            }
            AbsOp::PmRead { addr } | AbsOp::VolatileRead { addr } => {
                emit(Op::Load { addr }, OpRole::Read);
            }
            AbsOp::VolatileWrite { addr, value } => {
                emit(Op::Store { addr, value }, OpRole::Volatile);
            }
            AbsOp::Compute { cycles } => emit(Op::Compute { cycles }, OpRole::Compute),
            AbsOp::Checkpoint => emit(Op::Checkpoint, OpRole::Checkpoint),
            AbsOp::LockAcquire { lock } => {
                emit(Op::Lock { lock }, OpRole::Lock);
                if design == DesignKind::PmemSpec {
                    emit(Op::SpecAssign, OpRole::SpecAssign);
                }
            }
            AbsOp::LockRelease { lock } => {
                if design == DesignKind::PmemSpec {
                    emit(Op::SpecRevoke, OpRole::SpecRevoke);
                }
                emit(Op::Unlock { lock }, OpRole::Unlock);
            }
            AbsOp::FaseBegin { fase } => {
                emit(Op::FaseBegin { fase }, OpRole::FaseBegin);
                if design == DesignKind::StrandWeaver {
                    // Each FASE is its own strand: its persists carry no
                    // dependency on the previous FASE's tail.
                    emit(Op::NewStrand, OpRole::NewStrand);
                }
            }
            AbsOp::FaseEnd { fase } => {
                match design {
                    DesignKind::IntelX86 | DesignKind::Dpo => emit(Op::Sfence, OpRole::Durability),
                    DesignKind::Hops => emit(Op::Dfence, OpRole::Durability),
                    DesignKind::PmemSpec => emit(Op::SpecBarrier, OpRole::Durability),
                    DesignKind::StrandWeaver => emit(Op::JoinStrand, OpRole::Durability),
                }
                emit(Op::FaseEnd { fase }, OpRole::FaseEnd);
            }
        }
    }
    if let Some((addr, covered)) = pending_clwb {
        emit(&mut ops, Op::Clwb { addr }, OpRole::Flush, covered);
    }
    if let Some(m) = meta {
        debug_assert_eq!(ops.len(), m.ops.len(), "metadata aligns with ops");
        m.order_points = order_points;
    }
    ThreadProgram::new(ops)
}

/// Lowers an abstract program for `design`.
///
/// The result always passes [`Program::validate`]; a debug assertion
/// enforces this during development.
///
/// # Examples
///
/// ```
/// use pmemspec_isa::{AbsThread, AbsProgram, Addr, DesignKind, lower_program};
///
/// let mut t = AbsThread::new();
/// t.begin_fase();
/// t.log_write(Addr::pm(0), 1u64).log_order().data_write(Addr::pm(64), 2u64);
/// t.end_fase();
/// let mut p = AbsProgram::new();
/// p.add_thread(t);
///
/// let x86 = lower_program(DesignKind::IntelX86, &p);
/// let spec = lower_program(DesignKind::PmemSpec, &p);
/// // The x86 stream carries CLWB+SFENCE; PMEM-Spec carries neither.
/// assert!(x86.len() > spec.len());
/// ```
pub fn lower_program(design: DesignKind, program: &AbsProgram) -> Program {
    lower(design, program, None)
}

/// Lowers an abstract program for `design`, also returning per-op
/// lowering metadata (see [`OpMeta`]).
///
/// The [`Program`] is identical to [`lower_program`]'s output; the
/// [`ProgramMeta`] carries, aligned with each thread's op stream, the
/// role each lowered op plays and the abstract op it realizes, plus the
/// thread's ordering points. The static analyzer keys its persist
/// obligations on this.
pub fn lower_program_with_meta(design: DesignKind, program: &AbsProgram) -> (Program, ProgramMeta) {
    let mut meta = ProgramMeta {
        threads: vec![ThreadMeta::default(); program.thread_count()],
    };
    let lowered = lower(design, program, Some(&mut meta));
    (lowered, meta)
}

/// The one lowering pass behind [`lower_program`] and
/// [`lower_program_with_meta`]; `meta`, when given, has one entry per
/// thread.
fn lower(design: DesignKind, program: &AbsProgram, mut meta: Option<&mut ProgramMeta>) -> Program {
    let threads = program
        .threads()
        .enumerate()
        .map(|(i, ops)| {
            let tm = meta.as_deref_mut().map(|m| &mut m.threads[i]);
            lower_thread(design, ops, tm)
        })
        .collect();
    let lowered = Program::new(design, threads);
    debug_assert!(
        lowered.validate().is_ok(),
        "lowering produced an invalid program: {:?}",
        lowered.validate()
    );
    lowered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abs::AbsThread;
    use crate::addr::Addr;
    use crate::op::{LockId, ValueSrc};

    /// A representative FASE: lock, log, order, data, unlock, end.
    fn sample_program() -> AbsProgram {
        let mut t = AbsThread::new();
        t.begin_fase();
        t.acquire(LockId(0));
        t.log_write(Addr::pm(0), ValueSrc::OldOf(Addr::pm(64)));
        t.log_order();
        t.data_write(Addr::pm(64), 9u64);
        t.pm_read(Addr::pm(128));
        t.release(LockId(0));
        t.end_fase();
        let mut p = AbsProgram::new();
        p.add_thread(t);
        p
    }

    fn lowered_ops(design: DesignKind) -> Vec<Op> {
        lower_program(design, &sample_program())
            .thread(0)
            .ops()
            .to_vec()
    }

    #[test]
    fn all_lowerings_validate() {
        for d in DesignKind::ALL {
            assert!(
                lower_program(d, &sample_program()).validate().is_ok(),
                "{d}"
            );
        }
    }

    #[test]
    fn intel_emits_clwb_sfence() {
        let ops = lowered_ops(DesignKind::IntelX86);
        let clwbs = ops.iter().filter(|o| matches!(o, Op::Clwb { .. })).count();
        let sfences = ops.iter().filter(|o| matches!(o, Op::Sfence)).count();
        assert_eq!(clwbs, 2, "one CLWB per PM store");
        assert_eq!(sfences, 2, "log-order + durability");
        assert!(!ops
            .iter()
            .any(|o| matches!(o, Op::SpecBarrier | Op::Dfence)));
    }

    #[test]
    fn dpo_streams_match_intel() {
        assert_eq!(
            lowered_ops(DesignKind::Dpo),
            lowered_ops(DesignKind::IntelX86)
        );
    }

    #[test]
    fn hops_emits_ofence_dfence_no_clwb() {
        let ops = lowered_ops(DesignKind::Hops);
        assert!(ops.iter().any(|o| matches!(o, Op::Ofence)));
        assert!(ops.iter().any(|o| matches!(o, Op::Dfence)));
        assert!(!ops
            .iter()
            .any(|o| matches!(o, Op::Clwb { .. } | Op::Sfence)));
    }

    #[test]
    fn pmemspec_emits_only_spec_barrier_and_tags() {
        let ops = lowered_ops(DesignKind::PmemSpec);
        assert!(!ops
            .iter()
            .any(|o| matches!(o, Op::Clwb { .. } | Op::Sfence | Op::Ofence | Op::Dfence)));
        assert_eq!(
            ops.iter().filter(|o| matches!(o, Op::SpecBarrier)).count(),
            1
        );
        // spec-assign follows the lock; spec-revoke precedes the unlock.
        let lock = ops
            .iter()
            .position(|o| matches!(o, Op::Lock { .. }))
            .unwrap();
        assert!(matches!(ops[lock + 1], Op::SpecAssign));
        let unlock = ops
            .iter()
            .position(|o| matches!(o, Op::Unlock { .. }))
            .unwrap();
        assert!(matches!(ops[unlock - 1], Op::SpecRevoke));
    }

    #[test]
    fn pmemspec_stream_is_shortest() {
        let spec = lowered_ops(DesignKind::PmemSpec).len();
        let x86 = lowered_ops(DesignKind::IntelX86).len();
        let hops = lowered_ops(DesignKind::Hops).len();
        // x86 carries 2 CLWBs + 1 extra fence vs HOPS' 2 fences; PMEM-Spec
        // adds assign/revoke but drops the ordering fence entirely.
        assert!(x86 > hops);
        assert!(x86 > spec);
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(DesignKind::PmemSpec.label(), "PMEM-Spec");
        assert_eq!(DesignKind::Hops.to_string(), "HOPS");
        assert_eq!(DesignKind::ALL.len(), 4);
    }

    #[test]
    fn meta_aligns_with_ops_and_keeps_order_points() {
        for d in DesignKind::ALL_EXTENDED {
            let (p, meta) = lower_program_with_meta(d, &sample_program());
            assert_eq!(meta.threads.len(), p.thread_count(), "{d}");
            let tm = &meta.threads[0];
            let ops = p.thread(0).ops();
            assert_eq!(tm.ops.len(), ops.len(), "{d}: meta aligned with ops");
            // The log-order obligation is recorded even when nothing is
            // emitted for it (PMEM-Spec).
            assert_eq!(tm.order_points, vec![3], "{d}: one LogOrder at abs 3");
            for (op, m) in ops.iter().zip(&tm.ops) {
                let ok = match m.role {
                    OpRole::Log | OpRole::Data | OpRole::Volatile => {
                        matches!(op, Op::Store { .. })
                    }
                    OpRole::Flush => matches!(op, Op::Clwb { .. }),
                    OpRole::Order => {
                        matches!(op, Op::Sfence | Op::Ofence | Op::StrandBarrier)
                    }
                    OpRole::Durability => matches!(
                        op,
                        Op::Sfence | Op::Dfence | Op::SpecBarrier | Op::JoinStrand
                    ),
                    OpRole::Read => matches!(op, Op::Load { .. }),
                    OpRole::Compute => matches!(op, Op::Compute { .. }),
                    OpRole::Checkpoint => matches!(op, Op::Checkpoint),
                    OpRole::Lock => matches!(op, Op::Lock { .. }),
                    OpRole::Unlock => matches!(op, Op::Unlock { .. }),
                    OpRole::SpecAssign => matches!(op, Op::SpecAssign),
                    OpRole::SpecRevoke => matches!(op, Op::SpecRevoke),
                    OpRole::NewStrand => matches!(op, Op::NewStrand),
                    OpRole::FaseBegin => matches!(op, Op::FaseBegin { .. }),
                    OpRole::FaseEnd => matches!(op, Op::FaseEnd { .. }),
                };
                assert!(ok, "{d}: role {:?} mismatches op {op:?}", m.role);
            }
            // Abstract indices are monotone (several ops may share one).
            let idx: Vec<u32> = tm.ops.iter().map(|m| m.abs_index).collect();
            assert!(idx.windows(2).all(|w| w[0] <= w[1]), "{d}: {idx:?}");
        }
    }

    #[test]
    fn with_meta_program_matches_plain_lowering() {
        for d in DesignKind::ALL_EXTENDED {
            let plain = lower_program(d, &sample_program());
            let (with_meta, _) = lower_program_with_meta(d, &sample_program());
            assert_eq!(plain, with_meta, "{d}");
        }
    }

    #[test]
    fn allows_matrix() {
        use DesignKind::*;
        let clwb = Op::Clwb { addr: Addr::pm(0) };
        assert!(IntelX86.allows(&clwb));
        assert!(Dpo.allows(&clwb));
        assert!(!Hops.allows(&clwb));
        assert!(!PmemSpec.allows(&clwb));
        assert!(Hops.allows(&Op::Dfence));
        assert!(!Hops.allows(&Op::SpecBarrier));
        assert!(PmemSpec.allows(&Op::SpecAssign));
    }
}

//! The abstract persistent-program IR.
//!
//! Workloads describe *what* they do — log writes, ordering requirements,
//! data writes, reads, critical sections, FASE boundaries — without naming
//! any design-specific primitive. The [`crate::lower`] pass then emits the
//! concrete instruction stream for each evaluated design (Figure 2 of the
//! paper).
//!
//! The IR is deliberately flat (a `Vec<AbsOp>` per thread): workloads are
//! generated ahead of time with a seeded RNG, so no control flow is needed
//! in the IR itself. Re-execution on abort is handled by the simulator
//! jumping back to the FASE begin marker.

use std::fmt;

use crate::addr::Addr;
use crate::op::{FaseId, LockId, ValueSrc};

/// One abstract operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsOp {
    /// A PM store belonging to the *log* phase of a FASE.
    LogWrite { addr: Addr, value: ValueSrc },
    /// The ordering point between the log phase and the data phase: the
    /// log must be persistent-memory-ordered before any following data
    /// write. Lowered to `SFENCE` / `ofence` / nothing, per design.
    LogOrder,
    /// The ordering point between the data phase and log truncation: data
    /// must be persistent-memory-ordered before the log is invalidated.
    /// Lowered like [`AbsOp::LogOrder`].
    DataOrder,
    /// A PM store to application data.
    DataWrite { addr: Addr, value: ValueSrc },
    /// A PM load.
    PmRead { addr: Addr },
    /// A DRAM load (index structures, metadata).
    VolatileRead { addr: Addr },
    /// A DRAM store.
    VolatileWrite { addr: Addr, value: ValueSrc },
    /// Busy compute for the given core cycles.
    Compute { cycles: u32 },
    /// Acquire a mutex. For PMEM-Spec this is also where `spec-assign`
    /// is inserted by the compiler.
    LockAcquire { lock: LockId },
    /// Release a mutex (PMEM-Spec inserts `spec-revoke` before it).
    LockRelease { lock: LockId },
    /// A recovery checkpoint inside a FASE (§6.3): on misspeculation the
    /// runtime resumes here instead of the FASE beginning.
    Checkpoint,
    /// Begin a failure-atomic section.
    FaseBegin { fase: FaseId },
    /// End a failure-atomic section. Lowered to the design's durability
    /// barrier followed by the marker.
    FaseEnd { fase: FaseId },
}

impl fmt::Display for AbsOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbsOp::LogWrite { addr, .. } => write!(f, "log-write {addr}"),
            AbsOp::LogOrder => write!(f, "log-order"),
            AbsOp::DataOrder => write!(f, "data-order"),
            AbsOp::DataWrite { addr, .. } => write!(f, "data-write {addr}"),
            AbsOp::PmRead { addr } => write!(f, "pm-read {addr}"),
            AbsOp::VolatileRead { addr } => write!(f, "vread {addr}"),
            AbsOp::VolatileWrite { addr, .. } => write!(f, "vwrite {addr}"),
            AbsOp::Compute { cycles } => write!(f, "compute {cycles}"),
            AbsOp::LockAcquire { lock } => write!(f, "acquire {lock}"),
            AbsOp::LockRelease { lock } => write!(f, "release {lock}"),
            AbsOp::Checkpoint => write!(f, "checkpoint"),
            AbsOp::FaseBegin { fase } => write!(f, "fase-begin {fase}"),
            AbsOp::FaseEnd { fase } => write!(f, "fase-end {fase}"),
        }
    }
}

/// The abstract program of one thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AbsThread {
    ops: Vec<AbsOp>,
    next_fase: u64,
    open_fase: Option<FaseId>,
    held_locks: Vec<LockId>,
}

impl AbsThread {
    /// Creates an empty thread program.
    pub fn new() -> Self {
        AbsThread::default()
    }

    /// The operations recorded so far.
    pub fn ops(&self) -> &[AbsOp] {
        &self.ops
    }

    /// Appends a raw op. Prefer the structured helpers below; this is for
    /// tests and unusual shapes.
    pub fn push(&mut self, op: AbsOp) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Opens a new FASE and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a FASE is already open (FASEs do not nest in the paper's
    /// benchmarks), or if the thread already holds 2^32 FASEs, the most a
    /// [`FaseId`] numbers.
    pub fn begin_fase(&mut self) -> FaseId {
        assert!(self.open_fase.is_none(), "FASEs do not nest");
        let id = FaseId(
            u32::try_from(self.next_fase)
                .unwrap_or_else(|_| panic!("FASE ids are u32: a thread holds at most 2^32 FASEs")),
        );
        self.next_fase += 1;
        self.open_fase = Some(id);
        self.ops.push(AbsOp::FaseBegin { fase: id });
        id
    }

    /// Closes the open FASE.
    ///
    /// # Panics
    ///
    /// Panics if no FASE is open or locks acquired inside it are still
    /// held (the runtime's abort handler requires lock release inside the
    /// FASE body).
    pub fn end_fase(&mut self) {
        let id = self.open_fase.take().expect("no FASE open");
        assert!(
            self.held_locks.is_empty(),
            "locks must be released before the FASE ends"
        );
        self.ops.push(AbsOp::FaseEnd { fase: id });
    }

    /// Records a log write (PM address required).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not in PM or no FASE is open.
    pub fn log_write(&mut self, addr: Addr, value: impl Into<ValueSrc>) -> &mut Self {
        assert!(addr.is_pm(), "log writes must target PM");
        assert!(self.open_fase.is_some(), "log writes belong inside a FASE");
        self.ops.push(AbsOp::LogWrite {
            addr,
            value: value.into(),
        });
        self
    }

    /// Records the log→data ordering point.
    pub fn log_order(&mut self) -> &mut Self {
        self.ops.push(AbsOp::LogOrder);
        self
    }

    /// Records the data→truncation ordering point.
    pub fn data_order(&mut self) -> &mut Self {
        self.ops.push(AbsOp::DataOrder);
        self
    }

    /// Records a PM data write.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not in PM.
    pub fn data_write(&mut self, addr: Addr, value: impl Into<ValueSrc>) -> &mut Self {
        assert!(addr.is_pm(), "data writes must target PM");
        self.ops.push(AbsOp::DataWrite {
            addr,
            value: value.into(),
        });
        self
    }

    /// Records a PM read.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not in PM.
    pub fn pm_read(&mut self, addr: Addr) -> &mut Self {
        assert!(addr.is_pm(), "pm_read must target PM");
        self.ops.push(AbsOp::PmRead { addr });
        self
    }

    /// Records a DRAM read.
    pub fn volatile_read(&mut self, addr: Addr) -> &mut Self {
        assert!(!addr.is_pm(), "volatile_read must target DRAM");
        self.ops.push(AbsOp::VolatileRead { addr });
        self
    }

    /// Records a DRAM write.
    pub fn volatile_write(&mut self, addr: Addr, value: impl Into<ValueSrc>) -> &mut Self {
        assert!(!addr.is_pm(), "volatile_write must target DRAM");
        self.ops.push(AbsOp::VolatileWrite {
            addr,
            value: value.into(),
        });
        self
    }

    /// Records a recovery checkpoint (§6.3).
    ///
    /// # Panics
    ///
    /// Panics if no FASE is open.
    pub fn checkpoint(&mut self) -> &mut Self {
        assert!(self.open_fase.is_some(), "checkpoints belong inside a FASE");
        self.ops.push(AbsOp::Checkpoint);
        self
    }

    /// Records busy compute.
    pub fn compute(&mut self, cycles: u32) -> &mut Self {
        self.ops.push(AbsOp::Compute { cycles });
        self
    }

    /// Acquires a mutex.
    ///
    /// # Panics
    ///
    /// Panics if the lock is already held by this thread.
    pub fn acquire(&mut self, lock: LockId) -> &mut Self {
        assert!(!self.held_locks.contains(&lock), "{lock} already held");
        self.held_locks.push(lock);
        self.ops.push(AbsOp::LockAcquire { lock });
        self
    }

    /// Releases a mutex.
    ///
    /// # Panics
    ///
    /// Panics if the lock is not held.
    pub fn release(&mut self, lock: LockId) -> &mut Self {
        let pos = self
            .held_locks
            .iter()
            .position(|&l| l == lock)
            .unwrap_or_else(|| panic!("{lock} not held"));
        self.held_locks.remove(pos);
        self.ops.push(AbsOp::LockRelease { lock });
        self
    }

    /// Number of FASEs recorded.
    pub fn fase_count(&self) -> u64 {
        self.next_fase
    }

    /// Finishes construction.
    ///
    /// # Panics
    ///
    /// Panics if a FASE or lock is left open.
    pub fn finish(self) -> Vec<AbsOp> {
        assert!(self.open_fase.is_none(), "unclosed FASE");
        assert!(self.held_locks.is_empty(), "unreleased locks");
        self.ops
    }
}

/// A complete abstract program: one op list per thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AbsProgram {
    threads: Vec<Vec<AbsOp>>,
}

impl AbsProgram {
    /// Creates an empty program.
    pub fn new() -> Self {
        AbsProgram::default()
    }

    /// Adds a thread built with [`AbsThread`]; returns its index.
    pub fn add_thread(&mut self, thread: AbsThread) -> usize {
        self.threads.push(thread.finish());
        self.threads.len() - 1
    }

    /// Number of threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The ops of thread `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn thread(&self, i: usize) -> &[AbsOp] {
        &self.threads[i]
    }

    /// Iterates all threads' op lists.
    pub fn threads(&self) -> impl Iterator<Item = &[AbsOp]> {
        self.threads.iter().map(Vec::as_slice)
    }

    /// Total abstract ops across all threads.
    pub fn len(&self) -> usize {
        self.threads.iter().map(Vec::len).sum()
    }

    /// True when no thread has any ops.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pm(off: u64) -> Addr {
        Addr::pm(off)
    }

    #[test]
    fn builder_produces_expected_sequence() {
        let mut t = AbsThread::new();
        let fase = t.begin_fase();
        t.log_write(pm(0), ValueSrc::OldOf(pm(64)))
            .log_order()
            .data_write(pm(64), 7u64);
        t.end_fase();
        let ops = t.finish();
        assert_eq!(ops[0], AbsOp::FaseBegin { fase });
        assert!(matches!(ops[1], AbsOp::LogWrite { .. }));
        assert_eq!(ops[2], AbsOp::LogOrder);
        assert!(matches!(ops[3], AbsOp::DataWrite { .. }));
        assert_eq!(ops[4], AbsOp::FaseEnd { fase });
    }

    #[test]
    fn fase_ids_increment() {
        let mut t = AbsThread::new();
        let a = t.begin_fase();
        t.end_fase();
        let b = t.begin_fase();
        t.end_fase();
        assert_eq!(a, FaseId(0));
        assert_eq!(b, FaseId(1));
        assert_eq!(t.fase_count(), 2);
    }

    #[test]
    #[should_panic(expected = "at most 2^32 FASEs")]
    fn fase_ids_past_u32_panic() {
        let mut t = AbsThread::new();
        t.next_fase = u64::from(u32::MAX);
        assert_eq!(t.begin_fase(), FaseId(u32::MAX));
        t.end_fase();
        t.begin_fase();
    }

    #[test]
    #[should_panic(expected = "nest")]
    fn nested_fase_panics() {
        let mut t = AbsThread::new();
        t.begin_fase();
        t.begin_fase();
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn unclosed_fase_panics_on_finish() {
        let mut t = AbsThread::new();
        t.begin_fase();
        t.finish();
    }

    #[test]
    #[should_panic(expected = "released")]
    fn lock_escaping_fase_panics() {
        let mut t = AbsThread::new();
        t.begin_fase();
        t.acquire(LockId(0));
        t.end_fase();
    }

    #[test]
    #[should_panic(expected = "target PM")]
    fn log_write_to_dram_panics() {
        let mut t = AbsThread::new();
        t.begin_fase();
        t.log_write(Addr::dram(0), 1u64);
    }

    #[test]
    fn lock_pairing_enforced() {
        let mut t = AbsThread::new();
        t.begin_fase();
        t.acquire(LockId(3));
        t.data_write(pm(0), 1u64);
        t.release(LockId(3));
        t.end_fase();
        let ops = t.finish();
        assert!(matches!(ops[1], AbsOp::LockAcquire { lock: LockId(3) }));
        assert!(matches!(ops[3], AbsOp::LockRelease { lock: LockId(3) }));
    }

    #[test]
    fn program_accumulates_threads() {
        let mut p = AbsProgram::new();
        let mut t = AbsThread::new();
        t.begin_fase();
        t.data_write(pm(0), 1u64);
        t.end_fase();
        let idx = p.add_thread(t);
        assert_eq!(idx, 0);
        assert_eq!(p.thread_count(), 1);
        assert_eq!(p.thread(0).len(), 3);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }
}

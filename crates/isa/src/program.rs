//! Lowered per-thread programs and their validation.

use std::collections::HashSet;

use crate::addr::Addr;
use crate::lower::DesignKind;
use crate::op::{FaseId, LockId, Op};

/// The lowered instruction stream of one thread, with FASE markers intact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadProgram {
    ops: Vec<Op>,
}

impl ThreadProgram {
    /// Wraps an op list.
    pub fn new(ops: Vec<Op>) -> Self {
        ThreadProgram { ops }
    }

    /// The instruction stream.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Instruction count.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the thread does nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of `FaseBegin` markers.
    pub fn fase_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::FaseBegin { .. }))
            .count()
    }
}

/// A complete lowered program for a specific design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    design: DesignKind,
    threads: Vec<ThreadProgram>,
    /// Success-cache for [`Program::validate`]: programs are immutable
    /// after construction, so a program that passed once never needs
    /// re-checking (the same lowered program is simulated many times
    /// across a sweep).
    valid: ValidCache,
}

/// A "validation passed" flag that stays invisible to the value
/// semantics of [`Program`]: equal on every comparison, carried across
/// clones (a clone of a valid program is valid).
#[derive(Default)]
struct ValidCache(std::sync::atomic::AtomicBool);

impl ValidCache {
    fn passed(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn mark(&self) {
        self.0.store(true, std::sync::atomic::Ordering::Relaxed);
    }
}

impl Clone for ValidCache {
    fn clone(&self) -> Self {
        ValidCache(std::sync::atomic::AtomicBool::new(self.passed()))
    }
}

impl PartialEq for ValidCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for ValidCache {}

impl std::fmt::Debug for ValidCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ValidCache").field(&self.passed()).finish()
    }
}

/// A structural problem found by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateProgramError {
    /// Offending thread index.
    pub thread: usize,
    /// Offending op index within the thread, when applicable.
    pub op_index: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ValidateProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.op_index {
            Some(i) => write!(f, "thread {} op {}: {}", self.thread, i, self.message),
            None => write!(f, "thread {}: {}", self.thread, self.message),
        }
    }
}

impl std::error::Error for ValidateProgramError {}

impl Program {
    /// Wraps lowered threads for `design`.
    pub fn new(design: DesignKind, threads: Vec<ThreadProgram>) -> Self {
        Program {
            design,
            threads,
            valid: ValidCache::default(),
        }
    }

    /// The design this program was lowered for.
    pub fn design(&self) -> DesignKind {
        self.design
    }

    /// Number of threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The program of thread `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn thread(&self, i: usize) -> &ThreadProgram {
        &self.threads[i]
    }

    /// Iterates all thread programs.
    pub fn threads(&self) -> impl Iterator<Item = &ThreadProgram> {
        self.threads.iter()
    }

    /// Total instruction count across threads.
    pub fn len(&self) -> usize {
        self.threads.iter().map(ThreadProgram::len).sum()
    }

    /// True when no thread has instructions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All distinct PM addresses stored to anywhere in the program.
    pub fn pm_store_footprint(&self) -> HashSet<Addr> {
        let mut set = HashSet::new();
        for t in &self.threads {
            for op in t.ops() {
                if let Op::Store { addr, .. } = *op {
                    if addr.is_pm() {
                        set.insert(addr);
                    }
                }
            }
        }
        set
    }

    /// Checks structural well-formedness:
    ///
    /// * FASE begin/end markers are balanced, non-nested, and id-ordered;
    /// * locks are acquired before release and released by FASE end;
    /// * only the ops belonging to this design appear (e.g. no `dfence` in
    ///   an IntelX86 program, no `CLWB` in a PMEM-Spec program);
    /// * PMEM-Spec `spec-assign`/`spec-revoke` are properly paired.
    ///
    /// # Errors
    ///
    /// Returns the first problem found.
    pub fn validate(&self) -> Result<(), ValidateProgramError> {
        if self.valid.passed() {
            return Ok(());
        }
        for (ti, t) in self.threads.iter().enumerate() {
            let err = |op_index: Option<usize>, message: String| ValidateProgramError {
                thread: ti,
                op_index,
                message,
            };
            let mut open_fase: Option<FaseId> = None;
            let mut next_fase = 0u64;
            let mut held: Vec<LockId> = Vec::new();
            let mut spec_tagged = false;
            for (oi, op) in t.ops().iter().enumerate() {
                if op.is_design_specific() && !self.design.allows(op) {
                    return Err(err(
                        Some(oi),
                        format!("op `{op}` is not part of the {:?} design", self.design),
                    ));
                }
                match *op {
                    Op::FaseBegin { fase } => {
                        if open_fase.is_some() {
                            return Err(err(Some(oi), "nested FASE".into()));
                        }
                        if u64::from(fase.0) != next_fase {
                            return Err(err(
                                Some(oi),
                                format!("FASE ids must be dense: expected {next_fase}, got {fase}"),
                            ));
                        }
                        next_fase += 1;
                        open_fase = Some(fase);
                    }
                    Op::FaseEnd { fase } => {
                        if open_fase != Some(fase) {
                            return Err(err(Some(oi), format!("unmatched fase-end {fase}")));
                        }
                        if !held.is_empty() {
                            return Err(err(Some(oi), "locks still held at fase-end".into()));
                        }
                        open_fase = None;
                    }
                    Op::Lock { lock } => {
                        if held.contains(&lock) {
                            return Err(err(Some(oi), format!("{lock} acquired twice")));
                        }
                        held.push(lock);
                    }
                    Op::Unlock { lock } => {
                        let Some(pos) = held.iter().position(|&l| l == lock) else {
                            return Err(err(Some(oi), format!("{lock} released unheld")));
                        };
                        held.remove(pos);
                    }
                    Op::SpecAssign => {
                        if spec_tagged {
                            return Err(err(Some(oi), "spec-assign without revoke".into()));
                        }
                        spec_tagged = true;
                    }
                    Op::SpecRevoke => {
                        if !spec_tagged {
                            return Err(err(Some(oi), "spec-revoke without assign".into()));
                        }
                        spec_tagged = false;
                    }
                    _ => {}
                }
            }
            if open_fase.is_some() {
                return Err(err(None, "unclosed FASE at end of thread".into()));
            }
            if !held.is_empty() {
                return Err(err(None, "locks held at end of thread".into()));
            }
            if spec_tagged {
                return Err(err(None, "spec-assign never revoked".into()));
            }
        }
        self.valid.mark();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::ValueSrc;

    fn prog(design: DesignKind, ops: Vec<Op>) -> Program {
        Program::new(design, vec![ThreadProgram::new(ops)])
    }

    #[test]
    fn valid_intel_program() {
        let a = Addr::pm(0);
        let p = prog(
            DesignKind::IntelX86,
            vec![
                Op::FaseBegin { fase: FaseId(0) },
                Op::Store {
                    addr: a,
                    value: ValueSrc::imm(1),
                },
                Op::Clwb { addr: a },
                Op::Sfence,
                Op::FaseEnd { fase: FaseId(0) },
            ],
        );
        assert!(p.validate().is_ok());
        assert_eq!(p.len(), 5);
        assert_eq!(p.thread(0).fase_count(), 1);
        assert!(p.pm_store_footprint().contains(&a));
    }

    #[test]
    fn wrong_design_op_rejected() {
        let p = prog(DesignKind::IntelX86, vec![Op::Dfence]);
        let e = p.validate().unwrap_err();
        assert!(e.to_string().contains("dfence"));
    }

    #[test]
    fn clwb_rejected_in_pmemspec() {
        let p = prog(DesignKind::PmemSpec, vec![Op::Clwb { addr: Addr::pm(0) }]);
        assert!(p.validate().is_err());
    }

    #[test]
    fn nested_fase_rejected() {
        let p = prog(
            DesignKind::PmemSpec,
            vec![
                Op::FaseBegin { fase: FaseId(0) },
                Op::FaseBegin { fase: FaseId(1) },
            ],
        );
        assert!(p.validate().is_err());
    }

    #[test]
    fn sparse_fase_ids_rejected() {
        let p = prog(
            DesignKind::PmemSpec,
            vec![
                Op::FaseBegin { fase: FaseId(1) },
                Op::FaseEnd { fase: FaseId(1) },
            ],
        );
        let e = p.validate().unwrap_err();
        assert!(e.message.contains("dense"));
    }

    #[test]
    fn unbalanced_locks_rejected() {
        let p = prog(DesignKind::PmemSpec, vec![Op::Lock { lock: LockId(0) }]);
        assert!(p.validate().is_err());
        let p = prog(DesignKind::PmemSpec, vec![Op::Unlock { lock: LockId(0) }]);
        assert!(p.validate().is_err());
    }

    #[test]
    fn lock_must_release_before_fase_end() {
        let p = prog(
            DesignKind::PmemSpec,
            vec![
                Op::FaseBegin { fase: FaseId(0) },
                Op::Lock { lock: LockId(0) },
                Op::FaseEnd { fase: FaseId(0) },
            ],
        );
        let e = p.validate().unwrap_err();
        assert!(e.message.contains("held"));
    }

    #[test]
    fn spec_assign_pairing() {
        let ok = prog(DesignKind::PmemSpec, vec![Op::SpecAssign, Op::SpecRevoke]);
        assert!(ok.validate().is_ok());
        let bad = prog(DesignKind::PmemSpec, vec![Op::SpecAssign]);
        assert!(bad.validate().is_err());
        let bad = prog(DesignKind::PmemSpec, vec![Op::SpecRevoke]);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn error_display_includes_location() {
        let p = prog(DesignKind::IntelX86, vec![Op::Ofence]);
        let e = p.validate().unwrap_err();
        assert!(e.to_string().contains("thread 0 op 0"));
    }
}

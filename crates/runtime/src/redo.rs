//! Redo logging: a Mnemosyne-style transactional runtime (used by the
//! Vacation and Memcached workloads, Table 4).
//!
//! Per transaction:
//!
//! 1. write one log entry per to-be-modified word holding the *new* value
//!    plus a checksummed header (`LogOrder` orders them);
//! 2. stamp the slot's status word with the sequence number — the commit
//!    record (`DataOrder` orders it before the in-place writes);
//! 3. write the data in place; the end-of-FASE barrier makes everything
//!    durable.
//!
//! Recovery *replays* committed transactions (commit record present but
//! in-place data possibly incomplete) and discards uncommitted ones.
//! Unlike the undo flavour there is no truncation write on the critical
//! path — the commit record doubles as it; slot reuse retires old
//! generations naturally, which is the property Mnemosyne's asynchronous
//! log truncation provides.

use std::collections::HashMap;

use pmemspec_isa::abs::AbsThread;
use pmemspec_isa::addr::Addr;
use pmemspec_isa::op::ValueSrc;

use crate::layout::LogLayout;
use crate::undo::RecoveryOutcome;

/// Emitter/recoverer for the redo discipline over a [`LogLayout`].
///
/// # Examples
///
/// ```
/// use pmemspec_runtime::{LogLayout, RedoLog};
/// use pmemspec_isa::{AbsThread, Addr};
///
/// let redo = RedoLog::new(LogLayout::new(0, 1, 4, 4));
/// let data = Addr::pm(redo.layout().end_offset());
///
/// let mut t = AbsThread::new();
/// t.begin_fase();
/// redo.emit_tx(&mut t, 0, 0, &[(data, 99)]); // log, commit, then write
/// t.end_fase();
/// assert!(t.ops().len() > 5);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RedoLog {
    layout: LogLayout,
}

impl RedoLog {
    /// Wraps a layout.
    pub fn new(layout: LogLayout) -> Self {
        RedoLog { layout }
    }

    /// The layout in use.
    pub fn layout(&self) -> &LogLayout {
        &self.layout
    }

    fn tag(fase_no: u64, entry: usize) -> u64 {
        (LogLayout::seq(fase_no) << 8) | entry as u64
    }

    /// Emits the redo log and commit record for `writes`, then the
    /// in-place data writes. Call inside an open FASE; the caller ends it.
    ///
    /// # Panics
    ///
    /// Panics if more writes than `max_entries` are given.
    pub fn emit_tx(
        &self,
        t: &mut AbsThread,
        thread: usize,
        fase_no: u64,
        writes: &[(Addr, u64)],
    ) -> &Self {
        assert!(
            writes.len() <= self.layout.max_entries,
            "{} writes exceed the {}-entry slot",
            writes.len(),
            self.layout.max_entries
        );
        // Mnemosyne appends its log in sequentially-ordered 64-byte
        // blocks: each block is made persistent-ordered before the next
        // (an SFENCE per block on stock x86). Emit the ordering point at
        // every line boundary — PMEM-Spec's FIFO path lowers these to
        // nothing, which is precisely where its Mnemosyne wins come from
        // (§8.2.1).
        let mut prev_line = None;
        for (e, &(target, value)) in writes.iter().enumerate() {
            let base = self.layout.entry_addr(thread, fase_no, e);
            if prev_line.is_some_and(|p| p != base.line()) {
                t.log_order();
            }
            prev_line = Some(base.offset(16).line());
            t.log_write(base, ValueSrc::imm(target.raw()));
            t.log_write(base.offset(8), ValueSrc::imm(value));
            // The redo header checksums the *new* value, which is known at
            // generation time, so it can be an immediate.
            t.log_write(
                base.offset(16),
                ValueSrc::imm(ValueSrc::log_tag_value(
                    Self::tag(fase_no, e),
                    target,
                    value,
                )),
            );
        }
        t.log_order();
        // Commit record: the slot's status word carries the sequence.
        t.log_write(
            self.layout.status_addr(thread, fase_no),
            ValueSrc::imm(LogLayout::seq(fase_no)),
        );
        t.data_order();
        for &(target, value) in writes {
            t.data_write(target, value);
        }
        self
    }

    /// Recovers a persistent snapshot in place: replays every committed
    /// transaction's logged values (idempotent) and ignores uncommitted
    /// ones. Reuses [`RecoveryOutcome`]; `rolled_back` counts discarded
    /// uncommitted transactions and `restored_words` counts replayed
    /// words.
    pub fn recover(&self, snapshot: &mut HashMap<Addr, u64>) -> RecoveryOutcome {
        let mut out = RecoveryOutcome::default();
        let read = |snap: &HashMap<Addr, u64>, a: Addr| snap.get(&a).copied().unwrap_or(0);
        for thread in 0..self.layout.threads {
            for slot in 0..self.layout.slots_per_thread {
                out.scanned_slots += 1;
                let fase_no = slot as u64;
                let status = read(snapshot, self.layout.status_addr(thread, fase_no));
                let mut newest_seq = 0u64;
                let mut entries: Vec<(Addr, u64)> = Vec::new();
                for e in 0..self.layout.max_entries {
                    let base = self.layout.entry_addr(thread, fase_no, e);
                    let target_raw = read(snapshot, base);
                    let value = read(snapshot, base.offset(8));
                    let hdr = read(snapshot, base.offset(16));
                    let Some(target) = Addr::checked(target_raw).filter(|a| a.is_pm()) else {
                        continue;
                    };
                    let tag = hdr ^ ValueSrc::log_tag_value(0, target, value);
                    if tag & 0xFF != e as u64 || !self.layout.seq_matches_slot(tag >> 8, slot) {
                        if hdr != 0 {
                            out.torn_entries += 1;
                        }
                        continue;
                    }
                    let seq = tag >> 8;
                    match seq.cmp(&newest_seq) {
                        std::cmp::Ordering::Greater => {
                            newest_seq = seq;
                            entries.clear();
                            entries.push((target, value));
                        }
                        std::cmp::Ordering::Equal => entries.push((target, value)),
                        std::cmp::Ordering::Less => {}
                    }
                }
                if newest_seq == 0 {
                    continue;
                }
                if status == newest_seq {
                    // Committed: replay the new values over the (possibly
                    // incomplete) in-place writes.
                    out.committed_slots += 1;
                    for (target, value) in entries {
                        snapshot.insert(target, value);
                        out.restored_words += 1;
                    }
                } else {
                    // Uncommitted: the in-place phase never started
                    // (`DataOrder` precedes it), so there is nothing to
                    // undo — just count the discard.
                    out.rolled_back += 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn redo() -> RedoLog {
        RedoLog::new(LogLayout::new(0, 1, 4, 4))
    }

    fn data(i: u64) -> Addr {
        Addr::pm(1 << 16).offset(i * 8)
    }

    struct SlotWriter<'a> {
        redo: &'a RedoLog,
        snap: HashMap<Addr, u64>,
    }

    impl<'a> SlotWriter<'a> {
        fn new(redo: &'a RedoLog) -> Self {
            SlotWriter {
                redo,
                snap: HashMap::new(),
            }
        }

        fn write_entry(&mut self, fase_no: u64, e: usize, target: Addr, new: u64) {
            let base = self.redo.layout.entry_addr(0, fase_no, e);
            self.snap.insert(base, target.raw());
            self.snap.insert(base.offset(8), new);
            self.snap.insert(
                base.offset(16),
                ValueSrc::log_tag_value(RedoLog::tag(fase_no, e), target, new),
            );
        }

        fn commit(&mut self, fase_no: u64) {
            self.snap.insert(
                self.redo.layout.status_addr(0, fase_no),
                LogLayout::seq(fase_no),
            );
        }
    }

    #[test]
    fn committed_tx_is_replayed_over_partial_data() {
        let r = redo();
        let mut w = SlotWriter::new(&r);
        w.write_entry(0, 0, data(0), 100);
        w.write_entry(0, 1, data(8), 200);
        w.commit(0);
        // In-place write of data(8) never persisted.
        w.snap.insert(data(0), 100);
        let out = r.recover(&mut w.snap);
        assert_eq!(out.committed_slots, 1);
        assert_eq!(out.restored_words, 2);
        assert_eq!(w.snap[&data(8)], 200, "replayed from the log");
    }

    #[test]
    fn uncommitted_tx_is_discarded() {
        let r = redo();
        let mut w = SlotWriter::new(&r);
        w.write_entry(0, 0, data(0), 100);
        // No commit record; pre-state data(0)=7 untouched in place.
        w.snap.insert(data(0), 7);
        let out = r.recover(&mut w.snap);
        assert_eq!(out.rolled_back, 1);
        assert_eq!(w.snap[&data(0)], 7, "new value never applied");
    }

    #[test]
    fn torn_redo_entry_rejected() {
        let r = redo();
        let mut w = SlotWriter::new(&r);
        w.write_entry(0, 0, data(0), 100);
        w.snap.insert(r.layout.entry_addr(0, 0, 0).offset(8), 999); // value word torn
        w.commit(0);
        let out = r.recover(&mut w.snap);
        assert_eq!(out.torn_entries, 1);
        assert_eq!(out.restored_words, 0, "checksum mismatch blocks replay");
    }

    #[test]
    fn recovery_is_idempotent() {
        let r = redo();
        let mut w = SlotWriter::new(&r);
        w.write_entry(0, 0, data(0), 100);
        w.commit(0);
        r.recover(&mut w.snap);
        let snap_after_first: HashMap<_, _> = w.snap.clone();
        r.recover(&mut w.snap);
        assert_eq!(w.snap, snap_after_first);
    }

    #[test]
    fn emit_tx_produces_log_then_commit_then_data() {
        use pmemspec_isa::abs::AbsOp;
        let r = redo();
        let mut t = AbsThread::new();
        t.begin_fase();
        r.emit_tx(&mut t, 0, 0, &[(data(0), 1), (data(8), 2)]);
        t.end_fase();
        let ops = t.finish();
        let order_pos = ops
            .iter()
            .position(|o| matches!(o, AbsOp::LogOrder))
            .unwrap();
        let commit_pos = ops
            .iter()
            .position(|o| matches!(o, AbsOp::LogWrite { addr, .. } if *addr == r.layout.status_addr(0, 0)))
            .unwrap();
        let data_order = ops
            .iter()
            .position(|o| matches!(o, AbsOp::DataOrder))
            .unwrap();
        let first_data = ops
            .iter()
            .position(|o| matches!(o, AbsOp::DataWrite { .. }))
            .unwrap();
        assert!(order_pos < commit_pos, "entries before commit");
        assert!(commit_pos < data_order, "commit before data barrier");
        assert!(data_order < first_data, "in-place writes last");
    }
}

//! Undo logging: the failure-atomicity discipline of the paper's
//! microbenchmarks, TATP, and TPCC (Table 4).
//!
//! Per FASE:
//!
//! 1. write one log entry per to-be-modified word: `target`, its
//!    *pre-image*, and a checksummed header (`LogOrder` then orders the
//!    log before the data);
//! 2. write the data in place (`DataOrder` then orders data before
//!    truncation);
//! 3. truncate by stamping the slot's status word with the sequence
//!    number; the design's end-of-FASE durability barrier covers it.
//!
//! Recovery scans every slot: entries whose checksum validates and whose
//! sequence number exceeds the status word belong to an *uncommitted*
//! FASE, so their pre-images are written back. Torn entries (header
//! persisted without its body, or vice versa) fail the checksum and are
//! ignored — safe, because `LogOrder` guarantees no data of that FASE
//! persisted either.

use std::collections::HashMap;

use pmemspec_isa::abs::AbsThread;
use pmemspec_isa::addr::Addr;
use pmemspec_isa::op::ValueSrc;

use crate::layout::LogLayout;

/// Emitter/recoverer for the undo discipline over a [`LogLayout`].
///
/// # Examples
///
/// ```
/// use pmemspec_runtime::{LogLayout, UndoLog};
/// use pmemspec_isa::{AbsThread, Addr};
///
/// let undo = UndoLog::new(LogLayout::new(0, 1, 4, 4));
/// let data = Addr::pm(undo.layout().end_offset());
///
/// let mut t = AbsThread::new();
/// t.begin_fase();
/// undo.emit_log(&mut t, 0, 0, &[data]);   // pre-image + checksum
/// t.data_write(data, 7u64);               // the actual update
/// undo.emit_truncate(&mut t, 0, 0);       // commit point
/// t.end_fase();
/// assert!(t.ops().len() > 5);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct UndoLog {
    layout: LogLayout,
}

/// What recovery found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Slots scanned.
    pub scanned_slots: usize,
    /// Uncommitted FASEs rolled back.
    pub rolled_back: usize,
    /// Pre-image words restored.
    pub restored_words: usize,
    /// Entries rejected by the checksum (torn writes).
    pub torn_entries: usize,
    /// Slots whose newest generation had already truncated.
    pub committed_slots: usize,
}

impl UndoLog {
    /// Wraps a layout.
    pub fn new(layout: LogLayout) -> Self {
        UndoLog { layout }
    }

    /// The layout in use.
    pub fn layout(&self) -> &LogLayout {
        &self.layout
    }

    /// The header tag for entry `entry` of FASE `fase_no`: the FASE's
    /// sequence number above an 8-bit entry index, in the `u32` a
    /// [`ValueSrc::LogTag`] holds.
    ///
    /// # Panics
    ///
    /// Panics from FASE `2^24 - 1` on, whose tag needs more than 32 bits.
    fn tag(fase_no: u64, entry: usize) -> u32 {
        u32::try_from((LogLayout::seq(fase_no) << 8) | entry as u64).unwrap_or_else(|_| {
            panic!(
                "undo log tags are u32: FASE {fase_no} is past the 2^24 - 1 FASEs a thread can log"
            )
        })
    }

    /// Emits the log phase: one three-word entry per target, recording the
    /// pre-image, followed by the log→data ordering point.
    ///
    /// # Panics
    ///
    /// Panics if more targets than `max_entries` are given or `thread` is
    /// out of range.
    pub fn emit_log(
        &self,
        t: &mut AbsThread,
        thread: usize,
        fase_no: u64,
        targets: &[Addr],
    ) -> &Self {
        assert!(
            targets.len() <= self.layout.max_entries,
            "{} targets exceed the {}-entry slot",
            targets.len(),
            self.layout.max_entries
        );
        for (e, &target) in targets.iter().enumerate() {
            let base = self.layout.entry_addr(thread, fase_no, e);
            t.log_write(base, ValueSrc::imm(target.raw()));
            t.log_write(base.offset(8), ValueSrc::OldOf(target));
            t.log_write(
                base.offset(16),
                ValueSrc::LogTag {
                    tag: Self::tag(fase_no, e),
                    target,
                },
            );
        }
        t.log_order();
        self
    }

    /// Emits the data→truncation ordering point and the truncation stamp.
    /// The design's end-of-FASE barrier (from `AbsThread::end_fase`) makes
    /// the truncation durable before the FASE reports complete.
    pub fn emit_truncate(&self, t: &mut AbsThread, thread: usize, fase_no: u64) -> &Self {
        t.data_order();
        t.log_write(
            self.layout.status_addr(thread, fase_no),
            ValueSrc::imm(LogLayout::seq(fase_no)),
        );
        self
    }

    /// Recovers a persistent snapshot in place: rolls back every
    /// uncommitted FASE found in the log region.
    pub fn recover(&self, snapshot: &mut HashMap<Addr, u64>) -> RecoveryOutcome {
        let mut out = RecoveryOutcome::default();
        let read = |snap: &HashMap<Addr, u64>, a: Addr| snap.get(&a).copied().unwrap_or(0);
        for thread in 0..self.layout.threads {
            for slot in 0..self.layout.slots_per_thread {
                out.scanned_slots += 1;
                // `slot_addr(thread, slot)` works because slot indexes are
                // fase numbers modulo the ring size.
                let fase_no = slot as u64;
                let status = read(snapshot, self.layout.status_addr(thread, fase_no));
                // Collect valid entries grouped by generation; keep only
                // the newest generation present in the slot.
                let mut newest_seq = 0u64;
                let mut entries: Vec<(Addr, u64)> = Vec::new();
                for e in 0..self.layout.max_entries {
                    let base = self.layout.entry_addr(thread, fase_no, e);
                    let target_raw = read(snapshot, base);
                    let old = read(snapshot, base.offset(8));
                    let hdr = read(snapshot, base.offset(16));
                    // Validate: recompute the tag and check its shape.
                    let Some(target) = Addr::checked(target_raw).filter(|a| a.is_pm()) else {
                        continue;
                    };
                    let tag = hdr ^ (ValueSrc::log_tag_value(0, target, old));
                    if tag & 0xFF != e as u64 {
                        if hdr != 0 {
                            out.torn_entries += 1;
                        }
                        continue;
                    }
                    let seq = tag >> 8;
                    if !self.layout.seq_matches_slot(seq, slot) {
                        if hdr != 0 {
                            out.torn_entries += 1;
                        }
                        continue;
                    }
                    match seq.cmp(&newest_seq) {
                        std::cmp::Ordering::Greater => {
                            newest_seq = seq;
                            entries.clear();
                            entries.push((target, old));
                        }
                        std::cmp::Ordering::Equal => entries.push((target, old)),
                        std::cmp::Ordering::Less => {}
                    }
                }
                if newest_seq == 0 {
                    continue;
                }
                if status >= newest_seq {
                    out.committed_slots += 1;
                    continue;
                }
                // Uncommitted: restore pre-images (idempotent — where the
                // data write never persisted this is a no-op value-wise).
                for (target, old) in entries {
                    snapshot.insert(target, old);
                    out.restored_words += 1;
                }
                // Mark the slot truncated so a second recovery pass is a
                // no-op (recovery must itself be idempotent).
                snapshot.insert(self.layout.status_addr(thread, fase_no), newest_seq);
                out.rolled_back += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmemspec_isa::addr::{PM_BASE, REGION_BYTES};

    fn undo() -> UndoLog {
        UndoLog::new(LogLayout::new(0, 1, 4, 4))
    }

    fn data(i: u64) -> Addr {
        Addr::pm(1 << 16).offset(i * 8)
    }

    /// Hand-build the snapshot a FASE would leave at various crash points.
    struct SlotWriter<'a> {
        undo: &'a UndoLog,
        snap: HashMap<Addr, u64>,
    }

    impl<'a> SlotWriter<'a> {
        fn new(undo: &'a UndoLog) -> Self {
            SlotWriter {
                undo,
                snap: HashMap::new(),
            }
        }

        fn write_entry(&mut self, fase_no: u64, e: usize, target: Addr, old: u64) {
            let base = self.undo.layout.entry_addr(0, fase_no, e);
            self.snap.insert(base, target.raw());
            self.snap.insert(base.offset(8), old);
            self.snap.insert(
                base.offset(16),
                ValueSrc::log_tag_value(u64::from(UndoLog::tag(fase_no, e)), target, old),
            );
        }

        fn truncate(&mut self, fase_no: u64) {
            self.snap.insert(
                self.undo.layout.status_addr(0, fase_no),
                LogLayout::seq(fase_no),
            );
        }
    }

    #[test]
    fn uncommitted_fase_rolls_back() {
        let u = undo();
        let mut w = SlotWriter::new(&u);
        // Pre-state: data(0) = 5. FASE 0 logged old=5 then wrote 99, but
        // never truncated.
        w.write_entry(0, 0, data(0), 5);
        w.snap.insert(data(0), 99);
        let out = u.recover(&mut w.snap);
        assert_eq!(out.rolled_back, 1);
        assert_eq!(out.restored_words, 1);
        assert_eq!(w.snap[&data(0)], 5, "pre-image restored");
    }

    #[test]
    fn committed_fase_is_untouched() {
        let u = undo();
        let mut w = SlotWriter::new(&u);
        w.write_entry(0, 0, data(0), 5);
        w.snap.insert(data(0), 99);
        w.truncate(0);
        let out = u.recover(&mut w.snap);
        assert_eq!(out.rolled_back, 0);
        assert_eq!(out.committed_slots, 1);
        assert_eq!(w.snap[&data(0)], 99, "committed data preserved");
    }

    #[test]
    fn torn_entry_is_rejected() {
        let u = undo();
        let mut w = SlotWriter::new(&u);
        w.write_entry(0, 0, data(0), 5);
        // Corrupt the header (as if it never persisted and holds garbage
        // from an earlier generation).
        let hdr = u.layout.entry_addr(0, 0, 0).offset(16);
        w.snap.insert(hdr, 0xDEAD_BEEF);
        w.snap.insert(data(0), 99);
        let out = u.recover(&mut w.snap);
        assert_eq!(out.rolled_back, 0, "nothing valid to roll back");
        assert_eq!(out.torn_entries, 1);
        assert_eq!(w.snap[&data(0)], 99);
    }

    #[test]
    fn newest_generation_wins_in_reused_slot() {
        let u = undo();
        let mut w = SlotWriter::new(&u);
        // FASE 0 used the slot, committed (status = 1). FASE 4 reuses it:
        // entry 0 overwritten with seq 5, entry 1 still holds seq-1 bits —
        // but entry addresses are fixed, so the stale entry is entry 1
        // written by generation 0.
        w.write_entry(0, 1, data(8), 7); // old generation leftovers
        w.truncate(0); // status = 1
        w.write_entry(4, 0, data(0), 5); // new generation, uncommitted
        w.snap.insert(data(0), 99);
        w.snap.insert(data(8), 42);
        let out = u.recover(&mut w.snap);
        assert_eq!(out.rolled_back, 1);
        assert_eq!(w.snap[&data(0)], 5, "new generation rolled back");
        assert_eq!(w.snap[&data(8)], 42, "old generation ignored");
    }

    #[test]
    fn recovery_is_idempotent() {
        let u = undo();
        let mut w = SlotWriter::new(&u);
        w.write_entry(0, 0, data(0), 5);
        w.snap.insert(data(0), 99);
        let first = u.recover(&mut w.snap);
        assert_eq!(first.rolled_back, 1);
        let second = u.recover(&mut w.snap);
        assert_eq!(second.rolled_back, 0, "second pass finds a clean log");
        assert_eq!(w.snap[&data(0)], 5);
    }

    #[test]
    fn partial_entry_set_restores_what_validates() {
        let u = undo();
        let mut w = SlotWriter::new(&u);
        w.write_entry(0, 0, data(0), 5);
        w.write_entry(0, 1, data(8), 6);
        // Entry 2's header never persisted (all zeros) — a torn tail.
        w.snap.insert(data(0), 99);
        w.snap.insert(data(8), 98);
        let out = u.recover(&mut w.snap);
        assert_eq!(out.rolled_back, 1);
        assert_eq!(out.restored_words, 2);
        assert_eq!(w.snap[&data(0)], 5);
        assert_eq!(w.snap[&data(8)], 6);
    }

    #[test]
    fn target_words_no_address_holds_are_skipped() {
        let u = undo();
        for raw in [PM_BASE + REGION_BYTES, u64::MAX - 7, 3] {
            let mut snap = HashMap::new();
            let base = u.layout.entry_addr(0, 0, 0);
            snap.insert(base, raw);
            snap.insert(base.offset(16), 1 << 8);
            let out = u.recover(&mut snap);
            assert_eq!((out.rolled_back, out.torn_entries), (0, 0), "{raw:#x}");
        }
    }

    #[test]
    fn empty_log_region_recovers_cleanly() {
        let u = undo();
        let mut snap = HashMap::new();
        let out = u.recover(&mut snap);
        assert_eq!(out.rolled_back, 0);
        assert_eq!(out.scanned_slots, 4);
    }

    /// Applies the first `stores` PM stores of `ops` to `snap`, as if the
    /// machine crashed right after them.
    fn replay(ops: &[pmemspec_isa::abs::AbsOp], snap: &mut HashMap<Addr, u64>, stores: usize) {
        use pmemspec_isa::abs::AbsOp;
        let writes = ops.iter().filter_map(|op| match *op {
            AbsOp::LogWrite { addr, value } | AbsOp::DataWrite { addr, value } => {
                Some((addr, value))
            }
            _ => None,
        });
        for (addr, value) in writes.take(stores) {
            let v = value.resolve(|a| snap.get(&a).copied().unwrap_or(0));
            snap.insert(addr, v);
        }
    }

    #[test]
    fn negative_delta_replays_and_rolls_back_like_the_wrapping_add() {
        // A TPC-C stock decrement: log the word, then OldPlus { delta: -1 }.
        let u = undo();
        let mut t = AbsThread::new();
        t.begin_fase();
        u.emit_log(&mut t, 0, 0, &[data(0)]);
        t.data_write(
            data(0),
            ValueSrc::OldPlus {
                addr: data(0),
                delta: -1,
            },
        );
        u.emit_truncate(&mut t, 0, 0);
        t.end_fase();
        let ops = t.finish();
        for start in [0u64, 1, 90] {
            let mut snap: HashMap<Addr, u64> = HashMap::from([(data(0), start)]);
            replay(&ops, &mut snap, 4); // the 3-word entry and the decrement
            assert_eq!(snap[&data(0)], start.wrapping_add(u64::MAX), "{start}");
            let out = u.recover(&mut snap);
            assert_eq!((out.rolled_back, out.torn_entries), (1, 0), "{start}");
            assert_eq!(snap[&data(0)], start, "pre-image restored");
        }
    }

    #[test]
    fn log_tags_fit_u32_up_to_the_last_fase_they_number() {
        let last = (1u64 << 24) - 2;
        assert_eq!(UndoLog::tag(last, 255), u32::MAX);
        let mut t = AbsThread::new();
        t.begin_fase();
        undo().emit_log(&mut t, 0, last, &[data(0)]);
    }

    #[test]
    #[should_panic(expected = "past the 2^24 - 1 FASEs a thread can log")]
    fn a_log_tag_past_u32_panics_instead_of_truncating() {
        let mut t = AbsThread::new();
        t.begin_fase();
        undo().emit_log(&mut t, 0, (1 << 24) - 1, &[data(0)]);
    }

    #[test]
    fn emission_matches_recovery_expectations() {
        // Emit a FASE with the builder and simulate "everything persisted
        // except the truncation": recovery must roll it back.
        let u = undo();
        let mut t = AbsThread::new();
        t.begin_fase();
        u.emit_log(&mut t, 0, 0, &[data(0), data(8)]);
        t.data_write(data(0), 100u64).data_write(data(8), 200u64);
        u.emit_truncate(&mut t, 0, 0);
        t.end_fase();
        let ops = t.finish();
        // Interpret the abstract ops against a value map, stopping before
        // the truncation write (the crash point).
        let mut snap: HashMap<Addr, u64> = HashMap::new();
        snap.insert(data(0), 1);
        snap.insert(data(8), 2);
        replay(&ops, &mut snap, 8);
        assert_eq!(snap[&data(0)], 100, "data written before crash");
        let out = u.recover(&mut snap);
        assert_eq!(out.rolled_back, 1);
        assert_eq!(snap[&data(0)], 1);
        assert_eq!(snap[&data(8)], 2);
    }
}

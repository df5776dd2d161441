//! Randomized tests: the undo- and redo-log disciplines recover *any*
//! crash state that respects the emitted ordering constraints.
//!
//! The key machinery is a host-side interpreter of the abstract op stream
//! that persists an arbitrary *barrier-respecting* subset of the writes:
//! writes within an ordering epoch may persist in any subset/order, but a
//! write after an ordering point may only persist if every write before
//! that point did. (PMEM-Spec's FIFO path is the special case "prefix of
//! the write sequence"; epoch designs allow the general form.) Recovery
//! must restore atomicity for every such state.
//!
//! Previously written against the external `proptest` crate; ported to
//! the in-tree deterministic [`SimRng`] so the workspace builds with no
//! external dependencies (offline/vendored CI). Each case derives its
//! inputs from a fixed master seed, so failures reproduce exactly.

use std::collections::HashMap;

use pmemspec_engine::SimRng;
use pmemspec_isa::abs::{AbsOp, AbsThread};
use pmemspec_isa::addr::Addr;
use pmemspec_isa::ValueSrc;
use pmemspec_runtime::{LogLayout, RedoLog, UndoLog};

const CASES: u64 = 96;

fn case_rng(master: u64, case: u64) -> SimRng {
    SimRng::seed_from_u64(master ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The persistent writes of one thread's abstract stream, flattened, with
/// the index of the ordering epoch each belongs to.
fn epoch_writes(ops: &[AbsOp]) -> Vec<(usize, Addr, ValueSrc)> {
    let mut epoch = 0usize;
    let mut out = Vec::new();
    for op in ops {
        match *op {
            AbsOp::LogOrder | AbsOp::DataOrder => epoch += 1,
            AbsOp::LogWrite { addr, value } | AbsOp::DataWrite { addr, value } => {
                out.push((epoch, addr, value));
            }
            _ => {}
        }
    }
    out
}

/// Applies a barrier-respecting subset of the writes to an empty PM
/// image: all epochs before `full_epochs` persist completely; within the
/// boundary epoch, `partial` selects survivors. Values resolve against a
/// *volatile* image that sees every write (the CPU executed them all).
fn crash_state(
    writes: &[(usize, Addr, ValueSrc)],
    full_epochs: usize,
    partial: &[bool],
    initial: &HashMap<Addr, u64>,
) -> HashMap<Addr, u64> {
    let mut volatile = initial.clone();
    let mut resolved = Vec::new();
    for &(epoch, addr, value) in writes {
        let v = value.resolve(|a| volatile.get(&a).copied().unwrap_or(0));
        volatile.insert(addr, v);
        resolved.push((epoch, addr, v));
    }
    let mut pm = initial.clone();
    let mut boundary_idx = 0usize;
    for &(epoch, addr, v) in &resolved {
        if epoch < full_epochs {
            pm.insert(addr, v);
        } else if epoch == full_epochs {
            let keep = partial.get(boundary_idx).copied().unwrap_or(false);
            boundary_idx += 1;
            if keep {
                pm.insert(addr, v);
            }
        }
    }
    pm
}

fn data_addr(k: u64) -> Addr {
    Addr::pm((1 << 16) + k * 8)
}

/// 1–5 distinct, sorted targets in `[0, 8)`.
fn random_targets(rng: &mut SimRng) -> Vec<u64> {
    let n = 1 + rng.gen_index(5);
    let mut targets: Vec<u64> = (0..n).map(|_| rng.gen_range(8)).collect();
    targets.sort_unstable();
    targets.dedup();
    targets
}

fn random_bools(rng: &mut SimRng, max_len: usize) -> Vec<bool> {
    let n = rng.gen_index(max_len + 1);
    (0..n).map(|_| rng.gen_ratio(1, 2)).collect()
}

/// Undo logging: for ANY barrier-respecting crash state of one FASE,
/// recovery yields either the complete pre-state or the complete
/// post-state of the FASE's data words.
#[test]
fn undo_recovery_is_atomic() {
    for case in 0..CASES {
        let mut rng = case_rng(0x4E00, case);
        let targets = random_targets(&mut rng);
        let initial_vals: Vec<u64> = (0..8).map(|_| 1 + rng.gen_range(999)).collect();
        let full_epochs = rng.gen_index(4);
        let partial = random_bools(&mut rng, 24);

        let undo = UndoLog::new(LogLayout::new(0, 1, 4, 8));
        let addrs: Vec<Addr> = targets.iter().map(|&k| data_addr(k)).collect();

        // Emit one FASE.
        let mut t = AbsThread::new();
        t.begin_fase();
        undo.emit_log(&mut t, 0, 0, &addrs);
        for (i, &a) in addrs.iter().enumerate() {
            t.data_write(a, 5000 + i as u64);
        }
        undo.emit_truncate(&mut t, 0, 0);
        t.end_fase();
        let ops = t.finish();

        let initial: HashMap<Addr, u64> = (0..8u64)
            .map(|k| (data_addr(k), initial_vals[k as usize]))
            .collect();
        let writes = epoch_writes(&ops);
        let mut pm = crash_state(&writes, full_epochs, &partial, &initial);
        undo.recover(&mut pm);

        let pre: Vec<u64> = addrs.iter().map(|a| initial[a]).collect();
        let post: Vec<u64> = (0..addrs.len()).map(|i| 5000 + i as u64).collect();
        let got: Vec<u64> = addrs
            .iter()
            .map(|a| pm.get(a).copied().unwrap_or(0))
            .collect();
        assert!(
            got == pre || got == post,
            "case {case}: torn state survived recovery: got {got:?}, pre {pre:?}, \
             post {post:?} (full_epochs={full_epochs})"
        );
    }
}

/// Redo logging: same property — committed transactions replay fully,
/// uncommitted ones disappear fully.
#[test]
fn redo_recovery_is_atomic() {
    for case in 0..CASES {
        let mut rng = case_rng(0x4ED0, case);
        let targets = random_targets(&mut rng);
        let initial_vals: Vec<u64> = (0..8).map(|_| 1 + rng.gen_range(999)).collect();
        let full_epochs = rng.gen_index(6);
        let partial = random_bools(&mut rng, 24);

        let redo = RedoLog::new(LogLayout::new(0, 1, 4, 8));
        let writes_spec: Vec<(Addr, u64)> = targets
            .iter()
            .enumerate()
            .map(|(i, &k)| (data_addr(k), 9000 + i as u64))
            .collect();

        let mut t = AbsThread::new();
        t.begin_fase();
        redo.emit_tx(&mut t, 0, 0, &writes_spec);
        t.end_fase();
        let ops = t.finish();

        let initial: HashMap<Addr, u64> = (0..8u64)
            .map(|k| (data_addr(k), initial_vals[k as usize]))
            .collect();
        let writes = epoch_writes(&ops);
        let mut pm = crash_state(&writes, full_epochs, &partial, &initial);
        redo.recover(&mut pm);

        let pre: Vec<u64> = writes_spec.iter().map(|(a, _)| initial[a]).collect();
        let post: Vec<u64> = writes_spec.iter().map(|&(_, v)| v).collect();
        let got: Vec<u64> = writes_spec
            .iter()
            .map(|(a, _)| pm.get(a).copied().unwrap_or(0))
            .collect();
        assert!(
            got == pre || got == post,
            "case {case}: torn redo state: got {got:?}, pre {pre:?}, post {post:?} \
             (full_epochs={full_epochs})"
        );
    }
}

/// Recovery is idempotent on arbitrary crash states.
#[test]
fn undo_recovery_idempotent() {
    for case in 0..CASES {
        let mut rng = case_rng(0x1DE0, case);
        let full_epochs = rng.gen_index(4);
        let partial = random_bools(&mut rng, 16);
        let undo = UndoLog::new(LogLayout::new(0, 1, 4, 4));
        let addrs = [data_addr(0), data_addr(1)];
        let mut t = AbsThread::new();
        t.begin_fase();
        undo.emit_log(&mut t, 0, 0, &addrs);
        t.data_write(addrs[0], 11u64).data_write(addrs[1], 22u64);
        undo.emit_truncate(&mut t, 0, 0);
        t.end_fase();
        let ops = t.finish();
        let initial: HashMap<Addr, u64> = addrs.iter().map(|&a| (a, 1)).collect();
        let mut pm = crash_state(&epoch_writes(&ops), full_epochs, &partial, &initial);
        undo.recover(&mut pm);
        let after_first = pm.clone();
        undo.recover(&mut pm);
        assert_eq!(pm, after_first, "case {case}");
    }
}

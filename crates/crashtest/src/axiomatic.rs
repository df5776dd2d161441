//! Axiomatic persistency oracle: Px86-style allowed-outcome sets.
//!
//! Khyzha & Lahav's *Taming x86-TSO Persistency* characterizes a
//! persistency model declaratively: an execution's persist events carry a
//! partial *persist-before* order, and the crash-observable images are
//! exactly the results of applying a downward-closed subset (a "prefix")
//! of the events in some order consistent with that partial order. This
//! module encodes that recipe for the three persistency classes the repo
//! implements and derives, for any lowered litmus program, the full set
//! of outcomes the class *allows* — independent of any simulator
//! machinery. The model checker ([`crate::modelcheck`]) diffs its
//! operationally enumerated outcome set against this one.
//!
//! The per-thread persist-before axioms themselves (strict / epoch /
//! strand, with x86's flush gating) live in [`pmemspec_isa::persist`],
//! shared with the static analyzer so static and dynamic verdicts use
//! one definition of "allowed". This module adds what is specific to the
//! *dynamic* oracle: persist events carry concrete immediate values, and
//! allowed images are enumerated as order-consistent prefixes.
//!
//! ## Deviation from full Px86
//!
//! No *cross-thread* persist-before edges are generated, not even through
//! lock acquire/release pairs. Full Px86 would order a lock releaser's
//! persists before the next acquirer's; PMEM-Spec deliberately gives that
//! guarantee up in the raw image (§5: misspeculation detection repairs
//! cross-core reordering after the fact), and the sampled litmus suite's
//! hand-written sets follow the same philosophy. Keeping the oracle
//! per-thread makes one axiomatization serve all five designs; the cost
//! is that cross-thread shapes get the weaker (larger) allowed set. The
//! consistency test in `tests/modelcheck_containment.rs` pins this choice
//! by asserting the oracle reproduces the hand-written sampled sets
//! exactly.

use std::collections::BTreeSet;

use pmemspec_engine::explore::explore;
use pmemspec_isa::{thread_persist_order, Addr, Op, Program, ValueSrc};

/// One persist event: a PM store of the lowered program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistEvent {
    /// Thread that issued the store.
    pub thread: usize,
    /// The word written.
    pub addr: Addr,
    /// The value written (litmus stores are immediates).
    pub value: u64,
}

/// A lowered program's persist events plus the persist-before partial
/// order the design's [`PersistencyClass`] imposes on them.
#[derive(Debug, Clone)]
pub struct AxiomaticModel {
    /// All persist events, in thread-major program order.
    pub events: Vec<PersistEvent>,
    /// `preds[i]` = indices that must be applied before event `i` may be
    /// (immediate predecessors; the full order is their transitive
    /// closure, which prefix enumeration enforces operationally).
    pub preds: Vec<Vec<usize>>,
}

/// Builds the axiomatic model of a lowered litmus program.
///
/// The per-thread persist-before extraction lives in
/// [`pmemspec_isa::persist`] and is shared verbatim with the static
/// analyzer (`pmemspec-analyze`): both tools answer "may these two
/// persists reorder?" from one definition.
///
/// # Panics
///
/// Panics if the program stores a non-immediate value to PM — the litmus
/// shapes only use immediates, and an outcome set over computed values
/// would not be well defined without also modeling volatile memory.
pub fn axiomatic_model(program: &Program) -> AxiomaticModel {
    let design = program.design();
    let mut events = Vec::new();
    let mut preds = Vec::new();
    for (tid, thread) in program.threads().enumerate() {
        let ops = thread.ops();
        let order = thread_persist_order(design, ops);
        let base = events.len();
        for (local, &op_idx) in order.store_ops.iter().enumerate() {
            let op = &ops[op_idx];
            let Op::Store {
                addr,
                value: ValueSrc::Imm(v),
            } = *op
            else {
                panic!("axiomatic oracle needs immediate PM stores, got {op}");
            };
            events.push(PersistEvent {
                thread: tid,
                addr,
                value: v.get(),
            });
            preds.push(order.preds[local].iter().map(|&p| base + p).collect());
        }
    }
    AxiomaticModel { events, preds }
}

/// Enumerates every crash-observable outcome the model allows, projected
/// onto `observed` (missing words read 0).
///
/// A state is a downward-closed set of applied events plus the PM image
/// they produced; the image matters separately from the set because two
/// events writing one address can apply in either order. The state space
/// is explored with the same engine-side DFS the operational model
/// checker uses.
///
/// # Panics
///
/// Panics if the state space exceeds an internal cap sized far above any
/// litmus shape (a suite bug, not a user error).
pub fn allowed_outcomes(model: &AxiomaticModel, observed: &[Addr]) -> BTreeSet<Vec<u64>> {
    assert!(
        model.events.len() <= 64,
        "axiomatic enumeration uses a 64-bit applied-set mask"
    );
    let mut outcomes = BTreeSet::new();
    let initial: (u64, Vec<(Addr, u64)>) = (0, Vec::new());
    explore(
        initial,
        |(mask, image)| {
            let mut next = Vec::new();
            for (i, ev) in model.events.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    continue;
                }
                if model.preds[i].iter().any(|&p| mask & (1 << p) == 0) {
                    continue;
                }
                let mut img = image.clone();
                match img.iter_mut().find(|(a, _)| *a == ev.addr) {
                    Some(slot) => slot.1 = ev.value,
                    None => {
                        img.push((ev.addr, ev.value));
                        img.sort_unstable();
                    }
                }
                next.push((format!("apply e{i}"), (mask | (1 << i), img)));
            }
            next
        },
        |(_, image), _, _| {
            let tuple: Vec<u64> = observed
                .iter()
                .map(|a| image.iter().find(|(ia, _)| ia == a).map_or(0, |&(_, v)| v))
                .collect();
            outcomes.insert(tuple);
        },
        1 << 22,
    )
    .expect("litmus-sized axiomatic state space fits the cap");
    outcomes
}

/// Convenience: the allowed-outcome set of `program` on its design.
pub fn axiomatic_allowed(program: &Program, observed: &[Addr]) -> BTreeSet<Vec<u64>> {
    allowed_outcomes(&axiomatic_model(program), observed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::litmus::litmus_shape;
    use pmemspec_isa::{lower_program, AbsProgram, AbsThread, DesignKind, PersistencyClass};

    fn set(outs: &[&[u64]]) -> BTreeSet<Vec<u64>> {
        outs.iter().map(|o| o.to_vec()).collect()
    }

    /// The class-separating two-store shape (`litmus.rs` `store_store`):
    /// `st A=1; st B=1` with no ordering between them.
    fn two_store_allowed(design: DesignKind) -> BTreeSet<Vec<u64>> {
        let shape = litmus_shape("store_store");
        let lowered = lower_program(design, &shape.program);
        axiomatic_allowed(&lowered, &shape.observed)
    }

    // Px86 example (Khyzha & Lahav §2): after `st x; st y` with no
    // intervening flush+fence, a crash may observe y's value without
    // x's under epoch persistency — but never under strict persistency,
    // where persist order follows store order.

    #[test]
    fn strict_two_store_forbids_reordering() {
        for design in [DesignKind::Dpo, DesignKind::PmemSpec] {
            assert_eq!(design.persistency_class(), PersistencyClass::Strict);
            let allowed = two_store_allowed(design);
            assert_eq!(
                allowed,
                set(&[&[0, 0], &[1, 0], &[1, 1]]),
                "{design}: B=1 with A=0 must be forbidden"
            );
        }
    }

    #[test]
    fn epoch_two_store_allows_either_order() {
        for design in [DesignKind::IntelX86, DesignKind::Hops] {
            assert_eq!(design.persistency_class(), PersistencyClass::Epoch);
            let allowed = two_store_allowed(design);
            assert_eq!(
                allowed,
                set(&[&[0, 0], &[1, 0], &[0, 1], &[1, 1]]),
                "{design}: same-epoch stores persist in either order"
            );
        }
    }

    #[test]
    fn strand_two_store_is_unordered_within_one_strand() {
        let design = DesignKind::StrandWeaver;
        assert_eq!(design.persistency_class(), PersistencyClass::Strand);
        assert_eq!(
            two_store_allowed(design),
            set(&[&[0, 0], &[1, 0], &[0, 1], &[1, 1]]),
            "no persist-barrier between the stores"
        );
    }

    // Px86's canonical recovery idiom: `st x; clwb x; sfence; st y` —
    // the flush+fence orders x's persist before y's on every class.

    fn fenced_two_store(design: DesignKind) -> BTreeSet<Vec<u64>> {
        let (a, b) = (Addr::pm(4096), Addr::pm(4096 + 128));
        let mut t = AbsThread::new();
        t.begin_fase();
        t.data_write(a, 1u64);
        t.log_order(); // sfence / ofence / persist-barrier / FIFO no-op
        t.data_write(b, 1u64);
        t.end_fase();
        let mut p = AbsProgram::new();
        p.add_thread(t);
        axiomatic_allowed(&lower_program(design, &p), &[a, b])
    }

    #[test]
    fn flush_fence_orders_all_classes() {
        for design in DesignKind::ALL_EXTENDED {
            assert_eq!(
                fenced_two_store(design),
                set(&[&[0, 0], &[1, 0], &[1, 1]]),
                "{design}: the ordering point forbids B before A"
            );
        }
    }

    #[test]
    fn new_strand_severs_ordering_but_join_restores_it() {
        // st A; persist-barrier; new-strand; st B: the barrier orders A
        // before later stores of *its* strand, but B sits in a fresh
        // strand — no dependency. A trailing join-strand then orders
        // everything before any later store C.
        use pmemspec_isa::{FaseId, Program, ThreadProgram};
        let (a, b, c) = (Addr::pm(4096), Addr::pm(4096 + 128), Addr::pm(4096 + 256));
        let st = |addr| Op::Store {
            addr,
            value: pmemspec_isa::ValueSrc::imm(1),
        };
        let ops = vec![
            Op::FaseBegin { fase: FaseId(0) },
            Op::NewStrand,
            st(a),
            Op::StrandBarrier,
            Op::NewStrand,
            st(b),
            Op::JoinStrand,
            st(c),
            Op::JoinStrand,
            Op::FaseEnd { fase: FaseId(0) },
        ];
        let p = Program::new(DesignKind::StrandWeaver, vec![ThreadProgram::new(ops)]);
        assert!(p.validate().is_ok());
        let allowed = axiomatic_allowed(&p, &[a, b, c]);
        assert!(allowed.contains(&vec![0, 1, 0]), "new-strand severed A<B");
        assert!(allowed.contains(&vec![1, 0, 0]));
        assert!(
            !allowed.contains(&vec![0, 0, 1]) && !allowed.contains(&vec![1, 0, 1]),
            "join-strand orders both strands before C"
        );
    }

    #[test]
    fn model_extraction_counts_events() {
        let shape = litmus_shape("cross_controller");
        let lowered = lower_program(DesignKind::PmemSpec, &shape.program);
        let model = axiomatic_model(&lowered);
        assert_eq!(model.events.len(), 8, "6 pressure + log + data");
        assert_eq!(model.preds.len(), model.events.len());
        // Strict: a total chain — every event after the first has a pred.
        assert!(model.preds[1..].iter().all(|p| !p.is_empty()));
    }

    #[test]
    #[should_panic(expected = "immediate")]
    fn non_immediate_stores_are_rejected() {
        let a = Addr::pm(4096);
        let mut t = AbsThread::new();
        t.begin_fase();
        t.data_write(a, pmemspec_isa::ValueSrc::OldOf(a));
        t.end_fase();
        let mut p = AbsProgram::new();
        p.add_thread(t);
        let lowered = lower_program(DesignKind::PmemSpec, &p);
        axiomatic_model(&lowered);
    }
}

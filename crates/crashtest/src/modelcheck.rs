//! Exhaustive persist-order model checking of the litmus suite.
//!
//! The sampled litmus engine ([`crate::litmus`]) sweeps crash *cycles*
//! over one deterministic timing run per (shape × design): it observes
//! the persist orders that run happens to exhibit. This module upgrades
//! the claim from sampling to enumeration: it re-expresses each design's
//! persist machinery as a small nondeterministic abstract machine over
//! the *lowered* program and explores every reachable state with the
//! engine's explicit-state DFS ([`pmemspec_engine::explore`]).
//!
//! ## The abstract machine
//!
//! Time is erased; only ordering survives. A state is each thread's
//! program counter, the volatile memory image, the persistent (ADR-
//! accepted) image, each thread's persist-machinery buffer, and the lock
//! table. The nondeterministic choice points are
//!
//! * **which thread executes** its next instruction, and
//! * **which buffered persist drains** next (any FIFO head, any entry of
//!   an oldest open epoch, any strand's oldest epoch).
//!
//! Draining *is* PMC arbitration: a write is durable at write-queue
//! acceptance (ADR, §8.1), and the FIFO controller network preserves
//! dispatch order per path, so the order in which entries are accepted
//! fully determines the persistent image — there is no separate
//! controller-side choice left to model. Crash placement is implicit:
//! *every* reachable state's persistent image is a crash outcome, which
//! is strictly finer than placing crashes between persist events of one
//! timed run.
//!
//! Per design, the buffer mirrors the timing simulator's semantics
//! (`pmem_spec::System`):
//!
//! * **IntelX86**: `clwb` queues an unordered line write-back that
//!   snapshots the volatile line when it drains; `sfence` stalls until
//!   the set is empty.
//! * **DPO**: stores enter a word FIFO; `sfence`, lock acquire, and lock
//!   release all stall until it drains (§8.2.2 barrier drains).
//! * **HOPS**: stores enter the open epoch; `ofence` closes it without
//!   stalling; `dfence` stalls until empty. Epoch n+1 may not begin
//!   draining before epoch n is durable; within an epoch, any order.
//!   This is StrandWeaver's buffer with a single strand that never
//!   renews.
//! * **PMEM-Spec**: stores enter the per-core FIFO persist path; nothing
//!   at ordering points; `spec-barrier` stalls until empty.
//! * **StrandWeaver**: strands drain independently; `persist-barrier`
//!   closes the current strand's epoch without stalling; `join-strand`
//!   stalls until every strand is empty.
//!
//! The machine over-approximates the timing simulator (which resolves
//! every choice one fixed way per run), so sampled ⊆ enumerated is the
//! soundness direction — asserted in `tests/modelcheck_containment.rs` —
//! and enumerated vs the axiomatic allowed set ([`crate::axiomatic`]) is
//! the correctness diff: an enumerated-but-forbidden outcome is a
//! simulator/model bug, an allowed-but-never-enumerated outcome is
//! coverage slack.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use pmemspec_engine::explore::{explore, ExploreStats};
use pmemspec_isa::addr::LineAddr;
use pmemspec_isa::{lower_program, Addr, DesignKind, Op, Program, ValueSrc};

use crate::axiomatic::axiomatic_allowed;
use crate::litmus::LitmusTest;

/// Hard cap on distinct states per (shape × design); litmus shapes stay
/// around 10³–10⁴, so hitting this is a suite bug, not scale.
const STATE_LIMIT: usize = 1 << 21;

/// One strand of a HOPS or StrandWeaver buffer: epoch-ordered word
/// entries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct StrandBuf {
    /// Front epoch drains first; only non-empty epochs are kept, except
    /// transiently for the open back epoch.
    epochs: VecDeque<Vec<(Addr, u64)>>,
    /// The next store opens a new epoch (a persist-barrier was seen).
    close: bool,
}

/// A thread's persist machinery, by design.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Buf {
    /// IntelX86: unordered pending line write-backs. A drain snapshots
    /// the line's *current* volatile words (matching the simulator's
    /// `persist_line_snapshot`).
    Writeback(BTreeSet<LineAddr>),
    /// DPO / PMEM-Spec: word FIFO — value captured at store.
    Fifo(VecDeque<(Addr, u64)>),
    /// StrandWeaver: independently draining strands. HOPS is the same
    /// buffer with one strand that never renews (its `ofence` is the
    /// strand's `persist-barrier`), as in the timing simulator's
    /// `PersistBuffer`.
    Strands {
        /// Strands in creation order (order carries no constraint).
        strands: Vec<StrandBuf>,
        /// The next store opens a new strand.
        fresh: bool,
    },
}

impl Buf {
    fn new(design: DesignKind) -> Buf {
        match design {
            DesignKind::IntelX86 => Buf::Writeback(BTreeSet::new()),
            DesignKind::Dpo | DesignKind::PmemSpec => Buf::Fifo(VecDeque::new()),
            DesignKind::Hops | DesignKind::StrandWeaver => Buf::Strands {
                strands: Vec::new(),
                fresh: false,
            },
        }
    }

    /// True when nothing is pending (the drained condition every
    /// blocking fence waits for).
    fn is_empty(&self) -> bool {
        match self {
            Buf::Writeback(lines) => lines.is_empty(),
            Buf::Fifo(q) => q.is_empty(),
            Buf::Strands { strands, .. } => strands.is_empty(),
        }
    }

    /// Canonicalizes: drops drained epochs/strands and clears ordering
    /// flags that can no longer matter, so equivalent states hash equal.
    fn normalize(&mut self) {
        match self {
            Buf::Writeback(_) | Buf::Fifo(_) => {}
            Buf::Strands { strands, fresh } => {
                for s in strands.iter_mut() {
                    while s.epochs.front().is_some_and(Vec::is_empty) {
                        s.epochs.pop_front();
                    }
                }
                strands.retain(|s| !s.epochs.is_empty());
                // Barrier flags matter only for the strand still taking
                // stores (the last one, unless a fresh strand is due).
                let last = strands.len().saturating_sub(1);
                for (i, s) in strands.iter_mut().enumerate() {
                    if *fresh || i != last {
                        s.close = false;
                    }
                }
                if strands.is_empty() {
                    *fresh = false;
                }
            }
        }
    }

    /// Records a PM store.
    fn push_store(&mut self, addr: Addr, value: u64) {
        match self {
            // x86 stores persist only via their CLWB.
            Buf::Writeback(_) => {}
            Buf::Fifo(q) => q.push_back((addr, value)),
            Buf::Strands { strands, fresh } => {
                if *fresh || strands.is_empty() {
                    strands.push(StrandBuf {
                        epochs: VecDeque::new(),
                        close: false,
                    });
                    *fresh = false;
                }
                let s = strands.last_mut().expect("just ensured");
                if s.close || s.epochs.is_empty() {
                    s.epochs.push_back(Vec::new());
                    s.close = false;
                }
                s.epochs
                    .back_mut()
                    .expect("just ensured")
                    .push((addr, value));
            }
        }
    }
}

/// One abstract machine state (the canonical-state hash key).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MState {
    /// Per-thread next-op index into the lowered program.
    pcs: Vec<usize>,
    /// Volatile image (caches + store queues collapsed: litmus threads
    /// communicate only through locks, so finer store-visibility
    /// modeling cannot change persisted outcomes).
    mem: BTreeMap<Addr, u64>,
    /// Persistent image: words accepted into a PM write queue (ADR).
    pmem: BTreeMap<Addr, u64>,
    /// Per-thread persist machinery.
    bufs: Vec<Buf>,
    /// Lock table: id → holder thread.
    locks: BTreeMap<u32, usize>,
}

/// The per-(shape × design) machine: lowered program + step rules.
struct Machine {
    program: Program,
    design: DesignKind,
}

impl Machine {
    fn new(test: &LitmusTest, design: DesignKind) -> Machine {
        Machine {
            program: lower_program(design, &test.program),
            design,
        }
    }

    fn initial(&self) -> MState {
        let n = self.program.thread_count();
        let mut s = MState {
            pcs: vec![0; n],
            mem: BTreeMap::new(),
            pmem: BTreeMap::new(),
            bufs: (0..n).map(|_| Buf::new(self.design)).collect(),
            locks: BTreeMap::new(),
        };
        self.settle(&mut s);
        s
    }

    /// Ops with no effect on any ordering-relevant state, folded into
    /// the preceding step so they never multiply interleavings.
    fn is_pure(&self, op: &Op) -> bool {
        match op {
            Op::Load { .. }
            | Op::Compute { .. }
            | Op::Checkpoint
            | Op::FaseBegin { .. }
            | Op::FaseEnd { .. }
            | Op::SpecAssign
            | Op::SpecRevoke => true,
            // DPO absorbs CLWBs (persist buffers make them no-ops).
            Op::Clwb { .. } => self.design == DesignKind::Dpo,
            _ => false,
        }
    }

    /// Advances every pc past pure ops and canonicalizes buffers.
    fn settle(&self, s: &mut MState) {
        for t in 0..s.pcs.len() {
            let ops = self.program.thread(t).ops();
            while let Some(op) = ops.get(s.pcs[t]) {
                if self.is_pure(op) {
                    s.pcs[t] += 1;
                } else {
                    break;
                }
            }
        }
        for b in &mut s.bufs {
            b.normalize();
        }
    }

    fn resolve(&self, s: &MState, value: ValueSrc) -> u64 {
        let read = |a: Addr| s.mem.get(&a).copied().unwrap_or(0);
        match value {
            ValueSrc::Imm(v) => v,
            ValueSrc::OldOf(a) => read(a),
            ValueSrc::OldPlus { addr, delta } => read(addr).wrapping_add(delta),
            ValueSrc::LogTag { tag, target } => ValueSrc::log_tag_value(tag, target, read(target)),
        }
    }

    /// Can thread `t` execute its next op in state `s`? (Blocking fences
    /// wait for their drain condition; locks wait for the holder.)
    fn enabled(&self, s: &MState, t: usize, op: &Op) -> bool {
        match *op {
            Op::Sfence => match self.design {
                // x86: stall until pending write-backs are accepted.
                // DPO: the fence drains the persist buffer (§8.2.2).
                DesignKind::IntelX86 | DesignKind::Dpo => s.bufs[t].is_empty(),
                _ => unreachable!("sfence outside x86/DPO"),
            },
            Op::Dfence | Op::SpecBarrier | Op::JoinStrand => s.bufs[t].is_empty(),
            Op::Lock { lock } => {
                let free = !s.locks.contains_key(&lock.0);
                // DPO drains its buffer at acquire as well (§8.2.2).
                free && (self.design != DesignKind::Dpo || s.bufs[t].is_empty())
            }
            Op::Unlock { .. } => self.design != DesignKind::Dpo || s.bufs[t].is_empty(),
            _ => true,
        }
    }

    /// Executes thread `t`'s next op (must be enabled). Returns a label.
    fn exec(&self, s: &mut MState, t: usize) -> String {
        let op = self.program.thread(t).ops()[s.pcs[t]];
        s.pcs[t] += 1;
        let label = match op {
            Op::Store { addr, value } => {
                let v = self.resolve(s, value);
                s.mem.insert(addr, v);
                if addr.is_pm() {
                    s.bufs[t].push_store(addr, v);
                }
                format!("t{t}:st {addr}")
            }
            Op::Clwb { addr } => {
                let Buf::Writeback(lines) = &mut s.bufs[t] else {
                    unreachable!("clwb reaches only the x86 buffer");
                };
                lines.insert(addr.line());
                format!("t{t}:clwb {addr}")
            }
            Op::Ofence | Op::StrandBarrier => {
                let Buf::Strands { strands, fresh } = &mut s.bufs[t] else {
                    unreachable!("ofence/persist-barrier are HOPS/StrandWeaver-only");
                };
                if !*fresh {
                    if let Some(last) = strands.last_mut() {
                        if !last.epochs.is_empty() {
                            last.close = true;
                        }
                    }
                }
                format!("t{t}:{}", op.mnemonic())
            }
            Op::NewStrand => {
                let Buf::Strands { fresh, strands } = &mut s.bufs[t] else {
                    unreachable!("new-strand is StrandWeaver-only");
                };
                if !strands.is_empty() {
                    *fresh = true;
                }
                format!("t{t}:{}", op.mnemonic())
            }
            Op::Sfence | Op::Dfence | Op::SpecBarrier | Op::JoinStrand => {
                format!("t{t}:{}", op.mnemonic())
            }
            Op::Lock { lock } => {
                s.locks.insert(lock.0, t);
                format!("t{t}:lock {lock}")
            }
            Op::Unlock { lock } => {
                let holder = s.locks.remove(&lock.0);
                debug_assert_eq!(holder, Some(t), "validated programs unlock held locks");
                format!("t{t}:unlock {lock}")
            }
            other => unreachable!("pure op {other} must be folded by settle()"),
        };
        self.settle(s);
        label
    }

    /// All drain choices of thread `t`'s buffer.
    fn drains(&self, s: &MState, t: usize, out: &mut Vec<(String, MState)>) {
        match &s.bufs[t] {
            Buf::Writeback(lines) => {
                for &line in lines {
                    let mut next = s.clone();
                    // Accepting the write-back persists the line's
                    // current volatile words.
                    for (&a, &v) in s.mem.range(line.base()..) {
                        if a.line() != line {
                            break;
                        }
                        next.pmem.insert(a, v);
                    }
                    let Buf::Writeback(nl) = &mut next.bufs[t] else {
                        unreachable!("clone preserves the buffer kind");
                    };
                    nl.remove(&line);
                    self.settle(&mut next);
                    out.push((format!("t{t}:accept {line}"), next));
                }
            }
            Buf::Fifo(q) => {
                if let Some(&(addr, v)) = q.front() {
                    let mut next = s.clone();
                    next.pmem.insert(addr, v);
                    let Buf::Fifo(nq) = &mut next.bufs[t] else {
                        unreachable!("clone preserves the buffer kind");
                    };
                    nq.pop_front();
                    self.settle(&mut next);
                    out.push((format!("t{t}:accept {addr}"), next));
                }
            }
            Buf::Strands { strands, .. } => {
                for (si, strand) in strands.iter().enumerate() {
                    let Some(front) = strand.epochs.front() else {
                        continue;
                    };
                    for (i, &(addr, v)) in front.iter().enumerate() {
                        let mut next = s.clone();
                        next.pmem.insert(addr, v);
                        let Buf::Strands { strands: ns, .. } = &mut next.bufs[t] else {
                            unreachable!("clone preserves the buffer kind");
                        };
                        ns[si].epochs.front_mut().expect("front exists").remove(i);
                        self.settle(&mut next);
                        out.push((format!("t{t}:s{si}:accept {addr}"), next));
                    }
                }
            }
        }
    }

    fn successors(&self, s: &MState) -> Vec<(String, MState)> {
        let mut out = Vec::new();
        for t in 0..s.pcs.len() {
            if let Some(op) = self.program.thread(t).ops().get(s.pcs[t]) {
                if self.enabled(s, t, op) {
                    let mut next = s.clone();
                    let label = self.exec(&mut next, t);
                    out.push((label, next));
                }
            }
        }
        for t in 0..s.pcs.len() {
            self.drains(s, t, &mut out);
        }
        out
    }

    /// True when every thread ran to completion (buffers are then empty
    /// by construction, since drains stay enabled while non-empty).
    fn completed(&self, s: &MState) -> bool {
        s.pcs
            .iter()
            .enumerate()
            .all(|(t, &pc)| pc == self.program.thread(t).ops().len())
    }
}

/// What exhaustive enumeration found for one (shape × design).
#[derive(Debug, Clone)]
pub struct EnumeratedLitmus {
    /// Shape name.
    pub test: &'static str,
    /// Design under check.
    pub design: DesignKind,
    /// Exploration statistics (states, transitions, dedup, depth).
    pub stats: ExploreStats,
    /// Every crash-observable outcome over the shape's observed words.
    pub outcomes: BTreeSet<Vec<u64>>,
    /// Outcomes of fully completed, fully drained executions.
    pub terminal_outcomes: BTreeSet<Vec<u64>>,
    /// First decision trace reaching each outcome (the reproducer).
    pub first_trace: BTreeMap<Vec<u64>, String>,
    /// Traces of states with no successor where some thread had not
    /// finished — always empty for well-formed shapes.
    pub deadlocks: Vec<String>,
}

/// Exhaustively enumerates every persist-order interleaving of `test`
/// lowered for `design`.
///
/// # Panics
///
/// Panics if the state space exceeds the internal cap (a suite bug —
/// litmus shapes are tiny by construction).
pub fn enumerate_litmus(test: &LitmusTest, design: DesignKind) -> EnumeratedLitmus {
    enumerate_machine(Machine::new(test, design), test.name, &test.observed)
}

/// Exhaustively enumerates every persist-order interleaving of an
/// already-lowered (possibly hand-built or *mutated*) `program`,
/// projecting outcomes onto `observed`.
///
/// Unlike [`enumerate_litmus`] this takes the concrete op stream
/// directly, so it runs programs [`Program::validate`] would reject —
/// the mutation self-test uses it to show that a broken lowering
/// actually reaches images the intact program's axioms forbid.
///
/// # Panics
///
/// Panics if the state space exceeds the internal cap.
pub fn enumerate_program(program: Program, observed: &[Addr]) -> EnumeratedLitmus {
    let design = program.design();
    enumerate_machine(Machine { program, design }, "program", observed)
}

fn enumerate_machine(machine: Machine, name: &'static str, observed: &[Addr]) -> EnumeratedLitmus {
    let design = machine.design;
    let mut outcomes = BTreeSet::new();
    let mut terminal_outcomes = BTreeSet::new();
    let mut first_trace = BTreeMap::new();
    let mut deadlocks = Vec::new();
    let stats = explore(
        machine.initial(),
        |s| machine.successors(s),
        |s, trace, terminal| {
            let tuple: Vec<u64> = observed
                .iter()
                .map(|a| s.pmem.get(a).copied().unwrap_or(0))
                .collect();
            if !outcomes.contains(&tuple) {
                first_trace.insert(tuple.clone(), trace.to_string());
            }
            if terminal {
                if machine.completed(s) {
                    terminal_outcomes.insert(tuple.clone());
                } else {
                    deadlocks.push(trace.to_string());
                }
            }
            outcomes.insert(tuple);
        },
        STATE_LIMIT,
    )
    .unwrap_or_else(|e| {
        panic!("{name} on {}: {e}", design.label());
    });
    EnumeratedLitmus {
        test: name,
        design,
        stats,
        outcomes,
        terminal_outcomes,
        first_trace,
        deadlocks,
    }
}

/// An enumerated outcome the axiomatic model forbids — a bug in the
/// design model (or the oracle), with its replayable reproducer.
#[derive(Debug, Clone)]
pub struct ModelMismatch {
    /// Shape name.
    pub test: &'static str,
    /// Design under check.
    pub design: DesignKind,
    /// The forbidden outcome.
    pub outcome: Vec<u64>,
    /// Decision trace that first produced it.
    pub trace: String,
}

impl fmt::Display for ModelMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "experiments litmus_exhaustive test={} design={} outcome={:?} trace=\"{}\"",
            self.test,
            self.design.label(),
            self.outcome,
            self.trace
        )
    }
}

/// The full exhaustive check of one (shape × design): enumeration plus
/// the diff against the axiomatic allowed set.
#[derive(Debug, Clone)]
pub struct ExhaustiveReport {
    /// The enumeration itself.
    pub enumerated: EnumeratedLitmus,
    /// The axiomatic allowed-outcome set.
    pub allowed: BTreeSet<Vec<u64>>,
    /// Enumerated but forbidden: simulator-model bugs.
    pub forbidden: Vec<ModelMismatch>,
    /// Allowed but never enumerated: coverage slack.
    pub slack: Vec<Vec<u64>>,
    /// Every expected final outcome is reachable by some completed
    /// execution, and no completed execution ends outside the allowed
    /// set. (Exact equality with the shape's `finals` is a *timing*
    /// property — bounded persist latency makes the last coherence
    /// writer's value arrive last — which the untimed machine
    /// deliberately drops; the sampled engine still checks it. See
    /// DESIGN.md, "Axiomatic persistency oracle".)
    pub finals_ok: bool,
}

impl ExhaustiveReport {
    /// True when the check is fully clean (slack is reported but not a
    /// failure: the model may legitimately allow more than the
    /// machinery produces).
    pub fn is_ok(&self) -> bool {
        self.forbidden.is_empty() && self.finals_ok && self.enumerated.deadlocks.is_empty()
    }
}

/// Runs the exhaustive check for one (shape × design).
///
/// # Panics
///
/// Panics if the state space exceeds the internal cap (a suite bug).
pub fn check_litmus_exhaustive(test: &LitmusTest, design: DesignKind) -> ExhaustiveReport {
    let enumerated = enumerate_litmus(test, design);
    let lowered = lower_program(design, &test.program);
    let allowed = axiomatic_allowed(&lowered, &test.observed);
    let forbidden = enumerated
        .outcomes
        .iter()
        .filter(|o| !allowed.contains(*o))
        .map(|o| ModelMismatch {
            test: test.name,
            design,
            outcome: o.clone(),
            trace: enumerated
                .first_trace
                .get(o)
                .cloned()
                .unwrap_or_else(|| "(trace lost)".to_string()),
        })
        .collect();
    let slack: Vec<Vec<u64>> = allowed
        .iter()
        .filter(|o| !enumerated.outcomes.contains(*o))
        .cloned()
        .collect();
    let finals: BTreeSet<Vec<u64>> = test.finals.iter().cloned().collect();
    let finals_ok = finals.is_subset(&enumerated.terminal_outcomes)
        && enumerated.terminal_outcomes.is_subset(&allowed);
    ExhaustiveReport {
        enumerated,
        allowed,
        forbidden,
        slack,
        finals_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::litmus::litmus_shape;

    fn outs(r: &EnumeratedLitmus) -> Vec<Vec<u64>> {
        r.outcomes.iter().cloned().collect()
    }

    #[test]
    fn strict_store_store_never_reorders() {
        let shape = litmus_shape("store_store");
        for design in [DesignKind::Dpo, DesignKind::PmemSpec] {
            let r = enumerate_litmus(&shape, design);
            assert_eq!(
                outs(&r),
                vec![vec![0, 0], vec![1, 0], vec![1, 1]],
                "{design}"
            );
            assert!(r.deadlocks.is_empty());
        }
    }

    #[test]
    fn epoch_store_store_reorders() {
        let shape = litmus_shape("store_store");
        for design in [
            DesignKind::IntelX86,
            DesignKind::Hops,
            DesignKind::StrandWeaver,
        ] {
            let r = enumerate_litmus(&shape, design);
            assert!(
                r.outcomes.contains(&vec![0, 1]),
                "{design} must reach the reordered image"
            );
            assert_eq!(r.outcomes.len(), 4, "{design}");
        }
    }

    #[test]
    fn terminal_states_cover_the_finals() {
        let shape = litmus_shape("lock_handoff");
        for design in DesignKind::ALL_EXTENDED {
            let r = enumerate_litmus(&shape, design);
            let finals: BTreeSet<Vec<u64>> = shape.finals.iter().cloned().collect();
            assert!(
                finals.is_subset(&r.terminal_outcomes),
                "{design}: both lock orders must complete; got {:?}",
                r.terminal_outcomes
            );
        }
    }

    /// Pins the documented deviation (DESIGN.md, "Axiomatic persistency
    /// oracle"): with time erased, two threads' buffered stores to one
    /// address may drain in either order, so a completed lock handoff
    /// can leave *either* writer's value durable per word. The timing
    /// simulator's stronger finals property ([1,1]/[2,2] only) rests on
    /// bounded persist latency and stays checked by the sampled engine.
    #[test]
    fn untimed_terminals_race_same_address_drains() {
        let shape = litmus_shape("lock_handoff");
        let r = enumerate_litmus(&shape, DesignKind::Hops);
        let expect: BTreeSet<Vec<u64>> = [vec![1, 1], vec![1, 2], vec![2, 1], vec![2, 2]].into();
        assert_eq!(r.terminal_outcomes, expect);
        // Single-thread shapes have no such race: the terminal image is
        // exactly the program's final values.
        let r = enumerate_litmus(&litmus_shape("epoch"), DesignKind::Hops);
        assert_eq!(r.terminal_outcomes, [vec![1, 1, 1]].into());
    }

    #[test]
    fn every_outcome_carries_a_reproducer_trace() {
        let shape = litmus_shape("flush_store");
        let r = enumerate_litmus(&shape, DesignKind::IntelX86);
        for o in &r.outcomes {
            let trace = r.first_trace.get(o).expect("trace recorded");
            assert!(!trace.is_empty());
        }
        // The initial (all-zero) image is reached by the empty trace.
        assert_eq!(r.first_trace[&vec![0, 0]], "(initial)");
    }

    #[test]
    fn exhaustive_check_is_clean_on_one_pair() {
        let shape = litmus_shape("epoch");
        let r = check_litmus_exhaustive(&shape, DesignKind::Hops);
        assert!(r.is_ok(), "forbidden={:?}", r.forbidden);
        assert!(r.slack.is_empty(), "slack={:?}", r.slack);
    }

    #[test]
    fn mismatch_display_is_a_one_line_reproducer() {
        let m = ModelMismatch {
            test: "store_store",
            design: DesignKind::Dpo,
            outcome: vec![0, 1],
            trace: "t0:st pm:0x1000".to_string(),
        };
        let line = m.to_string();
        assert!(line.contains("experiments litmus_exhaustive"));
        assert!(line.contains("test=store_store"));
        assert!(line.contains("design=DPO"));
        assert!(!line.contains('\n'));
    }
}

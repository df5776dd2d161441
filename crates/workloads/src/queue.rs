//! Concurrent Queue: insert/delete nodes in a shared queue (Table 4,
//! after DPO's microbenchmark).
//!
//! The classic two-lock (Michael–Scott) queue: a linked list of 64-byte
//! nodes with a dummy head, a `head` pointer guarded by the dequeue lock
//! and a `tail` pointer guarded by the enqueue lock. Enqueues allocate a
//! node from a per-thread pool, fill it, link `tail->next`, and swing
//! `tail`; dequeues read `head->next`, copy the value out, and swing
//! `head`. Every mutation runs in an undo-logged FASE.
//!
//! Inter-thread write-after-write dependencies on the `head`/`tail` words
//! and on `next` pointers are exactly the store-misspeculation surface of
//! §5.2. Trace-driven caveat: node addresses and link values are fixed at
//! generation time by a global serialization of the operations; the
//! runtime's lock interleaving may differ, which perturbs *values* but
//! not the access pattern (see DESIGN.md). The operation counters (at
//! `enq_count`/`deq_count`) use fetch-and-add and are checked exactly.

use std::collections::{HashMap, VecDeque};

use pmemspec_engine::SimRng;
use pmemspec_isa::abs::{AbsProgram, AbsThread};
use pmemspec_isa::addr::Addr;
use pmemspec_isa::{LockId, ValueSrc};
use pmemspec_runtime::{LogLayout, UndoLog};

use crate::{GeneratedWorkload, WorkloadParams};

/// Words per node: [value0..5, next, pad].
const NODE_WORDS: u64 = 8;
/// `next` field index within a node.
const NEXT: u64 = 6;
/// Nodes in each thread's allocation pool (ring-reused).
const POOL_NODES: u64 = 512;

/// The dequeue-side lock.
const HEAD_LOCK: LockId = LockId(0);
/// The enqueue-side lock.
const TAIL_LOCK: LockId = LockId(1);

/// Generates the workload.
pub fn generate(params: &WorkloadParams) -> GeneratedWorkload {
    let threads = params.threads;
    // Per FASE: a node (8 words) + a pointer + a counter.
    let layout = LogLayout::new(0, threads, 4, 10);
    let undo = UndoLog::new(layout);
    let base = Addr::pm(layout.end_offset().next_multiple_of(4096));
    // One line apiece: `head` and `tail` are guarded by different locks,
    // so sharing a line would be textbook false sharing — and would also
    // interleave independently-ordered speculation IDs on one line, which
    // the line-granular store-misspeculation check (rightly) flags.
    let head = base; // head pointer word
    let tail = base.offset(64); // tail pointer word
    let enq_count = base.offset(128);
    let deq_count = base.offset(192);
    let dummy = base.offset(256); // the initial dummy node
    let pool_base = base.offset(4096);
    let node_addr = |tid: u64, slot: u64| {
        pool_base.offset((tid * POOL_NODES + slot % POOL_NODES) * NODE_WORDS * 8)
    };

    let mut rng = SimRng::seed_from_u64(params.seed);
    let mut program = AbsProgram::new();

    // Globally serialize the operation mix so the generated list is
    // structurally consistent: each thread's k-th op happens at global
    // round k (round-robin), and dequeues only run on a non-empty queue.
    let mut list: VecDeque<Addr> = VecDeque::new(); // nodes behind the dummy
    let mut last_node = dummy; // generation-time tail node
    let mut alloc_next = vec![0u64; threads];
    #[derive(Clone, Copy)]
    enum QueueOp {
        Enqueue { node: Addr, prev_tail: Addr },
        Dequeue { node: Addr },
    }
    let mut per_thread_ops: Vec<Vec<QueueOp>> = vec![Vec::new(); threads];
    for i in 0..params.fases_per_thread * threads {
        let tid = i % threads;
        let want_dequeue = rng.gen_ratio(1, 2) && !list.is_empty();
        if want_dequeue {
            let node = list.pop_front().expect("non-empty");
            if list.is_empty() {
                // In the two-lock queue the dequeued node becomes the new
                // dummy; once the list drains, the next enqueue links
                // behind it.
                last_node = node;
            }
            per_thread_ops[tid].push(QueueOp::Dequeue { node });
        } else {
            let node = node_addr(tid as u64, alloc_next[tid]);
            alloc_next[tid] += 1;
            per_thread_ops[tid].push(QueueOp::Enqueue {
                node,
                prev_tail: last_node,
            });
            list.push_back(node);
            last_node = node;
        }
    }

    let mut enqueues = 0u64;
    let mut dequeues = 0u64;
    for (tid, ops) in per_thread_ops.iter().enumerate() {
        let mut t = AbsThread::new();
        for (fase_no, &op) in ops.iter().enumerate() {
            let fase_no = fase_no as u64;
            t.begin_fase();
            match op {
                QueueOp::Enqueue { node, prev_tail } => {
                    enqueues += 1;
                    t.acquire(TAIL_LOCK);
                    // Read the tail pointer, then the tail node's link.
                    t.pm_read(tail);
                    t.pm_read(prev_tail.offset(NEXT * 8));
                    // Log: the new node's words, the predecessor's link,
                    // the tail pointer, and the counter.
                    let mut targets: Vec<Addr> =
                        (0..NODE_WORDS).map(|w| node.offset(w * 8)).collect();
                    targets.push(prev_tail.offset(NEXT * 8));
                    targets.push(tail);
                    undo.emit_log(&mut t, tid, fase_no, &targets);
                    // Fill the node...
                    for w in 0..6u64 {
                        t.data_write(
                            node.offset(w * 8),
                            ((tid as u64) << 48) | (fase_no << 8) | w,
                        );
                    }
                    t.data_write(node.offset(NEXT * 8), 0u64);
                    t.data_write(node.offset(7 * 8), 0u64);
                    // ...link it and swing the tail.
                    t.data_write(prev_tail.offset(NEXT * 8), node.raw());
                    t.data_write(tail, node.raw());
                    t.data_write(
                        enq_count,
                        ValueSrc::OldPlus {
                            addr: enq_count,
                            delta: 1,
                        },
                    );
                    undo.emit_truncate(&mut t, tid, fase_no);
                    t.release(TAIL_LOCK);
                }
                QueueOp::Dequeue { node } => {
                    dequeues += 1;
                    t.acquire(HEAD_LOCK);
                    // Read head, follow to the node, copy the value out.
                    t.pm_read(head);
                    for w in 0..6u64 {
                        t.pm_read(node.offset(w * 8));
                    }
                    t.pm_read(node.offset(NEXT * 8));
                    t.compute(10);
                    undo.emit_log(&mut t, tid, fase_no, &[head]);
                    t.data_write(head, node.raw());
                    t.data_write(
                        deq_count,
                        ValueSrc::OldPlus {
                            addr: deq_count,
                            delta: 1,
                        },
                    );
                    undo.emit_truncate(&mut t, tid, fase_no);
                    t.release(HEAD_LOCK);
                }
            }
            t.end_fase();
        }
        program.add_thread(t);
    }

    // The counters are exact fetch-and-adds under their respective locks,
    // so their final values are interleaving-independent.
    let mut expected = HashMap::new();
    expected.insert(enq_count, enqueues);
    expected.insert(deq_count, dequeues);

    GeneratedWorkload {
        program,
        undo: Some(undo),
        redo: None,
        expected_final: expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmemspec_isa::abs::AbsOp;

    #[test]
    fn two_locks_guard_the_two_ends() {
        let g = generate(&WorkloadParams::small(2).with_fases(40));
        let mut locks = std::collections::HashSet::new();
        for ops in g.program.threads() {
            for op in ops {
                if let AbsOp::LockAcquire { lock } = op {
                    locks.insert(*lock);
                }
            }
        }
        assert_eq!(locks.len(), 2, "head lock + tail lock");
    }

    #[test]
    fn enqueues_link_nodes() {
        let g = generate(&WorkloadParams::small(1).with_fases(30).with_seed(3));
        // Every enqueue writes some node's `next` field with a node
        // address (non-zero raw).
        let ops = g.program.thread(0);
        let link_writes = ops
            .iter()
            .filter(
                |o| matches!(o, AbsOp::DataWrite { value: ValueSrc::Imm(v), .. } if v.get() > 1 << 40),
            )
            .count();
        assert!(link_writes > 0, "pointer-valued writes must exist");
    }

    #[test]
    fn dequeues_never_outpace_enqueues() {
        let g = generate(&WorkloadParams::small(4).with_fases(50));
        let counts: Vec<u64> = g.expected_final.values().copied().collect();
        let (hi, lo) = (counts.iter().max().unwrap(), counts.iter().min().unwrap());
        assert!(lo <= hi);
        assert_eq!(hi + lo, 200, "every FASE is an enqueue or dequeue");
    }

    #[test]
    fn fase_count_matches_params() {
        let g = generate(&WorkloadParams::small(3).with_fases(7));
        let fases: usize = g
            .program
            .threads()
            .map(|ops| {
                ops.iter()
                    .filter(|o| matches!(o, AbsOp::FaseBegin { .. }))
                    .count()
            })
            .sum();
        assert_eq!(fases, 21);
    }

    #[test]
    fn every_fase_holds_a_lock_for_its_writes() {
        let g = generate(&WorkloadParams::small(2).with_fases(20));
        for ops in g.program.threads() {
            let mut held = false;
            for op in ops {
                match op {
                    AbsOp::LockAcquire { .. } => held = true,
                    AbsOp::LockRelease { .. } => held = false,
                    AbsOp::DataWrite { .. } | AbsOp::LogWrite { .. } => {
                        assert!(held, "queue writes happen inside a critical section");
                    }
                    _ => {}
                }
            }
        }
    }
}

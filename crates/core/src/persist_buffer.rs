//! The per-core persist buffer of HOPS, DPO (Figure 1a/1b) and
//! StrandWeaver (Figure 1c; Gogte et al., ISCA 2020).
//!
//! All three designs keep a per-core buffer of to-be-persisted stores
//! next to the L1. Stores enter at commit; the buffer drains
//! asynchronously to the PM controller, preserving *epoch* order:
//! persists of epoch *n+1* may not begin until every persist of epoch
//! *n* is durable (accepted by the ADR domain). Within an epoch, persists
//! pipeline freely.
//!
//! * **HOPS** — `ofence` ([`PersistBuffer::barrier`]) opens a new epoch
//!   without stalling; `dfence` stalls until the buffer drains.
//! * **DPO** — additionally *serializes drains globally*: only a single
//!   flush may be outstanding to the PM controller at a time (§8.2.2).
//!   The caller threads a shared `global_token` through inserts to model
//!   this.
//! * **StrandWeaver** — strand persistency generalizes epochs:
//!   `NewStrand` ([`PersistBuffer::new_strand`]) begins a strand whose
//!   persists carry **no ordering dependency on earlier strands**, so
//!   strands drain to the PM controller concurrently. `persist-barrier`
//!   is the intra-strand epoch boundary, and `JoinStrand` waits for
//!   every strand issued so far. With the undo-logging lowering used
//!   here (each FASE = one strand), StrandWeaver's win over HOPS is
//!   *cross-FASE* drain concurrency: FASE *n+1*'s persists do not wait
//!   for FASE *n*'s tail epochs, while HOPS chains every epoch
//!   sequentially.
//!
//! An epoch buffer is a strand buffer whose one strand never renews, so
//! its drain point ([`PersistBuffer::drained_at`]) is the join point.
//! A full buffer stalls the inserting core until the oldest entry
//! drains, which is DPO's dominant cost.

use std::collections::VecDeque;

use pmemspec_engine::clock::{Cycle, Duration};
use pmemspec_mem::PmController;

/// The result of inserting one store into the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PbInsert {
    /// When the core could actually insert (later than the commit time
    /// only when the buffer was full — the core stalls until then).
    pub admitted: Cycle,
    /// When the persist was accepted by the PM controller (durable).
    pub accepted: Cycle,
}

/// One core's persist buffer.
///
/// # Examples
///
/// ```
/// use pmem_spec::persist_buffer::PersistBuffer;
/// use pmemspec_engine::{SimConfig, Cycle};
/// use pmemspec_engine::clock::Duration;
/// use pmemspec_mem::PmController;
///
/// let cfg = SimConfig::asplos21(8);
/// let mut pmc = PmController::new(&cfg.pm);
/// let mut pb = PersistBuffer::new(32, Duration::from_ns(20), Duration::from_ns(2));
/// let a = pb.insert(Cycle::ZERO, 0, &mut pmc, None);
/// assert_eq!(a.admitted, Cycle::ZERO);
/// assert_eq!(a.accepted.as_ns(), 20, "path latency then immediate acceptance");
/// pb.barrier();
/// let b = pb.insert(Cycle::ZERO, 0, &mut pmc, None);
/// assert!(b.accepted > a.accepted, "the barrier orders persists");
/// ```
#[derive(Debug, Clone)]
pub struct PersistBuffer {
    capacity: usize,
    path_latency: Duration,
    gap: Duration,
    /// Spacing enforced between *globally serialized* flushes (DPO's
    /// single-flush-at-a-time rule); defaults to the per-core gap.
    serial_slot: Duration,
    /// Acceptance times of entries still occupying the buffer, FIFO
    /// (shared by every strand).
    pending: VecDeque<Cycle>,
    /// Delivery time of the most recent entry: injection spacing is
    /// shared by every strand.
    last_delivery: Cycle,
    /// All persists of the open strand's *closed* epochs are durable by
    /// this time (reset by `new_strand`).
    closed_durable: Cycle,
    /// Running max acceptance within the open strand (reset by
    /// `new_strand`).
    open_durable: Cycle,
    /// Durability of everything inserted on any strand.
    all_durable: Cycle,
    /// Epochs opened (barrier count + 1).
    epochs: u64,
    /// Strands opened.
    strands: u64,
    inserted: u64,
    full_stalls: u64,
}

impl PersistBuffer {
    /// Creates a buffer of `capacity` entries draining over a path with
    /// the given latency and slot spacing.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, path_latency: Duration, gap: Duration) -> Self {
        assert!(capacity > 0, "persist buffer needs capacity");
        PersistBuffer {
            capacity,
            path_latency,
            gap,
            serial_slot: gap,
            pending: VecDeque::with_capacity(capacity),
            last_delivery: Cycle::ZERO,
            closed_durable: Cycle::ZERO,
            open_durable: Cycle::ZERO,
            all_durable: Cycle::ZERO,
            epochs: 1,
            strands: 0,
            inserted: 0,
            full_stalls: 0,
        }
    }

    /// Overrides the global-serialization slot time (DPO).
    pub fn with_serial_slot(mut self, slot: Duration) -> Self {
        self.serial_slot = slot;
        self
    }

    /// Inserts a store committed at `commit`. Pass `global_token` to
    /// serialize drains across cores (DPO); `None` lets drains pipeline
    /// (HOPS, StrandWeaver).
    pub fn insert(
        &mut self,
        commit: Cycle,
        line_key: u64,
        pmc: &mut PmController,
        global_token: Option<&mut Cycle>,
    ) -> PbInsert {
        // Free entries already durable by the commit time.
        while self.pending.front().is_some_and(|&a| a <= commit) {
            self.pending.pop_front();
        }
        let admitted = if self.pending.len() >= self.capacity {
            self.full_stalls += 1;
            let oldest = self.pending.pop_front().expect("full buffer non-empty");
            oldest.max(commit)
        } else {
            commit
        };
        // An entry may not *leave* the buffer before all persists of the
        // strand's closed epochs are durable (epoch ordering), nor — under
        // DPO's global serialization — before the previous flush anywhere
        // in the system is durable; it then still traverses the path.
        let mut delivery = (admitted + self.path_latency)
            .max(self.last_delivery + self.gap)
            .max(self.closed_durable + self.path_latency);
        if let Some(token) = &global_token {
            // DPO allows a single flush to the PM controller at once: this
            // flush may not arrive until the previous one (from any core)
            // has, plus a transfer slot.
            delivery = delivery.max(**token + self.serial_slot);
        }
        let svc = pmc.write_word(delivery, line_key);
        if let Some(token) = global_token {
            *token = delivery;
        }
        self.last_delivery = delivery;
        self.open_durable = self.open_durable.max(svc.accepted);
        self.all_durable = self.all_durable.max(svc.accepted);
        self.pending.push_back(svc.accepted);
        self.inserted += 1;
        PbInsert {
            admitted,
            accepted: svc.accepted,
        }
    }

    /// Closes the open strand's current epoch (`ofence`, StrandWeaver's
    /// `persist-barrier`): following persists wait for the strand's
    /// earlier ones. Does not stall the core.
    pub fn barrier(&mut self) {
        self.closed_durable = self.closed_durable.max(self.open_durable);
        self.epochs += 1;
    }

    /// Begins a new strand: following persists drop all ordering
    /// dependencies on earlier strands (but still share buffer capacity
    /// and injection bandwidth).
    pub fn new_strand(&mut self) {
        self.closed_durable = Cycle::ZERO;
        self.open_durable = Cycle::ZERO;
        self.strands += 1;
    }

    /// The time by which everything inserted so far, on every strand, is
    /// durable — what `dfence` and `JoinStrand` stall on. Equals `now`
    /// when already drained.
    pub fn drained_at(&self, now: Cycle) -> Cycle {
        self.all_durable.max(now)
    }

    /// The one-way latency of the path the buffer drains over.
    pub fn path_latency(&self) -> Duration {
        self.path_latency
    }

    /// Entries still occupying the buffer at `now` (inserted, not yet
    /// durable). Non-mutating, for occupancy samplers.
    pub fn occupancy_at(&self, now: Cycle) -> usize {
        self.pending.iter().filter(|&&a| a > now).count()
    }

    /// Entries inserted over the buffer's lifetime.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Number of inserts that stalled on a full buffer.
    pub fn full_stalls(&self) -> u64 {
        self.full_stalls
    }

    /// Epochs opened.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Strands opened.
    pub fn strands(&self) -> u64 {
        self.strands
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmemspec_engine::rng::SimRng;
    use pmemspec_engine::SimConfig;

    fn pmc() -> PmController {
        PmController::new(&SimConfig::asplos21(8).pm)
    }

    fn buffer() -> PersistBuffer {
        PersistBuffer::new(4, Duration::from_ns(20), Duration::from_ns(2))
    }

    #[test]
    fn within_epoch_persists_pipeline() {
        let mut pmc = pmc();
        let mut pb = buffer();
        let a = pb.insert(Cycle::ZERO, 0, &mut pmc, None);
        let b = pb.insert(Cycle::ZERO, 0, &mut pmc, None);
        assert_eq!(a.accepted.as_ns(), 20);
        assert_eq!(b.accepted.as_ns(), 22, "only FIFO spacing apart");
    }

    #[test]
    fn epoch_boundary_orders_drains() {
        let mut pmc = pmc();
        let mut pb = buffer();
        let a = pb.insert(Cycle::ZERO, 0, &mut pmc, None);
        pb.barrier();
        let b = pb.insert(Cycle::ZERO, 0, &mut pmc, None);
        assert!(
            b.accepted >= a.accepted + Duration::from_ns(20),
            "next epoch waits for previous durability, then traverses the path"
        );
        assert_eq!(pb.epochs(), 2);
    }

    #[test]
    fn full_buffer_stalls_the_core() {
        let mut pmc = pmc();
        let mut pb = PersistBuffer::new(2, Duration::from_ns(20), Duration::from_ns(2));
        pb.insert(Cycle::ZERO, 0, &mut pmc, None);
        pb.insert(Cycle::ZERO, 0, &mut pmc, None);
        let third = pb.insert(Cycle::ZERO, 0, &mut pmc, None);
        assert!(third.admitted > Cycle::ZERO, "insert waits for a slot");
        assert_eq!(pb.full_stalls(), 1);
    }

    #[test]
    fn buffer_frees_after_drain() {
        let mut pmc = pmc();
        let mut pb = PersistBuffer::new(2, Duration::from_ns(20), Duration::from_ns(2));
        pb.insert(Cycle::ZERO, 0, &mut pmc, None);
        pb.insert(Cycle::ZERO, 0, &mut pmc, None);
        let later = Cycle::from_ns(10_000);
        let ins = pb.insert(later, 0, &mut pmc, None);
        assert_eq!(ins.admitted, later, "drained buffer admits immediately");
    }

    #[test]
    fn dfence_semantics() {
        let mut pmc = pmc();
        let mut pb = buffer();
        assert_eq!(pb.drained_at(Cycle::from_ns(7)), Cycle::from_ns(7), "idle");
        let ins = pb.insert(Cycle::ZERO, 0, &mut pmc, None);
        assert_eq!(pb.drained_at(Cycle::ZERO), ins.accepted);
        pb.barrier();
        assert_eq!(
            pb.drained_at(Cycle::ZERO),
            ins.accepted,
            "ofence keeps the obligation"
        );
    }

    #[test]
    fn global_token_serializes_across_cores() {
        let mut pmc = pmc();
        let mut pb0 = buffer();
        let mut pb1 = buffer();
        let mut token = Cycle::ZERO;
        let a = pb0.insert(Cycle::ZERO, 0, &mut pmc, Some(&mut token));
        let b = pb1.insert(Cycle::ZERO, 0, &mut pmc, Some(&mut token));
        assert!(
            b.accepted >= a.accepted + Duration::from_ns(2),
            "DPO: one flush to the controller at a time, spaced by a slot"
        );
        assert_eq!(token, b.accepted, "token tracks the latest arrival");
    }

    #[test]
    fn counts_accumulate() {
        let mut pmc = pmc();
        let mut pb = buffer();
        for i in 0..5 {
            pb.insert(Cycle::from_ns(i * 100), 0, &mut pmc, None);
        }
        assert_eq!(pb.inserted(), 5);
    }

    #[test]
    fn persists_within_one_epoch_pipeline() {
        let mut pmc = pmc();
        let mut sb = buffer();
        sb.new_strand();
        let a = sb.insert(Cycle::ZERO, 0, &mut pmc, None);
        let b = sb.insert(Cycle::ZERO, 1, &mut pmc, None);
        assert_eq!(a.accepted.as_ns(), 20);
        assert_eq!(b.accepted.as_ns(), 22, "injection spacing only");
    }

    #[test]
    fn strand_barrier_orders_within_the_strand() {
        let mut pmc = pmc();
        let mut sb = buffer();
        sb.new_strand();
        let a = sb.insert(Cycle::ZERO, 0, &mut pmc, None);
        sb.barrier();
        let b = sb.insert(Cycle::ZERO, 1, &mut pmc, None);
        assert!(
            b.accepted >= a.accepted + Duration::from_ns(20),
            "cross-epoch persist waits for durability plus a traversal"
        );
    }

    #[test]
    fn new_strand_severs_ordering() {
        let mut pmc = pmc();
        let mut sb = buffer();
        sb.new_strand();
        sb.insert(Cycle::ZERO, 0, &mut pmc, None);
        sb.barrier();
        // Without a new strand, this would wait for the barrier.
        sb.new_strand();
        let b = sb.insert(Cycle::ZERO, 1, &mut pmc, None);
        assert_eq!(b.accepted.as_ns(), 22, "new strand drains concurrently");
        assert_eq!(sb.strands(), 2);
    }

    #[test]
    fn join_covers_every_strand() {
        let mut pmc = pmc();
        let mut sb = buffer();
        sb.new_strand();
        let a = sb.insert(Cycle::ZERO, 0, &mut pmc, None);
        sb.new_strand();
        let b = sb.insert(Cycle::ZERO, 1, &mut pmc, None);
        let join = sb.drained_at(Cycle::ZERO);
        assert_eq!(join, a.accepted.max(b.accepted));
        assert_eq!(sb.drained_at(join), join, "idle after the join point");
    }

    #[test]
    fn capacity_is_shared_across_strands() {
        let mut pmc = pmc();
        let mut sb = PersistBuffer::new(2, Duration::from_ns(20), Duration::from_ns(2));
        sb.new_strand();
        sb.insert(Cycle::ZERO, 0, &mut pmc, None);
        sb.new_strand();
        sb.insert(Cycle::ZERO, 1, &mut pmc, None);
        let third = sb.insert(Cycle::ZERO, 2, &mut pmc, None);
        assert!(
            third.admitted > Cycle::ZERO,
            "buffer full stalls the insert"
        );
        assert_eq!(sb.full_stalls(), 1);
    }

    /// The merge of the epoch and strand buffers rests on one invariant:
    /// without `new_strand`, the open strand's running max *is* the
    /// all-strand max, so the epoch drain point (`closed ∨ open ∨ now`)
    /// equals the join point (`all ∨ now`) at every step. Checked on
    /// random insert/barrier streams, with and without DPO's token —
    /// whose acceptances must never precede `token + serial_slot`.
    #[test]
    fn randomized_drain_point_is_the_join_point_without_new_strand() {
        // Wider than the PM write port's spacing, so the token binds.
        let slot = Duration::from_ns(50);
        for seed in 0..32 {
            let mut rng = SimRng::seed_from_u64(seed);
            let dpo = seed % 2 == 0;
            let capacity = 1 + rng.gen_range(6) as usize;
            let mut pmc = pmc();
            let mut pb = PersistBuffer::new(capacity, Duration::from_ns(20), Duration::from_ns(2))
                .with_serial_slot(slot);
            let mut token = Cycle::ZERO;
            let mut now = Cycle::ZERO;
            for _ in 0..200 {
                now += Duration::from_ns(rng.gen_range(30));
                if rng.gen_range(4) == 0 {
                    pb.barrier();
                } else {
                    let before = token;
                    let ins =
                        pb.insert(now, rng.gen_range(64), &mut pmc, dpo.then_some(&mut token));
                    if dpo {
                        assert!(ins.accepted >= before + slot, "seed {seed}: token order");
                    }
                }
                let t = now + Duration::from_ns(rng.gen_range(200));
                let epoch_drain = pb.closed_durable.max(pb.open_durable).max(t);
                assert_eq!(pb.open_durable, pb.all_durable, "seed {seed}");
                assert_eq!(epoch_drain, pb.drained_at(t), "seed {seed}");
            }
        }
    }
}

//! Per-design persist machinery: the one place each design's persist
//! decisions live (§8.1). [`System`](crate::System) runs the cores, the
//! cache hierarchy and the PM controller's event queue, and asks
//! [`Machinery`] whenever a decision depends on the design.
//!
//! * **IntelX86** — stores drain through the store queue into the caches;
//!   `CLWB` occupies a store-queue entry until its line reaches the ADR
//!   domain; `SFENCE` stalls until the store queue drains; dirty PM lines
//!   evicted from the LLC write back to the PM device.
//! * **DPO** — per-core persist buffers with *globally serialized* flushes;
//!   `SFENCE`, lock acquire and lock release each drain the buffer (DPO
//!   orders persists on every barrier the program executes, §8.2.2);
//!   `CLWB` is absorbed; dirty LLC evictions drop.
//! * **HOPS** — per-core persist buffers with pipelined drains; `ofence`
//!   opens an epoch without stalling; `dfence` stalls until drained; every
//!   PM fetch pays a bloom-filter lookup and is delayed on a (possibly
//!   false-positive) hit; +1 bus cycle for the sticky-M bit; dirty LLC
//!   evictions drop.
//! * **StrandWeaver** (an extension) — per-core strand buffers: the same
//!   [`PersistBuffer`] whose strands renew at `NewStrand`; +1 bus cycle for
//!   delayed exclusive responses; dirty LLC evictions write back.
//! * **PMEM-Spec** — stores go to the caches *and* the per-core persist
//!   path simultaneously; no ordering instructions at all; `spec-barrier`
//!   waits for the path to drain into the ADR domain; dirty LLC evictions
//!   drop with an address-only `WriteBack` notification to the speculation
//!   buffer; detected misspeculation is treated as a virtual power failure
//!   and delegated to the failure-atomic runtime (§6).
//!
//! The machinery owns its buffers, paths, bloom filter and speculation
//! buffers. The state it shares with the rest of the machine — the PM
//! controllers, the per-line ground truth ([`LineMeta`]) and the run
//! counters — it reads and updates through arguments.

use pmemspec_engine::clock::{Cycle, Duration};
use pmemspec_engine::config::{PmcNetworkOrder, SimConfig};
use pmemspec_engine::pagemap::PageMap;
use pmemspec_engine::stats::Stats;
use pmemspec_isa::addr::LineAddr;
use pmemspec_isa::{DesignKind, Op};
use pmemspec_mem::pmc::controller_for;
use pmemspec_mem::{PersistPath, PmController};

use crate::bloom::CountingBloom;
use crate::persist_buffer::PersistBuffer;
use crate::profile::Bucket;
use crate::spec_buffer::{Detection, DetectionMode, OverflowStall, SpecBuffer};
use crate::system::{bump, pm_line_index, Counter, Counters, LineMeta, PmcEventKind};

/// Cost of the bloom-filter lookup HOPS pays on every PM read (§8.2.2).
const HOPS_BLOOM_LOOKUP: Duration = Duration::from_ns(2);

/// Delay charged when the HOPS bloom filter reports a false positive and
/// the read must be retried after the (non-existent) conflict "drains".
const HOPS_FALSE_POSITIVE_PENALTY: Duration = Duration::from_ns(20);

/// Capacity of HOPS'/DPO's per-core persist buffers.
const PERSIST_BUFFER_ENTRIES: usize = 32;

/// Capacity of StrandWeaver's per-core strand buffers (larger than the
/// epoch buffers — StrandWeaver spends more hardware, §9).
const STRAND_BUFFER_ENTRIES: usize = 64;

/// DPO's single-flush-at-a-time quantum: the shared bus carries one flush
/// to the PM controller per slot, system-wide (§8.2.2).
const DPO_FLUSH_SLOT: Duration = Duration::from_ns(1);

/// Slots in HOPS' PM-controller bloom filter.
const HOPS_BLOOM_SLOTS: usize = 1024;

/// One design's persist machinery, for every core.
#[derive(Debug)]
pub(crate) enum Machinery {
    IntelX86,
    Dpo {
        buffers: Vec<PersistBuffer>,
        /// DPO's single-flush-at-a-time token (§8.2.2).
        token: Cycle,
    },
    Hops {
        buffers: Vec<PersistBuffer>,
        bloom: CountingBloom,
        // The ground truth behind the bloom filter lives in the
        // [`LineMeta`] records (`hops_pending`/`hops_accept`).
    },
    StrandWeaver {
        buffers: Vec<PersistBuffer>,
    },
    PmemSpec {
        /// Per core, one FIFO route (order-preserving network) or one per
        /// controller (unordered network, the §7 hazard).
        paths: Vec<Vec<PersistPath>>,
        /// Per core, the dispatch time of the most recent persist-path
        /// entry; kept monotone so the FIFO path sees in-order traffic.
        last_dispatch: Vec<Cycle>,
        /// One speculation buffer per PM controller.
        spec: Vec<SpecBuffer>,
        /// The global speculation-ID counter read by `spec-assign`.
        counter: u64,
    },
}

/// One retired PM store, as the persist machinery sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PmStore {
    pub core: usize,
    pub line: LineAddr,
    /// When the store left the store queue's head.
    pub retire: Cycle,
    /// When its cache-side write completed (monotone per core: TSO).
    pub commit: Cycle,
    /// The FASE is in its pessimistic non-speculative retry (§6.1.2).
    pub nonspec_retry: bool,
}

/// What one PM store's persist did.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StorePersist {
    /// When the word is durable (accepted by a PM write queue).
    pub accepted: Cycle,
    /// The order stamp the ground-truth checks compare: the store's
    /// commit, or its persist-path dispatch under PMEM-Spec.
    pub order: Cycle,
    /// When the core may continue if the persist holds it past retire,
    /// and the bucket that wait is charged to.
    pub wait: Option<(Cycle, Bucket)>,
}

/// Builds `design`'s machinery for `cfg`; `detection` selects the
/// speculation buffers' detector (PMEM-Spec only).
pub(crate) fn for_design(
    design: DesignKind,
    cfg: &SimConfig,
    detection: DetectionMode,
) -> Machinery {
    // Built one by one, not cloned: a clone drops the buffers'
    // preallocated capacity, and short runs then pay for regrowth.
    let buffers = |entries| -> Vec<PersistBuffer> {
        (0..cfg.cores)
            .map(|_| PersistBuffer::new(entries, cfg.persist_path_latency, cfg.persist_path_gap))
            .collect()
    };
    match design {
        DesignKind::IntelX86 => Machinery::IntelX86,
        DesignKind::Dpo => Machinery::Dpo {
            buffers: buffers(PERSIST_BUFFER_ENTRIES)
                .into_iter()
                .map(|b| b.with_serial_slot(DPO_FLUSH_SLOT))
                .collect(),
            token: Cycle::ZERO,
        },
        DesignKind::Hops => Machinery::Hops {
            buffers: buffers(PERSIST_BUFFER_ENTRIES),
            bloom: CountingBloom::new(HOPS_BLOOM_SLOTS),
        },
        DesignKind::StrandWeaver => Machinery::StrandWeaver {
            buffers: buffers(STRAND_BUFFER_ENTRIES),
        },
        DesignKind::PmemSpec => {
            let routes = match cfg.pmc_network {
                PmcNetworkOrder::Fifo => 1,
                PmcNetworkOrder::Unordered => cfg.pm.controllers,
            };
            let path = PersistPath::new(cfg.persist_path_latency, cfg.persist_path_gap);
            let window = cfg.speculation_window();
            Machinery::PmemSpec {
                paths: vec![vec![path; routes]; cfg.cores],
                last_dispatch: vec![Cycle::ZERO; cfg.cores],
                spec: (0..cfg.pm.controllers)
                    .map(|_| SpecBuffer::new(cfg.pm.spec_buffer_entries, window, detection))
                    .collect(),
                counter: 0,
            }
        }
    }
}

impl Machinery {
    /// The extra cycle the design adds to every L1↔LLC transfer: HOPS'
    /// sticky-M bit (§8.2.2), StrandWeaver's delayed exclusive responses
    /// for buffered lines.
    pub(crate) fn bus_penalty(&self) -> Option<Duration> {
        let penalized = matches!(
            self,
            Machinery::Hops { .. } | Machinery::StrandWeaver { .. }
        );
        penalized.then_some(Duration::from_cycles(1))
    }

    /// Persists one retired PM store. Returns `None` when stores persist
    /// only through the caches (IntelX86: CLWB and evictions).
    pub(crate) fn persist_store(
        &mut self,
        store: PmStore,
        pmcs: &mut [PmController],
        line_meta: &mut PageMap<LineMeta>,
    ) -> Option<StorePersist> {
        let PmStore { core, line, .. } = store;
        match self {
            Machinery::IntelX86 => None,
            Machinery::Dpo { buffers, token } => {
                Some(buffer_insert(&mut buffers[core], store, pmcs, Some(token)))
            }
            Machinery::Hops { buffers, bloom } => {
                let p = buffer_insert(&mut buffers[core], store, pmcs, None);
                bloom.insert(line.raw());
                let meta = line_meta.get_mut(pm_line_index(line));
                if meta.hops_pending == 0 {
                    meta.hops_accept = p.accepted;
                } else {
                    meta.hops_accept = meta.hops_accept.max(p.accepted);
                }
                meta.hops_pending += 1;
                Some(p)
            }
            Machinery::StrandWeaver { buffers } => {
                Some(buffer_insert(&mut buffers[core], store, pmcs, None))
            }
            Machinery::PmemSpec {
                paths,
                last_dispatch,
                ..
            } => {
                // Dual-issue: the data leaves for the persist path the
                // moment the store retires (§4.2) — the path carries the
                // value and bypasses the caches, so it does not wait for a
                // write-allocate fill the way the cache-side write does.
                // This is also why Figure 4's false positives exist: the
                // persist can beat the fetch's own completion to the PMC.
                // The pessimistic retry mode instead dispatches after the
                // fill, so the persist can never race this store's own
                // fetch.
                let base = if store.nonspec_retry {
                    store.commit
                } else {
                    store.retire
                };
                let dispatch = base.max(last_dispatch[core]);
                last_dispatch[core] = dispatch;
                let accepted = path_send(&mut paths[core], line, dispatch, pmcs);
                // Pessimistic fallback: wait for durability (plus the
                // return ack) before proceeding — an ordering stall.
                let wait = store
                    .nonspec_retry
                    .then(|| (accepted + paths[core][0].latency(), Bucket::FenceDrain));
                Some(StorePersist {
                    accepted,
                    order: dispatch,
                    wait,
                })
            }
        }
    }

    /// Sends one misspeculation-recovery restoration write for `line` at
    /// `at` and returns when it is durable. Restoration travels the same
    /// FIFO persist path as ordinary stores, so it can neither overtake
    /// nor be overtaken by the aborted attempt's in-flight persists.
    ///
    /// # Panics
    ///
    /// Outside PMEM-Spec: aborts follow only its misspeculation
    /// detections.
    pub(crate) fn persist_restoration(
        &mut self,
        core: usize,
        line: LineAddr,
        at: Cycle,
        pmcs: &mut [PmController],
    ) -> Cycle {
        let Machinery::PmemSpec { paths, .. } = self else {
            unreachable!("aborts follow only PMEM-Spec misspeculation")
        };
        path_send(&mut paths[core], line, at, pmcs)
    }

    /// The time by which everything `core` sent to its persist machinery
    /// is durable; `now` when already drained (or when nothing is
    /// buffered, IntelX86).
    pub(crate) fn drained_at(&self, core: usize, now: Cycle) -> Cycle {
        match self {
            Machinery::IntelX86 => now,
            Machinery::Dpo { buffers, .. }
            | Machinery::Hops { buffers, .. }
            | Machinery::StrandWeaver { buffers } => buffers[core].drained_at(now),
            Machinery::PmemSpec { paths, .. } => paths[core]
                .iter()
                .map(|p| p.drained_at(now))
                .max()
                .unwrap_or(now),
        }
    }

    /// When a drain started at `now` (`dfence`, `spec-barrier`,
    /// `JoinStrand`, DPO's barriers) completes for `core`: everything it
    /// persisted is durable and the acknowledgment has returned over the
    /// persist path. `now` when nothing is in flight.
    pub(crate) fn drain_ack(&self, core: usize, now: Cycle) -> Cycle {
        let drained = self.drained_at(core, now);
        if drained == now {
            return now;
        }
        drained
            + match self {
                Machinery::Dpo { buffers, .. }
                | Machinery::Hops { buffers, .. }
                | Machinery::StrandWeaver { buffers } => buffers[core].path_latency(),
                Machinery::PmemSpec { paths, .. } => paths[core][0].latency(),
                Machinery::IntelX86 => unreachable!("IntelX86 buffers no persists"),
            }
    }

    /// DPO orders persists at every barrier the program executes —
    /// `SFENCE`, lock acquire, lock release (§8.2.2), a constraint TSO
    /// does not actually need, which is why DPO lands below the baseline.
    /// Returns when `core`'s drain started at `now` completes; `None` for
    /// designs whose barriers leave persists alone. The drain orders
    /// every earlier persist before every later one, so DPO's buffer
    /// never needs an epoch boundary.
    pub(crate) fn barrier_drain(
        &self,
        core: usize,
        now: Cycle,
        counters: &mut Counters,
    ) -> Option<Cycle> {
        if !matches!(self, Machinery::Dpo { .. }) {
            return None;
        }
        bump(counters, Counter::DpoBarrierDrains);
        Some(self.drain_ack(core, now))
    }

    /// Applies a non-stalling ordering op to `core`'s persist buffer:
    /// HOPS `ofence` and StrandWeaver `persist-barrier` close the current
    /// epoch, `NewStrand` opens a strand.
    pub(crate) fn order(&mut self, core: usize, op: Op) {
        let (Machinery::Hops { buffers, .. } | Machinery::StrandWeaver { buffers }) = self else {
            unreachable!("{op} outside HOPS/StrandWeaver programs")
        };
        if op == Op::NewStrand {
            buffers[core].new_strand();
        } else {
            buffers[core].barrier();
        }
    }

    /// Reads and advances the global speculation-ID counter
    /// (`spec-assign`).
    pub(crate) fn assign_spec_id(&mut self) -> u64 {
        let Machinery::PmemSpec { counter, .. } = self else {
            unreachable!("spec-assign outside PMEM-Spec programs")
        };
        let id = *counter;
        *counter += 1;
        id
    }

    /// Whether `CLWB` is absorbed: a persist buffer already owns
    /// persistence (DPO runs unmodified x86 binaries, §3.2). Only
    /// IntelX86 writes the line back.
    pub(crate) fn absorbs_clwb(&self) -> bool {
        !matches!(self, Machinery::IntelX86)
    }

    /// Routes a dirty PM line evicted from the LLC, arriving at its
    /// controller at `arrival`. Returns the event the controller sees,
    /// if any.
    pub(crate) fn route_eviction(
        &mut self,
        line: LineAddr,
        arrival: Cycle,
        pmcs: &mut [PmController],
        line_meta: &mut PageMap<LineMeta>,
        counters: &mut Counters,
    ) -> Option<(Cycle, PmcEventKind)> {
        match self {
            // IntelX86: normal write-back memory, the eviction updates PM.
            // StrandWeaver writes dirty blocks back before letting them
            // leave (Figure 1c), so PM never goes stale.
            Machinery::IntelX86 | Machinery::StrandWeaver { .. } => {
                let svc = pmcs[controller_for(line.raw(), pmcs.len())].write(arrival);
                bump(counters, Counter::PmcEvictionWritebacks);
                Some((svc.accepted, PmcEventKind::PersistLine { line }))
            }
            Machinery::Dpo { .. } | Machinery::Hops { .. } => {
                // Persist buffers own persistence; the eviction drops.
                bump(counters, Counter::PmcEvictionsDropped);
                None
            }
            Machinery::PmemSpec { .. } => {
                // Dropped, but the controller is notified so the
                // speculation buffer can start monitoring (§5.1.4).
                bump(counters, Counter::PmcEvictionsDropped);
                // Ground truth: dropped dirty data whose persist is still
                // in flight makes a PM fetch of this line stale.
                let meta = line_meta.get_mut(pm_line_index(line));
                if meta.pending > 0 {
                    meta.dropped = true;
                }
                Some((arrival, PmcEventKind::WriteBack { line }))
            }
        }
    }

    /// A load's PM fetch of `line` whose data returns at `completed`:
    /// returns when the load completes. Every HOPS PM read consults the
    /// bloom filter (§8.2.2) and waits out a real conflict's pending
    /// persist, or pays the false-positive retry.
    pub(crate) fn load_fetch(
        &self,
        line: LineAddr,
        completed: Cycle,
        line_meta: &PageMap<LineMeta>,
        counters: &mut Counters,
    ) -> Cycle {
        let Machinery::Hops { bloom, .. } = self else {
            return completed;
        };
        let mut completed = completed + HOPS_BLOOM_LOOKUP;
        bump(counters, Counter::HopsBloomLookups);
        if bloom.might_contain(line.raw()) {
            let meta = line_meta.get(pm_line_index(line));
            if meta.hops_pending > 0 {
                completed = completed.max(meta.hops_accept + HOPS_BLOOM_LOOKUP);
                bump(counters, Counter::HopsBloomConflicts);
            } else {
                completed += HOPS_FALSE_POSITIVE_PENALTY;
                bump(counters, Counter::HopsBloomFalsePositives);
            }
        }
        completed
    }

    /// Whether the PM controller watches PM fetches — loads' and
    /// write-allocate fills' alike (Figure 4): PMEM-Spec's speculation
    /// buffers.
    pub(crate) fn watches_fetches(&self) -> bool {
        matches!(self, Machinery::PmemSpec { .. })
    }

    /// The speculation buffer of `line`'s controller, if the design has
    /// one.
    fn spec_buffer(&mut self, line: LineAddr) -> Option<&mut SpecBuffer> {
        match self {
            Machinery::PmemSpec { spec, .. } => {
                let n = spec.len();
                Some(&mut spec[controller_for(line.raw(), n)])
            }
            _ => None,
        }
    }

    /// An eviction notice for `line` reaches its controller at `at`.
    pub(crate) fn on_writeback(&mut self, line: LineAddr, at: Cycle) -> Option<OverflowStall> {
        self.spec_buffer(line)?.on_writeback(line, at)
    }

    /// A PM fetch of `line` reaches its controller at `at`.
    pub(crate) fn on_read(&mut self, line: LineAddr, at: Cycle) -> Option<OverflowStall> {
        self.spec_buffer(line)?.on_read(line, at)
    }

    /// A persisted word of `line` reaches its controller at `at`, tagged
    /// `spec`; `meta` is the line's ground truth. Returns the
    /// misspeculations the persist reveals and any overflow stall.
    pub(crate) fn on_persist(
        &mut self,
        line: LineAddr,
        spec: Option<u64>,
        at: Cycle,
        meta: &mut LineMeta,
    ) -> (Vec<Detection>, Option<OverflowStall>) {
        match self {
            Machinery::Hops { bloom, .. } => {
                if meta.hops_pending > 0 {
                    meta.hops_pending -= 1;
                    bloom.remove(line.raw());
                }
                (Vec::new(), None)
            }
            _ => self
                .spec_buffer(line)
                .map_or((Vec::new(), None), |b| b.on_persist(line, spec, at)),
        }
    }

    /// `core`'s persist-queue occupancy at `at` with its series name —
    /// persist buffer, persist path or strand buffer — or `None` when
    /// stores persist through the caches (IntelX86).
    pub(crate) fn core_queue(&self, core: usize, at: Cycle) -> Option<(&'static str, u64)> {
        match self {
            Machinery::IntelX86 => None,
            Machinery::Dpo { buffers, .. } | Machinery::Hops { buffers, .. } => {
                Some(("pb", buffers[core].occupancy_at(at) as u64))
            }
            Machinery::StrandWeaver { buffers } => {
                Some(("strand", buffers[core].occupancy_at(at) as u64))
            }
            Machinery::PmemSpec { paths, .. } => Some((
                "path",
                paths[core].iter().map(|p| p.in_flight_at(at) as u64).sum(),
            )),
        }
    }

    /// Controller `pmc`'s speculation-buffer occupancy at `at` with its
    /// series name, or `None` outside PMEM-Spec.
    pub(crate) fn controller_queue(&self, pmc: usize, at: Cycle) -> Option<(&'static str, u64)> {
        match self {
            Machinery::PmemSpec { spec, .. } => Some(("spec", spec[pmc].occupancy_at(at) as u64)),
            _ => None,
        }
    }

    /// Folds the machinery's own counts into `stats` and returns the
    /// speculation buffers' (load detections, store detections,
    /// overflows) — zero outside PMEM-Spec.
    pub(crate) fn fold_stats(&self, stats: &mut Stats) -> (u64, u64, u64) {
        let (buffers, total_key, design_key) = match self {
            Machinery::IntelX86 => return (0, 0, 0),
            Machinery::PmemSpec { spec, .. } => {
                let sum = |f: fn(&SpecBuffer) -> u64| spec.iter().map(f).sum::<u64>();
                stats.add("spec_buffer.allocations", sum(SpecBuffer::allocations));
                stats.add("spec_buffer.expirations", sum(SpecBuffer::expirations));
                return (
                    sum(SpecBuffer::load_detections),
                    sum(SpecBuffer::store_detections),
                    sum(SpecBuffer::overflows),
                );
            }
            Machinery::Dpo { buffers, .. } => (
                buffers,
                "persist_buffer.full_stalls",
                "dpo.buffer_full_stalls",
            ),
            Machinery::Hops { buffers, .. } => (
                buffers,
                "persist_buffer.full_stalls",
                "hops.buffer_full_stalls",
            ),
            Machinery::StrandWeaver { buffers } => (
                buffers,
                "strand_buffer.full_stalls",
                "strand.buffer_full_stalls",
            ),
        };
        // The buffer's key is always present; the design's, like every
        // hot-path counter, only when nonzero. A store stalls exactly
        // when its buffer was full, so the two count the same events.
        let stalls: u64 = buffers.iter().map(PersistBuffer::full_stalls).sum();
        stats.add(total_key, stalls);
        if stalls > 0 {
            stats.add(design_key, stalls);
        }
        (0, 0, 0)
    }
}

/// Inserts `store` into a persist buffer (DPO passes its global flush
/// token). A full buffer back-pressures the core until a slot frees.
fn buffer_insert(
    buffer: &mut PersistBuffer,
    store: PmStore,
    pmcs: &mut [PmController],
    token: Option<&mut Cycle>,
) -> StorePersist {
    let ci = controller_for(store.line.raw(), pmcs.len());
    let ins = buffer.insert(store.commit, store.line.raw(), &mut pmcs[ci], token);
    StorePersist {
        accepted: ins.accepted,
        order: store.commit,
        wait: (ins.admitted > store.commit).then_some((ins.admitted, Bucket::PersistBufferFull)),
    }
}

/// Sends one word of `line` down a core's PMEM-Spec persist path
/// (`routes`: one FIFO, or one per controller on an unordered network)
/// at `at`; returns when its controller accepts it. A late acceptance
/// back-pressures the route.
fn path_send(
    routes: &mut [PersistPath],
    line: LineAddr,
    at: Cycle,
    pmcs: &mut [PmController],
) -> Cycle {
    let ci = controller_for(line.raw(), pmcs.len());
    let n = routes.len();
    let route = &mut routes[ci % n];
    let accepted = pmcs[ci].write_word(route.send(at), line.raw()).accepted;
    route.note_backpressure(accepted);
    accepted
}

//! The simulated machine: cores, hierarchy, PM controller, and the four
//! persistency designs, executing lowered programs.
//!
//! # Execution model
//!
//! The system advances the core with the earliest local time, one
//! instruction at a time, so all shared-state mutations (cache tags, PMC
//! queues, lock grants, speculation-ID assignment) happen in global
//! start-time order. Components that observe *future* timestamps (persist
//! deliveries, fetch arrivals, writeback notifications) publish events into
//! a time-ordered heap at the PM controller; the heap is drained up to the
//! current time before every instruction, feeding the misspeculation
//! automata and applying persists to the persistent image in arrival
//! order — exactly the vantage point the paper's detection hardware has.
//!
//! Every decision that depends on the persistency design — how a store
//! persists, what a fence drains, where an evicted line goes, what the
//! PM controller watches — lives in the `machinery` module.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use pmemspec_engine::arena::ArenaFifo;
use pmemspec_engine::clock::{Cycle, Duration};
use pmemspec_engine::config::SimConfig;
use pmemspec_engine::hash::FxHashMap;
use pmemspec_engine::pagemap::PageMap;
use pmemspec_engine::stats::Stats;
use pmemspec_engine::wheel::EventWheel;
use pmemspec_isa::addr::{Addr, LineAddr, LINE_BYTES, PM_BASE, WORD_BYTES};
use pmemspec_isa::{LockId, Op, Program, ValueSrc};
use pmemspec_mem::hierarchy::{AccessKind, CacheHierarchy, ServedFrom};
use pmemspec_mem::{Dram, MemoryImage, PmController};

use crate::frontier::{self, Frontier};
use crate::machinery::{self, Machinery, PmStore};
use crate::probe::{BoundaryLog, PmcEvent, Probe, Step};
use crate::profile::{Bucket, ProfileReport, Profiler};
use crate::report::RunReport;
use crate::spec_buffer::{Detection, DetectionMode, OverflowStall};

/// One hot-path run counter. Incrementing a counter is a single array
/// add on a dense `[u64; Counter::COUNT]` indexed by discriminant; the
/// string-keyed [`Stats`] map is only populated once, at report time,
/// from the nonzero slots — first-touch key insertion semantics are
/// preserved because a key appears iff its counter was ever bumped.
#[derive(Debug, Clone, Copy)]
#[repr(usize)]
pub(crate) enum Counter {
    MisspecLoadDetected,
    MisspecStoreDetected,
    SpecBufferOverflow,
    PmcWritebackNotices,
    GroundTruthStaleReads,
    WhisperRawWithinSpecWindow,
    WhisperRawWithin50us,
    GroundTruthPersistOrderViolations,
    GroundTruthPersistInversions,
    WhisperWawWithinSpecWindow,
    WhisperWawWithin50us,
    PmcEvictionWritebacks,
    PmcEvictionsDropped,
    MemL1,
    MemPeerL1,
    MemLlc,
    MemDram,
    MemPm,
    CoreSqFullStalls,
    CoreMshrFullStalls,
    FasePartialAborts,
    FaseAborted,
    FaseQuiescedRetries,
    PmcFetches,
    HopsBloomLookups,
    HopsBloomConflicts,
    HopsBloomFalsePositives,
    PmcClwbWritebacks,
    X86Sfences,
    DpoBarrierDrains,
    HopsOfences,
    HopsDfences,
    SpecBarriers,
    StrandNew,
    StrandBarriers,
    StrandJoins,
    LockAcquires,
    LockContended,
    FaseCheckpoints,
    FaseCommitted,
}

impl Counter {
    const COUNT: usize = Counter::FaseCommitted as usize + 1;

    /// Stats key per counter, in discriminant order.
    const KEYS: [&'static str; Counter::COUNT] = [
        "misspec.load_detected",
        "misspec.store_detected",
        "spec_buffer.overflow",
        "pmc.writeback_notices",
        "ground_truth.stale_reads",
        "whisper.raw_within_spec_window",
        "whisper.raw_within_50us",
        "ground_truth.persist_order_violations",
        "ground_truth.persist_inversions",
        "whisper.waw_within_spec_window",
        "whisper.waw_within_50us",
        "pmc.eviction_writebacks",
        "pmc.evictions_dropped",
        "mem.l1",
        "mem.peer_l1",
        "mem.llc",
        "mem.dram",
        "mem.pm",
        "core.sq_full_stalls",
        "core.mshr_full_stalls",
        "fase.partial_aborts",
        "fase.aborted",
        "fase.quiesced_retries",
        "pmc.fetches",
        "hops.bloom_lookups",
        "hops.bloom_conflicts",
        "hops.bloom_false_positives",
        "pmc.clwb_writebacks",
        "x86.sfences",
        "dpo.barrier_drains",
        "hops.ofences",
        "hops.dfences",
        "spec.barriers",
        "strand.new",
        "strand.barriers",
        "strand.joins",
        "lock.acquires",
        "lock.contended",
        "fase.checkpoints",
        "fase.committed",
    ];
}

/// The dense hot-path counters, indexed by [`Counter`].
pub(crate) type Counters = [u64; Counter::COUNT];

/// Bumps one dense counter.
///
/// A free function over the counter array (not a `System` method) so
/// callers that hold other fields of `System` — the machinery among
/// them — borrow only this one.
#[inline]
pub(crate) fn bump(counters: &mut Counters, c: Counter) {
    counters[c as usize] += 1;
}

/// Words per cache line (the width of [`LineMeta::commits`]).
const WORDS_PER_LINE: usize = (LINE_BYTES / WORD_BYTES) as usize;

/// Dense index of a PM line for the ground-truth [`PageMap`] tables.
#[inline]
pub(crate) fn pm_line_index(line: LineAddr) -> u64 {
    debug_assert!(
        line.raw() >= PM_BASE / LINE_BYTES,
        "ground-truth tables index PM lines only"
    );
    line.raw() - PM_BASE / LINE_BYTES
}

/// Per-PM-line ground truth, one record per [`pm_line_index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LineMeta {
    /// Core of the last applied persist (`u32::MAX` = none yet), for the
    /// WHISPER-style inter-thread dependency census (§8.4 cites "almost
    /// zero inter-thread dependencies in a 50 micro-second window").
    last_core: u32,
    /// Device time of that last persist.
    last_at: Cycle,
    /// Persists still in flight to the device.
    pub(crate) pending: u32,
    /// True while the line's dirty data was dropped on LLC eviction with
    /// persists still in flight — fetching it from PM returns truly
    /// stale data (the Figure 3 hazard). Write-allocate fetches of lines
    /// still covered by the caches are benign (Figure 4/6b), so they are
    /// never flagged here. Only PMEM-Spec's eviction routing sets it.
    pub(crate) dropped: bool,
    /// HOPS only — ground truth behind the bloom filter: pending persist
    /// count (zero = no entry) and the latest acceptance time.
    pub(crate) hops_pending: u32,
    pub(crate) hops_accept: Cycle,
    /// Commit stamp of the last persist applied to each of the line's
    /// eight words (`Cycle::MAX` = never persisted); out-of-order
    /// arrival to one word is a missed update. Kept inside the line
    /// record so the persist-arrival handler does one page walk, not
    /// one per table.
    commits: [Cycle; WORDS_PER_LINE],
}

/// The [`PageMap`] sentinel for lines never persisted to.
const EMPTY_LINE_META: LineMeta = LineMeta {
    last_core: u32::MAX,
    last_at: Cycle::ZERO,
    pending: 0,
    dropped: false,
    hops_pending: 0,
    hops_accept: Cycle::ZERO,
    commits: [Cycle::MAX; WORDS_PER_LINE],
};

/// DRAM offset where lock cache lines are allocated.
const LOCK_REGION_BASE: u64 = 1 << 30;

/// Safety valve: a FASE aborted more than this many times in a row
/// indicates a livelock in the recovery protocol.
const MAX_ABORTS_PER_FASE: u32 = 64;

/// After this many consecutive aborts of one FASE, the retry quiesces the
/// persist path first (a scoped version of the paper's whole-restart
/// fallback, §6.1.2), guaranteeing forward progress.
const QUIESCE_AFTER_ABORTS: u32 = 3;

/// Outstanding loads per core (MSHR count): loads issue without blocking
/// the thread and are joined at dependent points (compute, locks, fences,
/// FASE boundaries), approximating an out-of-order core's memory-level
/// parallelism.
const MAX_OUTSTANDING_LOADS: usize = 8;

/// When misspeculation recovery runs (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Abort at the end of the interrupted FASE (§6.2.1) — the default.
    #[default]
    Lazy,
    /// Abort at the next instruction boundary after the signal arrives
    /// (§6.2.2).
    Eager,
}

/// Errors constructing a [`System`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildSystemError {
    /// The configuration failed validation.
    Config(String),
    /// The program failed validation.
    Program(String),
    /// Thread count does not match the configured core count.
    ThreadMismatch {
        /// Program threads.
        threads: usize,
        /// Configured cores.
        cores: usize,
    },
}

impl fmt::Display for BuildSystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildSystemError::Config(m) => write!(f, "invalid configuration: {m}"),
            BuildSystemError::Program(m) => write!(f, "invalid program: {m}"),
            BuildSystemError::ThreadMismatch { threads, cores } => {
                write!(
                    f,
                    "program has {threads} threads but the machine has {cores} cores"
                )
            }
        }
    }
}

impl std::error::Error for BuildSystemError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreStatus {
    Runnable,
    Waiting(LockId),
    Done,
}

/// What occupies a store-queue slot (profiler tag; timing never reads
/// it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SqKind {
    Store,
    Clwb,
}

/// The profiler bucket a load wait is charged to, by serving level.
fn served_bucket(served: ServedFrom) -> Bucket {
    match served {
        ServedFrom::L1 => Bucket::L1Hit,
        ServedFrom::PeerL1 | ServedFrom::Llc | ServedFrom::Dram => Bucket::CacheMiss,
        ServedFrom::Pm => Bucket::PmRead,
    }
}

#[derive(Debug)]
struct CoreState {
    pc: usize,
    time: Cycle,
    status: CoreStatus,
    /// Completion times of outstanding store-queue entries (stores and,
    /// on IntelX86, CLWBs), FIFO, each tagged with what occupies the
    /// slot. Timing reads only the completion time; the tag exists so
    /// the profiler can name what a drain waited on. Arena-backed: the
    /// queue is bounded by the configured store-queue depth, so entries
    /// live in one flat ring with no per-entry allocation.
    sq: ArenaFifo<SqKind>,
    /// Completion times of in-flight loads (MSHRs), FIFO, each tagged
    /// with the level that served it (profiler-only, like `sq`).
    loads: ArenaFifo<Bucket>,
    in_fase: bool,
    fase_start_pc: usize,
    fase_start_time: Cycle,
    /// Undo information for the current FASE: PM words and their
    /// pre-images, in store order.
    shadow: Vec<(Addr, u64)>,
    misspec_flag: bool,
    flag_time: Cycle,
    spec_tag: Option<u64>,
    held_locks: Vec<LockId>,
    /// Commit time of the most recent store: the store queue drains in
    /// FIFO order (TSO), so store commits are monotone per core.
    last_store_commit: Cycle,
    committed: u64,
    aborted: u64,
    aborts_this_fase: u32,
    /// Set after repeated aborts: the FASE retries *non-speculatively*,
    /// each PM store waiting for durability before the next instruction
    /// (the HTM-style pessimistic fallback guaranteeing progress).
    nonspec_retry: bool,
    /// The most recent intra-FASE checkpoint (§6.3), if any: program
    /// counter, shadow-log length, and held-lock count at the checkpoint.
    checkpoint: Option<(usize, usize, usize)>,
}

impl CoreState {
    fn new(store_queue: usize) -> Self {
        CoreState {
            pc: 0,
            time: Cycle::ZERO,
            status: CoreStatus::Runnable,
            sq: ArenaFifo::new(store_queue),
            loads: ArenaFifo::new(MAX_OUTSTANDING_LOADS),
            in_fase: false,
            fase_start_pc: 0,
            fase_start_time: Cycle::ZERO,
            shadow: Vec::new(),
            misspec_flag: false,
            flag_time: Cycle::ZERO,
            spec_tag: None,
            held_locks: Vec::new(),
            last_store_commit: Cycle::ZERO,
            committed: 0,
            aborted: 0,
            aborts_this_fase: 0,
            nonspec_retry: false,
            checkpoint: None,
        }
    }
}

#[derive(Debug)]
struct LockState {
    line: LineAddr,
    holder: Option<usize>,
    /// Set while a woken waiter holds the grant but has not yet finished
    /// re-executing its `Lock` instruction.
    granted: bool,
    /// When the most recent release became visible. An uncontended
    /// acquire that is *processed* after the releasing instruction but
    /// *timestamped* earlier must still wait for this.
    free_at: Cycle,
    waiters: VecDeque<usize>,
}

/// A speculation tag compressed into one word (`u64::MAX` means
/// "none"): keeps [`PmcEventKind::PersistWord`] — the hottest payload
/// copied through the wheel slab — a word smaller than an
/// `Option<u64>` field would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpecTag(u64);

impl SpecTag {
    /// No speculation tag.
    const NONE: SpecTag = SpecTag(u64::MAX);

    fn new(id: Option<u64>) -> Self {
        match id {
            Some(v) => {
                debug_assert_ne!(v, u64::MAX, "u64::MAX is the None sentinel");
                SpecTag(v)
            }
            None => SpecTag::NONE,
        }
    }

    fn get(self) -> Option<u64> {
        (self.0 != u64::MAX).then_some(self.0)
    }
}

/// What the PM controller observes, time-ordered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PmcEventKind {
    /// Address-only LLC dirty-eviction notification (PMEM-Spec).
    WriteBack { line: LineAddr },
    /// A PM fetch arriving from the regular path.
    Read { line: LineAddr },
    /// One word arriving over a persist path or persist buffer.
    PersistWord {
        addr: Addr,
        value: u64,
        commit: Cycle,
        spec: SpecTag,
        /// Issuing core, for the strict-persistency ground-truth check.
        core: u32,
    },
    /// A whole-line writeback arriving from the cache hierarchy
    /// (IntelX86 CLWB or dirty eviction).
    PersistLine { line: LineAddr },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct QueuedEvent {
    time: Cycle,
    seq: u64,
    kind: PmcEventKind,
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The PM-controller event scheduler.
///
/// The default is a calendar wheel ([`EventWheel`]): most event horizons
/// are a few thousand cycles at most (the largest latency in the model
/// is the 500 ns trap), and those land in the wheel's one-cycle ring
/// buckets with O(1) push/pop. Completions queued behind a saturated
/// write port reach further; they wait in the wheel's `(time, seq)`
/// overflow heap (PMEM-Spec ArraySwaps at 8 FASEs per thread sends
/// ~17K / 205K / 436K events there at 16 / 32 / 64 cores). The original binary
/// heap is kept as a selectable reference implementation; both pop in
/// exactly (time, arrival-order) order, so every run result is
/// identical — the equivalence suite proves it by running whole
/// programs on each and comparing reports.
#[derive(Debug)]
enum EventQueue {
    Wheel(EventWheel<PmcEventKind>),
    Heap {
        heap: BinaryHeap<Reverse<QueuedEvent>>,
        seq: u64,
    },
}

impl EventQueue {
    fn push(&mut self, time: Cycle, kind: PmcEventKind) {
        match self {
            EventQueue::Wheel(w) => w.push(time, kind),
            EventQueue::Heap { heap, seq } => {
                *seq += 1;
                heap.push(Reverse(QueuedEvent {
                    time,
                    seq: *seq,
                    kind,
                }));
            }
        }
    }

    /// Pops the earliest event not after `now`.
    fn pop_next(&mut self, now: Cycle) -> Option<(Cycle, PmcEventKind)> {
        match self {
            EventQueue::Wheel(w) => w.pop_next(now),
            EventQueue::Heap { heap, .. } => {
                if heap.peek().is_some_and(|Reverse(e)| e.time <= now) {
                    let Reverse(e) = heap.pop().expect("peeked");
                    Some((e.time, e.kind))
                } else {
                    None
                }
            }
        }
    }

    /// Timestamp of the earliest pending event.
    fn next_time(&mut self) -> Option<Cycle> {
        match self {
            EventQueue::Wheel(w) => w.next_time(),
            EventQueue::Heap { heap, .. } => heap.peek().map(|Reverse(e)| e.time),
        }
    }
}

/// The machine state surviving a simulated power failure.
#[derive(Debug, Clone)]
pub struct CrashOutcome {
    /// The persistent image at the instant of failure: every PM word that
    /// reached the ADR domain, by address.
    pub persistent: HashMap<Addr, u64>,
    /// Per thread: FASEs whose durability barrier completed before the
    /// failure. Recovery must preserve all of these.
    pub durable_fases: Vec<u64>,
    /// Per thread: FASEs that had begun (durable or not).
    pub started_fases: Vec<u64>,
}

/// The simulated machine executing one lowered [`Program`].
#[derive(Debug)]
pub struct System {
    cfg: SimConfig,
    program: Arc<Program>,
    hierarchy: CacheHierarchy,
    /// One controller per line-interleaved PM channel (one by default).
    pmcs: Vec<PmController>,
    dram: Dram,
    image: MemoryImage,
    cores: Vec<CoreState>,
    /// Bit `i` set while core `i` is runnable: the scheduler scan walks
    /// set bits only, so cores parked on locks or finished threads cost
    /// nothing per step.
    runnable: u64,
    locks: FxHashMap<LockId, LockState>,
    machinery: Machinery,
    events: EventQueue,
    /// Lower bound on the earliest pending event (exact after each
    /// drain): `drain_events` is called before every instruction and
    /// almost always finds nothing ready, so the common case must be a
    /// single comparison.
    events_next: Cycle,
    /// Global pause set by speculation-buffer overflow.
    stall_until: Cycle,
    policy: RecoveryPolicy,
    stats: Stats,
    /// Dense hot-path counters, folded into `stats` at report time.
    counters: [u64; Counter::COUNT],
    // Ground truth.
    stale_reads: u64,
    inversions: u64,
    /// Per-core persists applied against dispatch order (nonzero only
    /// with an unordered multi-controller network).
    persist_order_violations: u64,
    last_core_persist_applied: Vec<Cycle>,
    /// Per-PM-line ground truth ([`LineMeta`]), keyed by
    /// [`pm_line_index`]. Merged into one paged array so each persist
    /// arrival pays a single page walk for all its per-line state.
    line_meta: PageMap<LineMeta>,
}

impl System {
    /// Builds a machine for `cfg` running `program`, with the paper's
    /// eviction-based detection and lazy recovery.
    ///
    /// # Errors
    ///
    /// Returns [`BuildSystemError`] when the configuration or program is
    /// invalid, or their thread/core counts disagree.
    pub fn new(cfg: SimConfig, program: impl Into<Arc<Program>>) -> Result<Self, BuildSystemError> {
        Self::with_options(
            cfg,
            program,
            RecoveryPolicy::Lazy,
            DetectionMode::EvictionBased,
        )
    }

    /// Builds a machine with explicit recovery policy and detection mode
    /// (the fetch-based mode exists for the Figure 4 ablation).
    ///
    /// # Errors
    ///
    /// Same as [`System::new`].
    pub fn with_options(
        cfg: SimConfig,
        program: impl Into<Arc<Program>>,
        policy: RecoveryPolicy,
        detection: DetectionMode,
    ) -> Result<Self, BuildSystemError> {
        let program: Arc<Program> = program.into();
        cfg.validate().map_err(BuildSystemError::Config)?;
        program
            .validate()
            .map_err(|e| BuildSystemError::Program(e.to_string()))?;
        if program.thread_count() != cfg.cores {
            return Err(BuildSystemError::ThreadMismatch {
                threads: program.thread_count(),
                cores: cfg.cores,
            });
        }
        let machinery = machinery::for_design(program.design(), &cfg, detection);
        let mut hierarchy = CacheHierarchy::new(&cfg);
        if let Some(penalty) = machinery.bus_penalty() {
            hierarchy = hierarchy.with_bus_penalty(penalty);
        }
        let cores = (0..cfg.cores)
            .map(|_| CoreState::new(cfg.store_queue))
            .collect();
        Ok(System {
            pmcs: (0..cfg.pm.controllers)
                .map(|_| PmController::new(&cfg.pm))
                .collect(),
            dram: Dram::new(&cfg.dram),
            hierarchy,
            image: MemoryImage::new(),
            cores,
            runnable: if cfg.cores == 64 {
                u64::MAX
            } else {
                (1u64 << cfg.cores) - 1
            },
            locks: FxHashMap::default(),
            machinery,
            events: EventQueue::Wheel(EventWheel::new()),
            events_next: Cycle::MAX,
            stall_until: Cycle::ZERO,
            policy,
            stats: Stats::new(),
            counters: [0; Counter::COUNT],
            stale_reads: 0,
            inversions: 0,
            persist_order_violations: 0,
            last_core_persist_applied: vec![Cycle::ZERO; cfg.cores],
            line_meta: PageMap::new(EMPTY_LINE_META),
            cfg,
            program,
        })
    }

    /// Switches the event scheduler to the original binary-heap
    /// implementation. The calendar wheel must pop in exactly the same
    /// (time, arrival) order, so every run result is identical with
    /// either scheduler; this reference path exists so the equivalence
    /// suite can prove that on whole programs.
    pub fn with_reference_scheduler(mut self) -> Self {
        assert!(
            self.events.next_time().is_none(),
            "scheduler swapped after events were queued"
        );
        self.events = EventQueue::Heap {
            heap: BinaryHeap::new(),
            seq: 0,
        };
        self
    }

    fn push_event(&mut self, time: Cycle, kind: PmcEventKind) {
        self.events.push(time, kind);
        self.events_next = self.events_next.min(time);
    }

    /// Queues the arrival of `core`'s persist of `value` to `addr` at the
    /// PM controller, durable at `accepted`; `commit` is its order stamp
    /// and `spec` its speculation ID. The line has one more persist in
    /// flight until then.
    fn push_persist_word(
        &mut self,
        accepted: Cycle,
        addr: Addr,
        value: u64,
        commit: Cycle,
        spec: Option<u64>,
        core: usize,
    ) {
        self.line_meta.get_mut(pm_line_index(addr.line())).pending += 1;
        self.push_event(
            accepted,
            PmcEventKind::PersistWord {
                addr,
                value,
                commit,
                spec: SpecTag::new(spec),
                core: core as u32,
            },
        );
    }

    /// Full scan: refills `frontier` from every runnable core's clock
    /// and pops the winner, the runnable core with the earliest local
    /// time (the lowest index on ties). `None` once no core is runnable.
    ///
    /// # Panics
    ///
    /// Panics on deadlock: no core runnable while some wait on a lock.
    fn scan(&self, frontier: &mut Frontier) -> Option<usize> {
        frontier.clear();
        let mut mask = self.runnable;
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            frontier.insert(frontier::key(self.cores[i].time, i));
        }
        let winner = frontier.pop().map(frontier::index);
        if winner.is_none() {
            let waiting = self
                .cores
                .iter()
                .filter(|c| matches!(c.status, CoreStatus::Waiting(_)))
                .count();
            assert_eq!(
                waiting, 0,
                "deadlock: {waiting} cores waiting, none runnable"
            );
        }
        winner
    }

    /// The schedule's definition, for the run loop's debug check: the
    /// runnable core with the earliest local time, the lowest index on
    /// ties.
    fn earliest_runnable(&self) -> Option<usize> {
        (0..self.cores.len())
            .filter(|&i| self.runnable & (1 << i) != 0)
            .min_by_key(|&i| (self.cores[i].time, i))
    }

    /// Raises misspeculation-recovery flags on every core currently inside
    /// a FASE (§6.2: the hardware cannot tell which thread is at fault, so
    /// all running FASEs roll back). The OS trap adds latency before the
    /// signal is visible.
    fn trigger_misspec(&mut self, detected_at: Cycle) {
        let flag_time = detected_at + self.cfg.trap_latency;
        for core in &mut self.cores {
            if core.in_fase && core.status != CoreStatus::Done {
                core.misspec_flag = true;
                core.flag_time = core.flag_time.max(flag_time);
            }
        }
    }

    fn handle_detections<P: Probe>(&mut self, detections: Vec<Detection>, probe: &mut P) {
        for d in detections {
            let (at, counter) = match d {
                Detection::LoadMisspec { at, .. } => (at, Counter::MisspecLoadDetected),
                Detection::StoreMisspec { at, .. } => (at, Counter::MisspecStoreDetected),
            };
            probe.pmc_event(at, PmcEvent::Misspec(d));
            bump(&mut self.counters, counter);
            self.trigger_misspec(at);
        }
    }

    fn note_overflow(&mut self, stall: Option<OverflowStall>) {
        if let Some(s) = stall {
            self.stall_until = self.stall_until.max(s.until);
            bump(&mut self.counters, Counter::SpecBufferOverflow);
        }
    }

    /// Applies every PM-controller event with timestamp ≤ `now`, in
    /// arrival order: persistence lands in the persistent image, and the
    /// speculation buffer sees the request stream.
    #[inline]
    fn drain_events<P: Probe>(&mut self, now: Cycle, probe: &mut P) {
        // Called before every instruction and almost always a no-op:
        // `events_next` is a lower bound on the earliest pending event,
        // so the common case is this one comparison, inlined into the
        // run loop; the drain itself stays out of line.
        if self.events_next > now {
            return;
        }
        self.drain_ready_events(now, probe);
    }

    fn drain_ready_events<P: Probe>(&mut self, now: Cycle, probe: &mut P) {
        while let Some((time, kind)) = self.events.pop_next(now) {
            match kind {
                PmcEventKind::WriteBack { line } => {
                    probe.pmc_event(time, PmcEvent::WriteBack(line));
                    bump(&mut self.counters, Counter::PmcWritebackNotices);
                    let stall = self.machinery.on_writeback(line, time);
                    self.note_overflow(stall);
                }
                PmcEventKind::Read { line } => {
                    let meta = self.line_meta.get(pm_line_index(line));
                    // Ground truth: the fetch returns truly stale data
                    // only when the line's dirty copy was dropped on
                    // eviction and its persist has not landed yet
                    // (Figure 3).
                    if meta.dropped && line.words().any(|w| self.image.is_stale(w)) {
                        self.stale_reads += 1;
                        bump(&mut self.counters, Counter::GroundTruthStaleReads);
                    }
                    // Inter-thread RAW census: a PM fetch of a line another
                    // core persisted recently.
                    if meta.last_core != u32::MAX {
                        let gap = time.saturating_since(meta.last_at);
                        if gap <= self.cfg.speculation_window() {
                            bump(&mut self.counters, Counter::WhisperRawWithinSpecWindow);
                        }
                        if gap <= Duration::from_ns(50_000) {
                            bump(&mut self.counters, Counter::WhisperRawWithin50us);
                        }
                    }
                    let stall = self.machinery.on_read(line, time);
                    self.note_overflow(stall);
                }
                PmcEventKind::PersistWord {
                    addr,
                    value,
                    commit,
                    spec: spec_tag,
                    core,
                } => {
                    let core = core as usize;
                    let line = addr.line();
                    probe.pmc_event(time, PmcEvent::Persist(line));
                    // Ground truth: strict persistency requires each
                    // core's persists to apply in dispatch order, across
                    // *all* lines and controllers (§7's hazard shows up
                    // here with an unordered multi-controller network).
                    if commit < self.last_core_persist_applied[core] {
                        self.persist_order_violations += 1;
                        bump(
                            &mut self.counters,
                            Counter::GroundTruthPersistOrderViolations,
                        );
                    } else {
                        self.last_core_persist_applied[core] = commit;
                    }
                    let line_idx = pm_line_index(line);
                    let meta = self.line_meta.get_mut(line_idx);
                    // Ground truth: persists to one word must apply in
                    // commit order, or an update goes missing.
                    let commit_slot = &mut meta.commits[addr.word_in_line()];
                    if *commit_slot != Cycle::MAX && commit < *commit_slot {
                        self.inversions += 1;
                        bump(&mut self.counters, Counter::GroundTruthPersistInversions);
                    } else {
                        *commit_slot = commit;
                    }
                    // Inter-thread WAW census: a persist to a line another
                    // core persisted recently (§8.4 / WHISPER).
                    if meta.last_core != u32::MAX && meta.last_core as usize != core {
                        let gap = time.saturating_since(meta.last_at);
                        if gap <= self.cfg.speculation_window() {
                            bump(&mut self.counters, Counter::WhisperWawWithinSpecWindow);
                        }
                        if gap <= Duration::from_ns(50_000) {
                            bump(&mut self.counters, Counter::WhisperWawWithin50us);
                        }
                    }
                    meta.last_core = core as u32;
                    meta.last_at = time;
                    if meta.pending > 0 {
                        meta.pending -= 1;
                        if meta.pending == 0 {
                            // The device caught up: fetches are fresh again.
                            meta.dropped = false;
                        }
                    }
                    self.image.persist_word(addr, value);
                    let (detections, stall) =
                        self.machinery.on_persist(line, spec_tag.get(), time, meta);
                    self.note_overflow(stall);
                    self.handle_detections(detections, probe);
                }
                PmcEventKind::PersistLine { line } => {
                    probe.pmc_event(time, PmcEvent::Persist(line));
                    self.image.persist_line_snapshot(line);
                }
            }
        }
        self.events_next = self.events.next_time().unwrap_or(Cycle::MAX);
    }

    /// Routes a dirty-PM-line LLC eviction per the active design.
    /// Most accesses evict nothing: the `None` test inlines at the call
    /// site and the routing body stays out of line.
    #[inline]
    fn handle_evictions(&mut self, evictions: Option<pmemspec_mem::EvictedLine>) {
        if let Some(ev) = evictions {
            self.handle_eviction(ev);
        }
    }

    fn handle_eviction(&mut self, ev: pmemspec_mem::EvictedLine) {
        let arrival = ev.at + self.cfg.llc_to_pmc_latency;
        if let Some((time, kind)) = self.machinery.route_eviction(
            ev.line,
            arrival,
            &mut self.pmcs,
            &mut self.line_meta,
            &mut self.counters,
        ) {
            self.push_event(time, kind);
        }
    }

    fn resolve(&self, v: ValueSrc) -> u64 {
        v.resolve(|a| self.image.read_volatile(a))
    }

    fn record_access(&mut self, served: ServedFrom) {
        let c = match served {
            ServedFrom::L1 => Counter::MemL1,
            ServedFrom::PeerL1 => Counter::MemPeerL1,
            ServedFrom::Llc => Counter::MemLlc,
            ServedFrom::Dram => Counter::MemDram,
            ServedFrom::Pm => Counter::MemPm,
        };
        bump(&mut self.counters, c);
    }

    /// Admits one entry into the core's store queue at `now`, stalling on
    /// a full queue. Returns the admission time.
    fn sq_admit<P: Probe>(&mut self, idx: usize, now: Cycle, probe: &mut P) -> Cycle {
        let core = &mut self.cores[idx];
        while core.sq.pop_ready(now).is_some() {}
        if core.sq.is_full() {
            bump(&mut self.counters, Counter::CoreSqFullStalls);
            let oldest = core.sq.pop().expect("full queue non-empty").ready;
            let admitted = oldest.max(now);
            probe.charge(idx, Bucket::SqFull, admitted);
            admitted
        } else {
            now
        }
    }

    /// Admits one load into the core's MSHRs at `now`, stalling when all
    /// are busy. Returns the issue time.
    fn load_admit<P: Probe>(&mut self, idx: usize, now: Cycle, probe: &mut P) -> Cycle {
        let core = &mut self.cores[idx];
        while core.loads.pop_ready(now).is_some() {}
        if core.loads.is_full() {
            bump(&mut self.counters, Counter::CoreMshrFullStalls);
            let oldest = core.loads.pop().expect("full queue");
            let issue = oldest.ready.max(now);
            // The stall waits out the oldest in-flight load: charge the
            // level that is serving it.
            probe.charge(idx, oldest.value, issue);
            issue
        } else {
            now
        }
    }

    /// Joins all outstanding loads: the core cannot pass `now` until every
    /// in-flight load has returned. The wait is charged to the level
    /// serving the slowest load.
    fn join_loads<P: Probe>(&mut self, idx: usize, now: Cycle, probe: &mut P) -> Cycle {
        let core = &mut self.cores[idx];
        let slowest = core.loads.iter().max_by_key(|e| e.ready).copied();
        core.loads.clear();
        let done = slowest.map_or(now, |e| e.ready).max(now);
        if let Some(e) = slowest {
            if e.ready > now {
                probe.charge(idx, e.value, e.ready);
            }
        }
        done
    }

    /// Aborts the FASE `idx` is executing: restores pre-images, persists
    /// the restoration, releases held locks, and rewinds to the FASE
    /// begin (§6.2).
    fn abort_fase<P: Probe>(&mut self, idx: usize, probe: &mut P) {
        let t0 = {
            let core = &self.cores[idx];
            core.time.max(core.flag_time)
        };
        // §6.3: with an intra-FASE checkpoint, only the current region
        // rolls back — pre-images recorded since the checkpoint — and
        // execution resumes there instead of the FASE beginning.
        let ck = self.cores[idx].checkpoint;
        let shadow: Vec<(Addr, u64)> = match ck {
            Some((_, shadow_len, _)) => self.cores[idx].shadow.split_off(shadow_len),
            None => self.cores[idx].shadow.drain(..).collect(),
        };
        // Undo in reverse order; each restored word also persists (the
        // recovery protocol writes PM).
        let mut t = t0 + self.cfg.trap_latency;
        for &(addr, old) in shadow.iter().rev() {
            self.image.store_volatile(addr, old);
            t += self.cfg.pm.write_gap;
            let accepted = self
                .machinery
                .persist_restoration(idx, addr.line(), t, &mut self.pmcs);
            self.push_persist_word(accepted, addr, old, t, None, idx);
        }
        // Release anything held beyond the resume point (eager recovery
        // can abort mid critical section).
        let keep_locks = ck.map_or(0, |(_, _, locks)| locks);
        let held: Vec<LockId> = self.cores[idx].held_locks.split_off(keep_locks);
        for lock_id in held {
            self.release_lock(lock_id, idx, t, probe);
        }
        let core = &mut self.cores[idx];
        core.spec_tag = None;
        core.misspec_flag = false;
        core.aborted += 1;
        core.aborts_this_fase += 1;
        assert!(
            core.aborts_this_fase <= MAX_ABORTS_PER_FASE,
            "FASE livelock: aborted {} times",
            core.aborts_this_fase
        );
        core.sq.clear();
        match ck {
            Some((pc, _, _)) => {
                core.pc = pc;
                bump(&mut self.counters, Counter::FasePartialAborts);
            }
            None => core.pc = core.fase_start_pc,
        }
        core.time = t;
        bump(&mut self.counters, Counter::FaseAborted);
        // A FASE that keeps misspeculating is retried non-speculatively:
        // the runtime quiesces the persist path (plus one speculation
        // window) before re-executing, so the retry observes a settled
        // device — the §6.1.2 whole-restart fallback, scoped to one FASE.
        if self.cores[idx].aborts_this_fase >= QUIESCE_AFTER_ABORTS {
            let drained = self.machinery.drained_at(idx, t) + self.cfg.speculation_window();
            self.cores[idx].time = drained;
            self.cores[idx].nonspec_retry = true;
            bump(&mut self.counters, Counter::FaseQuiescedRetries);
        }
        // Everything the abort consumed — trap, undo-log restoration
        // writes, post-abort quiesce — is recovery overhead.
        let recovered = self.cores[idx].time;
        probe.charge(idx, Bucket::MisspecRecovery, recovered);
    }

    fn release_lock<P: Probe>(&mut self, lock_id: LockId, idx: usize, at: Cycle, probe: &mut P) {
        let lock = self
            .locks
            .get_mut(&lock_id)
            .expect("releasing unknown lock");
        assert_eq!(lock.holder, Some(idx), "releasing a lock not held");
        if let Some(next) = lock.waiters.pop_front() {
            lock.holder = Some(next);
            lock.granted = true;
            lock.free_at = lock.free_at.max(at);
            let waiter = &mut self.cores[next];
            waiter.status = CoreStatus::Runnable;
            self.runnable |= 1 << next;
            waiter.time = waiter.time.max(at);
            let granted_at = waiter.time;
            // The waiter was parked since its Lock instruction: that
            // whole window is time blocked on the lock.
            probe.charge(next, Bucket::LockWait, granted_at);
        } else {
            lock.holder = None;
            lock.granted = false;
            lock.free_at = lock.free_at.max(at);
        }
    }

    /// Executes `op`, the instruction at `idx`'s program counter.
    fn step<P: Probe>(&mut self, idx: usize, op: Op, probe: &mut P) {
        let t = self.cores[idx].time;
        let one = Duration::from_cycles(1);
        match op {
            Op::Compute { cycles } => {
                // Compute consumes loaded values: join in-flight loads.
                let start = self.join_loads(idx, t, probe);
                let done = start + Duration::from_cycles(cycles as u64);
                probe.charge(idx, Bucket::Compute, done);
                self.cores[idx].time = done;
                self.cores[idx].pc += 1;
            }
            Op::Load { addr } => {
                let line = addr.line();
                let issue = self.load_admit(idx, t, probe);
                let out = self.hierarchy.access(
                    idx,
                    AccessKind::Read,
                    line,
                    issue,
                    &mut self.pmcs,
                    &mut self.dram,
                );
                self.record_access(out.served_from);
                self.handle_evictions(out.dirty_pm_evictions);
                let load_bucket = served_bucket(out.served_from);
                let mut completed = out.completed;
                if let Some(fetch) = out.pm_fetch {
                    bump(&mut self.counters, Counter::PmcFetches);
                    completed = self.machinery.load_fetch(
                        line,
                        completed,
                        &self.line_meta,
                        &mut self.counters,
                    );
                    if self.machinery.watches_fetches() {
                        self.push_event(fetch.arrival, PmcEventKind::Read { line });
                    }
                }
                self.cores[idx]
                    .loads
                    .push(completed, load_bucket)
                    .expect("load_admit freed a slot");
                probe.charge(idx, Bucket::Issue, issue + one);
                self.cores[idx].time = issue + one;
                self.cores[idx].pc += 1;
            }
            Op::Store { addr, value } => {
                let value = self.resolve(value);
                if self.cores[idx].in_fase && addr.is_pm() {
                    let old = self.image.read_volatile(addr);
                    self.cores[idx].shadow.push((addr, old));
                }
                self.image.store_volatile(addr, value);
                let retire = self.sq_admit(idx, t, probe);
                let line = addr.line();
                let out = self.hierarchy.access(
                    idx,
                    AccessKind::Write,
                    line,
                    retire,
                    &mut self.pmcs,
                    &mut self.dram,
                );
                self.record_access(out.served_from);
                self.handle_evictions(out.dirty_pm_evictions);
                if let Some(fetch) = out.pm_fetch {
                    bump(&mut self.counters, Counter::PmcFetches);
                    // The write-allocate fetch is visible to the
                    // controller like any other read (Figure 4).
                    if self.machinery.watches_fetches() {
                        self.push_event(fetch.arrival, PmcEventKind::Read { line });
                    }
                }
                // The store queue drains in order (TSO): this store's
                // commit cannot precede the previous one's.
                let commit = out.completed.max(self.cores[idx].last_store_commit);
                self.cores[idx].last_store_commit = commit;
                self.cores[idx]
                    .sq
                    .push(commit, SqKind::Store)
                    .expect("sq_admit freed a slot");
                let mut wait = None;
                if addr.is_pm() {
                    let store = PmStore {
                        core: idx,
                        line,
                        retire,
                        commit,
                        nonspec_retry: self.cores[idx].nonspec_retry,
                    };
                    if let Some(p) =
                        self.machinery
                            .persist_store(store, &mut self.pmcs, &mut self.line_meta)
                    {
                        let spec = self.cores[idx].spec_tag;
                        self.push_persist_word(p.accepted, addr, value, p.order, spec, idx);
                        wait = p.wait;
                    }
                }
                let issued = retire + one;
                probe.charge(idx, Bucket::Issue, issued);
                let mut next_time = issued;
                if let Some((until, bucket)) = wait {
                    if until > issued {
                        // The only post-retire wait is the persist
                        // machinery's: a full buffer's back-pressure, or
                        // PMEM-Spec's pessimistic per-store durability
                        // wait.
                        probe.charge(idx, bucket, until);
                        next_time = until;
                    }
                }
                self.cores[idx].time = next_time;
                self.cores[idx].pc += 1;
            }
            Op::Clwb { addr } => {
                if self.machinery.absorbs_clwb() {
                    probe.charge(idx, Bucket::Issue, t + one);
                    self.cores[idx].time = t + one;
                } else {
                    let retire = self.sq_admit(idx, t, probe);
                    let out = self
                        .hierarchy
                        .clwb(idx, addr.line(), retire, &mut self.pmcs);
                    let mut completed = out.completed;
                    if let Some(svc) = out.pm_write {
                        self.push_event(
                            svc.accepted,
                            PmcEventKind::PersistLine { line: addr.line() },
                        );
                        bump(&mut self.counters, Counter::PmcClwbWritebacks);
                        // The CLWB retires once the ADR domain's
                        // acknowledgment travels back up the hierarchy;
                        // an SFENCE waits for that.
                        completed = completed
                            + self.cfg.llc_to_pmc_latency
                            + self.cfg.llc.hit_latency
                            + self.cfg.l1.hit_latency;
                    }
                    self.cores[idx]
                        .sq
                        .push(completed, SqKind::Clwb)
                        .expect("sq_admit freed a slot");
                    probe.charge(idx, Bucket::Issue, retire + one);
                    self.cores[idx].time = retire + one;
                }
                self.cores[idx].pc += 1;
            }
            Op::Sfence => {
                if let Some(drained) = self.machinery.barrier_drain(idx, t, &mut self.counters) {
                    probe.charge(idx, Bucket::FenceDrain, drained);
                    self.cores[idx].time = drained;
                } else {
                    // Stall until all prior stores and CLWBs complete.
                    let slowest = self.cores[idx].sq.iter().max_by_key(|e| e.ready).copied();
                    self.cores[idx].sq.clear();
                    let drained = slowest.map_or(t, |e| e.ready).max(t);
                    if let Some(e) = slowest {
                        if e.ready > t {
                            // The fence waits out the slowest queue
                            // entry: a CLWB round trip is flush time, a
                            // plain store an ordering drain.
                            let bucket = match e.value {
                                SqKind::Clwb => Bucket::Flush,
                                SqKind::Store => Bucket::FenceDrain,
                            };
                            probe.charge(idx, bucket, e.ready);
                        }
                    }
                    self.cores[idx].time = drained;
                    bump(&mut self.counters, Counter::X86Sfences);
                }
                self.cores[idx].pc += 1;
            }
            Op::Ofence | Op::StrandBarrier | Op::NewStrand => {
                self.machinery.order(idx, op);
                let counter = match op {
                    Op::Ofence => Counter::HopsOfences,
                    Op::StrandBarrier => Counter::StrandBarriers,
                    _ => Counter::StrandNew,
                };
                bump(&mut self.counters, counter);
                probe.charge(idx, Bucket::Issue, t + one);
                self.cores[idx].time = t + one;
                self.cores[idx].pc += 1;
            }
            Op::Dfence | Op::SpecBarrier | Op::JoinStrand => {
                let drained = self.machinery.drain_ack(idx, t);
                let joined = self.join_loads(idx, t, probe);
                let done = drained.max(joined);
                // Piecewise by binding constraint: join_loads charged
                // [t, joined] to the slowest load's level; the drain tail
                // beyond that is fence time.
                probe.charge(idx, Bucket::FenceDrain, done);
                self.cores[idx].time = done;
                let counter = match op {
                    Op::Dfence => Counter::HopsDfences,
                    Op::SpecBarrier => Counter::SpecBarriers,
                    _ => Counter::StrandJoins,
                };
                bump(&mut self.counters, counter);
                self.cores[idx].pc += 1;
            }
            Op::SpecAssign => {
                self.cores[idx].spec_tag = Some(self.machinery.assign_spec_id());
                probe.charge(idx, Bucket::Issue, t + one);
                self.cores[idx].time = t + one;
                self.cores[idx].pc += 1;
            }
            Op::SpecRevoke => {
                self.cores[idx].spec_tag = None;
                probe.charge(idx, Bucket::Issue, t + one);
                self.cores[idx].time = t + one;
                self.cores[idx].pc += 1;
            }
            Op::Lock { lock } => {
                let line_off = LOCK_REGION_BASE + u64::from(lock.0) * 64;
                let lock_state = self.locks.entry(lock).or_insert_with(|| LockState {
                    line: Addr::dram(line_off).line(),
                    holder: None,
                    granted: false,
                    free_at: Cycle::ZERO,
                    waiters: VecDeque::new(),
                });
                let line = lock_state.line;
                let free_at = lock_state.free_at;
                let pre_granted = lock_state.holder == Some(idx) && lock_state.granted;
                if pre_granted || lock_state.holder.is_none() {
                    // Acquire: an atomic RMW on the lock's cache line.
                    // Atomics drain the store queue and in-flight loads
                    // first (x86 locked ops are full fences), and the
                    // acquire cannot succeed before the previous release
                    // became visible.
                    let t_loads = self.join_loads(idx, t, probe);
                    let store_drained = self.cores[idx].last_store_commit;
                    let t_fenced = t_loads.max(store_drained).max(free_at);
                    if t_fenced > t_loads {
                        // Whichever constraint binds gets the charge: the
                        // previous holder's release visibility is lock
                        // time, the acquire's own store drain fence time.
                        let bucket = if free_at >= store_drained {
                            Bucket::LockWait
                        } else {
                            Bucket::FenceDrain
                        };
                        probe.charge(idx, bucket, t_fenced);
                    }
                    let out = self.hierarchy.access(
                        idx,
                        AccessKind::Write,
                        line,
                        t_fenced,
                        &mut self.pmcs,
                        &mut self.dram,
                    );
                    self.record_access(out.served_from);
                    self.handle_evictions(out.dirty_pm_evictions);
                    probe.charge(idx, served_bucket(out.served_from), out.completed);
                    let mut done = out.completed;
                    if let Some(drained) = self.machinery.barrier_drain(idx, t, &mut self.counters)
                    {
                        done = done.max(drained);
                    }
                    probe.charge(idx, Bucket::FenceDrain, done);
                    let lock_state = self.locks.get_mut(&lock).expect("just inserted");
                    lock_state.holder = Some(idx);
                    lock_state.granted = false;
                    self.cores[idx].held_locks.push(lock);
                    self.cores[idx].time = done;
                    self.cores[idx].pc += 1;
                    bump(&mut self.counters, Counter::LockAcquires);
                } else {
                    lock_state.waiters.push_back(idx);
                    self.cores[idx].status = CoreStatus::Waiting(lock);
                    self.runnable &= !(1 << idx);
                    bump(&mut self.counters, Counter::LockContended);
                }
            }
            Op::Unlock { lock } => {
                // The release store becomes visible only after all prior
                // stores committed (TSO) and critical-section loads
                // returned.
                let t_loads = self.join_loads(idx, t, probe);
                let mut release_at = t_loads.max(self.cores[idx].last_store_commit);
                if let Some(drained) = self.machinery.barrier_drain(idx, t, &mut self.counters) {
                    release_at = release_at.max(drained);
                }
                // Store-queue drain (TSO release order) and the DPO
                // barrier drain are both ordering stalls.
                probe.charge(idx, Bucket::FenceDrain, release_at);
                let line = self.locks.get(&lock).expect("unlocking unknown lock").line;
                let out = self.hierarchy.access(
                    idx,
                    AccessKind::Write,
                    line,
                    release_at,
                    &mut self.pmcs,
                    &mut self.dram,
                );
                self.record_access(out.served_from);
                self.handle_evictions(out.dirty_pm_evictions);
                let done = out.completed;
                probe.charge(idx, served_bucket(out.served_from), done);
                let pos = self.cores[idx]
                    .held_locks
                    .iter()
                    .position(|&l| l == lock)
                    .expect("unlocking a lock not held");
                self.cores[idx].held_locks.remove(pos);
                self.release_lock(lock, idx, done, probe);
                self.cores[idx].time = done;
                self.cores[idx].pc += 1;
            }
            Op::Checkpoint => {
                let core = &mut self.cores[idx];
                // Checkpoints are only meaningful once the misspeculation
                // signal for earlier regions has had time to arrive; the
                // runtime conservatively waits out the trap latency of
                // anything detected at this instant before narrowing the
                // rollback scope. We model the common case (no pending
                // signal) as a plain marker.
                core.checkpoint = Some((core.pc, core.shadow.len(), core.held_locks.len()));
                core.time = t + one;
                core.pc += 1;
                probe.charge(idx, Bucket::Checkpoint, t + one);
                bump(&mut self.counters, Counter::FaseCheckpoints);
            }
            Op::FaseBegin { .. } => {
                let core = &mut self.cores[idx];
                core.in_fase = true;
                core.fase_start_pc = core.pc;
                core.fase_start_time = t;
                core.checkpoint = None;
                core.shadow.clear();
                // §6.2.1: a thread clears its own flag when it begins a
                // new FASE (or re-executes one).
                core.misspec_flag = false;
                core.pc += 1;
            }
            Op::FaseEnd { .. } => {
                let joined = self.join_loads(idx, t, probe);
                self.cores[idx].time = joined;
                if self.cores[idx].misspec_flag {
                    // Lazy recovery: roll back at the commit point.
                    self.abort_fase(idx, probe);
                    probe.fase_abort(idx, t);
                } else {
                    let duration = t.saturating_since(self.cores[idx].fase_start_time);
                    self.stats.observe("fase.latency", duration);
                    let core = &mut self.cores[idx];
                    core.in_fase = false;
                    core.shadow.clear();
                    core.committed += 1;
                    core.aborts_this_fase = 0;
                    core.nonspec_retry = false;
                    core.checkpoint = None;
                    core.pc += 1;
                    bump(&mut self.counters, Counter::FaseCommitted);
                }
            }
        }
    }

    /// Runs until simulated time `crash_at`, then simulates a power
    /// failure: volatile state is lost, and only persists that *arrived at
    /// the PM controller* (ADR domain) by then survive.
    ///
    /// Instructions that *start* by `crash_at` execute (their in-flight
    /// persists may or may not land, which is exactly the torn state
    /// recovery must handle); a FASE counts as durable only when its
    /// end-of-FASE barrier completed by `crash_at`.
    pub fn run_until(self, crash_at: Cycle) -> CrashOutcome {
        let mut stop = CrashStop {
            at: crash_at,
            durable_fases: vec![0; self.cores.len()],
            started_fases: vec![0; self.cores.len()],
        };
        let (_, image) = self.run_with(&mut stop);
        CrashOutcome {
            persistent: image.persistent_snapshot(),
            durable_fases: stop.durable_fases,
            started_fases: stop.started_fases,
        }
    }

    /// Runs the program to completion and reports the results.
    ///
    /// # Panics
    ///
    /// Panics on deadlock (a lock cycle in the program) or a recovery
    /// livelock (a FASE aborting without bound).
    pub fn run(self) -> RunReport {
        self.run_full().0
    }

    /// Like [`System::run`], but also returns the final memory image so
    /// callers can check coherent and persistent values.
    ///
    /// # Panics
    ///
    /// Same as [`System::run`].
    pub fn run_full(self) -> (RunReport, MemoryImage) {
        self.run_with(&mut ())
    }

    /// Runs to completion and returns the report together with the
    /// cycle-accounting profile.
    ///
    /// # Panics
    ///
    /// Same as [`System::run`].
    pub fn run_profiled(self) -> (RunReport, ProfileReport) {
        let mut profiler = Profiler::new(&self);
        let (report, _) = self.run_with(&mut profiler);
        (report, profiler.report())
    }

    /// Runs to completion recording every crash-interesting cycle (see
    /// [`BoundaryLog`]), sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Same as [`System::run`].
    pub fn run_boundaries(self) -> (RunReport, Vec<Cycle>) {
        let mut log = BoundaryLog::default();
        let (report, _) = self.run_with(&mut log);
        (report, log.into_cycles())
    }

    /// Runs the program under `probe` (see [`Probe`]) and returns the
    /// report and the final memory image. This is the scheduling loop
    /// behind every run entry point.
    ///
    /// Each step runs the runnable core with the earliest clock, the
    /// lowest index on ties: schedule → drain the PM controller → poll
    /// for an eager abort → execute. Reading every core's clock per step
    /// would cost a 64-core run one `Core` read per runnable core, so a
    /// full scan keeps the winner and the next runnable cores, up to
    /// eight schedule keys (`time << 6 | index`) in all, sorted, plus a
    /// bound at or below every key it dropped. After a step, the
    /// stepped core runs again while its new key is below both the
    /// frontier's head and that bound; else the head runs, when it is
    /// below the bound, and the stepped core takes its place in the
    /// frontier; else, or whenever the step changed the runnable set (a
    /// woken waiter's clock is arbitrary), the loop scans again. No step
    /// moves another core's clock without waking it, so held keys never
    /// go stale and the schedule is exactly that of a scan per step;
    /// debug builds check every pick against that scan. The run ends
    /// when every thread is done or the next step would start past the
    /// probe's horizon; either way the PM controller then drains up to
    /// the horizon.
    ///
    /// # Panics
    ///
    /// Same as [`System::run`].
    pub fn run_with<P: Probe>(mut self, probe: &mut P) -> (RunReport, MemoryImage) {
        let horizon = probe.horizon();
        let mut frontier = Frontier::default();
        'run: while let Some(mut idx) = self.scan(&mut frontier) {
            loop {
                // Checked before the pause below moves the clock.
                debug_assert_eq!(
                    Some(idx),
                    self.earliest_runnable(),
                    "the frontier picked core {idx} out of schedule order"
                );
                if self.cores[idx].time < self.stall_until {
                    // Speculation-buffer overflow pauses every core
                    // (§5.3).
                    probe.charge(idx, Bucket::SpecPause, self.stall_until);
                    self.cores[idx].time = self.stall_until;
                }
                let t = self.cores[idx].time;
                if t > horizon {
                    break 'run;
                }
                self.drain_events(t, probe);
                probe.sample(t, &self);
                let runnable_before = self.runnable;
                let core = &self.cores[idx];
                let pc = core.pc;
                if core.misspec_flag
                    && self.policy == RecoveryPolicy::Eager
                    && core.in_fase
                    && core.flag_time <= t
                {
                    self.abort_fase(idx, probe);
                    probe.fase_abort(idx, t);
                } else if let Some(&op) = self.program.thread(idx).ops().get(pc) {
                    self.step(idx, op, probe);
                    let core = &self.cores[idx];
                    probe.step(&Step {
                        core: idx,
                        pc,
                        op,
                        start: t,
                        end: core.time,
                        in_fase: core.in_fase,
                    });
                } else {
                    // The thread ran off the end of its program.
                    self.cores[idx].status = CoreStatus::Done;
                    self.runnable &= !(1 << idx);
                }
                if self.runnable != runnable_before {
                    break;
                }
                match frontier.next(frontier::key(self.cores[idx].time, idx)) {
                    Some(next) => idx = next,
                    None => break,
                }
            }
        }
        self.drain_events(horizon, probe);
        probe.finish(&self);
        let image = std::mem::take(&mut self.image);
        (self.build_report(), image)
    }

    fn build_report(mut self) -> RunReport {
        // Fold the dense hot counters into the string-keyed stats. Only
        // nonzero slots fold, so a key is present exactly when the
        // original per-site `incr` calls would have inserted it; the
        // map is sorted by key, so fold order cannot matter.
        for (i, &n) in self.counters.iter().enumerate() {
            if n > 0 {
                self.stats.add(Counter::KEYS[i], n);
            }
        }
        let total_time = self
            .cores
            .iter()
            .map(|c| c.time)
            .max()
            .unwrap_or(Cycle::ZERO);
        let fases_committed = self.cores.iter().map(|c| c.committed).sum();
        let fases_aborted = self.cores.iter().map(|c| c.aborted).sum();
        let (load_det, store_det, overflows) = self.machinery.fold_stats(&mut self.stats);
        RunReport {
            design: self.program.design(),
            total_time,
            fases_committed,
            fases_aborted,
            load_misspec_detected: load_det,
            store_misspec_detected: store_det,
            stale_reads_ground_truth: self.stale_reads,
            store_inversions_ground_truth: self.inversions,
            persist_order_violations: self.persist_order_violations,
            spec_buffer_overflows: overflows,
            pm_reads: self
                .pmcs
                .iter()
                .map(pmemspec_mem::PmController::reads)
                .sum(),
            pm_writes: self
                .pmcs
                .iter()
                .map(pmemspec_mem::PmController::writes)
                .sum(),
            stats: self.stats,
        }
    }

    /// The program being run.
    pub(crate) fn program(&self) -> &Program {
        &self.program
    }

    /// Each core's clock.
    pub(crate) fn core_times(&self) -> Vec<Cycle> {
        self.cores.iter().map(|c| c.time).collect()
    }

    /// Dirty PM lines still cached in the LLC.
    pub(crate) fn llc_dirty_pm_lines(&self) -> usize {
        self.hierarchy.llc_dirty_pm_lines()
    }

    /// Names of the occupancy series [`System::occupancy_snapshot`]
    /// reports, in its order.
    pub(crate) fn occupancy_series(&self) -> Vec<String> {
        let mut names = Vec::new();
        for i in 0..self.cfg.cores {
            names.push(format!("core{i}.sq"));
            names.push(format!("core{i}.mshr"));
            if let Some((name, _)) = self.machinery.core_queue(i, Cycle::ZERO) {
                names.push(format!("core{i}.{name}"));
            }
        }
        for j in 0..self.pmcs.len() {
            names.push(format!("pmc{j}.rq"));
            names.push(format!("pmc{j}.wq"));
            if let Some((name, _)) = self.machinery.controller_queue(j, Cycle::ZERO) {
                names.push(format!("pmc{j}.{name}"));
            }
        }
        names
    }

    /// Queue depths at `at`, in [`System::occupancy_series`] order.
    /// Read-only: every accessor used here is non-mutating.
    pub(crate) fn occupancy_snapshot(&self, at: Cycle) -> Vec<u64> {
        let mut values = Vec::new();
        for (i, core) in self.cores.iter().enumerate() {
            values.push(core.sq.iter().filter(|e| e.ready > at).count() as u64);
            values.push(core.loads.iter().filter(|e| e.ready > at).count() as u64);
            values.extend(self.machinery.core_queue(i, at).map(|(_, depth)| depth));
        }
        for (j, pmc) in self.pmcs.iter().enumerate() {
            values.push(pmc.read_queue_depth(at) as u64);
            values.push(pmc.write_queue_depth(at) as u64);
            values.extend(
                self.machinery
                    .controller_queue(j, at)
                    .map(|(_, depth)| depth),
            );
        }
        values
    }
}

/// The power failure behind [`System::run_until`]: stops the run at the
/// crash instant and counts, per thread, the FASEs begun and the FASEs
/// whose committing end started by then.
struct CrashStop {
    at: Cycle,
    durable_fases: Vec<u64>,
    started_fases: Vec<u64>,
}

impl Probe for CrashStop {
    fn horizon(&self) -> Cycle {
        self.at
    }

    fn step(&mut self, step: &Step) {
        match step.op {
            Op::FaseBegin { .. } => self.started_fases[step.core] += 1,
            Op::FaseEnd { .. } if !step.in_fase => self.durable_fases[step.core] += 1,
            _ => {}
        }
    }
}

/// Runs `program` on a machine configured by `cfg` and returns the report.
///
/// Convenience wrapper over [`System::new`] + [`System::run`].
///
/// # Errors
///
/// Returns [`BuildSystemError`] when the inputs are invalid.
///
/// # Examples
///
/// ```
/// use pmem_spec::run_program;
/// use pmemspec_engine::SimConfig;
/// use pmemspec_isa::{AbsProgram, AbsThread, Addr, DesignKind, lower_program};
///
/// let mut p = AbsProgram::new();
/// let mut t = AbsThread::new();
/// t.begin_fase();
/// t.data_write(Addr::pm(0), 7u64);
/// t.end_fase();
/// p.add_thread(t);
///
/// let cfg = SimConfig::asplos21(1);
/// let report = run_program(cfg, lower_program(DesignKind::PmemSpec, &p))?;
/// assert_eq!(report.fases_committed, 1);
/// # Ok::<(), pmem_spec::BuildSystemError>(())
/// ```
pub fn run_program(
    cfg: SimConfig,
    program: impl Into<Arc<Program>>,
) -> Result<RunReport, BuildSystemError> {
    Ok(System::new(cfg, program)?.run())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persist_word_payload_stays_small() {
        // PersistWord is the hottest payload copied through the wheel
        // slab (ROADMAP perf lever): the compressed SpecTag and u32
        // core keep the whole event kind at five words instead of the
        // seven the Option<u64>/usize layout needed.
        assert!(
            std::mem::size_of::<PmcEventKind>() <= 40,
            "PmcEventKind grew to {} bytes",
            std::mem::size_of::<PmcEventKind>()
        );
    }

    #[test]
    fn spec_tag_round_trips() {
        assert_eq!(SpecTag::new(None).get(), None);
        assert_eq!(SpecTag::new(Some(0)).get(), Some(0));
        assert_eq!(SpecTag::new(Some(41)).get(), Some(41));
        assert_eq!(SpecTag::NONE.get(), None);
    }
}

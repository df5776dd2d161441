//! Per-FASE span tracing: a timestamped waterfall for every committed
//! FASE, with its cycles attributed to the profiler's cause buckets.
//!
//! # The span model
//!
//! A span opens at a FASE's *first* [`pmemspec_isa::Op::FaseBegin`] and
//! closes at its committing [`pmemspec_isa::Op::FaseEnd`]; aborted
//! attempts (misspeculation) stay inside the same span, bumping its
//! attempt count and recording a [`SpanPhase::Recovery`] transition. A
//! span therefore measures the *full* cost of getting one FASE durable —
//! including retries — which is deliberately wider than the
//! `fase.latency` histogram in [`crate::RunReport`] (that one restarts
//! its clock on each retry and measures only the committing attempt).
//!
//! Each span carries two complementary views of its lifetime:
//!
//! * **Phase transitions** — timestamped entries into coarse lifecycle
//!   phases ([`SpanPhase`]: issue, logging, body, order-point waits,
//!   persist drain, speculation, commit, recovery), derived from the
//!   lowering metadata ([`pmemspec_isa::OpRole`]) of each op the core
//!   steps through. These drive the nested Perfetto slices.
//! * **Bucket waterfall** — the span's cycles attributed to the
//!   profiler's 15 cause [`Bucket`]s, obtained by diffing the per-core
//!   bucket counters of the [`Profiler`] the tracer owns at span open
//!   and close. The run loop keeps the profiler's accounted mark equal
//!   to the core's clock at every step boundary, so the diff sums
//!   *exactly* to the span's wall-cycles — every span is a
//!   conservation-checked waterfall, and summing spans reconciles with
//!   the aggregate [`crate::ProfileReport`] (tests pin both).
//!
//! The [`SpanTracer`] is a [`Probe`]: the `step` and `fase_abort` hooks
//! drive the span state machine, and the profiling hooks go to its
//! profiler. Run it with [`crate::System::run_with`]. Like every probe,
//! span tracing **observes only**: spans carry timestamps alongside the
//! timing state and never feed back into it, so a span-traced run
//! produces a byte-identical [`crate::RunReport`] and persistent image
//! (a differential test enforces this).

use std::fmt;

use pmemspec_engine::clock::{Cycle, Duration};
use pmemspec_engine::stats::Histogram;
use pmemspec_isa::{DesignKind, FaseId, Op, OpRole, ProgramMeta};

use crate::probe::{Probe, Step};
use crate::profile::{Bucket, ProfileReport, Profiler};
use crate::system::System;
use crate::trace::TraceRecorder;

/// Phase-transition entries kept per span; pathological FASEs past the
/// cap count [`FaseSpan::dropped_transitions`] instead of allocating.
const MAX_TRANSITIONS: usize = 64;

/// Coarse lifecycle phase of a FASE, derived from the [`OpRole`] of the
/// op a core is stepping through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanPhase {
    /// The FASE begin marker itself (span open / retry re-issue).
    Issue,
    /// Undo/redo log writes.
    Logging,
    /// Body work: data stores, volatile stores, loads, compute.
    Body,
    /// Ordering-point work: fences at log/data order points, lock
    /// acquire/release.
    OrderWait,
    /// Persist drain: CLWB flushes covering PM stores.
    Drain,
    /// Speculation machinery: spec-assign/revoke, new-strand,
    /// checkpoints.
    Spec,
    /// Commit/durable: the durability barrier and the FASE end marker.
    Commit,
    /// Misspeculation recovery (abort rollback + quiesce).
    Recovery,
}

impl SpanPhase {
    /// Every phase, in lifecycle order.
    pub const ALL: [SpanPhase; 8] = [
        SpanPhase::Issue,
        SpanPhase::Logging,
        SpanPhase::Body,
        SpanPhase::OrderWait,
        SpanPhase::Drain,
        SpanPhase::Spec,
        SpanPhase::Commit,
        SpanPhase::Recovery,
    ];

    /// Stable snake_case identifier (JSON keys, trace slice names).
    pub fn label(self) -> &'static str {
        match self {
            SpanPhase::Issue => "issue",
            SpanPhase::Logging => "logging",
            SpanPhase::Body => "body",
            SpanPhase::OrderWait => "order_wait",
            SpanPhase::Drain => "drain",
            SpanPhase::Spec => "spec",
            SpanPhase::Commit => "commit",
            SpanPhase::Recovery => "recovery",
        }
    }
}

impl fmt::Display for SpanPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The lifecycle phase an op with `role` belongs to.
pub fn phase_of(role: OpRole) -> SpanPhase {
    match role {
        OpRole::FaseBegin => SpanPhase::Issue,
        OpRole::Log => SpanPhase::Logging,
        OpRole::Data | OpRole::Volatile | OpRole::Read | OpRole::Compute => SpanPhase::Body,
        OpRole::Order | OpRole::Lock | OpRole::Unlock => SpanPhase::OrderWait,
        OpRole::Flush => SpanPhase::Drain,
        OpRole::SpecAssign | OpRole::SpecRevoke | OpRole::NewStrand | OpRole::Checkpoint => {
            SpanPhase::Spec
        }
        OpRole::Durability | OpRole::FaseEnd => SpanPhase::Commit,
    }
}

/// One committed FASE's span: wall-cycle bounds, phase transitions, and
/// the bucket waterfall covering every cycle in between.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaseSpan {
    /// Core the FASE ran on.
    pub core: usize,
    /// The FASE's identifier.
    pub fase: FaseId,
    /// Time of the first `FaseBegin` (aborted attempts included).
    pub begin: Cycle,
    /// Time the committing `FaseEnd` retired (loads joined, durability
    /// satisfied).
    pub end: Cycle,
    /// Execution attempts: 1 + the number of misspeculation aborts.
    pub attempts: u32,
    /// Cycles attributed to each [`Bucket`] (in [`Bucket::ALL`] order)
    /// between `begin` and `end`; sums exactly to the span duration.
    pub buckets: [u64; Bucket::COUNT],
    /// Timestamped phase entries, in time order, starting with
    /// `(begin, Issue)`. Consecutive entries share no phase.
    pub transitions: Vec<(Cycle, SpanPhase)>,
    /// Transitions dropped past the per-span cap (observability only;
    /// bucket accounting is unaffected).
    pub dropped_transitions: u32,
}

impl FaseSpan {
    /// Span wall-cycles, first begin to committing end.
    pub fn duration(&self) -> Duration {
        self.end.saturating_since(self.begin)
    }

    /// Sum of the bucket waterfall — equals `duration()` in cycles (the
    /// conservation tests pin this).
    pub fn bucket_sum(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Cycles charged to `bucket` inside this span.
    pub fn get(&self, bucket: Bucket) -> u64 {
        self.buckets[bucket.index()]
    }

    /// The binding constraint: the bucket holding the most of this
    /// span's cycles (first in [`Bucket::ALL`] order on ties). `None`
    /// for zero-length spans.
    pub fn dominant_bucket(&self) -> Option<Bucket> {
        let (mut best, mut best_cycles) = (None, 0u64);
        for (i, &b) in Bucket::ALL.iter().enumerate() {
            if self.buckets[i] > best_cycles {
                best = Some(b);
                best_cycles = self.buckets[i];
            }
        }
        best
    }
}

/// One open (not yet committed) span.
#[derive(Debug, Clone)]
struct OpenSpan {
    fase: FaseId,
    begin: Cycle,
    attempts: u32,
    /// Profiler bucket counters at span open; diffed at commit.
    snapshot: [u64; Bucket::COUNT],
    phase: SpanPhase,
    transitions: Vec<(Cycle, SpanPhase)>,
    dropped: u32,
}

impl OpenSpan {
    fn push_transition(&mut self, at: Cycle, phase: SpanPhase) {
        self.phase = phase;
        if self.transitions.len() < MAX_TRANSITIONS {
            self.transitions.push((at, phase));
        } else {
            self.dropped += 1;
        }
    }
}

/// The per-FASE span probe.
///
/// Holds a copy of each thread's per-op [`OpRole`] table (from the
/// lowering's [`ProgramMeta`]) so it can classify each stepped op
/// without touching the timing path, the [`Profiler`] whose counters
/// it snapshots, one optional open span per core, and the closed
/// spans.
#[derive(Debug, Clone)]
pub struct SpanTracer {
    profiler: Profiler,
    roles: Vec<Vec<OpRole>>,
    open: Vec<Option<OpenSpan>>,
    spans: Vec<FaseSpan>,
}

impl SpanTracer {
    /// A tracer for `sys`'s program, described by `meta` (from
    /// [`pmemspec_isa::lower_program_with_meta`]).
    ///
    /// # Panics
    ///
    /// Panics when `meta` does not describe `sys`'s program (thread
    /// count or per-thread op counts disagree).
    pub fn new(sys: &System, meta: &ProgramMeta) -> Self {
        let program = sys.program();
        let aligned = meta.threads.len() == program.thread_count()
            && (meta.threads.iter().enumerate())
                .all(|(i, t)| t.ops.len() == program.thread(i).ops().len());
        assert!(
            aligned,
            "span metadata must align with the program's op streams"
        );
        Self::with_profiler(Profiler::new(sys), meta)
    }

    fn with_profiler(profiler: Profiler, meta: &ProgramMeta) -> Self {
        let roles: Vec<Vec<OpRole>> = meta
            .threads
            .iter()
            .map(|t| t.ops.iter().map(|m| m.role).collect())
            .collect();
        let cores = roles.len();
        SpanTracer {
            profiler,
            roles,
            open: vec![None; cores],
            spans: Vec::new(),
        }
    }

    /// The aggregate profile and the spans of the finished run. Each
    /// span's bucket sums reconcile exactly with the profile for the
    /// cycles it covers.
    ///
    /// # Panics
    ///
    /// Panics if the traced run has not ended.
    pub fn report(self) -> (ProfileReport, SpanReport) {
        let profile = self.profiler.report();
        debug_assert!(
            self.open.iter().all(Option::is_none),
            "run ended with an open span"
        );
        let spans = SpanReport::new(profile.design, self.spans);
        (profile, spans)
    }

    /// A `FaseBegin` stepped on core `idx` at time `t` with profiler
    /// snapshot `snapshot`: opens a span, or (when one is already open)
    /// records a post-abort retry of the same FASE.
    fn on_begin(&mut self, idx: usize, fase: FaseId, t: Cycle, snapshot: [u64; Bucket::COUNT]) {
        match &mut self.open[idx] {
            Some(open) => {
                debug_assert_eq!(open.fase, fase, "retry re-issues the same FASE");
                open.attempts += 1;
                open.push_transition(t, SpanPhase::Issue);
            }
            slot @ None => {
                *slot = Some(OpenSpan {
                    fase,
                    begin: t,
                    attempts: 1,
                    snapshot,
                    phase: SpanPhase::Issue,
                    transitions: vec![(t, SpanPhase::Issue)],
                    dropped: 0,
                });
            }
        }
    }

    /// Core `idx` entered `phase` at `t` (no-op unless the phase
    /// changed, and no-op outside a FASE).
    fn on_phase(&mut self, idx: usize, phase: SpanPhase, t: Cycle) {
        if let Some(open) = &mut self.open[idx] {
            if open.phase != phase {
                open.push_transition(t, phase);
            }
        }
    }

    /// The committing `FaseEnd` retired on core `idx` at `end` with
    /// profiler snapshot `snapshot`: closes the span, attributing its
    /// cycles as the element-wise counter diff since open.
    fn on_commit(&mut self, idx: usize, end: Cycle, snapshot: [u64; Bucket::COUNT]) {
        let Some(open) = self.open[idx].take() else {
            debug_assert!(false, "commit without an open span");
            return;
        };
        let mut buckets = [0u64; Bucket::COUNT];
        for (b, (&after, &before)) in buckets
            .iter_mut()
            .zip(snapshot.iter().zip(open.snapshot.iter()))
        {
            *b = after - before;
        }
        self.spans.push(FaseSpan {
            core: idx,
            fase: open.fase,
            begin: open.begin,
            end,
            attempts: open.attempts,
            buckets,
            transitions: open.transitions,
            dropped_transitions: open.dropped,
        });
    }
}

impl Probe for SpanTracer {
    fn charge(&mut self, core: usize, bucket: Bucket, until: Cycle) {
        self.profiler.charge(core, bucket, until);
    }

    fn sample(&mut self, now: Cycle, sys: &System) {
        self.profiler.sample(now, sys);
    }

    /// Opens a span at `FaseBegin` (or records a post-abort retry),
    /// closes it at a committing `FaseEnd`, and records a phase
    /// transition for everything in between.
    fn step(&mut self, step: &Step) {
        let Some(&role) = self.roles[step.core].get(step.pc) else {
            return;
        };
        match role {
            OpRole::FaseBegin => {
                if let Op::FaseBegin { fase } = step.op {
                    let snap = self.profiler.core_buckets(step.core);
                    self.on_begin(step.core, fase, step.start, snap);
                }
            }
            // A FaseEnd that left the core inside its FASE was a lazy
            // abort, already seen by `fase_abort`.
            OpRole::FaseEnd if step.in_fase => {}
            OpRole::FaseEnd => {
                let snap = self.profiler.core_buckets(step.core);
                self.on_commit(step.core, step.end, snap);
            }
            _ => self.on_phase(step.core, phase_of(role), step.start),
        }
    }

    fn fase_abort(&mut self, core: usize, at: Cycle) {
        if let Some(open) = &mut self.open[core] {
            if open.phase != SpanPhase::Recovery {
                open.push_transition(at, SpanPhase::Recovery);
            }
        }
    }

    fn finish(&mut self, sys: &System) {
        self.profiler.finish(sys);
    }
}

/// All FASE spans of one span-traced run, with tail-analysis helpers.
#[derive(Debug, Clone)]
pub struct SpanReport {
    /// The design the run executed under.
    pub design: DesignKind,
    /// Every committed FASE's span, sorted by `(core, fase)` for
    /// byte-stable reports.
    pub spans: Vec<FaseSpan>,
}

impl SpanReport {
    /// Builds a report, sorting spans into the stable `(core, fase)`
    /// order.
    pub fn new(design: DesignKind, mut spans: Vec<FaseSpan>) -> Self {
        spans.sort_by_key(|s| (s.core, s.fase.0));
        SpanReport { design, spans }
    }

    /// Number of spans (== committed FASEs).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no FASE committed.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Span latencies as a power-of-two histogram (feeds the
    /// p50/p95/p99/p99.9 quantile row in the waterfall artifact).
    pub fn latency_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for s in &self.spans {
            h.record(s.duration());
        }
        h
    }

    /// The exact `q`-quantile span latency as an order statistic
    /// (`sorted[ceil(q·n) - 1]`) — no interpolation, so thresholds are
    /// byte-stable across runs. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0 ..= 1.0`.
    pub fn latency_threshold(&self, q: f64) -> Option<Duration> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.spans.is_empty() {
            return None;
        }
        let mut durations: Vec<u64> = self.spans.iter().map(|s| s.duration().raw()).collect();
        durations.sort_unstable();
        let n = durations.len() as u64;
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        Some(Duration::from_cycles(durations[rank as usize - 1]))
    }

    /// Spans at or above the `q`-quantile latency ("the tail"), slowest
    /// first (ties broken by `(core, fase)` for stable output).
    pub fn tail_spans(&self, q: f64) -> Vec<&FaseSpan> {
        let Some(threshold) = self.latency_threshold(q) else {
            return Vec::new();
        };
        let mut tail: Vec<&FaseSpan> = self
            .spans
            .iter()
            .filter(|s| s.duration() >= threshold)
            .collect();
        tail.sort_by_key(|s| (std::cmp::Reverse(s.duration().raw()), s.core, s.fase.0));
        tail
    }

    /// Spans at or below the median latency ("the body" the tail is
    /// compared against).
    pub fn median_spans(&self) -> Vec<&FaseSpan> {
        let Some(threshold) = self.latency_threshold(0.5) else {
            return Vec::new();
        };
        self.spans
            .iter()
            .filter(|s| s.duration() <= threshold)
            .collect()
    }

    /// Per-bucket cycle totals over `spans` (in [`Bucket::ALL`] order).
    pub fn bucket_cycles(spans: &[&FaseSpan]) -> [u64; Bucket::COUNT] {
        let mut totals = [0u64; Bucket::COUNT];
        for s in spans {
            for (t, &b) in totals.iter_mut().zip(s.buckets.iter()) {
                *t += b;
            }
        }
        totals
    }

    /// Per-bucket share of all cycles over `spans`, in `[0, 1]` (all
    /// zeros when `spans` hold no cycles).
    pub fn bucket_shares(spans: &[&FaseSpan]) -> [f64; Bucket::COUNT] {
        let cycles = Self::bucket_cycles(spans);
        let total: u64 = cycles.iter().sum();
        let mut shares = [0.0; Bucket::COUNT];
        if total > 0 {
            for (s, &c) in shares.iter_mut().zip(cycles.iter()) {
                *s = c as f64 / total as f64;
            }
        }
        shares
    }

    /// The bucket dominating the most tail spans (count argmax, first
    /// in [`Bucket::ALL`] order on ties) — the per-design "why is the
    /// tail slow" answer. `None` when `spans` is empty.
    pub fn dominant_constraint(spans: &[&FaseSpan]) -> Option<Bucket> {
        let mut counts = [0usize; Bucket::COUNT];
        for s in spans {
            if let Some(b) = s.dominant_bucket() {
                counts[b.index()] += 1;
            }
        }
        let (mut best, mut best_count) = (None, 0usize);
        for (i, &b) in Bucket::ALL.iter().enumerate() {
            if counts[i] > best_count {
                best = Some(b);
                best_count = counts[i];
            }
        }
        best
    }

    /// Appends the spans to `tr` as named Perfetto slices: one extra
    /// lane per core carrying a `fase <id>` slice per span with nested
    /// phase sub-slices (Perfetto nests same-lane `X` events by
    /// timestamp containment).
    pub fn add_fase_tracks(&self, tr: &mut TraceRecorder) {
        let cores = 1 + self.spans.iter().map(|s| s.core).max().unwrap_or(0);
        let lanes: Vec<usize> = (0..cores)
            .map(|c| tr.add_lane(format!("core {c} fases")))
            .collect();
        for s in &self.spans {
            let lane = lanes[s.core];
            tr.span(lane, s.fase.to_string(), s.begin, s.end.max(s.begin));
            for (i, &(at, phase)) in s.transitions.iter().enumerate() {
                let until = s
                    .transitions
                    .get(i + 1)
                    .map_or(s.end, |&(next, _)| next)
                    .max(at);
                tr.span(lane, phase.label(), at, until);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(pairs: &[(Bucket, u64)]) -> [u64; Bucket::COUNT] {
        let mut snap = [0u64; Bucket::COUNT];
        for &(b, v) in pairs {
            snap[b.index()] = v;
        }
        snap
    }

    fn meta(threads: usize) -> ProgramMeta {
        use pmemspec_isa::{OpMeta, ThreadMeta};
        ProgramMeta {
            threads: (0..threads)
                .map(|_| ThreadMeta {
                    ops: vec![
                        OpMeta {
                            role: OpRole::FaseBegin,
                            abs_index: 0,
                        },
                        OpMeta {
                            role: OpRole::Log,
                            abs_index: 1,
                        },
                        OpMeta {
                            role: OpRole::FaseEnd,
                            abs_index: 2,
                        },
                    ],
                    order_points: Vec::new(),
                })
                .collect(),
        }
    }

    fn tracer() -> SpanTracer {
        let profiler = Profiler::with_series(DesignKind::PmemSpec, 1, Vec::new());
        SpanTracer::with_profiler(profiler, &meta(1))
    }

    #[test]
    fn every_role_has_a_phase() {
        // phase_of is total over OpRole; spot-check the grouping.
        assert_eq!(phase_of(OpRole::FaseBegin), SpanPhase::Issue);
        assert_eq!(phase_of(OpRole::Log), SpanPhase::Logging);
        assert_eq!(phase_of(OpRole::Data), SpanPhase::Body);
        assert_eq!(phase_of(OpRole::Read), SpanPhase::Body);
        assert_eq!(phase_of(OpRole::Order), SpanPhase::OrderWait);
        assert_eq!(phase_of(OpRole::Lock), SpanPhase::OrderWait);
        assert_eq!(phase_of(OpRole::Flush), SpanPhase::Drain);
        assert_eq!(phase_of(OpRole::SpecAssign), SpanPhase::Spec);
        assert_eq!(phase_of(OpRole::Checkpoint), SpanPhase::Spec);
        assert_eq!(phase_of(OpRole::Durability), SpanPhase::Commit);
        assert_eq!(phase_of(OpRole::FaseEnd), SpanPhase::Commit);
    }

    #[test]
    fn open_commit_diffs_the_snapshot() {
        let mut tr = tracer();
        assert_eq!(tr.roles[0].first(), Some(&OpRole::FaseBegin));
        tr.on_begin(
            0,
            FaseId(7),
            Cycle::from_raw(10),
            snapshot(&[(Bucket::Issue, 10)]),
        );
        tr.on_phase(0, SpanPhase::Logging, Cycle::from_raw(11));
        tr.on_commit(
            0,
            Cycle::from_raw(40),
            snapshot(&[(Bucket::Issue, 12), (Bucket::FenceDrain, 28)]),
        );
        let spans = tr.spans;
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.fase, FaseId(7));
        assert_eq!(s.attempts, 1);
        assert_eq!(s.duration().raw(), 30);
        assert_eq!(s.get(Bucket::Issue), 2);
        assert_eq!(s.get(Bucket::FenceDrain), 28);
        assert_eq!(s.bucket_sum(), 30, "conservation");
        assert_eq!(s.dominant_bucket(), Some(Bucket::FenceDrain));
        assert_eq!(
            s.transitions,
            vec![
                (Cycle::from_raw(10), SpanPhase::Issue),
                (Cycle::from_raw(11), SpanPhase::Logging),
            ]
        );
    }

    #[test]
    fn retry_stays_in_one_span() {
        let mut tr = tracer();
        tr.on_begin(0, FaseId(3), Cycle::from_raw(0), snapshot(&[]));
        tr.fase_abort(0, Cycle::from_raw(50));
        tr.fase_abort(0, Cycle::from_raw(55)); // still recovering: no dup
        tr.on_begin(0, FaseId(3), Cycle::from_raw(100), snapshot(&[]));
        tr.on_commit(
            0,
            Cycle::from_raw(200),
            snapshot(&[(Bucket::MisspecRecovery, 200)]),
        );
        let spans = tr.spans;
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.attempts, 2);
        assert_eq!(s.begin.raw(), 0, "span opens at the first attempt");
        assert_eq!(
            s.transitions,
            vec![
                (Cycle::from_raw(0), SpanPhase::Issue),
                (Cycle::from_raw(50), SpanPhase::Recovery),
                (Cycle::from_raw(100), SpanPhase::Issue),
            ]
        );
    }

    #[test]
    fn phase_transitions_dedup_and_cap() {
        let mut tr = tracer();
        tr.on_begin(0, FaseId(0), Cycle::ZERO, snapshot(&[]));
        tr.on_phase(0, SpanPhase::Issue, Cycle::from_raw(1)); // same: no-op
        for i in 0..(MAX_TRANSITIONS as u64 + 10) {
            let phase = if i % 2 == 0 {
                SpanPhase::Body
            } else {
                SpanPhase::Drain
            };
            tr.on_phase(0, phase, Cycle::from_raw(2 + i));
        }
        tr.on_commit(0, Cycle::from_raw(1000), snapshot(&[]));
        let spans = tr.spans;
        let s = &spans[0];
        assert_eq!(s.transitions.len(), MAX_TRANSITIONS);
        assert_eq!(s.dropped_transitions, 11);
    }

    #[test]
    fn phase_events_outside_a_fase_are_ignored() {
        let mut tr = tracer();
        tr.on_phase(0, SpanPhase::Body, Cycle::from_raw(5));
        tr.fase_abort(0, Cycle::from_raw(6));
        assert!(tr.spans.is_empty());
    }

    fn span(core: usize, fase: u32, begin: u64, end: u64, buckets: &[(Bucket, u64)]) -> FaseSpan {
        FaseSpan {
            core,
            fase: FaseId(fase),
            begin: Cycle::from_raw(begin),
            end: Cycle::from_raw(end),
            attempts: 1,
            buckets: snapshot(buckets),
            transitions: vec![(Cycle::from_raw(begin), SpanPhase::Issue)],
            dropped_transitions: 0,
        }
    }

    #[test]
    fn report_sorts_and_ranks_the_tail() {
        let spans = vec![
            span(1, 0, 0, 10, &[(Bucket::Issue, 10)]),
            span(0, 1, 0, 100, &[(Bucket::FenceDrain, 100)]),
            span(0, 0, 0, 20, &[(Bucket::Issue, 20)]),
            span(1, 1, 5, 25, &[(Bucket::LockWait, 20)]),
        ];
        let r = SpanReport::new(DesignKind::PmemSpec, spans);
        assert_eq!(r.len(), 4);
        // Sorted by (core, fase).
        let order: Vec<(usize, u32)> = r.spans.iter().map(|s| (s.core, s.fase.0)).collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        // Exact order-statistic thresholds: durations are 10,20,20,100.
        assert_eq!(r.latency_threshold(0.5).unwrap().raw(), 20);
        assert_eq!(r.latency_threshold(1.0).unwrap().raw(), 100);
        let tail = r.tail_spans(0.99);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].fase, FaseId(1));
        assert_eq!(
            SpanReport::dominant_constraint(&tail),
            Some(Bucket::FenceDrain)
        );
        // The p50 body excludes the tail outlier.
        let body = r.median_spans();
        assert_eq!(body.len(), 3);
        let shares = SpanReport::bucket_shares(&body);
        assert!((shares[Bucket::Issue.index()] - 0.6).abs() < 1e-12);
        assert!((shares[Bucket::LockWait.index()] - 0.4).abs() < 1e-12);
        // Histogram row covers all spans.
        assert_eq!(r.latency_histogram().count(), 4);
        // Empty-slice helpers.
        assert_eq!(SpanReport::dominant_constraint(&[]), None);
        assert_eq!(SpanReport::bucket_shares(&[]), [0.0; Bucket::COUNT]);
    }

    #[test]
    fn tail_ties_rank_deterministically() {
        let spans = vec![
            span(1, 4, 0, 50, &[(Bucket::Issue, 50)]),
            span(0, 9, 0, 50, &[(Bucket::Issue, 50)]),
        ];
        let r = SpanReport::new(DesignKind::Hops, spans);
        let tail = r.tail_spans(0.5);
        assert_eq!(tail.len(), 2);
        assert_eq!((tail[0].core, tail[0].fase.0), (0, 9));
        assert_eq!((tail[1].core, tail[1].fase.0), (1, 4));
    }

    #[test]
    fn empty_report_has_no_thresholds() {
        let r = SpanReport::new(DesignKind::Dpo, Vec::new());
        assert!(r.is_empty());
        assert_eq!(r.latency_threshold(0.99), None);
        assert!(r.tail_spans(0.99).is_empty());
        assert!(r.median_spans().is_empty());
        assert_eq!(r.latency_histogram().count(), 0);
    }

    #[test]
    fn fase_tracks_render_nested_slices() {
        let mut s = span(0, 2, 100, 300, &[(Bucket::Issue, 200)]);
        s.transitions = vec![
            (Cycle::from_raw(100), SpanPhase::Issue),
            (Cycle::from_raw(110), SpanPhase::Logging),
            (Cycle::from_raw(200), SpanPhase::Commit),
        ];
        let r = SpanReport::new(DesignKind::IntelX86, vec![s]);
        let mut tr = TraceRecorder::new(2);
        tr.span(0, "st", Cycle::from_raw(0), Cycle::from_raw(2));
        r.add_fase_tracks(&mut tr);
        let json = tr.to_chrome_trace();
        // FASE lane follows cores + pmc: tid 3 for core 0.
        assert!(
            json.contains(r#""tid":3,"args":{"name":"core 0 fases"}"#),
            "{json}"
        );
        assert!(json.contains(r#""name":"fase2""#), "{json}");
        // Phase sub-slices cover [their start, next transition/end).
        assert!(json.contains(r#""name":"logging""#), "{json}");
        assert!(json.contains(r#""name":"commit""#), "{json}");
    }
}

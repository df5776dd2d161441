//! The observer interface of the run loop.
//!
//! [`crate::System::run_with`] is the simulator's only scheduling loop.
//! Everything that watches a run — the cycle-accounting
//! [`crate::profile::Profiler`], the Chrome-trace
//! [`crate::TraceRecorder`], the per-FASE [`crate::span::SpanTracer`],
//! the crash-boundary [`BoundaryLog`], and the crash stop behind
//! [`crate::System::run_until`] — is a [`Probe`] handed to that loop.
//!
//! Every hook has a no-op default, and the loop is generic over the
//! probe, so `run_with(&mut ())` monomorphizes to the dense loop: the
//! hooks inline to nothing and a step is schedule → drain → eager-abort
//! poll → execute. Probes observe only. No hook can feed a value back into
//! the simulation, so a probed run's [`crate::RunReport`] and memory
//! image are byte-identical to an unprobed one's (tests pin this).

use pmemspec_engine::clock::Cycle;
use pmemspec_isa::addr::LineAddr;
use pmemspec_isa::Op;

use crate::profile::Bucket;
use crate::spec_buffer::Detection;
use crate::system::System;

/// One executed instruction, as seen by [`Probe::step`].
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// The core that executed it.
    pub core: usize,
    /// Its program counter.
    pub pc: usize,
    /// The instruction.
    pub op: Op,
    /// The core's clock when the instruction started.
    pub start: Cycle,
    /// The core's clock after it.
    pub end: Cycle,
    /// Whether the core is inside a FASE afterwards. A `FaseEnd` that
    /// leaves this set did not commit: it found the misspeculation flag
    /// raised and rolled the FASE back (lazy recovery).
    pub in_fase: bool,
}

/// Something the PM controller saw, in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmcEvent {
    /// An address-only dirty-eviction notice (PMEM-Spec).
    WriteBack(LineAddr),
    /// A word or line entered the ADR domain: the crash-visible image
    /// changed.
    Persist(LineAddr),
    /// The speculation buffer detected a misspeculation.
    Misspec(Detection),
}

/// An observer of [`crate::System::run_with`]. Every hook defaults to
/// a no-op.
pub trait Probe {
    /// The crash instant. The run executes only instructions that start
    /// at or before it, and ends with just the persists that arrived by
    /// then. Read once, before the run starts.
    fn horizon(&self) -> Cycle {
        Cycle::MAX
    }

    /// Core `core`'s clock advances to `until`, and `bucket` is the
    /// cause. Charges arrive in binding order; one that does not pass
    /// the core's last charge charged nothing.
    fn charge(&mut self, _core: usize, _bucket: Bucket, _until: Cycle) {}

    /// A chance to sample queue occupancy: called once per step, at
    /// the stepping core's clock, after the PM controller drained.
    fn sample(&mut self, _now: Cycle, _sys: &System) {}

    /// An instruction executed.
    fn step(&mut self, _step: &Step) {}

    /// The PM controller applied an event at `at`.
    fn pmc_event(&mut self, _at: Cycle, _event: PmcEvent) {}

    /// Core `core` began rolling back its FASE at `at` (lazily, at the
    /// FASE end, or eagerly, at an instruction boundary).
    fn fase_abort(&mut self, _core: usize, _at: Cycle) {}

    /// The run ended; `sys` is the final machine state.
    fn finish(&mut self, _sys: &System) {}
}

/// Observes nothing: `run_with(&mut ())` is the dense loop.
impl Probe for () {}

macro_rules! tuple_probe {
    ($($p:ident . $i:tt),+) => {
        /// Feeds every hook to each member, in order; the horizon is
        /// the earliest member's.
        impl<$($p: Probe),+> Probe for ($($p,)+) {
            fn horizon(&self) -> Cycle {
                Cycle::MAX $(.min(self.$i.horizon()))+
            }
            fn charge(&mut self, core: usize, bucket: Bucket, until: Cycle) {
                $(self.$i.charge(core, bucket, until);)+
            }
            fn sample(&mut self, now: Cycle, sys: &System) {
                $(self.$i.sample(now, sys);)+
            }
            fn step(&mut self, step: &Step) {
                $(self.$i.step(step);)+
            }
            fn pmc_event(&mut self, at: Cycle, event: PmcEvent) {
                $(self.$i.pmc_event(at, event);)+
            }
            fn fase_abort(&mut self, core: usize, at: Cycle) {
                $(self.$i.fase_abort(core, at);)+
            }
            fn finish(&mut self, sys: &System) {
                $(self.$i.finish(sys);)+
            }
        }
    };
}

tuple_probe!(A.0, B.1);
tuple_probe!(A.0, B.1, C.2);
tuple_probe!(A.0, B.1, C.2, D.3);

/// Logs every *crash-interesting* cycle of a run: the start of each
/// fence/CLWB/checkpoint/FASE marker (see [`Op::is_crash_boundary`])
/// and every persist arrival at the PM controller. Crash-point samplers
/// weight crash cycles toward these instants, where the reachable
/// persisted state changes shape.
#[derive(Debug, Clone, Default)]
pub struct BoundaryLog {
    cycles: Vec<Cycle>,
}

impl BoundaryLog {
    /// The logged cycles, sorted and deduplicated.
    pub fn into_cycles(mut self) -> Vec<Cycle> {
        self.cycles.sort_unstable();
        self.cycles.dedup();
        self.cycles
    }
}

impl Probe for BoundaryLog {
    fn step(&mut self, step: &Step) {
        if step.op.is_crash_boundary() {
            self.cycles.push(step.start);
        }
    }

    fn pmc_event(&mut self, at: Cycle, event: PmcEvent) {
        if let PmcEvent::Persist(_) = event {
            self.cycles.push(at);
        }
    }
}

//! In-memory spans around every public call the benchmark makes.
//!
//! A [`Tracer`] is either off (every method returns at once, so the
//! untraced passes pay one branch per call) or on, when each call
//! records a [`Span`]: which call, which design, its parent span, start
//! and end in nanoseconds since the tracer started, and the operations
//! it covered. Spans stay in memory; [`Profile::fold`] turns a batch into
//! per-layer totals and self times (a span's duration minus its
//! children's), and [`chrome_trace`] writes a batch out for Perfetto.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use pmemspec_isa::DesignKind;
use pmemspec_workloads::Benchmark;

/// A call the benchmark times: the public entry points of each layer,
/// plus the benchmark's own grouping spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Call {
    /// `Benchmark::generate` (workloads).
    Generate,
    /// `lower_program` / `lower_program_with_meta` (isa).
    Lower,
    /// `analyze_program` (analyze).
    Lint,
    /// `System::new` (core).
    Build,
    /// A run to completion (core): `System::run_full` on grid points,
    /// `System::run_until(Cycle::MAX)` on a crash job's completion trial.
    Run,
    /// `System::run_boundaries` (core).
    RunBoundaries,
    /// `System::run_until` truncated at a planned crash cycle (core).
    RunUntil,
    /// `crash_plan` (crashtest).
    Plan,
    /// `GeneratedWorkload::recover` (runtime).
    Recover,
    /// `check_crash_point` (crashtest).
    Oracle,
    /// One grid point or crash job, around the calls above (benchmark).
    Point,
    /// One crash trial (benchmark).
    Trial,
}

impl Call {
    /// Stable `layer.call` name.
    pub fn name(self) -> &'static str {
        match self {
            Call::Generate => "workloads.generate",
            Call::Lower => "isa.lower_program",
            Call::Lint => "analyze.analyze_program",
            Call::Build => "core.System::new",
            Call::Run => "core.run",
            Call::RunBoundaries => "core.run_boundaries",
            Call::RunUntil => "core.run_until",
            Call::Plan => "crashtest.crash_plan",
            Call::Recover => "runtime.recover",
            Call::Oracle => "crashtest.check_crash_point",
            Call::Point => "bench.point",
            Call::Trial => "bench.trial",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub call: Call,
    /// The design the call ran for, when it has one.
    pub design: Option<DesignKind>,
    /// The benchmark, on point and trial spans.
    pub benchmark: Option<Benchmark>,
    /// Index of the enclosing span in the same batch, or `u32::MAX`.
    pub parent: u32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Operations the call covered (lowered ops for runs, generated ops
    /// for generation, 0 where there is no natural count).
    pub ops: u64,
}

/// Records spans when on; does nothing when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span for `call`; close it with [`Tracer::exit`].
    #[inline]
    pub fn enter(&mut self, call: Call, design: Option<DesignKind>) {
        self.enter_for(call, design, None);
    }

    /// [`Tracer::enter`], naming the benchmark too.
    #[inline]
    pub fn enter_for(
        &mut self,
        call: Call,
        design: Option<DesignKind>,
        benchmark: Option<Benchmark>,
    ) {
        if !self.on {
            return;
        }
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per batch");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            call,
            design,
            benchmark,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            start_ns,
            end_ns: start_ns,
            ops: 0,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span, recording `ops`.
    #[inline]
    pub fn exit(&mut self, ops: u64) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("exit matches an enter") as usize;
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].ops = ops;
    }

    /// Open spans (restore with [`Tracer::close_to`] after a caught
    /// panic).
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes every span opened above `depth`, ending them now.
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.exit(0);
        }
    }

    /// Takes the recorded batch. Every span must be closed.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "take with open spans");
        std::mem::take(&mut self.spans)
    }
}

/// Totals for one (call, design) pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans folded in.
    pub calls: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus children), ns.
    pub self_ns: u64,
    /// Sum of covered operations.
    pub ops: u64,
}

/// Per-layer totals over every folded batch.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    by: BTreeMap<(Call, Option<DesignKind>), Totals>,
}

impl Profile {
    /// Folds one batch of spans in.
    pub fn fold(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, &children) in spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = self.by.entry((s.call, s.design)).or_default();
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
            t.ops += s.ops;
        }
    }

    /// Totals of `call` for one design, or over all designs with `None`.
    pub fn totals(&self, call: Call, design: Option<DesignKind>) -> Totals {
        let mut out = Totals::default();
        for (&(c, d), t) in &self.by {
            if c == call && (design.is_none() || d == design) {
                out.calls += t.calls;
                out.total_ns += t.total_ns;
                out.self_ns += t.self_ns;
                out.ops += t.ops;
            }
        }
        out
    }

    /// Mean self time per call in µs (0 when the call never happened).
    pub fn self_us_per_call(&self, call: Call) -> f64 {
        let t = self.totals(call, None);
        if t.calls == 0 {
            0.0
        } else {
            t.self_ns as f64 / t.calls as f64 / 1e3
        }
    }

    /// Self time per covered operation in ns (0 when nothing was
    /// covered).
    pub fn self_ns_per_op(&self, call: Call, design: Option<DesignKind>) -> f64 {
        let t = self.totals(call, design);
        if t.ops == 0 {
            0.0
        } else {
            t.self_ns as f64 / t.ops as f64
        }
    }

    /// Every (call, design) row, in a stable order.
    pub fn rows(&self) -> impl Iterator<Item = (Call, Option<DesignKind>, Totals)> + '_ {
        self.by.iter().map(|(&(c, d), &t)| (c, d, t))
    }
}

/// Renders a batch as a Chrome/Perfetto trace (complete events, µs),
/// followed by the per-layer self-time table of `profile`.
pub fn chrome_trace(spans: &[Span], profile: &Profile) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let design = s.design.map_or("", DesignKind::label);
        let benchmark = s.benchmark.map_or("", Benchmark::label);
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"design\":\"{design}\",\
             \"benchmark\":\"{benchmark}\",\"ops\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.call.name(),
            s.call.name().split('.').next().unwrap_or(""),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.ops,
        );
    }
    out.push_str("\n],\"layers\":[\n");
    for (i, (call, design, t)) in profile.rows().enumerate() {
        let _ = write!(
            out,
            "{}{{\"call\":\"{}\",\"design\":\"{}\",\"calls\":{},\"total_ns\":{},\"self_ns\":{},\"ops\":{}}}",
            if i == 0 { "" } else { ",\n" },
            call.name(),
            design.map_or("", DesignKind::label),
            t.calls,
            t.total_ns,
            t.self_ns,
            t.ops,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                call: Call::Point,
                design: None,
                benchmark: None,
                parent: NO_PARENT,
                start_ns: 0,
                end_ns: 100,
                ops: 0,
            },
            Span {
                call: Call::Build,
                design: None,
                benchmark: None,
                parent: 0,
                start_ns: 10,
                end_ns: 30,
                ops: 0,
            },
            Span {
                call: Call::Run,
                design: Some(DesignKind::Hops),
                benchmark: None,
                parent: 0,
                start_ns: 30,
                end_ns: 90,
                ops: 600,
            },
        ];
        let mut p = Profile::default();
        p.fold(&spans);
        assert_eq!(p.totals(Call::Point, None).self_ns, 20);
        assert_eq!(p.totals(Call::Run, Some(DesignKind::Hops)).self_ns, 60);
        assert_eq!(p.self_ns_per_op(Call::Run, Some(DesignKind::Hops)), 0.1);
        assert_eq!(p.self_us_per_call(Call::Lint), 0.0);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.enter(Call::Build, None);
        t.exit(1);
        assert!(t.take().is_empty());
    }

    #[test]
    fn close_to_ends_spans_left_open_by_a_panic() {
        let mut t = Tracer::on();
        t.enter(Call::Point, None);
        let depth = t.depth();
        t.enter(Call::Run, None);
        t.close_to(depth);
        t.exit(0);
        assert_eq!(t.take().len(), 2);
    }
}

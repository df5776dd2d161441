//! Execution tracing: record per-core instruction spans, PM-controller
//! events, and occupancy counter tracks, exportable as Chrome trace JSON
//! (load `chrome://tracing` or [Perfetto](https://ui.perfetto.dev) and
//! drop the file in).
//!
//! The [`TraceRecorder`] is a [`Probe`]: pass it to
//! [`crate::System::run_with`] and every executed instruction becomes a
//! span on its core's lane, and every LLC writeback notice (`WB`) and
//! misspeculation detection (`load-misspec`, `store-misspec`) an instant
//! on the PM controller's lane. An unprobed run pays nothing.
//!
//! Lanes (`tid`s) are derived from the machine shape: cores occupy lanes
//! `0..cores` and the PM controller the next lane, all named through
//! `thread_name` metadata records — nothing is hardcoded, so no core
//! count can collide with the controller lane.

use std::fmt::Write as _;
use std::io::{self, Write};

use pmemspec_engine::clock::Cycle;

use crate::probe::{PmcEvent, Probe, Step};
use crate::spec_buffer::Detection;

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Short label ("ld", "st", "spec-barrier", "WB", "core0.sq", ...).
    pub name: String,
    /// Simulated lane: core index, or `None` for the PM controller.
    pub core: Option<usize>,
    /// Span start.
    pub start: Cycle,
    /// Span end (== start for instantaneous events).
    pub end: Cycle,
    /// Counter sample value; `Some` makes this a Perfetto counter event
    /// (`"ph":"C"`) on its own named track instead of a span/instant.
    pub value: Option<u64>,
}

/// An in-memory event recorder.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    /// Core count of the traced machine; the PM controller uses the next
    /// lane ([`TraceRecorder::pmc_lane`]).
    cores: usize,
    events: Vec<TraceEvent>,
    /// Names of extra lanes past the PM controller (FASE span tracks and
    /// the like), allocated with [`TraceRecorder::add_lane`].
    extra_lanes: Vec<String>,
}

impl TraceRecorder {
    /// Creates an empty recorder for a machine with `cores` cores.
    pub fn new(cores: usize) -> Self {
        TraceRecorder {
            cores,
            events: Vec::new(),
            extra_lanes: Vec::new(),
        }
    }

    /// The lane (`tid`) PM-controller events export under: one past the
    /// last core lane.
    pub fn pmc_lane(&self) -> usize {
        self.cores
    }

    /// Allocates a named extra lane past the PM controller and returns
    /// its `tid` (pass it to [`TraceRecorder::span`]). Lane names are
    /// announced in the trace's `thread_name` metadata like the core and
    /// PMC lanes.
    pub fn add_lane(&mut self, name: impl Into<String>) -> usize {
        self.extra_lanes.push(name.into());
        self.cores + self.extra_lanes.len()
    }

    /// Records a span on a core.
    pub fn span(&mut self, core: usize, name: impl Into<String>, start: Cycle, end: Cycle) {
        self.events.push(TraceEvent {
            name: name.into(),
            core: Some(core),
            start,
            end,
            value: None,
        });
    }

    /// Records an instantaneous PM-controller event.
    pub fn instant(&mut self, name: impl Into<String>, at: Cycle) {
        self.events.push(TraceEvent {
            name: name.into(),
            core: None,
            start: at,
            end: at,
            value: None,
        });
    }

    /// Records one sample of a named counter track (queue occupancy and
    /// the like); Perfetto renders each distinct name as its own track.
    pub fn counter(&mut self, name: impl Into<String>, at: Cycle, value: u64) {
        self.events.push(TraceEvent {
            name: name.into(),
            core: None,
            start: at,
            end: at,
            value: Some(value),
        });
    }

    /// Recorded events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the Chrome trace JSON (the "JSON array format": one
    /// complete event per element; `ts`/`dur` are microseconds of
    /// *simulated* time). Lane names are announced with `thread_name`
    /// metadata records.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 64 + 2);
        out.push('[');
        let mut first = true;
        let mut emit = |s: &str, out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(s);
        };
        if !self.events.is_empty() {
            for lane in 0..self.cores {
                emit(
                    &format!(
                        r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{lane},"args":{{"name":"core {lane}"}}}}"#
                    ),
                    &mut out,
                );
            }
            emit(
                &format!(
                    r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{},"args":{{"name":"pmc"}}}}"#,
                    self.pmc_lane()
                ),
                &mut out,
            );
            for (i, name) in self.extra_lanes.iter().enumerate() {
                emit(
                    &format!(
                        r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{},"args":{{"name":"{name}"}}}}"#,
                        self.cores + 1 + i
                    ),
                    &mut out,
                );
            }
        }
        for e in &self.events {
            let ts = e.start.raw() as f64 / 2000.0; // cycles -> us at 2 GHz
            let tid = e.core.unwrap_or(self.pmc_lane());
            let mut buf = String::with_capacity(96);
            if let Some(v) = e.value {
                let _ = write!(
                    buf,
                    r#"{{"name":"{}","ph":"C","ts":{ts:.4},"pid":0,"args":{{"value":{v}}}}}"#,
                    e.name
                );
            } else if e.start == e.end {
                let _ = write!(
                    buf,
                    r#"{{"name":"{}","ph":"i","s":"t","ts":{ts:.4},"pid":0,"tid":{tid}}}"#,
                    e.name
                );
            } else {
                let dur = (e.end - e.start).raw() as f64 / 2000.0;
                let _ = write!(
                    buf,
                    r#"{{"name":"{}","ph":"X","ts":{ts:.4},"dur":{dur:.4},"pid":0,"tid":{tid}}}"#,
                    e.name
                );
            }
            emit(&buf, &mut out);
        }
        out.push(']');
        out
    }

    /// Writes the Chrome trace JSON to `writer`. A `&mut` reference can be
    /// passed for any `Write` type.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_chrome_trace<W: Write>(&self, mut writer: W) -> io::Result<()> {
        writer.write_all(self.to_chrome_trace().as_bytes())
    }
}

impl Probe for TraceRecorder {
    fn step(&mut self, step: &Step) {
        let end = step.end.max(step.start);
        self.span(step.core, step.op.mnemonic(), step.start, end);
    }

    fn pmc_event(&mut self, at: Cycle, event: PmcEvent) {
        let name = match event {
            PmcEvent::WriteBack(_) => "WB",
            PmcEvent::Misspec(Detection::LoadMisspec { .. }) => "load-misspec",
            PmcEvent::Misspec(Detection::StoreMisspec { .. }) => "store-misspec",
            PmcEvent::Persist(_) => return,
        };
        self.instant(name, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_instants_render() {
        let mut t = TraceRecorder::new(2);
        t.span(0, "ld", Cycle::from_raw(10), Cycle::from_raw(30));
        t.instant("WB", Cycle::from_raw(40));
        assert_eq!(t.len(), 2);
        let json = t.to_chrome_trace();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains(r#""name":"ld""#));
        assert!(json.contains(r#""ph":"X""#));
        assert!(json.contains(r#""ph":"i""#));
        assert!(
            json.contains(r#""tid":2"#),
            "PMC lane follows cores: {json}"
        );
    }

    #[test]
    fn pmc_lane_is_derived_from_core_count() {
        assert_eq!(TraceRecorder::new(8).pmc_lane(), 8);
        assert_eq!(TraceRecorder::new(64).pmc_lane(), 64);
        // A machine with many cores cannot collide with the PMC lane.
        let mut t = TraceRecorder::new(3);
        t.span(2, "st", Cycle::from_raw(0), Cycle::from_raw(2));
        t.instant("RD", Cycle::from_raw(1));
        let json = t.to_chrome_trace();
        assert!(json.contains(r#""ph":"i","s":"t","ts":0.0005,"pid":0,"tid":3"#));
    }

    #[test]
    fn lanes_are_named_in_metadata() {
        let mut t = TraceRecorder::new(2);
        t.span(1, "ld", Cycle::from_raw(0), Cycle::from_raw(2));
        let json = t.to_chrome_trace();
        assert!(json
            .contains(r#""name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"core 0"}"#));
        assert!(json.contains(r#""tid":1,"args":{"name":"core 1"}"#));
        assert!(json.contains(r#""tid":2,"args":{"name":"pmc"}"#));
    }

    #[test]
    fn extra_lanes_follow_the_pmc_and_are_named() {
        let mut t = TraceRecorder::new(2);
        let a = t.add_lane("core 0 fases");
        let b = t.add_lane("core 1 fases");
        assert_eq!(a, 3, "first extra lane follows the PMC lane");
        assert_eq!(b, 4);
        t.span(a, "fase 0", Cycle::from_raw(0), Cycle::from_raw(4));
        let json = t.to_chrome_trace();
        assert!(
            json.contains(r#""tid":3,"args":{"name":"core 0 fases"}"#),
            "{json}"
        );
        assert!(
            json.contains(r#""tid":4,"args":{"name":"core 1 fases"}"#),
            "{json}"
        );
        assert!(json.contains(r#""name":"fase 0","ph":"X""#), "{json}");
    }

    #[test]
    fn counters_render_as_counter_events() {
        let mut t = TraceRecorder::new(1);
        t.counter("core0.sq", Cycle::from_ns(1000), 7);
        let json = t.to_chrome_trace();
        assert!(
            json.contains(r#""name":"core0.sq","ph":"C","ts":1.0000,"pid":0,"args":{"value":7}"#),
            "{json}"
        );
    }

    #[test]
    fn timestamps_are_microseconds() {
        let mut t = TraceRecorder::new(4);
        t.span(2, "st", Cycle::from_ns(2000), Cycle::from_ns(3000));
        let json = t.to_chrome_trace();
        assert!(json.contains(r#""ts":2.0000"#), "{json}");
        assert!(json.contains(r#""dur":1.0000"#), "{json}");
        assert!(json.contains(r#""tid":2"#));
    }

    #[test]
    fn controller_events_become_pmc_instants() {
        let line = pmemspec_isa::Addr::pm(0).line();
        let mut t = TraceRecorder::new(1);
        t.pmc_event(Cycle::from_raw(2), PmcEvent::WriteBack(line));
        t.pmc_event(Cycle::from_raw(4), PmcEvent::Persist(line));
        let at = Cycle::from_raw(6);
        t.pmc_event(at, PmcEvent::Misspec(Detection::LoadMisspec { line, at }));
        let store = Detection::StoreMisspec {
            line,
            at,
            prev_id: 2,
            new_id: 1,
        };
        t.pmc_event(at, PmcEvent::Misspec(store));
        let names: Vec<&str> = t.events().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["WB", "load-misspec", "store-misspec"]);
        assert!(t.events().iter().all(|e| e.core.is_none()), "PMC lane");
    }

    #[test]
    fn empty_trace_is_valid_json() {
        assert_eq!(TraceRecorder::new(4).to_chrome_trace(), "[]");
    }

    #[test]
    fn write_to_a_buffer() {
        let mut t = TraceRecorder::new(1);
        t.instant("RD", Cycle::from_raw(1));
        let mut buf = Vec::new();
        t.write_chrome_trace(&mut buf).unwrap();
        assert_eq!(buf, t.to_chrome_trace().as_bytes());
    }
}

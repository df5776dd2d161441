//! PMEM-Spec: speculative strict persistency for persistent memory.
//!
//! A from-scratch reproduction of *"PMEM-Spec: Persistent Memory
//! Speculation (Strict Persistency Can Trump Relaxed Persistency)"*
//! (Jeong & Jung, ASPLOS 2021) as an event-driven multicore memory-system
//! simulator.
//!
//! The crate implements the paper's contribution and the three designs it
//! compares against:
//!
//! * [`spec_buffer`] — the speculation buffer with the misspeculation
//!   detection automata (Figure 5/8), both the final eviction-based
//!   detector and the rejected fetch-based strawman;
//! * [`persist_buffer`] — the per-core persist buffer of HOPS and DPO
//!   (epoch-ordered) and of StrandWeaver (strands of epochs; an
//!   extension: the paper compares against StrandWeaver in §9 but does
//!   not simulate it);
//! * [`bloom`] — HOPS' counting bloom filter at the PM controller;
//! * [`system`] — the simulated machine executing lowered programs under
//!   IntelX86-Epoch, DPO, HOPS, StrandWeaver, or PMEM-Spec semantics,
//!   including misspeculation detection, virtual-power-failure recovery
//!   (lazy/eager, with §6.3 checkpoint scoping), power-failure simulation
//!   (`run_until`), and the §7 multi-controller extension; every
//!   per-design persist decision it makes is delegated to the crate's
//!   private `machinery` module;
//! * [`probe`] — the run loop's observer interface ([`Probe`]), which
//!   the tracer, profiler, span tracer, and crash-boundary log implement;
//! * [`trace`] — Chrome/Perfetto trace export of simulated timelines;
//! * [`profile`] — cycle accounting (every core cycle attributed to one
//!   cause bucket) and queue-occupancy time series;
//! * [`span`] — per-FASE latency spans: phase-transition waterfalls with
//!   the span's cycles attributed to the profiler's buckets, plus tail
//!   analysis (which constraint binds the p99+ FASEs);
//! * [`report`] — per-run measurements (plus JSON export).
//!
//! # Quickstart
//!
//! ```
//! use pmem_spec::run_program;
//! use pmemspec_engine::SimConfig;
//! use pmemspec_isa::{AbsProgram, AbsThread, Addr, DesignKind, lower_program};
//!
//! // One thread, one failure-atomic section, one persistent store.
//! let mut thread = AbsThread::new();
//! thread.begin_fase();
//! thread.log_write(Addr::pm(1024), 1u64)
//!       .log_order()
//!       .data_write(Addr::pm(0), 42u64);
//! thread.end_fase();
//! let mut program = AbsProgram::new();
//! program.add_thread(thread);
//!
//! // Run it under the paper's design and under the x86 baseline.
//! let cfg = SimConfig::asplos21(1);
//! let spec = run_program(cfg.clone(), lower_program(DesignKind::PmemSpec, &program))?;
//! let x86 = run_program(cfg, lower_program(DesignKind::IntelX86, &program))?;
//! assert!(spec.total_time < x86.total_time, "no CLWB/SFENCE stalls");
//! # Ok::<(), pmem_spec::BuildSystemError>(())
//! ```

#![forbid(unsafe_code)]

pub mod bloom;
mod machinery;
pub mod persist_buffer;
pub mod probe;
pub mod profile;
pub mod report;
pub mod span;
pub mod spec_buffer;
pub mod system;
pub mod trace;

pub use probe::{BoundaryLog, PmcEvent, Probe, Step};
pub use profile::{Bucket, CoreBreakdown, ProfileReport, Profiler};
pub use report::RunReport;
pub use span::{FaseSpan, SpanPhase, SpanReport, SpanTracer};
pub use spec_buffer::{Detection, DetectionMode, SpecBuffer};
pub use system::{run_program, BuildSystemError, CrashOutcome, RecoveryPolicy, System};
pub use trace::TraceRecorder;

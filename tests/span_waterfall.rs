//! Per-FASE span-tracer invariants, across every design and workload:
//!
//! 1. **Non-perturbation** — span tracing observes only: the
//!    `RunReport` and the persistent image are identical to the plain
//!    run's, and the tracer's `ProfileReport` is the standalone
//!    profiler's (the `breakdown` experiment renders both its aggregate
//!    breakdown and its waterfalls from one span-traced pass).
//! 2. **Conservation** — every committed FASE's span is a waterfall:
//!    its per-bucket cycles sum exactly to its wall-cycles (first
//!    `FaseBegin` to committing `FaseEnd`), and the per-core span sums
//!    never exceed the aggregate profiler's breakdown they were diffed
//!    from.
//! 3. **Retry accounting** — under forced misspeculation, retried spans
//!    carry their abort count and a `Recovery` transition, and the
//!    conservation invariant survives the abort path under both
//!    recovery policies.
//!
//! Neutrality of the span tracer composed with every other probe is
//! pinned in `tests/profile_invariants.rs`. These are the hard
//! acceptance criteria for the span tracer; keep them exhaustive over
//! `DesignKind::ALL_EXTENDED x Benchmark::ALL`.

use pmem_spec_repro::core::profile::Bucket;
use pmem_spec_repro::core::span::SpanPhase;
use pmem_spec_repro::core::spec_buffer::DetectionMode;
use pmem_spec_repro::core::{
    ProfileReport, Profiler, RecoveryPolicy, RunReport, SpanReport, SpanTracer, System,
};
use pmem_spec_repro::isa::{lower_program_with_meta, Program, ProgramMeta};
use pmem_spec_repro::prelude::*;
use pmem_spec_repro::workloads::synthetic;

fn lowered(b: Benchmark, d: DesignKind, fases: usize) -> (Program, ProgramMeta) {
    let params = WorkloadParams::small(2).with_fases(fases).with_seed(11);
    let g = b.generate(&params);
    lower_program_with_meta(d, &g.program)
}

fn system(program: Program) -> System {
    System::new(SimConfig::asplos21(2), program).expect("valid system")
}

fn run_spans(system: System, meta: &ProgramMeta) -> (RunReport, ProfileReport, SpanReport) {
    let mut tracer = SpanTracer::new(&system, meta);
    let (report, _) = system.run_with(&mut tracer);
    let (profile, spans) = tracer.report();
    (report, profile, spans)
}

fn fases_for(b: Benchmark) -> usize {
    if b == Benchmark::Memcached {
        4
    } else {
        8
    }
}

#[test]
fn span_tracing_does_not_perturb_the_simulation() {
    for b in Benchmark::ALL {
        for d in DesignKind::ALL_EXTENDED {
            let (program, meta) = lowered(b, d, fases_for(b));
            let (plain, plain_image) = system(program.clone()).run_full();
            let profiled_system = system(program.clone());
            let mut profiler = Profiler::new(&profiled_system);
            profiled_system.run_with(&mut profiler);
            let traced_system = system(program);
            let mut tracer = SpanTracer::new(&traced_system, &meta);
            let (traced, traced_image) = traced_system.run_with(&mut tracer);
            assert_eq!(
                format!("{:?}", profiler.report()),
                format!("{:?}", tracer.report().0),
                "{b}/{d}: the span tracer's profile must be the standalone profiler's"
            );
            assert_eq!(
                plain.to_json(),
                traced.to_json(),
                "{b}/{d}: span tracing must not change any measurement"
            );
            assert_eq!(plain.to_string(), traced.to_string(), "{b}/{d}");
            assert_eq!(
                plain_image.persistent_snapshot(),
                traced_image.persistent_snapshot(),
                "{b}/{d}: span tracing must not change the persistent image"
            );
        }
    }
}

#[test]
fn every_span_is_a_conserved_waterfall() {
    for b in Benchmark::ALL {
        for d in DesignKind::ALL_EXTENDED {
            let (program, meta) = lowered(b, d, fases_for(b));
            let (report, profile, spans) = run_spans(system(program), &meta);
            assert_eq!(
                spans.len() as u64,
                report.fases_committed,
                "{b}/{d}: one span per committed FASE"
            );
            let mut per_core = vec![[0u64; Bucket::COUNT]; profile.cores.len()];
            for s in &spans.spans {
                assert_eq!(
                    s.bucket_sum(),
                    s.duration().raw(),
                    "{b}/{d} core {} {}: span buckets must sum to its wall-cycles",
                    s.core,
                    s.fase
                );
                assert!(s.end.raw() <= report.total_time.raw(), "{b}/{d}");
                assert!(!s.transitions.is_empty(), "{b}/{d}: spans open with Issue");
                for (i, &v) in s.buckets.iter().enumerate() {
                    per_core[s.core][i] += v;
                }
            }
            // Spans cover a subset of each core's cycles (inter-FASE
            // time is outside every span), so per-bucket sums are
            // bounded by the aggregate breakdown they were diffed from.
            for (idx, sums) in per_core.iter().enumerate() {
                for (&bucket, &sum) in Bucket::ALL.iter().zip(sums.iter()) {
                    assert!(
                        sum <= profile.cores[idx].get(bucket),
                        "{b}/{d} core {idx}: span {} cycles ({sum}) exceed the aggregate ({})",
                        bucket.label(),
                        profile.cores[idx].get(bucket)
                    );
                }
            }
        }
    }
}

#[test]
fn retried_spans_carry_recovery_and_stay_conserved() {
    // The synthetic inducer at 25x path latency forces real
    // misspeculation: retried FASEs must surface their abort count and
    // a Recovery transition, with conservation intact, under both
    // recovery policies.
    for policy in [RecoveryPolicy::Lazy, RecoveryPolicy::Eager] {
        let cfg = SimConfig::asplos21(1).with_persist_path_latency(Duration::from_ns(500));
        let p = synthetic::load_misspec_inducer(&cfg, 20);
        let (program, meta) = lower_program_with_meta(DesignKind::PmemSpec, &p);
        let system =
            System::with_options(cfg, program, policy, DetectionMode::EvictionBased).unwrap();
        let (report, _, spans) = run_spans(system, &meta);
        assert!(report.fases_aborted > 0, "{policy:?}: inducer must abort");
        let retried: Vec<_> = spans.spans.iter().filter(|s| s.attempts > 1).collect();
        assert!(!retried.is_empty(), "{policy:?}: aborts must retry a span");
        let retries: u64 = spans.spans.iter().map(|s| u64::from(s.attempts) - 1).sum();
        assert_eq!(
            retries, report.fases_aborted,
            "{policy:?}: every abort is a retry of some committed span"
        );
        for s in &retried {
            assert!(
                s.transitions.iter().any(|&(_, p)| p == SpanPhase::Recovery)
                    || s.dropped_transitions > 0,
                "{policy:?} {}: a retried span must record Recovery",
                s.fase
            );
        }
        for s in &spans.spans {
            assert_eq!(
                s.bucket_sum(),
                s.duration().raw(),
                "{policy:?} {}: conservation must survive the abort path",
                s.fase
            );
            assert!(
                s.get(Bucket::MisspecRecovery) > 0 || s.attempts == 1,
                "{policy:?} {}: retried spans contain recovery cycles",
                s.fase
            );
        }
    }
}

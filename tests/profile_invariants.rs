//! Cycle-accounting invariants, across every design and workload:
//!
//! 1. **Conservation** — each core's bucket breakdown sums exactly to
//!    the run's total time, with nothing unattributed and nothing
//!    over-attributed. The profiler charges time interval-by-interval
//!    at every advance point; a gap or an overshoot anywhere in the
//!    instrumentation breaks this for some (design, workload) pair.
//! 2. **Non-perturbation** — probes observe only. A profiled run, and
//!    a run under every probe at once (profiler, span tracer, trace,
//!    boundary log), have a `RunReport` (Debug, JSON and Display) and
//!    persistent image byte-identical to the plain run's.
//!
//! These are the hard acceptance criteria for the profiler; keep them
//! exhaustive over `DesignKind::ALL_EXTENDED x Benchmark::ALL`.

use pmem_spec_repro::core::profile::Bucket;
use pmem_spec_repro::core::spec_buffer::DetectionMode;
use pmem_spec_repro::core::{
    BoundaryLog, Profiler, RecoveryPolicy, SpanTracer, System, TraceRecorder,
};
use pmem_spec_repro::isa::lower_program_with_meta;
use pmem_spec_repro::prelude::*;
use pmem_spec_repro::workloads::synthetic;

fn system(b: Benchmark, d: DesignKind, fases: usize) -> System {
    let params = WorkloadParams::small(2).with_fases(fases).with_seed(11);
    let g = b.generate(&params);
    System::new(SimConfig::asplos21(2), lower_program(d, &g.program)).expect("valid system")
}

fn fases_for(b: Benchmark) -> usize {
    if b == Benchmark::Memcached {
        4
    } else {
        8
    }
}

#[test]
fn every_cycle_is_attributed_for_every_design_and_workload() {
    for b in Benchmark::ALL {
        for d in DesignKind::ALL_EXTENDED {
            let (report, profile) = system(b, d, fases_for(b)).run_profiled();
            assert_eq!(
                profile.over_attributed, 0,
                "{b}/{d}: charged past a core's final time"
            );
            let total = report.total_time.raw();
            for (i, core) in profile.cores.iter().enumerate() {
                assert_eq!(
                    core.get(Bucket::Unattributed),
                    0,
                    "{b}/{d} core {i}: unattributed cycles\n{profile}"
                );
                assert_eq!(
                    core.total(),
                    total,
                    "{b}/{d} core {i}: buckets must sum to total time\n{profile}"
                );
            }
            assert_eq!(profile.total_time, report.total_time, "{b}/{d}");
            assert_eq!(profile.cores.len(), 2, "{b}/{d}");
        }
    }
}

#[test]
fn profiling_does_not_perturb_the_simulation() {
    for b in [Benchmark::Hashmap, Benchmark::Queue, Benchmark::Tpcc] {
        for d in DesignKind::ALL_EXTENDED {
            let plain = system(b, d, fases_for(b)).run();
            let (profiled, _) = system(b, d, fases_for(b)).run_profiled();
            assert_eq!(
                plain.to_json(),
                profiled.to_json(),
                "{b}/{d}: profiling must not change any measurement"
            );
            assert_eq!(plain.to_string(), profiled.to_string(), "{b}/{d}");
        }
    }
}

#[test]
fn probes_do_not_perturb_the_simulation() {
    // Every probe at once (profiler, span tracer, Chrome trace,
    // crash-boundary log) against none: the report and the persistent
    // image must not move, for every design x workload pair.
    for b in Benchmark::ALL {
        for d in DesignKind::ALL_EXTENDED {
            let params = WorkloadParams::small(2)
                .with_fases(fases_for(b))
                .with_seed(11);
            let (program, meta) = lower_program_with_meta(d, &b.generate(&params).program);
            let build = || System::new(SimConfig::asplos21(2), program.clone()).unwrap();
            let (plain, plain_image) = build().run_with(&mut ());
            let system = build();
            let mut probes = (
                Profiler::new(&system),
                SpanTracer::new(&system, &meta),
                TraceRecorder::new(2),
                BoundaryLog::default(),
            );
            let (probed, probed_image) = system.run_with(&mut probes);
            assert_eq!(
                format!("{plain:?}"),
                format!("{probed:?}"),
                "{b}/{d}: probes must not change any measurement"
            );
            assert_eq!(plain.to_json(), probed.to_json(), "{b}/{d}");
            assert_eq!(plain.to_string(), probed.to_string(), "{b}/{d}");
            assert_eq!(
                plain_image.persistent_snapshot(),
                probed_image.persistent_snapshot(),
                "{b}/{d}: probes must not change the persistent image"
            );
            // ...and every probe actually observed the run.
            let (profiler, span_tracer, trace, boundaries) = probes;
            assert_eq!(profiler.report().total_time, plain.total_time, "{b}/{d}");
            let (_, spans) = span_tracer.report();
            assert_eq!(spans.len() as u64, plain.fases_committed, "{b}/{d}");
            assert!(!trace.is_empty(), "{b}/{d}");
            assert!(!boundaries.into_cycles().is_empty(), "{b}/{d}");
        }
    }
}

#[test]
fn occupancy_series_are_bounded_and_deterministic() {
    let (_, a) = system(Benchmark::Hashmap, DesignKind::PmemSpec, 8).run_profiled();
    let (_, b) = system(Benchmark::Hashmap, DesignKind::PmemSpec, 8).run_profiled();
    assert!(!a.series.is_empty(), "PMEM-Spec samples path + spec queues");
    for ((name_a, s_a), (name_b, s_b)) in a.series.iter().zip(&b.series) {
        assert_eq!(name_a, name_b);
        assert_eq!(s_a.points(), s_b.points(), "{name_a}: must be repeatable");
        assert!(s_a.len() <= 512, "{name_a}: series must stay bounded");
    }
    let names: Vec<&str> = a.series.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.contains(&"core0.path"));
    assert!(names.contains(&"pmc0.spec"));
    assert!(names.contains(&"core1.mshr"));
}

#[test]
fn recovery_cycles_are_attributed_and_conserved() {
    // The synthetic inducer at 25x path latency forces real
    // misspeculation: the abort path (trap + undo restoration +
    // quiesce) must be charged to recovery and the invariant must
    // survive it, under both recovery policies.
    for policy in [RecoveryPolicy::Lazy, RecoveryPolicy::Eager] {
        let cfg = SimConfig::asplos21(1).with_persist_path_latency(Duration::from_ns(500));
        let p = synthetic::load_misspec_inducer(&cfg, 20);
        let (report, profile) = System::with_options(
            cfg,
            lower_program(DesignKind::PmemSpec, &p),
            policy,
            DetectionMode::EvictionBased,
        )
        .unwrap()
        .run_profiled();
        assert!(report.fases_aborted > 0, "{policy:?}: inducer must abort");
        assert!(
            profile.bucket_total(Bucket::MisspecRecovery) > 0,
            "{policy:?}: aborts must show up as recovery time\n{profile}"
        );
        assert_eq!(profile.over_attributed, 0, "{policy:?}");
        for core in &profile.cores {
            assert_eq!(core.get(Bucket::Unattributed), 0, "{policy:?}");
            assert_eq!(core.total(), report.total_time.raw(), "{policy:?}");
        }
    }
}

#[test]
fn design_signatures_show_up_in_the_breakdown() {
    // x86 pays flush/fence stalls PMEM-Spec was designed to remove.
    let (_, x86) = system(Benchmark::ArraySwaps, DesignKind::IntelX86, 8).run_profiled();
    let ordering = x86.bucket_total(Bucket::Flush) + x86.bucket_total(Bucket::FenceDrain);
    assert!(
        ordering > 0,
        "x86 must show flush/fence ordering stalls\n{x86}"
    );
    // PMEM-Spec's only ordering waits are its FASE-boundary barriers.
    let (_, spec) = system(Benchmark::ArraySwaps, DesignKind::PmemSpec, 8).run_profiled();
    assert_eq!(
        spec.bucket_total(Bucket::Flush),
        0,
        "no CLWBs under PMEM-Spec"
    );
    assert!(spec.grand_total() > 0);
}

//! Determinism contract: identical configuration + seed gives bit-identical
//! simulation outcomes, end to end.

use pmem_spec_repro::core::{System, TraceRecorder};
use pmem_spec_repro::prelude::*;

#[test]
fn end_to_end_runs_are_bit_identical() {
    for design in DesignKind::ALL_EXTENDED {
        let mut outcomes = Vec::new();
        for _ in 0..2 {
            let params = WorkloadParams::small(4).with_fases(40).with_seed(99);
            let g = Benchmark::Tpcc.generate(&params);
            let sys =
                System::new(SimConfig::asplos21(4), lower_program(design, &g.program)).unwrap();
            let (report, image) = sys.run_full();
            outcomes.push((
                report.total_time,
                report.fases_committed,
                report.pm_writes,
                report.pm_reads,
                image.persistent_snapshot(),
            ));
        }
        assert_eq!(outcomes[0].0, outcomes[1].0, "{design}: time diverged");
        assert_eq!(
            outcomes[0].4, outcomes[1].4,
            "{design}: persistent image diverged"
        );
        assert_eq!(
            (outcomes[0].1, outcomes[0].2, outcomes[0].3),
            (outcomes[1].1, outcomes[1].2, outcomes[1].3),
            "{design}: counters diverged"
        );
    }
}

/// The calendar-wheel scheduler and the original binary-heap scheduler
/// must be observationally identical on whole programs: every design ×
/// every benchmark on the smoke grid (2 cores, 25 FASEs, seed 11), the
/// full `RunReport` (via its `Debug` rendering, which prints every
/// counter, histogram, and time series) and the persistent image must
/// match byte for byte.
#[test]
fn event_wheel_matches_reference_scheduler_on_smoke_grid() {
    for design in DesignKind::ALL_EXTENDED {
        for benchmark in Benchmark::ALL {
            let fases = if benchmark == Benchmark::Memcached {
                8
            } else {
                25
            };
            let params = WorkloadParams::small(2).with_fases(fases).with_seed(11);
            let g = benchmark.generate(&params);
            let program = lower_program(design, &g.program);
            let cfg = SimConfig::asplos21(2);
            let (wheel_report, wheel_image) = System::new(cfg.clone(), program.clone())
                .unwrap()
                .run_full();
            let (heap_report, heap_image) = System::new(cfg, program)
                .unwrap()
                .with_reference_scheduler()
                .run_full();
            assert_eq!(
                format!("{wheel_report:?}"),
                format!("{heap_report:?}"),
                "{design}/{benchmark}: reports diverged between schedulers"
            );
            assert_eq!(
                wheel_image.persistent_snapshot(),
                heap_image.persistent_snapshot(),
                "{design}/{benchmark}: persistent images diverged"
            );
        }
    }
}

/// The smoke-grid check above runs at 2 cores, where only a few hundred
/// events (Vacation and Memcached, never PMEM-Spec) go past the wheel's
/// ring. At 16 cores PMEM-Spec's ArraySwaps saturates the PM
/// controller's write port and sends ~17K events through the wheel's
/// overflow heap, so this point checks overflow and migration on a whole
/// program. (Its overflow events never share a time with a ring event;
/// the unit tests in `engine::wheel` pin that case down.)
#[test]
fn event_wheel_matches_reference_scheduler_through_overflow() {
    let params = WorkloadParams::small(16).with_fases(8).with_seed(11);
    let g = Benchmark::ArraySwaps.generate(&params);
    let program = lower_program(DesignKind::PmemSpec, &g.program);
    let cfg = SimConfig::asplos21(16);
    let (wheel_report, wheel_image) = System::new(cfg.clone(), program.clone())
        .unwrap()
        .run_full();
    let (heap_report, heap_image) = System::new(cfg, program)
        .unwrap()
        .with_reference_scheduler()
        .run_full();
    assert_eq!(
        format!("{wheel_report:?}"),
        format!("{heap_report:?}"),
        "reports diverged between schedulers"
    );
    assert_eq!(
        wheel_image.persistent_snapshot(),
        heap_image.persistent_snapshot(),
        "persistent images diverged"
    );
}

#[test]
fn traces_are_deterministic_too() {
    let mut jsons = Vec::new();
    for _ in 0..2 {
        let params = WorkloadParams::small(2).with_fases(10).with_seed(5);
        let g = Benchmark::Hashmap.generate(&params);
        let sys = System::new(
            SimConfig::asplos21(2),
            lower_program(DesignKind::PmemSpec, &g.program),
        )
        .unwrap();
        let mut trace = TraceRecorder::new(2);
        sys.run_with(&mut trace);
        jsons.push(trace.to_chrome_trace());
    }
    assert_eq!(jsons[0], jsons[1]);
}

/// The run loop picks most cores from a small sorted frontier instead of
/// scanning every core's clock, and debug builds assert that each pick is
/// the full scan's winner. These lock-heavy runs change the runnable set
/// often (blocked and woken waiters force rescans) and, at 64 cores, keep
/// far more runnable cores than the frontier holds, so every frontier
/// path is checked against the scan on whole programs.
#[test]
fn frontier_picks_match_a_full_scan_on_lock_heavy_runs() {
    use pmem_spec_repro::isa::AbsOp;
    for (cores, fases) in [(2, 20), (8, 8), (64, 3)] {
        for benchmark in [Benchmark::ArraySwaps, Benchmark::Tpcc] {
            let params = WorkloadParams::small(cores).with_fases(fases).with_seed(11);
            let g = benchmark.generate(&params);
            let begun = g
                .program
                .threads()
                .flat_map(|ops| ops.iter())
                .filter(|op| matches!(op, AbsOp::FaseBegin { .. }))
                .count() as u64;
            for design in DesignKind::ALL_EXTENDED {
                let sys = System::new(
                    SimConfig::asplos21(cores),
                    lower_program(design, &g.program),
                )
                .unwrap();
                let (report, _) = sys.run_full();
                assert_eq!(
                    report.fases_committed, begun,
                    "{design}/{benchmark} at {cores} cores"
                );
            }
        }
    }
}

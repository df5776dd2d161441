//! The static verifier against the dynamic oracles and the sweep pool.
//!
//! Three properties pin the tentpole claim ("the pool's lowerings meet
//! every persist obligation, and the analyzer would notice if they did
//! not"):
//!
//! 1. every workload × design analyzes clean;
//! 2. every seeded mutant is flagged with its expected rule (the kill
//!    matrix also lives in `pmemspec-analyze`'s unit tests; here the
//!    dynamically-confirmable subset is replayed through the exhaustive
//!    model checker, which must reach an image the *intact* program's
//!    axioms forbid — static and dynamic verdicts agree);
//! 3. the lint artifacts render byte-identically pooled and serial.

use pmemspec_analyze::{analyze_program, mutate};
use pmemspec_bench::{lint, sweep};
use pmemspec_crashtest::{axiomatic_allowed, enumerate_program};
use pmemspec_isa::{lower_program, lower_program_with_meta, DesignKind};
use pmemspec_workloads::Benchmark;

/// Reduced pool for debug-mode tests (the full-size grid is the `lint`
/// binary's job; CI diffs its artifacts).
const THREADS: usize = 2;
const FASES: usize = 25;
const SEED: u64 = 11;

#[test]
fn every_workload_design_point_lints_clean() {
    for benchmark in Benchmark::ALL {
        let abs = benchmark.generate(&sweep::workload_params(THREADS, FASES, SEED));
        for design in DesignKind::ALL_EXTENDED {
            let (program, meta) = lower_program_with_meta(design, &abs.program);
            let report = analyze_program(&program, &meta);
            assert!(
                report.is_clean(),
                "{} / {}: {:?}",
                design.label(),
                benchmark.label(),
                report.findings
            );
            assert_eq!(report.stats.threads, THREADS);
            assert!(report.stats.pm_stores > 0, "non-vacuous");
            assert!(report.stats.fases > 0, "non-vacuous");
        }
    }
}

/// The ordering mutants are real bugs, not analyzer opinion: the
/// exhaustive model checker exhibits a persisted image the intact
/// program's axiomatic allowed set forbids.
#[test]
fn ordering_mutants_are_confirmed_by_the_model_checker() {
    let mut confirmed = 0;
    for m in mutate::corpus() {
        let Some(observed) = m.observed else { continue };
        let intact = lower_program(m.design, &mutate::base_program());
        let allowed = axiomatic_allowed(&intact, &observed);
        let enumerated = enumerate_program(m.program.clone(), &observed);
        let forbidden: Vec<_> = enumerated
            .outcomes
            .iter()
            .filter(|o| !allowed.contains(*o))
            .collect();
        assert!(
            !forbidden.is_empty(),
            "{}: model checker exhibits no outcome outside the intact \
             allowed set {allowed:?} (enumerated {:?})",
            m.name,
            enumerated.outcomes
        );
        // The static analyzer flags the same mutant (agreement, not
        // just individual correctness).
        let report = analyze_program(&m.program, &m.meta);
        assert!(report.fired_rules().contains(&m.expected), "{}", m.name);
        confirmed += 1;
    }
    assert!(confirmed >= 5, "only {confirmed} dynamic confirmations");
}

/// Pooled and serial grids render byte-identical artifacts (the pool
/// reduces in spec order; rendering walks the spec).
#[test]
fn lint_artifacts_are_byte_stable_across_worker_counts() {
    let fases = |_: Benchmark| FASES;
    let serial = lint::lint_grid_sized(1, THREADS, fases, SEED);
    let pooled = lint::lint_grid_sized(4, THREADS, fases, SEED);
    assert_eq!(lint::markdown(&serial), lint::markdown(&pooled));
    assert_eq!(
        lint::json_doc(&serial).render_pretty(),
        lint::json_doc(&pooled).render_pretty()
    );
    assert_eq!(lint::total_findings(&serial), 0);
}

//! Output checks, failure accounting, and the self-test of both.
//!
//! Every measured point and trial is checked, and a failure is counted,
//! never raised: a simulator panic (deadlock, livelock) is caught per
//! point, a wrong commit count or an oracle violation is recorded, and
//! the pass goes on. [`self_test`] proves the checks bite by feeding them
//! a tampered image, a short commit count, a deadlocking program and a
//! tampered crash outcome.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use pmem_spec::{CrashOutcome, RunReport};
use pmemspec_crashtest::{check_crash_point, CrashPointCtx};
use pmemspec_engine::{Cycle, SimConfig};
use pmemspec_isa::{
    lower_program, AbsOp, AbsProgram, AbsThread, Addr, DesignKind, LockId, Program,
};
use pmemspec_workloads::{Benchmark, GeneratedWorkload, WorkloadParams};

use crate::grid::{Grid, GridPoint};
use crate::span::{Call, Tracer};

/// One generated workload plus what a completed run of it must show.
#[derive(Debug, Clone)]
pub struct Generated {
    /// Which benchmark.
    pub benchmark: Benchmark,
    /// The parameters it was generated with.
    pub params: WorkloadParams,
    /// Program, recovery runtime and expected final values.
    pub workload: GeneratedWorkload,
    /// FASEs each thread begins: what each thread must commit.
    pub fases: Vec<u64>,
}

impl Generated {
    /// Generates `benchmark` under a `generate` span.
    pub fn new(benchmark: Benchmark, params: WorkloadParams, tr: &mut Tracer) -> Self {
        tr.enter(Call::Generate, None);
        let workload = benchmark.generate(&params);
        tr.exit(workload.program.len() as u64);
        let fases = workload
            .program
            .threads()
            .map(|ops| {
                ops.iter()
                    .filter(|op| matches!(op, AbsOp::FaseBegin { .. }))
                    .count() as u64
            })
            .collect();
        Generated {
            benchmark,
            params,
            workload,
            fases,
        }
    }

    /// The oracle's view of a crash at `crash_at` with `outcome`.
    pub fn ctx<'a>(
        &'a self,
        design: DesignKind,
        outcome: &'a CrashOutcome,
        crash_at: Cycle,
    ) -> CrashPointCtx<'a> {
        CrashPointCtx {
            workload: &self.workload,
            outcome,
            benchmark: self.benchmark,
            design,
            params: self.params,
            crash_at,
        }
    }
}

/// Runs `f`, turning a panic (the simulator reports deadlock and
/// livelock by panicking) into an error that names it. Spans `f` left
/// open are closed.
pub fn guarded<T>(tr: &mut Tracer, f: impl FnOnce(&mut Tracer) -> T) -> Result<T, String> {
    let depth = tr.depth();
    catch_unwind(AssertUnwindSafe(|| f(tr))).map_err(|payload| {
        tr.close_to(depth);
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        format!("panicked: {msg}")
    })
}

/// Checks a run that went to completion: every thread committed all its
/// FASEs, and the final persistent image passes the crash oracle at
/// [`Cycle::MAX`] (clean recovery and the expected final values).
pub fn check_completed(
    gen: &Generated,
    design: DesignKind,
    report: &RunReport,
    persistent: HashMap<Addr, u64>,
    tr: &mut Tracer,
) -> Vec<String> {
    let mut failures = Vec::new();
    let want: u64 = gen.fases.iter().sum();
    if report.fases_committed != want {
        failures.push(format!(
            "committed {} of {want} FASEs",
            report.fases_committed
        ));
    }
    let outcome = CrashOutcome {
        persistent,
        durable_fases: gen.fases.clone(),
        started_fases: gen.fases.clone(),
    };
    tr.enter(Call::Oracle, Some(design));
    let (_, violations) = check_crash_point(&gen.ctx(design, &outcome, Cycle::MAX));
    tr.exit(0);
    failures.extend(violations.iter().map(ToString::to_string));
    failures
}

/// Attempted and failed points or trials, with a few examples.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Points or trials attempted.
    pub attempted: u64,
    /// Of those, how many failed a check or panicked.
    pub failed: u64,
    /// The first few failures, for the report.
    pub examples: Vec<String>,
}

impl Tally {
    /// Records one attempt; it failed when `failures` is non-empty.
    pub fn record(&mut self, what: impl FnOnce() -> String, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            if self.examples.len() < 5 {
                self.examples
                    .push(format!("{}: {}", what(), failures.join("; ")));
            }
        }
    }
}

/// Two threads taking two locks in opposite order: the simulator must
/// report a deadlock.
fn deadlock_program() -> Program {
    let mut abs = AbsProgram::new();
    for (first, second) in [(0, 1), (1, 0)] {
        let mut t = AbsThread::new();
        t.acquire(LockId(first))
            .compute(500)
            .acquire(LockId(second))
            .release(LockId(second))
            .release(LockId(first));
        abs.add_thread(t);
    }
    lower_program(DesignKind::IntelX86, &abs)
}

/// Checks that the benchmark's own checks count failures instead of
/// crashing or passing. Returns one line per expectation that did not
/// hold (empty when all did).
pub fn self_test() -> Vec<String> {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let problems = self_test_inner();
    std::panic::set_hook(hook);
    problems
}

fn self_test_inner() -> Vec<String> {
    let mut problems = Vec::new();
    let expect = |problems: &mut Vec<String>, what: &str, tally: &Tally, failed: u64| {
        if tally.attempted != 1 || tally.failed != failed {
            problems.push(format!(
                "self-test: {what}: counted {}/{} failed, expected {failed}/1",
                tally.failed, tally.attempted
            ));
        }
    };
    let mut tr = Tracer::off();

    // A small clean point, and the same outputs tampered with.
    let shape = crate::spec::Shape::Grid {
        cores: 2,
        fases: 4,
        memcached_fases: 2,
    };
    let grid = Grid::setup(
        shape,
        &[Benchmark::ArraySwaps],
        &[DesignKind::PmemSpec],
        crate::spec::DEFAULT_SEED,
        &mut tr,
    );
    let point = &grid.points[0];
    let gen = &grid.generated[point.gen];
    let (report, image) = match Grid::run_point(&grid.cfg, point, &mut tr) {
        Ok(out) => out,
        Err(e) => {
            problems.push(format!("self-test: clean point failed to run: {e}"));
            return problems;
        }
    };
    let snapshot = image.persistent_snapshot();

    let mut clean = Tally::default();
    let failures = check_completed(gen, point.design, &report, snapshot.clone(), &mut tr);
    clean.record(|| "clean".into(), &failures);
    expect(&mut problems, "clean point", &clean, 0);

    let mut tampered = Tally::default();
    let mut image_bad = snapshot.clone();
    match gen.workload.expected_final.iter().next() {
        Some((&addr, &want)) => {
            image_bad.insert(addr, want ^ 1);
            let failures = check_completed(gen, point.design, &report, image_bad, &mut tr);
            tampered.record(|| "tampered image".into(), &failures);
            expect(&mut problems, "tampered persistent image", &tampered, 1);
        }
        None => problems.push("self-test: workload has no expected final values".into()),
    }

    let mut short = Tally::default();
    let mut short_report = report.clone();
    short_report.fases_committed -= 1;
    let failures = check_completed(gen, point.design, &short_report, snapshot, &mut tr);
    short.record(|| "short commit".into(), &failures);
    expect(&mut problems, "short commit count", &short, 1);

    // A deadlock is a counted failure, not an abort.
    let mut dead = Tally::default();
    let deadlock = GridPoint {
        gen: point.gen,
        design: DesignKind::IntelX86,
        program: Arc::new(deadlock_program()),
        ops: 0,
    };
    let failures = match Grid::run_point(&SimConfig::asplos21(2), &deadlock, &mut tr) {
        Ok(_) => Vec::new(),
        Err(e) if e.contains("deadlock") => vec![e],
        Err(e) => {
            problems.push(format!("self-test: deadlock gave an unexpected error: {e}"));
            vec![e]
        }
    };
    dead.record(|| "deadlock".into(), &failures);
    expect(&mut problems, "deadlocking program", &dead, 1);

    // A crash outcome claiming more durable FASEs than started.
    let mut crash = Tally::default();
    let outcome = CrashOutcome {
        persistent: HashMap::new(),
        durable_fases: vec![1, 0],
        started_fases: vec![0, 0],
    };
    let (_, violations) = check_crash_point(&gen.ctx(point.design, &outcome, Cycle::from_raw(1)));
    let failures: Vec<String> = violations.iter().map(ToString::to_string).collect();
    crash.record(|| "tampered crash outcome".into(), &failures);
    expect(&mut problems, "tampered crash outcome", &crash, 1);

    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_every_planted_failure() {
        let problems = self_test();
        assert!(problems.is_empty(), "{problems:#?}");
    }
}

//! The crash workload (`crash-2c`): crashfuzz's fuzz grid, one job per
//! (benchmark × design × seed). A job lints its program, pre-runs it
//! with `run_boundaries`, plans crash cycles, then runs one trial per
//! planned cycle plus completion: `System::new`, `run_until`, the crash
//! oracle and the workload's recovery. These are the steps of
//! `crashtest::run_fuzz_job`, in its order.

use std::sync::Arc;
use std::time::Instant;

use pmem_spec::{CrashOutcome, System};
use pmemspec_analyze::analyze_program;
use pmemspec_crashtest::{check_crash_point, crash_plan, run_fuzz_job, FuzzJob};
use pmemspec_engine::{Cycle, SimConfig, SimRng};
use pmemspec_isa::{log_mix, lower_program_with_meta, DesignKind, Program, ProgramMeta};
use pmemspec_workloads::{Benchmark, WorkloadParams};

use crate::check::{guarded, Generated, Tally};
use crate::span::{Call, Tracer};
use crate::spec::{Shape, CRASH_SEED_OFFSETS};
use crate::stats::Fnv;
use crate::PassOut;

/// One (benchmark × design × seed) fuzz job.
#[derive(Debug)]
pub struct Job {
    /// Index into [`Crash::generated`].
    pub gen: usize,
    /// The design.
    pub design: DesignKind,
    /// The lowered program.
    pub program: Arc<Program>,
    /// Its lowering metadata, for the lint.
    pub meta: ProgramMeta,
    /// Crash-plan seed, derived as the `crashfuzz` binary derives it.
    pub fuzz_seed: u64,
    /// Lowered ops across threads.
    pub ops: u64,
}

/// What one job observed, in `FuzzJobResult`'s terms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobSummary {
    /// Trials run (completion included).
    pub points: usize,
    /// Oracle and monotonicity violations.
    pub violations: usize,
    /// Crash-interesting cycles from the pre-run.
    pub boundaries: usize,
    /// Pre-run length in cycles.
    pub total_cycles: u64,
    /// Generations rolled back across trials.
    pub rolled_back: u64,
    /// Torn log entries across trials.
    pub torn: u64,
    /// Most durable FASEs at any trial.
    pub max_durable: u64,
}

/// A set-up crash grid.
#[derive(Debug)]
pub struct Crash {
    /// The simulated machine.
    pub cfg: SimConfig,
    crash_points: usize,
    /// One generated workload per (benchmark, seed).
    pub generated: Vec<Generated>,
    /// Jobs in `crashfuzz` order: benchmark, design, seed.
    pub jobs: Vec<Job>,
}

impl Crash {
    /// Generates every benchmark for every workload seed and lowers it
    /// (with metadata) for every design.
    pub fn setup(shape: Shape, seed: u64, tr: &mut Tracer) -> Self {
        let Shape::Crash { crash_points, .. } = shape else {
            panic!("crash set-up needs a crash shape");
        };
        let threads = shape.cores();
        let seeds = CRASH_SEED_OFFSETS.map(|o| seed.wrapping_add(o));
        let mut generated = Vec::with_capacity(Benchmark::ALL.len() * seeds.len());
        for benchmark in Benchmark::ALL {
            for seed in seeds {
                let params = WorkloadParams::small(threads)
                    .with_fases(shape.fases(benchmark))
                    .with_seed(seed);
                generated.push(Generated::new(benchmark, params, tr));
            }
        }
        let mut jobs = Vec::with_capacity(generated.len() * DesignKind::ALL_EXTENDED.len());
        for b in 0..Benchmark::ALL.len() {
            for design in DesignKind::ALL_EXTENDED {
                let per_benchmark = generated.iter().enumerate().skip(b * seeds.len());
                for (gen, g) in per_benchmark.take(seeds.len()) {
                    tr.enter(Call::Lower, Some(design));
                    let (program, meta) = lower_program_with_meta(design, &g.workload.program);
                    let ops = program.len() as u64;
                    tr.exit(ops);
                    let fuzz_seed = log_mix(
                        g.params.seed ^ ((g.benchmark as u64) << 8) ^ ((design as u64) << 16),
                    );
                    jobs.push(Job {
                        gen,
                        design,
                        program: Arc::new(program),
                        meta,
                        fuzz_seed,
                        ops,
                    });
                }
            }
        }
        Crash {
            cfg: SimConfig::asplos21(threads),
            crash_points,
            generated,
            jobs,
        }
    }

    /// One pass over every job. Without `reference` this is the
    /// reference pass: it keeps the pre-run reports, digests every crash
    /// image, and summarises each job. With one, each trial's fingerprint
    /// must equal the reference's.
    pub fn pass(&self, tr: &mut Tracer, reference: Option<&[u64]>, tally: &mut Tally) -> PassOut {
        let started = Instant::now();
        let mut out = PassOut::default();
        let mut digest = Fnv::default();
        for job in &self.jobs {
            let gen = &self.generated[job.gen];
            let name = || format!("{}/{}", gen.benchmark, job.design);
            tr.enter_for(Call::Point, Some(job.design), Some(gen.benchmark));

            tr.enter(Call::Lint, Some(job.design));
            let lint = analyze_program(&job.program, &job.meta);
            tr.exit(job.ops);
            if !lint.is_clean() {
                let failure = format!("{} lint finding(s)", lint.findings.len());
                tally.record(name, &[failure]);
            }

            let pre = guarded(tr, |tr| -> Result<_, String> {
                tr.enter(Call::Build, Some(job.design));
                let system = System::new(self.cfg.clone(), Arc::clone(&job.program));
                tr.exit(0);
                let system = system.map_err(|e| e.to_string())?;
                tr.enter(Call::RunBoundaries, Some(job.design));
                let out = system.run_boundaries();
                tr.exit(job.ops);
                Ok(out)
            });
            let (report, boundaries) = match pre.and_then(|r| r) {
                Ok(pre) => pre,
                Err(e) => {
                    tally.record(name, &[format!("pre-run: {e}")]);
                    tr.exit(0);
                    continue;
                }
            };

            tr.enter(Call::Plan, Some(job.design));
            let mut rng = SimRng::seed_from_u64(job.fuzz_seed);
            let mut plan = crash_plan(&boundaries, report.total_time, self.crash_points, &mut rng);
            plan.push(Cycle::MAX);
            tr.exit(plan.len() as u64);

            let mut summary = JobSummary {
                boundaries: boundaries.len(),
                total_cycles: report.total_time.raw(),
                ..JobSummary::default()
            };
            if reference.is_none() {
                digest.bytes(report.to_json().as_bytes());
                out.reports.push((gen.benchmark, job.design, report));
            }
            let mut prev_words = 0usize;
            let mut prev_durable = vec![0u64; gen.fases.len()];
            for crash_at in plan {
                let to_end = crash_at == Cycle::MAX;
                tr.enter_for(Call::Trial, Some(job.design), Some(gen.benchmark));
                let t0 = Instant::now();
                let run = guarded(tr, |tr| -> Result<CrashOutcome, String> {
                    tr.enter(Call::Build, Some(job.design));
                    let system = System::new(self.cfg.clone(), Arc::clone(&job.program));
                    tr.exit(0);
                    let system = system.map_err(|e| e.to_string())?;
                    let call = if to_end { Call::Run } else { Call::RunUntil };
                    tr.enter(call, Some(job.design));
                    let outcome = system.run_until(crash_at);
                    tr.exit(if to_end { job.ops } else { 0 });
                    Ok(outcome)
                });
                let run_ns = t0.elapsed().as_nanos() as u64;
                let mut failures = Vec::new();
                let mut fingerprint = Fnv::default();
                match run.and_then(|r| r) {
                    Ok(outcome) => {
                        // Crash later, persist (weakly) more; durability
                        // never retreats.
                        if outcome.persistent.len() < prev_words {
                            failures.push("persist-monotonicity".to_string());
                        }
                        prev_words = outcome.persistent.len();
                        for (&d, prev) in outcome.durable_fases.iter().zip(&mut prev_durable) {
                            if d < *prev {
                                failures.push("durability-monotonicity".to_string());
                            }
                            *prev = d;
                        }
                        let durable: u64 = outcome.durable_fases.iter().sum();
                        summary.max_durable = summary.max_durable.max(durable);

                        tr.enter(Call::Oracle, Some(job.design));
                        let (_, violations) =
                            check_crash_point(&gen.ctx(job.design, &outcome, crash_at));
                        tr.exit(0);
                        failures.extend(violations.iter().map(ToString::to_string));

                        tr.enter(Call::Recover, Some(job.design));
                        let mut scratch = outcome.persistent.clone();
                        let recovered = gen.workload.recover(&mut scratch);
                        tr.exit(0);
                        summary.rolled_back += recovered.rolled_back as u64;
                        summary.torn += recovered.torn_entries as u64;

                        fingerprint.word(outcome.persistent.len() as u64);
                        fingerprint.word(durable);
                        fingerprint.word(outcome.started_fases.iter().sum());
                        fingerprint.word(failures.len() as u64);
                        if reference.is_none() {
                            let mut words: Vec<(u64, u64)> = outcome
                                .persistent
                                .iter()
                                .map(|(a, &v)| (a.raw(), v))
                                .collect();
                            words.sort_unstable();
                            for (a, v) in words {
                                digest.word(a);
                                digest.word(v);
                            }
                            for (&d, &s) in outcome.durable_fases.iter().zip(&outcome.started_fases)
                            {
                                digest.word(d);
                                digest.word(s);
                            }
                        }
                    }
                    Err(e) => failures.push(e),
                }
                let fingerprint = fingerprint.finish();
                let index = out.fingerprints.len();
                if let Some(reference) = reference {
                    if reference.get(index) != Some(&fingerprint) {
                        failures.push("outcome differs from the reference pass".into());
                    }
                }
                summary.points += 1;
                summary.violations += failures.len();
                tally.record(
                    || format!("{} crash_cycle={}", name(), crash_at.raw()),
                    &failures,
                );
                out.fingerprints.push(fingerprint);
                out.samples_ns.push(t0.elapsed().as_nanos() as u64);
                if to_end {
                    out.sim_ops += job.ops;
                    out.sim_ns += run_ns;
                }
                out.trials += 1;
                tr.exit(0);
            }
            digest.word(summary.violations as u64);
            out.summaries.push(summary);
            tr.exit(job.ops);
        }
        out.digest = digest.finish();
        out.wall_ns = started.elapsed().as_nanos() as u64;
        out
    }

    /// Re-runs every job through `crashtest::run_fuzz_job` and compares
    /// its point counts and violations (and every other summary field)
    /// with the reference pass's.
    pub fn cross_check(&self, reference: &PassOut) -> Vec<String> {
        let mut problems = Vec::new();
        if reference.summaries.len() != self.jobs.len() {
            problems.push(format!(
                "run_fuzz_job cross-check: {} of {} jobs summarised",
                reference.summaries.len(),
                self.jobs.len()
            ));
            return problems;
        }
        for (job, ours) in self.jobs.iter().zip(&reference.summaries) {
            let gen = &self.generated[job.gen];
            let theirs = run_fuzz_job(&FuzzJob {
                benchmark: gen.benchmark,
                design: job.design,
                params: gen.params,
                crash_points: self.crash_points,
                fuzz_seed: job.fuzz_seed,
            });
            let theirs = JobSummary {
                points: theirs.points,
                violations: theirs.violations.len(),
                boundaries: theirs.boundaries,
                total_cycles: theirs.total_cycles,
                rolled_back: theirs.rolled_back_total,
                torn: theirs.torn_total,
                max_durable: theirs.max_durable,
            };
            if *ours != theirs {
                problems.push(format!(
                    "run_fuzz_job cross-check: {}/{}: ours {ours:?}, run_fuzz_job {theirs:?}",
                    gen.benchmark, job.design
                ));
            }
        }
        problems
    }

    /// The programs lowered for `design`, for the profiled run.
    pub fn programs_of(&self, design: DesignKind) -> Vec<Arc<Program>> {
        self.jobs
            .iter()
            .filter(|j| j.design == design)
            .map(|j| Arc::clone(&j.program))
            .collect()
    }
}

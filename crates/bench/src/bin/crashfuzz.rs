//! Crash-consistency fuzzer + persistency litmus driver.
//!
//! Two phases, both fanned through the sweep worker pool:
//!
//! 1. **Litmus**: every (litmus test × design) pair from
//!    [`pmemspec_crashtest::litmus_suite`] is swept over crash points;
//!    any persisted outcome outside the design's allowed set is an
//!    expectation mismatch.
//! 2. **Fuzz**: the full (benchmark × design × seed) grid — 8 workloads
//!    × 5 designs × the seed set — samples crash cycles (dense around
//!    fences/CLWBs/FASE markers/persist arrivals, sparse elsewhere),
//!    replays each design's recovery (undo or redo per workload), and
//!    checks the oracle invariants on the recovered image.
//!
//! Exit code is nonzero on any mismatch or violation; each failure
//! prints a one-line reproducer (`benchmark=… design=… seed=…
//! crash_cycle=…`). `PMEMSPEC_SMOKE=1` shrinks the fuzz grid (1 seed,
//! fewer FASEs and crash points) but always runs the full litmus suite.
//! The default grid samples well over 1,000 distinct crash points.
//!
//! **`--litmus-exhaustive`** replaces both phases with the exhaustive
//! model checker: every (litmus test × design) pair is enumerated over
//! *all* persist-order interleavings of the untimed abstract machine and
//! diffed against the axiomatic Px86-style allowed set
//! ([`pmemspec_crashtest::check_litmus_exhaustive`]). Writes byte-stable
//! `<out>/litmus_exhaustive.md` and `<out>/litmus_exhaustive.json`
//! (`--out DIR`, default `results`); pairs fan over the shared worker
//! pool and reduce in suite order, so pooled and `--serial` outputs are
//! byte-identical — CI diffs the two. Exit code is nonzero on any
//! forbidden outcome, deadlock, or finals-coverage failure; coverage
//! slack is reported but not fatal.

use std::process::ExitCode;
use std::time::Instant;

use pmemspec_bench::sweep::{parallel_map, worker_count};
use pmemspec_bench::{seeds, smoke_mode, write_json, BenchArgs, Json};
use pmemspec_crashtest::{
    check_litmus_exhaustive, litmus_suite, run_fuzz_job, run_litmus, FuzzJob,
};
use pmemspec_isa::DesignKind;
use pmemspec_workloads::{Benchmark, WorkloadParams};

/// Threads per fuzzed workload (2 keeps one grid point affordable while
/// still exercising locks and cross-core persists).
const THREADS: usize = 2;

fn fases_for(benchmark: Benchmark, smoke: bool) -> usize {
    let base = match benchmark {
        // Memcached FASEs are 1 KiB-value transactions — much longer.
        Benchmark::Memcached => 6,
        _ => 12,
    };
    if smoke {
        base / 2
    } else {
        base
    }
}

/// The `--litmus-exhaustive` mode: enumerate every (shape × design)
/// pair, diff against the axiomatic oracle, and write the byte-stable
/// report pair. Returns the process exit code.
fn run_litmus_exhaustive(args: &BenchArgs) -> ExitCode {
    use std::fmt::Write as _;

    let out = &args.out;
    let workers = worker_count(args);
    let started = Instant::now();

    let suite = litmus_suite();
    let pairs: Vec<(usize, DesignKind)> = (0..suite.len())
        .flat_map(|t| DesignKind::ALL_EXTENDED.map(|d| (t, d)))
        .collect();
    let reports = parallel_map(pairs.len(), workers, |i| {
        let (t, design) = pairs[i];
        check_litmus_exhaustive(&suite[t], design)
    });

    let mut md = String::new();
    let w = &mut md;
    writeln!(w, "# Exhaustive litmus model check").unwrap();
    writeln!(w).unwrap();
    writeln!(
        w,
        "Every (litmus shape x design) pair: all persist-order interleavings \
         of the untimed abstract machine, enumerated by explicit-state search \
         and diffed against the axiomatic Px86-style allowed set. `forbidden` \
         = produced but not allowed (simulator/model bug); `slack` = allowed \
         but never produced (coverage gap, reported, not fatal). See \
         DESIGN.md \"Axiomatic persistency oracle\" and EXPERIMENTS.md."
    )
    .unwrap();
    writeln!(w).unwrap();
    writeln!(
        w,
        "| test | design | class | states | transitions | outcomes | allowed | forbidden | slack | verdict |"
    )
    .unwrap();
    writeln!(w, "|---|---|---|---|---|---|---|---|---|---|").unwrap();
    let (mut total_states, mut total_outcomes) = (0usize, 0usize);
    let mut failures = 0usize;
    for r in &reports {
        let e = &r.enumerated;
        total_states += e.stats.states;
        total_outcomes += e.outcomes.len();
        if !r.is_ok() {
            failures += 1;
        }
        writeln!(
            w,
            "| {} | {} | {:?} | {} | {} | {} | {} | {} | {} | {} |",
            e.test,
            e.design.label(),
            e.design.persistency_class(),
            e.stats.states,
            e.stats.transitions,
            e.outcomes.len(),
            r.allowed.len(),
            r.forbidden.len(),
            r.slack.len(),
            if r.is_ok() { "ok" } else { "FAIL" },
        )
        .unwrap();
    }
    writeln!(w).unwrap();

    writeln!(w, "## Forbidden outcomes").unwrap();
    writeln!(w).unwrap();
    let forbidden: Vec<_> = reports.iter().flat_map(|r| r.forbidden.iter()).collect();
    if forbidden.is_empty() {
        writeln!(w, "none").unwrap();
    } else {
        for m in &forbidden {
            writeln!(w, "* `{m}`").unwrap();
        }
    }
    writeln!(w).unwrap();

    writeln!(w, "## Coverage slack").unwrap();
    writeln!(w).unwrap();
    let mut any_slack = false;
    for r in &reports {
        for s in &r.slack {
            any_slack = true;
            writeln!(
                w,
                "* {} on {}: allowed outcome {:?} never produced",
                r.enumerated.test,
                r.enumerated.design.label(),
                s
            )
            .unwrap();
        }
    }
    if !any_slack {
        writeln!(w, "none").unwrap();
    }
    writeln!(w).unwrap();

    writeln!(w, "## Deadlocks").unwrap();
    writeln!(w).unwrap();
    let deadlocks: Vec<_> = reports
        .iter()
        .flat_map(|r| {
            r.enumerated.deadlocks.iter().map(move |d| {
                format!(
                    "{} on {}: {d}",
                    r.enumerated.test,
                    r.enumerated.design.label()
                )
            })
        })
        .collect();
    if deadlocks.is_empty() {
        writeln!(w, "none").unwrap();
    } else {
        for d in &deadlocks {
            writeln!(w, "* {d}").unwrap();
        }
    }
    writeln!(w).unwrap();
    writeln!(
        w,
        "{} pairs, {} reachable states, {} distinct surviving-image outcomes, \
         {} failing pair(s)",
        reports.len(),
        total_states,
        total_outcomes,
        failures
    )
    .unwrap();

    print!("{md}");

    let json = Json::obj([
        ("pairs".into(), Json::Num(reports.len() as f64)),
        ("total_states".into(), Json::Num(total_states as f64)),
        ("total_outcomes".into(), Json::Num(total_outcomes as f64)),
        ("failures".into(), Json::Num(failures as f64)),
        (
            "reports".into(),
            Json::Arr(
                reports
                    .iter()
                    .map(|r| {
                        let e = &r.enumerated;
                        let outcomes = |set: &std::collections::BTreeSet<Vec<u64>>| {
                            Json::Arr(
                                set.iter()
                                    .map(|o| {
                                        Json::Arr(o.iter().map(|&v| Json::Num(v as f64)).collect())
                                    })
                                    .collect(),
                            )
                        };
                        Json::obj([
                            ("test".into(), Json::Str(e.test.into())),
                            ("design".into(), Json::Str(e.design.label().into())),
                            (
                                "class".into(),
                                Json::Str(format!("{:?}", e.design.persistency_class())),
                            ),
                            ("states".into(), Json::Num(e.stats.states as f64)),
                            ("transitions".into(), Json::Num(e.stats.transitions as f64)),
                            ("max_depth".into(), Json::Num(e.stats.max_depth as f64)),
                            (
                                "terminal_states".into(),
                                Json::Num(e.stats.terminal_states as f64),
                            ),
                            ("outcomes".into(), outcomes(&e.outcomes)),
                            ("terminal_outcomes".into(), outcomes(&e.terminal_outcomes)),
                            ("allowed".into(), outcomes(&r.allowed)),
                            (
                                "forbidden".into(),
                                Json::Arr(
                                    r.forbidden
                                        .iter()
                                        .map(|m| Json::Str(m.to_string()))
                                        .collect(),
                                ),
                            ),
                            (
                                "slack".into(),
                                Json::Arr(
                                    r.slack
                                        .iter()
                                        .map(|o| {
                                            Json::Arr(
                                                o.iter().map(|&v| Json::Num(v as f64)).collect(),
                                            )
                                        })
                                        .collect(),
                                ),
                            ),
                            ("deadlocks".into(), Json::Num(e.deadlocks.len() as f64)),
                            ("finals_ok".into(), Json::Bool(r.finals_ok)),
                            ("ok".into(), Json::Bool(r.is_ok())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);

    std::fs::create_dir_all(out).unwrap_or_else(|e| panic!("cannot create {}: {e}", out.display()));
    let md_path = out.join("litmus_exhaustive.md");
    std::fs::write(&md_path, &md)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", md_path.display()));
    let json_path = out.join("litmus_exhaustive.json");
    std::fs::write(&json_path, json.render_pretty())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", json_path.display()));

    // Wall clock goes to stderr so the checked-in report stays
    // byte-stable across regenerations.
    eprintln!(
        "crashfuzz --litmus-exhaustive: {:.1} s, {} workers, wrote {} and {}",
        started.elapsed().as_secs_f64(),
        workers,
        md_path.display(),
        json_path.display()
    );

    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        for m in &forbidden {
            eprintln!("MODEL MISMATCH: {m}");
        }
        for d in &deadlocks {
            eprintln!("DEADLOCK: {d}");
        }
        eprintln!("crashfuzz --litmus-exhaustive FAILED: {failures} pair(s)");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = BenchArgs::parse();
    if std::env::args().any(|a| a == "--litmus-exhaustive") {
        return run_litmus_exhaustive(&args);
    }
    let smoke = smoke_mode();
    let workers = worker_count(&args);
    let started = Instant::now();

    // --- Phase 1: the litmus suite (always in full). --------------------
    let suite = litmus_suite();
    let pairs: Vec<(usize, DesignKind)> = (0..suite.len())
        .flat_map(|t| DesignKind::ALL_EXTENDED.map(|d| (t, d)))
        .collect();
    let litmus_reports = parallel_map(pairs.len(), workers, |i| {
        let (t, design) = pairs[i];
        run_litmus(&suite[t], design)
    });

    println!("## Persistency litmus suite");
    println!();
    println!("| test | design | crash points | distinct outcomes | mismatches |");
    println!("|---|---|---|---|---|");
    let mut litmus_points = 0usize;
    let mut mismatches = Vec::new();
    for r in &litmus_reports {
        litmus_points += r.points;
        println!(
            "| {} | {} | {} | {} | {} |",
            r.test,
            r.design.label(),
            r.points,
            r.outcomes.len(),
            r.mismatches.len()
        );
        mismatches.extend(r.mismatches.iter().cloned());
    }
    println!();

    // --- Phase 2: the fuzz grid. ----------------------------------------
    let seeds = seeds();
    let crash_points = if smoke { 4 } else { 12 };
    let jobs: Vec<FuzzJob> = Benchmark::ALL
        .iter()
        .flat_map(|&benchmark| {
            DesignKind::ALL_EXTENDED.iter().flat_map(move |&design| {
                seeds.iter().map(move |&seed| FuzzJob {
                    benchmark,
                    design,
                    params: WorkloadParams::small(THREADS)
                        .with_fases(fases_for(benchmark, smoke))
                        .with_seed(seed),
                    crash_points,
                    fuzz_seed: pmemspec_isa::log_mix(
                        seed ^ ((benchmark as u64) << 8) ^ ((design as u64) << 16),
                    ),
                })
            })
        })
        .collect();
    let results = parallel_map(jobs.len(), workers, |i| run_fuzz_job(&jobs[i]));

    println!("## Crash-consistency fuzz grid");
    println!();
    println!(
        "{} workloads x {} designs x {} seed(s), {} threads, {} sampled crash \
         points per job (+1 completion point)",
        Benchmark::ALL.len(),
        DesignKind::ALL_EXTENDED.len(),
        seeds.len(),
        THREADS,
        crash_points
    );
    println!();
    println!("| benchmark | design | points | boundaries | rolled back | torn | max durable | violations |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut fuzz_points = 0usize;
    let mut violations = Vec::new();
    for r in &results {
        fuzz_points += r.points;
        if r.seed == seeds[0] {
            // One row per (benchmark, design); aggregate the seeds.
            let group: Vec<_> = results
                .iter()
                .filter(|x| x.benchmark == r.benchmark && x.design == r.design)
                .collect();
            println!(
                "| {} | {} | {} | {} | {} | {} | {} | {} |",
                r.benchmark.label(),
                r.design.label(),
                group.iter().map(|x| x.points).sum::<usize>(),
                group.iter().map(|x| x.boundaries).sum::<usize>(),
                group.iter().map(|x| x.rolled_back_total).sum::<u64>(),
                group.iter().map(|x| x.torn_total).sum::<u64>(),
                group.iter().map(|x| x.max_durable).max().unwrap_or(0),
                group.iter().map(|x| x.violations.len()).sum::<usize>(),
            );
        }
        violations.extend(r.violations.iter().cloned());
    }
    println!();
    println!(
        "{} litmus crash points, {} fuzz crash points, {} total",
        litmus_points,
        fuzz_points,
        litmus_points + fuzz_points,
    );
    println!();
    // Wall clock goes to stderr so the checked-in markdown is
    // byte-stable across regenerations.
    eprintln!(
        "crashfuzz: {:.1} s, {} workers",
        started.elapsed().as_secs_f64(),
        workers
    );

    // --- JSON artifact. --------------------------------------------------
    let doc = Json::obj([
        ("smoke".into(), Json::Bool(smoke)),
        ("litmus_points".into(), Json::Num(litmus_points as f64)),
        ("fuzz_points".into(), Json::Num(fuzz_points as f64)),
        (
            "litmus".into(),
            Json::Arr(
                litmus_reports
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("test".into(), Json::Str(r.test.into())),
                            ("design".into(), Json::Str(r.design.label().into())),
                            ("points".into(), Json::Num(r.points as f64)),
                            (
                                "outcomes".into(),
                                Json::Arr(
                                    r.outcomes
                                        .iter()
                                        .map(|o| {
                                            Json::Arr(
                                                o.iter().map(|&v| Json::Num(v as f64)).collect(),
                                            )
                                        })
                                        .collect(),
                                ),
                            ),
                            ("mismatches".into(), Json::Num(r.mismatches.len() as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "fuzz".into(),
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("benchmark".into(), Json::Str(r.benchmark.label().into())),
                            ("design".into(), Json::Str(r.design.label().into())),
                            ("seed".into(), Json::Num(r.seed as f64)),
                            ("points".into(), Json::Num(r.points as f64)),
                            ("boundaries".into(), Json::Num(r.boundaries as f64)),
                            ("total_cycles".into(), Json::Num(r.total_cycles as f64)),
                            ("rolled_back".into(), Json::Num(r.rolled_back_total as f64)),
                            ("torn".into(), Json::Num(r.torn_total as f64)),
                            ("violations".into(), Json::Num(r.violations.len() as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "violations".into(),
            Json::Arr(
                violations
                    .iter()
                    .map(|v| {
                        Json::obj([
                            ("invariant".into(), Json::Str(v.invariant.into())),
                            ("reproducer".into(), Json::Str(v.reproducer())),
                            ("detail".into(), Json::Str(v.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "litmus_mismatches".into(),
            Json::Arr(
                mismatches
                    .iter()
                    .map(|m| Json::Str(m.to_string()))
                    .collect(),
            ),
        ),
    ]);
    write_json(&args, "crashfuzz", &doc);

    // --- Verdict. ---------------------------------------------------------
    if !smoke && litmus_points + fuzz_points < 1_000 {
        eprintln!(
            "crashfuzz: default grid swept only {} crash points (< 1000)",
            litmus_points + fuzz_points
        );
        return ExitCode::FAILURE;
    }
    if mismatches.is_empty() && violations.is_empty() {
        println!("crashfuzz: zero litmus mismatches, zero oracle violations");
        ExitCode::SUCCESS
    } else {
        for m in &mismatches {
            eprintln!("LITMUS MISMATCH: {m}");
        }
        for v in &violations {
            eprintln!("ORACLE VIOLATION: {v}");
            eprintln!("  reproduce with: {}", v.reproducer());
        }
        eprintln!(
            "crashfuzz FAILED: {} litmus mismatches, {} oracle violations",
            mismatches.len(),
            violations.len()
        );
        ExitCode::FAILURE
    }
}

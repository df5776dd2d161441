//! The crash-consistency experiments: the persistency litmus suite and
//! crash fuzzer (`crashfuzz`), and the exhaustive litmus model check
//! (`litmus_exhaustive`). Both fan their pairs and jobs through the
//! sweep worker pool and reduce in spec order, so pooled and `--serial`
//! outputs are byte-identical.

use std::fmt::Write as _;

use pmemspec_crashtest::{
    check_litmus_exhaustive, litmus_suite, run_fuzz_job, run_litmus, FuzzJob,
};
use pmemspec_isa::DesignKind;
use pmemspec_workloads::{Benchmark, WorkloadParams};

use crate::experiments::Output;
use crate::sweep::{parallel_map, worker_count};
use crate::{seeds, smoke_mode, BenchArgs, Json};

/// Threads per fuzzed workload (2 keeps one grid point affordable while
/// still exercising locks and cross-core persists).
const THREADS: usize = 2;

/// Crash points the full (non-smoke) grid must sweep at least.
const MIN_CRASH_POINTS: usize = 1_000;

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

/// Every (litmus shape index × design) pair, shape-major.
fn litmus_pairs(shapes: usize) -> Vec<(usize, DesignKind)> {
    (0..shapes)
        .flat_map(|t| DesignKind::ALL_EXTENDED.map(|d| (t, d)))
        .collect()
}

/// A set of surviving-image outcomes as a JSON array of arrays.
fn outcomes_json<'a>(set: impl IntoIterator<Item = &'a Vec<u64>>) -> Json {
    Json::Arr(
        set.into_iter()
            .map(|o| Json::Arr(o.iter().map(|&v| Json::Num(v as f64)).collect()))
            .collect(),
    )
}

/// A `## title` section listing `items` as bullets, or `none`.
fn bullet_section(md: &mut String, title: &str, items: &[String]) {
    let _ = writeln!(md, "## {title}\n");
    if items.is_empty() {
        let _ = writeln!(md, "none");
    }
    for item in items {
        let _ = writeln!(md, "* {item}");
    }
    let _ = writeln!(md);
}

/// Two phases:
///
/// 1. **Litmus**: every (litmus test × design) pair from
///    [`litmus_suite`] is swept over crash points; any persisted
///    outcome outside the design's allowed set is an expectation
///    mismatch.
/// 2. **Fuzz**: the full (benchmark × design × seed) grid — 8 workloads
///    × 5 designs × the seed set — samples crash cycles (dense around
///    fences/CLWBs/FASE markers/persist arrivals, sparse elsewhere),
///    replays each design's recovery (undo or redo per workload), and
///    checks the oracle invariants on the recovered image.
///
/// Every mismatch and violation is a failure with a one-line
/// reproducer (`benchmark=… design=… seed=… crash_cycle=…`), and so is
/// a full grid sweeping fewer than [`MIN_CRASH_POINTS`].
/// `PMEMSPEC_SMOKE=1` shrinks the fuzz grid (1 seed, fewer FASEs and
/// crash points) but always runs the full litmus suite.
pub fn crashfuzz(args: &BenchArgs) -> Output {
    let smoke = smoke_mode();
    let workers = worker_count(args);

    // --- Phase 1: the litmus suite (always in full). --------------------
    let suite = litmus_suite();
    let pairs = litmus_pairs(suite.len());
    let litmus_reports = parallel_map(pairs.len(), workers, |i| {
        let (t, design) = pairs[i];
        run_litmus(&suite[t], design)
    });

    let mut md = String::new();
    let w = &mut md;
    let _ = writeln!(w, "## Persistency litmus suite");
    let _ = writeln!(w);
    let _ = writeln!(
        w,
        "| test | design | crash points | distinct outcomes | mismatches |"
    );
    let _ = writeln!(w, "|---|---|---|---|---|");
    let mut litmus_points = 0usize;
    let mut mismatches = Vec::new();
    for r in &litmus_reports {
        litmus_points += r.points;
        let _ = writeln!(
            w,
            "| {} | {} | {} | {} | {} |",
            r.test,
            r.design.label(),
            r.points,
            r.outcomes.len(),
            r.mismatches.len()
        );
        mismatches.extend(r.mismatches.iter().cloned());
    }
    let _ = writeln!(w);

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

    let _ = writeln!(w, "## Crash-consistency fuzz grid");
    let _ = writeln!(w);
    let _ = writeln!(
        w,
        "{} workloads x {} designs x {} seed(s), {} threads, {} sampled crash \
         points per job (+1 completion point)",
        Benchmark::ALL.len(),
        DesignKind::ALL_EXTENDED.len(),
        seeds.len(),
        THREADS,
        crash_points
    );
    let _ = writeln!(w);
    let _ = writeln!(
        w,
        "| benchmark | design | points | boundaries | rolled back | torn | max durable | violations |"
    );
    let _ = writeln!(w, "|---|---|---|---|---|---|---|---|");
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
            let _ = writeln!(
                w,
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
    let _ = writeln!(w);
    let total_points = litmus_points + fuzz_points;
    let _ = writeln!(
        w,
        "{litmus_points} litmus crash points, {fuzz_points} fuzz crash points, {total_points} total",
    );
    let _ = writeln!(w);

    // --- Verdict. ---------------------------------------------------------
    let mut failures: Vec<String> = mismatches
        .iter()
        .map(|m| format!("LITMUS MISMATCH: {m}"))
        // A violation's display leads with its reproducer.
        .chain(violations.iter().map(|v| format!("ORACLE VIOLATION: {v}")))
        .collect();
    if !smoke && total_points < MIN_CRASH_POINTS {
        failures.push(format!(
            "the full grid swept only {total_points} crash points (< {MIN_CRASH_POINTS})"
        ));
    }
    if failures.is_empty() {
        let _ = writeln!(
            w,
            "crashfuzz: zero litmus mismatches, zero oracle violations"
        );
    }

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
                            ("outcomes".into(), outcomes_json(&r.outcomes)),
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
    Output {
        failures,
        ..Output::pair("crashfuzz", md, &doc)
    }
}

/// The exhaustive model checker: every (litmus test × design) pair is
/// enumerated over *all* persist-order interleavings of the untimed
/// abstract machine and diffed against the axiomatic Px86-style
/// allowed set ([`check_litmus_exhaustive`]). Forbidden outcomes,
/// deadlocks and finals-coverage failures are failures; coverage slack
/// is reported but not fatal. Independent of `PMEMSPEC_SMOKE`.
pub fn litmus_exhaustive(args: &BenchArgs) -> Output {
    let suite = litmus_suite();
    let pairs = litmus_pairs(suite.len());
    let reports = parallel_map(pairs.len(), worker_count(args), |i| {
        let (t, design) = pairs[i];
        check_litmus_exhaustive(&suite[t], design)
    });

    let mut md = String::new();
    let w = &mut md;
    let _ = writeln!(w, "# Exhaustive litmus model check");
    let _ = writeln!(w);
    let _ = writeln!(
        w,
        "Every (litmus shape x design) pair: all persist-order interleavings \
         of the untimed abstract machine, enumerated by explicit-state search \
         and diffed against the axiomatic Px86-style allowed set. `forbidden` \
         = produced but not allowed (simulator/model bug); `slack` = allowed \
         but never produced (coverage gap, reported, not fatal). See \
         DESIGN.md \"Axiomatic persistency oracle\" and EXPERIMENTS.md."
    );
    let _ = writeln!(w);
    let _ = writeln!(
        w,
        "| test | design | class | states | transitions | outcomes | allowed | forbidden | slack | verdict |"
    );
    let _ = writeln!(w, "|---|---|---|---|---|---|---|---|---|---|");
    let (mut total_states, mut total_outcomes) = (0usize, 0usize);
    let mut failing = 0usize;
    for r in &reports {
        let e = &r.enumerated;
        total_states += e.stats.states;
        total_outcomes += e.outcomes.len();
        if !r.is_ok() {
            failing += 1;
        }
        let _ = writeln!(
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
        );
    }
    let _ = writeln!(w);

    let forbidden: Vec<_> = reports.iter().flat_map(|r| r.forbidden.iter()).collect();
    let slack: Vec<String> = reports
        .iter()
        .flat_map(|r| {
            r.slack.iter().map(move |s| {
                format!(
                    "{} on {}: allowed outcome {s:?} never produced",
                    r.enumerated.test,
                    r.enumerated.design.label(),
                )
            })
        })
        .collect();
    let deadlocks: Vec<String> = reports
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
    let quoted: Vec<String> = forbidden.iter().map(|m| format!("`{m}`")).collect();
    bullet_section(w, "Forbidden outcomes", &quoted);
    bullet_section(w, "Coverage slack", &slack);
    bullet_section(w, "Deadlocks", &deadlocks);
    let _ = writeln!(
        w,
        "{} pairs, {total_states} reachable states, {total_outcomes} distinct \
         surviving-image outcomes, {failing} failing pair(s)",
        reports.len(),
    );

    let json = Json::obj([
        ("pairs".into(), Json::Num(reports.len() as f64)),
        ("total_states".into(), Json::Num(total_states as f64)),
        ("total_outcomes".into(), Json::Num(total_outcomes as f64)),
        ("failures".into(), Json::Num(failing as f64)),
        (
            "reports".into(),
            Json::Arr(
                reports
                    .iter()
                    .map(|r| {
                        let e = &r.enumerated;
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
                            ("outcomes".into(), outcomes_json(&e.outcomes)),
                            (
                                "terminal_outcomes".into(),
                                outcomes_json(&e.terminal_outcomes),
                            ),
                            ("allowed".into(), outcomes_json(&r.allowed)),
                            (
                                "forbidden".into(),
                                Json::Arr(
                                    r.forbidden
                                        .iter()
                                        .map(|m| Json::Str(m.to_string()))
                                        .collect(),
                                ),
                            ),
                            ("slack".into(), outcomes_json(&r.slack)),
                            ("deadlocks".into(), Json::Num(e.deadlocks.len() as f64)),
                            ("finals_ok".into(), Json::Bool(r.finals_ok)),
                            ("ok".into(), Json::Bool(r.is_ok())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);

    let failures = forbidden
        .iter()
        .map(|m| format!("MODEL MISMATCH: {m}"))
        .chain(deadlocks.iter().map(|d| format!("DEADLOCK: {d}")))
        .chain(reports.iter().filter(|r| !r.finals_ok).map(|r| {
            format!(
                "FINALS COVERAGE: {} on {}: an expected final outcome is unreachable \
                 or a completed execution ends outside the allowed set; reproduce \
                 with: experiments litmus_exhaustive",
                r.enumerated.test,
                r.enumerated.design.label()
            )
        }))
        .collect();
    Output {
        failures,
        ..Output::pair("litmus_exhaustive", md, &json)
    }
}

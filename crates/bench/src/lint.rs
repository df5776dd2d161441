//! The `lint` experiment: every workload × every design through the
//! persistency verifier ([`pmemspec_analyze`]), no simulation.
//!
//! The grid is fixed (8 threads, full-size FASE counts, one seed) and
//! independent of [`crate::smoke_mode`], so `results/lint.{md,json}`
//! are byte-stable across environments; CI regenerates them and diffs.
//! Rendering walks the grid in spec order, so pooled and serial runs
//! produce identical bytes (pinned by `tests/static_lints.rs`). Every
//! finding is a failure of the experiment.

use pmemspec_analyze::{analyze_program, LintReport, Rule};
use pmemspec_isa::{lower_program_with_meta, DesignKind};
use pmemspec_workloads::Benchmark;

use crate::experiments::Output;
use crate::{sweep, BenchArgs, Json};

/// Threads per workload program (the main suite's core count).
pub const LINT_THREADS: usize = 8;

/// Workload generation seed (the suite's first seed; the analyzer's
/// verdict is seed-independent, the artifact pins one for stability).
pub const LINT_SEED: u64 = 11;

/// FASEs per thread: the full-size suite counts, not the smoke grid.
pub fn lint_fases(benchmark: Benchmark) -> usize {
    match benchmark {
        Benchmark::Memcached => 120,
        _ => 400,
    }
}

/// One analyzed grid point.
pub struct LintPoint {
    /// Design the workload was lowered for.
    pub design: DesignKind,
    /// The workload.
    pub benchmark: Benchmark,
    /// FASEs per thread analyzed.
    pub fases: usize,
    /// The analyzer's verdict.
    pub report: LintReport,
}

/// Analyzes and renders the full grid; each finding is a failure.
pub fn lint(args: &BenchArgs) -> Output {
    let points = lint_grid(sweep::worker_count(args));
    let failures = points
        .iter()
        .flat_map(|p| {
            p.report.findings.iter().map(move |f| {
                format!(
                    "{} / {}: {f}; reproduce with: experiments lint",
                    p.design.label(),
                    p.benchmark.label()
                )
            })
        })
        .collect();
    Output {
        failures,
        ..Output::pair("lint", markdown(&points), &json_doc(&points))
    }
}

/// Analyzes the full grid on `workers` pool threads, in spec order
/// (design-major, matching the other sweeps).
pub fn lint_grid(workers: usize) -> Vec<LintPoint> {
    lint_grid_sized(workers, LINT_THREADS, lint_fases, LINT_SEED)
}

/// [`lint_grid`] with explicit pool dimensions — the byte-stability
/// test runs a reduced grid through the same spec order and renderers.
pub fn lint_grid_sized(
    workers: usize,
    threads: usize,
    fases: impl Fn(Benchmark) -> usize + Sync,
    seed: u64,
) -> Vec<LintPoint> {
    let spec: Vec<(DesignKind, Benchmark)> = DesignKind::ALL_EXTENDED
        .iter()
        .flat_map(|&d| Benchmark::ALL.iter().map(move |&b| (d, b)))
        .collect();
    sweep::parallel_map(spec.len(), workers, |i| {
        let (design, benchmark) = spec[i];
        let fases = fases(benchmark);
        let abs = benchmark.generate(&sweep::workload_params(threads, fases, seed));
        let (program, meta) = lower_program_with_meta(design, &abs.program);
        LintPoint {
            design,
            benchmark,
            fases,
            report: analyze_program(&program, &meta),
        }
    })
}

/// Total findings across the grid.
pub fn total_findings(points: &[LintPoint]) -> usize {
    points.iter().map(|p| p.report.findings.len()).sum()
}

/// The markdown artifact (`results/lint.md`).
pub fn markdown(points: &[LintPoint]) -> String {
    use std::fmt::Write as _;
    let mut md = String::new();
    let _ = writeln!(md, "# Static persistency lint");
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "Every workload's lowered program, for every design, through the \
         static persistency verifier (`pmemspec-analyze`): structural \
         well-formedness, per-class persist-ordering obligations, flush \
         coverage (IntelX86), FASE durability, and speculation tagging \
         (PMEM-Spec) — no simulation. {LINT_THREADS} threads, seed \
         {LINT_SEED}, full-size FASE counts. Regenerate with \
         `cargo run --release -p pmemspec-bench --bin experiments -- lint`."
    );
    let _ = writeln!(md);
    let _ = writeln!(md, "## Verdict");
    let _ = writeln!(md);
    let _ = write!(md, "| workload |");
    for design in DesignKind::ALL_EXTENDED {
        let _ = write!(md, " {} |", design.label());
    }
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "|---|{}",
        "---:|".repeat(DesignKind::ALL_EXTENDED.len())
    );
    for benchmark in Benchmark::ALL {
        let _ = write!(md, "| {} |", benchmark.label());
        for design in DesignKind::ALL_EXTENDED {
            let p = point(points, design, benchmark);
            let n = p.report.findings.len();
            if n == 0 {
                let _ = write!(md, " clean |");
            } else {
                let _ = write!(md, " **{n} findings** |");
            }
        }
        let _ = writeln!(md);
    }
    let _ = writeln!(md);
    let _ = writeln!(md, "## Coverage");
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "What \"clean\" quantifies over, per workload (identical across \
         designs: lowering changes the fences, not the persist events or \
         obligations)."
    );
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "| workload | FASEs/thread | PM stores | order points | FASEs checked |"
    );
    let _ = writeln!(md, "|---|---:|---:|---:|---:|");
    for benchmark in Benchmark::ALL {
        let p = point(points, DesignKind::ALL_EXTENDED[0], benchmark);
        let s = p.report.stats;
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} |",
            benchmark.label(),
            p.fases,
            s.pm_stores,
            s.order_points,
            s.fases
        );
    }
    let findings = total_findings(points);
    if findings != 0 {
        let _ = writeln!(md);
        let _ = writeln!(md, "## Findings");
        let _ = writeln!(md);
        for p in points {
            for f in &p.report.findings {
                let _ = writeln!(md, "* {} / {}: {f}", p.design.label(), p.benchmark.label());
            }
        }
    }
    md
}

fn point(points: &[LintPoint], design: DesignKind, benchmark: Benchmark) -> &LintPoint {
    points
        .iter()
        .find(|p| p.design == design && p.benchmark == benchmark)
        .expect("full grid")
}

/// The JSON artifact (`results/lint.json`).
pub fn json_doc(points: &[LintPoint]) -> Json {
    Json::obj([
        ("experiment".into(), Json::Str("lint".into())),
        ("threads".into(), Json::Num(LINT_THREADS as f64)),
        ("seed".into(), Json::Num(LINT_SEED as f64)),
        (
            "rules".into(),
            Json::Arr(
                Rule::ALL
                    .iter()
                    .map(|r| Json::Str(r.label().into()))
                    .collect(),
            ),
        ),
        (
            "total_findings".into(),
            Json::Num(total_findings(points) as f64),
        ),
        (
            "points".into(),
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("design".into(), Json::Str(p.design.label().into())),
                            ("benchmark".into(), Json::Str(p.benchmark.label().into())),
                            ("fases".into(), Json::Num(p.fases as f64)),
                            (
                                "stats".into(),
                                Json::obj([
                                    ("threads".into(), Json::Num(p.report.stats.threads as f64)),
                                    (
                                        "pm_stores".into(),
                                        Json::Num(p.report.stats.pm_stores as f64),
                                    ),
                                    (
                                        "order_points".into(),
                                        Json::Num(p.report.stats.order_points as f64),
                                    ),
                                    ("fases".into(), Json::Num(p.report.stats.fases as f64)),
                                ]),
                            ),
                            (
                                "findings".into(),
                                Json::Arr(
                                    p.report
                                        .findings
                                        .iter()
                                        .map(|f| {
                                            Json::obj([
                                                ("rule".into(), Json::Str(f.rule.label().into())),
                                                ("thread".into(), Json::Num(f.thread as f64)),
                                                (
                                                    "op".into(),
                                                    match f.op_index {
                                                        Some(i) => Json::Num(i as f64),
                                                        None => Json::Str("-".into()),
                                                    },
                                                ),
                                                ("message".into(), Json::Str(f.message.clone())),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

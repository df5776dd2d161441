//! Host-time benchmark of the simulator itself: wall time of one
//! `System::new(..).run()` per (design × workload) point on the main
//! (Figure 9) grid — 8 cores, 400 FASEs per thread (120 for memcached,
//! which moves a kilobyte per SET), seed 11. (The *paper's* figures are
//! regenerated by the `experiments` binary, which reports *simulated*
//! time; this harness tracks what a point costs the *host*, so
//! simulator-speed regressions are measured rather than asserted.) The main grid — not the reduced smoke grid —
//! is measured because host-side costs are dominated by working-set
//! effects (page-table and scheduler population sizes) that a 2-core,
//! 25-FASE run never reaches.
//!
//! Writes the `BENCH_simulator.json` artifact: per-point wall times,
//! per-design totals, and — when a baseline artifact is present —
//! point-by-point and total speedups against it. Wall times are
//! machine-specific; the committed artifact documents the reference
//! machine's numbers and CI's `bench-smoke` job gates on them with a
//! wide tolerance.
//!
//! Run with `cargo bench -p pmemspec-bench`. Flags (after `--`):
//!
//! * `--quick` — one timed iteration per point (sanity pass, noisy).
//! * `--out PATH` — artifact path (default `results/BENCH_simulator.json`).
//! * `--save-baseline` — write the measurement to the *baseline* path
//!   (`results/BENCH_simulator_baseline.json`) instead; later runs
//!   report speedups against it.
//! * `--check` — after measuring, compare the total wall time against
//!   the committed artifact at the `--out` path and exit nonzero when
//!   it regressed by more than 25% (the CI gate).
//!
//! Workload *generation* cost is excluded: programs are generated and
//! lowered once, outside the timed region. Each point is timed as the
//! minimum over several iterations (one warm-up discarded), which is
//! the standard way to suppress scheduler noise on a shared host.

use std::hint::black_box;
use std::time::Instant;

use pmem_spec::System;
use pmemspec_bench::{sweep, Json};
use pmemspec_engine::SimConfig;
use pmemspec_isa::{DesignKind, Program};
use pmemspec_workloads::Benchmark;

/// The main (Figure 9) grid: 8 cores, 400 FASEs per thread.
const CORES: usize = 8;
const FASES: usize = 400;
/// Memcached moves a kilobyte per SET; same scale-down as the
/// experiment binaries (`default_fases`).
const MEMCACHED_FASES: usize = 120;
const SEED: u64 = 11;

/// FASEs per thread for one benchmark on the bench grid.
fn fases_for(benchmark: Benchmark) -> usize {
    if benchmark == Benchmark::Memcached {
        MEMCACHED_FASES
    } else {
        FASES
    }
}
/// Timed iterations per point (after one discarded warm-up).
const ITERS: u32 = 7;
/// CI regression tolerance on the total wall time.
const TOLERANCE: f64 = 0.25;

const DEFAULT_OUT: &str = "results/BENCH_simulator.json";
const BASELINE: &str = "results/BENCH_simulator_baseline.json";

/// `cargo bench` runs with the *package* directory as CWD; artifact
/// paths are documented relative to the workspace root, so resolve
/// relative paths against it.
fn from_workspace_root(path: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(path);
    if p.is_absolute() {
        return p.into();
    }
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(p)
}

struct PointTime {
    design: DesignKind,
    benchmark: Benchmark,
    /// Minimum wall time over the timed iterations, in microseconds.
    wall_us: f64,
    /// Simulated cycles of the run (a determinism canary: must match
    /// the baseline's for speedups to be apples-to-apples).
    sim_cycles: u64,
}

/// Times one point: minimum of `iters` full `System::new + run` passes.
fn time_point(cfg: &SimConfig, program: &Program, iters: u32) -> (f64, u64) {
    let run = || {
        System::new(cfg.clone(), program.clone())
            .expect("valid point")
            .run()
    };
    let sim_cycles = black_box(run()).total_time.raw(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        black_box(run());
        let us = start.elapsed().as_secs_f64() * 1e6;
        if us < best {
            best = us;
        }
    }
    (best, sim_cycles)
}

fn measure(iters: u32) -> Vec<PointTime> {
    let cfg = SimConfig::asplos21(CORES);
    let mut points = Vec::new();
    for design in DesignKind::ALL_EXTENDED {
        for benchmark in Benchmark::ALL {
            let program =
                sweep::lowered_program(benchmark, design, CORES, fases_for(benchmark), SEED);
            let (wall_us, sim_cycles) = time_point(&cfg, &program, iters);
            points.push(PointTime {
                design,
                benchmark,
                wall_us,
                sim_cycles,
            });
        }
    }
    points
}

/// Per-design total wall time, in `ALL_EXTENDED` order.
fn design_totals(points: &[PointTime]) -> Vec<(DesignKind, f64)> {
    DesignKind::ALL_EXTENDED
        .iter()
        .map(|&d| {
            (
                d,
                points
                    .iter()
                    .filter(|p| p.design == d)
                    .map(|p| p.wall_us)
                    .sum(),
            )
        })
        .collect()
}

/// The baseline wall time for a point, if the baseline artifact has it.
fn baseline_point(baseline: Option<&Json>, p: &PointTime) -> Option<f64> {
    let points = baseline?.get("points")?;
    let Json::Arr(arr) = points else { return None };
    arr.iter().find_map(|e| {
        let design = e.get("design")?.as_str()?;
        let benchmark = e.get("benchmark")?.as_str()?;
        if design == p.design.label() && benchmark == p.benchmark.label() {
            e.get("wall_us")?.as_f64()
        } else {
            None
        }
    })
}

fn json_doc(points: &[PointTime], iters: u32, baseline: Option<&Json>) -> Json {
    let totals = design_totals(points);
    let total: f64 = totals.iter().map(|&(_, t)| t).sum();
    let baseline_total = baseline
        .and_then(|b| b.get("total_wall_us"))
        .and_then(Json::as_f64);
    let mut fields = vec![
        ("experiment".into(), Json::Str("BENCH_simulator".into())),
        (
            "grid".into(),
            Json::obj([
                ("cores".into(), Json::Num(CORES as f64)),
                ("fases".into(), Json::Num(FASES as f64)),
                ("memcached_fases".into(), Json::Num(MEMCACHED_FASES as f64)),
                ("seed".into(), Json::Num(SEED as f64)),
            ]),
        ),
        ("iters".into(), Json::Num(iters as f64)),
        (
            "points".into(),
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        let mut f = vec![
                            ("design".into(), Json::Str(p.design.label().into())),
                            ("benchmark".into(), Json::Str(p.benchmark.label().into())),
                            ("wall_us".into(), Json::Num(p.wall_us)),
                            ("sim_cycles".into(), Json::Num(p.sim_cycles as f64)),
                        ];
                        if let Some(base) = baseline_point(baseline, p) {
                            f.push(("baseline_wall_us".into(), Json::Num(base)));
                            f.push(("speedup".into(), Json::Num(base / p.wall_us)));
                        }
                        Json::obj(f)
                    })
                    .collect(),
            ),
        ),
        (
            "design_totals_us".into(),
            Json::obj(
                totals
                    .iter()
                    .map(|&(d, t)| (d.label().to_string(), Json::Num(t))),
            ),
        ),
        ("total_wall_us".into(), Json::Num(total)),
    ];
    if let Some(base_total) = baseline_total {
        fields.push(("baseline_total_wall_us".into(), Json::Num(base_total)));
        fields.push(("speedup".into(), Json::Num(base_total / total)));
    }
    Json::obj(fields)
}

fn print_table(points: &[PointTime], baseline: Option<&Json>) {
    println!(
        "## Simulator host time (main grid: {CORES} cores, {FASES} FASEs \
         ({MEMCACHED_FASES} for memcached), seed {SEED})"
    );
    println!();
    println!("| design | benchmark | wall/run | speedup vs baseline |");
    println!("|---|---|---:|---:|");
    for p in points {
        let speedup = baseline_point(baseline, p)
            .map_or_else(|| "—".into(), |b| format!("{:.2}x", b / p.wall_us));
        println!(
            "| {} | {} | {:.1}µs | {} |",
            p.design.label(),
            p.benchmark.label(),
            p.wall_us,
            speedup,
        );
    }
    let totals = design_totals(points);
    let total: f64 = totals.iter().map(|&(_, t)| t).sum();
    for (d, t) in &totals {
        println!("| {} | *total* | {:.1}µs | |", d.label(), t);
    }
    let speedup = baseline
        .and_then(|b| b.get("total_wall_us"))
        .and_then(Json::as_f64)
        .map_or_else(String::new, |b| format!("**{:.2}x**", b / total));
    println!("| **all** | | **{total:.1}µs** | {speedup} |");
    println!();
}

fn load_json(path: &str) -> Option<Json> {
    let text = std::fs::read_to_string(from_workspace_root(path)).ok()?;
    Json::parse(&text).ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |f: &str| args.iter().any(|a| a == f);
    let value_of = |f: &str| {
        args.iter()
            .position(|a| a == f)
            .and_then(|i| args.get(i + 1).cloned())
            .or_else(|| {
                let prefix = format!("{f}=");
                args.iter()
                    .find_map(|a| a.strip_prefix(&prefix).map(String::from))
            })
    };
    let quick = has("--quick");
    let save_baseline = has("--save-baseline");
    let check = has("--check");
    let out = value_of("--out").unwrap_or_else(|| {
        if save_baseline {
            BASELINE.into()
        } else {
            DEFAULT_OUT.into()
        }
    });
    let iters = if quick { 1 } else { ITERS };

    let points = measure(iters);
    let baseline = if save_baseline {
        None
    } else {
        load_json(BASELINE)
    };
    print_table(&points, baseline.as_ref());
    let doc = json_doc(&points, iters, baseline.as_ref());

    if check {
        // Gate against the committed artifact before overwriting it.
        let total: f64 = design_totals(&points).iter().map(|&(_, t)| t).sum();
        match load_json(&out).and_then(|r| r.get("total_wall_us").and_then(Json::as_f64)) {
            Some(reference) => {
                let ratio = total / reference;
                println!("check: total {total:.1}µs vs committed {reference:.1}µs ({ratio:.2}x)");
                if ratio > 1.0 + TOLERANCE {
                    eprintln!(
                        "bench-smoke FAILED: wall time regressed {:.0}% (> {:.0}% tolerance)",
                        (ratio - 1.0) * 100.0,
                        TOLERANCE * 100.0
                    );
                    std::process::exit(1);
                }
            }
            None => {
                eprintln!("check: no committed reference at {out}; skipping gate");
            }
        }
        return;
    }

    let out_path = from_workspace_root(&out);
    if let Some(dir) = out_path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    }
    std::fs::write(&out_path, doc.render_pretty())
        .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    eprintln!("wrote {out}");
}

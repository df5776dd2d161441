//! `explain`: where do the cycles go, for every design?
//!
//! Runs every benchmark under every design (including the StrandWeaver
//! extension) with cycle accounting enabled and writes a per-design
//! breakdown table: each cell is the percentage of total core-cycles the
//! design spent in a stall bucket on that benchmark. The tables make the
//! paper's argument legible — IntelX86's cycles drain into flush/fence
//! stalls, DPO/HOPS trade them for persist-buffer pressure, and
//! PMEM-Spec converts nearly all of it into issue/compute.
//!
//! Output:
//!
//! * `<out>/breakdown.md` — the per-design tables (also printed).
//! * `<out>/breakdown.json` — the raw per-point cycle counts.
//! * `--trace-dir DIR` — additionally writes one Perfetto trace per
//!   design (Hashmap workload) with the queue-occupancy counter tracks
//!   merged in; open in <https://ui.perfetto.dev>.
//! * `--collapsed` — additionally writes `<out>/breakdown.folded`:
//!   one `design;benchmark;bucket count` collapsed-stack line per
//!   non-zero cell, the input format of every flamegraph renderer
//!   (`flamegraph.pl`, `inferno`, speedscope).
//!
//! Points run on the shared worker pool and reduce in spec order, so
//! the output is byte-identical to `--serial`; CI diffs the two.
//!
//! Flags: the shared set ([`BenchArgs`], including `--out DIR`) plus
//! `--trace-dir DIR` and `--collapsed`.

use std::path::PathBuf;

use pmem_spec::{Bucket, ProfileReport, Profiler, System, TraceRecorder};
use pmemspec_bench::{default_fases, seeds, suite_cores, sweep, BenchArgs, Json};
use pmemspec_engine::SimConfig;
use pmemspec_isa::DesignKind;
use pmemspec_workloads::Benchmark;

/// `--trace-dir DIR` / `--trace-dir=DIR` and `--collapsed`, scanned
/// from the raw argument list ([`BenchArgs`] ignores flags it does not
/// know).
fn extra_flags() -> (Option<PathBuf>, bool) {
    let mut trace_dir = None;
    let mut collapsed = false;
    let mut iter = std::env::args().skip(1).peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--trace-dir" => {
                trace_dir = Some(PathBuf::from(
                    iter.next_if(|v| !v.starts_with('-')).unwrap_or_default(),
                ));
            }
            "--collapsed" => collapsed = true,
            _ => {
                if let Some(v) = arg.strip_prefix("--trace-dir=") {
                    trace_dir = Some(PathBuf::from(v));
                }
            }
        }
    }
    (trace_dir, collapsed)
}

/// One profiled grid point, in spec order.
struct Point {
    design: DesignKind,
    benchmark: Benchmark,
    fases: usize,
    profile: ProfileReport,
}

fn markdown(cores: usize, seed: u64, points: &[Point]) -> String {
    use std::fmt::Write as _;
    let mut md = String::new();
    let _ = writeln!(md, "# Cycle-accounting breakdown");
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "Every simulated core-cycle of every run, attributed to exactly one \
         cause bucket (rows; percentages of the design's total core-cycles \
         on that benchmark). {cores} cores, seed {seed}. Regenerate with \
         `cargo run --release --bin explain`."
    );
    for design in DesignKind::ALL_EXTENDED {
        let row: Vec<&Point> = points.iter().filter(|p| p.design == design).collect();
        let _ = writeln!(md);
        let _ = writeln!(md, "## {}", design.label());
        let _ = writeln!(md);
        let _ = write!(md, "| bucket |");
        for p in &row {
            let _ = write!(md, " {} |", p.benchmark.label());
        }
        let _ = writeln!(md);
        let _ = writeln!(md, "|---|{}", "---:|".repeat(row.len()));
        for bucket in Bucket::ALL {
            if row.iter().all(|p| p.profile.bucket_total(bucket) == 0) {
                continue;
            }
            let _ = write!(md, "| {} |", bucket.label());
            for p in &row {
                let _ = write!(md, " {:.1}% |", 100.0 * p.profile.bucket_fraction(bucket));
            }
            let _ = writeln!(md);
        }
        let _ = write!(md, "| **total cycles** |");
        for p in &row {
            let _ = write!(md, " {} |", p.profile.grand_total());
        }
        let _ = writeln!(md);
    }
    md
}

fn json_doc(cores: usize, seed: u64, points: &[Point]) -> Json {
    Json::obj([
        ("experiment".into(), Json::Str("breakdown".into())),
        ("cores".into(), Json::Num(cores as f64)),
        ("seed".into(), Json::Num(seed as f64)),
        (
            "buckets".into(),
            Json::Arr(
                Bucket::ALL
                    .iter()
                    .map(|b| Json::Str(b.label().into()))
                    .collect(),
            ),
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
                                "total_time_cycles".into(),
                                Json::Num(p.profile.total_time.raw() as f64),
                            ),
                            (
                                "llc_dirty_pm_lines".into(),
                                Json::Num(p.profile.llc_dirty_pm_lines as f64),
                            ),
                            (
                                "buckets".into(),
                                Json::obj(Bucket::ALL.iter().map(|&b| {
                                    (
                                        b.label().to_string(),
                                        Json::Num(p.profile.bucket_total(b) as f64),
                                    )
                                })),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Collapsed-stack ("folded") rendering of the breakdown: one
/// `design;benchmark;bucket count` line per non-zero cell, in spec
/// order. Flamegraph renderers take this directly, so the same cycle
/// attribution the tables show as percentages becomes an interactive
/// flame graph with designs as the roots and buckets as the leaves.
fn folded(points: &[Point]) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    for p in points {
        for bucket in Bucket::ALL {
            let count = p.profile.bucket_total(bucket);
            if count != 0 {
                let _ = writeln!(
                    text,
                    "{};{};{} {count}",
                    p.design.label(),
                    p.benchmark.label(),
                    bucket.label(),
                );
            }
        }
    }
    text
}

fn write_traces(dir: &PathBuf, cores: usize, seed: u64) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    let benchmark = Benchmark::Hashmap;
    let fases = default_fases(benchmark);
    let cfg = SimConfig::asplos21(cores);
    for design in DesignKind::ALL_EXTENDED {
        let program = sweep::lowered_program(benchmark, design, cores, fases, seed);
        let system = System::new(cfg.clone(), program).expect("valid experiment");
        let mut probe = (Profiler::new(&system), TraceRecorder::new(cores));
        system.run_with(&mut probe);
        let (profiler, mut tracer) = probe;
        let profile = profiler.report();
        profile.add_counter_tracks(&mut tracer);
        let path = dir.join(format!(
            "trace_{}.json",
            design.label().to_ascii_lowercase().replace('-', "_")
        ));
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        tracer
            .write_chrome_trace(std::io::BufWriter::new(file))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
}

fn main() {
    let args = BenchArgs::parse();
    let (trace_dir, collapsed) = extra_flags();
    let out = &args.out;
    let cores = suite_cores();
    let seed = seeds()[0];
    let cfg = SimConfig::asplos21(cores);

    let spec: Vec<(DesignKind, Benchmark)> = DesignKind::ALL_EXTENDED
        .iter()
        .flat_map(|&d| Benchmark::ALL.iter().map(move |&b| (d, b)))
        .collect();
    let workers = sweep::worker_count(&args);
    let points: Vec<Point> = sweep::parallel_map(spec.len(), workers, |i| {
        let (design, benchmark) = spec[i];
        let fases = default_fases(benchmark);
        let (_, profiler) =
            sweep::run_point_with(benchmark, design, &cfg, fases, seed, |sys, _| {
                Profiler::new(sys)
            });
        let profile = profiler.report();
        Point {
            design,
            benchmark,
            fases,
            profile,
        }
    });

    let md = markdown(cores, seed, &points);
    print!("{md}");
    std::fs::create_dir_all(out).unwrap_or_else(|e| panic!("cannot create {}: {e}", out.display()));
    let md_path = out.join("breakdown.md");
    std::fs::write(&md_path, &md)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", md_path.display()));
    let json_path = out.join("breakdown.json");
    std::fs::write(&json_path, json_doc(cores, seed, &points).render_pretty())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", json_path.display()));
    eprintln!("wrote {}", md_path.display());
    eprintln!("wrote {}", json_path.display());
    if collapsed {
        let folded_path = out.join("breakdown.folded");
        std::fs::write(&folded_path, folded(&points))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", folded_path.display()));
        eprintln!("wrote {}", folded_path.display());
    }

    if let Some(dir) = trace_dir {
        write_traces(&dir, cores, seed);
    }
}

//! `waterfall`: why is each FASE slow, per design?
//!
//! Runs every benchmark under every design (including the StrandWeaver
//! extension) with per-FASE span tracing enabled and writes, per
//! design × benchmark: the span-latency quantile row
//! (p50/p95/p99/p99.9/max, first `FaseBegin` to commit, retries
//! included), the p99 tail's binding constraint (the bucket dominating
//! the most tail spans) with its bucket-share shift between the median
//! body and the tail, and the top-k slowest FASEs with their bucket
//! waterfalls. Every span is conservation-checked: its bucket sum
//! equals its wall-cycles, so the waterfalls reconcile with the
//! `explain` aggregate breakdown.
//!
//! Output:
//!
//! * `<out>/waterfall.md` — the per-design tables (also printed).
//! * `<out>/waterfall.json` — raw quantiles, per-bucket cycle totals
//!   for the median/tail span sets, and the top-k span waterfalls.
//! * `--trace-dir DIR` — additionally writes one Perfetto trace per
//!   design (Hashmap workload) with the FASE spans merged in as named
//!   slices on per-core lanes (phase sub-slices nested inside); open
//!   in <https://ui.perfetto.dev>.
//!
//! Points run on the shared worker pool and reduce in spec order, so
//! the output is byte-identical to `--serial`; CI diffs the two.
//!
//! Flags: the shared set ([`BenchArgs`]) plus `--out DIR` (default
//! `results`).

use std::path::PathBuf;

use pmem_spec::{Bucket, FaseSpan, SpanReport, SpanTracer, System, TraceRecorder};
use pmemspec_bench::{default_fases, seeds, suite_cores, sweep, BenchArgs, Json};
use pmemspec_engine::stats::Histogram;
use pmemspec_engine::SimConfig;
use pmemspec_isa::DesignKind;
use pmemspec_workloads::Benchmark;

/// The tail under analysis: spans at or above this latency quantile.
const TAIL_Q: f64 = 0.99;
/// Slowest FASEs listed per design × benchmark.
const TOP_K: usize = 3;
/// Buckets shown per listed FASE waterfall.
const TOP_BUCKETS: usize = 4;

/// `--out DIR` / `--out=DIR` and `--trace-dir DIR` / `--trace-dir=DIR`,
/// scanned from the raw argument list ([`BenchArgs`] ignores flags it
/// does not know).
fn extra_flags() -> (PathBuf, Option<PathBuf>) {
    let mut out = PathBuf::from("results");
    let mut trace_dir = None;
    let mut iter = std::env::args().skip(1).peekable();
    while let Some(arg) = iter.next() {
        let mut take = |target: &mut PathBuf| {
            if let Some(v) = iter.peek() {
                if !v.starts_with('-') {
                    *target = PathBuf::from(iter.next().expect("peeked"));
                }
            }
        };
        match arg.as_str() {
            "--out" => take(&mut out),
            "--trace-dir" => {
                let mut dir = PathBuf::new();
                take(&mut dir);
                trace_dir = Some(dir);
            }
            _ => {
                if let Some(v) = arg.strip_prefix("--out=") {
                    out = PathBuf::from(v);
                } else if let Some(v) = arg.strip_prefix("--trace-dir=") {
                    trace_dir = Some(PathBuf::from(v));
                }
            }
        }
    }
    (out, trace_dir)
}

/// One span-traced grid point, in spec order.
struct Point {
    design: DesignKind,
    benchmark: Benchmark,
    fases: usize,
    spans: SpanReport,
}

/// A span's waterfall as `label share%` pairs, heaviest first (ties in
/// [`Bucket::ALL`] order), capped at [`TOP_BUCKETS`].
fn span_waterfall(s: &FaseSpan) -> String {
    let total = s.bucket_sum().max(1);
    let mut cells: Vec<(usize, Bucket, u64)> = Bucket::ALL
        .iter()
        .enumerate()
        .map(|(i, &b)| (i, b, s.get(b)))
        .filter(|&(_, _, c)| c > 0)
        .collect();
    cells.sort_by_key(|&(i, _, c)| (std::cmp::Reverse(c), i));
    cells
        .iter()
        .take(TOP_BUCKETS)
        .map(|&(_, b, c)| format!("{} {:.1}%", b.label(), 100.0 * c as f64 / total as f64))
        .collect::<Vec<_>>()
        .join(", ")
}

fn markdown(cores: usize, seed: u64, points: &[Point]) -> String {
    use std::fmt::Write as _;
    let mut md = String::new();
    let _ = writeln!(md, "# Per-FASE latency waterfalls");
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "Every committed FASE as a span from its first `FaseBegin` to its \
         committing `FaseEnd` (misspeculation retries included), its cycles \
         attributed to the profiler's cause buckets — each span a \
         conservation-checked waterfall. Latencies are simulated cycles. \
         The tail tables answer \"why is the p99 FASE slow\": the bucket \
         dominating the most p99+ spans, and how that bucket's share shifts \
         between the median body and the tail. {cores} cores, seed {seed}. \
         Regenerate with `cargo run --release --bin waterfall`."
    );
    for design in DesignKind::ALL_EXTENDED {
        let row: Vec<&Point> = points.iter().filter(|p| p.design == design).collect();
        let _ = writeln!(md);
        let _ = writeln!(md, "## {}", design.label());
        let _ = writeln!(md);
        let _ = writeln!(md, "| benchmark | span latency (cycles) |");
        let _ = writeln!(md, "|---|---|");
        for p in &row {
            let _ = writeln!(
                md,
                "| {} | {} |",
                p.benchmark.label(),
                p.spans.latency_histogram().compact_row()
            );
        }
        let _ = writeln!(md);
        let _ = writeln!(
            md,
            "| benchmark | p99+ spans | binding constraint | median share | tail share | shift |"
        );
        let _ = writeln!(md, "|---|---:|---|---:|---:|---:|");
        for p in &row {
            let tail = p.spans.tail_spans(TAIL_Q);
            let Some(constraint) = SpanReport::dominant_constraint(&tail) else {
                let _ = writeln!(md, "| {} | 0 | — | — | — | — |", p.benchmark.label());
                continue;
            };
            let median = p.spans.median_spans();
            let m = 100.0 * SpanReport::bucket_shares(&median)[constraint.index()];
            let t = 100.0 * SpanReport::bucket_shares(&tail)[constraint.index()];
            let _ = writeln!(
                md,
                "| {} | {} | {} | {m:.1}% | {t:.1}% | {:+.1} pp |",
                p.benchmark.label(),
                tail.len(),
                constraint.label(),
                t - m,
            );
        }
        let _ = writeln!(md);
        let _ = writeln!(md, "Slowest FASEs:");
        let _ = writeln!(md);
        for p in &row {
            for s in p.spans.tail_spans(TAIL_Q).iter().take(TOP_K) {
                let _ = writeln!(
                    md,
                    "- {}: `core{}/{}` {} cycles, {} attempt{} — {}",
                    p.benchmark.label(),
                    s.core,
                    s.fase,
                    s.duration().raw(),
                    s.attempts,
                    if s.attempts == 1 { "" } else { "s" },
                    span_waterfall(s),
                );
            }
        }
    }
    md
}

/// The quantile row as a JSON object of raw cycle counts.
fn latency_json(h: &Histogram) -> Json {
    let raw = |q: Option<pmemspec_engine::clock::Duration>| {
        Json::Num(q.map_or(0, pmemspec_engine::Duration::raw) as f64)
    };
    Json::obj([
        ("spans".into(), Json::Num(h.count() as f64)),
        ("p50".into(), raw(h.p50())),
        ("p95".into(), raw(h.p95())),
        ("p99".into(), raw(h.p99())),
        ("p999".into(), raw(h.p999())),
        ("max".into(), raw(h.max())),
        ("mean".into(), Json::Num(h.mean().raw() as f64)),
    ])
}

/// Per-bucket cycle totals as a JSON object in [`Bucket::ALL`] order.
fn buckets_json(cycles: &[u64; Bucket::COUNT]) -> Json {
    Json::obj(
        Bucket::ALL
            .iter()
            .map(|&b| (b.label().to_string(), Json::Num(cycles[b.index()] as f64))),
    )
}

fn span_json(s: &FaseSpan) -> Json {
    Json::obj([
        ("core".into(), Json::Num(s.core as f64)),
        ("fase".into(), Json::Num(s.fase.0 as f64)),
        ("cycles".into(), Json::Num(s.duration().raw() as f64)),
        ("attempts".into(), Json::Num(s.attempts as f64)),
        (
            "buckets".into(),
            Json::obj(
                Bucket::ALL
                    .iter()
                    .filter(|&&b| s.get(b) > 0)
                    .map(|&b| (b.label().to_string(), Json::Num(s.get(b) as f64))),
            ),
        ),
    ])
}

fn json_doc(cores: usize, seed: u64, points: &[Point]) -> Json {
    Json::obj([
        ("experiment".into(), Json::Str("waterfall".into())),
        ("cores".into(), Json::Num(cores as f64)),
        ("seed".into(), Json::Num(seed as f64)),
        ("tail_quantile".into(), Json::Num(TAIL_Q)),
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
                        let tail = p.spans.tail_spans(TAIL_Q);
                        let median = p.spans.median_spans();
                        Json::obj([
                            ("design".into(), Json::Str(p.design.label().into())),
                            ("benchmark".into(), Json::Str(p.benchmark.label().into())),
                            ("fases".into(), Json::Num(p.fases as f64)),
                            ("latency".into(), latency_json(&p.spans.latency_histogram())),
                            (
                                "tail".into(),
                                Json::obj([
                                    (
                                        "threshold".into(),
                                        Json::Num(
                                            p.spans
                                                .latency_threshold(TAIL_Q)
                                                .map_or(0, pmemspec_engine::Duration::raw)
                                                as f64,
                                        ),
                                    ),
                                    ("count".into(), Json::Num(tail.len() as f64)),
                                    (
                                        "binding_constraint".into(),
                                        SpanReport::dominant_constraint(&tail)
                                            .map_or(Json::Null, |b| Json::Str(b.label().into())),
                                    ),
                                    (
                                        "median_bucket_cycles".into(),
                                        buckets_json(&SpanReport::bucket_cycles(&median)),
                                    ),
                                    (
                                        "tail_bucket_cycles".into(),
                                        buckets_json(&SpanReport::bucket_cycles(&tail)),
                                    ),
                                    (
                                        "top".into(),
                                        Json::Arr(
                                            tail.iter().take(TOP_K).map(|s| span_json(s)).collect(),
                                        ),
                                    ),
                                ]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn write_traces(dir: &PathBuf, cores: usize, seed: u64) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    let benchmark = Benchmark::Hashmap;
    let fases = default_fases(benchmark);
    let cfg = SimConfig::asplos21(cores);
    for design in DesignKind::ALL_EXTENDED {
        let (program, meta) =
            sweep::lowered_program_with_meta(benchmark, design, cores, fases, seed);
        let system = System::new(cfg.clone(), program).expect("valid experiment");
        let mut probe = (SpanTracer::new(&system, &meta), TraceRecorder::new(cores));
        system.run_with(&mut probe);
        let (span_tracer, mut tracer) = probe;
        let (profile, spans) = span_tracer.report();
        profile.add_counter_tracks(&mut tracer);
        spans.add_fase_tracks(&mut tracer);
        let path = dir.join(format!(
            "trace_fases_{}.json",
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
    let (out, trace_dir) = extra_flags();
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
        let (_, span_tracer) =
            sweep::run_point_with(benchmark, design, &cfg, fases, seed, SpanTracer::new);
        let (_, spans) = span_tracer.report();
        Point {
            design,
            benchmark,
            fases,
            spans,
        }
    });

    let md = markdown(cores, seed, &points);
    print!("{md}");
    std::fs::create_dir_all(&out)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", out.display()));
    let md_path = out.join("waterfall.md");
    std::fs::write(&md_path, &md)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", md_path.display()));
    let json_path = out.join("waterfall.json");
    std::fs::write(&json_path, json_doc(cores, seed, &points).render_pretty())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", json_path.display()));
    eprintln!("wrote {}", md_path.display());
    eprintln!("wrote {}", json_path.display());

    if let Some(dir) = trace_dir {
        write_traces(&dir, cores, seed);
    }
}

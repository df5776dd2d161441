//! The `breakdown` experiment: where do the cycles go, per design and
//! per FASE?
//!
//! Runs every benchmark under every design (including the StrandWeaver
//! extension) once, under the [`SpanTracer`] — which drives a
//! [`pmem_spec::Profiler`] and snapshots it at FASE boundaries — and
//! renders both views of that one pass:
//!
//! * `breakdown.md` / `breakdown.json` — the aggregate view: each cell
//!   is the percentage of total core-cycles the design spent in a stall
//!   bucket on that benchmark. IntelX86's cycles drain into flush/fence
//!   stalls, DPO/HOPS trade them for persist-buffer pressure, and
//!   PMEM-Spec converts nearly all of it into issue/compute.
//! * `breakdown.folded` — the same cells as `design;benchmark;bucket
//!   count` collapsed-stack lines, the input format of every flamegraph
//!   renderer (`flamegraph.pl`, `inferno`, speedscope).
//! * `waterfall.md` / `waterfall.json` — the per-FASE view: the
//!   span-latency quantile row (p50/p95/p99/p99.9/max, first
//!   `FaseBegin` to commit, retries included), the p99 tail's binding
//!   constraint (the bucket dominating the most tail spans) with its
//!   bucket-share shift between the median body and the tail, and the
//!   top-k slowest FASEs with their bucket waterfalls. Every span's
//!   bucket sum equals its wall-cycles, so the waterfalls reconcile
//!   with the aggregate breakdown.
//!
//! Points run on the shared worker pool and reduce in spec order, so
//! the output is byte-identical to `--serial`. Per-design Perfetto
//! traces of the same probes come from `sim --trace`.

use std::fmt::Write as _;

use pmem_spec::{Bucket, FaseSpan, ProfileReport, SpanReport, SpanTracer};
use pmemspec_engine::clock::Duration;
use pmemspec_engine::stats::Histogram;
use pmemspec_engine::SimConfig;
use pmemspec_isa::DesignKind;
use pmemspec_workloads::Benchmark;

use crate::experiments::Output;
use crate::{default_fases, seeds, suite_cores, sweep, BenchArgs, Json};

/// The tail under analysis: spans at or above this latency quantile.
const TAIL_Q: f64 = 0.99;
/// Slowest FASEs listed per design × benchmark.
const TOP_K: usize = 3;
/// Buckets shown per listed FASE waterfall.
const TOP_BUCKETS: usize = 4;

/// One span-traced grid point, in spec order.
struct Point {
    design: DesignKind,
    benchmark: Benchmark,
    fases: usize,
    profile: ProfileReport,
    spans: SpanReport,
}

/// Runs the grid and renders the breakdown and waterfall artifacts.
pub fn breakdown(args: &BenchArgs) -> Output {
    let cores = suite_cores();
    let seed = seeds()[0];
    let cfg = SimConfig::asplos21(cores);
    let spec: Vec<(DesignKind, Benchmark)> = DesignKind::ALL_EXTENDED
        .iter()
        .flat_map(|&d| Benchmark::ALL.iter().map(move |&b| (d, b)))
        .collect();
    let points: Vec<Point> = sweep::parallel_map(spec.len(), sweep::worker_count(args), |i| {
        let (design, benchmark) = spec[i];
        let fases = default_fases(benchmark);
        let (_, tracer) =
            sweep::run_point_with(benchmark, design, &cfg, fases, seed, SpanTracer::new);
        let (profile, spans) = tracer.report();
        Point {
            design,
            benchmark,
            fases,
            profile,
            spans,
        }
    });
    let mut output = Output::pair(
        "breakdown",
        breakdown_markdown(cores, seed, &points),
        &document(
            "breakdown",
            cores,
            seed,
            &[],
            points.iter().map(breakdown_json).collect(),
        ),
    );
    output
        .files
        .push(("breakdown.folded".into(), folded(&points)));
    output.with_pair(
        "waterfall",
        waterfall_markdown(cores, seed, &points),
        &document(
            "waterfall",
            cores,
            seed,
            &[("tail_quantile", Json::Num(TAIL_Q))],
            points.iter().map(waterfall_json).collect(),
        ),
    )
}

/// The points of `design`, in benchmark order.
fn row(points: &[Point], design: DesignKind) -> Vec<&Point> {
    points.iter().filter(|p| p.design == design).collect()
}

fn breakdown_markdown(cores: usize, seed: u64, points: &[Point]) -> String {
    let mut md = String::new();
    let _ = writeln!(md, "# Cycle-accounting breakdown");
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "Every simulated core-cycle of every run, attributed to exactly one \
         cause bucket (rows; percentages of the design's total core-cycles \
         on that benchmark). {cores} cores, seed {seed}. Regenerate with \
         `cargo run --release -p pmemspec-bench --bin experiments -- breakdown`."
    );
    for design in DesignKind::ALL_EXTENDED {
        let row = row(points, design);
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

/// The document both JSON artifacts share: experiment, cores, seed,
/// the `extra` keys, the bucket labels, then one object per point.
fn document(
    experiment: &str,
    cores: usize,
    seed: u64,
    extra: &[(&str, Json)],
    points: Vec<Json>,
) -> Json {
    let mut doc = vec![
        ("experiment".to_string(), Json::Str(experiment.into())),
        ("cores".into(), Json::Num(cores as f64)),
        ("seed".into(), Json::Num(seed as f64)),
    ];
    doc.extend(extra.iter().map(|(k, v)| (k.to_string(), v.clone())));
    doc.push((
        "buckets".into(),
        Json::Arr(
            Bucket::ALL
                .iter()
                .map(|b| Json::Str(b.label().into()))
                .collect(),
        ),
    ));
    doc.push(("points".into(), Json::Arr(points)));
    Json::Obj(doc)
}

/// A point's leading `design`, `benchmark` and `fases` keys.
fn point_keys(p: &Point) -> Vec<(String, Json)> {
    vec![
        ("design".into(), Json::Str(p.design.label().into())),
        ("benchmark".into(), Json::Str(p.benchmark.label().into())),
        ("fases".into(), Json::Num(p.fases as f64)),
    ]
}

fn breakdown_json(p: &Point) -> Json {
    let mut obj = point_keys(p);
    obj.extend([
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
    ]);
    Json::Obj(obj)
}

/// Collapsed-stack ("folded") rendering of the breakdown: one
/// `design;benchmark;bucket count` line per non-zero cell, in spec
/// order, so the cycle attribution the tables show as percentages
/// becomes a flame graph with designs as the roots and buckets as the
/// leaves.
fn folded(points: &[Point]) -> String {
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

fn waterfall_markdown(cores: usize, seed: u64, points: &[Point]) -> String {
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
         Regenerate with \
         `cargo run --release -p pmemspec-bench --bin experiments -- breakdown`."
    );
    for design in DesignKind::ALL_EXTENDED {
        let row = row(points, design);
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

/// A cycle count that may be absent (empty histogram) as a JSON number.
fn raw(q: Option<Duration>) -> Json {
    Json::Num(q.map_or(0, Duration::raw) as f64)
}

/// The quantile row as a JSON object of raw cycle counts.
fn latency_json(h: &Histogram) -> Json {
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

fn waterfall_json(p: &Point) -> Json {
    let tail = p.spans.tail_spans(TAIL_Q);
    let median = p.spans.median_spans();
    let mut obj = point_keys(p);
    obj.extend([
        ("latency".into(), latency_json(&p.spans.latency_histogram())),
        (
            "tail".into(),
            Json::obj([
                ("threshold".into(), raw(p.spans.latency_threshold(TAIL_Q))),
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
                    Json::Arr(tail.iter().take(TOP_K).map(|s| span_json(s)).collect()),
                ),
            ]),
        ),
    ]);
    Json::Obj(obj)
}

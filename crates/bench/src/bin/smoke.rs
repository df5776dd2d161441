//! CI smoke gate: runs the sweep harness on a reduced grid (2 cores,
//! 1 seed, 25 FASEs per thread — the `PMEMSPEC_SMOKE=1` grid) and
//! fails on either of two regressions against the checked-in
//! reference, `results/smoke_reference.json`:
//!
//! * a design's normalized **geomean** deviates more than 20%
//!   (relative) — the headline speedup story broke;
//! * a design's aggregate **cycle-bucket profile** (fraction of total
//!   core-cycles per stall bucket, summed over the whole benchmark
//!   suite) moves more than 3 percentage points (absolute) in any
//!   bucket — *where* the cycles go changed, which the geomean alone
//!   can miss (e.g. fence stalls traded one-for-one into persist-buffer
//!   pressure leaves the total flat).
//!
//! The simulator is deterministic, so on an unchanged tree both
//! deviations are exactly zero; the tolerances exist so a PR that
//! legitimately shifts performance a little does not have to touch the
//! reference, while one that breaks a design's cycle story fails
//! loudly.
//!
//! `smoke --update` regenerates the reference file (do this, and say
//! why, when a simulator change intentionally moves the numbers).

use std::process::ExitCode;

use pmem_spec::{Bucket, Profiler};
use pmemspec_bench::sweep::{parallel_map, run_point_with, worker_count};
use pmemspec_bench::{geomeans, suite_markdown, suite_rows, suite_spec, BenchArgs, Json, SEEDS};
use pmemspec_engine::SimConfig;
use pmemspec_isa::DesignKind;
use pmemspec_workloads::Benchmark;

const REFERENCE: &str = "results/smoke_reference.json";
const TOLERANCE: f64 = 0.20;
/// Absolute tolerance on a bucket's fraction of total cycles (3 points).
const BUCKET_TOLERANCE: f64 = 0.03;
const CORES: usize = 2;
const FASES: usize = 25;

/// Per-design aggregate bucket fractions over the full benchmark suite:
/// `sum over benchmarks of bucket cycles / sum of grand totals`, in
/// [`Bucket::ALL`] order. Profiling observes only, so this cannot
/// perturb the geomean grid it runs beside.
fn bucket_fractions(args: &BenchArgs, seed: u64) -> Vec<(DesignKind, [f64; Bucket::COUNT])> {
    let cfg = SimConfig::asplos21(CORES);
    let points: Vec<(DesignKind, Benchmark)> = DesignKind::ALL_EXTENDED
        .iter()
        .flat_map(|&d| Benchmark::ALL.iter().map(move |&b| (d, b)))
        .collect();
    let profiles = parallel_map(points.len(), worker_count(args), |i| {
        let (design, benchmark) = points[i];
        let (_, profiler) = run_point_with(benchmark, design, &cfg, FASES, seed, |sys, _| {
            Profiler::new(sys)
        });
        let profile = profiler.report();
        let totals: Vec<u64> = Bucket::ALL
            .iter()
            .map(|&b| profile.bucket_total(b))
            .collect();
        (profile.grand_total(), totals)
    });
    DesignKind::ALL_EXTENDED
        .iter()
        .map(|&design| {
            let mut grand = 0u64;
            let mut sums = [0u64; Bucket::COUNT];
            for (i, (d, _)) in points.iter().enumerate() {
                if *d == design {
                    let (g, totals) = &profiles[i];
                    grand += g;
                    for (s, t) in sums.iter_mut().zip(totals) {
                        *s += t;
                    }
                }
            }
            let mut fractions = [0.0f64; Bucket::COUNT];
            for (f, &s) in fractions.iter_mut().zip(&sums) {
                *f = s as f64 / grand as f64;
            }
            (design, fractions)
        })
        .collect()
}

fn main() -> ExitCode {
    // `--update` is this binary's own flag; the rest is the shared set.
    let (update, rest): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a == "--update");
    let update = !update.is_empty();
    let args = BenchArgs::parse_from(rest);
    let seeds = &SEEDS[..1];

    let cfg = SimConfig::asplos21(CORES);
    let spec = suite_spec(&cfg, &DesignKind::ALL, seeds, |_| FASES);
    let results = spec.run(&args);
    let rows = suite_rows(&results, &DesignKind::ALL, seeds);
    print!(
        "{}",
        suite_markdown(
            &format!(
                "Smoke grid: {CORES} cores, {} seed, {FASES} FASEs",
                seeds.len()
            ),
            &DesignKind::ALL,
            &rows,
        )
    );
    let g = geomeans(&rows);
    let buckets = bucket_fractions(&args, seeds[0]);

    let doc = Json::obj([
        ("cores".into(), Json::Num(CORES as f64)),
        ("seeds".into(), Json::Num(seeds.len() as f64)),
        ("fases".into(), Json::Num(FASES as f64)),
        (
            "geomeans".into(),
            Json::obj(
                DesignKind::ALL
                    .iter()
                    .zip(&g)
                    .map(|(d, &v)| (d.label().to_string(), Json::Num(v))),
            ),
        ),
        (
            "buckets".into(),
            Json::obj(buckets.iter().map(|(d, fractions)| {
                (
                    d.label().to_string(),
                    Json::obj(
                        Bucket::ALL
                            .iter()
                            .zip(fractions)
                            .map(|(b, &v)| (b.label().to_string(), Json::Num(v))),
                    ),
                )
            })),
        ),
    ]);

    if update {
        std::fs::create_dir_all("results").expect("create results/");
        std::fs::write(REFERENCE, doc.render_pretty())
            .unwrap_or_else(|e| panic!("cannot write {REFERENCE}: {e}"));
        println!("updated {REFERENCE}");
        return ExitCode::SUCCESS;
    }

    let reference = match std::fs::read_to_string(REFERENCE) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {REFERENCE}: {e} (run `smoke --update` to create it)");
            return ExitCode::FAILURE;
        }
    };
    let reference = match Json::parse(&reference) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("{REFERENCE} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(ref_geomeans) = reference.get("geomeans") else {
        eprintln!("{REFERENCE} has no `geomeans` object");
        return ExitCode::FAILURE;
    };

    println!(
        "## Smoke gate vs {REFERENCE} (tolerance {:.0}%)",
        TOLERANCE * 100.0
    );
    println!();
    println!("| design | geomean | reference | deviation | verdict |");
    println!("|---|---|---|---|---|");
    let mut failed = false;
    for (d, &measured) in DesignKind::ALL.iter().zip(&g) {
        let Some(expected) = ref_geomeans.get(d.label()).and_then(Json::as_f64) else {
            println!("| {} | {measured:.4} | (missing) | — | FAIL |", d.label());
            failed = true;
            continue;
        };
        let deviation = (measured - expected).abs() / expected;
        let verdict = if deviation > TOLERANCE { "FAIL" } else { "ok" };
        failed |= deviation > TOLERANCE;
        println!(
            "| {} | {measured:.4} | {expected:.4} | {:.1}% | {verdict} |",
            d.label(),
            deviation * 100.0
        );
    }
    println!();

    // --- Per-bucket profile gate. ----------------------------------------
    println!(
        "## Per-bucket profile gate vs {REFERENCE} (tolerance {:.0} points)",
        BUCKET_TOLERANCE * 100.0
    );
    println!();
    println!("| design | max bucket shift | bucket | verdict |");
    println!("|---|---|---|---|");
    let ref_buckets = reference.get("buckets");
    for (design, fractions) in &buckets {
        let Some(expected) = ref_buckets.and_then(|b| b.get(design.label())) else {
            println!(
                "| {} | — | (no reference; run `smoke --update`) | FAIL |",
                design.label()
            );
            failed = true;
            continue;
        };
        let mut worst = 0.0f64;
        let mut worst_bucket = Bucket::ALL[0];
        let mut missing = false;
        for (bucket, &measured) in Bucket::ALL.iter().zip(fractions) {
            let Some(want) = expected.get(bucket.label()).and_then(Json::as_f64) else {
                missing = true;
                continue;
            };
            let delta = (measured - want).abs();
            if delta > worst {
                worst = delta;
                worst_bucket = *bucket;
            }
        }
        let bad = worst > BUCKET_TOLERANCE || missing;
        failed |= bad;
        println!(
            "| {} | {:.2} points | {} | {} |",
            design.label(),
            worst * 100.0,
            if missing {
                "(bucket missing from reference)"
            } else {
                worst_bucket.label()
            },
            if bad { "FAIL" } else { "ok" },
        );
    }
    println!();

    if failed {
        println!(
            "smoke gate FAILED: a design's geomean moved more than {:.0}% or a \
             cycle bucket's share moved more than {:.0} points — if \
             intentional, regenerate the reference with `smoke --update`",
            TOLERANCE * 100.0,
            BUCKET_TOLERANCE * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!("smoke gate passed (geomeans and bucket profiles)");
        ExitCode::SUCCESS
    }
}

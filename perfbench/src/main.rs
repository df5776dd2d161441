//! Host-time benchmark of the PMEM-Spec simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig9-8c --seed 11 --seconds 20 --trace 0
//! ```
//!
//! A closed loop with one client: one process per workload runs the
//! workload's points one after another on one thread, timing calls into
//! the public functions of `workloads`, `isa`, `analyze`, `core`,
//! `runtime` (through `GeneratedWorkload::recover`) and `crashtest` from
//! outside. The simulator's code is untouched, and it receives only the
//! generated programs. Modelled caches start empty at every point
//! (`System::new`), as in the paper's runs.
//!
//! A run sets the workload up several times (generation plus lowering;
//! `setup_s` is the median), makes one untimed reference pass that
//! digests every simulated output and runs the cross-checks, then
//! repeats timed passes for `--seconds`. Every point and trial of every
//! pass is checked; a failure or a simulator panic is counted, not
//! raised. With `--trace 0` the last line reports the end-to-end metrics
//! of `BENCHMARK.json`; with `--trace 1` it reports the per-layer
//! metrics, from spans recorded on traced passes that alternate with
//! untraced ones (their wall-time difference is the tracing overhead).
//! The spans of the first traced pass are written to
//! `perfbench/out/<workload>-seed<seed>.trace.json`.

#![forbid(unsafe_code)]

mod check;
mod crash;
mod grid;
mod span;
mod spec;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmem_spec::{Bucket, RunReport, System};
use pmemspec_bench::Json;
use pmemspec_engine::SimConfig;
use pmemspec_isa::{DesignKind, Program};
use pmemspec_workloads::Benchmark;

use crate::check::{guarded, Tally};
use crate::crash::{Crash, JobSummary};
use crate::grid::Grid;
use crate::span::{Call, Profile, Tracer};
use crate::spec::{Shape, Workload, DEFAULT_SEED, HELD_OUT_SEED};

/// Set-ups per run: at least this many, and more until
/// [`SETUP_SECONDS`] have passed (at most [`SETUP_MAX_REPEATS`]);
/// `setup_s` is their median.
const SETUP_MIN_REPEATS: usize = 9;
const SETUP_SECONDS: f64 = 0.5;
const SETUP_MAX_REPEATS: usize = 201;

/// The committed host-time artifact whose simulated cycles `fig9-8c`
/// must reproduce at the default seed.
const BENCH_ARTIFACT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../results/BENCH_simulator.json"
);

/// Where the traced run writes its spans.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// What one pass over a workload measured and produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Host ns per point (grid) or trial (crash).
    pub samples_ns: Vec<u64>,
    /// Lowered ops of the runs that went to completion.
    pub sim_ops: u64,
    /// Host ns of those runs (`System::new` + the run).
    pub sim_ns: u64,
    /// Checked points or trials.
    pub trials: u64,
    /// Host ns of the whole pass.
    pub wall_ns: u64,
    /// One digest per point or trial, compared against the reference.
    pub fingerprints: Vec<u64>,
    /// Digest of every simulated output of the pass.
    pub digest: u64,
    /// Reference pass only: every `RunReport` (crash: the pre-runs').
    pub reports: Vec<(Benchmark, DesignKind, RunReport)>,
    /// Reference pass only, crash only: per-job summaries.
    pub summaries: Vec<JobSummary>,
}

/// A workload, set up.
enum Loaded {
    Grid(Grid),
    Crash(Crash),
}

impl Loaded {
    fn setup(workload: &Workload, seed: u64, tr: &mut Tracer) -> Self {
        match workload.shape {
            shape @ Shape::Grid { .. } => Loaded::Grid(Grid::setup(
                shape,
                &Benchmark::ALL,
                &DesignKind::ALL_EXTENDED,
                seed,
                tr,
            )),
            shape @ Shape::Crash { .. } => Loaded::Crash(Crash::setup(shape, seed, tr)),
        }
    }

    fn pass(&self, tr: &mut Tracer, reference: Option<&[u64]>, tally: &mut Tally) -> PassOut {
        match self {
            Loaded::Grid(g) => g.pass(tr, reference, tally),
            Loaded::Crash(c) => c.pass(tr, reference, tally),
        }
    }

    fn cfg(&self) -> &SimConfig {
        match self {
            Loaded::Grid(g) => &g.cfg,
            Loaded::Crash(c) => &c.cfg,
        }
    }

    fn programs_of(&self, design: DesignKind) -> Vec<Arc<Program>> {
        match self {
            Loaded::Grid(g) => g.programs_of(design),
            Loaded::Crash(c) => c.programs_of(design),
        }
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <fig9-8c|scale-64c|crash-2c> [--seed N] \
                     [--seconds S] [--trace 0|1]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(spec::find(&name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything a run found.
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    for p in &outcome.problems {
        println!("PROBLEM: {p}");
    }
    let mut json = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.value,
            m.unit
        );
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.attempted, outcome.failed
    );
    ExitCode::SUCCESS
}

fn median_of(passes: &[PassOut], f: impl Fn(&PassOut) -> f64) -> f64 {
    stats::median(&passes.iter().map(f).collect::<Vec<_>>())
}

fn run(args: &Args) -> Outcome {
    let w = args.workload;
    println!(
        "# perfbench {}: seed {} (default {DEFAULT_SEED}, held out for checking claims: \
         {HELD_OUT_SEED}), {} s, trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("why: {}", w.why);
    for (layer, e2e) in w.moves {
        println!("moves: {layer} -> {e2e}");
    }
    println!("closed loop, 1 client, 1 thread; modelled caches start empty at every point");

    let mut problems = check::self_test();
    println!(
        "self-test: {}",
        if problems.is_empty() { "ok" } else { "FAILED" }
    );

    // The first set-up; more follow once the passes are done (see below).
    let mut profile = Profile::default();
    let mut setup_s = Vec::new();
    let new_tracer = || {
        if args.trace {
            Tracer::on()
        } else {
            Tracer::off()
        }
    };
    let mut tr = new_tracer();
    let t = Instant::now();
    let loaded = Loaded::setup(w, args.seed, &mut tr);
    setup_s.push(t.elapsed().as_secs_f64());
    profile.fold(&tr.take());

    // Reference pass: untimed; digests and cross-checks.
    let mut tally = Tally::default();
    let reference = loaded.pass(&mut Tracer::off(), None, &mut tally);
    println!(
        "reference pass: digest {:#018x} over {} points/trials",
        reference.digest, reference.trials
    );
    match &loaded {
        Loaded::Grid(_) if w.name == "fig9-8c" && args.seed == DEFAULT_SEED => {
            let found = cross_check_bench_artifact(w.shape, &reference.reports);
            println!(
                "cross-check vs results/BENCH_simulator.json sim_cycles: {}",
                if found.is_empty() {
                    "ok (40 points)"
                } else {
                    "FAILED"
                }
            );
            problems.extend(found);
        }
        Loaded::Grid(_) => println!(
            "cross-check vs results/BENCH_simulator.json: applies to fig9-8c at seed \
             {DEFAULT_SEED} only"
        ),
        Loaded::Crash(c) => {
            let found = c.cross_check(&reference);
            println!(
                "cross-check vs crashtest::run_fuzz_job: {}",
                if found.is_empty() {
                    "ok (same points, violations and summaries on every job)"
                } else {
                    "FAILED"
                }
            );
            problems.extend(found);
        }
    }

    // Timed passes; in trace mode each untraced pass is followed by a
    // traced one, so both see the same machine conditions.
    let window = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut first_spans = None;
    loop {
        untraced.push(loaded.pass(
            &mut Tracer::off(),
            Some(&reference.fingerprints),
            &mut tally,
        ));
        if args.trace {
            let mut tr = Tracer::on();
            traced.push(loaded.pass(&mut tr, Some(&reference.fingerprints), &mut tally));
            let spans = tr.take();
            profile.fold(&spans);
            first_spans.get_or_insert(spans);
        }
        let samples: usize = untraced
            .iter()
            .chain(&traced)
            .map(|p| p.samples_ns.len())
            .sum();
        if started.elapsed() >= window && samples >= w.min_samples {
            break;
        }
    }
    println!(
        "passes: {} untraced, {} traced, over {:.2} s",
        untraced.len(),
        traced.len(),
        started.elapsed().as_secs_f64()
    );

    let samples_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.samples_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    let tail = stats::tail(&samples_ms);
    println!(
        "point_ms_tail is p{} over {} samples ({} beyond it)",
        tail.pct,
        samples_ms.len(),
        tail.beyond
    );
    let point_medians = per_point_medians_ms(&untraced);
    println!(
        "point_ms_p50 is the median over {} points/trials of each one's median over {} passes",
        point_medians.len(),
        untraced.len()
    );
    let speedup = model_speedup(&reference.reports);
    if let Some(s) = speedup {
        match w.paper_speedup {
            Some((paper, source)) => println!(
                "model: PMEM-Spec over IntelX86 = {s:.4}x (geomean over benchmarks); paper \
                 {paper}x ({source}); error {:+.1}%. One seed here; results/ averages 3.",
                (s / paper - 1.0) * 100.0
            ),
            None => println!(
                "model: PMEM-Spec over IntelX86 = {s:.4}x (pre-runs; no paper reference at \
                 this scale)"
            ),
        }
    }
    for e in &tally.examples {
        println!("failure: {e}");
    }

    // The high-water mark of one set-up plus the passes, read before the
    // repeated set-ups below can inflate it.
    let peak = stats::peak_rss_mib().unwrap_or_else(|| {
        problems.push("peak RSS unavailable (no /proc/self/status)".into());
        0.0
    });
    let buckets = args.trace.then(|| pmemspec_profile(&loaded));

    // More set-ups, each dropped before the next, for a steady median.
    drop(loaded);
    let setups_started = Instant::now();
    while setup_s.len() < SETUP_MIN_REPEATS
        || (setups_started.elapsed().as_secs_f64() < SETUP_SECONDS
            && setup_s.len() < SETUP_MAX_REPEATS)
    {
        let mut tr = new_tracer();
        let t = Instant::now();
        let again = Loaded::setup(w, args.seed, &mut tr);
        setup_s.push(t.elapsed().as_secs_f64());
        drop(again);
        profile.fold(&tr.take());
    }
    println!("set-up: {} repeats", setup_s.len());

    let metrics = if let Some(buckets) = buckets {
        let spans = first_spans.unwrap_or_default();
        write_trace(w.name, args.seed, &spans, &profile);
        layer_metrics(&LayerInputs {
            profile: &profile,
            reference: &reference,
            untraced: &untraced,
            traced: &traced,
            tally: &tally,
            tail,
            speedup,
            buckets,
        })
    } else {
        end_to_end_metrics(&untraced, &point_medians, tail, &setup_s, peak)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            problems.push(format!("metric {} is not finite", m.name));
        }
    }
    let metrics = metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m
        })
        .collect();
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        problems,
        metrics,
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end_metrics(
    untraced: &[PassOut],
    point_medians: &[f64],
    tail: stats::Tail,
    setup_s: &[f64],
    peak_rss_mib: f64,
) -> Vec<Metric> {
    vec![
        metric(
            "sim_ops_per_s",
            median_of(untraced, |p| p.sim_ops as f64 / (p.sim_ns as f64 / 1e9)),
            "1/s",
        ),
        metric(
            "trials_per_s",
            median_of(untraced, |p| p.trials as f64 / (p.wall_ns as f64 / 1e9)),
            "1/s",
        ),
        metric("point_ms_p50", stats::median(point_medians), "ms"),
        metric("point_ms_tail", tail.value, "ms"),
        metric("setup_s", stats::median(setup_s), "s"),
        metric("peak_rss_mib", peak_rss_mib, "MiB"),
    ]
}

/// Each point's (or trial's) median host ms over the passes. Every pass
/// visits the same points in the same order; a pass that lost points to
/// a failed pre-run is left out.
fn per_point_medians_ms(passes: &[PassOut]) -> Vec<f64> {
    let n = passes.iter().map(|p| p.samples_ns.len()).max().unwrap_or(0);
    let whole: Vec<&PassOut> = passes.iter().filter(|p| p.samples_ns.len() == n).collect();
    (0..n)
        .map(|i| {
            let times: Vec<f64> = whole.iter().map(|p| p.samples_ns[i] as f64 / 1e6).collect();
            stats::median(&times)
        })
        .collect()
}

/// Geomean of PMEM-Spec's simulated throughput over IntelX86's, across
/// every (benchmark, seed) the reports cover. Filtering by design keeps
/// the reports' benchmark-then-seed order, so the two lists pair up.
fn model_speedup(reports: &[(Benchmark, DesignKind, RunReport)]) -> Option<f64> {
    let of = |d: DesignKind| reports.iter().filter(move |(_, rd, _)| *rd == d);
    let logs: Vec<f64> = of(DesignKind::PmemSpec)
        .zip(of(DesignKind::IntelX86))
        .filter(|((bs, ..), (bx, ..))| bs == bx)
        .map(|((.., spec), (.., x86))| spec.speedup_over(x86).ln())
        .collect();
    (!logs.is_empty()).then(|| (logs.iter().sum::<f64>() / logs.len() as f64).exp())
}

/// `fig9-8c` at the default seed must reproduce the simulated cycles of
/// every point in `results/BENCH_simulator.json`.
fn cross_check_bench_artifact(
    shape: Shape,
    reports: &[(Benchmark, DesignKind, RunReport)],
) -> Vec<String> {
    let text = match std::fs::read_to_string(BENCH_ARTIFACT) {
        Ok(t) => t,
        Err(e) => return vec![format!("cannot read {BENCH_ARTIFACT}: {e}")],
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => return vec![format!("cannot parse {BENCH_ARTIFACT}: {e}")],
    };
    let grid_matches = doc.get("grid").is_some_and(|g| {
        let num = |k: &str| g.get(k).and_then(Json::as_f64);
        num("cores") == Some(shape.cores() as f64)
            && num("fases") == Some(shape.fases(Benchmark::ArraySwaps) as f64)
            && num("memcached_fases") == Some(shape.fases(Benchmark::Memcached) as f64)
            && num("seed") == Some(DEFAULT_SEED as f64)
    });
    if !grid_matches {
        return vec!["BENCH_simulator.json describes a different grid".into()];
    }
    let Some(Json::Arr(points)) = doc.get("points") else {
        return vec!["BENCH_simulator.json has no points".into()];
    };
    let mut problems = Vec::new();
    if points.len() != reports.len() {
        problems.push(format!(
            "BENCH_simulator.json has {} points, the grid {}",
            points.len(),
            reports.len()
        ));
    }
    for (p, (b, d, r)) in points.iter().zip(reports) {
        let same_point = p.get("design").and_then(Json::as_str) == Some(d.label())
            && p.get("benchmark").and_then(Json::as_str) == Some(b.label());
        let cycles = p.get("sim_cycles").and_then(Json::as_f64);
        if !same_point || cycles != Some(r.total_time.raw() as f64) {
            problems.push(format!(
                "{b}/{d}: {} simulated cycles, BENCH_simulator.json has {cycles:?}",
                r.total_time.raw()
            ));
        }
    }
    problems
}

/// Writes the first traced pass's spans and the per-layer table.
fn write_trace(workload: &str, seed: u64, spans: &[span::Span], profile: &Profile) {
    let path = format!("{OUT_DIR}/{workload}-seed{seed}.trace.json");
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, span::chrome_trace(spans, profile)));
    match written {
        Ok(()) => println!("spans: {} written to {path}", spans.len()),
        Err(e) => println!("spans: cannot write {path}: {e}"),
    }
}

struct LayerInputs<'a> {
    profile: &'a Profile,
    reference: &'a PassOut,
    untraced: &'a [PassOut],
    traced: &'a [PassOut],
    tally: &'a Tally,
    tail: stats::Tail,
    speedup: Option<f64>,
    /// PMEM-Spec's cycle-accounting shares, in `Bucket::ALL` order.
    buckets: [f64; Bucket::COUNT],
}

/// PMEM-Spec's simulated core-cycles per profiler bucket, as shares of
/// all its core-cycles over the workload's programs (`run_profiled`).
fn pmemspec_profile(loaded: &Loaded) -> [f64; Bucket::COUNT] {
    let mut cycles = [0u64; Bucket::COUNT];
    let mut grand = 0u64;
    for program in loaded.programs_of(DesignKind::PmemSpec) {
        let profiled = guarded(&mut Tracer::off(), |_| {
            System::new(loaded.cfg().clone(), program).map(System::run_profiled)
        });
        if let Ok(Ok((_, prof))) = profiled {
            for b in Bucket::ALL {
                cycles[b.index()] += prof.bucket_total(b);
            }
            grand += prof.grand_total();
        }
    }
    cycles.map(|c| c as f64 / grand.max(1) as f64)
}

/// The per-layer metrics: host time per layer from spans, simulated
/// work from the reference pass's reports, and PMEM-Spec's cycle
/// accounting from a profiled run of its programs.
fn layer_metrics(i: &LayerInputs<'_>) -> Vec<Metric> {
    let p = i.profile;
    let mut m = vec![
        metric(
            "workloads.generate_ns_per_op",
            p.self_ns_per_op(Call::Generate, None),
            "ns/op",
        ),
        metric(
            "isa.lower_ns_per_op",
            p.self_ns_per_op(Call::Lower, None),
            "ns/op",
        ),
        metric("analyze.lint_us", p.self_us_per_call(Call::Lint), "us"),
        metric("core.build_us", p.self_us_per_call(Call::Build), "us"),
    ];
    for d in DesignKind::ALL_EXTENDED {
        m.push(metric(
            format!("core.run_ns_per_op.{}", d.label()),
            p.self_ns_per_op(Call::Run, Some(d)),
            "ns/op",
        ));
    }
    m.extend([
        metric(
            "core.run_boundaries_us",
            p.self_us_per_call(Call::RunBoundaries),
            "us",
        ),
        metric(
            "core.run_until_us",
            p.self_us_per_call(Call::RunUntil),
            "us",
        ),
        metric(
            "runtime.recover_us",
            p.self_us_per_call(Call::Recover),
            "us",
        ),
        metric(
            "crashtest.oracle_us",
            p.self_us_per_call(Call::Oracle),
            "us",
        ),
        metric("bench.point_self_us", p.self_us_per_call(Call::Point), "us"),
    ]);
    let wall = |passes: &[PassOut]| passes.iter().map(|p| p.wall_ns as f64).sum::<f64>();
    m.push(metric(
        "trace.overhead_frac",
        wall(i.traced) / wall(i.untraced) - 1.0,
        "frac",
    ));
    let samples: usize = i.untraced.iter().map(|p| p.samples_ns.len()).sum();
    m.push(metric("point.samples", samples as f64, "count"));
    m.push(metric("point.tail_pct", i.tail.pct, "pct"));
    m.push(metric(
        "fail_frac",
        i.tally.failed as f64 / i.tally.attempted.max(1) as f64,
        "frac",
    ));

    // Simulated work: exact, repeatable counts.
    let reports: Vec<&RunReport> = i.reference.reports.iter().map(|(_, _, r)| r).collect();
    let counter = |key: &str| reports.iter().map(|r| r.stats.counter(key)).sum::<u64>() as f64;
    for key in [
        "mem.l1",
        "mem.llc",
        "mem.dram",
        "mem.pm",
        "core.sq_full_stalls",
        "core.mshr_full_stalls",
        "persist_buffer.full_stalls",
        "strand_buffer.full_stalls",
        "spec_buffer.allocations",
    ] {
        m.push(metric(key, counter(key), "count"));
    }
    let field = |f: fn(&RunReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    m.push(metric("pm_reads", field(|r| r.pm_reads), "count"));
    m.push(metric("pm_writes", field(|r| r.pm_writes), "count"));
    m.push(metric(
        "spec_buffer.overflows",
        field(|r| r.spec_buffer_overflows),
        "count",
    ));
    let committed = field(|r| r.fases_committed);
    let aborted = field(|r| r.fases_aborted);
    m.push(metric(
        "fase.useful_frac",
        committed / (committed + aborted).max(1.0),
        "frac",
    ));
    for d in DesignKind::ALL_EXTENDED {
        let cycles: u64 = i
            .reference
            .reports
            .iter()
            .filter(|(_, rd, _)| *rd == d)
            .map(|(_, _, r)| r.total_time.raw())
            .sum();
        m.push(metric(
            format!("model.sim_cycles.{}", d.label()),
            cycles as f64,
            "cycles",
        ));
    }
    m.push(metric(
        "model.pmemspec_speedup_vs_x86",
        i.speedup.unwrap_or(0.0),
        "x",
    ));

    // PMEM-Spec's cycle accounting (simulated time, not host time).
    for b in Bucket::ALL {
        m.push(metric(
            format!("profile.PMEM-Spec.{}", b.label()),
            i.buckets[b.index()],
            "frac",
        ));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse(&[
            "--workload",
            "crash-2c",
            "--seed",
            "42",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload.name, "crash-2c");
        assert_eq!(a.seed, 42);
        assert!(a.trace);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err());
        assert!(parse(&["--workload", "fig9-8c", "--trace", "2"]).is_err());
    }

    /// Names and units in `BENCHMARK.json`, one section of it.
    fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(section) else {
            panic!("BENCHMARK.json has no {section}");
        };
        items
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn emitted_metrics_match_the_benchmark_file() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("valid JSON");

        let workloads: Vec<String> = declared(&doc, "workloads")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, names);

        let pass = PassOut {
            samples_ns: vec![1],
            sim_ops: 1,
            sim_ns: 1,
            trials: 1,
            wall_ns: 1,
            ..PassOut::default()
        };
        let passes = [pass];
        let tail = stats::tail(&[1.0]);
        let e2e = end_to_end_metrics(&passes, &[1.0], tail, &[1.0], 1.0);
        assert_eq!(emitted(&e2e), declared(&doc, "end_to_end"));

        let layers = layer_metrics(&LayerInputs {
            profile: &Profile::default(),
            reference: &PassOut::default(),
            untraced: &passes,
            traced: &passes,
            tally: &Tally::default(),
            tail,
            speedup: None,
            buckets: [0.0; Bucket::COUNT],
        });
        assert_eq!(emitted(&layers), declared(&doc, "per_layer"));
    }
}

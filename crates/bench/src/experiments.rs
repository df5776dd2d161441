//! The experiment registry: every table and figure of the paper's
//! evaluation (§8), the §5/§6.3 ablations, the extensions, and the
//! validation artifacts (cycle breakdown, static lint, crash fuzzer,
//! exhaustive model check), as one named function each.
//!
//! An experiment runs its grid on the shared worker pool and returns an
//! [`Output`]: the files it renders and the checks it failed. [`run`]
//! writes every file under `--out`, whether or not a check failed;
//! which artifacts exist, and in which order a full regeneration
//! produces them, is exactly [`EXPERIMENTS`].

use std::fmt::Write as _;
use std::time::Instant;

use pmem_spec::spec_buffer::DetectionMode;
use pmem_spec::{RecoveryPolicy, RunReport, System};
use pmemspec_engine::clock::Duration;
use pmemspec_engine::config::PmcNetworkOrder;
use pmemspec_engine::SimConfig;
use pmemspec_isa::{lower_program, AbsProgram, DesignKind};
use pmemspec_workloads::{characterize, synthetic, Benchmark, WorkloadParams};

use crate::breakdown::breakdown;
use crate::crashfuzz::{crashfuzz, litmus_exhaustive};
use crate::lint::lint;
use crate::sweep::{parallel_map, worker_count, workload_params};
use crate::table::{Cell, Table};
use crate::{
    default_fases, geomeans, normalized_suite_with, scaled_llc_config, seeds, suite_cores,
    suite_json, suite_markdown, BenchArgs, Json, SweepResults, SweepSpec,
};

/// One experiment's output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Output {
    /// `(file name, contents)` pairs, written under `--out` in order.
    pub files: Vec<(String, String)>,
    /// One line per failed check, each with its reproducer.
    pub failures: Vec<String>,
}

impl Output {
    /// `<name>.md` and `<name>.json`, no failures.
    pub fn pair(name: &str, markdown: String, json: &Json) -> Output {
        Output::default().with_pair(name, markdown, json)
    }

    /// Adds `<name>.md` and `<name>.json`.
    pub fn with_pair(mut self, name: &str, markdown: String, json: &Json) -> Output {
        self.files.push((format!("{name}.md"), markdown));
        self.files
            .push((format!("{name}.json"), json.render_pretty()));
        self
    }
}

/// The common layout: the tables' markdown separated by blank lines,
/// and `{"figure": name, key: [row objects], ...}`.
fn tables(name: &str, sections: &[(&str, &Table)]) -> (String, Json) {
    let markdown = sections
        .iter()
        .map(|(_, t)| t.markdown())
        .collect::<Vec<_>>()
        .join("\n");
    let mut json = vec![("figure".to_string(), Json::Str(name.into()))];
    json.extend(sections.iter().map(|(k, t)| (k.to_string(), t.json_rows())));
    (markdown, Json::Obj(json))
}

/// [`tables`] as the `<name>.md` / `<name>.json` pair.
fn tables_output(name: &str, sections: &[(&str, &Table)]) -> Output {
    let (markdown, json) = tables(name, sections);
    Output::pair(name, markdown, &json)
}

/// An experiment: runs its grid under the shared flags and renders
/// the result.
pub type Experiment = fn(&BenchArgs) -> Output;

/// Every experiment, in the order a full regeneration runs them
/// (`fig10`, by far the most expensive, last).
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table3", table3),
    ("fig9", fig9),
    ("fig11", fig11),
    ("fig12", fig12),
    ("misspec", misspec),
    ("ablation_detect", ablation_detect),
    ("ablation_checkpoint", ablation_checkpoint),
    ("extended", extended),
    ("multi_pmc", multi_pmc),
    ("characterize", characterize),
    ("breakdown", breakdown),
    ("lint", lint),
    ("crashfuzz", crashfuzz),
    ("litmus_exhaustive", litmus_exhaustive),
    ("fig10", fig10),
];

/// Resolves experiment names against [`EXPERIMENTS`], in the order
/// given; no names selects the whole registry. Returns the first
/// unknown name as the error.
pub fn select(names: &[String]) -> Result<Vec<(&'static str, Experiment)>, String> {
    if names.is_empty() {
        return Ok(EXPERIMENTS.to_vec());
    }
    names
        .iter()
        .map(|name| {
            EXPERIMENTS
                .iter()
                .find(|(n, _)| n == name)
                .copied()
                .ok_or_else(|| name.clone())
        })
        .collect()
}

/// Runs `selected` in order. Each experiment's files are written under
/// `args.out` (its markdown files are also printed to stdout), then
/// `== <name>: N.NNNs` goes to stderr — followed by the process's peak
/// RSS so far where `/proc/self/status` has it — and then one line per
/// failed check. Returns the number of failures.
///
/// # Panics
///
/// Panics if `args.out` or a file in it cannot be written: experiment
/// output going missing should fail the run loudly.
pub fn run(selected: &[(&str, Experiment)], args: &BenchArgs) -> usize {
    let out = &args.out;
    std::fs::create_dir_all(out).unwrap_or_else(|e| panic!("cannot create {}: {e}", out.display()));
    let mut failures = 0;
    for (name, experiment) in selected {
        let started = Instant::now();
        let output = experiment(args);
        for (file, contents) in &output.files {
            if file.ends_with(".md") {
                print!("{contents}");
            }
            let path = out.join(file);
            std::fs::write(&path, contents)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
        let peak = peak_rss().map_or(String::new(), |kb| format!(", VmHWM {kb} kB"));
        eprintln!("== {name}: {:.3}s{peak}", started.elapsed().as_secs_f64());
        for failure in &output.failures {
            eprintln!("{name} FAILED: {failure}");
        }
        failures += output.failures.len();
    }
    failures
}

/// The process's peak resident set size in kB (`VmHWM` in
/// `/proc/self/status`), where the platform reports it.
fn peak_rss() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Table 3: the simulator configuration.
fn table3(_: &BenchArgs) -> Output {
    let cfg = SimConfig::asplos21(8);
    let mut table = Table::new(
        "Table 3: simulator configuration",
        &[
            ("Component", "component"),
            ("Configuration", "configuration"),
        ],
    );
    for (component, configuration) in [
        (
            "Core",
            format!("2 GHz, {}-entry store queue, 8 load MSHRs", cfg.store_queue),
        ),
        (
            "L1 D-cache",
            format!(
                "{} KB, {}-way, private, {} ns hit",
                cfg.l1.size_bytes / 1024,
                cfg.l1.ways,
                cfg.l1.hit_latency.as_ns()
            ),
        ),
        (
            "L2 (LLC)",
            format!(
                "{} MB, {}-way, shared, {} ns hit",
                cfg.llc.size_bytes / 1024 / 1024,
                cfg.llc.ways,
                cfg.llc.hit_latency.as_ns()
            ),
        ),
        (
            "PM controller",
            format!(
                "{}/{}-entry read/write queue, {}-entry speculation buffer",
                cfg.pm.read_queue, cfg.pm.write_queue, cfg.pm.spec_buffer_entries
            ),
        ),
        (
            "PM",
            format!(
                "read = {} ns / write = {} ns",
                cfg.pm.read_latency.as_ns(),
                cfg.pm.write_latency.as_ns()
            ),
        ),
        (
            "Persist path",
            format!("{} ns", cfg.persist_path_latency.as_ns()),
        ),
    ] {
        table.push(vec![Cell::text(component), Cell::text(&configuration)]);
    }
    let window_ns = cfg.speculation_window().as_ns();
    let markdown = format!(
        "{}\nSpeculation window (8 cores): {window_ns} ns\n",
        table.markdown()
    );

    // A flat object rather than rows: one key per parameter.
    let mut json = vec![("figure".to_string(), Json::Str("table3".into()))];
    json.extend(
        [
            ("store_queue", cfg.store_queue as u64),
            ("l1_kb", (cfg.l1.size_bytes / 1024) as u64),
            ("l1_ways", cfg.l1.ways as u64),
            ("llc_mb", (cfg.llc.size_bytes / 1024 / 1024) as u64),
            ("llc_ways", cfg.llc.ways as u64),
            ("pm_read_queue", cfg.pm.read_queue as u64),
            ("pm_write_queue", cfg.pm.write_queue as u64),
            ("spec_buffer_entries", cfg.pm.spec_buffer_entries as u64),
            ("pm_read_ns", cfg.pm.read_latency.as_ns()),
            ("pm_write_ns", cfg.pm.write_latency.as_ns()),
            ("persist_path_ns", cfg.persist_path_latency.as_ns()),
            ("speculation_window_ns_8c", window_ns),
        ]
        .map(|(k, v)| (k.to_string(), Json::Num(v as f64))),
    );
    Output::pair("table3", markdown, &Json::Obj(json))
}

/// The suite figures: every benchmark under `designs` at `cores`,
/// normalized to IntelX86.
fn suite_figure(
    args: &BenchArgs,
    name: &str,
    title: &str,
    cores: usize,
    designs: &[DesignKind],
) -> Output {
    let rows = normalized_suite_with(&SimConfig::asplos21(cores), designs, args);
    Output::pair(
        name,
        suite_markdown(title, designs, &rows),
        &suite_json(name, cores, designs, &rows),
    )
}

/// Figure 9: throughput of all four designs on the eight benchmarks in
/// the 8-core system, normalized to the IntelX86 epoch baseline.
///
/// Paper: PMEM-Spec 1.272x the baseline and 1.106x HOPS on average; DPO
/// below the baseline; Queue/Hashmap show the smallest gains;
/// Vacation/Memcached benefit from long transactions.
fn fig9(args: &BenchArgs) -> Output {
    let cores = suite_cores();
    suite_figure(
        args,
        "fig9",
        &format!("Figure 9: {cores}-core throughput (normalized to IntelX86)"),
        cores,
        &DesignKind::ALL,
    )
}

/// Extension beyond the paper: the Figure 9 comparison including
/// StrandWeaver (strand persistency — the design the paper's §9 singles
/// out as the strongest prior work but does not simulate).
///
/// Expectation from the literature: StrandWeaver lands between HOPS and
/// PMEM-Spec — it removes cross-FASE drain dependencies (each FASE is a
/// strand) but still pays intra-strand persist-barriers between the log
/// and data phases, which PMEM-Spec's FIFO path eliminates entirely.
fn extended(args: &BenchArgs) -> Output {
    let cores = suite_cores();
    suite_figure(
        args,
        "extended",
        &format!("Extended comparison: five designs at {cores} cores (normalized to IntelX86)"),
        cores,
        &DesignKind::ALL_EXTENDED,
    )
}

/// Figure 10: the Figure 9 comparison in 16-/32-/64-core systems.
///
/// Paper: PMEM-Spec outperforms the baseline/HOPS by 18.8%/8.2% (16),
/// 18.2%/8.0% (32) and 17.1%/10% (64); DPO degrades with core count.
fn fig10(args: &BenchArgs) -> Output {
    let mut markdown = String::new();
    let mut sections = Vec::new();
    for cores in [16usize, 32, 64] {
        let rows = normalized_suite_with(&SimConfig::asplos21(cores), &DesignKind::ALL, args);
        markdown += &suite_markdown(
            &format!("Figure 10: {cores}-core throughput"),
            &DesignKind::ALL,
            &rows,
        );
        let g = geomeans(&rows);
        let _ = writeln!(
            markdown,
            "PMEM-Spec vs baseline: +{:.1}%  |  PMEM-Spec vs HOPS: +{:.1}%\n",
            (g[3] - 1.0) * 100.0,
            (g[3] / g[2] - 1.0) * 100.0
        );
        sections.push(suite_json("fig10", cores, &DesignKind::ALL, &rows));
    }
    Output::pair(
        "fig10",
        markdown,
        &Json::obj([
            ("figure".into(), Json::Str("fig10".into())),
            ("sections".into(), Json::Arr(sections)),
        ]),
    )
}

/// Geometric mean throughput of PMEM-Spec over every benchmark and
/// `seeds` under config `ci`, reduced in (benchmark, seed) order, plus
/// the summed `counter` of those runs.
fn pmemspec_geomean(
    results: &SweepResults,
    ci: usize,
    seeds: &[u64],
    counter: impl Fn(&RunReport) -> u64,
) -> (f64, u64) {
    let mut sum_ln = 0.0;
    let mut n = 0u32;
    let mut total = 0u64;
    for b in Benchmark::ALL {
        for &seed in seeds {
            let r = results.report(ci, b, DesignKind::PmemSpec, seed);
            sum_ln += r.throughput().ln();
            total += counter(r);
            n += 1;
        }
    }
    ((sum_ln / f64::from(n)).exp(), total)
}

/// Figure 11: average throughput vs. speculation-buffer size in the
/// 8-core system.
///
/// Paper: size 1 loses ~12.8% against the overflow-free 16-entry
/// configuration; no overflows at 16 entries. The buffer only fills on
/// dirty-LLC-eviction bursts, so this experiment runs with the scaled
/// LLC (see EXPERIMENTS.md).
fn fig11(args: &BenchArgs) -> Output {
    let sizes = [1usize, 2, 4, 8, 16];
    let mut spec = SweepSpec::new(
        sizes
            .iter()
            .map(|&size| scaled_llc_config(8).with_spec_buffer_entries(size))
            .collect(),
    );
    for ci in 0..sizes.len() {
        spec.add_grid(ci, &[DesignKind::PmemSpec], seeds(), |b| {
            default_fases(b) / 2
        });
    }
    let results = spec.run(args);
    let points: Vec<(f64, u64)> = (0..sizes.len())
        .map(|ci| pmemspec_geomean(&results, ci, seeds(), |r| r.spec_buffer_overflows))
        .collect();
    let base = points.last().expect("sizes non-empty").0;

    let mut table = Table::new(
        "Figure 11: speculation-buffer size sensitivity (8 cores, PMEM-Spec)",
        &[
            ("entries", "entries"),
            ("throughput vs 16-entry", "relative_throughput"),
            ("overflow pauses", "overflows"),
        ],
    );
    for (&size, &(tput, overflows)) in sizes.iter().zip(&points) {
        table.push(vec![
            Cell::count(size as u64),
            Cell::fixed(tput / base, 3),
            Cell::count(overflows),
        ]);
    }
    tables_output("fig11", &[("rows", &table)])
}

/// Figure 12: geomean throughput of HOPS and PMEM-Spec vs persist-path
/// latency (20-100 ns), normalized to the IntelX86 baseline (which has
/// no persist path and stays fixed).
///
/// Paper: both stay above the baseline across the sweep because the
/// durability barrier is infrequent.
fn fig12(args: &BenchArgs) -> Output {
    let latencies = [20u64, 40, 60, 80, 100];
    let designs = [DesignKind::Hops, DesignKind::PmemSpec];
    let base_cfg = SimConfig::asplos21(8);

    // Config 0 carries the IntelX86 baseline (independent of the
    // persist path); configs 1.. are the latency sweep.
    let mut configs = vec![base_cfg.clone()];
    configs.extend(latencies.iter().map(|&ns| {
        base_cfg
            .clone()
            .with_persist_path_latency(Duration::from_ns(ns))
    }));
    // Benchmark-major, so a benchmark's programs are dropped once every
    // latency has run them; results are looked up by key, so the order
    // does not reach the artifact.
    let mut spec = SweepSpec::new(configs);
    for b in Benchmark::ALL {
        let fases = default_fases(b);
        for &seed in seeds() {
            spec.add(0, b, DesignKind::IntelX86, seed, fases);
        }
        for ci in 1..=latencies.len() {
            for d in designs {
                for &seed in seeds() {
                    spec.add(ci, b, d, seed, fases);
                }
            }
        }
    }
    let results = spec.run(args);

    // Geomeans reduced in benchmark order.
    let geomean = |ci: usize, d: DesignKind| {
        let mut ln = 0.0;
        for b in Benchmark::ALL {
            ln += results.mean_throughput(ci, b, d, seeds()).ln();
        }
        (ln / Benchmark::ALL.len() as f64).exp()
    };
    let base = geomean(0, DesignKind::IntelX86);

    let mut table = Table::new(
        "Figure 12: persist-path latency sensitivity (geomean vs IntelX86 = 1.0)",
        &[
            ("persist path (ns)", "persist_path_ns"),
            ("HOPS", "HOPS"),
            ("PMEM-Spec", "PMEM-Spec"),
        ],
    );
    for (li, &ns) in latencies.iter().enumerate() {
        let mut row = vec![Cell::count(ns)];
        row.extend(
            designs
                .iter()
                .map(|&d| Cell::fixed(geomean(li + 1, d) / base, 2)),
        );
        table.push(row);
    }
    tables_output("fig12", &[("rows", &table)])
}

/// Runs `n` independent PMEM-Spec systems on the worker pool, point
/// `i` being the `(config, program)` that `point(i)` builds.
fn run_systems(
    args: &BenchArgs,
    n: usize,
    point: impl Fn(usize) -> (SimConfig, AbsProgram) + Sync,
) -> Vec<RunReport> {
    parallel_map(n, worker_count(args), |i| {
        let (cfg, program) = point(i);
        System::new(cfg, lower_program(DesignKind::PmemSpec, &program))
            .expect("valid system")
            .run()
    })
}

/// §8.4: misspeculation rates.
///
/// Part 1 — the real benchmark suite never misspeculates at the default
/// configuration.
/// Part 2 — the synthetic inducer (store; evict all the way to PM;
/// reload) produces load misspeculation only at several times the
/// realistic persist-path latency, and recovery preserves every FASE.
fn misspec(args: &BenchArgs) -> Output {
    let seed = WorkloadParams::small(8).seed;
    let mut spec = SweepSpec::new(vec![SimConfig::asplos21(8)]);
    for b in Benchmark::ALL {
        let fases = if b == Benchmark::Memcached { 60 } else { 200 };
        spec.add(0, b, DesignKind::PmemSpec, seed, fases);
    }
    let results = spec.run(args);
    let mut suite = Table::new(
        "§8.4 part 1: misspeculation on the benchmark suite (default config)",
        &[
            ("benchmark", "benchmark"),
            ("load misspec", "load_misspec"),
            ("store misspec", "store_misspec"),
            ("stale reads (ground truth)", "stale_ground_truth"),
        ],
    );
    for b in Benchmark::ALL {
        let r = results.report(0, b, DesignKind::PmemSpec, seed);
        suite.push(vec![
            Cell::text(b.label()),
            Cell::count(r.load_misspec_detected),
            Cell::count(r.store_misspec_detected),
            Cell::count(r.stale_reads_ground_truth),
        ]);
    }

    let mults = [1u64, 2, 5, 10, 25, 50];
    let reports = run_systems(args, mults.len(), |i| {
        let cfg =
            SimConfig::asplos21(1).with_persist_path_latency(Duration::from_ns(20 * mults[i]));
        let program = synthetic::load_misspec_inducer(&cfg, 50);
        (cfg, program)
    });
    let mut inducer = Table::new(
        "§8.4 part 2: synthetic inducer vs persist-path latency",
        &[
            ("persist path", "persist_path_ns"),
            ("detected", "detected"),
            ("true stale reads", "stale"),
            ("FASEs aborted", "aborted"),
            ("FASEs committed", "committed"),
        ],
    );
    for (&mult, r) in mults.iter().zip(&reports) {
        let ns = 20 * mult;
        inducer.push(vec![
            Cell::new(format!("{ns} ns ({mult}x)"), Json::Num(ns as f64)),
            Cell::count(r.load_misspec_detected),
            Cell::count(r.stale_reads_ground_truth),
            Cell::count(r.fases_aborted),
            Cell::count(r.fases_committed),
        ]);
    }
    tables_output("misspec", &[("suite", &suite), ("inducer", &inducer)])
}

/// Figure 4 / §5.1.3 ablation: fetch-based vs eviction-based detection.
///
/// The rejected first design monitors *fetched* blocks, so every store
/// miss's write-allocate fetch is flagged as a misspeculation by that
/// store's own persist — pure false positives that cost a recovery each.
/// The final eviction-based design is silent on the same program.
fn ablation_detect(args: &BenchArgs) -> Output {
    // A 40 ns path (just above the 31 ns regular path) makes each store
    // miss's own persist trail its write-allocate fetch at the controller
    // — the situation Figure 4 describes. No true staleness exists at
    // this latency; only the strawman reacts.
    let cfg = SimConfig::asplos21(1).with_persist_path_latency(Duration::from_ns(40));
    let program = synthetic::store_miss_streamer(100, 8);
    let modes = [
        ("fetch-based (Figure 4 strawman)", DetectionMode::FetchBased),
        ("eviction-based (§5.1.4)", DetectionMode::EvictionBased),
    ];
    let reports = parallel_map(modes.len(), worker_count(args), |i| {
        System::with_options(
            cfg.clone(),
            lower_program(DesignKind::PmemSpec, &program),
            RecoveryPolicy::Lazy,
            modes[i].1,
        )
        .expect("valid system")
        .run()
    });
    let mut table = Table::new(
        "Detection-scheme ablation (store-miss streamer, 800 store misses)",
        &[
            ("scheme", "mode"),
            ("detections", "detections"),
            ("true stale reads", "true_stale"),
            ("recoveries", "aborts"),
            ("run time (ns)", "total_ns"),
        ],
    );
    for ((label, _), r) in modes.iter().zip(&reports) {
        table.push(vec![
            Cell::text(label),
            Cell::count(r.load_misspec_detected),
            Cell::count(r.stale_reads_ground_truth),
            Cell::count(r.fases_aborted),
            Cell::count(r.total_time.as_ns()),
        ]);
    }
    let (mut markdown, json) = tables("ablation_detect", &[("rows", &table)]);
    let slowdown = reports[0].total_time.as_ns() as f64 / reports[1].total_time.as_ns() as f64;
    let _ = writeln!(
        markdown,
        "\nFalse misspeculation slows the strawman down {slowdown:.2}x."
    );
    Output::pair("ablation_detect", markdown, &json)
}

/// §6.3 ablation: incremental checkpointing bounds misspeculation
/// recovery to the region that misspeculated.
///
/// A long FASE (8 expensive regions + a misspeculating tail) runs at 25x
/// persist-path latency with and without intra-FASE checkpoints. The
/// paper cites iDO-style region partitioning reaching 400x faster
/// recovery for some long FASEs; the ratio here scales with how much
/// work precedes the misspeculating region.
fn ablation_checkpoint(args: &BenchArgs) -> Output {
    const SEGMENTS: [usize; 3] = [2, 8, 32];
    let cfg = SimConfig::asplos21(1).with_persist_path_latency(Duration::from_ns(500));
    // Whole-FASE recovery for every prefix length, then checkpointed.
    let grid: Vec<(&str, bool, usize)> = [
        ("whole-FASE recovery", false),
        ("checkpointed (§6.3)", true),
    ]
    .iter()
    .flat_map(|&(label, ck)| SEGMENTS.map(|s| (label, ck, s)))
    .collect();
    let reports = run_systems(args, grid.len(), |i| {
        let (_, checkpoints, segments) = grid[i];
        let program = synthetic::long_fase_inducer(&cfg, 20, segments, checkpoints);
        (cfg.clone(), program)
    });
    let mut table = Table::new(
        "§6.3 ablation: recovery scope vs FASE length (25x persist latency)",
        &[
            ("recovery", "mode"),
            ("prefix regions", "segments"),
            ("run time (ns)", "total_ns"),
            ("aborts", "aborts"),
            ("partial", "partial_aborts"),
        ],
    );
    for (&(label, _, segments), r) in grid.iter().zip(&reports) {
        table.push(vec![
            Cell::text(label),
            Cell::count(segments as u64),
            Cell::count(r.total_time.as_ns()),
            Cell::count(r.fases_aborted),
            Cell::count(r.stats.counter("fase.partial_aborts")),
        ]);
    }
    let (mut markdown, json) = tables("ablation_checkpoint", &[("rows", &table)]);
    markdown.push('\n');
    let (plain, checkpointed) = reports.split_at(SEGMENTS.len());
    for ((segments, plain), ck) in SEGMENTS.iter().zip(plain).zip(checkpointed) {
        let _ = writeln!(
            markdown,
            "{segments} prefix regions: checkpointing saves {:.1}% of run time",
            (1.0 - ck.total_time.as_ns() as f64 / plain.total_time.as_ns() as f64) * 100.0
        );
    }
    Output::pair("ablation_checkpoint", markdown, &json)
}

/// §7 extension: multiple PM controllers.
///
/// Part 1 — throughput scaling of PMEM-Spec with 1/2/4 line-interleaved
/// controllers behind an order-preserving network (the paper's proposed
/// fix), on the benchmark suite.
///
/// Part 2 — the hazard the paper warns about: with independent
/// per-controller persist routes, a congestion-inducing program inverts a
/// single thread's persist order (undetectable by per-controller
/// speculation buffers); the order-preserving network eliminates it.
fn multi_pmc(args: &BenchArgs) -> Output {
    let controllers = [1usize, 2, 4];
    let one_seed = &seeds()[..1];
    let mut spec = SweepSpec::new(
        controllers
            .iter()
            .map(|&c| SimConfig::asplos21(8).with_pm_controllers(c, PmcNetworkOrder::Fifo))
            .collect(),
    );
    for ci in 0..controllers.len() {
        spec.add_grid(ci, &[DesignKind::PmemSpec], one_seed, |b| {
            default_fases(b) / 2
        });
    }
    let results = spec.run(args);
    let mut scaling = Table::new(
        "Multi-controller scaling (PMEM-Spec, 8 cores, ordered network)",
        &[
            ("controllers", "controllers"),
            ("geomean throughput vs 1 controller", "relative_throughput"),
            ("order violations", "order_violations"),
        ],
    );
    let points: Vec<(f64, u64)> = (0..controllers.len())
        .map(|ci| pmemspec_geomean(&results, ci, one_seed, |r| r.persist_order_violations))
        .collect();
    let base = points[0].0;
    for (&c, &(geo, violations)) in controllers.iter().zip(&points) {
        scaling.push(vec![
            Cell::count(c as u64),
            Cell::fixed(geo / base, 3),
            Cell::count(violations),
        ]);
    }

    // The §7 hazard: two single-core systems.
    let networks = [
        ("order-preserving (proposed fix)", PmcNetworkOrder::Fifo),
        ("independent routes (hazard)", PmcNetworkOrder::Unordered),
    ];
    let reports = run_systems(args, networks.len(), |i| {
        let cfg = SimConfig::asplos21(1).with_pm_controllers(2, networks[i].1);
        (cfg, synthetic::cross_controller_inversion(2, 50))
    });
    let mut hazard = Table::new(
        "The §7 hazard: persist-order across controllers (flood program)",
        &[
            ("network", "network"),
            ("order violations", "order_violations"),
            ("FASEs committed", "committed"),
        ],
    );
    for ((label, _), r) in networks.iter().zip(&reports) {
        hazard.push(vec![
            Cell::text(label),
            Cell::count(r.persist_order_violations),
            Cell::count(r.fases_committed),
        ]);
    }
    tables_output("multi_pmc", &[("scaling", &scaling), ("hazard", &hazard)])
}

/// WHISPER-style census of the benchmark suite: static FASE shapes plus
/// the dynamic inter-thread dependency counts that §8.4's store-
/// misspeculation-rarity argument rests on ("typical PM applications have
/// almost zero inter-thread dependencies in a 50 micro-second window").
fn characterize(args: &BenchArgs) -> Output {
    let fases_for = |b: Benchmark| if b == Benchmark::Memcached { 100 } else { 300 };
    let seed = WorkloadParams::small(8).seed;
    let mut spec = SweepSpec::new(vec![SimConfig::asplos21(8)]);
    for b in Benchmark::ALL {
        spec.add(0, b, DesignKind::PmemSpec, seed, fases_for(b));
    }
    let results = spec.run(args);
    let mut table = Table::new(
        "WHISPER-style workload census (8 threads)",
        &[
            ("benchmark", "benchmark"),
            ("FASEs", "fases"),
            ("ops/FASE", "ops_per_fase"),
            ("PM st/FASE", "pm_stores_per_fase"),
            ("PM ld/FASE", "pm_reads_per_fase"),
            ("orders/FASE", "ordering_points_per_fase"),
            ("locks/FASE", "locks_per_fase"),
            ("lines/FASE", "lines_written_per_fase"),
            ("read-only", "read_only_frac"),
            ("WAW≤window", "waw_in_window"),
            ("WAW≤50µs", "waw_in_50us"),
            ("RAW≤window", "raw_in_window"),
        ],
    );
    for b in Benchmark::ALL {
        let g = b.generate(&workload_params(8, fases_for(b), seed));
        let p = characterize::profile(&g.program);
        let r = results.report(0, b, DesignKind::PmemSpec, seed);
        table.push(vec![
            Cell::text(b.label()),
            Cell::count(p.fases),
            Cell::fixed(p.ops_per_fase, 1),
            Cell::fixed(p.pm_stores_per_fase, 1),
            Cell::fixed(p.pm_reads_per_fase, 1),
            Cell::fixed(p.ordering_points_per_fase, 1),
            Cell::fixed(p.locks_per_fase, 2),
            Cell::fixed(p.lines_written_per_fase, 1),
            Cell::new(
                format!("{:.0}%", p.read_only_fraction * 100.0),
                Json::Num(p.read_only_fraction),
            ),
            Cell::count(r.stats.counter("whisper.waw_within_spec_window")),
            Cell::count(r.stats.counter("whisper.waw_within_50us")),
            Cell::count(r.stats.counter("whisper.raw_within_spec_window")),
        ]);
    }
    let (mut markdown, json) = tables("characterize", &[("rows", &table)]);
    markdown.push_str(
        "\nWAW≤window counts same-line persists from different threads within the \
         speculation window (160 ns at 8 cores) — the store-misspeculation surface. \
         Store misspeculation additionally needs the later critical section's persist \
         to *arrive first*, which never happened in any run (§8.4).\n",
    );
    Output::pair("characterize", markdown, &json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_complete() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
        for expected in [
            "table3",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "misspec",
            "ablation_detect",
            "ablation_checkpoint",
            "extended",
            "multi_pmc",
            "characterize",
            "breakdown",
            "lint",
            "crashfuzz",
            "litmus_exhaustive",
        ] {
            assert!(names.contains(&expected), "{expected} missing");
        }
        assert_eq!(EXPERIMENTS.len(), 15);
    }

    #[test]
    fn select_resolves_names_in_order_and_rejects_unknown_ones() {
        let all = select(&[]).expect("empty selects all");
        assert_eq!(all.len(), EXPERIMENTS.len());
        assert_eq!(all.last().map(|(n, _)| *n), Some("fig10"));
        let some = select(&["fig12".into(), "table3".into()]).expect("known names");
        let names: Vec<&str> = some.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["fig12", "table3"]);
        assert_eq!(
            select(&["table3".into(), "fig13".into()]).map(|v| v.len()),
            Err("fig13".to_string())
        );
    }

    /// Every file of `output` equals its committed copy under both
    /// `results/` and the reduced grid's `results/smoke/`, and no check
    /// failed. Only entries that ignore `PMEMSPEC_SMOKE` qualify.
    fn assert_matches_committed(output: &Output) {
        assert!(output.failures.is_empty(), "{:?}", output.failures);
        for dir in ["results", "results/smoke"] {
            for (file, contents) in &output.files {
                let path = format!("{}/../../{dir}/{file}", env!("CARGO_MANIFEST_DIR"));
                let committed =
                    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
                assert!(*contents == committed, "{file} differs from {path}");
            }
        }
    }

    /// Table 3 runs no simulation and ignores `PMEMSPEC_SMOKE`, so its
    /// artifact can be checked against the committed copies directly.
    #[test]
    fn table3_matches_the_committed_artifact() {
        let output = table3(&BenchArgs::default());
        assert_eq!(output.files.len(), 2);
        assert_matches_committed(&output);
    }

    /// The exhaustive model check is independent of `PMEMSPEC_SMOKE`
    /// and its 30 pairs have at most a few hundred states each, so the
    /// committed report can be regenerated in a debug build.
    #[test]
    fn litmus_exhaustive_matches_the_committed_artifact() {
        let output = litmus_exhaustive(&BenchArgs::default());
        assert_eq!(output.files.len(), 2);
        assert_matches_committed(&output);
    }
}

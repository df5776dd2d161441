//! Parallel sweep harness for the experiment suite.
//!
//! Every figure regenerates from a grid of independent simulation
//! points — (config, benchmark, design, seed) — and the simulator is
//! single-threaded and deterministic, so the grid parallelizes
//! perfectly across host cores. This module provides:
//!
//! * a job model ([`SweepSpec`] / [`PointKey`] / [`PointResult`]),
//! * a dependency-free worker pool on [`std::thread::scope`] (the
//!   workspace builds offline with no external crates, and stays that
//!   way),
//! * memoized workload generation and lowering shared across points
//!   (four designs x three seeds per benchmark previously regenerated
//!   identical inputs),
//! * deterministic aggregation: results come back indexed by
//!   [`PointKey`] and are reduced in spec order, so a parallel sweep is
//!   byte-identical to `--serial`.
//!
//! Worker count: `--jobs N` > `PMEMSPEC_JOBS` >
//! [`std::thread::available_parallelism`]; `--serial` forces one
//! worker through the same code path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use pmem_spec::{run_program, Probe, RunReport, System};
use pmemspec_engine::SimConfig;
use pmemspec_isa::abs::AbsProgram;
use pmemspec_isa::{lower_program, lower_program_with_meta, DesignKind, Program, ProgramMeta};
use pmemspec_workloads::{Benchmark, WorkloadParams};

use crate::args::BenchArgs;

/// Identity of one simulation point inside a sweep.
///
/// The derived ordering (config, then benchmark, then design, then
/// seed) is the canonical reduction order helpers aggregate in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PointKey {
    /// Index into [`SweepSpec::configs`].
    pub cfg: usize,
    /// The workload.
    pub benchmark: Benchmark,
    /// The hardware/ISA design.
    pub design: DesignKind,
    /// The generation seed.
    pub seed: u64,
}

/// One point of a sweep: its identity plus the FASE count to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPoint {
    /// Identity (also the aggregation key).
    pub key: PointKey,
    /// FASEs per thread for this point's workload.
    pub fases: usize,
}

/// A grid of simulation points to run.
#[derive(Debug, Clone, Default)]
pub struct SweepSpec {
    /// The simulator configurations points refer to by index.
    pub configs: Vec<SimConfig>,
    /// The points, in the order results will be reduced.
    pub points: Vec<SweepPoint>,
}

impl SweepSpec {
    /// A spec over the given configurations, with no points yet.
    pub fn new(configs: Vec<SimConfig>) -> Self {
        SweepSpec {
            configs,
            points: Vec::new(),
        }
    }

    /// Adds one point.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is out of range.
    pub fn add(
        &mut self,
        cfg: usize,
        benchmark: Benchmark,
        design: DesignKind,
        seed: u64,
        fases: usize,
    ) {
        assert!(cfg < self.configs.len(), "config index {cfg} out of range");
        self.points.push(SweepPoint {
            key: PointKey {
                cfg,
                benchmark,
                design,
                seed,
            },
            fases,
        });
    }

    /// Adds the full (benchmark x design x seed) grid for one config,
    /// with per-benchmark FASE counts.
    pub fn add_grid(
        &mut self,
        cfg: usize,
        designs: &[DesignKind],
        seeds: &[u64],
        fases: impl Fn(Benchmark) -> usize,
    ) {
        for b in Benchmark::ALL {
            let n = fases(b);
            for &d in designs {
                for &s in seeds {
                    self.add(cfg, b, d, s, n);
                }
            }
        }
    }

    /// Runs every point and returns the results, reduced
    /// deterministically regardless of worker count.
    ///
    /// # Panics
    ///
    /// Panics if two points share a [`PointKey`] (the key is the
    /// aggregation identity) or if any point fails to build a valid
    /// system.
    pub fn run(&self, args: &BenchArgs) -> SweepResults {
        let n = self.points.len();
        let mut seen = HashMap::with_capacity(n);
        for (i, p) in self.points.iter().enumerate() {
            if let Some(prev) = seen.insert(p.key, i) {
                panic!("duplicate sweep point {:?} (indices {prev} and {i})", p.key);
            }
        }
        clear_memo();
        let workers = worker_count(args);
        let started = AtomicUsize::new(0);
        let points = parallel_map(n, workers, |i| {
            let p = self.points[i];
            let cfg = &self.configs[p.key.cfg];
            let k = started.fetch_add(1, Ordering::Relaxed) + 1;
            eprintln!(
                "point {k}/{n}: {}/{} cores={} seed={}",
                p.key.benchmark.label(),
                p.key.design.label(),
                cfg.cores,
                p.key.seed
            );
            run_point(p.key.benchmark, p.key.design, cfg, p.fases, p.key.seed)
        });
        let results = SweepResults::from_points(
            self.points
                .iter()
                .zip(points)
                .map(|(p, (report, note))| PointResult {
                    key: p.key,
                    fases: p.fases,
                    report,
                    note,
                })
                .collect(),
        );
        // Misspeculation notes, attributed to their point, in spec
        // order — never interleaved between workers.
        for p in results.iter() {
            if let Some(note) = &p.note {
                eprintln!("{note}");
            }
        }
        results
    }
}

/// The outcome of one sweep point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Which point this is.
    pub key: PointKey,
    /// FASEs per thread the point ran with.
    pub fases: usize,
    /// The full simulation report.
    pub report: RunReport,
    /// Misspeculation note for the record, when the run saw any.
    pub note: Option<String>,
}

/// Results of a sweep, indexed by [`PointKey`] and iterable in spec
/// order.
#[derive(Debug, Clone, Default)]
pub struct SweepResults {
    points: Vec<PointResult>,
    index: HashMap<PointKey, usize>,
}

impl SweepResults {
    /// Builds results from per-point outcomes (kept in the given
    /// order).
    ///
    /// # Panics
    ///
    /// Panics on duplicate keys.
    pub fn from_points(points: Vec<PointResult>) -> Self {
        let mut index = HashMap::with_capacity(points.len());
        for (i, p) in points.iter().enumerate() {
            assert!(
                index.insert(p.key, i).is_none(),
                "duplicate point {:?}",
                p.key
            );
        }
        SweepResults { points, index }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the sweep had no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points in spec order.
    pub fn iter(&self) -> impl Iterator<Item = &PointResult> {
        self.points.iter()
    }

    /// The result for a key, if that point ran.
    pub fn get(&self, key: PointKey) -> Option<&PointResult> {
        self.index.get(&key).map(|&i| &self.points[i])
    }

    /// The report for a (config, benchmark, design, seed) point.
    ///
    /// # Panics
    ///
    /// Panics if the point is not part of the sweep.
    pub fn report(
        &self,
        cfg: usize,
        benchmark: Benchmark,
        design: DesignKind,
        seed: u64,
    ) -> &RunReport {
        let key = PointKey {
            cfg,
            benchmark,
            design,
            seed,
        };
        &self
            .get(key)
            .unwrap_or_else(|| panic!("no such sweep point: {key:?}"))
            .report
    }

    /// Arithmetic-mean throughput across `seeds`, accumulated in seed
    /// order (bit-identical to the historical serial loop).
    pub fn mean_throughput(
        &self,
        cfg: usize,
        benchmark: Benchmark,
        design: DesignKind,
        seeds: &[u64],
    ) -> f64 {
        let mut sum = 0.0;
        for &seed in seeds {
            sum += self.report(cfg, benchmark, design, seed).throughput();
        }
        sum / seeds.len() as f64
    }
}

impl<'a> IntoIterator for &'a SweepResults {
    type Item = &'a PointResult;
    type IntoIter = std::slice::Iter<'a, PointResult>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

/// Runs one (benchmark, design, config, seed) point through the
/// memoized generate/lower path and returns the report plus an
/// attributed misspeculation note, if the run saw any.
pub fn run_point(
    benchmark: Benchmark,
    design: DesignKind,
    cfg: &SimConfig,
    fases: usize,
    seed: u64,
) -> (RunReport, Option<String>) {
    let program = lowered_program(benchmark, design, cfg.cores, fases, seed);
    let report = run_program(cfg.clone(), program).expect("valid experiment");
    let note = (!report.misspeculation_free()).then(|| {
        // Large core counts widen the speculation window (cores x path
        // latency), which can trip rare conservative detections;
        // recovery preserves every FASE, and the cost is already in the
        // measured throughput. Surface it for the record.
        format!(
            "note: {benchmark}/{design} ({} cores, seed {seed}): {} load / {} store \
             misspeculations detected, {} FASEs re-executed",
            cfg.cores,
            report.load_misspec_detected,
            report.store_misspec_detected,
            report.fases_aborted
        )
    });
    (report, note)
}

/// Like [`run_point`], but under the probe `probe` builds for the
/// point's system and lowering metadata (a [`pmem_spec::Profiler`],
/// a [`pmem_spec::SpanTracer`], ...), returned after the run. Probes
/// observe only, so the report matches [`run_point`]'s byte-for-byte.
pub fn run_point_with<P: Probe>(
    benchmark: Benchmark,
    design: DesignKind,
    cfg: &SimConfig,
    fases: usize,
    seed: u64,
    probe: impl FnOnce(&System, &ProgramMeta) -> P,
) -> (RunReport, P) {
    let (program, meta) = lowered_program_with_meta(benchmark, design, cfg.cores, fases, seed);
    let system = System::new(cfg.clone(), program).expect("valid experiment");
    let mut probe = probe(&system, &meta);
    let (report, _) = system.run_with(&mut probe);
    (report, probe)
}

// ---------------------------------------------------------------------
// Worker pool

/// How many workers a run should use: `--serial` forces 1, then
/// `--jobs N`, then `PMEMSPEC_JOBS`, then the host's available
/// parallelism.
pub fn worker_count(args: &BenchArgs) -> usize {
    if args.serial {
        return 1;
    }
    if let Some(n) = args.jobs {
        return n;
    }
    if let Some(n) = std::env::var("PMEMSPEC_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Maps `f` over `0..jobs` on `workers` scoped threads, returning the
/// results in index order. With one worker (or one job) it runs inline
/// on the caller's thread — the `--serial` escape hatch takes exactly
/// the same code path as the parallel one except for the spawn.
///
/// # Panics
///
/// A panic inside `f` propagates to the caller (via
/// [`std::thread::scope`]'s implicit join).
pub fn parallel_map<T, F>(jobs: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || jobs <= 1 {
        return (0..jobs).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers.min(jobs) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let result = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

// ---------------------------------------------------------------------
// Memoized generation + lowering

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GenKey {
    benchmark: Benchmark,
    threads: usize,
    fases: usize,
    seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LowerKey {
    design: DesignKind,
    gen: GenKey,
}

type MemoMap<K, V> = Mutex<HashMap<K, std::sync::Arc<OnceLock<V>>>>;

struct Memo {
    generated: MemoMap<GenKey, AbsProgram>,
    lowered: MemoMap<LowerKey, Arc<Program>>,
    lowered_meta: MemoMap<LowerKey, (Arc<Program>, Arc<ProgramMeta>)>,
}

fn memo() -> &'static Memo {
    static MEMO: OnceLock<Memo> = OnceLock::new();
    MEMO.get_or_init(|| Memo {
        generated: Mutex::new(HashMap::new()),
        lowered: Mutex::new(HashMap::new()),
        lowered_meta: Mutex::new(HashMap::new()),
    })
}

/// Drops every memoized program. Called at the start of each
/// [`SweepSpec::run`] so long multi-sweep binaries (fig10 runs three
/// grids) do not accumulate dead programs.
pub fn clear_memo() {
    memo().generated.lock().expect("memo lock").clear();
    memo().lowered.lock().expect("memo lock").clear();
    memo().lowered_meta.lock().expect("memo lock").clear();
}

fn memo_get<K, V, F>(map: &MemoMap<K, V>, key: K, build: F) -> std::sync::Arc<OnceLock<V>>
where
    K: std::hash::Hash + Eq + Copy,
    V: Clone,
    F: FnOnce() -> V,
{
    let cell = {
        let mut map = map.lock().expect("memo lock");
        map.entry(key).or_default().clone()
    };
    // Build outside the map lock; concurrent requests for the same key
    // block on the cell, not the whole cache.
    cell.get_or_init(build);
    cell
}

/// The abstract program for a workload point, memoized process-wide so
/// the designs and seeds of a sweep share one generation.
pub fn generated_program(
    benchmark: Benchmark,
    threads: usize,
    fases: usize,
    seed: u64,
) -> AbsProgram {
    let key = GenKey {
        benchmark,
        threads,
        fases,
        seed,
    };
    let cell = memo_get(&memo().generated, key, || {
        let params = WorkloadParams::small(threads)
            .with_fases(fases)
            .with_seed(seed);
        benchmark.generate(&params).program
    });
    cell.get().expect("initialized above").clone()
}

/// The lowered per-design program for a workload point, memoized on
/// top of [`generated_program`].
pub fn lowered_program(
    benchmark: Benchmark,
    design: DesignKind,
    threads: usize,
    fases: usize,
    seed: u64,
) -> Arc<Program> {
    let gen = GenKey {
        benchmark,
        threads,
        fases,
        seed,
    };
    let key = LowerKey { design, gen };
    let cell = memo_get(&memo().lowered, key, || {
        let abs = generated_program(benchmark, threads, fases, seed);
        Arc::new(lower_program(design, &abs))
    });
    cell.get().expect("initialized above").clone()
}

/// Like [`lowered_program`], but pairs the program with its lowering
/// metadata ([`ProgramMeta`]) for span tracing and static analysis.
/// Memoized separately from the meta-less path (the two lowerings
/// produce equal programs; a test pins that).
pub fn lowered_program_with_meta(
    benchmark: Benchmark,
    design: DesignKind,
    threads: usize,
    fases: usize,
    seed: u64,
) -> (Arc<Program>, Arc<ProgramMeta>) {
    let gen = GenKey {
        benchmark,
        threads,
        fases,
        seed,
    };
    let key = LowerKey { design, gen };
    let cell = memo_get(&memo().lowered_meta, key, || {
        let abs = generated_program(benchmark, threads, fases, seed);
        let (program, meta) = lower_program_with_meta(design, &abs);
        (Arc::new(program), Arc::new(meta))
    });
    cell.get().expect("initialized above").clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmemspec_engine::clock::Cycle;
    use pmemspec_engine::stats::Stats;

    fn key(cfg: usize, benchmark: Benchmark, design: DesignKind, seed: u64) -> PointKey {
        PointKey {
            cfg,
            benchmark,
            design,
            seed,
        }
    }

    fn result(k: PointKey, committed: u64, ns: u64) -> PointResult {
        PointResult {
            key: k,
            fases: 1,
            report: RunReport {
                design: k.design,
                total_time: Cycle::from_ns(ns),
                fases_committed: committed,
                fases_aborted: 0,
                load_misspec_detected: 0,
                store_misspec_detected: 0,
                stale_reads_ground_truth: 0,
                store_inversions_ground_truth: 0,
                persist_order_violations: 0,
                spec_buffer_overflows: 0,
                pm_reads: 0,
                pm_writes: 0,
                stats: Stats::new(),
            },
            note: None,
        }
    }

    #[test]
    fn point_key_orders_by_cfg_then_benchmark_then_design_then_seed() {
        let base = key(0, Benchmark::ArraySwaps, DesignKind::IntelX86, 11);
        assert!(base < key(1, Benchmark::ArraySwaps, DesignKind::IntelX86, 11));
        assert!(base < key(0, Benchmark::Queue, DesignKind::IntelX86, 11));
        assert!(base < key(0, Benchmark::ArraySwaps, DesignKind::PmemSpec, 11));
        assert!(base < key(0, Benchmark::ArraySwaps, DesignKind::IntelX86, 42));
        // Config dominates benchmark, benchmark dominates design,
        // design dominates seed.
        assert!(
            key(0, Benchmark::Queue, DesignKind::PmemSpec, 1337)
                < key(1, Benchmark::ArraySwaps, DesignKind::IntelX86, 11)
        );
        assert!(
            key(0, Benchmark::ArraySwaps, DesignKind::PmemSpec, 1337)
                < key(0, Benchmark::Queue, DesignKind::IntelX86, 11)
        );
        let mut keys = vec![
            key(1, Benchmark::ArraySwaps, DesignKind::IntelX86, 11),
            key(0, Benchmark::Queue, DesignKind::IntelX86, 11),
            key(0, Benchmark::ArraySwaps, DesignKind::PmemSpec, 42),
            key(0, Benchmark::ArraySwaps, DesignKind::PmemSpec, 11),
        ];
        keys.sort();
        assert_eq!(
            keys,
            vec![
                key(0, Benchmark::ArraySwaps, DesignKind::PmemSpec, 11),
                key(0, Benchmark::ArraySwaps, DesignKind::PmemSpec, 42),
                key(0, Benchmark::Queue, DesignKind::IntelX86, 11),
                key(1, Benchmark::ArraySwaps, DesignKind::IntelX86, 11),
            ]
        );
    }

    #[test]
    fn aggregation_means_in_seed_order() {
        let b = Benchmark::Hashmap;
        let d = DesignKind::PmemSpec;
        // 10 FASEs in 1 us = 1e7 FASEs/s; 20 in 1 us = 2e7.
        let results = SweepResults::from_points(vec![
            result(key(0, b, d, 11), 10, 1_000),
            result(key(0, b, d, 42), 20, 1_000),
        ]);
        assert_eq!(results.len(), 2);
        let mean = results.mean_throughput(0, b, d, &[11, 42]);
        let expected = (results.report(0, b, d, 11).throughput()
            + results.report(0, b, d, 42).throughput())
            / 2.0;
        assert_eq!(mean.to_bits(), expected.to_bits());
    }

    #[test]
    #[should_panic(expected = "duplicate point")]
    fn duplicate_keys_rejected() {
        let k = key(0, Benchmark::Queue, DesignKind::Hops, 11);
        let _ = SweepResults::from_points(vec![result(k, 1, 10), result(k, 1, 10)]);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(100, 8, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        let serial = parallel_map(100, 1, |i| i * i);
        assert_eq!(out, serial);
    }

    #[test]
    fn memoized_programs_are_reused_and_identical() {
        clear_memo();
        let a = lowered_program(Benchmark::ArraySwaps, DesignKind::PmemSpec, 2, 5, 11);
        let b = lowered_program(Benchmark::ArraySwaps, DesignKind::PmemSpec, 2, 5, 11);
        assert_eq!(a, b);
        // A fresh, unmemoized build matches too.
        clear_memo();
        let c = lowered_program(Benchmark::ArraySwaps, DesignKind::PmemSpec, 2, 5, 11);
        assert_eq!(a, c);
    }

    #[test]
    fn meta_lowering_matches_the_plain_path() {
        clear_memo();
        let plain = lowered_program(Benchmark::Queue, DesignKind::PmemSpec, 2, 5, 11);
        let (with_meta, meta) =
            lowered_program_with_meta(Benchmark::Queue, DesignKind::PmemSpec, 2, 5, 11);
        assert_eq!(plain, with_meta);
        assert_eq!(meta.threads.len(), plain.thread_count());
        for (i, t) in meta.threads.iter().enumerate() {
            assert_eq!(t.ops.len(), plain.thread(i).ops().len());
        }
    }

    #[test]
    fn worker_count_honors_serial_and_jobs() {
        let serial = BenchArgs::serial();
        assert_eq!(worker_count(&serial), 1);
        let jobs = BenchArgs::from_iter(["--jobs", "3"]);
        assert_eq!(worker_count(&jobs), 3);
    }
}

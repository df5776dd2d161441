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
//! * per-run programs: a run counts up front how many points use each
//!   lowered program and how many lowerings use each generated one,
//!   builds each once on first use, and drops it after its last use, so
//!   a grid holds only the programs its in-flight points still need,
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

use pmem_spec::{Probe, RunReport, System};
use pmemspec_engine::SimConfig;
use pmemspec_isa::abs::AbsProgram;
use pmemspec_isa::{lower_program_with_meta, DesignKind, Program, ProgramMeta};
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
    /// Same as [`SweepSpec::run_with`].
    pub fn run(&self, args: &BenchArgs) -> SweepResults {
        self.run_with(args, |_, _| ()).0
    }

    /// Like [`SweepSpec::run`], but runs each point under the probe
    /// `probe` builds for its system and lowering metadata (a
    /// [`pmem_spec::Profiler`], a [`pmem_spec::SpanTracer`], ...) and
    /// also returns the probes after their runs, in spec order. Probes
    /// observe only, so the results match [`SweepSpec::run`]'s.
    ///
    /// # Panics
    ///
    /// Panics if two points share a [`PointKey`] (the key is the
    /// aggregation identity) or if any point fails to build a valid
    /// system.
    pub fn run_with<P: Probe + Send>(
        &self,
        args: &BenchArgs,
        probe: impl Fn(&System, &ProgramMeta) -> P + Sync,
    ) -> (SweepResults, Vec<P>) {
        let n = self.points.len();
        let mut seen = HashMap::with_capacity(n);
        for (i, p) in self.points.iter().enumerate() {
            if let Some(prev) = seen.insert(p.key, i) {
                panic!("duplicate sweep point {:?} (indices {prev} and {i})", p.key);
            }
        }
        let programs = Programs::new(self);
        let started = AtomicUsize::new(0);
        let runs = parallel_map(n, worker_count(args), |i| {
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
            let (program, meta) = programs.take(p.lower_key(cfg));
            let system = System::new(cfg.clone(), program).expect("valid experiment");
            let mut probe = probe(&system, &meta);
            // The run needs only the program; free the metadata first.
            drop(meta);
            let (report, _) = system.run_with(&mut probe);
            (report, probe)
        });
        assert!(programs.is_empty(), "every counted program use was taken");
        let mut probes = Vec::with_capacity(n);
        let results = SweepResults::from_points(
            self.points
                .iter()
                .zip(runs)
                .map(|(p, (report, probe))| {
                    probes.push(probe);
                    PointResult {
                        key: p.key,
                        fases: p.fases,
                        note: misspeculation_note(p.key, self.configs[p.key.cfg].cores, &report),
                        report,
                    }
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
        (results, probes)
    }
}

impl SweepPoint {
    /// What this point's lowered program depends on under `cfg`.
    fn lower_key(&self, cfg: &SimConfig) -> LowerKey {
        LowerKey {
            design: self.key.design,
            gen: GenKey {
                benchmark: self.key.benchmark,
                threads: cfg.cores,
                fases: self.fases,
                seed: self.key.seed,
            },
        }
    }
}

/// The record line for a run that saw misspeculation, if it did.
fn misspeculation_note(key: PointKey, cores: usize, report: &RunReport) -> Option<String> {
    // Large core counts widen the speculation window (cores x path
    // latency), which can trip rare conservative detections; recovery
    // preserves every FASE, and the cost is already in the measured
    // throughput. Surface it for the record.
    (!report.misspeculation_free()).then(|| {
        format!(
            "note: {}/{} ({cores} cores, seed {}): {} load / {} store \
             misspeculations detected, {} FASEs re-executed",
            key.benchmark,
            key.design,
            key.seed,
            report.load_misspec_detected,
            report.store_misspec_detected,
            report.fases_aborted
        )
    })
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
// Per-run programs

/// The workload parameters of a point with `threads` threads, `fases`
/// FASEs per thread and generation seed `seed`.
pub fn workload_params(threads: usize, fases: usize, seed: u64) -> WorkloadParams {
    WorkloadParams::small(threads)
        .with_fases(fases)
        .with_seed(seed)
}

/// What a generated (abstract) program depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct GenKey {
    benchmark: Benchmark,
    threads: usize,
    fases: usize,
    seed: u64,
}

/// What a lowered program depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct LowerKey {
    design: DesignKind,
    gen: GenKey,
}

/// Values each built at most once, on first use, and counted down per
/// use: an entry leaves the table with its last counted use, so the
/// value lives only as long as its last user holds it.
struct Table<K, V> {
    cells: Mutex<HashMap<K, Entry<V>>>,
}

/// A key's remaining uses and its value's cell.
type Entry<V> = (usize, Arc<OnceLock<V>>);

impl<K: std::hash::Hash + Eq + std::fmt::Debug, V: Clone> Table<K, V> {
    /// A table expecting one use per occurrence of a key in `uses`.
    fn counting(uses: impl IntoIterator<Item = K>) -> Self {
        let mut cells: HashMap<K, Entry<V>> = HashMap::new();
        for key in uses {
            cells.entry(key).or_default().0 += 1;
        }
        Table {
            cells: Mutex::new(cells),
        }
    }

    /// One counted use of `key`'s value, built by `build` on the first.
    ///
    /// # Panics
    ///
    /// Panics if `key` has no use left (it would be built again).
    fn take(&self, key: &K, build: impl FnOnce() -> V) -> V {
        let cell = {
            let mut cells = self.cells.lock().expect("program table lock");
            let Some((uses, cell)) = cells.get_mut(key) else {
                panic!("{key:?} used more often than counted");
            };
            *uses -= 1;
            let cell = Arc::clone(cell);
            if *uses == 0 {
                cells.remove(key);
            }
            cell
        };
        // Build outside the table lock; concurrent users of one key
        // block on its cell, not the whole table.
        cell.get_or_init(build).clone()
    }

    fn is_empty(&self) -> bool {
        self.cells.lock().expect("program table lock").is_empty()
    }
}

/// The programs of one [`SweepSpec::run_with`] call: each lowered
/// program is counted once per point that runs it, each generated
/// program once per lowering built from it.
struct Programs {
    generated: Table<GenKey, Arc<AbsProgram>>,
    lowered: Table<LowerKey, (Arc<Program>, Arc<ProgramMeta>)>,
}

impl Programs {
    fn new(spec: &SweepSpec) -> Self {
        let lowerings: Vec<LowerKey> = spec
            .points
            .iter()
            .map(|p| p.lower_key(&spec.configs[p.key.cfg]))
            .collect();
        let distinct: std::collections::HashSet<LowerKey> = lowerings.iter().copied().collect();
        Programs {
            generated: Table::counting(distinct.into_iter().map(|k| k.gen)),
            lowered: Table::counting(lowerings),
        }
    }

    /// One point's lowered program and its lowering metadata.
    fn take(&self, key: LowerKey) -> (Arc<Program>, Arc<ProgramMeta>) {
        self.lowered.take(&key, || {
            let gen = key.gen;
            let abs = self.generated.take(&gen, || {
                let params = workload_params(gen.threads, gen.fases, gen.seed);
                Arc::new(gen.benchmark.generate(&params).program)
            });
            let (program, meta) = lower_program_with_meta(key.design, &abs);
            (Arc::new(program), Arc::new(meta))
        })
    }

    fn is_empty(&self) -> bool {
        self.generated.is_empty() && self.lowered.is_empty()
    }
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

    /// The fig11/fig12 shape: two configs with one core count share
    /// each lowered program, and two designs share each generated one.
    fn shared_spec() -> SweepSpec {
        let cfg = SimConfig::asplos21(2);
        let mut spec = SweepSpec::new(vec![cfg.clone(), cfg.with_spec_buffer_entries(4)]);
        for c in 0..2 {
            for d in [DesignKind::Hops, DesignKind::PmemSpec] {
                spec.add(c, Benchmark::Queue, d, 11, 5);
            }
        }
        spec
    }

    fn uses<K: Ord + Copy, V>(table: &Table<K, V>) -> Vec<(K, usize)> {
        let cells = table.cells.lock().expect("program table lock");
        let mut uses: Vec<(K, usize)> = cells.iter().map(|(k, (n, _))| (*k, *n)).collect();
        uses.sort_unstable();
        uses
    }

    #[test]
    fn programs_are_built_once_and_dropped_after_their_last_use() {
        let spec = shared_spec();
        let programs = Programs::new(&spec);
        let keys: Vec<LowerKey> = (spec.points.iter())
            .map(|p| p.lower_key(&spec.configs[p.key.cfg]))
            .collect();
        assert_eq!(uses(&programs.lowered), [(keys[0], 2), (keys[1], 2)]);
        assert_eq!(uses(&programs.generated), [(keys[0].gen, 2)]);

        let taken: Vec<Arc<Program>> = keys.iter().map(|&k| programs.take(k).0).collect();
        // Each config's points run the same lowering, not a rebuilt one.
        assert!(Arc::ptr_eq(&taken[0], &taken[2]));
        assert!(Arc::ptr_eq(&taken[1], &taken[3]));
        assert!(!Arc::ptr_eq(&taken[0], &taken[1]));
        assert!(programs.is_empty());
        // No point holds a program any more, so none is left alive.
        assert!(taken.iter().all(|p| Arc::strong_count(p) == 2));

        // A run takes exactly the counted uses (it asserts the table
        // is empty when it returns).
        assert_eq!(spec.run(&BenchArgs::serial()).len(), spec.points.len());
    }

    #[test]
    fn table_builds_each_key_once_and_rejects_uncounted_uses() {
        let table: Table<u8, usize> = Table::counting([1, 2, 1]);
        let builds = AtomicUsize::new(0);
        let build = || builds.fetch_add(1, Ordering::Relaxed);
        assert_eq!(table.take(&1, build), 0);
        assert_eq!(table.take(&1, build), 0);
        assert_eq!(table.take(&2, build), 1);
        assert_eq!(builds.load(Ordering::Relaxed), 2);
        assert!(table.is_empty());
        let again = std::panic::catch_unwind(|| table.take(&1, || 0));
        assert!(again.is_err(), "a key past its last use is not rebuilt");
    }

    #[test]
    fn sweep_reports_match_fresh_runs() {
        let spec = shared_spec();
        let results = spec.run(&BenchArgs::serial());
        for p in &results {
            let cfg = spec.configs[p.key.cfg].clone();
            let params = workload_params(cfg.cores, p.fases, p.key.seed);
            let abs = p.key.benchmark.generate(&params).program;
            let fresh = System::new(cfg, pmemspec_isa::lower_program(p.key.design, &abs))
                .expect("valid system")
                .run();
            assert_eq!(
                format!("{:?}", p.report),
                format!("{fresh:?}"),
                "{:?}",
                p.key
            );
        }
    }

    #[test]
    fn worker_count_honors_serial_and_jobs() {
        let serial = BenchArgs::serial();
        assert_eq!(worker_count(&serial), 1);
        let jobs = BenchArgs::try_parse(["--jobs", "3"]).expect("valid flags");
        assert_eq!(worker_count(&jobs), 3);
    }
}

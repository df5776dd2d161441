//! The benchmark's workloads: their shapes, why each exists, and which
//! per-layer metric should move which end-to-end metric on it.

use pmemspec_workloads::Benchmark;

/// The seed the committed artifacts use (`results/BENCH_simulator.json`
/// and every figure's first seed).
pub const DEFAULT_SEED: u64 = pmemspec_bench::SEEDS[0];

/// A seed kept out of tuning: a later performance claim must also hold
/// on it.
pub const HELD_OUT_SEED: u64 = pmemspec_bench::SEEDS[2];

/// Offsets from `--seed` to the crash grid's three workload seeds: at
/// the default seed they are `crashfuzz`'s seeds (11, 42, 1337).
pub const CRASH_SEED_OFFSETS: [u64; 3] = [
    0,
    pmemspec_bench::SEEDS[1] - pmemspec_bench::SEEDS[0],
    pmemspec_bench::SEEDS[2] - pmemspec_bench::SEEDS[0],
];

/// What one workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Every (design × benchmark) point on `SimConfig::asplos21(cores)`:
    /// `System::new` + `run_full` on a program lowered beforehand.
    Grid {
        /// Simulated cores (one thread each).
        cores: usize,
        /// FASEs per thread.
        fases: usize,
        /// FASEs per thread for Memcached (1 KiB values per SET).
        memcached_fases: usize,
    },
    /// The crash-consistency fuzz grid: per (benchmark × design ×
    /// seed) job, a lint, a boundary pre-run, a crash plan, then one
    /// trial per planned cycle plus completion. Like `crashfuzz`, it runs
    /// three workload seeds: `--seed` plus [`CRASH_SEED_OFFSETS`].
    Crash {
        /// Simulated threads.
        threads: usize,
        /// FASEs per thread.
        fases: usize,
        /// FASEs per thread for Memcached.
        memcached_fases: usize,
        /// Sampled crash cycles per job (completion is extra).
        crash_points: usize,
    },
}

impl Shape {
    /// FASEs per thread for `benchmark`.
    pub fn fases(self, benchmark: Benchmark) -> usize {
        let (fases, memcached) = match self {
            Shape::Grid {
                fases,
                memcached_fases,
                ..
            }
            | Shape::Crash {
                fases,
                memcached_fases,
                ..
            } => (fases, memcached_fases),
        };
        if benchmark == Benchmark::Memcached {
            memcached
        } else {
            fases
        }
    }

    /// Simulated cores / threads.
    pub fn cores(self) -> usize {
        match self {
            Shape::Grid { cores, .. } => cores,
            Shape::Crash { threads, .. } => threads,
        }
    }
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists.
    pub why: &'static str,
    /// What it runs.
    pub shape: Shape,
    /// (per-layer metric, end-to-end metric it should move here).
    pub moves: &'static [(&'static str, &'static str)],
    /// The paper's PMEM-Spec speedup over IntelX86 at this scale, and
    /// where it is reported.
    pub paper_speedup: Option<(f64, &'static str)>,
    /// Fewest point or trial samples a run takes, even past `--seconds`:
    /// enough for the tail percentile this workload reports (99 with
    /// 1,000, 98 with 500) to have ten samples beyond it on every run, so
    /// the percentile does not change between runs.
    pub min_samples: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fig9-8c",
        why: "the paper's headline 8-core Figure-9 grid: the dense run loop, the mem caches and \
              each design's persist machinery do nearly all the work; the event wheel stays \
              inside its ring",
        shape: Shape::Grid {
            cores: 8,
            fases: 400,
            memcached_fases: 120,
        },
        moves: &[
            ("core.run_ns_per_op.<design>", "sim_ops_per_s"),
            ("crashtest.oracle_us", "trials_per_s"),
            ("workloads.generate_ns_per_op", "setup_s"),
            ("isa.lower_ns_per_op", "setup_s"),
            ("core.build_us", "point_ms_p50 (little effect expected)"),
        ],
        paper_speedup: Some((1.272, "Figure 9, 8 cores: +27.2% over IntelX86")),
        min_samples: 1_000,
    },
    Workload {
        name: "scale-64c",
        why: "Figure 10's top point: saturated 64-core PM controller queues push PMEM-Spec's \
              persist events into the event wheel's overflow path, and lowering 64-thread \
              programs is a visible share of set-up",
        shape: Shape::Grid {
            cores: 64,
            fases: 16,
            memcached_fases: 5,
        },
        moves: &[
            ("core.run_ns_per_op.PMEM-Spec", "sim_ops_per_s"),
            ("core.run_ns_per_op.PMEM-Spec", "point_ms_tail"),
            (
                "workloads.generate_ns_per_op",
                "setup_s (largest effect of any workload)",
            ),
            (
                "isa.lower_ns_per_op",
                "setup_s (largest effect of any workload)",
            ),
        ],
        paper_speedup: Some((1.171, "Figure 10, 64 cores: +17.1% over IntelX86")),
        min_samples: 500,
    },
    Workload {
        name: "crash-2c",
        why: "crashfuzz's fuzz grid (3 workload seeds): thousands of tiny truncated runs where \
              System::new, the run_until loop, recovery and the oracle dominate; cost moved \
              into set-up shows here",
        shape: Shape::Crash {
            threads: 2,
            fases: 12,
            memcached_fases: 6,
            crash_points: 12,
        },
        moves: &[
            ("core.build_us", "trials_per_s"),
            ("core.build_us", "point_ms_p50"),
            ("core.run_boundaries_us", "trials_per_s"),
            ("core.run_until_us", "trials_per_s"),
            ("runtime.recover_us", "trials_per_s"),
            ("crashtest.oracle_us", "trials_per_s"),
            ("analyze.lint_us", "trials_per_s"),
        ],
        paper_speedup: None,
        min_samples: 1_000,
    },
];

/// The workload named `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

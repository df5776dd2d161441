//! Shared experiment harness for the paper's evaluation (§8).
//!
//! Every table, figure and validation artifact is one entry of the
//! [`experiments::EXPERIMENTS`] registry, run by the `experiments`
//! binary, which writes each entry's files under `--out` (default
//! `results`) and exits 1 if any entry's checks failed:
//!
//! | Experiment | Regenerates |
//! |---|---|
//! | `table3` | Table 3 (simulator configuration) |
//! | `fig9` | Figure 9 (8-core throughput, all designs, all benchmarks) |
//! | `fig11` | Figure 11 (speculation-buffer size sensitivity) |
//! | `fig12` | Figure 12 (persist-path latency sensitivity) |
//! | `misspec` | §8.4 (misspeculation rates + synthetic inducer sweep) |
//! | `ablation_detect` | Figure 4/6 (fetch- vs eviction-based detection) |
//! | `ablation_checkpoint` | §6.3 (incremental checkpointing) |
//! | `extended` | Figure 9 plus StrandWeaver |
//! | `multi_pmc` | §7 (multiple PM controllers) |
//! | `characterize` | WHISPER-style workload census |
//! | `breakdown` | cycle-accounting breakdown + per-FASE waterfalls |
//! | `lint` | static persistency verifier over the sweep pool |
//! | `crashfuzz` | persistency litmus suite + crash-consistency fuzzer |
//! | `litmus_exhaustive` | exhaustive litmus model check vs the axioms |
//! | `fig10` | Figure 10 (16/32/64-core sensitivity) |
//!
//! The other binaries in `src/bin/`:
//!
//! | Binary | Does |
//! |---|---|
//! | `smoke` | CI gate: reduced grid vs `results/smoke_reference.json` |
//! | `sim` | one simulation from the command line (+ Perfetto trace) |
//!
//! `experiments` and `smoke` accept the shared flag set parsed by
//! [`BenchArgs`] (`--out DIR`, `--serial`, `--jobs N`). Runs average
//! several RNG seeds because lock-contention scheduling makes single
//! runs noisy (±5%).
//!
//! The grids themselves run on the [`sweep`] worker pool: points are
//! independent deterministic simulations, so they fan out across host
//! cores and reduce in spec order — parallel output is byte-identical
//! to `--serial`.

#![forbid(unsafe_code)]

pub mod args;
mod breakdown;
mod crashfuzz;
pub mod experiments;
pub mod json;
pub mod lint;
pub mod sweep;
mod table;

pub use args::BenchArgs;
pub use json::Json;
pub use sweep::{PointKey, PointResult, SweepResults, SweepSpec};

use pmemspec_engine::SimConfig;
use pmemspec_isa::DesignKind;
use pmemspec_workloads::Benchmark;

use table::{Cell, Table};

/// Seeds averaged per data point.
pub const SEEDS: [u64; 3] = [11, 42, 1337];

/// True when `PMEMSPEC_SMOKE` requests the reduced CI grid
/// (2 cores, 1 seed, 25 FASEs).
pub fn smoke_mode() -> bool {
    std::env::var("PMEMSPEC_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The seeds the current mode averages over: all of [`SEEDS`], or just
/// the first under [`smoke_mode`].
pub fn seeds() -> &'static [u64] {
    if smoke_mode() {
        &SEEDS[..1]
    } else {
        &SEEDS
    }
}

/// Core count for the main (Figure 9) system: 8, or 2 under
/// [`smoke_mode`].
pub fn suite_cores() -> usize {
    if smoke_mode() {
        2
    } else {
        8
    }
}

/// FASEs per thread for the scaled-down main experiments (the paper runs
/// 100 K; throughput ratios converge far earlier).
pub fn default_fases(benchmark: Benchmark) -> usize {
    if smoke_mode() {
        return 25;
    }
    match benchmark {
        // Memcached moves a kilobyte per SET; keep wall time in check.
        Benchmark::Memcached => 120,
        _ => 400,
    }
}

/// A row of normalized throughputs: benchmark label plus one relative
/// value per design, normalized to IntelX86.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedRow {
    /// Benchmark label.
    pub label: String,
    /// Relative throughput per design, in the order of the design list
    /// the suite ran with.
    pub relative: Vec<f64>,
}

/// The sweep grid behind [`normalized_suite_with`]: every benchmark
/// under every design (plus the IntelX86 baseline) for every seed.
pub fn suite_spec(
    cfg: &SimConfig,
    designs: &[DesignKind],
    seeds: &[u64],
    fases: impl Fn(Benchmark) -> usize,
) -> SweepSpec {
    let mut with_base: Vec<DesignKind> = vec![DesignKind::IntelX86];
    with_base.extend(
        designs
            .iter()
            .copied()
            .filter(|&d| d != DesignKind::IntelX86),
    );
    let mut spec = SweepSpec::new(vec![cfg.clone()]);
    spec.add_grid(0, &with_base, seeds, fases);
    spec
}

/// Reduces a [`suite_spec`] sweep into normalized rows, in benchmark
/// order, baselines first — the same arithmetic (and therefore the
/// same bits) as the historical serial loop.
pub fn suite_rows(
    results: &SweepResults,
    designs: &[DesignKind],
    seeds: &[u64],
) -> Vec<NormalizedRow> {
    Benchmark::ALL
        .iter()
        .map(|&b| {
            let base = results.mean_throughput(0, b, DesignKind::IntelX86, seeds);
            let relative = designs
                .iter()
                .map(|&d| {
                    if d == DesignKind::IntelX86 {
                        1.0
                    } else {
                        results.mean_throughput(0, b, d, seeds) / base
                    }
                })
                .collect();
            NormalizedRow {
                label: b.label().to_string(),
                relative,
            }
        })
        .collect()
}

/// Runs the whole suite under `cfg` for `designs`, normalized to the
/// IntelX86 baseline, on the parallel sweep harness.
pub fn normalized_suite_with(
    cfg: &SimConfig,
    designs: &[DesignKind],
    args: &BenchArgs,
) -> Vec<NormalizedRow> {
    let spec = suite_spec(cfg, designs, seeds(), default_fases);
    let results = spec.run(args);
    suite_rows(&results, designs, seeds())
}

/// Geometric mean of the rows, per design.
pub fn geomeans(rows: &[NormalizedRow]) -> Vec<f64> {
    let n = rows.first().map_or(0, |r| r.relative.len());
    let mut acc = vec![0.0f64; n];
    for row in rows {
        for (a, r) in acc.iter_mut().zip(&row.relative) {
            *a += r.ln();
        }
    }
    acc.into_iter()
        .map(|a| (a / rows.len() as f64).exp())
        .collect()
}

/// Rows as a markdown table with a geomean footer and a trailing
/// blank line.
pub fn suite_markdown(title: &str, designs: &[DesignKind], rows: &[NormalizedRow]) -> String {
    let mut columns = vec![("benchmark", "benchmark")];
    columns.extend(designs.iter().map(|d| (d.label(), d.label())));
    let mut table = Table::new(title, &columns);
    let row = |label: &str, values: &[f64]| {
        let mut cells = vec![Cell::text(label)];
        cells.extend(values.iter().map(|&v| Cell::fixed(v, 2)));
        cells
    };
    for r in rows {
        table.push(row(&r.label, &r.relative));
    }
    table.push(row("**geomean**", &geomeans(rows)));
    table.markdown() + "\n"
}

/// Normalized suite rows as a JSON document (the JSON artifact of the
/// suite figures).
pub fn suite_json(
    figure: &str,
    cores: usize,
    designs: &[DesignKind],
    rows: &[NormalizedRow],
) -> Json {
    Json::obj([
        ("figure".into(), Json::Str(figure.into())),
        ("cores".into(), Json::Num(cores as f64)),
        (
            "designs".into(),
            Json::Arr(
                designs
                    .iter()
                    .map(|d| Json::Str(d.label().into()))
                    .collect(),
            ),
        ),
        (
            "rows".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("benchmark".into(), Json::Str(r.label.clone())),
                            (
                                "relative".into(),
                                Json::Arr(r.relative.iter().map(|&v| Json::Num(v)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "geomean".into(),
            Json::Arr(geomeans(rows).into_iter().map(Json::Num).collect()),
        ),
    ])
}

/// The configuration used by Figure 11: the speculation buffer only sees
/// traffic when dirty PM lines leave the LLC, so the scaled-down runs use
/// a proportionally scaled LLC (the paper's 100 K-FASE footprints overflow
/// the 16 MB LLC naturally; our shorter runs do not). Documented in
/// EXPERIMENTS.md.
pub fn scaled_llc_config(cores: usize) -> SimConfig {
    let mut cfg = SimConfig::asplos21(cores);
    cfg.llc.size_bytes = 512 * 1024;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_math() {
        let rows = vec![
            NormalizedRow {
                label: "a".into(),
                relative: vec![1.0, 2.0, 4.0, 1.0],
            },
            NormalizedRow {
                label: "b".into(),
                relative: vec![1.0, 0.5, 1.0, 4.0],
            },
        ];
        let g = geomeans(&rows);
        assert!((g[0] - 1.0).abs() < 1e-9);
        assert!((g[1] - 1.0).abs() < 1e-9);
        assert!((g[2] - 2.0).abs() < 1e-9);
        assert!((g[3] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_llc_keeps_validation() {
        let cfg = scaled_llc_config(8);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.llc.size_bytes, 512 * 1024);
    }

    #[test]
    fn suite_spec_covers_baseline_exactly_once() {
        let cfg = SimConfig::asplos21(2);
        let spec = suite_spec(&cfg, &DesignKind::ALL, &[11], |_| 5);
        // 8 benchmarks x 4 designs x 1 seed; IntelX86 not duplicated.
        assert_eq!(spec.points.len(), 8 * 4);
        let baselines = spec
            .points
            .iter()
            .filter(|p| p.key.design == DesignKind::IntelX86)
            .count();
        assert_eq!(baselines, 8);
    }
}

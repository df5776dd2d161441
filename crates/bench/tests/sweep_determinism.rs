//! The acceptance bar for the parallel harness: a parallel sweep is
//! bit-identical to `--serial`, point order in the spec does not
//! change aggregation, and the worker pool preserves job ordering.

use pmemspec_bench::{suite_rows, suite_spec, BenchArgs, SweepSpec, SEEDS};
use pmemspec_engine::SimConfig;
use pmemspec_isa::DesignKind;

const FASES: usize = 15;

fn fases(_: pmemspec_workloads::Benchmark) -> usize {
    FASES
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let cfg = SimConfig::asplos21(2);
    let seeds = &SEEDS[..2];
    let spec = suite_spec(&cfg, &DesignKind::ALL, seeds, fases);

    let serial = spec.run(&BenchArgs::serial());
    let parallel = spec.run(&BenchArgs::try_parse(["--jobs", "4"]).expect("valid flags"));

    // Raw per-point reports match.
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel.iter()) {
        assert_eq!(s.key, p.key, "spec order preserved");
        assert_eq!(
            s.report.total_time.as_ns(),
            p.report.total_time.as_ns(),
            "{:?}",
            s.key
        );
        assert_eq!(s.report.fases_committed, p.report.fases_committed);
        assert_eq!(s.report.pm_writes, p.report.pm_writes);
        assert_eq!(s.note, p.note);
    }

    // And the reduced NormalizedRows are bit-identical.
    let serial_rows = suite_rows(&serial, &DesignKind::ALL, seeds);
    let parallel_rows = suite_rows(&parallel, &DesignKind::ALL, seeds);
    assert_eq!(serial_rows.len(), parallel_rows.len());
    for (s, p) in serial_rows.iter().zip(&parallel_rows) {
        assert_eq!(s.label, p.label);
        let s_bits: Vec<u64> = s.relative.iter().map(|v| v.to_bits()).collect();
        let p_bits: Vec<u64> = p.relative.iter().map(|v| v.to_bits()).collect();
        assert_eq!(s_bits, p_bits, "{}", s.label);
    }
}

#[test]
fn point_order_in_the_spec_does_not_change_aggregation() {
    let cfg = SimConfig::asplos21(2);
    let seeds = &SEEDS[..1];
    let forward = suite_spec(
        &cfg,
        &[DesignKind::IntelX86, DesignKind::PmemSpec],
        seeds,
        fases,
    );
    let mut reversed = SweepSpec::new(forward.configs.clone());
    reversed.points = forward.points.iter().rev().copied().collect();

    let args = BenchArgs::try_parse(["--jobs", "3"]).expect("valid flags");
    let a = forward.run(&args);
    let b = reversed.run(&args);
    for p in a.iter() {
        let x = a
            .mean_throughput(0, p.key.benchmark, p.key.design, seeds)
            .to_bits();
        let y = b
            .mean_throughput(0, p.key.benchmark, p.key.design, seeds)
            .to_bits();
        assert_eq!(x, y, "{:?}", p.key);
    }
}

//! The grid workloads (`fig9-8c`, `scale-64c`): every (design ×
//! benchmark) point, each a fresh `System::new` + `run_full` on a
//! program lowered during set-up, then checked.

use std::sync::Arc;
use std::time::Instant;

use pmem_spec::{RunReport, System};
use pmemspec_engine::SimConfig;
use pmemspec_isa::{lower_program, DesignKind, Program};
use pmemspec_mem::MemoryImage;
use pmemspec_workloads::{Benchmark, WorkloadParams};

use crate::check::{check_completed, guarded, Generated, Tally};
use crate::span::{Call, Tracer};
use crate::spec::Shape;
use crate::stats::Fnv;
use crate::PassOut;

/// One (design × benchmark) point.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Index into [`Grid::generated`].
    pub gen: usize,
    /// The design the program was lowered for.
    pub design: DesignKind,
    /// The lowered program.
    pub program: Arc<Program>,
    /// Lowered ops across threads.
    pub ops: u64,
}

/// A set-up grid: generated workloads and lowered points.
#[derive(Debug)]
pub struct Grid {
    /// The simulated machine.
    pub cfg: SimConfig,
    /// One generated workload per benchmark.
    pub generated: Vec<Generated>,
    /// Points in run order: design-major, as `results/BENCH_simulator.json`.
    pub points: Vec<GridPoint>,
}

impl Grid {
    /// Generates every benchmark once and lowers it for every design.
    pub fn setup(
        shape: Shape,
        benchmarks: &[Benchmark],
        designs: &[DesignKind],
        seed: u64,
        tr: &mut Tracer,
    ) -> Self {
        let cores = shape.cores();
        let generated: Vec<Generated> = benchmarks
            .iter()
            .map(|&b| {
                let params = WorkloadParams::small(cores)
                    .with_fases(shape.fases(b))
                    .with_seed(seed);
                Generated::new(b, params, tr)
            })
            .collect();
        let mut points = Vec::with_capacity(designs.len() * generated.len());
        for &design in designs {
            for (gen, g) in generated.iter().enumerate() {
                tr.enter(Call::Lower, Some(design));
                let program = lower_program(design, &g.workload.program);
                let ops = program.len() as u64;
                tr.exit(ops);
                points.push(GridPoint {
                    gen,
                    design,
                    program: Arc::new(program),
                    ops,
                });
            }
        }
        Grid {
            cfg: SimConfig::asplos21(cores),
            generated,
            points,
        }
    }

    /// Builds and runs one point on `cfg`, catching a simulator panic.
    pub fn run_point(
        cfg: &SimConfig,
        point: &GridPoint,
        tr: &mut Tracer,
    ) -> Result<(RunReport, MemoryImage), String> {
        guarded(tr, |tr| -> Result<_, String> {
            tr.enter(Call::Build, Some(point.design));
            let system = System::new(cfg.clone(), Arc::clone(&point.program));
            tr.exit(0);
            let system = system.map_err(|e| e.to_string())?;
            tr.enter(Call::Run, Some(point.design));
            let out = system.run_full();
            tr.exit(point.ops);
            Ok(out)
        })?
    }

    /// One pass over every point. Without `reference` this is the
    /// reference pass: it keeps every report and digests them. With one,
    /// each point's report digest must equal the reference's.
    pub fn pass(&self, tr: &mut Tracer, reference: Option<&[u64]>, tally: &mut Tally) -> PassOut {
        let started = Instant::now();
        let mut out = PassOut::default();
        for (i, point) in self.points.iter().enumerate() {
            let gen = &self.generated[point.gen];
            tr.enter_for(Call::Point, Some(point.design), Some(gen.benchmark));
            let t0 = Instant::now();
            let run = Self::run_point(&self.cfg, point, tr);
            let ns = t0.elapsed().as_nanos() as u64;
            let (mut failures, fingerprint) = match run {
                Ok((report, image)) => {
                    let snapshot = image.persistent_snapshot();
                    drop(image);
                    let failures = check_completed(gen, point.design, &report, snapshot, tr);
                    let mut h = Fnv::default();
                    h.bytes(report.to_json().as_bytes());
                    if reference.is_none() {
                        out.reports.push((gen.benchmark, point.design, report));
                    }
                    (failures, h.finish())
                }
                Err(e) => (vec![e], 0),
            };
            if let Some(reference) = reference {
                if reference.get(i) != Some(&fingerprint) {
                    failures.push("report differs from the reference pass".into());
                }
            }
            tally.record(|| format!("{}/{}", gen.benchmark, point.design), &failures);
            out.fingerprints.push(fingerprint);
            out.samples_ns.push(ns);
            out.sim_ns += ns;
            out.sim_ops += point.ops;
            out.trials += 1;
            tr.exit(point.ops);
        }
        let mut digest = Fnv::default();
        for &f in &out.fingerprints {
            digest.word(f);
        }
        out.digest = digest.finish();
        out.wall_ns = started.elapsed().as_nanos() as u64;
        out
    }

    /// The PMEM-Spec programs, for the profiled run.
    pub fn programs_of(&self, design: DesignKind) -> Vec<Arc<Program>> {
        self.points
            .iter()
            .filter(|p| p.design == design)
            .map(|p| Arc::clone(&p.program))
            .collect()
    }
}

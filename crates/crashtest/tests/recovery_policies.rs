//! Differential test for the two misspeculation-recovery policies
//! (§6.2): **lazy** (abort at the end of the interrupted FASE) and
//! **eager** (abort at the next instruction boundary) must converge to
//! the *identical* persistent image on a workload that actually
//! misspeculates. The policies trade recovery latency for wasted work;
//! they must never trade correctness.
//!
//! The workload is the paper's hand-written load-misspeculation inducer
//! (update a block, evict it from L1 and LLC with a conflict storm,
//! reload it inside the persist window) run at 25x the default
//! persist-path latency — well past the ~10x threshold where the paper
//! first observes misspeculation — so both runs genuinely abort and
//! re-execute FASEs rather than trivially agreeing on a clean run.
//!
//! Under either policy, a crash must stop the very run the figures
//! measure: `run_until` shares the run loop, so at every crash-boundary
//! cycle its begun/durable FASE counts are a prefix of the full run's.

use pmem_spec::spec_buffer::DetectionMode;
use pmem_spec::{CrashOutcome, Probe, RecoveryPolicy, RunReport, Step, System};
use pmemspec_engine::clock::{Cycle, Duration};
use pmemspec_engine::SimConfig;
use pmemspec_isa::{lower_program, DesignKind, Op, Program};
use pmemspec_workloads::synthetic::load_misspec_inducer;
use pmemspec_workloads::{Benchmark, WorkloadParams};

const ITERATIONS: usize = 20;

fn config() -> SimConfig {
    // 25x the 20 ns default persist path: deep inside the misspeculating
    // regime of the Figure in §8.4.
    SimConfig::asplos21(1).with_persist_path_latency(Duration::from_ns(500))
}

/// Runs the inducer under `policy` twice (the simulator is
/// deterministic): once to completion for the report, once via the crash
/// interface at `Cycle::MAX` for the final persistent image.
fn run_policy(policy: RecoveryPolicy) -> (RunReport, CrashOutcome) {
    let cfg = config();
    let program = lower_program(
        DesignKind::PmemSpec,
        &load_misspec_inducer(&cfg, ITERATIONS),
    );
    let report = System::with_options(
        cfg.clone(),
        program.clone(),
        policy,
        DetectionMode::EvictionBased,
    )
    .expect("valid system")
    .run();
    let outcome = System::with_options(cfg, program, policy, DetectionMode::EvictionBased)
        .expect("valid system")
        .run_until(Cycle::MAX);
    (report, outcome)
}

#[test]
fn eager_and_lazy_recovery_converge_to_identical_persistent_image() {
    let (lazy_report, lazy) = run_policy(RecoveryPolicy::Lazy);
    let (eager_report, eager) = run_policy(RecoveryPolicy::Eager);

    // The test is vacuous unless misspeculation actually fired and FASEs
    // actually re-executed under both policies.
    for (name, r) in [("lazy", &lazy_report), ("eager", &eager_report)] {
        assert!(
            r.load_misspec_detected > 0,
            "{name}: inducer failed to misspeculate at 25x persist path"
        );
        assert!(r.fases_aborted > 0, "{name}: no FASE was ever aborted");
        assert_eq!(
            r.fases_committed, ITERATIONS as u64,
            "{name}: every FASE must eventually commit"
        );
    }

    // The headline property: byte-identical persistent state.
    assert_eq!(
        lazy.persistent, eager.persistent,
        "recovery policy changed the final persistent image"
    );
    assert_eq!(
        lazy.durable_fases, eager.durable_fases,
        "recovery policy changed the durable FASE counts"
    );
}

#[test]
fn eager_recovery_wastes_less_work_than_lazy() {
    // Eager aborts at the next instruction boundary instead of running
    // the doomed FASE to its end, so it can never *re-execute more* total
    // instructions than lazy on the same deterministic program. The
    // secondary claim of §6.2.2 — checked here as a weak inequality on
    // aborted-FASE counts (each abort costs eager a shorter replay).
    let (lazy_report, _) = run_policy(RecoveryPolicy::Lazy);
    let (eager_report, _) = run_policy(RecoveryPolicy::Eager);
    assert!(
        eager_report.total_time <= lazy_report.total_time,
        "eager recovery ({}) should not run longer than lazy ({})",
        eager_report.total_time,
        lazy_report.total_time
    );
}

/// The start instant of every `FaseBegin` and every committing
/// `FaseEnd` of a run, per core.
#[derive(Default)]
struct FaseInstants {
    begins: Vec<(usize, Cycle)>,
    commits: Vec<(usize, Cycle)>,
}

impl Probe for FaseInstants {
    fn step(&mut self, step: &Step) {
        match step.op {
            Op::FaseBegin { .. } => self.begins.push((step.core, step.start)),
            Op::FaseEnd { .. } if !step.in_fase => self.commits.push((step.core, step.start)),
            _ => {}
        }
    }
}

/// Per-core counts of `events` at or before `t`.
fn counts_by(events: &[(usize, Cycle)], cores: usize, t: Cycle) -> Vec<u64> {
    let mut counts = vec![0; cores];
    for &(core, _) in events.iter().filter(|&&(_, at)| at <= t) {
        counts[core] += 1;
    }
    counts
}

/// Crashing at any boundary cycle stops on a prefix of the full run:
/// the FASEs `run_until` reports begun and durable are exactly those
/// the uninterrupted run had begun and committed by then.
fn assert_crashes_stop_on_a_prefix(cfg: &SimConfig, program: &Program, policy: RecoveryPolicy) {
    let build = || {
        System::with_options(
            cfg.clone(),
            program.clone(),
            policy,
            DetectionMode::EvictionBased,
        )
        .expect("valid system")
    };
    let mut instants = FaseInstants::default();
    let (report, _) = build().run_with(&mut instants);
    assert_eq!(
        instants.commits.len() as u64,
        report.fases_committed,
        "{policy:?}"
    );
    let (_, boundaries) = build().run_boundaries();
    assert!(!boundaries.is_empty(), "{policy:?}");
    for t in boundaries {
        let outcome = build().run_until(t);
        assert_eq!(
            outcome.started_fases,
            counts_by(&instants.begins, cfg.cores, t),
            "{policy:?}: FASEs begun by {t}"
        );
        assert_eq!(
            outcome.durable_fases,
            counts_by(&instants.commits, cfg.cores, t),
            "{policy:?}: FASEs durable by {t}"
        );
    }
}

#[test]
fn crashes_stop_on_a_prefix_of_the_full_run_under_both_policies() {
    let cfg = config();
    let inducer = lower_program(
        DesignKind::PmemSpec,
        &load_misspec_inducer(&cfg, ITERATIONS),
    );
    let two_core = SimConfig::asplos21(2);
    let params = WorkloadParams::small(2).with_fases(6).with_seed(11);
    let hashmap = lower_program(
        DesignKind::PmemSpec,
        &Benchmark::Hashmap.generate(&params).program,
    );
    for policy in [RecoveryPolicy::Lazy, RecoveryPolicy::Eager] {
        assert_crashes_stop_on_a_prefix(&cfg, &inducer, policy);
        assert_crashes_stop_on_a_prefix(&two_core, &hashmap, policy);
    }
}

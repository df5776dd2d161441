//! End-to-end behavioural tests of the simulated machine across the four
//! designs.

use pmem_spec::spec_buffer::DetectionMode;
use pmem_spec::{run_program, BuildSystemError, RecoveryPolicy, System};
use pmemspec_engine::clock::Duration;
use pmemspec_engine::SimConfig;
use pmemspec_isa::{lower_program, AbsProgram, AbsThread, Addr, DesignKind, LockId, ValueSrc};

/// One thread, `fases` FASEs, each logging and writing one 64-byte line.
fn single_thread_program(fases: usize) -> AbsProgram {
    let mut t = AbsThread::new();
    for i in 0..fases {
        let data = Addr::pm(4096 + (i as u64 % 8) * 64);
        let log = Addr::pm((i as u64 % 4) * 64);
        t.begin_fase();
        for w in 0..8u64 {
            t.log_write(log.offset((w % 8) * 8), ValueSrc::OldOf(data.offset(w * 8)));
        }
        t.log_order();
        for w in 0..8u64 {
            t.data_write(data.offset(w * 8), (i as u64) << 8 | w);
        }
        t.end_fase();
    }
    let mut p = AbsProgram::new();
    p.add_thread(t);
    p
}

fn run(design: DesignKind, program: &AbsProgram, cores: usize) -> pmem_spec::RunReport {
    run_program(SimConfig::asplos21(cores), lower_program(design, program)).expect("valid run")
}

#[test]
fn all_designs_commit_all_fases() {
    let p = single_thread_program(20);
    for design in DesignKind::ALL {
        let r = run(design, &p, 1);
        assert_eq!(r.fases_committed, 20, "{design}");
        assert_eq!(r.fases_aborted, 0, "{design}");
    }
}

/// A multi-threaded undo-logging workload with the full discipline (log,
/// order, data, order, truncate) plus some reads and compute — the regime
/// Figure 9 measures. Threads touch disjoint data; no locks needed.
fn multithread_program(threads: usize, fases: usize) -> AbsProgram {
    let mut p = AbsProgram::new();
    for tid in 0..threads as u64 {
        let mut t = AbsThread::new();
        let log_base = Addr::pm(tid * 4096);
        let data_base = Addr::pm(1 << 20).offset(tid * 65536);
        for i in 0..fases {
            let data = data_base.offset((i as u64 % 64) * 64);
            let log = log_base.offset((i as u64 % 4) * 256);
            t.begin_fase();
            for r in 0..4u64 {
                t.pm_read(data.offset((r % 8) * 8));
            }
            t.compute(20);
            t.log_write(log, ValueSrc::imm(data.raw()));
            for w in 0..8u64 {
                t.log_write(log.offset(8 + w * 8), ValueSrc::OldOf(data.offset(w * 8)));
            }
            t.log_order();
            for w in 0..8u64 {
                t.data_write(data.offset(w * 8), ((i as u64) << 8) | w);
            }
            t.data_order();
            t.log_write(log.offset(80), ValueSrc::imm(0));
            t.end_fase();
            t.compute(50);
        }
        p.add_thread(t);
    }
    p
}

#[test]
fn pmem_spec_beats_x86_at_eight_cores() {
    // §8.2.1: PMEM-Spec outperforms the IntelX86 epoch baseline in the
    // 8-core system.
    let p = multithread_program(8, 100);
    let x86 = run(DesignKind::IntelX86, &p, 8);
    let spec = run(DesignKind::PmemSpec, &p, 8);
    assert!(
        spec.total_time < x86.total_time,
        "PMEM-Spec {} should beat x86 {}",
        spec.total_time,
        x86.total_time
    );
}

#[test]
fn hops_beats_x86_at_eight_cores() {
    // §8.2.2: HOPS achieves higher throughput than the baseline.
    let p = multithread_program(8, 100);
    let x86 = run(DesignKind::IntelX86, &p, 8);
    let hops = run(DesignKind::Hops, &p, 8);
    assert!(
        hops.total_time < x86.total_time,
        "HOPS {} should beat x86 {}",
        hops.total_time,
        x86.total_time
    );
}

#[test]
fn dpo_trails_the_buffered_designs_at_eight_cores() {
    // §8.2.2: DPO's global flush serialization and barrier enforcement
    // leave it behind HOPS and PMEM-Spec everywhere (it also trails the
    // x86 baseline on the real benchmark suite — asserted by the
    // cross-crate integration tests; this synthetic lock-free program
    // exercises only the buffered designs' relative order).
    let p = multithread_program(8, 100);
    let dpo = run(DesignKind::Dpo, &p, 8);
    let hops = run(DesignKind::Hops, &p, 8);
    let spec = run(DesignKind::PmemSpec, &p, 8);
    assert!(
        dpo.total_time > hops.total_time,
        "DPO {} vs HOPS {}",
        dpo.total_time,
        hops.total_time
    );
    assert!(
        dpo.total_time > spec.total_time,
        "DPO {} vs PMEM-Spec {}",
        dpo.total_time,
        spec.total_time
    );
}

#[test]
fn persists_reach_the_device_under_every_design() {
    let p = single_thread_program(5);
    for design in DesignKind::ALL {
        let r = run(design, &p, 1);
        assert!(r.pm_writes > 0, "{design}: no PM writes recorded");
    }
}

#[test]
fn no_misspeculation_in_default_configuration() {
    // §8.4: with the 20 ns persist path (shorter than the regular path),
    // PMEM-Spec never misspeculates.
    let p = single_thread_program(100);
    let r = run(DesignKind::PmemSpec, &p, 1);
    assert!(r.misspeculation_free());
    assert_eq!(r.stale_reads_ground_truth, 0);
    assert_eq!(r.store_inversions_ground_truth, 0);
}

/// Two threads updating the same line under a lock.
fn contended_program(fases_per_thread: usize) -> AbsProgram {
    let shared = Addr::pm(8192);
    let lock = LockId(0);
    let mut p = AbsProgram::new();
    for tid in 0..2u64 {
        let mut t = AbsThread::new();
        let log = Addr::pm(tid * 256);
        for i in 0..fases_per_thread {
            t.begin_fase();
            t.acquire(lock);
            t.log_write(log, ValueSrc::OldOf(shared));
            t.log_order();
            t.data_write(shared, tid * 1000 + i as u64);
            t.release(lock);
            t.end_fase();
        }
        p.add_thread(t);
    }
    p
}

#[test]
fn lock_serializes_critical_sections() {
    let p = contended_program(10);
    for design in DesignKind::ALL {
        let r = run(design, &p, 2);
        assert_eq!(r.fases_committed, 20, "{design}");
        // Contended acquires must have occurred.
        assert!(r.stats.counter("lock.acquires") >= 20, "{design}");
    }
}

#[test]
fn final_value_is_coherent_under_contention() {
    let p = contended_program(10);
    let cfg = SimConfig::asplos21(2);
    let sys = System::new(cfg, lower_program(DesignKind::PmemSpec, &p)).unwrap();
    // Run manually to inspect the image afterwards.
    let r = sys.run();
    assert_eq!(r.fases_committed, 20);
    // Both threads persisted everything: the persistent copy of the shared
    // word must equal one of the last writes (tid*1000 + 9).
    assert!(r.misspeculation_free());
}

#[test]
fn spec_ids_are_assigned_in_lock_order() {
    let p = contended_program(5);
    let r = run(DesignKind::PmemSpec, &p, 2);
    // No inversion: lock ordering matches persist-path delivery here.
    assert_eq!(r.store_misspec_detected, 0);
    assert_eq!(r.store_inversions_ground_truth, 0);
}

#[test]
fn dpo_is_slower_than_baseline_with_locks() {
    // §8.2.2: DPO orders persists on every barrier (including lock
    // operations) and serializes flushes globally, landing below the
    // baseline.
    let p = contended_program(30);
    let x86 = run(DesignKind::IntelX86, &p, 2);
    let dpo = run(DesignKind::Dpo, &p, 2);
    assert!(
        dpo.total_time > x86.total_time,
        "DPO {} should trail x86 {}",
        dpo.total_time,
        x86.total_time
    );
}

#[test]
fn eager_and_lazy_policies_both_run_clean_programs() {
    let p = single_thread_program(10);
    for policy in [RecoveryPolicy::Lazy, RecoveryPolicy::Eager] {
        let sys = System::with_options(
            SimConfig::asplos21(1),
            lower_program(DesignKind::PmemSpec, &p),
            policy,
            DetectionMode::EvictionBased,
        )
        .unwrap();
        let r = sys.run();
        assert_eq!(r.fases_committed, 10, "{policy:?}");
    }
}

#[test]
fn thread_mismatch_is_rejected() {
    let p = single_thread_program(1);
    let err = run_program(
        SimConfig::asplos21(4),
        lower_program(DesignKind::IntelX86, &p),
    )
    .unwrap_err();
    assert!(err.to_string().contains("1 threads"));
}

#[test]
fn more_cores_than_the_scheduler_holds_is_a_config_error() {
    let p = multithread_program(65, 1);
    let err = System::new(
        SimConfig::asplos21(65),
        lower_program(DesignKind::PmemSpec, &p),
    )
    .unwrap_err();
    assert!(matches!(err, BuildSystemError::Config(_)), "{err}");
}

#[test]
fn longer_persist_path_slows_barriers() {
    let p = single_thread_program(40);
    let fast = run_program(
        SimConfig::asplos21(1).with_persist_path_latency(Duration::from_ns(20)),
        lower_program(DesignKind::PmemSpec, &p),
    )
    .unwrap();
    let slow = run_program(
        SimConfig::asplos21(1).with_persist_path_latency(Duration::from_ns(100)),
        lower_program(DesignKind::PmemSpec, &p),
    )
    .unwrap();
    assert!(slow.total_time > fast.total_time);
}

#[test]
fn volatile_image_reflects_program_values() {
    let mut t = AbsThread::new();
    t.begin_fase();
    t.data_write(Addr::pm(0), 11u64);
    t.data_write(Addr::pm(8), 22u64);
    t.end_fase();
    let mut p = AbsProgram::new();
    p.add_thread(t);
    let sys = System::new(
        SimConfig::asplos21(1),
        lower_program(DesignKind::PmemSpec, &p),
    )
    .unwrap();
    // After the run the persistent image must match: the spec-barrier at
    // FASE end guarantees durability.
    let r = sys.run();
    assert_eq!(r.fases_committed, 1);
    // Both words share a cache line: the controller's WPQ coalesces them
    // into one device write.
    assert_eq!(r.pm_writes, 1);
}

#[test]
fn x86_sfence_count_matches_program() {
    let p = single_thread_program(10);
    let r = run(DesignKind::IntelX86, &p, 1);
    // Each FASE carries a log-order fence plus the durability fence.
    assert_eq!(r.stats.counter("x86.sfences"), 20);
}

#[test]
fn hops_fences_counted() {
    let p = single_thread_program(10);
    let r = run(DesignKind::Hops, &p, 1);
    assert_eq!(r.stats.counter("hops.ofences"), 10);
    assert_eq!(r.stats.counter("hops.dfences"), 10);
}

#[test]
fn spec_barriers_counted() {
    let p = single_thread_program(10);
    let r = run(DesignKind::PmemSpec, &p, 1);
    assert_eq!(r.stats.counter("spec.barriers"), 10);
}

#[test]
fn reports_expose_throughput() {
    let p = single_thread_program(10);
    let a = run(DesignKind::PmemSpec, &p, 1);
    let b = run(DesignKind::IntelX86, &p, 1);
    assert!(a.throughput() > 0.0);
    assert!(a.speedup_over(&b) > 1.0);
}

#[test]
fn negative_deltas_decrement_like_the_wrapping_add() {
    // TPC-C's stock update: under a shared lock, each FASE logs the stock
    // word's pre-image, decrements it by one and bumps an order counter.
    let stock = Addr::pm(4096);
    let orders = Addr::pm(4096 + 64);
    let mut p = AbsProgram::new();
    for tid in 0..2u64 {
        let mut t = AbsThread::new();
        for i in 0..5u64 {
            t.begin_fase();
            t.acquire(LockId(0));
            t.log_write(Addr::pm((tid * 8 + i % 8) * 64), ValueSrc::OldOf(stock));
            t.log_order();
            t.data_write(
                stock,
                ValueSrc::OldPlus {
                    addr: stock,
                    delta: -1,
                },
            );
            t.data_write(
                orders,
                ValueSrc::OldPlus {
                    addr: orders,
                    delta: 1,
                },
            );
            t.release(LockId(0));
            t.end_fase();
        }
        p.add_thread(t);
    }
    // What the old 64-bit delta of `u64::MAX` gave, ten times from zero.
    let want = (0..10).fold(0u64, |v, _| v.wrapping_add(u64::MAX));
    assert_eq!(want, 0u64.wrapping_sub(10));
    for design in DesignKind::ALL_EXTENDED {
        let sys = System::new(SimConfig::asplos21(2), lower_program(design, &p)).expect("valid");
        let (report, image) = sys.run_full();
        assert_eq!(report.fases_committed, 10, "{design}");
        assert_eq!(image.read_persistent(stock), want, "{design}");
        assert_eq!(image.read_persistent(orders), 10, "{design}");
    }
}

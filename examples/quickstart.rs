//! Quickstart: build a tiny failure-atomic program, run it under the
//! x86 epoch baseline and under PMEM-Spec, and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pmem_spec_repro::isa::abs::{AbsProgram, AbsThread};
use pmem_spec_repro::isa::{Addr, ValueSrc};
use pmem_spec_repro::prelude::*;
use pmem_spec_repro::runtime::{LogLayout, UndoLog};

fn main() {
    // A persistent "bank": two accounts, transfers between them inside
    // undo-logged failure-atomic sections.
    let undo = UndoLog::new(LogLayout::new(0, 1, 4, 2));
    let account_a = Addr::pm(undo.layout().end_offset().next_multiple_of(4096));
    let account_b = account_a.offset(64);

    let mut thread = AbsThread::new();
    for fase_no in 0..500u64 {
        thread.begin_fase();
        // Read both balances, move one unit from A to B.
        thread.pm_read(account_a).pm_read(account_b).compute(10);
        undo.emit_log(&mut thread, 0, fase_no, &[account_a, account_b]);
        thread.data_write(
            account_a,
            ValueSrc::OldPlus {
                addr: account_a,
                delta: -1,
            },
        );
        thread.data_write(
            account_b,
            ValueSrc::OldPlus {
                addr: account_b,
                delta: 1,
            },
        );
        undo.emit_truncate(&mut thread, 0, fase_no);
        thread.end_fase();
    }
    let mut program = AbsProgram::new();
    program.add_thread(thread);

    println!("design      total (ns)  throughput (FASEs/s)  PM writes");
    let cfg = SimConfig::asplos21(1);
    for design in DesignKind::ALL {
        let lowered = lower_program(design, &program);
        let report = run_program(cfg.clone(), lowered).expect("valid program");
        println!(
            "{:10} {:>11} {:>21.0} {:>10}",
            design.label(),
            report.total_time.as_ns(),
            report.throughput(),
            report.pm_writes,
        );
        assert!(report.misspeculation_free());
    }
    println!();
    println!(
        "PMEM-Spec runs the same transfers with no CLWB/SFENCE at all — just one \
         spec-barrier per transaction — and the speculation hardware never fires \
         at the realistic 20 ns persist-path latency."
    );
}

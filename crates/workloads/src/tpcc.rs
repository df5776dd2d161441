//! TPCC: the new-order transaction (Table 4).
//!
//! Each thread is a terminal bound to its home warehouse. A new-order
//! transaction, under its district's lock:
//!
//! 1. reads the warehouse and district rows;
//! 2. increments the district's `next_o_id` (fetch-and-add, logged);
//! 3. inserts an order row and 5–10 order-line rows (64 bytes each) into
//!    the district's order ring, reading the item table for each line;
//! 4. updates each item's per-warehouse stock row.
//!
//! This is the suite's longest undo-logged FASE — dozens of log entries
//! and data writes per transaction — giving PMEM-Spec room to run ahead
//! of the fence-per-phase designs (§8.2.1).

use std::collections::HashMap;

use pmemspec_engine::SimRng;
use pmemspec_isa::abs::{AbsProgram, AbsThread};
use pmemspec_isa::addr::Addr;
use pmemspec_isa::{LockId, ValueSrc};
use pmemspec_runtime::{LogLayout, UndoLog};

use crate::{GeneratedWorkload, WorkloadParams};

/// Districts per warehouse.
const DISTRICTS: u64 = 10;
/// Items in the shared catalogue.
const ITEMS: u64 = 1024;
/// Order slots per district ring.
const ORDER_SLOTS: u64 = 32;
/// Words written in the order header.
const HEADER_WORDS: u64 = 4;
/// Words written per order line (the paper's FASEs persist ~64 B of
/// data, §8.1; the full 64-byte rows would be several times that).
const LINE_WORDS: u64 = 3;

/// Generates the workload.
pub fn generate(params: &WorkloadParams) -> GeneratedWorkload {
    let threads = params.threads;
    // next_o_id + order row (8) + up to 10 lines (80) + 10 stock words.
    let layout = LogLayout::new(0, threads, 4, 99);
    let undo = UndoLog::new(layout);
    let base = layout.end_offset().next_multiple_of(4096);

    // Region plan (per warehouse = per thread):
    //   warehouse row, district rows, stock rows, order rings.
    // Stride warehouses by 1 MiB plus 257 lines: 257 is coprime to the
    // LLC's power-of-two set count, so successive warehouses' same-offset
    // regions land 257 sets apart instead of stacking into the same sets
    // (up to 64 threads would otherwise exceed the 16-way associativity
    // and storm the speculation buffer with dirty evictions).
    const WAREHOUSE_STRIDE: u64 = (1 << 20) + 257 * 64;
    let warehouse_row = |w: u64| Addr::pm(base + w * WAREHOUSE_STRIDE);
    let district_row = |w: u64, d: u64| warehouse_row(w).offset(64 + d * 64);
    let stock_row = |w: u64, i: u64| warehouse_row(w).offset(4096 + i * 64);
    // One order slot = header line + up to four order-line rows (the
    // paper's FASEs persist ~64 B of data; a compact ring keeps the
    // 32-64-thread footprints inside the LLC, as in the paper — §7 notes
    // their benchmarks never produce bursty dirty-eviction storms).
    let order_slot = |w: u64, d: u64, s: u64| {
        warehouse_row(w).offset(4096 + ITEMS * 64 + (d * ORDER_SLOTS + s % ORDER_SLOTS) * 64 * 5)
    };
    // The shared, read-only item catalogue.
    let item_row = |i: u64| Addr::pm(base + threads as u64 * WAREHOUSE_STRIDE + i * 64);

    let mut rng = SimRng::seed_from_u64(params.seed);
    let mut program = AbsProgram::new();
    let mut expected = HashMap::new();
    let mut orders_per_district: HashMap<(u64, u64), u64> = HashMap::new();

    for tid in 0..threads as u64 {
        let mut trng = rng.fork();
        let mut t = AbsThread::new();
        let mut district_order_count = vec![0u64; DISTRICTS as usize];
        for fase_no in 0..params.fases_per_thread as u64 {
            let w = tid; // home warehouse
            let d = trng.gen_range(DISTRICTS);
            let lines = 2 + trng.gen_range(3); // 2..=4 order lines (64 B-class FASEs, §8.1)
            let slot_no = district_order_count[d as usize];
            district_order_count[d as usize] += 1;
            let lock = LockId((w * DISTRICTS + d) as u32);
            let next_o_id = district_row(w, d).offset(8);
            let order = order_slot(w, d, slot_no);

            t.begin_fase();
            t.acquire(lock);
            // Warehouse + district reads.
            t.pm_read(warehouse_row(w));
            t.pm_read(district_row(w, d));
            t.pm_read(next_o_id);
            t.compute(40);
            // Gather the write set.
            let items: Vec<u64> = (0..lines).map(|_| trng.gen_range(ITEMS)).collect();
            let mut targets = vec![next_o_id];
            for word in 0..HEADER_WORDS {
                targets.push(order.offset(word * 8));
            }
            for (l, &_item) in items.iter().enumerate() {
                let line_row = order.offset((1 + l as u64) * 64);
                for word in 0..LINE_WORDS {
                    targets.push(line_row.offset(word * 8));
                }
            }
            for &item in &items {
                targets.push(stock_row(w, item).offset(16)); // quantity word
            }
            undo.emit_log(&mut t, tid as usize, fase_no, &targets);
            // District counter.
            t.data_write(
                next_o_id,
                ValueSrc::OldPlus {
                    addr: next_o_id,
                    delta: 1,
                },
            );
            // Order header.
            for word in 0..HEADER_WORDS {
                t.data_write(
                    order.offset(word * 8),
                    (w << 48) | (d << 40) | (slot_no << 8) | word,
                );
            }
            // Order lines: read the item, write the line, update stock.
            for (l, &item) in items.iter().enumerate() {
                t.pm_read(item_row(item));
                t.compute(10);
                let line_row = order.offset((1 + l as u64) * 64);
                for word in 0..LINE_WORDS {
                    t.data_write(
                        line_row.offset(word * 8),
                        (item << 16) | (l as u64) << 8 | word,
                    );
                }
                let stock = stock_row(w, item).offset(16);
                t.pm_read(stock);
                t.data_write(
                    stock,
                    ValueSrc::OldPlus {
                        addr: stock,
                        delta: -1,
                    },
                );
            }
            undo.emit_truncate(&mut t, tid as usize, fase_no);
            t.release(lock);
            t.end_fase();
        }
        for d in 0..DISTRICTS {
            orders_per_district.insert((tid, d), district_order_count[d as usize]);
            // next_o_id is per-thread-owned (home warehouse) and
            // fetch-and-add: exact.
            expected.insert(
                district_row(tid, d).offset(8),
                district_order_count[d as usize],
            );
        }
        program.add_thread(t);
    }

    GeneratedWorkload {
        program,
        undo: Some(undo),
        redo: None,
        expected_final: expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmemspec_isa::abs::AbsOp;

    #[test]
    fn transactions_are_long() {
        let g = generate(&WorkloadParams::small(1).with_fases(10));
        let writes = g
            .program
            .thread(0)
            .iter()
            .filter(|o| matches!(o, AbsOp::DataWrite { .. }))
            .count();
        // 1 counter + 4 header + >= 2 lines * (3 + 1 stock) per FASE.
        assert!(writes >= 10 * (1 + 4 + 2 * 4), "got {writes} data writes");
    }

    #[test]
    fn next_o_id_expectations_sum_to_fases() {
        let params = WorkloadParams::small(4).with_fases(50);
        let g = generate(&params);
        let total: u64 = g.expected_final.values().sum();
        assert_eq!(total, 4 * 50);
    }

    #[test]
    fn warehouses_are_disjoint() {
        let g = generate(&WorkloadParams::small(2).with_fases(20));
        let writes = |tid: usize| -> std::collections::HashSet<Addr> {
            g.program
                .thread(tid)
                .iter()
                .filter_map(|o| match o {
                    AbsOp::DataWrite { addr, .. } => Some(*addr),
                    _ => None,
                })
                .collect()
        };
        assert!(
            writes(0).is_disjoint(&writes(1)),
            "home-warehouse writes are private"
        );
    }
}

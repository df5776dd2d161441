//! The simulated "ISA" of the PMEM-Spec reproduction.
//!
//! Workloads are written against an **abstract persistent-program IR**
//! ([`abs`]) that says *what* must persist in *what* order (log writes,
//! ordering points, data writes, durability points, critical sections) but
//! not *how*. A [`lower`] pass turns the abstract program into a concrete
//! per-thread instruction stream ([`op::Op`]) for one of the four designs
//! the paper evaluates:
//!
//! * **IntelX86-Epoch** — `CLWB` after every PM store, `SFENCE` at ordering
//!   and durability points.
//! * **DPO** — same instruction stream as IntelX86 (the paper runs DPO on
//!   unmodified x86 binaries); the hardware model differs.
//! * **HOPS** — bare PM stores with `ofence` at ordering points and
//!   `dfence` at durability points.
//! * **PMEM-Spec** — bare PM stores, nothing at ordering points (the
//!   persist path is FIFO), `spec-barrier` at durability points, and
//!   `spec-assign`/`spec-revoke` around critical sections (the paper's
//!   compiler instrumentation).
//! * **StrandWeaver** (extension, §9) — one strand per FASE,
//!   `persist-barrier` at ordering points, `JoinStrand` at durability
//!   points.
//!
//! This mirrors Figure 2 of the paper.

#![forbid(unsafe_code)]

pub mod abs;
pub mod addr;
pub mod lower;
pub mod op;
pub mod persist;
pub mod program;

pub use abs::{AbsOp, AbsProgram, AbsThread};
pub use addr::{Addr, MemSpace, LINE_BYTES, PM_BASE, REGION_BYTES, WORD_BYTES};
pub use lower::{
    lower_program, lower_program_with_meta, DesignKind, OpMeta, OpRole, PersistencyClass,
    ProgramMeta, ThreadMeta,
};
pub use op::{log_mix, FaseId, LockId, Op, ThreadId, ValueSrc, Word};
pub use persist::{thread_persist_keys, thread_persist_order, OrderKey, ThreadPersistOrder};
pub use program::{Program, ThreadProgram};

//! Export a Chrome/Perfetto trace of a short PMEM-Spec run.
//!
//! ```text
//! cargo run --release --example trace_export
//! # then open https://ui.perfetto.dev and load /tmp/pmem_spec_trace.json
//! ```

use std::fs::File;

use pmem_spec_repro::core::{System, TraceRecorder};
use pmem_spec_repro::prelude::*;

fn main() -> std::io::Result<()> {
    let params = WorkloadParams::small(4).with_fases(20);
    let generated = Benchmark::Hashmap.generate(&params);
    let sys = System::new(
        SimConfig::asplos21(4),
        lower_program(DesignKind::PmemSpec, &generated.program),
    )
    .expect("valid system");
    let mut trace = TraceRecorder::new(4);
    let (report, _) = sys.run_with(&mut trace);

    let path = "/tmp/pmem_spec_trace.json";
    trace.write_chrome_trace(File::create(path)?)?;
    println!(
        "ran {} FASEs in {} ns; wrote {} trace events to {path}",
        report.fases_committed,
        report.total_time.as_ns(),
        trace.len(),
    );
    println!("open https://ui.perfetto.dev and load the file to inspect the timeline");
    Ok(())
}

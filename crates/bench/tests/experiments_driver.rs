//! The `experiments` driver's failure contract: an entry whose checks
//! fail still has every file written, and its failures are counted
//! (the binary exits 1 on a non-zero count), without stopping the
//! entries after it.

use std::path::PathBuf;

use pmemspec_bench::experiments::{run, Output};
use pmemspec_bench::{BenchArgs, Json};

fn failing(_: &BenchArgs) -> Output {
    Output {
        files: vec![("failing.md".into(), "# partial report\n".into())],
        failures: vec![
            "[order-point] thread 0 op 3: missing fence; reproduce with: experiments lint".into(),
            "ORACLE VIOLATION: torn FASE; reproduce with: benchmark=Queue design=DPO seed=11 \
             threads=2 fases=12 crash_cycle=7"
                .into(),
        ],
    }
}

fn passing(_: &BenchArgs) -> Output {
    Output::pair("passing", "# clean report\n".into(), &Json::Null)
}

#[test]
fn a_failing_entry_still_writes_its_files_and_counts_its_failures() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("experiments_driver");
    let _ = std::fs::remove_dir_all(&out);
    let args = BenchArgs {
        out: out.clone(),
        ..BenchArgs::serial()
    };
    assert_eq!(run(&[("failing", failing), ("passing", passing)], &args), 2);
    let read = |file: &str| std::fs::read_to_string(out.join(file)).expect(file);
    assert_eq!(read("failing.md"), "# partial report\n");
    assert_eq!(read("passing.md"), "# clean report\n");
    assert_eq!(read("passing.json"), Json::Null.render_pretty());
    assert_eq!(run(&[("passing", passing)], &args), 0);
}

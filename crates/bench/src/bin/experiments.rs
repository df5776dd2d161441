//! `experiments [NAME ...] [--out DIR] [--serial] [--jobs N]`: runs
//! entries of the experiment registry and writes their files under
//! `DIR` (default `results`).
//!
//! With no names it runs the whole registry in order, `fig10` last.
//! Each experiment prints its markdown to stdout and
//! `== <name>: N.NNNs` (plus the peak RSS so far) to stderr. An
//! unknown name or flag exits 1, listing the valid ones, before
//! anything runs. A failed check (lint finding, oracle violation,
//! model mismatch, ...) prints its reproducer to stderr and makes the
//! run exit 1 once every selected experiment has written its files.

use std::process::ExitCode;

use pmemspec_bench::experiments::{run, select, EXPERIMENTS};
use pmemspec_bench::BenchArgs;

fn main() -> ExitCode {
    let args = BenchArgs::parse();
    let selected = match select(&args.operands) {
        Ok(selected) => selected,
        Err(unknown) => {
            let valid: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
            eprintln!(
                "unknown experiment `{unknown}`; valid names: {}",
                valid.join(", ")
            );
            return ExitCode::FAILURE;
        }
    };
    match run(&selected, &args) {
        0 => ExitCode::SUCCESS,
        failures => {
            eprintln!("experiments: {failures} failed check(s)");
            ExitCode::FAILURE
        }
    }
}

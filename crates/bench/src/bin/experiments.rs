//! `experiments [NAME ...] [--out DIR] [--serial] [--jobs N]`: runs
//! entries of the experiment registry and writes `<DIR>/<name>.md` and
//! `<DIR>/<name>.json` for each (default `results`).
//!
//! With no names it runs the whole registry in order, `fig10` last.
//! Each experiment prints its markdown to stdout and
//! `== <name>: N.NNNs` to stderr. An unknown name exits non-zero,
//! listing the valid ones, before anything runs.

use std::process::ExitCode;
use std::time::Instant;

use pmemspec_bench::experiments::{select, EXPERIMENTS};
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
    let out = &args.out;
    std::fs::create_dir_all(out).unwrap_or_else(|e| panic!("cannot create {}: {e}", out.display()));
    for (name, run) in selected {
        let started = Instant::now();
        let artifact = run(&args);
        print!("{}", artifact.markdown);
        for (path, contents) in [
            (out.join(format!("{name}.md")), artifact.markdown),
            (
                out.join(format!("{name}.json")),
                artifact.json.render_pretty(),
            ),
        ] {
            std::fs::write(&path, contents)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
        eprintln!("== {name}: {:.3}s", started.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}

//! `lint`: the static persistency verifier over the whole sweep pool.
//!
//! Runs every workload × every design through `pmemspec-analyze` — no
//! simulation — and writes the verdict:
//!
//! * `<out>/lint.md` — verdict and coverage tables (also printed).
//! * `<out>/lint.json` — per-point stats and findings.
//!
//! Exits non-zero if any finding fires: CI regenerates the artifacts,
//! diffs them against the committed ones, and the exit code doubles as
//! the gate on the pool staying clean.
//!
//! `--selftest` instead runs the mutation kill matrix: every seeded
//! mutant of [`pmemspec_analyze::mutate`] must be flagged with its
//! expected rule, and the dynamically-confirmable subset is replayed
//! through the exhaustive model checker, which must reach a persisted
//! image the intact program's axioms forbid. Non-zero exit on any miss.
//!
//! Flags: the shared set ([`BenchArgs`], including `--out DIR`) plus
//! `--selftest`.

use std::process::ExitCode;

use pmemspec_analyze::{analyze_program, mutate};
use pmemspec_bench::{lint, sweep, BenchArgs};
use pmemspec_crashtest::{axiomatic_allowed, enumerate_program};
use pmemspec_isa::lower_program;

/// The mutation kill matrix: prints one line per mutant, returns the
/// number of misses.
fn selftest() -> usize {
    let corpus = mutate::corpus();
    let mut misses = 0;
    println!("# Mutation self-test: {} mutants", corpus.len());
    for m in &corpus {
        let report = analyze_program(&m.program, &m.meta);
        let caught = report.fired_rules().contains(&m.expected);
        let mut verdict = if caught { "caught" } else { "MISSED" };

        // Dynamic cross-confirmation: the model checker must exhibit an
        // outcome the intact lowering's axiomatic allowed set forbids.
        let mut dynamic = String::new();
        if let Some(observed) = m.observed {
            let intact = lower_program(m.design, &mutate::base_program());
            let allowed = axiomatic_allowed(&intact, &observed);
            let enumerated = enumerate_program(m.program.clone(), &observed);
            let forbidden: Vec<_> = enumerated
                .outcomes
                .iter()
                .filter(|o| !allowed.contains(*o))
                .collect();
            if forbidden.is_empty() {
                verdict = "MISSED (no forbidden outcome)";
            } else {
                dynamic = format!(", dynamic: exhibits forbidden {:?}", forbidden[0]);
            }
        }

        if !verdict.starts_with("caught") {
            misses += 1;
        }
        println!(
            "* {}: expected [{}] — {verdict}{dynamic}",
            m.name, m.expected
        );
    }
    println!("{} / {} killed", corpus.len() - misses, corpus.len());
    misses
}

fn main() -> ExitCode {
    let args = BenchArgs::parse();
    if std::env::args().any(|a| a == "--selftest") {
        return if selftest() == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let workers = sweep::worker_count(&args);
    let points = lint::lint_grid(workers);

    let md = lint::markdown(&points);
    print!("{md}");
    let out = &args.out;
    std::fs::create_dir_all(out).unwrap_or_else(|e| panic!("cannot create {}: {e}", out.display()));
    let md_path = out.join("lint.md");
    std::fs::write(&md_path, &md)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", md_path.display()));
    let json_path = out.join("lint.json");
    std::fs::write(&json_path, lint::json_doc(&points).render_pretty())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", json_path.display()));
    eprintln!("wrote {}", md_path.display());
    eprintln!("wrote {}", json_path.display());

    if lint::total_findings(&points) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

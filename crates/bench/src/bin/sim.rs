//! General-purpose simulator driver.
//!
//! ```text
//! sim --bench tatp --design pmem-spec --cores 8 --fases 400
//! sim --bench memcached --design hops --persist-path-ns 60 --json
//! sim --bench tpcc --design pmem-spec --controllers 4
//! sim --bench hashmap --design pmem-spec --trace /tmp/trace.json
//! sim --list
//! ```
//!
//! Flags: `--bench <name>` `--design <name>` `--cores N` `--fases N`
//! `--seed N` `--persist-path-ns N` `--spec-buffer N` `--controllers N`
//! `--unordered-network` `--eager-recovery` `--trace <path>` `--json`
//! `--list`. The configuration is validated before the workload is
//! generated, so a bad value is an error (exit 1), not a panic.
//!
//! `--trace` writes a Chrome/Perfetto trace (open in
//! <https://ui.perfetto.dev>): the instruction timeline on per-core
//! lanes plus a `pmc` lane, the profiler's queue-occupancy counter
//! tracks, and each committed FASE as a named slice with its phase
//! sub-slices. Tracing observes only; the report is unchanged.

use std::process::ExitCode;

use pmem_spec::spec_buffer::DetectionMode;
use pmem_spec::{RecoveryPolicy, SpanTracer, System, TraceRecorder};
use pmemspec_engine::clock::Duration;
use pmemspec_engine::config::PmcNetworkOrder;
use pmemspec_engine::SimConfig;
use pmemspec_isa::{lower_program_with_meta, DesignKind};
use pmemspec_workloads::{Benchmark, WorkloadParams};

/// One simulation, fully resolved: its configuration has passed
/// [`SimConfig::validate`] before any workload is generated.
#[derive(Debug)]
struct Options {
    bench: Benchmark,
    design: DesignKind,
    cfg: SimConfig,
    fases: usize,
    policy: RecoveryPolicy,
    trace: Option<String>,
    json: bool,
}

/// What the command line asks for.
#[derive(Debug)]
enum Command {
    Run(Box<Options>),
    List,
    Help,
}

const USAGE: &str = "usage: sim [--bench NAME] [--design NAME] [--cores N] [--fases N] [--seed N]
           [--persist-path-ns N] [--spec-buffer N] [--controllers N] [--unordered-network]
           [--eager-recovery] [--trace PATH] [--json] [--list]";

fn parse_design(name: &str) -> Option<DesignKind> {
    let name = name.to_ascii_lowercase().replace(['-', '_'], "");
    DesignKind::ALL_EXTENDED
        .into_iter()
        .find(|d| d.label().to_ascii_lowercase().replace(['-', '_'], "") == name)
}

fn parse_bench(name: &str) -> Option<Benchmark> {
    let name = name.to_ascii_lowercase().replace(['-', '_'], "");
    Benchmark::ALL
        .into_iter()
        .find(|b| b.label().to_ascii_lowercase().replace(['-', '_'], "") == name)
}

fn print_list() {
    println!("benchmarks:");
    for b in Benchmark::ALL {
        println!("  {}", b.label());
    }
    println!("designs:");
    for d in DesignKind::ALL_EXTENDED {
        println!("  {}", d.label());
    }
}

/// Parses an explicit argument list (testable; no process state) and
/// validates the configuration it describes.
///
/// # Errors
///
/// An unknown flag, a missing or unparsable value, `--fases 0`, or a
/// configuration [`SimConfig::validate`] rejects.
fn try_parse<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Result<Command, String> {
    let mut bench = Benchmark::Hashmap;
    let mut design = DesignKind::PmemSpec;
    let mut cores = 8;
    let mut fases = 200;
    let mut seed = 42;
    let mut persist_path_ns = None;
    let mut spec_buffer = None;
    let mut controllers = 1;
    let mut unordered_network = false;
    let mut eager = false;
    let mut trace = None;
    let mut json = false;
    let mut args = args.into_iter().map(Into::into);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--list" => return Ok(Command::List),
            "--help" | "-h" => return Ok(Command::Help),
            "--bench" => {
                let v = value("--bench")?;
                bench = parse_bench(&v).ok_or_else(|| format!("unknown benchmark `{v}`"))?;
            }
            "--design" => {
                let v = value("--design")?;
                design = parse_design(&v).ok_or_else(|| format!("unknown design `{v}`"))?;
            }
            "--cores" => cores = value("--cores")?.parse().map_err(|e| format!("{e}"))?,
            "--fases" => fases = value("--fases")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--persist-path-ns" => {
                persist_path_ns = Some(
                    value("--persist-path-ns")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                );
            }
            "--spec-buffer" => {
                spec_buffer = Some(
                    value("--spec-buffer")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                );
            }
            "--controllers" => {
                controllers = value("--controllers")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--unordered-network" => unordered_network = true,
            "--eager-recovery" => eager = true,
            "--trace" => trace = Some(value("--trace")?),
            "--json" => json = true,
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    // A run with no FASEs has zero duration and so no throughput.
    if fases == 0 {
        return Err("`--fases` needs a positive FASE count, got `0`".into());
    }

    let mut cfg = SimConfig::asplos21(cores).with_seed(seed);
    if let Some(ns) = persist_path_ns {
        cfg = cfg.with_persist_path_latency(Duration::from_ns(ns));
    }
    if let Some(entries) = spec_buffer {
        cfg = cfg.with_spec_buffer_entries(entries);
    }
    if controllers != 1 || unordered_network {
        let order = if unordered_network {
            PmcNetworkOrder::Unordered
        } else {
            PmcNetworkOrder::Fifo
        };
        cfg = cfg.with_pm_controllers(controllers, order);
    }
    cfg.validate()
        .map_err(|e| format!("invalid configuration: {e}"))?;
    let policy = if eager {
        RecoveryPolicy::Eager
    } else {
        RecoveryPolicy::Lazy
    };
    Ok(Command::Run(Box::new(Options {
        bench,
        design,
        cfg,
        fases,
        policy,
        trace,
        json,
    })))
}

fn main() -> ExitCode {
    let opts = match try_parse(std::env::args().skip(1)) {
        Ok(Command::Run(opts)) => opts,
        Ok(Command::List) => {
            print_list();
            return ExitCode::SUCCESS;
        }
        Ok(Command::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cores = opts.cfg.cores;

    let params = WorkloadParams::small(cores)
        .with_fases(opts.fases)
        .with_seed(opts.cfg.seed);
    let generated = opts.bench.generate(&params);
    let (program, meta) = lower_program_with_meta(opts.design, &generated.program);
    let system =
        match System::with_options(opts.cfg, program, opts.policy, DetectionMode::EvictionBased) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
    let mut probe = opts
        .trace
        .is_some()
        .then(|| (SpanTracer::new(&system, &meta), TraceRecorder::new(cores)));
    let report = match &mut probe {
        Some(probe) => system.run_with(probe).0,
        None => system.run(),
    };

    if let (Some(path), Some((spans, mut trace))) = (&opts.trace, probe) {
        let (profile, spans) = spans.report();
        profile.add_counter_tracks(&mut trace);
        spans.add_fase_tracks(&mut trace);
        match std::fs::File::create(path)
            .and_then(|f| trace.write_chrome_trace(std::io::BufWriter::new(f)))
        {
            Ok(()) => eprintln!("wrote {} trace events to {path}", trace.len()),
            Err(e) => {
                eprintln!("error writing trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if opts.json {
        println!("{}", report.to_json());
    } else {
        println!("benchmark       = {}", opts.bench.label());
        println!("{report}");
        for (k, v) in report.stats.counters() {
            println!("  {k} = {v}");
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_err(args: &[&str]) -> String {
        try_parse(args.iter().copied()).expect_err("invalid arguments")
    }

    #[test]
    fn defaults_describe_a_valid_run() {
        let Ok(Command::Run(opts)) = try_parse(Vec::<String>::new()) else {
            panic!("no arguments is the default run");
        };
        assert_eq!(opts.cfg.cores, 8);
        assert_eq!(opts.fases, 200);
        assert_eq!(opts.cfg.seed, 42);
        assert!(!opts.json && opts.trace.is_none());
    }

    #[test]
    fn zero_sizes_are_errors_not_panics_or_defaults() {
        for (flag, message) in [
            ("--cores", "core count must be positive"),
            ("--controllers", "need at least one PM controller"),
            ("--spec-buffer", "speculation buffer must have"),
            ("--persist-path-ns", "persist-path latency must be positive"),
        ] {
            let err = parse_err(&[flag, "0"]);
            assert!(err.contains(message), "{flag} 0: {err}");
        }
    }

    #[test]
    fn zero_fases_is_rejected_naming_the_flag() {
        let err = parse_err(&["--bench", "tatp", "--fases", "0"]);
        assert!(err.contains("`--fases`"), "{err}");
    }

    #[test]
    fn csv_is_an_unknown_flag() {
        let err = parse_err(&["--csv"]);
        assert!(err.contains("unknown flag `--csv`"), "{err}");
    }

    /// Parsing generates no workload, so a configuration it rejects
    /// never reaches the generator.
    #[test]
    fn too_many_cores_is_rejected_before_any_workload_is_generated() {
        let err = parse_err(&["--cores", "65", "--bench", "tpcc"]);
        assert!(err.contains("65 cores exceed"), "{err}");
    }
}

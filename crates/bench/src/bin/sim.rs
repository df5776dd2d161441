//! General-purpose simulator driver.
//!
//! ```text
//! sim --bench tatp --design pmem-spec --cores 8 --fases 400
//! sim --bench memcached --design hops --persist-path-ns 60 --csv
//! sim --bench tpcc --design pmem-spec --controllers 4
//! sim --bench hashmap --design pmem-spec --trace /tmp/trace.json
//! sim --list
//! ```
//!
//! Flags: `--bench <name>` `--design <name>` `--cores N` `--fases N`
//! `--seed N` `--persist-path-ns N` `--spec-buffer N` `--controllers N`
//! `--unordered-network` `--eager-recovery` `--trace <path>` `--csv`
//! `--list`.

use std::process::ExitCode;

use pmem_spec::spec_buffer::DetectionMode;
use pmem_spec::{RecoveryPolicy, System, TraceRecorder};
use pmemspec_engine::clock::Duration;
use pmemspec_engine::config::PmcNetworkOrder;
use pmemspec_engine::SimConfig;
use pmemspec_isa::{lower_program, DesignKind};
use pmemspec_workloads::{Benchmark, WorkloadParams};

struct Options {
    bench: Benchmark,
    design: DesignKind,
    cores: usize,
    fases: usize,
    seed: u64,
    persist_path_ns: Option<u64>,
    spec_buffer: Option<usize>,
    controllers: usize,
    unordered_network: bool,
    eager: bool,
    trace: Option<String>,
    csv: bool,
    json: bool,
}

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

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        bench: Benchmark::Hashmap,
        design: DesignKind::PmemSpec,
        cores: 8,
        fases: 200,
        seed: 42,
        persist_path_ns: None,
        spec_buffer: None,
        controllers: 1,
        unordered_network: false,
        eager: false,
        trace: None,
        csv: false,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--list" => {
                print_list();
                return Ok(None);
            }
            "--bench" => {
                let v = value("--bench")?;
                opts.bench = parse_bench(&v).ok_or_else(|| format!("unknown benchmark `{v}`"))?;
            }
            "--design" => {
                let v = value("--design")?;
                opts.design = parse_design(&v).ok_or_else(|| format!("unknown design `{v}`"))?;
            }
            "--cores" => opts.cores = value("--cores")?.parse().map_err(|e| format!("{e}"))?,
            "--fases" => opts.fases = value("--fases")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => opts.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--persist-path-ns" => {
                opts.persist_path_ns = Some(
                    value("--persist-path-ns")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                );
            }
            "--spec-buffer" => {
                opts.spec_buffer = Some(
                    value("--spec-buffer")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                );
            }
            "--controllers" => {
                opts.controllers = value("--controllers")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--unordered-network" => opts.unordered_network = true,
            "--eager-recovery" => opts.eager = true,
            "--trace" => opts.trace = Some(value("--trace")?),
            "--csv" => opts.csv = true,
            "--json" => opts.json = true,
            "--help" | "-h" => {
                println!(
                    "usage: sim [--bench NAME] [--design NAME] [--cores N] [--fases N] \
                     [--seed N]\n           [--persist-path-ns N] [--spec-buffer N] \
                     [--controllers N] [--unordered-network]\n           \
                     [--eager-recovery] [--trace PATH] [--csv] [--json] [--list]"
                );
                return Ok(None);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut cfg = SimConfig::asplos21(opts.cores).with_seed(opts.seed);
    if let Some(ns) = opts.persist_path_ns {
        cfg = cfg.with_persist_path_latency(Duration::from_ns(ns));
    }
    if let Some(entries) = opts.spec_buffer {
        cfg = cfg.with_spec_buffer_entries(entries);
    }
    if opts.controllers > 1 || opts.unordered_network {
        let order = if opts.unordered_network {
            PmcNetworkOrder::Unordered
        } else {
            PmcNetworkOrder::Fifo
        };
        cfg = cfg.with_pm_controllers(opts.controllers.max(1), order);
    }
    let policy = if opts.eager {
        RecoveryPolicy::Eager
    } else {
        RecoveryPolicy::Lazy
    };

    let params = WorkloadParams::small(opts.cores)
        .with_fases(opts.fases)
        .with_seed(opts.seed);
    let generated = opts.bench.generate(&params);
    let program = lower_program(opts.design, &generated.program);
    let system = match System::with_options(cfg, program, policy, DetectionMode::EvictionBased) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut trace = TraceRecorder::new(opts.cores);
    let report = if opts.trace.is_some() {
        system.run_with(&mut trace).0
    } else {
        system.run()
    };

    if let Some(path) = &opts.trace {
        match std::fs::File::create(path).and_then(|f| trace.write_chrome_trace(f)) {
            Ok(()) => eprintln!("wrote {} trace events to {path}", trace.len()),
            Err(e) => {
                eprintln!("error writing trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if opts.json {
        println!("{}", report.to_json());
    } else if opts.csv {
        println!(
            "bench,design,cores,fases,seed,total_ns,throughput,aborted,load_misspec,store_misspec,pm_reads,pm_writes"
        );
        println!(
            "{},{},{},{},{},{},{:.0},{},{},{},{},{}",
            opts.bench.label(),
            opts.design.label(),
            opts.cores,
            opts.fases,
            opts.seed,
            report.total_time.as_ns(),
            report.throughput(),
            report.fases_aborted,
            report.load_misspec_detected,
            report.store_misspec_detected,
            report.pm_reads,
            report.pm_writes,
        );
    } else {
        println!("benchmark       = {}", opts.bench.label());
        println!("{report}");
        for (k, v) in report.stats.counters() {
            println!("  {k} = {v}");
        }
    }
    ExitCode::SUCCESS
}

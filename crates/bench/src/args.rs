//! The one command-line parser shared by every experiment binary.
//!
//! Every binary accepts the same small flag set, so the parsing lives
//! here instead of being re-scanned ad hoc per binary:
//!
//! | Flag | Meaning |
//! |---|---|
//! | `--out DIR` | directory artifacts are written to (default `results`) |
//! | `--serial` | run every sweep point on one thread (escape hatch) |
//! | `--jobs N` | worker-thread count (overrides `PMEMSPEC_JOBS`) |
//!
//! Bare words that are not a flag's value are collected as operands
//! (the experiment names of the `experiments` binary). Any other flag
//! is an error: a stale flag must not silently run the default
//! selection and rewrite `results/`.
//!
//! Environment:
//!
//! | Variable | Meaning |
//! |---|---|
//! | `PMEMSPEC_JOBS` | default worker count (else `available_parallelism`) |
//! | `PMEMSPEC_SMOKE` | reduced grid: 2 cores, 1 seed, 25 FASEs |

use std::path::PathBuf;

/// The flags [`BenchArgs`] accepts, as listed in its error message.
const VALID_FLAGS: &str = "--out DIR, --serial, --jobs N";

/// Parsed command-line options for an experiment binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// `--out DIR`: where artifacts are written (default `results`).
    pub out: PathBuf,
    /// `--serial`: force one worker.
    pub serial: bool,
    /// `--jobs N`: explicit worker count.
    pub jobs: Option<usize>,
    /// Bare operands, in order.
    pub operands: Vec<String>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            out: PathBuf::from("results"),
            serial: false,
            jobs: None,
            operands: Vec::new(),
        }
    }
}

impl BenchArgs {
    /// Parses `std::env::args()`; see [`BenchArgs::parse_from`].
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses `args`, or prints the error (which lists the valid flags)
    /// and exits with status 1.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        Self::try_parse(args).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1)
        })
    }

    /// Convenience constructor for a serial run (used by tests).
    pub fn serial() -> Self {
        BenchArgs {
            serial: true,
            ..BenchArgs::default()
        }
    }

    /// Parses an explicit argument list (testable; no process state).
    ///
    /// # Errors
    ///
    /// The first flag that is not one of [`VALID_FLAGS`], with the list
    /// of valid ones.
    pub fn try_parse<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Result<Self, String> {
        let mut out = BenchArgs::default();
        let mut iter = args.into_iter().map(Into::into).peekable();
        let jobs = |v: &str| v.parse().ok().filter(|&n: &usize| n > 0);
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--serial" => out.serial = true,
                // The directory operand, without swallowing a following
                // flag.
                "--out" => {
                    if let Some(dir) = iter.next_if(|next| !next.starts_with('-')) {
                        out.out = PathBuf::from(dir);
                    }
                }
                "--jobs" => {
                    if let Some(v) = iter.next() {
                        out.jobs = jobs(&v);
                    }
                }
                _ => {
                    if let Some(dir) = arg.strip_prefix("--out=") {
                        out.out = PathBuf::from(dir);
                    } else if let Some(v) = arg.strip_prefix("--jobs=") {
                        out.jobs = jobs(v);
                    } else if arg.starts_with('-') {
                        return Err(format!("unknown flag `{arg}`; valid flags: {VALID_FLAGS}"));
                    } else {
                        out.operands.push(arg);
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::try_parse(args.iter().copied()).expect("valid flags")
    }

    #[test]
    fn default_is_all_off() {
        assert_eq!(parse(&[]), BenchArgs::default());
    }

    #[test]
    fn flags_parse() {
        let a = parse(&["--serial", "--jobs", "3"]);
        assert!(a.serial);
        assert_eq!(a.jobs, Some(3));
    }

    #[test]
    fn unknown_flags_are_rejected_with_the_valid_ones() {
        for stale in ["--collapsed", "--litmus-exhaustive", "--json", "-q"] {
            let err = BenchArgs::try_parse(["fig9", stale, "--serial"]).unwrap_err();
            assert!(err.contains(&format!("`{stale}`")), "{err}");
            assert!(err.contains(VALID_FLAGS), "{err}");
        }
    }

    #[test]
    fn out_default_and_explicit_dirs() {
        assert_eq!(BenchArgs::default().out, PathBuf::from("results"));
        let a = parse(&["--out", "ci-exp", "--serial"]);
        assert_eq!(a.out, PathBuf::from("ci-exp"));
        assert!(a.serial);
        let b = parse(&["--out=D"]);
        assert_eq!(b.out, PathBuf::from("D"));
        // A following flag is not taken as the directory.
        let c = parse(&["--out", "--serial"]);
        assert_eq!(c.out, PathBuf::from("results"));
        assert!(c.serial);
    }

    #[test]
    fn bare_words_are_operands_but_flag_values_are_not() {
        let a = parse(&["fig9", "--out", "D", "--jobs", "2", "table3"]);
        assert_eq!(a.operands, ["fig9", "table3"]);
        assert_eq!(a.out, PathBuf::from("D"));
        assert_eq!(a.jobs, Some(2));
    }

    #[test]
    fn zero_jobs_is_rejected() {
        assert_eq!(parse(&["--jobs", "0"]).jobs, None);
        assert_eq!(parse(&["--jobs=0"]).jobs, None);
    }
}

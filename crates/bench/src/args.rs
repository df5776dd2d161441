//! The command-line parser of the `experiments` binary (and of the
//! tests that drive the registry in-process):
//!
//! | Flag | Meaning |
//! |---|---|
//! | `--out DIR` | directory artifacts are written to (default `results`) |
//! | `--serial` | run every sweep point on one thread (escape hatch) |
//! | `--jobs N` | worker-thread count (overrides `PMEMSPEC_JOBS`) |
//!
//! Bare words that are not a flag's value are collected as operands
//! (the experiment names). Any other flag is an error: a stale flag
//! must not silently run the default selection and rewrite `results/`.
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

/// Parsed command-line options of `experiments`.
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
    /// Parses `std::env::args()`, or prints the error (which lists the
    /// valid flags) and exits with status 1.
    pub fn parse() -> Self {
        Self::try_parse(std::env::args().skip(1)).unwrap_or_else(|e| {
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
    /// of valid ones; or a flag whose value is missing or invalid (a
    /// following flag is not taken as `--out`'s directory, and
    /// `--jobs` needs a positive integer), naming that flag.
    pub fn try_parse<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Result<Self, String> {
        let mut out = BenchArgs::default();
        let mut iter = args.into_iter().map(Into::into);
        while let Some(arg) = iter.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) if flag.starts_with("--") => (flag, Some(value.to_owned())),
                _ => (arg.as_str(), None),
            };
            let mut value = |usage: &str| {
                inline
                    .clone()
                    .or_else(|| iter.next())
                    .filter(|v| !v.is_empty() && !v.starts_with('-'))
                    .ok_or_else(|| format!("`{flag}` needs a value: {usage}"))
            };
            match flag {
                "--serial" if inline.is_none() => out.serial = true,
                "--out" => out.out = PathBuf::from(value("--out DIR")?),
                "--jobs" => {
                    let v = value("--jobs N")?;
                    let n = v.parse().ok().filter(|&n: &usize| n > 0);
                    out.jobs = Some(n.ok_or_else(|| {
                        format!("`--jobs` needs a positive worker count, got `{v}`")
                    })?);
                }
                _ if arg.starts_with('-') => {
                    return Err(format!("unknown flag `{arg}`; valid flags: {VALID_FLAGS}"));
                }
                _ => out.operands.push(arg),
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
        // A missing directory is an error, not a silent `results`: a
        // following flag is not taken as the directory.
        for missing in [&["--out", "--serial"][..], &["fig9", "--out"], &["--out="]] {
            let err = BenchArgs::try_parse(missing.iter().copied()).unwrap_err();
            assert!(err.contains("`--out`"), "{missing:?}: {err}");
        }
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
        for bad in [
            &["--jobs", "0"][..],
            &["--jobs=0"],
            &["--jobs", "x"],
            &["--jobs=x"],
            &["--jobs"],
            &["--jobs", "--serial"],
        ] {
            let err = BenchArgs::try_parse(bad.iter().copied()).unwrap_err();
            assert!(err.contains("`--jobs`"), "{bad:?}: {err}");
        }
        assert_eq!(parse(&["--jobs=2"]).jobs, Some(2));
    }
}

//! The one command-line parser shared by every experiment binary.
//!
//! Every binary accepts the same small flag set, so the parsing lives
//! here instead of being re-scanned ad hoc per binary:
//!
//! | Flag | Meaning |
//! |---|---|
//! | `--out DIR` | directory artifacts are written to (default `results`) |
//! | `--json[=PATH]` | also write the results as JSON (default `results/<bin>.json`) |
//! | `--serial` | run every sweep point on one thread (escape hatch) |
//! | `--jobs N` | worker-thread count (overrides `PMEMSPEC_JOBS`) |
//!
//! Bare words that are not a flag's value are collected as operands
//! (the experiment names of the `experiments` binary).
//!
//! Environment:
//!
//! | Variable | Meaning |
//! |---|---|
//! | `PMEMSPEC_JOBS` | default worker count (else `available_parallelism`) |
//! | `PMEMSPEC_SMOKE` | reduced grid: 2 cores, 1 seed, 25 FASEs |
//!
//! Unknown flags are ignored (the binaries are also invoked by test
//! harnesses that pass their own flags).

use std::path::PathBuf;

/// Parsed command-line options for an experiment binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// `--out DIR`: where artifacts are written (default `results`).
    pub out: PathBuf,
    /// `--json` was given (with or without a path).
    pub json: bool,
    /// Explicit `--json=PATH` / `--json PATH` target, when given.
    pub json_path: Option<PathBuf>,
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
            json: false,
            json_path: None,
            serial: false,
            jobs: None,
            operands: Vec::new(),
        }
    }
}

impl BenchArgs {
    /// Parses `std::env::args()`.
    pub fn parse() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Convenience constructor for a serial run (used by tests).
    pub fn serial() -> Self {
        BenchArgs {
            serial: true,
            ..BenchArgs::default()
        }
    }

    /// Where `--json` output should go for a binary named `name`:
    /// the explicit path when one was given, else `results/<name>.json`;
    /// `None` when `--json` was not requested.
    pub fn json_target(&self, name: &str) -> Option<PathBuf> {
        if !self.json {
            return None;
        }
        Some(
            self.json_path
                .clone()
                .unwrap_or_else(|| PathBuf::from(format!("results/{name}.json"))),
        )
    }
}

/// Parses an explicit argument list (testable; no process state).
impl<S: Into<String>> FromIterator<S> for BenchArgs {
    fn from_iter<I: IntoIterator<Item = S>>(args: I) -> Self {
        let mut out = BenchArgs::default();
        let mut iter = args.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            // A path operand of `--out`/`--json`, without swallowing a
            // following flag.
            let mut path_operand = || {
                iter.next_if(|next| !next.starts_with('-'))
                    .map(PathBuf::from)
            };
            match arg.as_str() {
                "--serial" => out.serial = true,
                "--out" => {
                    if let Some(dir) = path_operand() {
                        out.out = dir;
                    }
                }
                "--json" => {
                    out.json = true;
                    if let Some(path) = path_operand() {
                        out.json_path = Some(path);
                    }
                }
                "--jobs" => {
                    if let Some(v) = iter.next() {
                        out.jobs = v.parse().ok().filter(|&n: &usize| n > 0);
                    }
                }
                _ => {
                    if let Some(dir) = arg.strip_prefix("--out=") {
                        out.out = PathBuf::from(dir);
                    } else if let Some(path) = arg.strip_prefix("--json=") {
                        out.json = true;
                        out.json_path = Some(PathBuf::from(path));
                    } else if let Some(v) = arg.strip_prefix("--jobs=") {
                        out.jobs = v.parse().ok().filter(|&n: &usize| n > 0);
                    } else if !arg.starts_with('-') {
                        out.operands.push(arg);
                    }
                    // Any other flag: ignore.
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_off() {
        let a = BenchArgs::from_iter(Vec::<String>::new());
        assert_eq!(a, BenchArgs::default());
        assert!(a.json_target("fig9").is_none());
    }

    #[test]
    fn flags_parse() {
        let a = BenchArgs::from_iter(["--serial", "--jobs", "3"]);
        assert!(a.serial);
        assert_eq!(a.jobs, Some(3));
    }

    #[test]
    fn json_default_and_explicit_paths() {
        let a = BenchArgs::from_iter(["--json"]);
        assert_eq!(
            a.json_target("fig9"),
            Some(PathBuf::from("results/fig9.json"))
        );
        let b = BenchArgs::from_iter(["--json=/tmp/x.json"]);
        assert_eq!(b.json_target("fig9"), Some(PathBuf::from("/tmp/x.json")));
        let c = BenchArgs::from_iter(["--json", "out.json"]);
        assert_eq!(c.json_target("fig9"), Some(PathBuf::from("out.json")));
    }

    #[test]
    fn json_does_not_swallow_flags() {
        let a = BenchArgs::from_iter(["--json", "--serial"]);
        assert!(a.json && a.serial);
        assert!(a.json_path.is_none());
    }

    #[test]
    fn unknown_arguments_are_ignored() {
        let a = BenchArgs::from_iter(["--quiet", "--nocapture", "--serial"]);
        assert!(a.serial);
        assert_eq!(
            a,
            BenchArgs {
                serial: true,
                ..BenchArgs::default()
            }
        );
    }

    #[test]
    fn out_default_and_explicit_dirs() {
        assert_eq!(BenchArgs::default().out, PathBuf::from("results"));
        let a = BenchArgs::from_iter(["--out", "ci-exp", "--serial"]);
        assert_eq!(a.out, PathBuf::from("ci-exp"));
        assert!(a.serial);
        let b = BenchArgs::from_iter(["--out=D"]);
        assert_eq!(b.out, PathBuf::from("D"));
        // A following flag is not taken as the directory.
        let c = BenchArgs::from_iter(["--out", "--serial"]);
        assert_eq!(c.out, PathBuf::from("results"));
        assert!(c.serial);
    }

    #[test]
    fn bare_words_are_operands_but_flag_values_are_not() {
        let a = BenchArgs::from_iter(["fig9", "--out", "D", "--jobs", "2", "table3"]);
        assert_eq!(a.operands, ["fig9", "table3"]);
        assert_eq!(a.out, PathBuf::from("D"));
        assert_eq!(a.jobs, Some(2));
    }

    #[test]
    fn zero_jobs_is_rejected() {
        let a = BenchArgs::from_iter(["--jobs", "0"]);
        assert_eq!(a.jobs, None);
    }
}

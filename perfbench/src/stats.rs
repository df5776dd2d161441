//! Small statistics helpers: medians, tail percentiles, a stable digest,
//! and the process's peak resident set.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail percentile of a sample set: the highest percentile on
/// [`TAIL_LADDER`] that leaves at least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile chosen (e.g. 99.0).
    pub pct: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond the chosen rank.
    pub beyond: usize,
}

/// Candidate tail percentiles, highest first. The ladder stops at 99:
/// above it the crash grid's tail is a handful of trials, and it swings
/// with host interference by more than any useful regression bound.
pub const TAIL_LADDER: [f64; 6] = [99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `samples` under the ladder rule. With fewer than
/// `TAIL_BEYOND + 1` samples, falls back to the maximum (pct 100).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn tail(samples: &[f64]) -> Tail {
    assert!(!samples.is_empty(), "tail of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    for pct in TAIL_LADDER {
        // Nearest rank: the smallest index covering pct% of the samples.
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        let rank = rank.clamp(1, n);
        let beyond = n - rank;
        if beyond >= TAIL_BEYOND {
            return Tail {
                pct,
                value: v[rank - 1],
                beyond,
            };
        }
    }
    Tail {
        pct: 100.0,
        value: v[n - 1],
        beyond: 0,
    }
}

/// 64-bit FNV-1a: a stable, dependency-free digest of simulated outputs
/// (equal across processes and commits, unlike `DefaultHasher`).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a word in.
    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The process's peak resident set in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        let many: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&many).pct, 99.0, "the ladder tops out at p99");
        let few: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&few);
        assert_eq!(t.pct, 75.0);
        assert!(t.beyond >= TAIL_BEYOND);
        assert_eq!(tail(&[5.0]).pct, 100.0);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::default();
        a.word(1);
        a.word(2);
        let mut b = Fnv::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
    }
}

//! Simulator configuration.
//!
//! [`SimConfig::asplos21`] reproduces Table 3 of the paper:
//!
//! | Component | Configuration |
//! |---|---|
//! | Core | 2 GHz, 8-way OoO, 192-entry ROB, 32-entry Ld/St queue |
//! | L1 I/D | 32/64 KB, 4-way, private, 2 ns hit |
//! | L2 (LLC) | 16 MB, 16-way, shared, 20 ns hit |
//! | PM controller | 32/64-entry read/write queue, 4-entry speculation buffer |
//! | PM | read 175 ns / write 94 ns |
//! | Persist path | 20 ns |
//!
//! The speculation window is `cores × idle persist-path latency` (§8.1),
//! 160 ns in the 8-core main experiment.

use crate::clock::Duration;

/// The most cores a machine can have (the scheduler keeps one bit per
/// core in a `u64`).
pub const MAX_CORES: usize = 64;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Latency of a hit (tag + data).
    pub hit_latency: Duration,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if [`CacheConfig::geometry`] rejects the geometry.
    pub fn sets(&self) -> usize {
        self.geometry().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The set count, or why the geometry cannot be built: the size must
    /// divide into whole lines, the lines into ways, and the set count
    /// must be a power of two (the index function requires it).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn geometry(&self) -> Result<usize, &'static str> {
        if self.line_bytes == 0 || !self.size_bytes.is_multiple_of(self.line_bytes) {
            return Err("cache size must be a multiple of the line size");
        }
        let lines = self.size_bytes / self.line_bytes;
        if self.ways == 0 || !lines.is_multiple_of(self.ways) {
            return Err("cache lines must divide into ways");
        }
        let sets = lines / self.ways;
        if !sets.is_power_of_two() {
            return Err("set count must be a power of two");
        }
        Ok(sets)
    }
}

/// PM controller and device timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmConfig {
    /// Read-queue entries at the controller.
    pub read_queue: usize,
    /// Write-queue entries at the controller.
    pub write_queue: usize,
    /// Device read latency (175 ns on Optane per the paper).
    pub read_latency: Duration,
    /// Device write latency (94 ns on Optane per the paper).
    pub write_latency: Duration,
    /// Minimum gap between successive read services (models device read
    /// bandwidth; ~64 B / 4 ns ≈ 16 GB/s, a 6-way interleaved Optane
    /// configuration).
    pub read_gap: Duration,
    /// Minimum gap between successive write services (~64 B / 6 ns ≈
    /// 10.7 GB/s, 6-way interleaved).
    pub write_gap: Duration,
    /// Speculation-buffer entries (PMEM-Spec only; 4 by default).
    pub spec_buffer_entries: usize,
    /// Number of PM controllers, with line-interleaved addresses. The
    /// paper evaluates one (§7 lists multi-controller support as future
    /// work); values above one exercise that extension.
    pub controllers: usize,
}

/// How the on-chip network orders one core's persist-path traffic across
/// multiple PM controllers (§7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PmcNetworkOrder {
    /// The paper's proposed extension: the network preserves each core's
    /// store order end to end, so strict persistency holds across
    /// controllers.
    #[default]
    Fifo,
    /// No cross-controller ordering: persists to different controllers
    /// may invert — the §7 hazard (per-controller detection cannot see
    /// it). Provided to demonstrate why the extension is necessary.
    Unordered,
}

/// DRAM timing (volatile region; not evaluated by the paper but needed by
/// the workloads' metadata accesses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Access latency after LLC miss.
    pub latency: Duration,
    /// Minimum gap between successive accesses (bandwidth model).
    pub gap: Duration,
}

/// Complete simulated-machine configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of cores (= simulated threads).
    pub cores: usize,
    /// Store-queue entries per core.
    pub store_queue: usize,
    /// Private L1 data cache.
    pub l1: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
    /// PM controller and device.
    pub pm: PmConfig,
    /// DRAM backing the volatile region.
    pub dram: DramConfig,
    /// One-way latency of the decoupled persist path (20 ns by default).
    pub persist_path_latency: Duration,
    /// Minimum spacing between successive deliveries on one core's persist
    /// path (ring-bus slot time).
    pub persist_path_gap: Duration,
    /// Latency from the LLC down to the PM controller (writebacks, fills).
    pub llc_to_pmc_latency: Duration,
    /// Latency from L1 to the PM controller on the regular path, used only
    /// for documentation/assertions (11 ns in the paper).
    pub l1_to_pmc_latency: Duration,
    /// Modelled cost of delivering a misspeculation trap through the OS to
    /// the failure-atomic runtime.
    pub trap_latency: Duration,
    /// Ordering discipline of the persist network across PM controllers
    /// (only meaningful when `pm.controllers > 1`).
    pub pmc_network: PmcNetworkOrder,
    /// RNG seed for the whole simulation.
    pub seed: u64,
}

impl SimConfig {
    /// The Table 3 configuration with the given core count.
    ///
    /// # Examples
    ///
    /// ```
    /// use pmemspec_engine::SimConfig;
    ///
    /// let cfg = SimConfig::asplos21(8);
    /// assert_eq!(cfg.cores, 8);
    /// assert_eq!(cfg.pm.read_latency.as_ns(), 175);
    /// assert_eq!(cfg.speculation_window().as_ns(), 160);
    /// ```
    pub fn asplos21(cores: usize) -> Self {
        SimConfig {
            cores,
            store_queue: 32,
            l1: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 4,
                line_bytes: 64,
                hit_latency: Duration::from_ns(2),
            },
            llc: CacheConfig {
                size_bytes: 16 * 1024 * 1024,
                ways: 16,
                line_bytes: 64,
                hit_latency: Duration::from_ns(20),
            },
            pm: PmConfig {
                read_queue: 32,
                write_queue: 64,
                read_latency: Duration::from_ns(175),
                write_latency: Duration::from_ns(94),
                read_gap: Duration::from_ns(4),
                write_gap: Duration::from_ns(6),
                spec_buffer_entries: 4,
                controllers: 1,
            },
            dram: DramConfig {
                latency: Duration::from_ns(60),
                gap: Duration::from_ns(4),
            },
            persist_path_latency: Duration::from_ns(20),
            persist_path_gap: Duration::from_cycles(1),
            llc_to_pmc_latency: Duration::from_ns(9),
            l1_to_pmc_latency: Duration::from_ns(11),
            trap_latency: Duration::from_ns(500),
            pmc_network: PmcNetworkOrder::Fifo,
            seed: 0xA5_70_05_21,
        }
    }

    /// The speculation window: `cores × idle persist-path latency` (§8.1).
    pub fn speculation_window(&self) -> Duration {
        self.persist_path_latency * self.cores as u64
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency
    /// found (zero cores, mismatched line sizes, undersized queues, ...).
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("core count must be positive".into());
        }
        if self.cores > MAX_CORES {
            return Err(format!(
                "{} cores exceed the simulator's {MAX_CORES}",
                self.cores
            ));
        }
        if self.store_queue == 0 {
            return Err("store queue must have at least one entry".into());
        }
        if self.l1.line_bytes != self.llc.line_bytes {
            return Err(format!(
                "L1 line size {} != LLC line size {}",
                self.l1.line_bytes, self.llc.line_bytes
            ));
        }
        if !self.l1.line_bytes.is_power_of_two() {
            return Err("line size must be a power of two".into());
        }
        if self.pm.read_queue == 0 || self.pm.write_queue == 0 {
            return Err("PM controller queues must be non-empty".into());
        }
        if self.pm.spec_buffer_entries == 0 {
            return Err("speculation buffer must have at least one entry".into());
        }
        if self.pm.controllers == 0 {
            return Err("need at least one PM controller".into());
        }
        if self.persist_path_latency == Duration::ZERO {
            // PMEM-Spec's speculation window is this latency times the
            // core count.
            return Err("persist-path latency must be positive".into());
        }
        self.l1.geometry().map_err(|e| format!("L1: {e}"))?;
        self.llc.geometry().map_err(|e| format!("LLC: {e}"))?;
        Ok(())
    }

    /// Returns a copy with a different core count (keeps the speculation
    /// window rule in sync automatically, since it is derived).
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Returns a copy with a different persist-path latency.
    pub fn with_persist_path_latency(mut self, latency: Duration) -> Self {
        self.persist_path_latency = latency;
        self
    }

    /// Returns a copy with a different speculation-buffer size.
    pub fn with_spec_buffer_entries(mut self, entries: usize) -> Self {
        self.pm.spec_buffer_entries = entries;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with `n` line-interleaved PM controllers and the
    /// given persist-network ordering (the §7 extension).
    pub fn with_pm_controllers(mut self, n: usize, network: PmcNetworkOrder) -> Self {
        self.pm.controllers = n;
        self.pmc_network = network;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::asplos21(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_defaults() {
        let cfg = SimConfig::asplos21(8);
        assert_eq!(cfg.store_queue, 32);
        assert_eq!(cfg.l1.size_bytes, 64 * 1024);
        assert_eq!(cfg.l1.hit_latency.as_ns(), 2);
        assert_eq!(cfg.llc.size_bytes, 16 * 1024 * 1024);
        assert_eq!(cfg.llc.hit_latency.as_ns(), 20);
        assert_eq!(cfg.pm.read_queue, 32);
        assert_eq!(cfg.pm.write_queue, 64);
        assert_eq!(cfg.pm.write_latency.as_ns(), 94);
        assert_eq!(cfg.pm.spec_buffer_entries, 4);
        assert_eq!(cfg.persist_path_latency.as_ns(), 20);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn speculation_window_scales_with_cores() {
        assert_eq!(SimConfig::asplos21(8).speculation_window().as_ns(), 160);
        assert_eq!(SimConfig::asplos21(16).speculation_window().as_ns(), 320);
    }

    #[test]
    fn cache_sets_geometry() {
        let cfg = SimConfig::asplos21(8);
        assert_eq!(cfg.l1.sets(), 64 * 1024 / 64 / 4);
        assert_eq!(cfg.llc.sets(), 16 * 1024 * 1024 / 64 / 16);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        assert!(SimConfig::asplos21(0).validate().is_err());
        let mut cfg = SimConfig::asplos21(8);
        cfg.store_queue = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SimConfig::asplos21(8);
        cfg.pm.spec_buffer_entries = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SimConfig::asplos21(8);
        cfg.llc.line_bytes = 128;
        assert!(cfg.validate().is_err());
        assert!(SimConfig::asplos21(64).validate().is_ok());
        assert!(SimConfig::asplos21(65).validate().is_err());
        let mut cfg = SimConfig::asplos21(8);
        cfg.l1.ways = 3;
        assert!(cfg.validate().is_err());
        let mut cfg = SimConfig::asplos21(8);
        cfg.llc.ways = 0;
        assert!(cfg.validate().is_err());
        let cfg = SimConfig::asplos21(8).with_persist_path_latency(Duration::ZERO);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn builder_style_updates() {
        let cfg = SimConfig::asplos21(8)
            .with_cores(16)
            .with_persist_path_latency(Duration::from_ns(100))
            .with_spec_buffer_entries(16)
            .with_seed(1);
        assert_eq!(cfg.cores, 16);
        assert_eq!(cfg.persist_path_latency.as_ns(), 100);
        assert_eq!(cfg.pm.spec_buffer_entries, 16);
        assert_eq!(cfg.seed, 1);
        assert_eq!(cfg.speculation_window().as_ns(), 1600);
    }
}

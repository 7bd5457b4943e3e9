//! Store configuration (Table 1 of the paper).

use chameleon_obs::ObsConfig;
use kvlog::LogConfig;

use crate::mode::GpmConfig;

/// Which compaction scheme drives the upper levels.
///
/// The paper's Fig. 15 compares the two; `Direct` is ChameleonDB's default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionScheme {
    /// Classic cascade: a full level compacts into its immediate lower
    /// level, possibly triggering a chain of compactions (Fig. 5a).
    LevelByLevel,
    /// Direct Compaction: one compaction covers the full prefix of levels
    /// and writes a single output table at the first non-full level
    /// (Fig. 5b).
    Direct,
}

/// Maintenance executor configuration.
///
/// A write that finds its shard's MemTable at the load threshold freezes
/// it (swap + view republish) before its own log append; then the flush /
/// WIM merge / GPM dump / compaction chain runs under the shard mutex.
/// `workers` picks who runs it: with `0` the writing thread runs it on its
/// own clock (caller runs, the paper's engine), otherwise a worker pool
/// does. Like [`ObsConfig`], none of this is part of the persisted config
/// blob: a store can be recovered with a different executor than it was
/// created with.
#[derive(Debug, Clone)]
pub struct BgConfig {
    /// Number of maintenance worker threads; `0` means the caller runs
    /// every maintenance job (and every GC pass) itself.
    pub workers: usize,
    /// Maximum frozen MemTables a shard may have pending (queued +
    /// in-flight) on the worker pool. A write that would freeze past this
    /// cap waits on the shard's condvar instead — counted in the
    /// `write_stalls` metric.
    pub frozen_queue_cap: usize,
}

impl Default for BgConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            frozen_queue_cap: 2,
        }
    }
}

/// Value-log garbage-collection configuration.
///
/// Like [`BgConfig`] this is *not* part of the persisted config blob: a
/// store can be recovered with GC on or off regardless of how it ran
/// before — extent state lives in the log itself.
#[derive(Debug, Clone)]
pub struct GcConfig {
    /// Master switch. When false the log grows as a pure appender (the
    /// pre-GC behaviour) and dead bytes are only counted, not reclaimed.
    pub enabled: bool,
}

impl GcConfig {
    /// Space-amplification trigger: a GC pass is queued when
    /// `footprint > SPACE_AMP_TARGET × live bytes` (and the gates below
    /// pass). 2.0 bounds the log at twice its live set.
    pub const SPACE_AMP_TARGET: f64 = 2.0;
    /// Never trigger below this many in-use extents — a small log's
    /// amplification ratio is noise.
    pub const MIN_EXTENTS: u64 = 4;
    /// Only sealed extents whose dead fraction (`dead / appended`) is at
    /// least this are relocation candidates; fuller extents cost more
    /// copy-forward bandwidth per byte reclaimed.
    pub const MIN_DEAD_RATIO: f64 = 0.25;
    /// Upper bound on extents relocated by one GC pass, so a single pass
    /// cannot monopolize the maintenance pool.
    pub const MAX_EXTENTS_PER_PASS: usize = 8;
}

impl Default for GcConfig {
    fn default() -> Self {
        Self { enabled: true }
    }
}

/// Configuration of a [`crate::ChameleonDb`].
///
/// Two profiles share the Table 1 per-shard geometry (MemTable size,
/// levels, ratio, ABI ratio). [`ChameleonConfig::paper`] and
/// [`ChameleonConfig::paper_with_shards`] are the engine the paper
/// evaluates — the reproduction harness builds every figure from them.
/// [`ChameleonConfig::with_shards`] and [`ChameleonConfig::tiny`] add the
/// three post-paper features (background maintenance pipeline, ordered
/// index, value-log GC) and are what the service layer and `kvbench` run.
#[derive(Debug, Clone)]
pub struct ChameleonConfig {
    /// Number of shards (Table 1: 16384). Must be a power of two.
    pub shards: usize,
    /// MemTable slot count per shard (Table 1: 8KB = 512 slots of 16B).
    pub memtable_slots: usize,
    /// Total LSM levels including the last (Table 1: 4).
    pub levels: usize,
    /// Between-level ratio `r` (Table 1: 4).
    pub ratio: usize,
    /// Load-factor threshold range; each shard draws its own threshold
    /// uniformly from this range (Table 1: 0.65–0.85, §2.5 "Randomized
    /// Load Factors").
    pub load_factor: (f64, f64),
    /// Compaction scheme for upper levels.
    pub compaction: CompactionScheme,
    /// Start in Write-Intensive Mode (§2.3).
    pub write_intensive: bool,
    /// Number of worker threads the store pre-allocates log writers for.
    pub max_threads: usize,
    /// Maximum ABI tables that may be dumped unmerged by Get-Protect Mode
    /// (§2.4; paper default 1).
    pub max_abi_dumps: usize,
    /// Deterministic seed for the per-shard load-factor draw.
    pub seed: u64,
    /// Storage-log configuration.
    pub log: LogConfig,
    /// Manifest capacity in bytes (each record is 32B; sized generously).
    pub manifest_bytes: u64,
    /// Dynamic Get-Protect Mode configuration (§2.4).
    pub gpm: GpmConfig,
    /// Ablation switch: when false, gets ignore the ABI and walk the upper
    /// levels in Pmem (isolating the ABI's contribution; the ABI is still
    /// maintained for compactions and recovery).
    pub use_abi_for_get: bool,
    /// Maintain the volatile ordered key index (`kvorder`: per shard a
    /// copy-on-write tree of sorted leaves, ≈ 12 B of DRAM per live key,
    /// one leaf copy per put/delete) that serves range scans. When
    /// false, `scan` returns `KvError::Unsupported` and the write path
    /// pays nothing — the
    /// pre-index baseline the scan-regression experiment compares
    /// against. Not part of the persisted config blob: when enabled,
    /// recovery rebuilds the index from the durable structures.
    pub ordered_index: bool,
    /// Observability configuration (event journal, maintenance spans,
    /// per-op latency histograms). Off by default — when off, the hot
    /// paths pay one branch and nothing is allocated. Deliberately *not*
    /// part of the persisted config blob: a store can be recovered with a
    /// different observability setting than it was created with.
    pub obs: ObsConfig,
    /// Background maintenance pipeline (not part of the persisted blob).
    pub bg: BgConfig,
    /// Value-log garbage collection (not part of the persisted blob).
    pub gc: GcConfig,
}

impl ChameleonConfig {
    /// The paper's engine at Table 1 scale: 16384 shards, 8KB MemTables
    /// (128MB total), 4 levels, ratio 4, load factors 0.65–0.85, 512KB ABIs
    /// (8GB total). See [`ChameleonConfig::paper_with_shards`].
    pub fn paper() -> Self {
        Self::paper_with_shards(16384)
    }

    /// The paper's engine with a custom shard count: Table 1 per-shard
    /// geometry and none of the three post-paper features. No worker
    /// pool: the write that finds a MemTable full runs its flush and
    /// compactions itself, so their modelled cost lands on the caller's
    /// simulated clock — the same clock every baseline pays its
    /// maintenance on — and no ordered index or GC state adds to the DRAM
    /// footprint the paper reports.
    pub fn paper_with_shards(shards: usize) -> Self {
        Self {
            ordered_index: false,
            bg: BgConfig {
                workers: 0,
                ..BgConfig::default()
            },
            gc: GcConfig { enabled: false },
            ..Self::with_shards(shards)
        }
    }

    /// Table 1 geometry with a custom shard count and the service
    /// defaults: background maintenance pipeline, ordered index and
    /// value-log GC all on.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards,
            memtable_slots: 512,
            levels: 4,
            ratio: 4,
            load_factor: (0.65, 0.85),
            compaction: CompactionScheme::Direct,
            write_intensive: false,
            max_threads: 64,
            max_abi_dumps: 1,
            seed: 0x43484D4C,
            log: LogConfig::default(),
            manifest_bytes: 4 << 20,
            gpm: GpmConfig::default(),
            use_abi_for_get: true,
            ordered_index: true,
            obs: ObsConfig::off(),
            bg: BgConfig::default(),
            gc: GcConfig::default(),
        }
    }

    /// A small configuration for unit tests and doc examples: 8 shards,
    /// tiny MemTables, still 4 levels so every compaction path is
    /// exercised.
    pub fn tiny() -> Self {
        Self {
            shards: 8,
            memtable_slots: 64,
            log: LogConfig {
                capacity: 64 << 20,
                ..LogConfig::default()
            },
            manifest_bytes: 1 << 20,
            ..Self::with_shards(8)
        }
    }

    /// Slot capacity of the upper levels of one shard: `L0` holds up to
    /// `r` MemTable-sized tables and each deeper upper level up to `r-1`
    /// tables of exponentially growing size (the steady state of Direct
    /// Compaction, §2.1). The shard's ABI is sized to exactly this
    /// (Table 1's 512KB per shard for the paper geometry).
    pub fn upper_capacity_slots(&self) -> usize {
        let m = self.memtable_slots;
        let r = self.ratio;
        let mut total = r * m;
        let mut table = r * m;
        // Levels 1..levels-1 are upper levels holding up to r-1 tables.
        for _ in 1..self.levels.saturating_sub(1) {
            total += (r - 1) * table;
            table *= r;
        }
        total
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if !self.shards.is_power_of_two() {
            return Err(format!(
                "shards must be a power of two, got {}",
                self.shards
            ));
        }
        if self.levels < 2 {
            return Err("need at least 2 levels (one upper + last)".into());
        }
        if self.ratio < 2 {
            return Err("between-level ratio must be >= 2".into());
        }
        let (lo, hi) = self.load_factor;
        if !(0.1..=0.95).contains(&lo) || !(0.1..=0.95).contains(&hi) || lo > hi {
            return Err(format!("bad load factor range {lo}..{hi}"));
        }
        if self.max_threads == 0 {
            return Err("max_threads must be >= 1".into());
        }
        if self.bg.workers > 0 && self.bg.frozen_queue_cap == 0 {
            return Err("bg.frozen_queue_cap must be >= 1 with a worker pool".into());
        }
        Ok(())
    }

    /// The paper's index write-amplification estimate `(l - 1 + r) / f`
    /// (§2.5), using the midpoint load factor. The ablation harness checks
    /// measured media traffic against this.
    pub fn predicted_write_amplification(&self) -> f64 {
        let f = (self.load_factor.0 + self.load_factor.1) / 2.0;
        ((self.levels - 1 + self.ratio) as f64) / f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table1() {
        let c = ChameleonConfig::paper();
        assert_eq!(c.shards, 16384);
        // 8KB MemTable per shard = 512 slots of 16B.
        assert_eq!(c.memtable_slots * 16, 8 << 10);
        assert_eq!(c.levels, 4);
        assert_eq!(c.ratio, 4);
        assert_eq!(c.load_factor, (0.65, 0.85));
        // ABI = 512KB per shard = 32768 slots.
        assert_eq!(c.upper_capacity_slots() * 16, 512 << 10);
        assert!(c.validate().is_ok());
        // None of the post-paper features.
        assert!(c.bg.workers == 0 && !c.ordered_index && !c.gc.enabled);
    }

    #[test]
    fn upper_capacity_for_paper_geometry() {
        // l=4, r=4, m=512: L0 4x512 + L1 3x2048 + L2 3x8192 = 32768.
        let c = ChameleonConfig::paper();
        assert_eq!(c.upper_capacity_slots(), 32768);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = ChameleonConfig::tiny();
        c.shards = 3;
        assert!(c.validate().is_err());
        let mut c = ChameleonConfig::tiny();
        c.levels = 1;
        assert!(c.validate().is_err());
        let mut c = ChameleonConfig::tiny();
        c.load_factor = (0.9, 0.2);
        assert!(c.validate().is_err());
        let mut c = ChameleonConfig::tiny();
        c.bg.frozen_queue_cap = 0;
        assert!(c.validate().is_err());
        // Without a pool the cap bounds nothing.
        c.bg.workers = 0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn predicted_write_amplification_formula() {
        let c = ChameleonConfig::paper();
        // (4 - 1 + 4) / 0.75 = 9.33...
        assert!((c.predicted_write_amplification() - 7.0 / 0.75).abs() < 1e-9);
    }

    #[test]
    fn two_level_config_has_only_l0_uppers() {
        let mut c = ChameleonConfig::tiny();
        c.levels = 2;
        assert_eq!(c.upper_capacity_slots(), c.ratio * c.memtable_slots);
    }
}

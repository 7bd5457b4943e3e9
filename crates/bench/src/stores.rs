//! Store builders with paper-comparable, scaled geometry.

use std::sync::Arc;

use baselines::{
    CcehConfig, DramHash, DramHashConfig, LsmVariant, MatrixKv, MatrixKvConfig, NoveLsm,
    NoveLsmConfig, PmemHash, PmemLsm, PmemLsmConfig,
};
use chameleondb::{ChameleonConfig, ChameleonDb};
use kvapi::KvStore;
use kvlog::LogConfig;
use pmem_sim::PmemDevice;

/// The six §3.2 store designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    Chameleon,
    PmemLsmPink,
    PmemLsmNf,
    PmemLsmF,
    PmemHash,
    DramHash,
}

impl StoreKind {
    /// All §3.2 stores in Table 4 column order.
    pub fn all() -> [StoreKind; 6] {
        [
            StoreKind::Chameleon,
            StoreKind::PmemLsmPink,
            StoreKind::PmemLsmNf,
            StoreKind::PmemLsmF,
            StoreKind::PmemHash,
            StoreKind::DramHash,
        ]
    }

    /// Display name matching the paper's labels.
    pub fn name(&self) -> &'static str {
        match self {
            StoreKind::Chameleon => "ChameleonDB",
            StoreKind::PmemLsmPink => "Pmem-LSM-PinK",
            StoreKind::PmemLsmNf => "Pmem-LSM-NF",
            StoreKind::PmemLsmF => "Pmem-LSM-F",
            StoreKind::PmemHash => "Pmem-Hash",
            StoreKind::DramHash => "Dram-Hash",
        }
    }

    /// Parses a store name (paper label or short form).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "chameleondb" | "chameleon" => Some(StoreKind::Chameleon),
            "pmem-lsm-pink" | "pink" => Some(StoreKind::PmemLsmPink),
            "pmem-lsm-nf" | "nf" => Some(StoreKind::PmemLsmNf),
            "pmem-lsm-f" | "f" => Some(StoreKind::PmemLsmF),
            "pmem-hash" | "cceh" => Some(StoreKind::PmemHash),
            "dram-hash" | "dram" => Some(StoreKind::DramHash),
            _ => None,
        }
    }
}

/// Common scaled sizing shared by the experiments.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Unique keys loaded before measuring.
    pub keys: u64,
    /// Value size in bytes.
    pub value_size: usize,
    /// Expected extra appends beyond the load (updates), for log sizing.
    pub extra_ops: u64,
}

impl Scale {
    /// Shard count keeping ~61k keys per shard — the paper's 1B keys over
    /// 16384 shards — so shards reach the same steady-state level structure
    /// and the ABI covers the same fraction of the index.
    pub fn shards(&self) -> usize {
        ((self.keys / 61_000).max(8) as usize).next_power_of_two()
    }

    /// Storage-log capacity with headroom for updates and extent padding.
    pub fn log_capacity(&self) -> u64 {
        let per_entry = (24 + self.value_size) as u64;
        ((self.keys + self.extra_ops) * per_entry * 3 / 2 + (64 << 20)).next_multiple_of(1 << 20)
    }

    /// Device capacity: log + index tables + transients.
    pub fn device_capacity(&self) -> usize {
        let index = self.keys * 16 * 6; // live + compaction transients
        (self.log_capacity() + index + (512 << 20)) as usize
    }

    fn log_config(&self) -> LogConfig {
        LogConfig {
            capacity: self.log_capacity(),
            ..LogConfig::default()
        }
    }
}

/// A store together with its device (the device outlives every run).
pub struct BuiltStore {
    pub kind: StoreKind,
    pub dev: Arc<PmemDevice>,
    pub store: Box<dyn KvStore>,
}

/// Builds a fresh store of `kind` on its own Optane device.
pub fn build(kind: StoreKind, scale: Scale) -> BuiltStore {
    let store: Box<dyn KvStore>;
    let dev;
    match kind {
        StoreKind::Chameleon => {
            let (d, s) = build_chameleon(scale);
            dev = d;
            store = Box::new(s);
        }
        StoreKind::PmemLsmPink => {
            let (d, s) = build_lsm(LsmVariant::PinK, scale);
            dev = d;
            store = Box::new(s);
        }
        StoreKind::PmemLsmNf => {
            let (d, s) = build_lsm(LsmVariant::NoFilter, scale);
            dev = d;
            store = Box::new(s);
        }
        StoreKind::PmemLsmF => {
            let (d, s) = build_lsm(LsmVariant::Filter, scale);
            dev = d;
            store = Box::new(s);
        }
        StoreKind::PmemHash => {
            let (d, s) = build_cceh(scale);
            dev = d;
            store = Box::new(s);
        }
        StoreKind::DramHash => {
            let (d, s) = build_dram_hash(scale);
            dev = d;
            store = Box::new(s);
        }
    }
    BuiltStore { kind, dev, store }
}

/// Builds a ChameleonDB at harness scale.
pub fn build_chameleon(scale: Scale) -> (Arc<PmemDevice>, ChameleonDb) {
    build_chameleon_with(scale, chameleon_config(scale))
}

/// Builds a ChameleonDB with an explicit configuration (mode/ablation
/// harnesses adjust compaction scheme, GPM, ABI switches).
pub fn build_chameleon_with(scale: Scale, cfg: ChameleonConfig) -> (Arc<PmemDevice>, ChameleonDb) {
    let dev = PmemDevice::optane(scale.device_capacity());
    let store = ChameleonDb::create(Arc::clone(&dev), cfg).expect("create chameleondb");
    (dev, store)
}

/// Builds a Pmem-LSM variant at harness scale.
pub fn build_lsm(variant: LsmVariant, scale: Scale) -> (Arc<PmemDevice>, PmemLsm) {
    let dev = PmemDevice::optane(scale.device_capacity());
    let store =
        PmemLsm::create(Arc::clone(&dev), lsm_config(variant, scale)).expect("create pmem-lsm");
    (dev, store)
}

/// Builds the CCEH (Pmem-Hash) baseline at harness scale.
pub fn build_cceh(scale: Scale) -> (Arc<PmemDevice>, PmemHash) {
    let dev = PmemDevice::optane(scale.device_capacity());
    let store = PmemHash::create(
        Arc::clone(&dev),
        CcehConfig {
            log: scale.log_config(),
            ..CcehConfig::default()
        },
    )
    .expect("create cceh");
    (dev, store)
}

/// Builds the Dram-Hash baseline at harness scale.
pub fn build_dram_hash(scale: Scale) -> (Arc<PmemDevice>, DramHash) {
    let dev = PmemDevice::optane(scale.device_capacity());
    let store = DramHash::create(
        Arc::clone(&dev),
        DramHashConfig {
            log: scale.log_config(),
            initial_capacity: 4096,
            ..DramHashConfig::default()
        },
    )
    .expect("create dram-hash");
    (dev, store)
}

/// The paper's engine at harness scale: Table 1 per-shard geometry,
/// maintenance inline on the caller's simulated clock like every baseline
/// here, no ordered index, no GC. Every figure, table and ablation builds
/// from this; an experiment about a post-paper feature (`churn`) turns
/// that feature on itself.
pub fn chameleon_config(scale: Scale) -> ChameleonConfig {
    ChameleonConfig {
        log: scale.log_config(),
        manifest_bytes: 16 << 20,
        ..ChameleonConfig::paper_with_shards(scale.shards())
    }
}

/// Pmem-LSM config at harness scale.
pub fn lsm_config(variant: LsmVariant, scale: Scale) -> PmemLsmConfig {
    PmemLsmConfig {
        log: scale.log_config(),
        manifest_bytes: 16 << 20,
        ..PmemLsmConfig::with_shards(variant, scale.shards())
    }
}

/// NoveLSM comparator at harness scale (§3.7). The MemTable and level
/// capacities are scaled with the dataset (the paper writes 64GB; we write
/// hundreds of MB) so the leveled-compaction cascade runs the same number
/// of times as at paper scale.
pub fn build_novelsm(scale: Scale) -> (Arc<PmemDevice>, NoveLsm) {
    let dev = PmemDevice::optane(scale.device_capacity());
    let store = NoveLsm::create(
        Arc::clone(&dev),
        NoveLsmConfig {
            log: scale.log_config(),
            skiplist_arena: 512 << 20,
            memtable_entries: ((scale.keys / 64).clamp(1024, 1 << 20)) as usize,
            ratio: 8,
            levels: 3,
            ..NoveLsmConfig::default()
        },
    )
    .expect("create novelsm");
    (dev, store)
}

/// MatrixKV comparator at harness scale (§3.7), with dataset-scaled
/// MemTable/L0 capacities (see [`build_novelsm`]).
pub fn build_matrixkv(scale: Scale) -> (Arc<PmemDevice>, MatrixKv) {
    let dev = PmemDevice::optane(scale.device_capacity());
    let store = MatrixKv::create(
        Arc::clone(&dev),
        MatrixKvConfig {
            log: scale.log_config(),
            memtable_entries: ((scale.keys / 128).clamp(1024, 1 << 20)) as usize,
            l0_rows: 8,
            ratio: 8,
            levels: 3,
            ..MatrixKvConfig::default()
        },
    )
    .expect("create matrixkv");
    (dev, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::load_store;

    /// The paper engine runs every flush and compaction on the caller's
    /// clock and has no worker threads, so a one-thread load is a pure
    /// function of the cost model.
    #[test]
    fn one_thread_chameleon_load_is_bit_identical() {
        let scale = Scale {
            keys: 20_000,
            value_size: 8,
            extra_ops: 0,
        };
        let load = || {
            let built = build(StoreKind::Chameleon, scale);
            let r = load_store(built.store.as_ref(), &built.dev, scale.keys, 1);
            (r.elapsed_ns, r.mops().to_bits())
        };
        assert_eq!(load(), load());
    }
}

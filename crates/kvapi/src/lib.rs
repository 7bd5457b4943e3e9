//! Common API shared by ChameleonDB and the baseline stores.
//!
//! Every store in this workspace implements [`KvStore`] over a simulated
//! persistent-memory device, so the evaluation harnesses can drive them
//! interchangeably — the stores differ only in *where the index lives and
//! how it is organized*, exactly as in §3.2 of the paper.

use pmem_sim::{PmemError, ThreadCtx};

pub mod hash;

pub use hash::{bloom_hash, hash64, key_of_hash, mix64, PreHashed};

/// Errors surfaced by store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// The backing device ran out of space.
    Pmem(PmemError),
    /// A persistent structure failed validation during recovery.
    Corrupt(&'static str),
    /// A fixed-capacity structure (e.g. a full table that cannot be
    /// compacted further) could not admit the item.
    Full(&'static str),
    /// The value is larger than the store's configured maximum.
    ValueTooLarge { len: usize, max: usize },
    /// The store does not implement this operation (e.g. a hash-only
    /// baseline asked for a range scan).
    Unsupported(&'static str),
}

impl From<PmemError> for KvError {
    fn from(e: PmemError) -> Self {
        KvError::Pmem(e)
    }
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Pmem(e) => write!(f, "device error: {e}"),
            KvError::Corrupt(what) => write!(f, "corrupt persistent state: {what}"),
            KvError::Full(what) => write!(f, "structure full: {what}"),
            KvError::ValueTooLarge { len, max } => {
                write!(f, "value of {len} bytes exceeds maximum {max}")
            }
            KvError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
        }
    }
}

impl std::error::Error for KvError {}

/// Convenience alias for store results.
pub type Result<T> = std::result::Result<T, KvError>;

/// Space accounting of a value log with extent-lifecycle management.
///
/// Index *location words* (packed `{offset, generation, size-hint}`; see
/// `kvlog`) are **repointable**: garbage collection may relocate an entry
/// and rewrite every index word referencing it, so a location word is
/// only stable while its reader holds an epoch pin. The entry a word
/// points at is always readable — GC quarantines emptied extents until
/// every pinned reader that could hold the old word has drained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogSpaceStats {
    /// Bytes of entries appended and not yet reclaimed (live + dead).
    pub appended_bytes: u64,
    /// Bytes still referenced by some index structure.
    pub live_bytes: u64,
    /// Bytes superseded by overwrites/deletes, awaiting reclamation.
    pub dead_bytes: u64,
    /// Bytes occupied by in-use extents (what space amplification bounds:
    /// `footprint / live <= target`).
    pub footprint_bytes: u64,
}

impl LogSpaceStats {
    /// Space amplification as parts-per-thousand (`u64::MAX` when no live
    /// bytes but a nonzero footprint remains).
    pub fn space_amp_milli(&self) -> u64 {
        match self
            .footprint_bytes
            .saturating_mul(1000)
            .checked_div(self.live_bytes)
        {
            Some(amp) => amp,
            None if self.footprint_bytes == 0 => 1000,
            None => u64::MAX,
        }
    }

    /// Live fraction of appended bytes as parts-per-thousand.
    pub fn live_ratio_milli(&self) -> u64 {
        self.live_bytes
            .saturating_mul(1000)
            .checked_div(self.appended_bytes)
            .unwrap_or(1000)
    }
}

/// A key-value store over simulated persistent memory.
///
/// Keys are 8 bytes (the paper's key size); all stores place items by the
/// key's 64-bit hash. Values are opaque bytes stored in a persistent log.
/// Range scans ([`KvStore::scan`]) are optional: the paper excludes
/// YCSB-E because its structures are hash-keyed, so hash-only baselines
/// keep the default [`KvError::Unsupported`] implementation, while
/// ChameleonDB serves scans from a volatile ordered index over live keys
/// (the `kvorder` crate).
///
/// Implementations are internally synchronized: `&self` methods may be
/// called from many threads, each passing its own [`ThreadCtx`].
pub trait KvStore: Send + Sync {
    /// Short name used in harness output (e.g. `"chameleondb"`).
    fn name(&self) -> &'static str;

    /// Inserts or updates `key`.
    fn put(&self, ctx: &mut ThreadCtx, key: u64, value: &[u8]) -> Result<()>;

    /// Looks up `key`; appends the value into `out` and returns `true` if
    /// present. `out` is cleared first.
    fn get(&self, ctx: &mut ThreadCtx, key: u64, out: &mut Vec<u8>) -> Result<bool>;

    /// Removes `key`; returns `true` if it was present.
    fn delete(&self, ctx: &mut ThreadCtx, key: u64) -> Result<bool>;

    /// Range scan: up to `limit` live keys `>= start_key`, ascending.
    ///
    /// A scan that races writers guarantees three things: its results
    /// ascend strictly; every key returned was live at some instant during
    /// the scan; and every key live for the whole scan is returned once
    /// (until `limit` is reached). Stores without an ordered index keep
    /// this default.
    fn scan(&self, _ctx: &mut ThreadCtx, _start_key: u64, _limit: usize) -> Result<Vec<u64>> {
        Err(KvError::Unsupported("range scan"))
    }

    /// Forces volatile write buffers (e.g. log batch buffers) to media so
    /// that everything previously accepted is crash-recoverable.
    fn sync(&self, ctx: &mut ThreadCtx) -> Result<()>;

    /// Bytes of DRAM currently used by volatile structures (index tables,
    /// MemTables, filters, caches) — the "DRAM footprint" column of Table 4.
    fn dram_footprint(&self) -> u64;

    /// Approximate number of live items.
    fn approx_len(&self) -> u64;
}

/// Crash-recovery support (the "restart time" column of Table 4).
pub trait CrashRecover {
    /// Simulates a power failure (dropping all volatile state and every
    /// un-fenced line on the device) and then rebuilds the store from the
    /// durable media alone. On return the store serves requests again; the
    /// simulated time the rebuild consumed is charged to `ctx`.
    fn crash_and_recover(&mut self, ctx: &mut ThreadCtx) -> Result<()>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = KvError::ValueTooLarge { len: 10, max: 4 };
        assert!(e.to_string().contains("10"));
        let e = KvError::Corrupt("manifest magic");
        assert!(e.to_string().contains("manifest magic"));
    }

    #[test]
    fn pmem_error_converts() {
        let p = PmemError::OutOfMemory {
            requested: 1,
            available: 0,
        };
        let k: KvError = p.into();
        assert!(matches!(k, KvError::Pmem(_)));
    }
}

//! Hash-table building blocks for the stores.
//!
//! The paper's index structures are all hash tables of 16-byte
//! `{key_hash, location}` entries (§2.5, "KV items in the storage log"):
//!
//! * [`SharedTable`] — the mutable in-DRAM linear-probing table (one
//!   writer, lock-free readers): ChameleonDB's MemTables and Auxiliary
//!   Bypass Index (ABI), and the Pmem-LSM baselines' MemTables and PinK
//!   mirrors.
//! * [`FixedHashTable`] — the immutable, fixed-size linear-probing table
//!   flushed to persistent memory as an LSM (sub-)level.
//! * [`BloomFilter`] — per-table filters for the Pmem-LSM-F baseline.
//! * [`RobinHoodMap`] — the growable robin-hood map used by the Dram-Hash
//!   baseline (the paper uses martinus/robin-hood-hashing).
//!
//! Every operation charges its modelled CPU/DRAM cost to the caller's
//! [`pmem_sim::ThreadCtx`], and Pmem tables charge device traffic, so the
//! performance comparisons in the harnesses emerge from structure, not from
//! hand-tuned per-store constants.

mod bloom;
mod fixed;
mod robinhood;
mod shared;
mod slot;

pub use bloom::BloomFilter;
pub use fixed::{FixedHashTable, TableBuilder, TableHeader, TABLE_HEADER_BYTES};
pub use robinhood::RobinHoodMap;
pub use shared::SharedTable;
pub use slot::{Slot, SLOT_BYTES, TOMBSTONE_BIT};

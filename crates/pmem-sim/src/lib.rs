//! Simulated Intel Optane DC persistent memory.
//!
//! The ChameleonDB paper (EuroSys '21) evaluates on real Optane Pmem DIMMs.
//! This crate substitutes that hardware with a DRAM-backed simulator that
//! enforces the three device properties the paper's design exploits:
//!
//! 1. **256B media write unit.** Every store is eventually accounted in
//!    distinct 256B media blocks ("XPLines"). A fenced write that covers a
//!    block only partially is charged as a read-modify-write of the whole
//!    block, reproducing the write amplification of Fig. 1 and the
//!    `ipmwatch` media-traffic numbers of Fig. 17.
//! 2. **Nanosecond-scale access cost.** Every operation advances a per-thread
//!    [`SimClock`] by an explicit, documented [`CostModel`] amount, so
//!    latency distributions and throughput are deterministic and
//!    hardware-independent.
//! 3. **Persistence domain.** Stores are buffered in a pending-line table
//!    (the simulated CPU cache / write-pending queue) and only reach durable
//!    media on `flush` + `fence`. [`PmemDevice::crash`] discards all
//!    pending lines; recovery code must rebuild from media alone. Media is
//!    one anonymous huge-page mapping per device. Media blocks fall into
//!    64 lock stripes, each holding its blocks' pending lines under one
//!    `RwLock` that also guards their bytes in the mapping: a store
//!    updates a pending line, a fence moves it to media, and a read copies
//!    it out, each under the block's stripe lock, so two threads storing to
//!    disjoint bytes of one line never lose either store, and two readers
//!    of different blocks rarely share a lock. Traffic counters
//!    ([`MediaStats`]) keep one cache-line-aligned lane per
//!    [`ThreadCtx::lane`] and sum them when read.
//!
//! The same device type also models the SATA and PCIe SSD profiles used by
//! Fig. 2 of the paper (microsecond latency, 4KB blocks).
//!
//! Only *time* is virtual: every byte written through this crate actually
//! exists in the device image and is read back verbatim, so correctness
//! (including crash consistency) is testable for real.

mod alloc;
mod clock;
mod cost;
mod device;
mod hist;
mod profile;
mod stats;

pub use alloc::PmemAllocator;
pub use clock::SimClock;
pub use cost::CostModel;
pub use device::{CrashPoint, PRegion, PmemDevice, PmemError, ThreadCtx, CACHE_LINE, LANES};
pub use hist::Histogram;
pub use profile::DeviceProfile;
pub use stats::{MediaLane, MediaStats, StatsSnapshot};

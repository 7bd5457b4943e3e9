//! Input generation, owned by the benchmark: the program under test
//! receives only the ops made here. Everything is a pure function of
//! `(workload, seed, quick)`, so the same seed replays the same stream
//! and every expected answer is known before the first op is issued.
//!
//! The mixers are copies, not imports, of the ones in `kvapi`/`ycsb`: a
//! later change to those crates must not silently change the benchmark's
//! inputs.

/// SplitMix64 finalizer (bijective).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix64(seed) ^ mix64(stream.wrapping_mul(0xA24BAED4963EE407)))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, n)` (multiply-shift; bias < 2^-32 for the sizes used).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() >> 32) * n) >> 32
    }
}

/// Zipfian ranks in `[0, n)`, rank 0 the most popular (Gray et al., the
/// algorithm YCSB uses).
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub const THETA: f64 = 0.99;

    pub fn new(n: u64) -> Self {
        assert!(n >= 2, "zipfian needs at least two items");
        let theta = Self::THETA;
        let zeta = |m: u64| -> f64 { (1..=m).map(|i| (i as f64).powf(-theta)).sum() };
        let zetan = zeta(n);
        Self {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    /// Analytic probability of rank 0.
    pub fn head_mass(&self) -> f64 {
        1.0 / self.zetan
    }

    pub fn rank(&self, uniform: u64) -> u64 {
        let u = (uniform >> 11) as f64 / (1u64 << 53) as f64;
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }

    /// Rank scattered over `[0, n)` so hot items are not neighbours.
    pub fn scrambled(&self, uniform: u64) -> u64 {
        mix64(self.rank(uniform)) % self.n
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Put,
    Get,
    Scan,
}

/// One generated operation.
///
/// `ver` is the version a `Put` writes, the newest version this stream
/// wrote to the key before a `Get` (0 = the preloaded one), or the length
/// of a `Scan`. Keys are partitioned between streams, so a stream's own
/// history is the key's whole history.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: Kind,
    pub key: u64,
    pub ver: u32,
}

/// Number of load threads (embedded) or client connections (served):
/// this box has two cores, and the sizing in the README assumes it.
pub const STREAMS: usize = 2;

/// Longest scan; also the margin kept free at the top of the dense key
/// range so that every scan's expected answer is exactly `start..start+len`.
pub const MAX_SCAN: u64 = 100;

/// Fresh keys inserted by `embed-scan` live far above the dense range.
pub const FRESH_BASE: u64 = 1 << 40;

/// A workload's size. Counts start from the issue's divided by eight (and
/// shards with them, which keeps keys per shard — the property that
/// decides which level serves a get — unchanged), so that a run with its
/// set-up repeats fits the driver's time cap on two cores; the README's
/// workload section says where and why a count departs from that.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub shards: usize,
    /// Keys loaded before the measured phase (the data set, for
    /// `embed-load`, whose measured phase is the load itself).
    pub keys: u64,
    /// Measured operations, all streams together.
    pub ops: u64,
    pub value_len: usize,
}

pub const WORKLOADS: [&str; 6] = [
    "embed-load",
    "embed-read",
    "embed-update",
    "embed-scan",
    "serve-put",
    "serve-mixed",
];

pub fn sizes(workload: &str, quick: bool) -> Sizes {
    let s = match workload {
        "embed-load" => Sizes {
            shards: 16,
            keys: 500_000,
            ops: 500_000,
            value_len: 8,
        },
        "embed-read" => Sizes {
            shards: 16,
            keys: 500_000,
            ops: 2_000_000,
            value_len: 8,
        },
        "embed-update" => Sizes {
            shards: 8,
            keys: 250_000,
            ops: 1_500_000,
            value_len: 64,
        },
        "embed-scan" => Sizes {
            shards: 4,
            keys: 62_500,
            ops: 400_000,
            value_len: 8,
        },
        "serve-put" => Sizes {
            shards: 64,
            keys: 65_536,
            ops: 40_000,
            value_len: 64,
        },
        "serve-mixed" => Sizes {
            shards: 64,
            keys: 65_536,
            ops: 60_000,
            value_len: 64,
        },
        other => panic!("unknown workload {other}"),
    };
    if quick {
        Sizes {
            shards: (s.shards / 8).max(1),
            keys: s.keys / 8,
            ops: s.ops / 8,
            ..s
        }
    } else {
        s
    }
}

/// Everything one repeat of a workload needs, and every answer it expects.
#[derive(Debug)]
pub struct Plan {
    pub sizes: Sizes,
    /// User keys loaded during set-up with version 0 (empty for
    /// `embed-load`).
    pub preload: Vec<u64>,
    /// Measured ops, one stream per thread or connection.
    pub streams: Vec<Vec<Op>>,
    /// `(key, newest version)` for an evenly strided sample of the final
    /// data set: what the read-back audit must find.
    pub audit: Vec<(u64, u32)>,
    /// A key that must be present after restart, and its version.
    pub probe: (u64, u32),
    /// True when the preloaded keys are exactly `0..keys`.
    pub dense: bool,
}

const AUDIT_MAX: u64 = 65_536;

pub fn plan(workload: &str, seed: u64, quick: bool) -> Plan {
    let sz = sizes(workload, quick);
    let n = sz.keys;
    let per = sz.ops / STREAMS as u64;
    let dense = workload == "embed-scan";
    let salt = mix64(seed ^ 0x6B76_6265_6E63_6800);
    let key_of = |idx: u64| if dense { idx } else { mix64(idx ^ salt) };
    // Newest version written to each key index by the measured streams.
    let mut newest = vec![0u32; n as usize];
    let mut streams = Vec::with_capacity(STREAMS);
    for t in 0..STREAMS as u64 {
        let mut rng = Rng::new(seed, t + 1);
        let own = n / STREAMS as u64; // key indices idx ≡ t (mod STREAMS)
        let mut ops = Vec::with_capacity(per as usize);
        match workload {
            "embed-load" => {
                let mut idx = t;
                while idx < n {
                    ops.push(Op {
                        kind: Kind::Put,
                        key: key_of(idx),
                        ver: 0,
                    });
                    idx += STREAMS as u64;
                }
            }
            "embed-read" => {
                for _ in 0..per {
                    ops.push(Op {
                        kind: Kind::Get,
                        key: key_of(rng.below(n)),
                        ver: 0,
                    });
                }
            }
            "embed-update" | "serve-mixed" | "serve-put" => {
                let zipf = (workload != "serve-put").then(|| Zipf::new(own));
                for _ in 0..per {
                    let pick = match &zipf {
                        Some(z) => z.scrambled(rng.next_u64()),
                        None => rng.below(own),
                    };
                    let idx = pick * STREAMS as u64 + t;
                    let put = workload == "serve-put" || rng.next_u64() & 1 == 0;
                    let cur = &mut newest[idx as usize];
                    if put {
                        *cur += 1;
                    }
                    ops.push(Op {
                        kind: if put { Kind::Put } else { Kind::Get },
                        key: key_of(idx),
                        ver: *cur,
                    });
                }
            }
            "embed-scan" => {
                let zipf = Zipf::new(n - MAX_SCAN);
                let mut fresh = 0u64;
                for _ in 0..per {
                    if rng.below(100) < 95 {
                        ops.push(Op {
                            kind: Kind::Scan,
                            key: zipf.scrambled(rng.next_u64()),
                            ver: 1 + rng.below(MAX_SCAN) as u32,
                        });
                    } else {
                        ops.push(Op {
                            kind: Kind::Put,
                            key: FRESH_BASE + fresh * STREAMS as u64 + t,
                            ver: 0,
                        });
                        fresh += 1;
                    }
                }
            }
            other => panic!("unknown workload {other}"),
        }
        streams.push(ops);
    }
    let stride = n.div_ceil(AUDIT_MAX).max(1);
    let mut audit: Vec<(u64, u32)> = (0..n)
        .step_by(stride as usize)
        .map(|idx| (key_of(idx), newest[idx as usize]))
        .collect();
    if dense {
        // The fresh inserts are part of the final data set too.
        audit.extend(
            streams
                .iter()
                .flatten()
                .filter(|op| op.kind == Kind::Put)
                .map(|op| (op.key, 0)),
        );
    }
    Plan {
        sizes: sz,
        preload: if workload == "embed-load" {
            Vec::new()
        } else {
            (0..n).map(key_of).collect()
        },
        streams,
        probe: audit[audit.len() / 2],
        audit,
        dense,
    }
}

impl Plan {
    /// Order-sensitive digest of everything the program will be given.
    pub fn digest(&self) -> u64 {
        let mut h = mix64(self.sizes.value_len as u64 ^ (self.sizes.shards as u64) << 32);
        let mut fold = |x: u64| h = mix64(h ^ x).rotate_left(17);
        for &k in &self.preload {
            fold(k);
        }
        for s in &self.streams {
            for op in s {
                fold(op.key);
                fold((op.kind as u64) << 32 | op.ver as u64);
            }
        }
        h
    }

    pub fn measured_ops(&self) -> u64 {
        self.streams.iter().map(|s| s.len() as u64).sum()
    }

    /// Distinct keys in the store when the measured phase ends: overwrites
    /// add none, `embed-load` and `embed-scan` insert only new ones.
    pub fn final_keys(&self) -> u64 {
        let overwrites = !self.preload.is_empty() && !self.dense;
        self.preload.len() as u64 + if overwrites { 0 } else { self.measured_puts() }
    }

    pub fn measured_puts(&self) -> u64 {
        let puts = self
            .streams
            .iter()
            .flatten()
            .filter(|op| op.kind == Kind::Put);
        puts.count() as u64
    }
}

/// Fills `buf` with the `len`-byte value of `(key, ver)`.
///
/// Values of 16 bytes and more start with the key and the version in the
/// clear, so a reader can tell which version it was served; 8-byte values
/// are a mix of both.
pub fn value_into(buf: &mut Vec<u8>, key: u64, ver: u32, len: usize) {
    buf.clear();
    if len < 16 {
        buf.extend_from_slice(&mix64(key ^ (ver as u64).rotate_left(40)).to_le_bytes()[..len]);
        return;
    }
    buf.extend_from_slice(&key.to_le_bytes());
    buf.extend_from_slice(&(ver as u64).to_le_bytes());
    let mut j = 0u64;
    while buf.len() < len {
        j += 1;
        let w = mix64(key ^ (ver as u64) << 8 ^ j).to_le_bytes();
        let take = (len - buf.len()).min(8);
        buf.extend_from_slice(&w[..take]);
    }
}

/// The version a value of 16 bytes or more claims to be, if it is a
/// well-formed value of `key` at all.
pub fn version_of(value: &[u8], key: u64, len: usize, scratch: &mut Vec<u8>) -> Option<u32> {
    if value.len() != len || len < 16 {
        return None;
    }
    let ver = u64::from_le_bytes(value[8..16].try_into().ok()?);
    let ver = u32::try_from(ver).ok()?;
    value_into(scratch, key, ver, len);
    (scratch.as_slice() == value).then_some(ver)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Digest of every workload's plan for seed 1 at full size. A change
    /// here means the benchmark's inputs changed: results before and after
    /// are not comparable, and the baseline sets must be measured again.
    const PINNED: [(&str, u64); 6] = [
        ("embed-load", 0xc225_1875_2343_c61a),
        ("embed-read", 0x7a11_cead_2cca_a58f),
        ("embed-update", 0x4a20_2d66_bfa8_703a),
        ("embed-scan", 0x6fbe_5f41_43cb_0872),
        ("serve-put", 0xfa48_dd55_b3eb_a51f),
        ("serve-mixed", 0x35c6_2d62_1161_01ee),
    ];

    #[test]
    fn same_seed_same_stream_and_pinned_digest() {
        for (w, pinned) in PINNED {
            let a = plan(w, 1, false).digest();
            assert_eq!(a, plan(w, 1, false).digest(), "{w}: not deterministic");
            assert_eq!(a, pinned, "{w}: digest for seed 1 moved ({a:#x})");
        }
    }

    #[test]
    fn different_seed_different_stream() {
        for w in WORKLOADS {
            assert_ne!(
                plan(w, 1, true).digest(),
                plan(w, 2, true).digest(),
                "{w}: seed does not reach the stream"
            );
        }
    }

    #[test]
    fn zipfian_head_mass_matches_the_analytic_value() {
        let n = 125_000;
        let z = Zipf::new(n);
        let mut rng = Rng::new(7, 0);
        let draws = 4_000_000u64;
        let head = (0..draws).filter(|_| z.rank(rng.next_u64()) == 0).count() as f64 / draws as f64;
        let want = z.head_mass();
        assert!(
            (head / want - 1.0).abs() < 0.01,
            "rank-0 share {head} vs analytic {want}"
        );
    }

    #[test]
    fn streams_partition_keys_and_track_versions() {
        let p = plan("serve-mixed", 3, true);
        let mut seen = std::collections::HashMap::new();
        for (t, s) in p.streams.iter().enumerate() {
            let mut newest = std::collections::HashMap::new();
            for op in s {
                assert_eq!(*seen.entry(op.key).or_insert(t), t, "key shared by streams");
                let cur = newest.entry(op.key).or_insert(0u32);
                if op.kind == Kind::Put {
                    *cur += 1;
                }
                assert_eq!(op.ver, *cur);
            }
        }
    }

    #[test]
    fn values_carry_their_version() {
        let (mut buf, mut scratch) = (Vec::new(), Vec::new());
        value_into(&mut buf, 42, 7, 64);
        assert_eq!(buf.len(), 64);
        assert_eq!(version_of(&buf, 42, 64, &mut scratch), Some(7));
        assert_eq!(version_of(&buf, 43, 64, &mut scratch), None);
        buf[40] ^= 1;
        assert_eq!(version_of(&buf, 42, 64, &mut scratch), None);
    }

    #[test]
    fn scans_never_reach_the_end_of_the_dense_range() {
        let p = plan("embed-scan", 1, true);
        for op in p.streams.iter().flatten() {
            match op.kind {
                Kind::Scan => assert!(op.key + op.ver as u64 <= p.sizes.keys),
                Kind::Put => assert!(op.key >= FRESH_BASE),
                Kind::Get => unreachable!(),
            }
        }
    }
}

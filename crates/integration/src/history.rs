//! One model of what the store may return, given what was acknowledged.
//!
//! Every key has one owning writer, and each writer runs a fixed script
//! of puts and deletes. A [`History`] holds the scripts and two floors
//! per writer: `acked` ops of its script were acknowledged (stored with
//! `Release` after the ack) and `issued` ops had started. A *cut* `c` of
//! a writer means its first `c` ops took effect. An observation taken
//! between a `before` and an `after` snapshot of the floors passes only
//! if some per-writer cut with `before.acked <= c <= after.issued`
//! explains it:
//!
//! * [`History::read`]: one get;
//! * [`History::scan`]: strictly ascending, at or above its start, at
//!   most its limit, no key that is dead at every cut in the window (a
//!   phantom), and no key live at every cut of the window missing below
//!   the last key returned (a hole);
//! * [`History::image`]: a recovered or promoted store, where one cut per
//!   writer must explain every key and a full scan must equal the live
//!   set. Acknowledged state survives (`c >= acked`), nothing that was
//!   never issued appears (`c <= issued`), and a key whose state admits
//!   no cut that the writer's other keys admit is a torn prefix.
//!
//! A violation prints only the offending sub-history: the owning
//! writer's ops on the offending key (or the two keys whose cuts
//! conflict) inside the window, with the last op before it and the
//! first past it, plus the floor snapshots.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// One step of a writer's script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Put `key` with these value bytes.
    Put(u64, Vec<u8>),
    /// Delete `key`.
    Del(u64),
}

impl Op {
    pub fn key(&self) -> u64 {
        match self {
            Op::Put(k, _) | Op::Del(k) => *k,
        }
    }
}

/// A snapshot of every writer's floors, indexed by writer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Floors {
    pub acked: Vec<u64>,
    pub issued: Vec<u64>,
}

impl Floors {
    /// Floors of writers whose `n[w]` first ops all took effect and no
    /// other started: the cut is known exactly.
    pub fn exact(n: Vec<u64>) -> Self {
        Self {
            acked: n.clone(),
            issued: n,
        }
    }
}

/// What one read observed.
#[derive(Debug, Clone, Copy)]
pub enum Seen<'a> {
    Absent,
    Value(&'a [u8]),
    /// Present, value unknown (a delete reporting that the key existed).
    Live,
}

impl<'a> From<Option<&'a [u8]>> for Seen<'a> {
    fn from(v: Option<&'a [u8]>) -> Self {
        v.map_or(Seen::Absent, Seen::Value)
    }
}

impl Seen<'_> {
    fn describe(&self) -> String {
        match self {
            Seen::Absent => "absent".into(),
            Seen::Value(v) => format!("a {} B value", v.len()),
            Seen::Live => "live".into(),
        }
    }

    fn admits(&self, state: Option<&Op>) -> bool {
        match (self, state) {
            (Seen::Absent, None | Some(Op::Del(_))) => true,
            (Seen::Value(v), Some(Op::Put(_, w))) => v == w,
            (Seen::Live, Some(Op::Put(..))) => true,
            _ => false,
        }
    }
}

/// Inclusive ranges of cuts.
type Cuts = Vec<(u64, u64)>;

fn overlap(a: &[(u64, u64)], b: &[(u64, u64)]) -> Cuts {
    let mut out = Vec::new();
    for &(alo, ahi) in a {
        for &(blo, bhi) in b {
            if alo.max(blo) <= ahi.min(bhi) {
                out.push((alo.max(blo), ahi.min(bhi)));
            }
        }
    }
    out
}

/// The writers' scripts and their published floors.
pub struct History {
    scripts: Vec<Vec<Op>>,
    /// Each key's owning writer and the positions of its ops there.
    keys: BTreeMap<u64, (usize, Vec<u64>)>,
    acked: Vec<AtomicU64>,
    issued: Vec<AtomicU64>,
}

impl History {
    /// Panics if two writers' scripts share a key.
    pub fn new(scripts: Vec<Vec<Op>>) -> Self {
        let mut keys: BTreeMap<u64, (usize, Vec<u64>)> = BTreeMap::new();
        for (w, script) in scripts.iter().enumerate() {
            for (i, op) in script.iter().enumerate() {
                let (owner, ops) = keys.entry(op.key()).or_insert((w, Vec::new()));
                assert_eq!(*owner, w, "key {:#x} has two writers", op.key());
                ops.push(i as u64);
            }
        }
        let floors = || scripts.iter().map(|_| AtomicU64::new(0)).collect();
        Self {
            acked: floors(),
            issued: floors(),
            keys,
            scripts,
        }
    }

    pub fn script(&self, w: usize) -> &[Op] {
        &self.scripts[w]
    }

    /// The first `n` ops of writer `w` have started.
    pub fn issue(&self, w: usize, n: u64) {
        self.issued[w].store(n, Ordering::Release);
    }

    /// The first `n` ops of writer `w` were acknowledged.
    pub fn ack(&self, w: usize, n: u64) {
        self.acked[w].store(n, Ordering::Release);
    }

    /// Runs ops `from..to` of writer `w`'s script through `apply`,
    /// issuing each before and acking it after; stops at the first error.
    pub fn drive<E>(
        &self,
        w: usize,
        from: u64,
        to: u64,
        mut apply: impl FnMut(&Op) -> Result<(), E>,
    ) -> Result<(), E> {
        for i in from..to {
            self.issue(w, i + 1);
            apply(&self.scripts[w][i as usize])?;
            self.ack(w, i + 1);
        }
        Ok(())
    }

    /// Loads every writer's floors.
    pub fn floors(&self) -> Floors {
        let load = |v: &[AtomicU64]| v.iter().map(|f| f.load(Ordering::Acquire)).collect();
        Floors {
            acked: load(&self.acked),
            issued: load(&self.issued),
        }
    }

    fn owner(&self, key: u64) -> Option<(usize, &[u64])> {
        self.keys.get(&key).map(|(w, ops)| (*w, ops.as_slice()))
    }

    /// The cuts at which `key` reads as `seen`: its state is nothing up
    /// to cut `p` of its first op, then each op `p` holds from cut `p + 1`
    /// up to the next op's position.
    fn admitted(&self, key: u64, seen: Seen) -> Cuts {
        let Some((w, ops)) = self.owner(key) else {
            let never = matches!(seen, Seen::Absent).then_some((0, u64::MAX));
            return never.into_iter().collect();
        };
        let states =
            std::iter::once(None).chain(ops.iter().map(|&p| Some(&self.scripts[w][p as usize])));
        let from = std::iter::once(0).chain(ops.iter().map(|p| p + 1));
        let to = ops.iter().copied().chain([u64::MAX]);
        states
            .zip(from.zip(to))
            .filter(|(state, _)| seen.admits(*state))
            .map(|(_, cuts)| cuts)
            .collect()
    }

    /// The owner's ops on `key` inside the window of cuts `[lo, hi]`,
    /// with the last op before it and the first one past it.
    fn sub_history(&self, key: u64, lo: u64, hi: u64) -> String {
        let Some((w, ops)) = self.owner(key) else {
            return format!("  key {key:#x}: in no script\n");
        };
        let first = ops.iter().rposition(|&p| p < lo).unwrap_or(0);
        let last = ops.iter().position(|&p| p >= hi).unwrap_or(ops.len() - 1);
        let mut s = format!("  writer {w} key {key:#x}:");
        for &p in &ops[first..=last.max(first)] {
            let _ = match &self.scripts[w][p as usize] {
                Op::Put(_, v) => {
                    let hex: String = v.iter().take(16).map(|b| format!("{b:02x}")).collect();
                    write!(
                        s,
                        " #{p} put {hex}{};",
                        if v.len() > 16 { ".." } else { "" }
                    )
                }
                Op::Del(_) => write!(s, " #{p} del;"),
            };
        }
        s.push('\n');
        s
    }

    fn report(&self, what: String, keys: &[u64], before: &Floors, after: &Floors) -> String {
        let mut s = what + "\n";
        for &k in keys {
            let w = self.owner(k).map_or(0, |(w, _)| w);
            s += &self.sub_history(k, before.acked[w], after.issued[w]);
        }
        let _ = write!(
            s,
            "  before acked {:?} issued {:?}; after acked {:?} issued {:?}",
            before.acked, before.issued, after.acked, after.issued
        );
        s
    }

    /// Whether some cut of `key`'s writer in `[before.acked,
    /// after.issued]` reads it as `seen`.
    fn explains(&self, key: u64, seen: Seen, before: &Floors, after: &Floors) -> bool {
        let window = self
            .owner(key)
            .map_or((0, u64::MAX), |(w, _)| (before.acked[w], after.issued[w]));
        !overlap(&self.admitted(key, seen), &[window]).is_empty()
    }

    /// One get of `key` that saw `seen`.
    pub fn read(
        &self,
        key: u64,
        seen: Seen,
        before: &Floors,
        after: &Floors,
    ) -> Result<(), String> {
        if !self.explains(key, seen, before, after) {
            return Err(self.report(
                format!(
                    "read of {key:#x} saw {}: no cut explains it",
                    seen.describe()
                ),
                &[key],
                before,
                after,
            ));
        }
        Ok(())
    }

    /// One `scan(start, limit)` that returned `keys`.
    pub fn scan(
        &self,
        start: u64,
        limit: usize,
        keys: &[u64],
        before: &Floors,
        after: &Floors,
    ) -> Result<(), String> {
        let fail = |what: String, ks: &[u64]| {
            Err(self.report(
                format!("scan({start:#x}, {limit}): {what}"),
                ks,
                before,
                after,
            ))
        };
        if keys.len() > limit {
            return fail(format!("returned {} keys", keys.len()), &[]);
        }
        if let Some(w) = keys.windows(2).find(|w| w[0] >= w[1]) {
            return fail(
                format!("not strictly ascending at {:#x}, {:#x}", w[0], w[1]),
                &[],
            );
        }
        if let Some(&k) = keys.first().filter(|&&k| k < start) {
            return fail(format!("returned {k:#x} below its start"), &[]);
        }
        if let Some(&k) = keys
            .iter()
            .find(|&&k| !self.explains(k, Seen::Live, before, after))
        {
            return fail(format!("phantom {k:#x}: dead at every cut"), &[k]);
        }
        // An exhausted scan vouches for every key above its start.
        let end = match keys.last() {
            Some(&last) if keys.len() == limit => last,
            _ => u64::MAX,
        };
        let mut range = self.keys.range(start..end).map(|(&k, _)| k);
        if let Some(k) = range.find(|&k| {
            !self.explains(k, Seen::Absent, before, after) && keys.binary_search(&k).is_err()
        }) {
            return fail(format!("hole at {k:#x}: live at every cut"), &[k]);
        }
        Ok(())
    }

    /// A recovered or promoted store: `get` reads each key of every
    /// script, and `scanned` is a full scan of the same image.
    pub fn image(
        &self,
        mut get: impl FnMut(u64) -> Result<Option<Vec<u8>>, String>,
        scanned: Result<Vec<u64>, String>,
        floors: &Floors,
    ) -> Vec<String> {
        let mut violations = Vec::new();
        let mut feasible: Vec<Cuts> = (0..self.scripts.len())
            .map(|w| vec![(floors.acked[w], floors.issued[w])])
            .collect();
        // Per writer, each key read so far with the cuts it admits.
        let mut met: Vec<Vec<(u64, Cuts)>> = vec![Vec::new(); self.scripts.len()];
        let mut live = Vec::new();
        for (&key, &(w, _)) in &self.keys {
            let value = match get(key) {
                Ok(v) => v,
                Err(e) => {
                    violations.push(format!("get({key:#x}) failed: {e}"));
                    continue;
                }
            };
            if value.is_some() {
                live.push(key);
            }
            let admitted = self.admitted(key, value.as_deref().into());
            let narrowed = overlap(&feasible[w], &admitted);
            if narrowed.is_empty() {
                let window = vec![(floors.acked[w], floors.issued[w])];
                let mine = overlap(&admitted, &window);
                let rival = met[w]
                    .iter()
                    .find(|(_, cuts)| overlap(cuts, &mine).is_empty())
                    .filter(|_| !mine.is_empty());
                let keys: Vec<u64> = rival.map(|r| r.0).into_iter().chain([key]).collect();
                let why = if rival.is_some() {
                    "no cut explains both keys (torn prefix)"
                } else {
                    "no cut explains it"
                };
                let saw = Seen::from(value.as_deref()).describe();
                violations.push(self.report(
                    format!("image {key:#x} reads {saw}: {why}"),
                    &keys,
                    floors,
                    floors,
                ));
            } else {
                feasible[w] = narrowed;
                met[w].push((key, admitted));
            }
        }
        match scanned {
            Ok(keys) if keys != live => {
                let hex = |ks: &[u64], not_in: &[u64]| -> Vec<String> {
                    let rest = ks.iter().filter(|k| !not_in.contains(k));
                    rest.map(|k| format!("{k:#x}")).collect()
                };
                violations.push(format!(
                    "full scan differs from the gets: phantom [{}], missing [{}]",
                    hex(&keys, &live).join(", "),
                    hex(&live, &keys).join(", ")
                ));
            }
            Ok(_) => {}
            Err(e) => violations.push(format!("full scan failed: {e}")),
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writer 0 puts keys 1 and 2, deletes 1, puts 2 again; writer 1
    /// puts key 9. Values are one byte: the op's position.
    fn history() -> History {
        let v = |b: u8| vec![b];
        History::new(vec![
            vec![
                Op::Put(1, v(0)),
                Op::Put(2, v(1)),
                Op::Del(1),
                Op::Put(2, v(3)),
            ],
            vec![Op::Put(9, v(0))],
        ])
    }

    fn floors(acked: [u64; 2], issued: [u64; 2]) -> Floors {
        Floors {
            acked: acked.to_vec(),
            issued: issued.to_vec(),
        }
    }

    #[test]
    fn an_acked_write_read_as_absent_is_lost() {
        let f = floors([2, 1], [2, 1]);
        let err = history().read(2, Seen::Absent, &f, &f).unwrap_err();
        assert_eq!(
            err,
            "read of 0x2 saw absent: no cut explains it\n  \
             writer 0 key 0x2: #1 put 01; #3 put 03;\n  \
             before acked [2, 1] issued [2, 1]; after acked [2, 1] issued [2, 1]"
        );
        // The in-flight overwrite may or may not show; the absent key 9
        // may not be read before its writer's put was issued.
        let after = floors([2, 1], [4, 1]);
        history().read(2, Seen::Value(&[3]), &f, &after).unwrap();
        history()
            .read(9, Seen::Absent, &floors([0, 0], [0, 1]), &after)
            .unwrap();
    }

    #[test]
    fn a_deleted_key_that_reads_again_is_resurrected() {
        let (f, h) = (floors([3, 0], [3, 0]), history());
        let err = h.read(1, Seen::Value(&[0]), &f, &f).unwrap_err();
        assert_eq!(
            err.lines().nth(1),
            Some("  writer 0 key 0x1: #2 del;"),
            "{err}"
        );
        h.read(1, Seen::Value(&[0]), &floors([1, 0], [1, 0]), &f)
            .unwrap();
        h.read(1, Seen::Live, &f, &f).unwrap_err();
    }

    #[test]
    fn an_image_needing_two_cuts_of_one_writer_is_torn() {
        // Key 1 deleted (cut >= 3) beside key 2 at its first value (cut
        // 2 or 3): fine. Key 1 at its value (cut 1..=2) beside key 2 at
        // its second (cut 4): no one cut explains both.
        let (h, f) = (history(), floors([0, 1], [4, 1]));
        let image = |one: Option<u8>, two: Option<u8>| {
            let h = &h;
            h.image(
                |k| {
                    Ok(match k {
                        1 => one,
                        2 => two,
                        _ => Some(0),
                    }
                    .map(|b| vec![b]))
                },
                Ok([1, 2, 9]
                    .into_iter()
                    .filter(|&k| k != 1 || one.is_some())
                    .collect()),
                &f,
            )
        };
        assert!(image(None, Some(1)).is_empty());
        let v = image(Some(0), Some(3));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(
            v[0],
            "image 0x2 reads a 1 B value: no cut explains both keys (torn prefix)\n  \
             writer 0 key 0x1: #0 put 00; #2 del;\n  \
             writer 0 key 0x2: #1 put 01; #3 put 03;\n  \
             before acked [0, 1] issued [4, 1]; after acked [0, 1] issued [4, 1]"
        );
    }

    #[test]
    fn a_scan_key_past_issued_is_a_phantom() {
        let f = floors([1, 0], [1, 0]);
        let err = history().scan(0, 10, &[1, 2], &f, &f).unwrap_err();
        assert_eq!(
            err.lines().take(2).collect::<Vec<_>>(),
            [
                "scan(0x0, 10): phantom 0x2: dead at every cut",
                "  writer 0 key 0x2: #1 put 01;"
            ]
        );
        let after = floors([1, 0], [2, 0]);
        history().scan(0, 10, &[1, 2], &f, &after).unwrap();
    }

    #[test]
    fn a_key_live_across_the_window_missing_below_the_last_is_a_hole() {
        let f = floors([2, 1], [2, 1]);
        let err = history().scan(0, 10, &[1, 9], &f, &f).unwrap_err();
        assert_eq!(
            err.lines().take(2).collect::<Vec<_>>(),
            [
                "scan(0x0, 10): hole at 0x2: live at every cut",
                "  writer 0 key 0x2: #1 put 01; #3 put 03;"
            ]
        );
        // A full scan vouches only below its last key, an exhausted one
        // for everything; a delete in flight frees key 1.
        history().scan(0, 1, &[1], &f, &f).unwrap();
        history().scan(0, 10, &[1], &f, &f).unwrap_err();
        history()
            .scan(0, 10, &[2, 9], &f, &floors([2, 1], [3, 1]))
            .unwrap();
    }

    #[test]
    fn a_scan_out_of_order_below_its_start_or_over_its_limit_fails() {
        let (h, f) = (history(), floors([2, 1], [2, 1]));
        let err = |keys: &[u64], limit| h.scan(1, limit, keys, &f, &f).unwrap_err();
        assert!(
            err(&[2, 1, 9], 10).starts_with("scan(0x1, 10): not strictly ascending at 0x2, 0x1\n")
        );
        assert!(err(&[0, 1, 2, 9], 10).contains("returned 0x0 below its start"));
        assert!(err(&[1, 2, 9], 2).contains("returned 3 keys"));
    }

    #[test]
    fn a_clean_history_passes_image_with_acked_equal_to_issued() {
        let h = history();
        for n in 0..4 {
            let f = floors([n, 1], [n, 1]);
            let value = |k: u64| match (k, n) {
                (1, 1..=2) => Some(vec![0]),
                (2, 2..=3) => Some(vec![1]),
                (9, _) => Some(vec![0]),
                _ => None,
            };
            let scanned = || {
                Ok([1, 2, 9]
                    .into_iter()
                    .filter(|&k| value(k).is_some())
                    .collect())
            };
            assert!(
                h.image(|k| Ok(value(k)), scanned(), &f).is_empty(),
                "cut {n}"
            );
            // The same image one cut later is missing an acked op.
            let later = floors([n + 1, 1], [n + 1, 1]);
            assert!(
                !h.image(|k| Ok(value(k)), scanned(), &later).is_empty(),
                "cut {n}"
            );
        }
    }
}

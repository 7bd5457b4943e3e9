//! Observability integration: the event journal must record the full
//! Normal → Write-Intensive → Get-Protect mode arc with correct trigger
//! reasons and non-decreasing simulated timestamps, spans must attribute
//! maintenance traffic, and both exporters must render a live store.

use std::sync::Arc;

use chameleon_obs::export::parse_prometheus;
use chameleon_obs::{EventKind, ObsConfig};
use chameleondb::{ChameleonConfig, ChameleonDb, GpmConfig, Mode};
use kvapi::KvStore;
use kvlog::LogConfig;
use pmem_sim::{PmemDevice, ThreadCtx};

fn obs_config() -> ChameleonConfig {
    ChameleonConfig {
        log: LogConfig {
            capacity: 256 << 20,
            ..LogConfig::default()
        },
        gpm: GpmConfig {
            enabled: true,
            enter_threshold_ns: 1,
            exit_threshold_ns: 0,
            window_ops: 16,
        },
        obs: ObsConfig::with_capacity(4096),
        ..ChameleonConfig::tiny()
    }
}

fn build() -> (Arc<PmemDevice>, ChameleonDb) {
    let dev = PmemDevice::optane(1 << 30);
    let store = ChameleonDb::create(Arc::clone(&dev), obs_config()).expect("create");
    (dev, store)
}

#[test]
fn journal_records_mode_arc_with_triggers_and_monotonic_timestamps() {
    let (_dev, store) = build();
    let mut ctx = ThreadCtx::with_default_cost();

    // Normal → WriteIntensive via the API.
    store.set_mode(Mode::WriteIntensive);
    // Back to Normal so the latency monitor owns the next transition.
    store.set_mode(Mode::Normal);
    // Some traffic, then a full hair-trigger window of gets enters GPM.
    for k in 0..2_000u64 {
        store.put(&mut ctx, k, b"v").expect("put");
    }
    let mut out = Vec::new();
    for k in 0..32u64 {
        store.get(&mut ctx, k, &mut out).expect("get");
    }
    assert_eq!(store.mode(), Mode::GetProtect, "hair trigger must fire");

    let events = store.obs().journal().events();
    assert!(!events.is_empty());

    // Timestamps are non-decreasing journal-wide (the ring clamps).
    let mut last_ts = 0;
    for ev in &events {
        assert!(
            ev.ts >= last_ts,
            "event seq {} ts {} went backwards from {}",
            ev.seq,
            ev.ts,
            last_ts
        );
        last_ts = ev.ts;
    }

    // The three transitions, in order, with the right triggers.
    let arcs: Vec<(&str, &str, &str)> = events
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::ModeTransition {
                from, to, trigger, ..
            } => Some((from, to, trigger)),
            _ => None,
        })
        .collect();
    assert_eq!(
        arcs,
        vec![
            ("normal", "write_intensive", "set_mode"),
            ("write_intensive", "normal", "set_mode"),
            ("normal", "get_protect", "p99_above_enter_threshold"),
        ]
    );

    // The GPM entry carries the windowed p99 that drove it.
    let gpm_entry = events
        .iter()
        .find_map(|ev| match ev.kind {
            EventKind::ModeTransition {
                to: "get_protect",
                p99_ns,
                ..
            } => Some(p99_ns),
            _ => None,
        })
        .expect("GPM entry event");
    assert!(gpm_entry > 1, "p99 {gpm_entry} must exceed the 1ns trigger");
    assert_eq!(store.metrics().gpm_entries, 1);
}

#[test]
fn gpm_exit_transition_is_journaled_with_exit_trigger() {
    let (_dev, store) = build();
    let mut cfg = obs_config();
    // A GPM that can actually exit: p99 below 10us leaves.
    cfg.gpm.exit_threshold_ns = 10_000;
    cfg.gpm.enter_threshold_ns = 1;
    let dev = PmemDevice::optane(1 << 30);
    let store2 = ChameleonDb::create(Arc::clone(&dev), cfg).expect("create");
    drop(store);
    let mut ctx = ThreadCtx::with_default_cost();
    for k in 0..512u64 {
        store2.put(&mut ctx, k, b"v").expect("put");
    }
    let mut out = Vec::new();
    // Enter on the first window, exit on a later one (every real window
    // p99 is far below 10us once in DRAM-served steady state).
    for k in 0..64u64 {
        store2.get(&mut ctx, k % 512, &mut out).expect("get");
    }
    let triggers: Vec<&str> = store2
        .obs()
        .journal()
        .events()
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::ModeTransition { trigger, .. } => Some(trigger),
            _ => None,
        })
        .collect();
    assert!(
        triggers.contains(&"p99_above_enter_threshold"),
        "{triggers:?}"
    );
    assert!(
        triggers.contains(&"p99_below_exit_threshold"),
        "{triggers:?}"
    );
}

#[test]
fn snapshot_attributes_maintenance_and_rolls_up_latencies() {
    let (dev, store) = build();
    let mut ctx = ThreadCtx::with_default_cost();
    for k in 0..30_000u64 {
        store.put(&mut ctx, k, b"value").expect("put");
    }
    store.sync(&mut ctx).expect("sync");
    let mut out = Vec::new();
    for k in 0..100u64 {
        assert!(store.get(&mut ctx, k, &mut out).expect("get"));
    }

    let snap = store.obs_snapshot(ctx.clock.now());
    assert!(snap.enabled);
    assert!(
        snap.events_total >= 32,
        "expected a busy journal, got {}",
        snap.events_total
    );

    // Flushes must have happened and claimed media traffic; every stage
    // share plus the foreground remainder partitions device writes.
    let flush = snap.stage("flush").expect("flush stage");
    assert!(flush.count > 0);
    assert!(flush.media_bytes_written > 0);
    let share_sum: f64 = snap.stages.iter().map(|s| s.media_write_share).sum();
    assert!((share_sum - 1.0).abs() < 1e-6, "shares sum to {share_sum}");

    // Op latencies rolled up across shards.
    let put = snap.op("put").expect("put row");
    assert_eq!(put.count, 30_000);
    assert!(put.p50_ns > 0 && put.p99_ns >= put.p50_ns && put.p999_ns >= put.p99_ns);
    let get = snap.op("get").expect("get row");
    assert_eq!(get.count, 100);

    // Counter sections carry the store metrics.
    let store_section = snap
        .counters
        .iter()
        .find(|s| s.name == "store")
        .expect("store section");
    let flushes = store_section
        .counters
        .iter()
        .find(|(n, _)| *n == "flushes")
        .expect("flushes counter")
        .1;
    assert_eq!(flushes, store.metrics().flushes);
    assert_eq!(flushes, flush.count);

    // Media snapshot matches the device.
    assert_eq!(snap.media, dev.stats().snapshot());
}

#[test]
fn exporters_render_a_live_store() {
    let (_dev, store) = build();
    let mut ctx = ThreadCtx::with_default_cost();
    for k in 0..10_000u64 {
        store.put(&mut ctx, k, b"v").expect("put");
    }
    let snap = store.obs_snapshot(ctx.clock.now());

    let json = snap.to_pretty_json();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"captured_ts\""));
    assert!(json.contains("\"stages\""));
    assert!(json.contains("\"memtable_flush\"") || json.contains("\"mid_compaction\""));

    let samples = parse_prometheus(&snap.to_prometheus()).expect("strict parse");
    for s in &samples {
        assert!(
            s.name.starts_with("chameleon_")
                && s.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
            "bad metric name {:?}",
            s.name
        );
    }
    assert!(
        samples.len() > 32,
        "expected a full exposition, got {}",
        samples.len()
    );
}

#[test]
fn disabled_observability_still_snapshots_counters() {
    let dev = PmemDevice::optane(512 << 20);
    let mut cfg = obs_config();
    cfg.obs = ObsConfig::off();
    cfg.gpm = GpmConfig::default();
    let store = ChameleonDb::create(Arc::clone(&dev), cfg).expect("create");
    let mut ctx = ThreadCtx::with_default_cost();
    for k in 0..5_000u64 {
        store.put(&mut ctx, k, b"v").expect("put");
    }
    let snap = store.obs_snapshot(ctx.clock.now());
    assert!(!snap.enabled);
    assert_eq!(snap.events_total, 0);
    assert_eq!(snap.op("put").unwrap().count, 0, "no hot-path recording");
    // Counter sections and media stats still tell the story.
    let store_section = snap.counters.iter().find(|s| s.name == "store").unwrap();
    assert!(store_section
        .counters
        .iter()
        .any(|&(n, v)| n == "puts" && v == 5_000));
    assert!(snap.media.media_bytes_written > 0);
    // And both exporters still render.
    assert!(snap.to_pretty_json().contains("\"enabled\": false"));
    assert!(snap.to_prometheus().contains("chameleon_store_puts 5000"));
}

#[test]
fn crash_event_is_journaled_on_recovery() {
    use kvapi::CrashRecover;
    let (_dev, mut store) = build();
    let mut ctx = ThreadCtx::with_default_cost();
    for k in 0..2_000u64 {
        store.put(&mut ctx, k, b"v").expect("put");
    }
    store.sync(&mut ctx).expect("sync");
    store.crash_and_recover(&mut ctx).expect("recover");
    let crashes: Vec<u64> = store
        .obs()
        .journal()
        .events()
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::Crash { crashes } => Some(crashes),
            _ => None,
        })
        .collect();
    assert_eq!(crashes, vec![1], "one crash event after one crash");
}

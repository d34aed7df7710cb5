//! Telemetry exactness tests: a fleet run's registry must match a
//! serial reference counter-for-counter for any worker count, a
//! scrape racing live updates must never read a torn or regressing
//! view, and every trace-cache corruption class must land in its own
//! labeled miss counter.

use std::sync::Arc;

use grp_bench::sched::{self, ReplayMode, WorkloadCache};
use grp_bench::telemetry::registry::{Registry, Snapshot};
use grp_bench::tracecache::{encode_entry, MissReason, TraceCache};
use grp_core::{Scheme, SimConfig};
use grp_cpu::PackedTrace;
use grp_workloads::Scale;

/// The deterministic counter families the fleet records: everything
/// except wall-clock-derived series (busy/wall micros, utilization,
/// steals, queue-wait buckets), which legitimately vary run to run.
const DETERMINISTIC_FAMILIES: [&str; 5] = [
    "grp_fleet_runs_total",
    "grp_fleet_cells_total",
    "grp_fleet_cell_errors_total",
    "grp_replay_events_total",
    "grp_sim_cycles_total",
];

fn deterministic_counters(snap: &Snapshot) -> Vec<(String, u64)> {
    snap.counters
        .iter()
        .filter(|(id, _)| {
            DETERMINISTIC_FAMILIES
                .iter()
                .any(|f| grp_bench::telemetry::registry::family(id) == *f)
        })
        .map(|(id, v)| (id.clone(), *v))
        .collect()
}

fn run_grid(workers: usize) -> Snapshot {
    let cfg = SimConfig::paper();
    let names = ["twolf", "crafty", "gzip", "mcf"];
    let schemes = [Scheme::NoPrefetch, Scheme::Srp, Scheme::GrpVar];
    let jobs = sched::grid_jobs(&names, &schemes, Scale::Test, cfg);
    let reg = Arc::new(Registry::new());
    let mode = ReplayMode::default().with_telemetry(reg.clone());
    let cache = WorkloadCache::new();
    sched::run_cells_mode(&jobs, workers, &cache, &mode, |_| {});
    reg.snapshot()
}

/// An N-worker run's counters equal the 1-worker (serial) run's
/// counters exactly, for every
/// deterministic family — per-label-set, not just in total. The
/// queue-wait histogram must also account for every cell in both runs.
#[test]
fn fleet_run_equals_serial_counter_for_counter() {
    let serial = run_grid(1);
    let fleet = run_grid(3);

    let a = deterministic_counters(&serial);
    let b = deterministic_counters(&fleet);
    assert!(!a.is_empty(), "the run recorded deterministic counters");
    assert_eq!(a, b, "3-worker run diverged from the serial reference");

    for snap in [&serial, &fleet] {
        assert_eq!(snap.counter("grp_fleet_runs_total"), 1);
        assert_eq!(snap.family_total("grp_fleet_cells_total"), 12);
        assert_eq!(snap.family_total("grp_fleet_cell_errors_total"), 0);
        assert_eq!(
            snap.counter("grp_fleet_cells_total{bench=\"mcf\",scheme=\"GRP/Var\"}"),
            1
        );
        let q = snap
            .hists
            .get("grp_fleet_queue_wait_micros")
            .expect("queue-wait histogram");
        assert_eq!(q.count(), 12, "one queue-wait sample per cell");
    }
}

/// Scraping while another thread updates must always observe a
/// consistent, monotone view: every scrape's counter is between 0 and
/// the final total, scrapes never regress, and each histogram's count
/// always equals the sum of its buckets (the merge derives one from
/// the other, so a torn read would break the equality).
#[test]
fn scrape_during_update_is_monotone_and_untorn() {
    const N: u64 = 200_000;
    let reg = Arc::new(Registry::new());
    let writer = {
        let reg = Arc::clone(&reg);
        std::thread::spawn(move || {
            let c = reg.counter("race_total", &[]);
            let h = reg.hist("race_micros", &[]);
            for i in 0..N {
                c.inc();
                h.record(i % 1024);
            }
        })
    };
    let mut last = 0u64;
    while !writer.is_finished() {
        let snap = reg.snapshot();
        let now = snap.counter("race_total");
        assert!(now >= last, "scrape regressed: {last} -> {now}");
        assert!(now <= N);
        if let Some(h) = snap.hists.get("race_micros") {
            let bucket_sum: u64 = h.buckets().iter().sum();
            assert_eq!(
                h.count(),
                bucket_sum,
                "histogram count != bucket sum (torn scrape)"
            );
        }
        last = now;
    }
    writer.join().expect("writer thread");
    let fin = reg.snapshot();
    assert_eq!(fin.counter("race_total"), N);
    assert_eq!(fin.hists["race_micros"].count(), N);
}

/// Rewrites the entry's trailing checksum, so the sum matches and the
/// corruption under test is the only failure the decoder can see.
fn rechecksum(mut bytes: Vec<u8>) -> Vec<u8> {
    let body = bytes.len() - 8;
    let sum = grp_cpu::checksum64(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

/// Each corruption class increments its own labeled
/// `grp_tracecache_misses_total{reason=…}` counter in the process
/// registry (this integration binary is its own process, so the global
/// registry deltas here are exactly this test's).
#[test]
fn tracecache_corruption_classes_count_separately() {
    let dir = std::env::temp_dir().join(format!("grp-telemetry-cc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = TraceCache::new(&dir);

    let built = grp_workloads::by_name("twolf")
        .expect("registered")
        .build(Scale::Test);
    let (trace, mem) = built.trace(None);
    let pt = PackedTrace::pack(&trace).expect("packs");
    let good = encode_entry(&pt, &mem, built.heap);
    let path = cache.entry_path("twolf", Scale::Test, None);

    let miss = |reason: MissReason| {
        format!(
            "grp_tracecache_misses_total{{reason=\"{}\"}}",
            reason.label()
        )
    };
    let count = |id: &str| grp_bench::telemetry::registry().snapshot().counter(id);
    let load = || cache.load("twolf", Scale::Test, None);

    // Cold cache: absent.
    let before = count(&miss(MissReason::Absent));
    assert!(load().is_none());
    assert_eq!(count(&miss(MissReason::Absent)), before + 1);

    // A valid entry: one hit.
    std::fs::create_dir_all(&dir).expect("cache dir");
    std::fs::write(&path, &good).expect("write entry");
    let hits = count("grp_tracecache_hits_total");
    assert!(load().is_some());
    assert_eq!(count("grp_tracecache_hits_total"), hits + 1);

    // Every corruption class lands in its own labeled counter.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    let mut magic = good.clone();
    magic[0] ^= 0xff;
    let mut stale = good.clone();
    stale[4..8].copy_from_slice(&99u32.to_le_bytes());
    // An entry from before the last version bump: its sum was computed
    // by the old format, so it no longer matches — it must still count
    // as stale, not as corrupt.
    let mut pre_upgrade = good.clone();
    pre_upgrade[4..8].copy_from_slice(&1u32.to_le_bytes());
    let cases: Vec<(MissReason, Vec<u8>)> = vec![
        (MissReason::ChecksumMismatch, flipped),
        (MissReason::BadMagic, rechecksum(magic)),
        (MissReason::StaleVersion, rechecksum(stale)),
        (MissReason::StaleVersion, pre_upgrade),
        (MissReason::Truncated, good[..4].to_vec()),
        (MissReason::TrailingBytes, {
            let mut long = good[..good.len() - 8].to_vec();
            long.extend_from_slice(&[0, 0, 0]);
            rechecksum({
                long.extend_from_slice(&[0; 8]);
                long
            })
        }),
    ];
    for (reason, bytes) in cases {
        std::fs::write(&path, &bytes).expect("write corrupted entry");
        let id = miss(reason);
        let before = count(&id);
        assert!(load().is_none(), "{reason:?} entry must read as a miss");
        assert_eq!(
            count(&id),
            before + 1,
            "{reason:?} must count under its own label"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

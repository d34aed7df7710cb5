//! Behavioural tests for the ablation knobs DESIGN.md calls out: each
//! configuration axis must actually change the mechanism it claims to.

use grp_core::engine::region::{RegionConfig, RegionPrefetcher};
use grp_core::engine::Prefetcher;
use grp_core::{run_trace, Replay, Scheme, SimConfig};
use grp_cpu::{HintSet, RefId, Trace};
use grp_mem::{Addr, Cache, CacheConfig, Dram, HeapRange, Memory, MshrFile, RegionAddr};

fn heap() -> HeapRange {
    HeapRange {
        start: Addr(0x10_0000),
        end: Addr(0x100_0000),
    }
}

fn miss(p: &mut RegionPrefetcher, l2: &Cache, region: u64) {
    let b = RegionAddr(region).block(0);
    p.on_demand_miss(b, b.base(), RefId(0), HintSet::none(), false, l2);
}

#[test]
fn lifo_services_newest_region_first_fifo_oldest() {
    let l2 = Cache::new(CacheConfig::l2_spec());
    let mshrs = MshrFile::new(8);
    let dram = Dram::new(Default::default());

    let mut lifo = RegionPrefetcher::new(RegionConfig::srp(32));
    miss(&mut lifo, &l2, 1);
    miss(&mut lifo, &l2, 2);
    let c = lifo.next_candidate(&l2, &mshrs, &dram, 0).unwrap();
    assert_eq!(c.block.region(), RegionAddr(2), "LIFO: newest first");

    let mut cfg = RegionConfig::srp(32);
    cfg.fifo = true;
    let mut fifo = RegionPrefetcher::new(cfg);
    miss(&mut fifo, &l2, 1);
    miss(&mut fifo, &l2, 2);
    let c = fifo.next_candidate(&l2, &mshrs, &dram, 0).unwrap();
    assert_eq!(c.block.region(), RegionAddr(1), "FIFO: oldest first");
}

#[test]
fn fifo_drops_newest_when_full_lifo_drops_oldest() {
    let l2 = Cache::new(CacheConfig::l2_spec());
    let mut lifo = RegionPrefetcher::new(RegionConfig::srp(2));
    for r in 1..=3 {
        miss(&mut lifo, &l2, r);
    }
    assert_eq!(lifo.queue_len(), 2);
    assert_eq!(lifo.stats().entries_dropped, 1);

    let mut cfg = RegionConfig::srp(2);
    cfg.fifo = true;
    let mut fifo = RegionPrefetcher::new(cfg);
    for r in 1..=3 {
        miss(&mut fifo, &l2, r);
    }
    assert_eq!(fifo.queue_len(), 2);
    assert_eq!(fifo.stats().entries_dropped, 1);
}

/// A sparse access pattern under MRU-insertion (the ablation) pollutes
/// the cache measurably more than the paper's LRU-insertion policy.
#[test]
fn mru_insertion_pollutes_more_than_lru() {
    // Alternate phases: stream one region (triggering useless region
    // prefetches), then re-touch a resident working set. Under MRU
    // insertion the prefetches push the working set out.
    let mut t = Trace::new();
    // Working set: 512 blocks, touched to become resident.
    for i in 0..512u64 {
        t.push_load(Addr(0x20_0000 + i * 64), 8, RefId(0), HintSet::none(), None);
    }
    // Sparse far misses: one block per region over 512 regions.
    for i in 0..512u64 {
        t.push_load(
            Addr(0x80_0000 + i * 4096),
            8,
            RefId(1),
            HintSet::none(),
            None,
        );
        t.push_compute(64);
    }
    // Re-touch the working set.
    for i in 0..512u64 {
        t.push_load(Addr(0x20_0000 + i * 64), 8, RefId(2), HintSet::none(), None);
        t.push_compute(8);
    }
    t.finish();
    let mem = Memory::new();

    let lru_cfg = SimConfig::paper();
    let mut mru_cfg = SimConfig::paper();
    mru_cfg.prefetch_mru_insert = true;

    let lru = run_trace(&t, &mem, heap(), Scheme::Srp, &lru_cfg);
    let mru = run_trace(&t, &mem, heap(), Scheme::Srp, &mru_cfg);
    assert!(
        mru.l2.demand_misses >= lru.l2.demand_misses,
        "MRU insertion cannot pollute less: {} vs {}",
        mru.l2.demand_misses,
        lru.l2.demand_misses
    );
}

#[test]
fn custom_engine_injection_works() {
    // Replay::engine lets ablations construct arbitrary engines.
    let mut t = Trace::new();
    for i in 0..256u64 {
        t.push_load(
            Addr(0x20_0000 + i * 8),
            8,
            RefId(0),
            HintSet::none().with_spatial(),
            None,
        );
        t.push_compute(8);
    }
    t.finish();
    let mem = Memory::new();
    let cfg = SimConfig::paper();
    let mut rc = RegionConfig::grp(32, false, 6);
    rc.probe_depth = 1;
    let engine = Box::new(RegionPrefetcher::new(rc));
    let r = Replay::new(&mem, heap(), Scheme::GrpFix, &cfg)
        .engine(engine)
        .run(&t)
        .0;
    assert!(r.prefetches_issued > 0);
    assert_eq!(r.instructions, t.instructions());
}

#[test]
fn shallow_recursion_chases_less_than_deep() {
    // Build a linked chain in memory; deeper recursion settings must
    // enqueue at least as many pointer prefetches.
    let mut mem = Memory::new();
    let mut nodes = Vec::new();
    for i in 0..64u64 {
        nodes.push(Addr(0x20_0000 + i * 128));
    }
    for w in nodes.windows(2) {
        mem.write_u64(w[0], w[1].0);
    }
    let mut t = Trace::new();
    let mut prev = None;
    // Chase the chain with recursive-hinted loads.
    let mut cur = nodes[0];
    for _ in 0..64 {
        let s = t.push_load(cur, 8, RefId(0), HintSet::none().with_recursive(), prev);
        prev = Some(s);
        cur = Addr(mem.read_u64(cur));
        if cur.0 == 0 {
            break;
        }
    }
    t.finish();
    let hr = HeapRange {
        start: Addr(0x20_0000),
        end: Addr(0x30_0000),
    };
    let cfg_shallow = {
        let mut c = SimConfig::paper();
        c.recursive_depth = 1;
        c
    };
    let cfg_deep = {
        let mut c = SimConfig::paper();
        c.recursive_depth = 6;
        c
    };
    let shallow = run_trace(&t, &mem, hr, Scheme::GrpVar, &cfg_shallow);
    let deep = run_trace(&t, &mem, hr, Scheme::GrpVar, &cfg_deep);
    assert!(
        deep.engine.pointer_entries >= shallow.engine.pointer_entries,
        "deep {} vs shallow {}",
        deep.engine.pointer_entries,
        shallow.engine.pointer_entries
    );
    assert!(
        deep.cycles <= shallow.cycles,
        "deeper chase never slower here"
    );
}

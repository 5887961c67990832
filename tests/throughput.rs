//! Throughput-engine guarantees: pooled, epoch-reset run state must be
//! bit-identical to freshly allocated state, and the steady state must not
//! grow host scratch.

use gcd_sim::{ArchProfile, Device, ExecMode};
use xbfs_core::{BfsRun, Xbfs, XbfsConfig};
use xbfs_graph::stats::pick_sources;
use xbfs_graph::Dataset;

const SHIFT: u32 = 11;

/// Everything a run reports, with float fields pinned bit-for-bit.
fn fingerprint(run: &BfsRun) -> impl PartialEq + std::fmt::Debug {
    (
        run.levels.clone(),
        run.parents.clone(),
        run.total_ms.to_bits(),
        run.traversed_edges,
        run.level_stats
            .iter()
            .map(|l| {
                (
                    l.strategy.to_string(),
                    l.frontier_count,
                    l.time_ms.to_bits(),
                    l.kernels
                        .iter()
                        .map(|k| (k.name.clone(), k.runtime_ms.to_bits()))
                        .collect::<Vec<_>>(),
                )
            })
            .collect::<Vec<_>>(),
    )
}

fn timing_device(cfg: &XbfsConfig) -> Device {
    Device::new(
        ArchProfile::mi250x_gcd(),
        ExecMode::Timing,
        cfg.required_streams(),
    )
}

/// 64 random sources through one pooled engine vs a fresh device + engine
/// per source: levels, parents, modeled time and per-kernel stats must all
/// agree bit for bit (the O(frontier) epoch reset is unobservable).
#[test]
fn pooled_epoch_runs_match_fresh_state_runs() {
    let g = Dataset::Rmat23.generate(SHIFT, 3);
    let cfg = XbfsConfig {
        record_parents: true,
        ..XbfsConfig::default()
    };
    let dev = timing_device(&cfg);
    let pooled = Xbfs::new(&dev, &g, cfg).unwrap();
    for &s in &pick_sources(&g, 64, 17) {
        let recycled = pooled.run(s).unwrap();
        let fresh_dev = timing_device(&cfg);
        let fresh = Xbfs::new(&fresh_dev, &g, cfg).unwrap();
        let reference = fresh.run(s).unwrap();
        assert_eq!(
            fingerprint(&recycled),
            fingerprint(&reference),
            "source {s}"
        );
    }
}

/// Steady-state behavior: a second run at the same depth allocates no new
/// label scratch, and dropping the engine parks its buffers in the device
/// pool so the next engine rebuilds entirely from pool hits with results
/// still bit-identical.
#[test]
fn steady_state_reuses_scratch_and_pooled_buffers() {
    let g = Dataset::LiveJournal.generate(SHIFT, 7);
    let cfg = XbfsConfig {
        record_parents: true,
        ..XbfsConfig::default()
    };
    let dev = Device::mi250x();
    let s = pick_sources(&g, 1, 2)[0];
    let xbfs = Xbfs::new(&dev, &g, cfg).unwrap();
    let first = xbfs.run(s).unwrap();
    let labels_after_first = xbfs.scratch_allocs();
    let second = xbfs.run(s).unwrap();
    assert_eq!(
        xbfs.scratch_allocs(),
        labels_after_first,
        "second same-depth run must not grow label scratch"
    );
    assert_eq!(
        fingerprint(&first),
        fingerprint(&second),
        "same-source reruns are deterministic"
    );

    let (hits_before, misses_before) = dev.pool_stats();
    drop(xbfs);
    let warm = Xbfs::new(&dev, &g, cfg).unwrap();
    let (hits_after, misses_after) = dev.pool_stats();
    assert_eq!(
        misses_after, misses_before,
        "rebuilding on a warm pool must not allocate"
    );
    assert!(hits_after > hits_before, "rebuild must draw from the pool");
    let third = warm.run(s).unwrap();
    assert_eq!(
        fingerprint(&first),
        fingerprint(&third),
        "pool-recycled state is bit-identical"
    );
}

//! Digest parity across every way to run a BFS: the solo engine's three
//! calls, each slot of a 64-wide batch, the distributed cluster with and
//! without a recovered rank crash, and a timing-mode device must all
//! produce the same `result_digest` (source + levels) for each source.

use gcd_sim::{ArchProfile, Device, ExecMode};
use xbfs_core::{MsBfs, RunOpts, Xbfs, XbfsConfig};
use xbfs_graph::stats::pick_sources;
use xbfs_graph::Dataset;
use xbfs_multi_gcd::{ClusterConfig, FaultConfig, FaultPlan, GcdCluster, LinkModel};
use xbfs_telemetry::Recorder;

const SHIFT: u32 = 11;

#[test]
fn result_digests_agree_across_solo_batch_cluster_and_timing() {
    let g = Dataset::Rmat23.generate(SHIFT, 7);
    let sources = pick_sources(&g, 6, 3);
    let cfg = XbfsConfig::default();

    let dev = Device::mi250x();
    let solo = Xbfs::new(&dev, &g, cfg).unwrap();
    let timing_dev = Device::new(
        ArchProfile::mi250x_gcd(),
        ExecMode::Timing,
        cfg.required_streams(),
    );
    let timing = Xbfs::new(&timing_dev, &g, cfg).unwrap();
    let batch_dev = Device::mi250x();
    let (batch, certs) = MsBfs::new(&batch_dev, &g)
        .unwrap()
        .run_governed(&sources, None, true)
        .unwrap();
    assert_eq!(certs.map(|c| c.len()), Some(sources.len()));

    let cluster_cfg = ClusterConfig {
        num_gcds: 4,
        ..ClusterConfig::node_of_8()
    };
    let mut clean = GcdCluster::new(&g, cluster_cfg, LinkModel::frontier()).unwrap();
    let mut healed = GcdCluster::new(&g, cluster_cfg, LinkModel::frontier()).unwrap();
    let crash = FaultConfig {
        plan: FaultPlan::parse("crash@2:rank1").unwrap(),
        ..FaultConfig::default()
    };

    let mut recoveries = 0;
    for (slot, &s) in sources.iter().enumerate() {
        let plain = solo.run(s).unwrap();
        assert!(
            plain.depth() > 2,
            "source {s}: too shallow to crash at level 2"
        );
        let want = plain.result_digest();

        let opts = RunOpts {
            certify: true,
            deadline_ms: Some(plain.total_ms * 100.0),
            ..RunOpts::default()
        };
        let (governed, cert) = solo.run_governed(s, &opts).unwrap();
        assert!(cert.is_some(), "source {s}: certify yields a certificate");
        let (certified, _) = solo.run_certified(s).unwrap();
        let recovered = healed
            .run_governed(s, &crash, &Recorder::disabled(), None)
            .unwrap();
        recoveries += recovered.recoveries.len();

        let got = [
            ("run_governed", governed.result_digest()),
            ("run_certified", certified.result_digest()),
            ("batch slot", batch.result_digest(slot)),
            ("cluster", clean.run(s).unwrap().result_digest()),
            ("recovered cluster", recovered.result_digest()),
            ("timing mode", timing.run(s).unwrap().result_digest()),
        ];
        for (path, digest) in got {
            assert_eq!(digest, want, "source {s}: {path} diverged from Xbfs::run");
        }
    }
    assert!(recoveries > 0, "the crash plan never fired");
}

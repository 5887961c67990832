//! Batched-serving e2e over a real socket: coalesced 64-wide waves must
//! answer with the exact timing-independent levels digest a solo run
//! reports, members keep their own deadlines (a batch never drags a
//! healthy member into a timeout), duplicate sources dedup to identical
//! answers, and a panic inside a batch quarantines the engine and
//! replays every member individually.

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use common::{drain_clean, reference_levels_digest, start, Client};
use proptest::prelude::*;
use xbfs_graph::generators::erdos_renyi;
use xbfs_graph::Csr;
use xbfs_server::{protocol, ServeConfig};

fn test_graph() -> Arc<Csr> {
    Arc::new(erdos_renyi(2000, 8_000, 5))
}

/// A batch-mode config: one worker so pipelined requests coalesce.
fn batch_cfg(width: usize, window_ms: f64) -> ServeConfig {
    ServeConfig {
        batch_width: width,
        batch_window_ms: window_ms,
        workers: 1,
        ..ServeConfig::default()
    }
}

/// Fire all requests back-to-back (so the linger window can coalesce
/// them), then collect every response keyed by id — batch members are
/// delivered in triage/slot order, not necessarily send order.
fn pipeline(
    c: &mut Client,
    reqs: &[(u64, u32, String)],
) -> HashMap<u64, protocol::ResponseSummary> {
    for (id, src, extra) in reqs {
        c.send(&format!(
            "{{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":{id},\"source\":{src}{extra}}}"
        ));
    }
    (0..reqs.len())
        .map(|_| {
            let r = c.recv();
            (r.id, r)
        })
        .collect()
}

#[test]
fn batched_responses_match_solo_levels_digests_bit_for_bit() {
    let g = test_graph();
    let handle = start(batch_cfg(64, 40.0), Arc::clone(&g));
    let mut c = Client::connect(handle.addr());

    // Duplicate sources (42 and 0 twice) must dedup into one slot and
    // still answer every requester.
    let sources = [0u32, 42, 42, 7, 1999, 7, 13, 0];
    let reqs: Vec<(u64, u32, String)> = sources
        .iter()
        .enumerate()
        .map(|(i, &s)| (i as u64 + 1, s, String::new()))
        .collect();
    let got = pipeline(&mut c, &reqs);

    assert_eq!(got.len(), sources.len());
    for (id, src, _) in &reqs {
        let r = &got[id];
        assert_eq!(r.status, "ok", "id {id}: {r:?}");
        assert_eq!(
            r.digest.as_deref(),
            Some(reference_levels_digest(&g, *src).as_str()),
            "id {id} (source {src}): batched digest must equal a solo run's result_digest"
        );
        let width = r
            .batch
            .expect("batch-width server stamps batch on every ok");
        assert!(width >= 1, "id {id}: {r:?}");
    }

    let report = drain_clean(handle);
    assert_eq!(report.ok, sources.len() as u64);
    assert_eq!(report.batch_width, 64);
    assert!(report.batches >= 1, "{report:?}");
    assert_eq!(report.batched_requests, sources.len() as u64);
    assert!(report.max_batch_size >= 1, "{report:?}");
}

#[test]
fn batch_member_deadlines_are_individual_not_collective() {
    let g = test_graph();
    let handle = start(batch_cfg(64, 30.0), Arc::clone(&g));
    let mut c = Client::connect(handle.addr());

    // The nanosecond-budget member must time out alone; coalescing must
    // not drag the unbounded members down with it.
    let reqs = vec![
        (1u64, 5u32, String::new()),
        (2, 9, ",\"deadline_ms\":0.000001".to_string()),
        (3, 77, String::new()),
    ];
    let got = pipeline(&mut c, &reqs);

    assert_eq!(got[&2].status, "timeout", "{:?}", got[&2]);
    for (id, src) in [(1u64, 5u32), (3, 77)] {
        let r = &got[&id];
        assert_eq!(r.status, "ok", "id {id}: {r:?}");
        assert_eq!(
            r.digest.as_deref(),
            Some(reference_levels_digest(&g, src).as_str()),
            "id {id}: a healthy member must not be perturbed by a doomed batchmate"
        );
    }

    let report = drain_clean(handle);
    assert_eq!(report.ok, 2);
    assert_eq!(report.timeouts, 1);
}

#[test]
fn panic_in_batch_quarantines_engine_and_replays_members_bit_identically() {
    let g = test_graph();
    let cfg = ServeConfig {
        allow_chaos: true,
        ..batch_cfg(64, 40.0)
    };
    let handle = start(cfg, Arc::clone(&g));
    let mut c = Client::connect(handle.addr());

    let reqs = vec![
        (1u64, 3u32, String::new()),
        (2, 17, ",\"chaos\":\"panic\"".to_string()),
        (3, 900, String::new()),
    ];
    let got = pipeline(&mut c, &reqs);

    for (id, src, _) in &reqs {
        let r = &got[id];
        assert_eq!(r.status, "ok", "id {id}: replay after batch panic: {r:?}");
        assert_eq!(
            r.digest.as_deref(),
            Some(reference_levels_digest(&g, *src).as_str()),
            "id {id}: the per-member replay must stay bit-identical"
        );
    }
    assert_eq!(
        got[&2].attempts,
        Some(2),
        "the chaos member records the failed batch attempt: {:?}",
        got[&2]
    );

    // The listener survived the panic.
    let mut c2 = Client::connect(handle.addr());
    c2.send("{\"op\":\"ping\",\"id\":9}");
    assert_eq!(c2.recv().status, "ok");

    let report = drain_clean(handle);
    assert_eq!(report.ok, 3);
    assert_eq!(report.panics_recovered, 1, "{report:?}");
    assert!(report.rebuilds >= 1, "{report:?}");
}

#[test]
fn bitflip_chaos_on_batch_server_is_a_usage_error() {
    let g = test_graph();
    let cfg = ServeConfig {
        allow_chaos: true,
        ..batch_cfg(2, 1.0)
    };
    let handle = start(cfg, Arc::clone(&g));
    let mut c = Client::connect(handle.addr());
    let got = pipeline(
        &mut c,
        &[(1u64, 0u32, ",\"chaos\":\"bitflip\"".to_string())],
    );
    let r = &got[&1];
    assert_eq!(r.status, "error", "{r:?}");
    assert_eq!(r.kind.as_deref(), Some("usage"), "{r:?}");

    // The server keeps serving.
    let got = pipeline(&mut c, &[(2u64, 0u32, String::new())]);
    assert_eq!(got[&2].status, "ok");
    handle.initiate_drain();
    assert!(handle.join().drain_clean);
}

#[test]
fn verified_batch_server_certifies_slots_and_stays_bit_identical() {
    let g = test_graph();
    let cfg = ServeConfig {
        verify: true,
        ..batch_cfg(64, 30.0)
    };
    let handle = start(cfg, Arc::clone(&g));
    let mut c = Client::connect(handle.addr());
    let reqs: Vec<(u64, u32, String)> = [4u32, 4, 256, 1500]
        .iter()
        .enumerate()
        .map(|(i, &s)| (i as u64 + 1, s, String::new()))
        .collect();
    let got = pipeline(&mut c, &reqs);
    for (id, src, _) in &reqs {
        let r = &got[id];
        assert_eq!(r.status, "ok", "id {id}: {r:?}");
        assert_eq!(
            r.digest.as_deref(),
            Some(reference_levels_digest(&g, *src).as_str()),
            "id {id}: certified batch slots answer the solo digest"
        );
    }
    let report = drain_clean(handle);
    assert_eq!(report.ok, reqs.len() as u64);
    assert_eq!(report.rebuilds, 0, "clean certificates never quarantine");
}

proptest! {
    // Each case boots a real server, so keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Coalescing must never cost a member its own deadline: members
    /// with no deadline always come back `ok` with the solo levels
    /// digest, no matter how many doomed (nanosecond-budget) members
    /// share their wave — and duplicate sources answer identically.
    #[test]
    fn no_member_times_out_from_coalescing_and_duplicates_agree(
        plan in proptest::collection::vec((0u32..600, any::<bool>()), 1..10),
    ) {
        let g = Arc::new(erdos_renyi(600, 2_400, 9));
        let handle = start(batch_cfg(64, 10.0), Arc::clone(&g));
        let mut c = Client::connect(handle.addr());

        let reqs: Vec<(u64, u32, String)> = plan
            .iter()
            .enumerate()
            .map(|(i, &(src, doomed))| {
                let extra = if doomed {
                    ",\"deadline_ms\":0.000001".to_string()
                } else {
                    String::new()
                };
                (i as u64 + 1, src, extra)
            })
            .collect();
        let got = pipeline(&mut c, &reqs);

        let mut digest_by_source: HashMap<u32, String> = HashMap::new();
        for (i, &(src, doomed)) in plan.iter().enumerate() {
            let r = &got[&(i as u64 + 1)];
            if doomed {
                prop_assert_eq!(&r.status, "timeout", "{:?}", r);
            } else {
                prop_assert_eq!(&r.status, "ok", "{:?}", r);
                let d = r.digest.clone().expect("ok carries a digest");
                prop_assert_eq!(
                    d.as_str(),
                    reference_levels_digest(&g, src).as_str(),
                    "source {}: batched != solo", src
                );
                if let Some(seen) = digest_by_source.insert(src, d.clone()) {
                    prop_assert_eq!(seen, d, "duplicate source {} diverged", src);
                }
            }
        }

        handle.initiate_drain();
        let report = handle.join();
        prop_assert!(report.drain_clean, "{:?}", report);
        let doomed = plan.iter().filter(|&&(_, d)| d).count() as u64;
        prop_assert_eq!(report.timeouts, doomed);
        prop_assert_eq!(report.ok, plan.len() as u64 - doomed);
    }
}

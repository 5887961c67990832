//! End-to-end serving-layer tests over a real socket: panic isolation
//! (an injected worker panic never kills the listener, and the replayed
//! result is bit-identical to a single-shot run), deadline timeouts,
//! load shedding, chaos gating, graceful drain, cluster serving with
//! mid-request checkpoint/restart, idempotent replay, and client-side
//! shed retries.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use common::{drain_clean, reference_digest, reference_levels_digest, start, try_start, Client};
use xbfs_graph::generators::erdos_renyi;
use xbfs_graph::Csr;
use xbfs_server::{protocol, run_loadgen, ChaosPlan, LoadgenConfig, ServeConfig};

fn test_graph() -> Arc<Csr> {
    Arc::new(erdos_renyi(3000, 12_000, 7))
}

#[test]
fn serves_bfs_and_drains_cleanly() {
    let g = test_graph();
    let handle = start(ServeConfig::default(), Arc::clone(&g));
    let mut c = Client::connect(handle.addr());

    // ping / info answer inline.
    c.send("{\"op\":\"ping\",\"id\":1}");
    assert_eq!(c.recv().status, "ok");
    c.send("{\"op\":\"info\",\"id\":2}");
    assert_eq!(c.recv().status, "ok");

    // Served results match the single-shot reference bit for bit.
    for (id, src) in [(10u64, 0u32), (11, 42), (12, 2999)] {
        let r = c.bfs(id, src, "");
        assert_eq!(r.status, "ok", "source {src}");
        assert_eq!(r.id, id);
        assert_eq!(
            r.digest.as_deref(),
            Some(reference_digest(&g, src).as_str()),
            "served result must be bit-identical to a fresh engine"
        );
    }

    let report = drain_clean(handle);
    assert_eq!(report.ok, 3);
    assert_eq!(report.dropped_connections, 0);
}

#[test]
fn worker_panic_is_contained_and_replay_is_bit_identical() {
    let g = test_graph();
    let cfg = ServeConfig {
        allow_chaos: true,
        workers: 1,
        ..ServeConfig::default()
    };
    let handle = start(cfg, Arc::clone(&g));
    let mut c = Client::connect(handle.addr());

    // A chaos panic fires inside the worker on attempt 0; the
    // supervisor quarantines the engine, rebuilds, and replays clean.
    let r = c.bfs(1, 17, ",\"chaos\":\"panic\"");
    assert_eq!(r.status, "ok", "replay after panic must succeed: {r:?}");
    assert_eq!(r.attempts, Some(2), "one panic, one clean replay");
    assert_eq!(
        r.digest.as_deref(),
        Some(reference_digest(&g, 17).as_str()),
        "replayed result must be bit-identical to a single-shot run"
    );

    // The listener survived: the same connection keeps working, and so
    // does a brand-new one.
    let r = c.bfs(2, 17, "");
    assert_eq!(r.status, "ok");
    assert_eq!(r.attempts, Some(1));
    let mut c2 = Client::connect(handle.addr());
    c2.send("{\"op\":\"ping\",\"id\":3}");
    assert_eq!(c2.recv().status, "ok");

    let report = drain_clean(handle);
    assert_eq!(report.panics_recovered, 1);
    assert_eq!(report.rebuilds, 1);
    assert_eq!(report.replayed, 1);
}

#[test]
fn exhausted_retries_answer_typed_and_the_next_request_runs_on_a_rebuilt_engine() {
    let g = test_graph();
    let cfg = ServeConfig {
        allow_chaos: true,
        workers: 1,
        max_retries: 0,
        breaker_threshold: 1,
        breaker_cooldown_ms: 0,
        ..ServeConfig::default()
    };
    let handle = start(cfg, Arc::clone(&g));
    let mut c = Client::connect(handle.addr());

    // One allowed attempt, and it panics: no replay, a typed error.
    let line = c.roundtrip(
        "{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":1,\"source\":17,\"chaos\":\"panic\"}",
    );
    let r = protocol::parse_response(&line).unwrap();
    assert_eq!(r.status, "error", "{line}");
    assert_eq!(r.kind.as_deref(), Some("panic"), "{line}");
    assert!(line.contains("uncorrected after 1 attempts"), "{line}");

    // The failure tripped the breaker; with no cooldown the next request
    // is its probe, served clean on the rebuilt engine.
    let r = c.bfs(2, 17, "");
    assert_eq!(r.status, "ok", "{r:?}");
    assert_eq!(r.attempts, Some(1));
    assert_eq!(r.digest.as_deref(), Some(reference_digest(&g, 17).as_str()));

    let report = drain_clean(handle);
    assert_eq!(report.breaker_trips, 1, "{report:?}");
    assert_eq!(report.panics_recovered, 1);
    assert_eq!(report.rebuilds, 1);
    assert_eq!(report.replayed, 0);
}

#[test]
fn chaos_is_ignored_without_opt_in() {
    let g = test_graph();
    let handle = start(ServeConfig::default(), Arc::clone(&g)); // allow_chaos: false
    let mut c = Client::connect(handle.addr());
    let r = c.bfs(1, 5, ",\"chaos\":\"panic\"");
    assert_eq!(r.status, "ok", "production servers ignore stamped chaos");
    assert_eq!(r.attempts, Some(1));
    handle.initiate_drain();
    let report = handle.join();
    assert_eq!(report.chaos_ignored, 1);
    assert_eq!(report.panics_recovered, 0);
}

#[test]
fn bitflip_chaos_is_detected_and_replayed() {
    let g = test_graph();
    let cfg = ServeConfig {
        allow_chaos: true,
        workers: 1,
        ..ServeConfig::default()
    };
    let handle = start(cfg, Arc::clone(&g));
    let mut c = Client::connect(handle.addr());
    let r = c.bfs(1, 99, ",\"chaos\":\"bitflip\"");
    assert_eq!(r.status, "ok", "{r:?}");
    assert!(
        r.attempts.unwrap_or(0) >= 2,
        "certification must catch the flip and force a replay"
    );
    assert_eq!(
        r.digest.as_deref(),
        Some(reference_digest(&g, 99).as_str()),
        "corrected result must be bit-identical"
    );
    handle.initiate_drain();
    let report = handle.join();
    assert!(report.rebuilds >= 1);
    assert!(report.drain_clean, "{report:?}");
}

#[test]
fn impossible_deadline_times_out_typed() {
    let g = test_graph();
    let handle = start(ServeConfig::default(), Arc::clone(&g));
    let mut c = Client::connect(handle.addr());
    // A nanosecond-scale budget cannot cover a multi-level run.
    let r = c.bfs(1, 0, ",\"deadline_ms\":0.000001");
    assert_eq!(r.status, "timeout");
    // The engine survives a timeout: the next request is clean.
    let r = c.bfs(2, 0, "");
    assert_eq!(r.status, "ok");
    assert_eq!(
        r.digest.as_deref(),
        Some(reference_digest(&g, 0).as_str()),
        "state must be fully reusable after a deadline abort"
    );
    handle.initiate_drain();
    let report = handle.join();
    assert_eq!(report.timeouts, 1);
    assert!(report.drain_clean, "{report:?}");
}

#[test]
fn bad_source_is_a_typed_error_not_a_crash() {
    let g = test_graph();
    let handle = start(ServeConfig::default(), Arc::clone(&g));
    let mut c = Client::connect(handle.addr());
    let r = c.bfs(1, 1_000_000, "");
    assert_eq!(r.status, "error");
    assert_eq!(r.kind.as_deref(), Some("invalid"));
    let r = c.bfs(2, 1, "");
    assert_eq!(r.status, "ok", "server keeps serving after a bad request");
    drain_clean(handle);
}

#[test]
fn overload_sheds_explicitly_and_nothing_is_lost() {
    let g = test_graph();
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 2,
        ..ServeConfig::default()
    };
    let handle = start(cfg, Arc::clone(&g));
    let mut c = Client::connect(handle.addr());

    // Pipeline a burst far past capacity without reading.
    let burst = 30u64;
    for id in 0..burst {
        c.send(&format!(
            "{{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":{id},\"source\":0}}"
        ));
    }
    let mut ok = 0u64;
    let mut shed = 0u64;
    for _ in 0..burst {
        let r = c.recv();
        match r.status.as_str() {
            "ok" => ok += 1,
            "overloaded" => {
                assert!(r.retry_after_ms.unwrap_or(0) > 0, "hint required");
                shed += 1;
            }
            other => panic!("unexpected status {other}"),
        }
    }
    assert_eq!(ok + shed, burst, "every request answered exactly once");
    assert!(shed > 0, "a 2-deep queue must shed under a 30-burst");
    assert!(ok > 0, "accepted requests still complete");

    handle.initiate_drain();
    let report = handle.join();
    assert_eq!(report.ok, ok);
    assert_eq!(report.shed, shed);
    assert_eq!(report.dropped_connections, 0);
    assert!(report.drain_clean, "{report:?}");
}

#[test]
fn cluster_recovers_rank_crash_within_request_and_digest_matches_single_device() {
    let g = test_graph();
    let cfg = ServeConfig {
        cluster: Some(4),
        allow_chaos: true,
        workers: 1,
        ..ServeConfig::default()
    };
    let handle = start(cfg, Arc::clone(&g));
    let mut c = Client::connect(handle.addr());

    // Rank 1 dies at level 1 mid-request; checkpoint/restart recovers it
    // inside the request — the response is ok on attempt 1 (no replay)
    // with ≥1 recovery, and the digest is bit-identical to a fault-free
    // single-device run.
    let r = c.bfs(1, 42, ",\"chaos\":\"crash@1:rank1\",\"deadline_ms\":60000");
    assert_eq!(r.status, "ok", "{r:?}");
    assert_eq!(
        r.attempts,
        Some(1),
        "recovered within the request, not replayed"
    );
    assert!(
        r.recoveries.unwrap_or(0) >= 1,
        "a mid-request checkpoint restore must be reported: {r:?}"
    );
    assert_eq!(
        r.digest.as_deref(),
        Some(reference_levels_digest(&g, 42).as_str()),
        "recovered levels must be bit-identical to fault-free"
    );

    // A clean request on the same warm cluster matches too.
    let r = c.bfs(2, 42, "");
    assert_eq!(r.status, "ok");
    assert_eq!(r.recoveries, Some(0));
    assert_eq!(
        r.digest.as_deref(),
        Some(reference_levels_digest(&g, 42).as_str())
    );

    let report = drain_clean(handle);
    assert_eq!(report.cluster, 4);
    assert_eq!(
        report.rank_health.len(),
        4,
        "per-rank health for all 4 GCDs"
    );
    assert_eq!(report.rank_health[1].crashes, 1, "{:?}", report.rank_health);
    let restores: u64 = report
        .rank_health
        .iter()
        .map(|h| h.checkpoints_restored)
        .sum();
    assert!(restores >= 1, "{:?}", report.rank_health);
}

#[test]
fn crash_chaos_on_single_device_server_is_a_usage_error() {
    let g = test_graph();
    let cfg = ServeConfig {
        allow_chaos: true,
        ..ServeConfig::default()
    };
    let handle = start(cfg, Arc::clone(&g));
    let mut c = Client::connect(handle.addr());
    let r = c.bfs(1, 0, ",\"chaos\":\"crash@1:rank0\"");
    assert_eq!(r.status, "error");
    assert_eq!(r.kind.as_deref(), Some("usage"));
    drain_clean(handle);
}

#[test]
fn replayed_completed_id_is_answered_from_cache_not_reexecuted() {
    let g = test_graph();
    let handle = start(ServeConfig::default(), Arc::clone(&g));
    let mut c = Client::connect(handle.addr());

    let first = c.bfs(7, 19, "");
    assert_eq!(first.status, "ok");
    assert_eq!(first.deduped, None);

    // A reconnect-after-timeout replays the same id: the cached response
    // comes back (marked), and the server does not execute it again.
    let mut c2 = Client::connect(handle.addr());
    let replay = c2.bfs(7, 19, "");
    assert_eq!(replay.status, "ok");
    assert_eq!(replay.deduped, Some(true), "{replay:?}");
    assert_eq!(replay.digest, first.digest);

    // Same id with a different source is a different request, not a
    // replay — it must execute.
    let other = c.bfs(7, 20, "");
    assert_eq!(other.status, "ok");
    assert_eq!(other.deduped, None);

    let report = drain_clean(handle);
    assert_eq!(report.ok, 2, "only two executions for three requests");
    assert_eq!(report.deduped, 1);
}

#[test]
fn loadgen_retries_shed_requests_until_they_land() {
    let g = test_graph();
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    };
    let handle = start(cfg, Arc::clone(&g));

    // A burst far past a 1-deep queue: without retries much of it is
    // shed; with retries everything eventually lands.
    let report = run_loadgen(&LoadgenConfig {
        addr: handle.addr().to_string(),
        requests: 30,
        rps: 3000.0,
        connections: 2,
        source_max: 4,
        retries: 10,
        ..LoadgenConfig::default()
    })
    .expect("loadgen runs");

    assert_eq!(report.lost, 0, "{report:?}");
    assert!(
        report.retried_ok >= 1,
        "retries must rescue sheds: {report:?}"
    );
    assert!(report.retries_sent >= report.retried_ok);
    assert!(report.digests_consistent, "{report:?}");
    assert_eq!(
        report.ok + report.shed + report.timeouts + report.errors,
        report.sent,
        "{report:?}"
    );

    drain_clean(handle);
}

#[test]
fn chaos_soak_on_cluster_loses_nothing_and_recovers_ranks() {
    let g = test_graph();
    let cfg = ServeConfig {
        cluster: Some(4),
        allow_chaos: true,
        workers: 2,
        queue_cap: 16,
        ..ServeConfig::default()
    };
    let handle = start(cfg, Arc::clone(&g));

    // Every third request carries a rank-1 crash at level 1; retries
    // absorb any sheds so nothing is lost.
    let report = run_loadgen(&LoadgenConfig {
        addr: handle.addr().to_string(),
        requests: 24,
        rps: 500.0,
        connections: 2,
        source_max: 1, // one source → digests_consistent compares
        // crash-recovered responses against clean ones
        chaos: Some(ChaosPlan::parse("crash@1:3,rank=1").expect("chaos spec")),
        retries: 10,
        ..LoadgenConfig::default()
    })
    .expect("loadgen runs");

    assert_eq!(report.lost, 0, "{report:?}");
    assert!(report.ok > 0, "{report:?}");
    assert!(
        report.digests_consistent,
        "crash-recovered results must match clean ones: {report:?}"
    );

    // And the shared single source matches the fault-free single-device
    // reference bit for bit.
    let mut c = Client::connect(handle.addr());
    let r = c.bfs(1_000_000, 0, "");
    assert_eq!(
        r.digest.as_deref(),
        Some(reference_levels_digest(&g, 0).as_str())
    );

    let sreport = drain_clean(handle);
    let crashes: u64 = sreport.rank_health.iter().map(|h| h.crashes).sum();
    let restores: u64 = sreport
        .rank_health
        .iter()
        .map(|h| h.checkpoints_restored)
        .sum();
    assert!(crashes >= 1, "{:?}", sreport.rank_health);
    assert!(restores >= 1, "{:?}", sreport.rank_health);
}

#[test]
fn shutdown_op_drains_and_rejects_late_requests() {
    let g = test_graph();
    let handle = start(ServeConfig::default(), Arc::clone(&g));
    let mut c = Client::connect(handle.addr());
    let r = c.bfs(1, 3, "");
    assert_eq!(r.status, "ok");
    c.send("{\"op\":\"shutdown\",\"id\":2}");
    assert_eq!(c.recv().status, "ok");
    // join() returning at all is the drain assertion: accept loop,
    // handlers, and workers all exited on the wire-initiated shutdown.
    let report = handle.join();
    assert!(report.drain_clean, "{report:?}");
    assert_eq!(report.ok, 1);
}

// ---------------------------------------------------------------------
// Durability: write-ahead journal, crash-consistent restart.
// ---------------------------------------------------------------------

fn journal_cfg(path: &std::path::Path) -> ServeConfig {
    ServeConfig {
        journal: Some(path.to_string_lossy().into_owned()),
        journal_fsync: xbfs_server::FsyncPolicy::Always,
        ..ServeConfig::default()
    }
}

fn tmp_journal(name: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("xbfs-e2e-{}-{name}.wal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Journal admits with no completions, as a process that died before
/// answering them would leave behind.
fn write_admits(path: &std::path::Path, admits: &[(u64, u32)]) {
    let (j, _) = xbfs_server::Journal::open(path, xbfs_server::FsyncPolicy::Always).unwrap();
    for &(id, source) in admits {
        let (deadline_ms, verify, chaos) = (None, None, None);
        let req = xbfs_server::BfsRequest {
            id,
            source,
            deadline_ms,
            verify,
            chaos,
        };
        j.append_admit(&req).unwrap();
    }
}

/// A restart on the same journal warm-starts the dedup cache: a client
/// that resends a completed id gets the cached response (`deduped`)
/// with the identical digest, without recomputation.
#[test]
fn restart_on_same_journal_dedupes_completed_ids() {
    let g = test_graph();
    let path = tmp_journal("dedup");

    let handle = start(journal_cfg(&path), Arc::clone(&g));
    let mut c = Client::connect(handle.addr());
    let first = c.bfs(77, 5, "");
    assert_eq!(first.status, "ok");
    let digest = first.digest.clone().expect("ok carries a digest");
    drop(c);
    let report = drain_clean(handle);
    assert!(report.journal_appends >= 2, "admit + done: {report:?}");

    // Process 2 on the same journal: the resent id must be answered from
    // the warmed cache, bit-identical, and marked deduped.
    let handle = start(journal_cfg(&path), Arc::clone(&g));
    let mut c = Client::connect(handle.addr());
    let replayed = c.bfs(77, 5, "");
    assert_eq!(replayed.status, "ok");
    assert_eq!(replayed.deduped, Some(true), "warm cache must answer");
    assert_eq!(replayed.digest.as_deref(), Some(digest.as_str()));
    assert_eq!(digest, reference_digest(&g, 5));
    // A fresh id still executes normally.
    let fresh = c.bfs(78, 6, "");
    assert_eq!(fresh.status, "ok");
    assert_ne!(fresh.deduped, Some(true));
    drop(c);
    let report = drain_clean(handle);
    assert!(report.deduped >= 1, "{report:?}");
    assert_eq!(report.replayed_requests, 0, "nothing was incomplete");
    let _ = std::fs::remove_file(&path);
}

/// Admits journaled by a process that died before answering are
/// re-enqueued on restart and finish with digests bit-identical to a
/// fresh run — even when the dead process also tore the journal tail.
#[test]
fn restart_replays_incomplete_admits_bit_identically() {
    let g = test_graph();
    let path = tmp_journal("replay");
    let lost: &[(u64, u32)] = &[(1, 0), (2, 42), (3, 2999)];
    {
        // Simulate the dead process: admits with no completions, then a
        // torn half-record where the SIGKILL landed.
        write_admits(&path, lost);
    }
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&[0x42, 0x00, 0x13]); // torn tail
    std::fs::write(&path, &bytes).unwrap();

    let handle = start(journal_cfg(&path), Arc::clone(&g));
    let report = drain_clean(handle);
    assert_eq!(report.replayed_requests, lost.len() as u64, "{report:?}");
    assert_eq!(report.ok, lost.len() as u64, "{report:?}");
    assert!(report.recovery_ms >= 0.0, "{report:?}");

    // The journal now closes the loop: no incomplete admits remain, and
    // every recovered completion carries the fresh-run reference digest.
    let healed = xbfs_server::replay_bytes(&std::fs::read(&path).unwrap());
    assert!(healed.incomplete.is_empty(), "{healed:?}");
    for &(id, source) in lost {
        let d = healed
            .completed
            .iter()
            .find(|d| d.id == id && d.source == source)
            .unwrap_or_else(|| panic!("no completion journaled for id {id}"));
        assert_eq!(d.status, "ok");
        assert_eq!(
            d.digest.as_deref(),
            Some(reference_digest(&g, source).as_str()),
            "recovered result must be bit-identical to a fresh run"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// A zero-length queue can never hold a recovered admit, and zero
/// workers would never drain one: start refuses both up front with a
/// typed error instead of hanging in journal recovery.
#[test]
fn zero_queue_cap_or_workers_is_rejected_before_journal_replay() {
    let path = tmp_journal("cap0");
    write_admits(&path, &[(1, 0)]);
    for (workers, queue_cap) in [(1, 0), (0, 1)] {
        let cfg = ServeConfig {
            workers,
            queue_cap,
            ..journal_cfg(&path)
        };
        let err = try_start(cfg, test_graph()).err().expect("must not start");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    }
    // Nothing was replayed: the admit still waits for a real server.
    let replay = xbfs_server::replay_bytes(&std::fs::read(&path).unwrap());
    assert_eq!(replay.incomplete.len(), 1);
    let _ = std::fs::remove_file(&path);
}

/// Read hygiene: a request line over the 64 KiB bound is shed with a
/// typed `overlong` error instead of growing the buffer without limit,
/// and an idle connection with nothing in flight is closed after the
/// idle budget.
#[test]
fn overlong_lines_shed_and_idle_connections_close() {
    let g = test_graph();
    let handle = start(
        ServeConfig {
            idle_timeout_ms: 300,
            ..ServeConfig::default()
        },
        Arc::clone(&g),
    );

    // Overlong: a newline-less firehose one byte past the cap.
    let mut c = Client::connect(handle.addr());
    let blob = vec![b'x'; xbfs_server::server::MAX_REQUEST_LINE + 2];
    c.writer.write_all(&blob).unwrap();
    c.writer.flush().unwrap();
    let r = c.recv();
    assert_eq!(r.status, "error");
    drop(c);

    // Idle: no traffic at all → server closes within the idle budget.
    let idle = TcpStream::connect(handle.addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut line = String::new();
    let n = BufReader::new(idle).read_line(&mut line).unwrap();
    assert_eq!(n, 0, "idle connection must be closed, got {line:?}");

    let report = drain_clean(handle);
    assert_eq!(report.long_lines, 1, "{report:?}");
    assert!(report.idle_disconnects >= 1, "{report:?}");
}

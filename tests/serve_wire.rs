//! The serving wire path under tier-1: an unloaded request is answered
//! within a small constant of engine time (no read-timeout floor), a
//! client that pipelines requests and half-closes still gets every
//! answer, and the `stats` op, the `metrics` op and the drain-time
//! report agree because they read the same counters.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcd_sim::Device;
use xbfs_core::XbfsConfig;
use xbfs_graph::generators::erdos_renyi;
use xbfs_server::protocol::{parse_response, ResponseSummary};
use xbfs_server::top::TopSnapshot;
use xbfs_server::{ServeConfig, Server, ServerHandle};
use xbfs_telemetry::json::JsonValue;
use xbfs_telemetry::names::live;
use xbfs_telemetry::Recorder;

/// A 1-worker server on a graph small enough that one BFS takes a few
/// ms even in an unoptimized build, plus one client connection to it.
fn start_small() -> (ServerHandle, TcpStream, BufReader<TcpStream>) {
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let graph = Arc::new(erdos_renyi(500, 2_000, 3));
    let factory = Arc::new(Device::mi250x);
    let rec = Arc::new(Recorder::disabled());
    let handle = Server::start(cfg, graph, XbfsConfig::default(), factory, rec).unwrap();
    let w = TcpStream::connect(handle.addr()).unwrap();
    w.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let r = BufReader::new(w.try_clone().unwrap());
    (handle, w, r)
}

fn bfs_line(id: u64, source: u32, extra: &str) -> String {
    format!("{{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":{id},\"source\":{source}{extra}}}\n")
}

fn recv_line(r: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    r.read_line(&mut line).expect("recv");
    line
}

fn recv(r: &mut BufReader<TcpStream>) -> ResponseSummary {
    parse_response(recv_line(r).trim()).expect("parse response")
}

#[test]
fn unloaded_round_trip_is_not_held_behind_a_poll() {
    let (handle, mut w, mut r) = start_small();
    let mut rtts = Vec::new();
    for id in 0..20u64 {
        let t = Instant::now();
        w.write_all(bfs_line(id, id as u32 * 7, "").as_bytes())
            .unwrap();
        let resp = recv(&mut r);
        rtts.push(t.elapsed().as_secs_f64() * 1000.0);
        assert_eq!((resp.id, resp.status.as_str()), (id, "ok"));
    }
    rtts.sort_by(f64::total_cmp);
    let median = rtts[rtts.len() / 2];
    assert!(median < 20.0, "median round trip {median:.1} ms: {rtts:?}");
    drop((w, r));
    handle.initiate_drain();
    assert!(handle.join().drain_clean);
}

#[test]
fn pipelined_requests_are_all_answered_after_a_half_close() {
    const N: u64 = 16;
    let (handle, mut w, mut r) = start_small();
    let batch: String = (0..N).map(|id| bfs_line(id, id as u32, "")).collect();
    w.write_all(batch.as_bytes()).unwrap();
    w.shutdown(Shutdown::Write).unwrap();
    // The server closes once everything owed is written.
    let mut answered: Vec<u64> = std::iter::from_fn(|| Some(recv_line(&mut r)))
        .take_while(|line| !line.is_empty())
        .map(|line| {
            let resp = parse_response(line.trim()).unwrap();
            assert_eq!(resp.status, "ok", "{line}");
            resp.id
        })
        .collect();
    answered.sort_unstable();
    assert_eq!(answered, (0..N).collect::<Vec<_>>());
    handle.initiate_drain();
    let report = handle.join();
    assert_eq!(report.dropped_connections, 0, "{report:?}");
    assert!(report.drain_clean, "{report:?}");
    assert_eq!(report.ok, N);
}

#[test]
fn stats_metrics_and_report_agree() {
    let (handle, mut w, mut r) = start_small();
    let requests = [
        bfs_line(1, 0, ""),
        bfs_line(2, 1, ""),
        bfs_line(3, 2, ",\"deadline_ms\":0.000001"),
        bfs_line(4, 1_000_000, ""),
    ];
    let statuses: Vec<String> = requests
        .iter()
        .map(|line| {
            w.write_all(line.as_bytes()).unwrap();
            recv(&mut r).status
        })
        .collect();
    assert_eq!(statuses, ["ok", "ok", "timeout", "error"]);

    w.write_all(b"{\"op\":\"stats\",\"id\":5}\n").unwrap();
    let stats = JsonValue::parse(recv_line(&mut r).trim()).unwrap();
    let stat = |k: &str| stats.get(k).and_then(JsonValue::as_f64).unwrap() as u64;
    w.write_all(b"{\"op\":\"metrics\",\"id\":6}\n").unwrap();
    let reply = JsonValue::parse(recv_line(&mut r).trim()).unwrap();
    let snap = TopSnapshot::parse(reply.get("metrics").unwrap()).unwrap();
    let scraped = |status: &str| snap.counter(live::REQUESTS_TOTAL, &[("status", status)]);

    drop((w, r));
    handle.initiate_drain();
    let report = handle.join();
    assert!(report.drain_clean, "{report:?}");
    for (key, want, reported, scraped) in [
        (
            "accepted",
            4,
            report.accepted,
            snap.counter(live::ADMITTED_TOTAL, &[]),
        ),
        ("ok", 2, report.ok, scraped("ok")),
        ("timeouts", 1, report.timeouts, scraped("timeout")),
        ("errors", 1, report.errors, scraped("error")),
    ] {
        assert_eq!((stat(key), reported, scraped), (want, want, want), "{key}");
    }
}

//! Live metrics plane, end to end over real sockets: the wire `metrics`
//! op returns a consistent `xbfs-metrics-v1` snapshot that reconciles
//! with the final serve report, the `--metrics-addr` HTTP listener
//! serves Prometheus text and JSON mid-load without perturbing workers,
//! worker panics leave a flight-recorder dump referenced by the report,
//! and `xbfs top` renders frames from successive snapshots.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use common::{drain_clean, start, Client};
use xbfs_graph::generators::erdos_renyi;
use xbfs_graph::Csr;
use xbfs_server::top::{run_top, TopSnapshot};
use xbfs_server::ServeConfig;
use xbfs_telemetry::json::JsonValue;
use xbfs_telemetry::names::live;

fn test_graph() -> Arc<Csr> {
    Arc::new(erdos_renyi(2000, 8_000, 11))
}

/// Scrape via the wire `metrics` op, returning the parsed snapshot.
fn scrape(c: &mut Client, id: u64) -> TopSnapshot {
    let resp = c.roundtrip(&format!("{{\"op\":\"metrics\",\"id\":{id}}}"));
    let v = JsonValue::parse(&resp).expect("metrics response parses");
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
    TopSnapshot::parse(v.get("metrics").expect("metrics payload"))
        .expect("payload is xbfs-metrics-v1")
}
fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("xbfs-me2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn metrics_op_snapshot_reconciles_with_final_report() {
    let g = test_graph();
    let handle = start(ServeConfig::default(), g);
    let mut c = Client::connect(handle.addr());

    for (id, src) in [(1u64, 0u32), (2, 5), (3, 1999)] {
        let r = c.roundtrip(&format!(
            "{{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":{id},\"source\":{src}}}"
        ));
        assert!(r.contains("\"status\":\"ok\""), "{r}");
    }
    // One typed timeout (deadline already spent before the run starts).
    let r = c.roundtrip(
        "{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":4,\"source\":1,\"deadline_ms\":0.000001}",
    );
    assert!(r.contains("\"status\":\"timeout\""), "{r}");

    // Everything above completed before this scrape, so the snapshot
    // must agree exactly with what the final report will say.
    let snap = scrape(&mut c, 90);
    assert_eq!(snap.counter(live::REQUESTS_TOTAL, &[("status", "ok")]), 3);
    assert_eq!(
        snap.counter(live::REQUESTS_TOTAL, &[("status", "timeout")]),
        1
    );
    assert_eq!(snap.counter(live::ADMITTED_TOTAL, &[]), 4);
    assert!(snap.counter(live::CONNECTIONS_TOTAL, &[]) >= 1);
    let (count, _, p50, p99) = snap
        .hist(live::REQUEST_LATENCY_MS, &[("status", "ok")])
        .expect("ok latency histogram present");
    assert_eq!(count, 3);
    assert!(p50 > 0.0 && p99 >= p50, "p50 {p50} p99 {p99}");

    let report = drain_clean(handle);
    assert_eq!(report.ok, 3);
    assert_eq!(report.timeouts, 1);
    assert_eq!(
        report.accepted,
        snap.counter(live::ADMITTED_TOTAL, &[]),
        "scrape reconciles with the report: nothing lost"
    );
}

#[test]
fn http_listener_serves_prometheus_and_json_mid_load() {
    let g = test_graph();
    let cfg = ServeConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    };
    let handle = start(cfg, g);
    let maddr = handle.metrics_addr().expect("metrics listener bound");
    let mut c = Client::connect(handle.addr());
    for id in 0..3u64 {
        let r = c.roundtrip(&format!(
            "{{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":{id},\"source\":{id}}}"
        ));
        assert!(r.contains("\"status\":\"ok\""), "{r}");
    }

    let http_get = |path: &str| -> String {
        let mut s = TcpStream::connect(maddr).expect("connect scrape");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(s, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        s.read_to_string(&mut body).expect("read scrape");
        body
    };

    let prom = http_get("/metrics");
    assert!(prom.starts_with("HTTP/1.0 200 OK"), "{prom}");
    assert!(prom.contains("# TYPE xbfs_serve_requests_total counter"));
    assert!(prom.contains("xbfs_serve_requests_total{status=\"ok\"} 3"));
    assert!(prom.contains("xbfs_serve_queue_depth"));
    assert!(prom.contains("xbfs_serve_request_latency_ms_bucket"));

    let json = http_get("/metrics.json");
    let body = json.split("\r\n\r\n").nth(1).expect("has body");
    let snap = TopSnapshot::parse(&JsonValue::parse(body).expect("json body parses"))
        .expect("body is xbfs-metrics-v1");
    assert_eq!(snap.counter(live::REQUESTS_TOTAL, &[("status", "ok")]), 3);

    assert!(http_get("/nope").starts_with("HTTP/1.0 404"));

    // Scraping perturbed nothing: requests still serve afterwards.
    let r = c.roundtrip("{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":9,\"source\":7}");
    assert!(r.contains("\"status\":\"ok\""), "{r}");

    let report = drain_clean(handle);
    assert_eq!(report.ok, 4);
}

#[test]
fn worker_panic_dumps_flight_recorder_and_report_references_it() {
    let g = test_graph();
    let dir = tmpdir("panic");
    let cfg = ServeConfig {
        allow_chaos: true,
        workers: 1,
        flight_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    };
    let handle = start(cfg, g);
    let mut c = Client::connect(handle.addr());

    let r = c.roundtrip(
        "{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":1,\"source\":3,\"chaos\":\"panic\"}",
    );
    assert!(r.contains("\"status\":\"ok\""), "replay succeeds: {r}");

    let snap = scrape(&mut c, 50);
    assert!(snap.counter(live::FLIGHT_DUMPS_TOTAL, &[]) >= 1);
    assert_eq!(
        snap.counter(live::WORKER_PANICS_TOTAL, &[("worker", "0")]),
        1
    );
    assert_eq!(
        snap.counter(live::WORKER_REBUILDS_TOTAL, &[("worker", "0")]),
        1
    );

    handle.initiate_drain();
    let report = handle.join();
    assert!(
        !report.flight_dumps.is_empty(),
        "panic must leave a dump: {report:?}"
    );
    let dump = std::fs::read_to_string(&report.flight_dumps[0]).expect("dump file exists");
    assert!(dump.contains("reason: worker-panic"), "{dump}");
    assert!(dump.contains("request.start"), "{dump}");
    assert!(dump.contains("injected worker panic"), "{dump}");
    assert!(
        report.to_json().contains("\"flight_dumps\":["),
        "report JSON references dumps"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn top_renders_frames_from_a_live_server() {
    let g = test_graph();
    let handle = start(ServeConfig::default(), g);
    let mut c = Client::connect(handle.addr());
    for id in 0..2u64 {
        let r = c.roundtrip(&format!(
            "{{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":{id},\"source\":{id}}}"
        ));
        assert!(r.contains("\"status\":\"ok\""), "{r}");
    }

    let addr = handle.addr().to_string();
    let mut out = Vec::new();
    let frames = run_top(&addr, Duration::from_millis(20), Some(2), &mut out).expect("top runs");
    assert_eq!(frames, 2);
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("xbfs top"), "{text}");
    assert!(text.contains("ok 2"), "{text}");
    assert!(text.contains("breaker    closed"), "{text}");
    assert!(text.contains("w0="), "{text}");

    drain_clean(handle);
}

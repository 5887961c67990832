//! Socket helpers shared by the serving end-to-end suites.

#![allow(dead_code)] // each suite uses its own subset

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use gcd_sim::Device;
use xbfs_core::{Xbfs, XbfsConfig};
use xbfs_graph::Csr;
use xbfs_server::{protocol, ServeConfig, ServeReport, Server, ServerHandle};
use xbfs_telemetry::Recorder;

/// Start a server on `g` whose workers mint fresh MI250X devices.
pub fn try_start(cfg: ServeConfig, g: Arc<Csr>) -> std::io::Result<ServerHandle> {
    let factory = Arc::new(Device::mi250x);
    Server::start(
        cfg,
        g,
        XbfsConfig::default(),
        factory,
        Arc::new(Recorder::disabled()),
    )
}

pub fn start(cfg: ServeConfig, g: Arc<Csr>) -> ServerHandle {
    try_start(cfg, g).expect("server binds")
}

/// Drain and join, requiring a clean drain.
pub fn drain_clean(handle: ServerHandle) -> ServeReport {
    handle.initiate_drain();
    let report = handle.join();
    assert!(report.drain_clean, "{report:?}");
    report
}

/// A client connection with line-level send/recv helpers.
pub struct Client {
    pub writer: TcpStream,
    pub reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect");
        writer
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Self { writer, reader }
    }

    pub fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
    }

    /// The next response line, trimmed.
    pub fn recv_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        line.trim().to_string()
    }

    pub fn recv(&mut self) -> protocol::ResponseSummary {
        protocol::parse_response(&self.recv_line()).expect("parse response")
    }

    pub fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv_line()
    }

    pub fn bfs(&mut self, id: u64, source: u32, extra: &str) -> protocol::ResponseSummary {
        self.send(&format!(
            "{{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":{id},\"source\":{source}{extra}}}"
        ));
        self.recv()
    }
}

/// The digest a plain single-shot engine computes for this source — the
/// bit-identity reference every served result must match.
pub fn reference_digest(g: &Csr, source: u32) -> String {
    let dev = Device::mi250x();
    let eng = Xbfs::new(&dev, g, XbfsConfig::default()).unwrap();
    format!("{:#018x}", eng.run(source).unwrap().digest())
}

/// The backend-independent levels-only digest of a fault-free
/// single-device run — what cluster and batched responses must match
/// bit for bit.
pub fn reference_levels_digest(g: &Csr, source: u32) -> String {
    let dev = Device::mi250x();
    let eng = Xbfs::new(&dev, g, XbfsConfig::default()).unwrap();
    format!("{:#018x}", eng.run(source).unwrap().result_digest())
}

//! The serving phase: an in-process server and the benchmark's own
//! open-loop client.
//!
//! The client sends on a seeded schedule whatever the server does, over
//! [`CONNECTIONS`] connections with one thread each. Each request is timed
//! from when it was due, so a stall also charges the requests it delayed,
//! and the client reports how late it sent.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::inputs::Inputs;
use crate::layers::graph::Csr;
use crate::layers::server::{self, FsyncPolicy, Reply, ServeConfig, ServeReport, ServerHandle};
use crate::layers::telemetry::{self, Scrape};
use crate::trace::{SpanId, Tracer};

/// Client connections (and client threads).
pub const CONNECTIONS: usize = 2;

/// Admission-queue bound: deep enough that no workload sheds.
const QUEUE_CAP: usize = 1 << 16;

/// `metrics` round trips timed at the end of each serving phase.
const SCRAPES: usize = 5;

/// Ids of requests outside the measured schedule (warm-up, scrapes).
const CONTROL_IDS: u64 = 1 << 40;

#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// Uniform sources, Poisson arrivals at a mean rate.
    Steady { rps: f64 },
    /// `per_second` requests per second of budget from a hot source set,
    /// offered at `rps`, far above capacity.
    Burst { rps: f64, per_second: f64 },
}

#[derive(Debug, Clone, Copy)]
pub struct ServeMode {
    pub batch_width: usize,
    pub batch_window_ms: f64,
    pub journal: bool,
    pub traffic: Traffic,
}

/// A running in-process server.
pub struct ServeSide {
    handle: ServerHandle,
    journal: Option<PathBuf>,
    flight_dir: PathBuf,
    /// The warm-up request's source and reply.
    pub warm: (u32, Reply),
}

impl ServeSide {
    /// Start a server with one worker and wait until it has answered one
    /// BFS request, which also builds the worker's engine.
    pub fn start(
        mode: &ServeMode,
        graph: Arc<Csr>,
        warm_source: u32,
        out_dir: &Path,
    ) -> Result<Self, String> {
        let pid = std::process::id();
        let journal = mode
            .journal
            .then(|| out_dir.join(format!("journal-{pid}.wal")));
        if let Some(j) = &journal {
            // A leftover journal would be replayed; start empty.
            let _ = std::fs::remove_file(j);
        }
        let flight_dir = out_dir.join(format!("flight-{pid}"));
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_cap: QUEUE_CAP,
            batch_width: mode.batch_width,
            batch_window_ms: mode.batch_window_ms,
            journal: journal.as_ref().map(|p| p.display().to_string()),
            journal_fsync: FsyncPolicy::Batch(8),
            flight_dir: Some(flight_dir.display().to_string()),
            ..ServeConfig::default()
        };
        let handle = server::start(cfg, graph).map_err(|e| format!("server start: {e}"))?;
        let line = round_trip(handle.addr(), &server::bfs_line(CONTROL_IDS, warm_source))?;
        let reply = server::parse_reply(&line)?;
        Ok(Self {
            handle,
            journal,
            flight_dir,
            warm: (warm_source, reply),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Drain, join and remove the server's files.
    pub fn stop(self) -> ServeReport {
        let report = server::stop(self.handle);
        if let Some(j) = &self.journal {
            let _ = std::fs::remove_file(j);
        }
        let _ = std::fs::remove_dir_all(&self.flight_dir);
        report
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub id: u64,
    pub source: u32,
    /// When it is due, ns after the phase starts.
    pub due_ns: u64,
}

/// The seeded schedule for a phase of `budget`; ids start at `id_base`.
pub fn plan(traffic: Traffic, inputs: &Inputs, budget: Duration, id_base: u64) -> Vec<Planned> {
    let (due, sources) = match traffic {
        Traffic::Steady { rps } => {
            let due = inputs.poisson_arrivals(rps, budget);
            let sources = inputs.uniform_requests(due.len());
            (due, sources)
        }
        Traffic::Burst { rps, per_second } => {
            let n = ((per_second * budget.as_secs_f64()).round() as usize).max(1);
            let due = (0..n).map(|i| (i as f64 * 1e9 / rps) as u64).collect();
            (due, inputs.hot_requests(n))
        }
    };
    due.into_iter()
        .zip(sources)
        .enumerate()
        .map(|(i, (due_ns, source))| Planned {
            id: id_base + i as u64,
            source,
            due_ns,
        })
        .collect()
}

/// What became of one scheduled request. Times are ns after the phase
/// starts.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub planned: Planned,
    pub sent_ns: Option<u64>,
    pub done_ns: Option<u64>,
    pub reply: Option<Reply>,
}

impl Outcome {
    /// From when it was due to when its reply arrived.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done_ns
            .map(|d| d.saturating_sub(self.planned.due_ns) as f64 / 1e6)
    }

    /// How late the client sent it.
    pub fn lag_ms(&self) -> Option<f64> {
        self.sent_ns
            .map(|s| s.saturating_sub(self.planned.due_ns) as f64 / 1e6)
    }
}

pub struct ServeRun {
    pub outcomes: Vec<Outcome>,
    /// From the first due time to the last reply, s.
    pub elapsed_s: f64,
    pub scrape_ms: Vec<f64>,
    pub scrape: Scrape,
    /// Transport or protocol failures the client saw.
    pub client_errors: Vec<String>,
}

/// Run one schedule against `side`, then time [`SCRAPES`] scrapes.
/// Requests unanswered `cutoff` after the phase starts are lost.
pub fn run_phase(
    side: &ServeSide,
    schedule: &[Planned],
    cutoff: Duration,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<ServeRun, String> {
    let addr = side.addr();
    let t0 = Instant::now();
    let t0_ns = tracer.now_ns();
    let per_conn: Vec<(Vec<Outcome>, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let mine: Vec<Planned> = schedule
                    .iter()
                    .skip(conn)
                    .step_by(CONNECTIONS)
                    .copied()
                    .collect();
                s.spawn(move || {
                    let span = tracer.open("client.conn", parent, 1 + conn as u32);
                    let r = drive(addr, mine, t0, cutoff, |o: &Outcome| {
                        if let (Some(a), Some(b)) = (o.sent_ns, o.done_ns) {
                            tracer.record(
                                "server.request",
                                Some(span.id),
                                1 + conn as u32,
                                t0_ns + a,
                                t0_ns + b,
                                Some(o.planned.id),
                                None,
                            );
                        }
                    });
                    tracer.close(span, None, None);
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut outcomes = Vec::with_capacity(schedule.len());
    let mut client_errors = Vec::new();
    for (o, e) in per_conn {
        outcomes.extend(o);
        client_errors.extend(e);
    }
    outcomes.sort_by_key(|o| o.planned.id);
    let last_ns = outcomes.iter().filter_map(|o| o.done_ns).max().unwrap_or(0);

    let mut scrape_ms = Vec::new();
    let mut last_line = String::new();
    for i in 0..SCRAPES {
        let start_ns = tracer.now_ns();
        let t = Instant::now();
        last_line = round_trip(addr, &server::metrics_line(CONTROL_IDS + 1 + i as u64))?;
        scrape_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.record(
            "telemetry.scrape",
            parent,
            0,
            start_ns,
            tracer.now_ns(),
            None,
            None,
        );
    }
    Ok(ServeRun {
        outcomes,
        elapsed_s: last_ns as f64 / 1e9,
        scrape_ms,
        scrape: telemetry::parse_scrape(&last_line)?,
        client_errors,
    })
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Socket read timeouts are rounded up to kernel ticks (4 ms at 250 Hz,
/// and observed up to two ticks late): too coarse for a send schedule. A
/// client thread blocks in a read only until this long before its next
/// send is due, then polls in steps of [`POLL`].
const TICK_SLACK: Duration = Duration::from_millis(10);
const POLL: Duration = Duration::from_micros(200);

/// One connection's share of the schedule. The thread sends each request
/// when due and otherwise waits for replies until the next is due.
fn drive(
    addr: SocketAddr,
    mine: Vec<Planned>,
    t0: Instant,
    cutoff: Duration,
    mut on_reply: impl FnMut(&Outcome),
) -> (Vec<Outcome>, Vec<String>) {
    let mut outcomes: Vec<Outcome> = mine
        .iter()
        .map(|&planned| Outcome {
            planned,
            sent_ns: None,
            done_ns: None,
            reply: None,
        })
        .collect();
    let mut stream = match connect(addr) {
        Ok(s) => s,
        Err(e) => return (outcomes, vec![e]),
    };
    let mut errors = Vec::new();
    let index: HashMap<u64, usize> = mine.iter().enumerate().map(|(i, p)| (p.id, i)).collect();
    let mut out: Vec<u8> = Vec::new();
    // (stream offset where a request's line ends, its index)
    let mut unsent: VecDeque<(u64, usize)> = VecDeque::new();
    let (mut queued, mut written) = (0u64, 0u64);
    let mut inbuf: Vec<u8> = Vec::new();
    let mut buf = vec![0u8; 1 << 16];
    let (mut next, mut answered) = (0, 0);
    while answered < mine.len() {
        let now = t0.elapsed();
        if now > cutoff {
            break;
        }
        while next < mine.len() && mine[next].due_ns <= now.as_nanos() as u64 {
            let p = &mine[next];
            let line = server::bfs_line(p.id, p.source);
            out.extend_from_slice(line.as_bytes());
            queued += line.len() as u64;
            unsent.push_back((queued, next));
            next += 1;
        }
        if !out.is_empty() {
            match stream.write(&out) {
                Ok(n) => {
                    out.drain(..n);
                    written += n as u64;
                    let t = t0.elapsed().as_nanos() as u64;
                    while unsent.front().is_some_and(|&(end, _)| end <= written) {
                        let (_, i) = unsent.pop_front().expect("front checked");
                        outcomes[i].sent_ns = Some(t);
                    }
                }
                Err(e) if would_block(&e) => {}
                Err(e) => {
                    errors.push(format!("write: {e}"));
                    break;
                }
            }
        }
        let wait = if !out.is_empty() {
            POLL
        } else if next < mine.len() {
            Duration::from_nanos(mine[next].due_ns).saturating_sub(t0.elapsed())
        } else {
            Duration::from_millis(100)
        };
        let got = if wait > TICK_SLACK {
            blocking_read(&mut stream, &mut buf, wait - TICK_SLACK)
        } else {
            match stream.read(&mut buf) {
                Err(e) if would_block(&e) => {
                    std::thread::sleep(wait.min(POLL));
                    continue;
                }
                r => r,
            }
        };
        match got {
            Ok(0) => {
                errors.push("server closed the connection".into());
                break;
            }
            Ok(n) => {
                let t = t0.elapsed().as_nanos() as u64;
                inbuf.extend_from_slice(&buf[..n]);
                while let Some(pos) = inbuf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = inbuf.drain(..=pos).collect();
                    let text = String::from_utf8_lossy(&line);
                    let reply = match server::parse_reply(text.trim_end()) {
                        Ok(r) => r,
                        Err(e) => {
                            errors.push(format!("unparsable reply: {e}"));
                            continue;
                        }
                    };
                    match index.get(&reply.id) {
                        Some(&i) if outcomes[i].reply.is_none() => {
                            outcomes[i].done_ns = Some(t);
                            outcomes[i].reply = Some(reply);
                            on_reply(&outcomes[i]);
                            answered += 1;
                        }
                        _ => errors.push(format!("unexpected reply id {}", reply.id)),
                    }
                }
            }
            Err(e) if would_block(&e) => {}
            Err(e) => {
                errors.push(format!("read: {e}"));
                break;
            }
        }
    }
    (outcomes, errors)
}

/// Read from a non-blocking stream, blocking for at most `timeout`.
fn blocking_read(
    stream: &mut TcpStream,
    buf: &mut [u8],
    timeout: Duration,
) -> std::io::Result<usize> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(timeout))?;
    let r = stream.read(buf);
    stream.set_nonblocking(true)?;
    r
}

/// A non-blocking client connection.
fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    s.set_nonblocking(true)
        .map_err(|e| format!("nonblocking: {e}"))?;
    Ok(s)
}

/// Send one line on a fresh connection and read one reply line.
fn round_trip(addr: SocketAddr, line: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("read timeout: {e}"))?;
    s.write_all(line.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut reply = String::new();
    BufReader::new(s)
        .read_line(&mut reply)
        .map_err(|e| format!("read: {e}"))?;
    if reply.is_empty() {
        return Err("server closed the connection without a reply".into());
    }
    Ok(reply.trim_end().to_string())
}

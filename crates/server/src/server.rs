//! The serving daemon: TCP listener, connection handlers, worker pool,
//! and the graceful-drain choreography.
//!
//! Thread layout: one accept thread; per connection, a reader thread and
//! a writer thread; `workers` engine threads consuming the admission
//! queue. The reader never runs BFS itself — it parses requests, applies
//! breaker/admission policy, and forwards accepted jobs carrying a clone
//! of the connection's one response channel. Inline replies (`ping`,
//! `info`, `stats`, `metrics`, shed, dedup, bad or overlong lines) go
//! down the same channel. The writer blocks on that channel, buffers each
//! response as one write and flushes whenever the channel is momentarily
//! empty, so a completion reaches the socket the moment its worker sends
//! it; completions arrive in finish order, matched by id. The writer
//! exits once the reader and every in-flight job have dropped their
//! senders — that is, once nothing is owed. The reader's blocking read
//! carries a timeout only for the idle-disconnect policy; nothing polls.
//!
//! Drain: `initiate_drain` (or the wire `shutdown` op) flips the
//! draining flag, moves the queue to `Draining` (reject new, keep
//! serving queued), shuts down the read half of every live connection
//! so blocked readers wake up, and pokes the accept loop awake with a
//! self-connection. Each connection closes once its writer has
//! delivered everything owed; workers exit when the queue runs dry;
//! `join` then builds one [`ServeReport`] from a snapshot of the live
//! registry. Every accepted request is answered before the process
//! exits — the report's `drain_clean` says so explicitly.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gcd_sim::Device;
use xbfs_graph::Csr;
use xbfs_multi_gcd::RankHealth;
use xbfs_telemetry::json::escape;
use xbfs_telemetry::names::live;
use xbfs_telemetry::{names, AttrValue, MetricsSnapshot, Recorder, SeriesValue};

use crate::breaker::CircuitBreaker;
use crate::dedup::DedupCache;
use crate::journal::{FsyncPolicy, Journal};
use crate::metrics::ServerMetrics;
use crate::protocol::{self, Request, PROTOCOL};
use crate::queue::{Admission, AdmissionQueue};
use crate::worker::{worker_loop, Job};

/// Builds one fresh device per engine generation. Fresh devices (not
/// clones) are what make a rebuilt engine's modeled timeline — and hence
/// its result digest — bit-identical to a single-shot run.
pub type DeviceFactory = Arc<dyn Fn() -> Device + Send + Sync>;

/// Serving-layer policy knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Engine worker threads (each owns one warm pooled engine).
    pub workers: usize,
    /// Admission-queue bound; beyond it requests are shed.
    pub queue_cap: usize,
    /// Base backoff hint attached to shed responses, ms.
    pub retry_after_ms: u64,
    /// Certify every run by default (per-request `verify` overrides).
    pub verify: bool,
    /// Honor chaos tokens stamped on requests (test servers only).
    pub allow_chaos: bool,
    /// Replays after quarantine before a request fails typed.
    pub max_retries: u32,
    /// Consecutive uncorrected failures that trip the breaker.
    pub breaker_threshold: u32,
    /// Breaker cooldown before the half-open probe, ms.
    pub breaker_cooldown_ms: u64,
    /// Deadline applied when a request does not carry one, ms.
    pub default_deadline_ms: Option<f64>,
    /// Coalesce up to this many admitted requests into one bit-parallel
    /// multi-source traversal per worker dispatch (1 = the classic solo
    /// engine; capped at [`xbfs_core::MAX_CONCURRENT`]). Mutually
    /// exclusive with `cluster`.
    pub batch_width: usize,
    /// How long a worker lingers for company after popping the first
    /// request of a batch, wall ms. A lone request is never parked
    /// longer than this.
    pub batch_window_ms: f64,
    /// Route requests through the partitioned multi-GCD engine with this
    /// many modeled GCDs per worker (`None` = single-device engine).
    pub cluster: Option<usize>,
    /// Cluster checkpoint cadence: snapshot status partitions every N
    /// levels so an injected rank crash restarts from the latest
    /// checkpoint instead of from scratch.
    pub checkpoint_every: u32,
    /// Completed responses remembered for idempotent replay (0 disables).
    pub dedup_cap: usize,
    /// Bind a second TCP listener here serving Prometheus-style text on
    /// `GET /metrics` and the `xbfs-metrics-v1` JSON snapshot on
    /// `GET /metrics.json` (`None` = main protocol's `metrics` op only).
    pub metrics_addr: Option<String>,
    /// Directory for flight-recorder dumps (`None` = a per-process dir
    /// under the system temp dir).
    pub flight_dir: Option<String>,
    /// Events remembered per flight-recorder lane.
    pub flight_ring: usize,
    /// Write-ahead request journal path (`None` = durability off). With a
    /// journal, every admitted request and every terminal response is
    /// CRC-framed to this file, and a restart on the same path replays
    /// incomplete requests ahead of new traffic.
    pub journal: Option<String>,
    /// How often journal appends are forced to stable storage.
    pub journal_fsync: FsyncPolicy,
    /// Close a connection after this many ms with no request and nothing
    /// in flight, so a stalled client cannot pin a handler thread forever
    /// (0 disables).
    pub idle_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 32,
            retry_after_ms: 25,
            verify: false,
            allow_chaos: false,
            max_retries: 2,
            breaker_threshold: 3,
            breaker_cooldown_ms: 250,
            default_deadline_ms: None,
            batch_width: 1,
            batch_window_ms: 2.0,
            cluster: None,
            checkpoint_every: 1,
            dedup_cap: 128,
            metrics_addr: None,
            flight_dir: None,
            flight_ring: 64,
            journal: None,
            journal_fsync: FsyncPolicy::Batch(8),
            idle_timeout_ms: 30_000,
        }
    }
}

/// Everything handlers and workers share.
pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    pub(crate) queue: AdmissionQueue<Job>,
    pub(crate) breaker: CircuitBreaker,
    pub(crate) graph: Arc<Csr>,
    pub(crate) xcfg: xbfs_core::XbfsConfig,
    pub(crate) factory: DeviceFactory,
    pub(crate) rec: Arc<Recorder>,
    pub(crate) draining: AtomicBool,
    pub(crate) dedup: DedupCache,
    /// The always-on live metrics plane + flight recorder: the one place
    /// every serving fact is counted.
    pub(crate) metrics: ServerMetrics,
    /// The write-ahead request journal (`None` = durability off).
    pub(crate) journal: Option<Journal>,
    /// Read halves of live connections, keyed by connection number, so a
    /// drain can wake blocked readers. Each handler removes its own entry.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Connection handler threads not yet joined; finished ones are
    /// reaped as new connections arrive.
    handlers: Mutex<Vec<JoinHandle<()>>>,
    started: Instant,
    addr: SocketAddr,
    /// Where the scrape listener is bound, for the drain wake-up poke.
    metrics_addr: Option<SocketAddr>,
}

impl Shared {
    pub(crate) fn now_us(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e6
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Flip to draining and wake the accept loop with a self-connection
    /// (idempotent; safe from any thread).
    pub(crate) fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::AcqRel) {
            return;
        }
        self.rec
            .event(None, names::event::DRAIN, 0, self.now_us(), vec![]);
        self.metrics.flight.note(
            self.metrics.flight.control_lane(),
            "drain",
            "graceful drain initiated",
        );
        self.queue.drain();
        // Readers block in read(); shutting the read half makes it return
        // EOF. A handler registering concurrently checks the flag itself.
        for conn in lock(&self.conns).values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        // The accept loops block in accept(); a throwaway connection is
        // the std-only way to make them re-check the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(maddr) = self.metrics_addr {
            let _ = TcpStream::connect_timeout(&maddr, Duration::from_millis(200));
        }
    }

    /// One consistent scrape: fold in the totals and states the queue,
    /// breaker and journal own (never shadow-tracked), then freeze the
    /// registry. Runs entirely on the scraping thread; workers are never
    /// stopped or signaled.
    pub(crate) fn metrics_snapshot(&self) -> MetricsSnapshot {
        let (m, q, b) = (&self.metrics, self.queue.stats(), &self.breaker);
        m.queue_depth.set(self.queue.depth() as f64);
        m.breaker_state.set(f64::from(b.state_code()));
        m.admitted.sync(q.accepted);
        m.shed_queue.sync(q.shed);
        m.shed_breaker.sync(b.fast_rejects());
        m.breaker_transitions.sync(b.transitions());
        m.breaker_trips.sync(b.trips());
        if let Some(j) = &self.journal {
            m.journal_appends.sync(j.appends());
            m.journal_fsyncs.sync(j.fsyncs());
            m.journal_bytes.sync(j.bytes_written());
        }
        m.snapshot()
    }

    /// Journal a completion record (no-op without a journal). `line`
    /// rides along only for dedup-cacheable `ok` responses; an append
    /// failure is noted in the flight recorder, never fatal to serving.
    pub(crate) fn journal_done(
        &self,
        id: u64,
        source: u32,
        status: &str,
        line: &str,
        cacheable: bool,
    ) {
        let Some(journal) = &self.journal else {
            return;
        };
        let digest = extract_digest(line);
        let cached = if cacheable { Some(line) } else { None };
        if journal
            .append_done(id, source, status, digest, cached)
            .is_err()
        {
            self.metrics.flight.note(
                self.metrics.flight.control_lane(),
                "journal.error",
                format!("done append failed id={id}"),
            );
        }
    }
}

/// Lock a mutex, riding through poisoning: every guarded value here
/// stays consistent even if a holder panicked.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A counter's value in a frozen snapshot (0 if never registered).
fn counter(snap: &MetricsSnapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    match snap.find(name, labels).map(|s| &s.value) {
        Some(SeriesValue::Counter(v)) => *v,
        _ => 0,
    }
}

/// A gauge's value in a frozen snapshot (0.0 if never registered).
fn gauge(snap: &MetricsSnapshot, name: &str) -> f64 {
    match snap.find(name, &[]).map(|s| &s.value) {
        Some(SeriesValue::Gauge(v)) => *v,
        _ => 0.0,
    }
}

/// Finished requests by terminal status: ok, timeout, error.
fn finished(snap: &MetricsSnapshot) -> [u64; 3] {
    ["ok", "timeout", "error"].map(|s| counter(snap, live::REQUESTS_TOTAL, &[("status", s)]))
}

/// Per-rank health from the rank series, in rank order (empty for
/// single-device servers; ranks appear with the first cluster run).
fn rank_health(snap: &MetricsSnapshot) -> Vec<RankHealth> {
    (0..)
        .map_while(|r: usize| {
            let r = r.to_string();
            let l: &[(&str, &str)] = &[("rank", r.as_str())];
            snap.find(live::RANK_CRASHES_TOTAL, l)?;
            Some(RankHealth {
                crashes: counter(snap, live::RANK_CRASHES_TOTAL, l),
                checkpoints_restored: counter(snap, live::RANK_RESTORES_TOTAL, l),
                retransmitted_bytes: counter(snap, live::RANK_RETRANSMITTED_BYTES_TOTAL, l),
            })
        })
        .collect()
}

/// Pull the `"digest":"0x…"` value out of a response line without a full
/// JSON parse — the journal rides the hot path.
pub(crate) fn extract_digest(line: &str) -> Option<&str> {
    let start = line.find("\"digest\":\"")? + "\"digest\":\"".len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Merged end-of-life report: one line of truth per robustness claim.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeReport {
    /// Requests admitted by the queue.
    pub accepted: u64,
    /// Requests shed (queue full).
    pub shed: u64,
    /// Requests rejected during drain.
    pub rejected_draining: u64,
    /// Requests answered `ok`.
    pub ok: u64,
    /// Requests answered `timeout` (queue or run budget).
    pub timeouts: u64,
    /// Requests answered `error`.
    pub errors: u64,
    /// `ok` responses that needed a quarantine replay first.
    pub replayed: u64,
    /// Worker panics contained by `catch_unwind`.
    pub panics_recovered: u64,
    /// Engine generations discarded + rebuilt.
    pub rebuilds: u64,
    /// Chaos tokens ignored because `--allow-chaos` was off.
    pub chaos_ignored: u64,
    /// Breaker trips over the server's life.
    pub breaker_trips: u64,
    /// Requests rejected fast while the breaker was open.
    pub breaker_fast_rejects: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Connections that died with an unanswered in-flight request.
    pub dropped_connections: u64,
    /// Unparsable request lines (answered with a typed error).
    pub bad_lines: u64,
    /// Deepest queue backlog observed.
    pub max_queue_depth: usize,
    /// Replayed ids answered from the idempotency cache (never
    /// re-executed, never re-queued).
    pub deduped: u64,
    /// Multi-source batches dispatched (0 unless `batch_width > 1`).
    pub batches: u64,
    /// Requests that rode a dispatched batch (ok, replayed, or shed
    /// in-batch — everything the batcher coalesced).
    pub batched_requests: u64,
    /// Widest batch actually coalesced.
    pub max_batch_size: u64,
    /// Configured coalescing width (1 = solo engine).
    pub batch_width: usize,
    /// Journal records appended (admits + completions; 0 without
    /// `--journal`).
    pub journal_appends: u64,
    /// Explicit fsyncs the journal issued under its policy.
    pub journal_fsyncs: u64,
    /// Journal bytes written, frames included.
    pub journal_bytes: u64,
    /// Incomplete requests recovered from the journal and re-enqueued
    /// ahead of new traffic at startup.
    pub replayed_requests: u64,
    /// Startup recovery time: journal replay + dedup warm-start +
    /// re-enqueue, in ms (0.0 without a journal).
    pub recovery_ms: f64,
    /// Request lines shed for exceeding the length bound.
    pub long_lines: u64,
    /// Connections closed by the idle read timeout.
    pub idle_disconnects: u64,
    /// Flight-recorder dump files written over the server's life
    /// (worker panics, quarantines, breaker opens), oldest first.
    pub flight_dumps: Vec<String>,
    /// Modeled GCDs per worker engine (0 = single-device).
    pub cluster: usize,
    /// Per-rank health across every cluster run served (empty for
    /// single-device servers): injected crashes observed, checkpoint
    /// restores performed, and bytes retransmitted over degraded links.
    pub rank_health: Vec<RankHealth>,
    /// Every accepted request was answered and nothing was lost.
    pub drain_clean: bool,
}

impl ServeReport {
    /// `xbfs-serve-report-v1` JSON object (single line).
    pub fn to_json(&self) -> String {
        let ranks: Vec<String> = (self.rank_health.iter().enumerate())
            .map(|(rank, h)| {
                format!(
                    "{{\"rank\":{rank},\"crashes\":{},\"checkpoints_restored\":{},\
                     \"retransmitted_bytes\":{}}}",
                    h.crashes, h.checkpoints_restored, h.retransmitted_bytes
                )
            })
            .collect();
        let dumps: Vec<String> = self.flight_dumps.iter().map(|p| escape(p)).collect();
        let fields: [(&str, &dyn std::fmt::Display); 32] = [
            ("accepted", &self.accepted),
            ("shed", &self.shed),
            ("rejected_draining", &self.rejected_draining),
            ("ok", &self.ok),
            ("timeouts", &self.timeouts),
            ("errors", &self.errors),
            ("replayed", &self.replayed),
            ("panics_recovered", &self.panics_recovered),
            ("rebuilds", &self.rebuilds),
            ("chaos_ignored", &self.chaos_ignored),
            ("breaker_trips", &self.breaker_trips),
            ("breaker_fast_rejects", &self.breaker_fast_rejects),
            ("connections", &self.connections),
            ("dropped_connections", &self.dropped_connections),
            ("bad_lines", &self.bad_lines),
            ("max_queue_depth", &self.max_queue_depth),
            ("deduped", &self.deduped),
            ("batches", &self.batches),
            ("batched_requests", &self.batched_requests),
            ("max_batch_size", &self.max_batch_size),
            ("batch_width", &self.batch_width),
            ("journal_appends", &self.journal_appends),
            ("journal_fsyncs", &self.journal_fsyncs),
            ("journal_bytes", &self.journal_bytes),
            ("replayed_requests", &self.replayed_requests),
            ("recovery_ms", &self.recovery_ms),
            ("long_lines", &self.long_lines),
            ("idle_disconnects", &self.idle_disconnects),
            ("cluster", &self.cluster),
            ("rank_health", &format!("[{}]", ranks.join(","))),
            ("flight_dumps", &format!("[{}]", dumps.join(","))),
            ("drain_clean", &self.drain_clean),
        ];
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{\"format\":\"xbfs-serve-report-v1\",{}}}", body.join(","))
    }
}

/// The daemon. [`Server::start`] returns a handle; the server lives
/// until a drain is initiated (wire `shutdown` or
/// [`ServerHandle::initiate_drain`]) and [`ServerHandle::join`] reaps it.
pub struct Server;

/// Running-server handle: address, drain trigger, and the join that
/// yields the merged report.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn workers + accept loop, and return immediately. Zero
    /// workers or a zero-length queue is an `InvalidInput` error.
    pub fn start(
        cfg: ServeConfig,
        graph: Arc<Csr>,
        xcfg: xbfs_core::XbfsConfig,
        factory: DeviceFactory,
        rec: Arc<Recorder>,
    ) -> std::io::Result<ServerHandle> {
        for (name, n) in [("workers", cfg.workers), ("queue_cap", cfg.queue_cap)] {
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("{name} must be at least 1"),
                ));
            }
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        // Bind the scrape listener up front so its address lands in
        // `Shared` (the drain poke needs it) and bind errors surface to
        // the caller instead of dying in a thread.
        let metrics_listener = match &cfg.metrics_addr {
            Some(a) => Some(TcpListener::bind(a)?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let flight_dir = cfg
            .flight_dir
            .as_ref()
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                std::env::temp_dir().join(format!("xbfs-flight-{}", std::process::id()))
            });
        let metrics = ServerMetrics::new(cfg.workers, flight_dir, cfg.flight_ring);
        // Open + replay the journal before anything serves: completions
        // warm the dedup cache and incomplete admits are re-enqueued
        // below, strictly ahead of new traffic (the listener is bound but
        // the accept thread is not running yet — the OS backlog holds
        // early connections).
        let recovery_started = Instant::now();
        let journal_state = match &cfg.journal {
            Some(path) => Some(Journal::open(path, cfg.journal_fsync)?),
            None => None,
        };
        let (journal, replay) = match journal_state {
            Some((j, r)) => (Some(j), Some(r)),
            None => (None, None),
        };
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(cfg.queue_cap, cfg.retry_after_ms),
            breaker: CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown_ms),
            graph,
            xcfg,
            factory,
            rec,
            draining: AtomicBool::new(false),
            dedup: DedupCache::new(cfg.dedup_cap),
            metrics,
            journal,
            conns: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
            started: Instant::now(),
            addr,
            metrics_addr,
            cfg,
        });

        let workers: Vec<JoinHandle<()>> = (0..shared.cfg.workers)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("xbfs-worker-{i}"))
                    .spawn(move || worker_loop(sh, i))
                    .expect("spawn worker thread")
            })
            .collect();

        if let Some(replay) = replay {
            recover(&shared, replay, recovery_started);
        }

        let sh = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("xbfs-accept".into())
            .spawn(move || accept_loop(sh, listener))
            .expect("spawn accept thread");

        let metrics_thread = metrics_listener.map(|l| {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("xbfs-metrics".into())
                .spawn(move || metrics_loop(sh, l))
                .expect("spawn metrics thread")
        });

        Ok(ServerHandle {
            shared,
            accept,
            workers,
            metrics_thread,
        })
    }
}

/// Apply a replayed journal to a freshly built server: warm the dedup
/// cache from completion records, then re-enqueue every incomplete
/// request. Runs after the workers are spawned (recovered requests can
/// outnumber the queue bound, so the queue must be draining while we
/// fill it) and before the accept thread starts (the OS listen backlog
/// holds new connections, so recovered requests are strictly ahead of
/// new traffic). Recovered responses flow to a sink thread — the
/// connections that asked for them died with the previous process; a
/// client that still cares will resend the id and hit the warm dedup
/// cache.
fn recover(shared: &Arc<Shared>, replay: crate::journal::ReplayedJournal, started: Instant) {
    for done in &replay.completed {
        if let Some(line) = &done.line {
            shared.dedup.record(done.id, done.source, line);
        }
    }
    let n = replay.incomplete.len() as u64;
    if n > 0 {
        let (tx, rx) = mpsc::channel::<String>();
        let _ = std::thread::Builder::new()
            .name("xbfs-recovery".into())
            .spawn(move || while rx.recv().is_ok() {});
        let tx = Arc::new(tx);
        for req in replay.incomplete {
            // Recovery is the only submitter and workers only drain, so
            // a depth check below the bound guarantees admission.
            loop {
                if shared.queue.depth() >= shared.cfg.queue_cap {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                let job = Job {
                    req: req.clone(),
                    enqueued: Instant::now(),
                    resp: Arc::clone(&tx),
                };
                match shared.queue.submit(job) {
                    Admission::Accepted { .. } => break,
                    Admission::Shed { .. } => std::thread::sleep(Duration::from_millis(1)),
                    Admission::Draining => return,
                }
            }
        }
    }
    shared.metrics.replayed_requests.add(n);
    let us = started.elapsed().as_micros() as u64;
    shared.metrics.recovery_ms.set(us as f64 / 1000.0);
    shared.metrics.flight.note(
        shared.metrics.flight.control_lane(),
        "journal.recovered",
        format!(
            "records={} completed={} re-enqueued={n} torn_bytes={}",
            replay.records,
            replay.completed.len(),
            replay.torn_bytes
        ),
    );
}

impl ServerHandle {
    /// The bound address (useful with `127.0.0.1:0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Where the scrape listener is bound, when `metrics_addr` was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.shared.metrics_addr
    }

    /// Where flight-recorder dumps are written.
    pub fn flight_dir(&self) -> PathBuf {
        self.shared.metrics.flight_dir().to_path_buf()
    }

    /// Begin graceful drain from the host process (equivalent to the
    /// wire `shutdown` op). Idempotent.
    pub fn initiate_drain(&self) {
        self.shared.begin_drain();
    }

    /// Block until the drain completes and build the final report from
    /// one registry snapshot plus the totals the queue, breaker and
    /// journal own. Joining without a drain in progress waits for a wire
    /// `shutdown`.
    pub fn join(self) -> ServeReport {
        // Accept loop exits once draining; it joins all handlers first,
        // and a handler exits only after its writer delivered everything
        // the connection was owed.
        let _ = self.accept.join();
        // Queue is in Draining; workers exit when it runs dry.
        for w in self.workers {
            let _ = w.join();
        }
        // The scrape listener was poked awake by begin_drain.
        if let Some(m) = self.metrics_thread {
            let _ = m.join();
        }
        let shared = &self.shared;
        // Anything still queued now is a bug — close() surfaces it.
        let abandoned = shared.queue.close();
        // Final fsync: a drained journal is fully on stable storage no
        // matter the policy.
        if let Some(j) = &shared.journal {
            let _ = j.sync();
        }
        let snap = shared.metrics_snapshot();
        let q = shared.queue.stats();
        let c = |name: &str| counter(&snap, name, &[]);
        let [ok, timeouts, errors] = finished(&snap);
        let batched_requests = match snap.find(live::BATCH_SIZE, &[]).map(|s| &s.value) {
            Some(SeriesValue::Histogram(h)) => h.sum().round() as u64,
            _ => 0,
        };
        let (journal_appends, journal_fsyncs, journal_bytes) = match &shared.journal {
            Some(j) => (j.appends(), j.fsyncs(), j.bytes_written()),
            None => (0, 0, 0),
        };
        ServeReport {
            accepted: q.accepted,
            shed: q.shed,
            rejected_draining: q.rejected_draining,
            ok,
            timeouts,
            errors,
            replayed: c(live::REPLAYED_TOTAL),
            panics_recovered: snap.counter_family_total(live::WORKER_PANICS_TOTAL),
            rebuilds: snap.counter_family_total(live::WORKER_REBUILDS_TOTAL),
            chaos_ignored: c(live::CHAOS_IGNORED_TOTAL),
            breaker_trips: shared.breaker.trips(),
            breaker_fast_rejects: shared.breaker.fast_rejects(),
            connections: c(live::CONNECTIONS_TOTAL),
            dropped_connections: c(live::DROPPED_CONNECTIONS_TOTAL),
            bad_lines: c(live::BAD_LINES_TOTAL),
            max_queue_depth: q.max_depth,
            deduped: c(live::DEDUPED_TOTAL),
            batches: c(live::BATCHES_TOTAL),
            batched_requests,
            max_batch_size: gauge(&snap, live::MAX_BATCH_SIZE) as u64,
            batch_width: shared.cfg.batch_width.max(1),
            journal_appends,
            journal_fsyncs,
            journal_bytes,
            replayed_requests: c(live::REPLAYED_REQUESTS_TOTAL),
            recovery_ms: gauge(&snap, live::RECOVERY_MS),
            long_lines: c(live::LONG_LINES_TOTAL),
            idle_disconnects: c(live::IDLE_DISCONNECTS_TOTAL),
            flight_dumps: shared.metrics.dump_paths(),
            cluster: shared.cfg.cluster.unwrap_or(0),
            rank_health: rank_health(&snap),
            drain_clean: abandoned.is_empty()
                && c(live::UNDELIVERED_TOTAL) == 0
                && c(live::DROPPED_CONNECTIONS_TOTAL) == 0
                && q.accepted == ok + timeouts + errors,
        }
    }
}

/// Serve scrapes on the dedicated listener until drain. Scrapes run
/// entirely on this thread (snapshotting never stops a worker); one at a
/// time is plenty for a monitoring endpoint.
fn metrics_loop(shared: Arc<Shared>, listener: TcpListener) {
    for conn in listener.incoming() {
        if shared.is_draining() {
            break; // the begin_drain wake-up poke (or a late scraper)
        }
        if let Ok(stream) = conn {
            let _ = serve_scrape(&shared, stream);
        }
    }
}

/// Answer one minimal HTTP/1.0 scrape: `GET /metrics` returns the
/// Prometheus text exposition, `GET /metrics.json` the `xbfs-metrics-v1`
/// snapshot. Anything else is a 404.
fn serve_scrape(shared: &Shared, stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut writer = stream.try_clone()?;
    // Bound the request head and consume it whole: closing with unread
    // bytes makes the kernel reset the connection under the response.
    let mut head = BufReader::new(stream).take(MAX_REQUEST_LINE as u64);
    let mut line = String::new();
    head.read_line(&mut line)?;
    let mut header = String::new();
    while head.read_line(&mut header)? > 2 {
        header.clear();
    }
    let path = line.split_whitespace().nth(1).unwrap_or("");
    let (status, ctype, body) = if path == "/metrics.json" {
        (
            "200 OK",
            "application/json",
            shared.metrics_snapshot().to_json(),
        )
    } else if path == "/metrics" || path == "/" {
        (
            "200 OK",
            "text/plain; version=0.0.4",
            shared.metrics_snapshot().to_prometheus(),
        )
    } else {
        ("404 Not Found", "text/plain", "not found\n".to_string())
    };
    write!(
        writer,
        "HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    for (conn, stream) in (0u64..).zip(listener.incoming()) {
        if shared.is_draining() {
            break; // the wake-up connection (or a late client) is dropped
        }
        let Ok(stream) = stream else { continue };
        shared.metrics.connections.add(1);
        let sh = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("xbfs-conn".into())
            .spawn(move || handle_conn(sh, stream, conn));
        let mut handlers = lock(&shared.handlers);
        reap_finished(&mut handlers);
        if let Ok(h) = spawned {
            handlers.push(h);
        }
    }
    drop(listener);
    let handlers = std::mem::take(&mut *lock(&shared.handlers));
    for h in handlers {
        let _ = h.join();
    }
}

/// Join every handler that has already finished; keep the live ones.
fn reap_finished(handlers: &mut Vec<JoinHandle<()>>) {
    let (done, live): (Vec<_>, Vec<_>) = std::mem::take(handlers)
        .into_iter()
        .partition(|h| h.is_finished());
    *handlers = live;
    for h in done {
        let _ = h.join();
    }
}

/// Longest request line a handler will buffer. One BFS request is well
/// under a kilobyte; anything bigger is a confused or malicious client,
/// and bounding the read turns it into a typed shed instead of an
/// unbounded allocation.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Serve one connection: this thread reads and dispatches requests, a
/// writer thread owns every socket write. Returns once the reader is done
/// and the writer has delivered everything the connection was owed.
fn handle_conn(shared: Arc<Shared>, stream: TcpStream, conn: u64) {
    let idle_ms = shared.cfg.idle_timeout_ms;
    let _ = stream.set_read_timeout((idle_ms > 0).then(|| Duration::from_millis(idle_ms)));
    let _ = stream.set_nodelay(true);
    let (tx, rx) = mpsc::channel::<String>();
    let writer = stream.try_clone().and_then(|out| {
        std::thread::Builder::new()
            .name("xbfs-conn-writer".into())
            .spawn(move || write_responses(out, rx))
    });
    let (Ok(writer), Ok(wake)) = (writer, stream.try_clone()) else {
        shared.metrics.dropped_connections.add(1);
        return;
    };
    {
        let mut conns = lock(&shared.conns);
        // Checked under the registry lock: either the drain's sweep sees
        // this entry, or this check sees the drain.
        if shared.is_draining() {
            let _ = wake.shutdown(Shutdown::Read);
        }
        conns.insert(conn, wake);
    }
    let tx = Arc::new(tx);
    read_requests(&shared, stream, &tx);
    lock(&shared.conns).remove(&conn);
    drop(tx);
    if !matches!(writer.join(), Ok(Ok(()))) {
        // A response could not be written: whatever else this connection
        // was owed is undeliverable too.
        shared.metrics.dropped_connections.add(1);
    }
}

/// Read and dispatch request lines until EOF (a drain shuts the read
/// half down to force one), a read error, an overlong line, or a whole
/// idle budget of silence with nothing owed. `tx` is the connection's
/// response sender; every in-flight job holds a clone, so a strong count
/// of one means nothing is owed.
fn read_requests(shared: &Arc<Shared>, stream: TcpStream, tx: &Arc<mpsc::Sender<String>>) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        // The `take` bound keeps a newline-less firehose from growing
        // `line` without limit — one byte past the cap proves the line is
        // overlong.
        let cap = (MAX_REQUEST_LINE + 1 - line.len()) as u64;
        match (&mut reader).take(cap).read_line(&mut line) {
            Ok(_) if line.ends_with('\n') => {
                let req = std::mem::take(&mut line);
                dispatch_line(shared, tx, req.trim());
            }
            // Checked before the EOF arm: a cap-exhausted read also
            // returns `Ok(0)` and must shed, not close quietly.
            Ok(_) if line.len() > MAX_REQUEST_LINE => {
                // Overlong: answer typed and stop reading — the line
                // framing is unrecoverable past the cap.
                shared.metrics.long_lines.add(1);
                let _ = tx.send(protocol::error_line(
                    0,
                    "overlong",
                    &format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
                ));
                return;
            }
            Ok(_) => return, // EOF (0) or partial line at EOF
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // The read timeout is the idle budget. Partial bytes or
                // an owed response keep the connection open.
                if line.is_empty() && Arc::strong_count(tx) == 1 {
                    shared.metrics.idle_disconnects.add(1);
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// The connection's writer: block on the response channel, buffer each
/// response as one write, and flush whenever the channel is momentarily
/// empty. Returns `Ok` once every sender is gone with everything
/// written; on a failed write it shuts the socket down (so the reader
/// stops too) and returns the error.
fn write_responses(stream: TcpStream, rx: mpsc::Receiver<String>) -> std::io::Result<()> {
    let result = (|| {
        let mut out = BufWriter::new(&stream);
        while let Ok(mut line) = rx.recv() {
            loop {
                line.push('\n');
                out.write_all(line.as_bytes())?;
                match rx.try_recv() {
                    Ok(next) => line = next,
                    Err(_) => break,
                }
            }
            out.flush()?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = stream.shutdown(Shutdown::Both);
    }
    result
}

/// Parse + answer one request line; `bfs` goes through breaker and
/// admission control, everything else is answered inline.
fn dispatch_line(shared: &Arc<Shared>, tx: &Arc<mpsc::Sender<String>>, raw: &str) {
    if raw.is_empty() {
        return;
    }
    // A send fails only once the writer died on a broken socket, which
    // already counted the connection as dropped.
    let reply = |s: String| {
        let _ = tx.send(s);
    };
    let req = match protocol::parse_request(raw) {
        Ok(r) => r,
        Err(e) => {
            shared.metrics.bad_lines.add(1);
            reply(protocol::error_line(0, "usage", &e));
            return;
        }
    };
    match req {
        Request::Ping { id } => reply(protocol::pong_line(id)),
        Request::Info { id } => reply(protocol::info_line(
            id,
            shared.graph.num_vertices(),
            shared.graph.num_edges(),
            shared.cfg.workers,
            shared.cfg.queue_cap,
        )),
        Request::Stats { id } => {
            let [ok, timeouts, errors] = finished(&shared.metrics_snapshot());
            let (q, depth, open) = (
                shared.queue.stats(),
                shared.queue.depth(),
                shared.breaker.is_open(),
            );
            reply(format!(
                "{{\"v\":\"{PROTOCOL}\",\"id\":{id},\"status\":\"ok\",\"accepted\":{},\
                 \"shed\":{},\"ok\":{ok},\"timeouts\":{timeouts},\"errors\":{errors},\
                 \"depth\":{depth},\"breaker_open\":{open}}}",
                q.accepted, q.shed
            ));
        }
        Request::Shutdown { id } => {
            reply(protocol::shutdown_line(id));
            shared.begin_drain();
        }
        Request::Metrics { id } => {
            let snap = shared.metrics_snapshot();
            reply(protocol::metrics_line(id, &snap.to_json()));
        }
        Request::Bfs(bfs) => {
            let id = bfs.id;
            // Idempotent replay: an id we already completed is answered
            // from cache — even while draining or with the breaker open,
            // since nothing re-executes. Chaos-carrying requests bypass
            // the cache so soaks always exercise the real path.
            if bfs.chaos.is_none() {
                if let Some(cached) = shared.dedup.lookup(id, bfs.source) {
                    shared.metrics.deduped.add(1);
                    shared.rec.event(
                        None,
                        names::event::DEDUP_HIT,
                        0,
                        shared.now_us(),
                        vec![("id".into(), AttrValue::U64(id))],
                    );
                    reply(protocol::mark_deduped(&cached));
                    return;
                }
            }
            let draining = || {
                shared.metrics.rejected_draining.add(1);
                let retry_ms = shared.cfg.retry_after_ms;
                reply(protocol::overloaded_line(id, "draining", retry_ms));
            };
            if shared.is_draining() {
                return draining();
            }
            if let Err(retry_ms) = shared.breaker.admit() {
                shared.metrics.retry_after_ms.set(retry_ms as f64);
                shared.metrics.flight.note(
                    shared.metrics.flight.control_lane(),
                    "shed.breaker",
                    format!("id={id} retry_after_ms={retry_ms}"),
                );
                reply(protocol::overloaded_line(id, "breaker-open", retry_ms));
                return;
            }
            // The journal needs the request after `Job` takes ownership;
            // clone up front only when journaling is on.
            let journal_req = shared.journal.as_ref().map(|_| bfs.clone());
            let job = Job {
                req: bfs,
                enqueued: Instant::now(),
                resp: Arc::clone(tx),
            };
            match shared.queue.submit(job) {
                Admission::Accepted { .. } => {
                    if let (Some(j), Some(req)) = (&shared.journal, &journal_req) {
                        if j.append_admit(req).is_err() {
                            shared.metrics.flight.note(
                                shared.metrics.flight.control_lane(),
                                "journal.error",
                                format!("admit append failed id={id}"),
                            );
                        }
                    }
                    shared.rec.counter(
                        names::metric::QUEUE_DEPTH,
                        0,
                        shared.now_us(),
                        shared.queue.depth() as f64,
                    );
                }
                Admission::Shed { retry_after_ms } => {
                    shared.metrics.retry_after_ms.set(retry_after_ms as f64);
                    shared.metrics.flight.note(
                        shared.metrics.flight.control_lane(),
                        "shed.queue",
                        format!("id={id} retry_after_ms={retry_after_ms}"),
                    );
                    shared.rec.event(
                        None,
                        names::event::SHED,
                        0,
                        shared.now_us(),
                        vec![("id".into(), AttrValue::U64(id))],
                    );
                    reply(protocol::overloaded_line(id, "queue-full", retry_after_ms));
                }
                Admission::Draining => draining(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Poll (bounded) until the held handlers' `is_finished` flags match.
    fn wait_for_held(handle: &ServerHandle, done: impl Fn(&[bool]) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let held: Vec<bool> = lock(&handle.shared.handlers)
                .iter()
                .map(JoinHandle::is_finished)
                .collect();
            if done(&held) {
                return;
            }
            assert!(Instant::now() < deadline, "held handlers: {held:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn finished_connection_handlers_are_reaped_as_new_ones_arrive() {
        let graph = Arc::new(xbfs_graph::generators::erdos_renyi(64, 256, 1));
        let factory = Arc::new(Device::mi250x);
        let rec = Arc::new(Recorder::disabled());
        let handle = Server::start(
            ServeConfig::default(),
            graph,
            Default::default(),
            factory,
            rec,
        )
        .unwrap();
        for _ in 0..100 {
            let mut s = TcpStream::connect(handle.addr()).unwrap();
            s.write_all(b"{\"op\":\"ping\",\"id\":1}\n").unwrap();
            BufReader::new(&s).read_line(&mut String::new()).unwrap();
        }
        wait_for_held(&handle, |held| held.iter().all(|&finished| finished));
        // The next connection makes the accept loop reap every finished
        // handler. Held afterwards: the live one, plus at most the last
        // closed one if its exit raced that accept.
        let live = TcpStream::connect(handle.addr()).unwrap();
        wait_for_held(&handle, |held| {
            held.len() <= 2 && held.iter().filter(|&&finished| !finished).count() == 1
        });
        drop(live);
        handle.initiate_drain();
        let report = handle.join();
        assert_eq!(report.connections, 101);
        assert!(report.drain_clean, "{report:?}");
    }
}

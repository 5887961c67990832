//! Panic-isolated worker execution over either engine backend.
//!
//! Each worker thread owns one warm engine — a pooled single-device
//! [`Xbfs`] or, for `--cluster N` servers, a partitioned [`GcdCluster`]
//! spanning N modeled GCDs — and pops jobs off the admission queue until
//! it drains. Execution runs under [`xbfs_core::supervise`]: a panicking
//! engine, a run failing certification, or a cluster rank crash that
//! checkpoint/restart could not recover is **quarantined**: the engine
//! (and, for the single-device backend, its device) is discarded, a fresh
//! one is built, and the request is replayed with injection stripped. This
//! module keeps only the server's bookkeeping around that policy (gauges,
//! counters, flight dumps, breaker, events). Because a fresh
//! engine reproduces the exact result of a single-shot run, a replayed
//! response carries the same digest as a fault-free execution — the e2e
//! tests assert this through the socket.
//!
//! The cluster backend partitions the graph **once** at engine build;
//! per-request runs reuse the partitioning (and the engine's level
//! scratch) and only re-upload status arrays. An injected rank crash
//! (chaos `crash@L`, wire token `crash@<level>:rank<r>`) becomes a
//! [`FaultPlan`] for that one run: the rank dies mid-request and is
//! restored from the latest level-synchronous checkpoint *within the
//! request's remaining deadline budget* — recovery overhead counts
//! against it. Per-rank health (crashes, restores, retransmitted bytes)
//! is drained after every run into the per-rank registry series, so a
//! quarantined cluster loses no history.
//!
//! Deadline accounting: the request's wall budget is charged for queue
//! wait first; whatever remains is granted to the run as a modeled-time
//! budget (see DESIGN.md §10 for why the two clocks are fungible).

use std::sync::{mpsc, Arc};
use std::time::Instant;

use gcd_sim::Device;
use xbfs_core::{
    BitflipPlan, Fault, GaveUp, MsBfs, RunOpts, Sabotage, Supervisor, Xbfs, XbfsError,
    MAX_CONCURRENT,
};
use xbfs_graph::Csr;
use xbfs_multi_gcd::{ClusterConfig, ClusterError, FaultConfig, FaultPlan, GcdCluster, LinkModel};
use xbfs_telemetry::{names, AttrValue};

use crate::chaos::ChaosAction;
use crate::metrics::{WORKER_IDLE, WORKER_QUARANTINED, WORKER_RUNNING};
use crate::protocol::{self, BfsRequest};
use crate::server::Shared;

/// One admitted request in flight: the parsed request, when it was
/// admitted, and the channel that delivers the response line back to the
/// connection that owns it. The connection counts the clones of that
/// sender to know whether it still owes a response.
pub(crate) struct Job {
    pub(crate) req: BfsRequest,
    pub(crate) enqueued: Instant,
    pub(crate) resp: Arc<mpsc::Sender<String>>,
}

/// Engine generation, discarded and rebuilt as a unit on quarantine.
enum Engine<'g> {
    /// Warm pooled single-device engine (device + state together).
    Single(Box<Xbfs<Device>>),
    /// Warm pooled bit-parallel multi-source engine: one traversal
    /// serves up to [`MAX_CONCURRENT`] coalesced requests.
    Batch(Box<MsBfs<Device>>),
    /// Partitioned multi-GCD engine borrowing the server's graph.
    Cluster(Box<GcdCluster<'g>>),
}

fn build_engine<'g>(shared: &Shared, graph: &'g Csr) -> Result<Engine<'g>, String> {
    match shared.cfg.cluster {
        Some(n) => {
            let cfg = ClusterConfig {
                num_gcds: n,
                ..ClusterConfig::node_of_8()
            };
            GcdCluster::new(graph, cfg, LinkModel::frontier())
                .map(|c| Engine::Cluster(Box::new(c)))
                .map_err(|e| e.to_string())
        }
        None if shared.cfg.batch_width > 1 => MsBfs::new((shared.factory)(), graph)
            .map(|e| Engine::Batch(Box::new(e)))
            .map_err(|e| e.to_string()),
        None => Xbfs::new((shared.factory)(), graph, shared.xcfg)
            .map(|e| Engine::Single(Box::new(e)))
            .map_err(|e| e.to_string()),
    }
}

/// The worker thread body: pop until the queue drains, serve each job
/// with quarantine-and-replay, then park the final engine generation.
pub(crate) fn worker_loop(shared: Arc<Shared>, worker_idx: usize) {
    // The cluster engine borrows the graph; holding our own Arc clone
    // (declared before `sup`, so dropped after it) pins it.
    let graph = Arc::clone(&shared.graph);
    let mut sup: Supervisor<Engine<'_>> = Supervisor::default();
    let width = shared.cfg.batch_width.clamp(1, MAX_CONCURRENT);
    if width > 1 && shared.cfg.cluster.is_none() {
        let linger =
            std::time::Duration::from_secs_f64(shared.cfg.batch_window_ms.max(0.0) / 1000.0);
        while let Some(batch) = shared.queue.pop_batch(width, linger) {
            serve_batch(&shared, &graph, &mut sup, batch, worker_idx);
        }
    } else {
        while let Some((ticket, job)) = shared.queue.pop() {
            serve_one(&shared, &graph, &mut sup, ticket, job, worker_idx);
        }
    }
    // Normal teardown: the engine is healthy, let Drop park its buffers.
    drop(sup);
}

fn serve_one<'g>(
    shared: &Shared,
    graph: &'g Csr,
    sup: &mut Supervisor<Engine<'g>>,
    ticket: u64,
    job: Job,
    worker_idx: usize,
) {
    let id = job.req.id;
    let wait_ms = job.enqueued.elapsed().as_secs_f64() * 1000.0;
    let now = shared.now_us();
    let rec = &shared.rec;
    let span = rec.begin_span(None, names::span::REQUEST, worker_idx, now);
    rec.span_attr(span, "id", AttrValue::U64(id));
    rec.span_attr(span, "ticket", AttrValue::U64(ticket));
    rec.span_attr(span, "source", AttrValue::U64(u64::from(job.req.source)));
    rec.counter(names::metric::WAIT_MS, worker_idx, now, wait_ms);
    let m = &shared.metrics;
    if let Some(w) = m.workers.get(worker_idx) {
        w.state.set(WORKER_RUNNING);
    }
    m.queue_wait_ms.record(wait_ms);
    m.flight.note(
        worker_idx,
        "request.start",
        format!("id={id} source={} wait_ms={wait_ms:.1}", job.req.source),
    );

    let outcome = execute(shared, graph, sup, ticket, &job, wait_ms, worker_idx, 0);
    rec.span_attr(span, "status", AttrValue::Str(outcome.status.into()));
    rec.span_attr(
        span,
        "attempts",
        AttrValue::U64(u64::from(outcome.attempts)),
    );
    rec.end_span(span, shared.now_us());

    // The device's pool totals only move while this worker runs, so
    // sampling once per request keeps the series current without
    // touching the hot path inside the run.
    sample_engine(shared, worker_idx, sup.engine_mut());
    m.flight.note(
        worker_idx,
        "request.finish",
        format!(
            "id={id} status={} attempts={} total_ms={:.1}",
            outcome.status,
            outcome.attempts,
            job.enqueued.elapsed().as_secs_f64() * 1000.0
        ),
    );
    if let Some(w) = m.workers.get(worker_idx) {
        w.state.set(WORKER_IDLE);
    }
    let had_chaos = job.req.chaos.is_some();
    finish(shared, worker_idx, &job, had_chaos, outcome);
}

/// Epilogue of every terminal outcome: latency + headroom series,
/// idempotency cache, completion record, and delivery.
fn finish(shared: &Shared, worker: usize, job: &Job, had_chaos: bool, outcome: Outcome) {
    let Outcome { line, status, .. } = outcome;
    let total_ms = job.enqueued.elapsed().as_secs_f64() * 1000.0;
    shared.metrics.finish_request(worker, status, total_ms);
    if let Some(d) = job.req.deadline_ms.or(shared.cfg.default_deadline_ms) {
        shared
            .metrics
            .deadline_headroom_ms
            .record((d - total_ms).max(0.0));
    }
    // Completed requests become idempotent: a replay of this id is
    // answered from cache instead of re-executing. Chaos-carrying
    // requests are never cached (soaks must exercise the real path).
    let (id, source) = (job.req.id, job.req.source);
    let cacheable = status == "ok" && !had_chaos;
    if cacheable {
        shared.dedup.record(id, source, &line);
    }
    // The completion record lands before delivery: a crash after this
    // point replays the id from the warm cache, not by re-execution.
    shared.journal_done(id, source, status, &line, cacheable);
    // A connection that died holding an answer is the one "dropped" case
    // the smoke test asserts never happens under clean shutdown.
    if job.resp.send(line).is_err() {
        shared.metrics.undelivered.add(1);
    }
}

struct Outcome {
    line: String,
    status: &'static str,
    attempts: u32,
}

impl Outcome {
    fn new(status: &'static str, attempts: u32, line: String) -> Self {
        Self {
            line,
            status,
            attempts,
        }
    }
}

/// What one attempt decided: a terminal outcome for the client, or a
/// fault that quarantines the engine and replays.
type Attempted = Result<Outcome, Fault>;

/// Everything one attempt needs, bundled so the per-backend runners stay
/// readable.
struct Attempt<'a> {
    shared: &'a Shared,
    job: &'a Job,
    grant: &'a Grant,
    act: ChaosAction,
    ticket: u64,
    wait_ms: f64,
    attempt: u32,
}

/// What a request is granted by the checks it passes before an engine
/// sees it: the run's modeled-time budget, the chaos it may inject, and
/// whether to certify.
struct Grant {
    run_budget_ms: Option<f64>,
    chaos: ChaosAction,
    verify: bool,
}

/// The checks shared by the solo and batch paths, or the typed refusal.
fn grant(shared: &Shared, req: &BfsRequest, wait_ms: f64) -> Result<Grant, Outcome> {
    let usage = |why: &str| Outcome::new("error", 0, protocol::error_line(req.id, "usage", why));
    // Wall budget: queue wait spends it first. What is left is granted
    // to the run as a modeled-time budget (see DESIGN.md §10 for why the
    // two clocks are fungible here).
    let run_budget_ms = match req.deadline_ms.or(shared.cfg.default_deadline_ms) {
        Some(d) if wait_ms >= d => {
            let line = protocol::timeout_line(req.id, "queue", wait_ms, d);
            return Err(Outcome::new("timeout", 0, line));
        }
        Some(d) => Some(d - wait_ms),
        None => None,
    };
    // Chaos is honored only when the server opted in; a production
    // server counts and ignores stamped chaos instead of executing it.
    let chaos = match &req.chaos {
        Some(tok) if shared.cfg.allow_chaos => {
            ChaosAction::from_token(tok).map_err(|e| usage(&e))?
        }
        Some(_) => {
            shared.metrics.chaos_ignored.add(1);
            ChaosAction::None
        }
        None => ChaosAction::None,
    };
    // Backend-specific injections: rank crashes need a partitioned
    // cluster to kill a rank of; bitflips target the single-device pool.
    let mismatch = match (chaos, shared.cfg.cluster) {
        (ChaosAction::Crash { .. }, None) => Some("crash chaos requires a --cluster server"),
        (ChaosAction::Bitflip, Some(_)) => Some("bitflip chaos requires a single-device server"),
        (ChaosAction::Bitflip, None) if shared.cfg.batch_width > 1 => {
            Some("bitflip chaos requires a batch-width 1 server")
        }
        _ => None,
    };
    if let Some(why) = mismatch {
        return Err(usage(why));
    }
    // Undetected bit flips would silently corrupt the response; chaos
    // flips therefore imply certification so they are caught + replayed.
    let verify = req.verify.unwrap_or(shared.cfg.verify) || chaos == ChaosAction::Bitflip;
    Ok(Grant {
        run_budget_ms,
        chaos,
        verify,
    })
}

/// Serve one request as one supervised run. `first` pre-charges attempts
/// already spent elsewhere (a failed batch attempt counts as one), so
/// replayed batch members report honest attempt counts and burn their
/// retry budget accordingly.
#[allow(clippy::too_many_arguments)]
fn execute<'g>(
    shared: &Shared,
    graph: &'g Csr,
    sup: &mut Supervisor<Engine<'g>>,
    ticket: u64,
    job: &Job,
    wait_ms: f64,
    worker: usize,
    first: u32,
) -> Outcome {
    let id = job.req.id;
    let grant = match grant(shared, &job.req, wait_ms) {
        Ok(g) => g,
        Err(refused) => return refused,
    };
    let flip_plan = (grant.chaos == ChaosAction::Bitflip)
        .then(|| BitflipPlan::parse("status:1").expect("static chaos bitflip spec parses"));

    let attempt = |engine: &mut Engine<'g>, attempt: u32| {
        // Injection targets attempt 0 only, so a replay after quarantine
        // runs clean and reproduces the fault-free result bit for bit.
        let act = if attempt == 0 {
            grant.chaos
        } else {
            ChaosAction::None
        };
        if let ChaosAction::Slow(ms) = act {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        let ctx = Attempt {
            shared,
            job,
            grant: &grant,
            act,
            ticket,
            wait_ms,
            attempt,
        };
        match engine {
            Engine::Single(eng) => ctx.run_single(eng, flip_plan.as_ref()),
            Engine::Batch(eng) => ctx.run_batch_solo(eng),
            Engine::Cluster(cluster) => ctx.run_cluster(cluster, graph),
        }
    };
    let on_fault = |e: &mut Engine<'g>, f: &Fault, _| quarantine(shared, e, f, ticket, worker);
    let build = || build_engine(shared, graph);
    match sup.run(
        first..shared.cfg.max_retries.saturating_add(1),
        build,
        attempt,
        on_fault,
    ) {
        Ok(outcome) => outcome,
        Err(GaveUp::Build(err)) => {
            shared.breaker.record_failure();
            Outcome::new("error", first + 1, protocol::error_line(id, "engine", &err))
        }
        Err(GaveUp::Exhausted { fault, attempts }) => give_up(shared, id, attempts, &fault, worker),
    }
}

impl Attempt<'_> {
    /// Fire an injected panic on this attempt (the supervisor contains
    /// it).
    fn chaos_panic(&self) {
        if self.act == ChaosAction::Panic {
            panic!("chaos: injected worker panic (ticket {})", self.ticket);
        }
    }

    /// One attempt on the warm pooled single-device engine.
    fn run_single(&self, eng: &Xbfs<Device>, flip_plan: Option<&BitflipPlan>) -> Attempted {
        self.chaos_panic();
        let salt = self.ticket;
        let sab = (self.act == ChaosAction::Bitflip)
            .then(|| flip_plan.map(|plan| Sabotage { plan, salt }))
            .flatten();
        let opts = RunOpts {
            sabotage: sab.as_ref(),
            deadline_ms: self.grant.run_budget_ms,
            certify: self.grant.verify,
            ..RunOpts::default()
        };
        let (run, cert) = match eng.run_governed(self.job.req.source, &opts) {
            Ok(done) => done,
            Err(e) => return self.settle(e),
        };
        let (id, attempts, certified) = (self.job.req.id, self.attempt + 1, cert.is_some());
        let line = protocol::ok_line(id, &run, certified, self.wait_ms, attempts);
        Ok(self.ok(line))
    }

    /// One attempt on the bit-parallel multi-source engine, run 1-wide:
    /// the solo fallback of a batch-width server (lone members, and the
    /// replay path after a batch quarantine or deadline split). Responses
    /// carry the slot's levels-only digest, so every `ok` a batch-width
    /// server emits — coalesced or solo — is digest-comparable.
    fn run_batch_solo(&self, eng: &MsBfs<Device>) -> Attempted {
        self.chaos_panic();
        let (source, g) = ([self.job.req.source], self.grant);
        let (run, certs) = match eng.run_governed(&source, g.run_budget_ms, g.verify) {
            Ok(done) => done,
            Err(e) => return self.settle(e),
        };
        let (id, attempts, certified) = (self.job.req.id, self.attempt + 1, certs.is_some());
        let line = protocol::batched_ok_line(id, &run, 0, certified, self.wait_ms, attempts, 1);
        Ok(self.ok(line))
    }

    /// Map a single-device engine error to a terminal outcome, or to a
    /// fault that quarantines the engine.
    fn settle(&self, e: XbfsError) -> Attempted {
        match e {
            XbfsError::DeadlineExceeded {
                elapsed_us,
                deadline_us,
                ..
            } => Ok(self.timeout(elapsed_us, deadline_us)),
            XbfsError::Integrity(e) => Err(e.into()),
            // Client-input errors (bad source, …): typed, no retry, and
            // no breaker penalty — the substrate is fine.
            other => Ok(self.error("invalid", &other.to_string())),
        }
    }

    /// A successful attempt heals the breaker; success after a
    /// quarantine counts as a replay.
    fn ok(&self, line: String) -> Outcome {
        self.shared.breaker.record_success();
        if self.attempt > 0 {
            self.shared.metrics.replayed.add(1);
        }
        Outcome::new("ok", self.attempt + 1, line)
    }

    /// A typed terminal error for this attempt.
    fn error(&self, kind: &str, msg: &str) -> Outcome {
        let line = protocol::error_line(self.job.req.id, kind, msg);
        Outcome::new("error", self.attempt + 1, line)
    }

    /// One attempt on the partitioned cluster engine. A `Crash` action
    /// becomes a one-run [`FaultPlan`]; the engine recovers it from the
    /// latest checkpoint within the remaining deadline budget.
    fn run_cluster(&self, cluster: &mut GcdCluster<'_>, graph: &Csr) -> Attempted {
        let shared = self.shared;
        let ticket = self.ticket;
        let fault_cfg = match self.act {
            ChaosAction::Crash { level, rank } => {
                match FaultPlan::parse(&format!("crash@{level}:rank{rank}")) {
                    Ok(plan) => FaultConfig {
                        plan,
                        checkpoint_every: shared.cfg.checkpoint_every,
                        ..FaultConfig::default()
                    },
                    Err(e) => return Ok(self.error("usage", &e.to_string())),
                }
            }
            _ => FaultConfig {
                checkpoint_every: shared.cfg.checkpoint_every,
                ..FaultConfig::default()
            },
        };
        self.chaos_panic();
        let result = cluster.run_governed(
            self.job.req.source,
            &fault_cfg,
            &xbfs_telemetry::Recorder::disabled(),
            self.grant.run_budget_ms,
        );
        match result {
            Ok(run) => {
                // The cluster engine has no certificate machinery; its
                // certification is a host-side validation of the level
                // array against the graph. A failure is treated exactly
                // like a single-device integrity fault: quarantine the
                // engine and replay clean.
                if self.grant.verify {
                    if let Err(e) =
                        xbfs_graph::validate_bfs_levels(graph, self.job.req.source, &run.levels)
                    {
                        let msg = format!("cluster result failed validation: {e:?}");
                        return Err(Fault::new("integrity", msg));
                    }
                }
                // Per-level modeled-time split: how much of this run went
                // to expanding frontiers vs exchanging them across links.
                let (mut expand_us, mut exchange_us) = (0.0f64, 0.0f64);
                for ls in &run.level_stats {
                    expand_us += ls.expand_ms * 1000.0;
                    exchange_us += ls.exchange_ms * 1000.0;
                }
                shared.metrics.cluster_expand_us.add(expand_us as u64);
                shared.metrics.cluster_exchange_us.add(exchange_us as u64);
                let recoveries = run.recoveries.len() as u64;
                if recoveries > 0 {
                    shared.rec.event(
                        None,
                        names::event::RANK_RECOVERED,
                        0,
                        shared.now_us(),
                        vec![
                            ("ticket".into(), AttrValue::U64(ticket)),
                            ("recoveries".into(), AttrValue::U64(recoveries)),
                        ],
                    );
                }
                Ok(self.ok(protocol::cluster_ok_line(
                    self.job.req.id,
                    &run,
                    self.grant.verify,
                    self.wait_ms,
                    self.attempt + 1,
                    recoveries,
                )))
            }
            Err(ClusterError::DeadlineExceeded {
                elapsed_us,
                deadline_us,
                ..
            }) => Ok(self.timeout(elapsed_us, deadline_us)),
            // Checkpoint/restart could not save this run — the whole
            // cluster engine is suspect. Quarantine it and replay the
            // victim request on a rebuilt cluster.
            Err(e @ (ClusterError::Unrecoverable { .. } | ClusterError::LinkFailed { .. })) => {
                Err(Fault::new("unrecoverable", e.to_string()))
            }
            Err(other) => Ok(self.error("invalid", &other.to_string())),
        }
    }

    /// Typed mid-run timeout: never a breaker penalty.
    fn timeout(&self, elapsed_us: u64, deadline_us: u64) -> Outcome {
        let (elapsed_ms, deadline_ms) = (elapsed_us as f64 / 1000.0, deadline_us as f64 / 1000.0);
        let (id, wait_ms) = (self.job.req.id, self.wait_ms);
        let line = protocol::timeout_line(id, "run", wait_ms + elapsed_ms, wait_ms + deadline_ms);
        Outcome::new("timeout", self.attempt + 1, line)
    }
}

/// Count + record a contained panic. Dumps the flight recorder: a panic
/// is exactly the moment the recent per-worker event rings earn their
/// keep.
fn record_panic(shared: &Shared, worker: usize, ticket: u64, msg: &str) {
    if let Some(w) = shared.metrics.workers.get(worker) {
        w.panics.add(1);
    }
    shared
        .metrics
        .flight
        .note(worker, "panic", format!("ticket={ticket} {msg}"));
    shared.metrics.dump_flight("worker-panic");
    shared.rec.event(
        None,
        names::event::PANIC_RECOVERED,
        0,
        shared.now_us(),
        vec![
            ("ticket".into(), AttrValue::U64(ticket)),
            ("message".into(), AttrValue::Str(msg.into())),
        ],
    );
}

/// The server's record of a fault, made while the supervisor still holds
/// the doomed engine: per-rank health of a cluster attempt (panicked ones
/// included) reaches the per-rank series before the engine is discarded.
fn quarantine(shared: &Shared, engine: &mut Engine<'_>, fault: &Fault, ticket: u64, worker: usize) {
    if let Engine::Cluster(cluster) = engine {
        shared.metrics.merge_rank_health(&cluster.take_health());
    }
    if fault.kind == "panic" {
        record_panic(shared, worker, ticket, &fault.msg);
    }
    let why = fault.kind;
    let m = &shared.metrics;
    if let Some(w) = m.workers.get(worker) {
        w.state.set(WORKER_QUARANTINED);
        w.rebuilds.add(1);
    }
    m.flight
        .note(worker, "quarantine", format!("ticket={ticket} why={why}"));
    m.dump_flight(&format!("quarantine-{why}"));
    if let Some(w) = m.workers.get(worker) {
        w.state.set(WORKER_RUNNING); // rebuilding + replaying next
    }
    shared.rec.event(
        None,
        names::event::QUARANTINED,
        0,
        shared.now_us(),
        vec![
            ("ticket".into(), AttrValue::U64(ticket)),
            ("why".into(), AttrValue::Str(why.into())),
        ],
    );
}

fn give_up(shared: &Shared, id: u64, attempts: u32, fault: &Fault, worker: usize) -> Outcome {
    let kind = fault.kind;
    if shared.breaker.record_failure() {
        shared.metrics.flight.note(
            worker,
            "breaker.trip",
            format!("id={id} kind={kind} after {attempts} attempts"),
        );
        shared.metrics.dump_flight("breaker-open");
        shared.rec.event(
            None,
            names::event::BREAKER_TRIP,
            0,
            shared.now_us(),
            vec![("kind".into(), AttrValue::Str(kind.into()))],
        );
    }
    let why = format!("uncorrected after {attempts} attempts: {}", fault.msg);
    Outcome::new("error", attempts, protocol::error_line(id, kind, &why))
}

/// Sample whichever warm engine this worker holds: the single-device
/// pool gauges, or the cluster's per-rank health since the last drain.
fn sample_engine(shared: &Shared, worker: usize, engine: Option<&mut Engine<'_>>) {
    match engine {
        Some(Engine::Single(e)) => shared.metrics.sample_pool(worker, e.device().pool_gauges()),
        Some(Engine::Batch(e)) => shared.metrics.sample_pool(worker, e.device().pool_gauges()),
        Some(Engine::Cluster(c)) => shared.metrics.merge_rank_health(&c.take_health()),
        None => {}
    }
}

/// One triaged batch member: an admitted job plus everything the batch
/// attempt needs to demultiplex it again (its slot, its own remaining
/// budget, its effective verify, the chaos it carried).
struct Member {
    ticket: u64,
    job: Job,
    wait_ms: f64,
    grant: Grant,
    had_chaos: bool,
    slot: usize,
}

/// Shed, reject, or admit one popped job into the batch. Members are
/// always triaged (and answered) individually — a blown budget or a bad
/// source never takes the batch down with it.
fn triage(shared: &Shared, ticket: u64, job: Job, worker: usize) -> Option<Member> {
    let wait_ms = job.enqueued.elapsed().as_secs_f64() * 1000.0;
    shared.metrics.queue_wait_ms.record(wait_ms);
    shared
        .rec
        .counter(names::metric::WAIT_MS, worker, shared.now_us(), wait_ms);
    // Validate the source up front: `run_governed` rejects a whole batch
    // for one bad member, and that member's error is not its neighbors'.
    let n = shared.graph.num_vertices();
    let checked = grant(shared, &job.req, wait_ms).and_then(|grant| {
        if (job.req.source as usize) < n {
            return Ok(grant);
        }
        let source = job.req.source;
        let msg = XbfsError::SourceOutOfRange {
            source,
            num_vertices: n,
        };
        let line = protocol::error_line(job.req.id, "invalid", &msg.to_string());
        Err(Outcome::new("error", 0, line))
    });
    match checked {
        Ok(grant) => Some(Member {
            ticket,
            had_chaos: job.req.chaos.is_some(),
            job,
            wait_ms,
            grant,
            slot: 0,
        }),
        // Triage rejections are terminal too — without a completion
        // record a restart would re-enqueue (and re-reject) them forever.
        Err(refused) => {
            finish(shared, worker, &job, false, refused);
            None
        }
    }
}

/// Re-run one batch member solo (1-wide) on the — possibly just
/// rebuilt — batch engine, under its own remaining budget and the full
/// quarantine-and-replay machinery. The failed batch attempt is
/// pre-charged as attempt 1, so responses report honest attempt counts.
fn replay_member<'g>(
    shared: &Shared,
    graph: &'g Csr,
    sup: &mut Supervisor<Engine<'g>>,
    mut mb: Member,
    worker: usize,
) {
    // Injection fired (or was stripped) on the batch attempt already.
    mb.job.req.chaos = None;
    let wait_ms = mb.job.enqueued.elapsed().as_secs_f64() * 1000.0;
    let outcome = execute(shared, graph, sup, mb.ticket, &mb.job, wait_ms, worker, 1);
    finish(shared, worker, &mb.job, mb.had_chaos, outcome);
}

/// Serve one coalesced batch: triage members individually, dedup
/// duplicate sources into shared slots, run one bit-parallel traversal
/// under the tightest member budget, and demultiplex per-slot results
/// back to every member. A deadline blow splits the batch (healthy
/// engine, solo re-runs under each member's own budget); a panic or
/// integrity fault quarantines the engine and replays members solo on a
/// rebuilt one — so batching never weakens any robustness guarantee.
fn serve_batch<'g>(
    shared: &Shared,
    graph: &'g Csr,
    sup: &mut Supervisor<Engine<'g>>,
    batch: Vec<(u64, Job)>,
    worker: usize,
) {
    let m = &shared.metrics;
    let width = shared.cfg.batch_width.clamp(1, MAX_CONCURRENT);
    let size = batch.len();
    m.batches_total.add(1);
    m.batch_size.record(size as f64);
    m.max_batch_size.set_max(size as f64);
    m.batch_occupancy_pct
        .set(size as f64 * 100.0 / width as f64);
    if let Some((_, youngest)) = batch.last() {
        // ~0 when the youngest arrival filled the batch; up to the
        // linger window (plus queue wait) for a lone request that
        // outwaited the clock.
        m.linger_wait_ms
            .record(youngest.enqueued.elapsed().as_secs_f64() * 1000.0);
    }
    if let Some(w) = m.workers.get(worker) {
        w.state.set(WORKER_RUNNING);
    }
    let first_ticket = batch.first().map(|&(t, _)| t).unwrap_or(0);
    m.flight.note(
        worker,
        "batch.start",
        format!("size={size} ticket0={first_ticket}"),
    );

    let mut members: Vec<Member> = batch
        .into_iter()
        .filter_map(|(t, j)| triage(shared, t, j, worker))
        .collect();
    if !members.is_empty() {
        // Duplicate sources share one slot: answered once, demuxed many.
        let mut sources: Vec<u32> = Vec::new();
        for mb in &mut members {
            mb.slot = sources
                .iter()
                .position(|&s| s == mb.job.req.source)
                .unwrap_or_else(|| {
                    sources.push(mb.job.req.source);
                    sources.len() - 1
                });
        }
        // The batch runs under the *tightest* member's remaining budget;
        // a blown batch is split below, so a generous member is never
        // timed out by a stingy neighbor.
        let budget = members
            .iter()
            .filter_map(|mb| mb.grant.run_budget_ms)
            .fold(None, |acc: Option<f64>, b| {
                Some(acc.map_or(b, |a: f64| a.min(b)))
            });
        let verify = members.iter().any(|mb| mb.grant.verify);
        let panic_injected = members
            .iter()
            .any(|mb| mb.grant.chaos == ChaosAction::Panic);
        let slowest = members.iter().filter_map(|mb| match mb.grant.chaos {
            ChaosAction::Slow(ms) => Some(ms),
            _ => None,
        });
        if let Some(ms) = slowest.max() {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        let attempt = |engine: &mut Engine<'g>, _| {
            let Engine::Batch(eng) = engine else {
                unreachable!("batch workers always build the batch engine")
            };
            if panic_injected {
                panic!("chaos: injected worker panic (batch ticket0 {first_ticket})");
            }
            match eng.run_governed(&sources, budget, verify) {
                Ok(done) => Ok(Some(done)),
                // The tightest budget bound everyone; the engine is
                // healthy. Split: re-run each member solo under its own
                // budget, so nobody times out *because* of coalescing.
                Err(XbfsError::DeadlineExceeded { .. }) => {
                    let why = format!("size={} why=deadline", members.len());
                    m.flight.note(worker, "batch.split", why);
                    Ok(None)
                }
                Err(XbfsError::Integrity(e)) => {
                    m.flight.note(worker, "batch.integrity", format!("{e}"));
                    Err(e.into())
                }
                // Sources were validated at triage, so no member input
                // explains this; treat the engine as poisoned.
                Err(other) => {
                    m.flight.note(worker, "batch.error", format!("{other}"));
                    Err(Fault::new("engine-error", other.to_string()))
                }
            }
        };
        let on_fault =
            |e: &mut Engine<'g>, f: &Fault, _| quarantine(shared, e, f, first_ticket, worker);
        // One batch attempt; a split or a quarantine replays every member
        // solo from attempt 1.
        match sup.run(0..1, || build_engine(shared, graph), attempt, on_fault) {
            Ok(Some((run, certs))) => {
                shared.breaker.record_success();
                let served = members.len();
                for mb in members {
                    let certified = certs.is_some() && mb.grant.verify;
                    let line = protocol::batched_ok_line(
                        mb.job.req.id,
                        &run,
                        mb.slot,
                        certified,
                        mb.wait_ms,
                        1,
                        served,
                    );
                    let done = Outcome::new("ok", 1, line);
                    finish(shared, worker, &mb.job, mb.had_chaos, done);
                }
            }
            Ok(None) | Err(GaveUp::Exhausted { .. }) => {
                for mb in members {
                    replay_member(shared, graph, sup, mb, worker);
                }
            }
            Err(GaveUp::Build(err)) => {
                shared.breaker.record_failure();
                for mb in members {
                    let line = protocol::error_line(mb.job.req.id, "engine", &err);
                    let failed = Outcome::new("error", 1, line);
                    finish(shared, worker, &mb.job, mb.had_chaos, failed);
                }
            }
        }
    }
    sample_engine(shared, worker, sup.engine_mut());
    m.flight
        .note(worker, "batch.finish", format!("ticket0={first_ticket}"));
    if let Some(w) = m.workers.get(worker) {
        w.state.set(WORKER_IDLE);
    }
}

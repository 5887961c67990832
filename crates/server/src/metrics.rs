//! The server's live metrics plane: every stage of the serving path
//! reports into one always-on [`MetricsRegistry`], and a fixed-memory
//! [`FlightRecorder`] remembers what each worker was doing so failures
//! can be dumped post-mortem.
//!
//! All handles are pre-registered at server start, so the hot path
//! never touches the registry lock — an update is the one relaxed
//! atomic the telemetry crate promises. Each serving fact is counted
//! once: here, or — for admissions, sheds, breaker and journal totals —
//! by the component that owns it, mirrored into the registry at scrape
//! time ([`Mirror`]). The `stats` wire op and the drain-time
//! [`crate::ServeReport`] are both read back from one registry snapshot
//! plus those owners' totals, so a mid-load scrape reconciles with the
//! final report by construction.
//!
//! Per-rank cluster series and the flight-dump ledger are the two
//! exceptions to "pre-registered": ranks appear when the first cluster
//! run's health is merged (registration is get-or-create, off the
//! request path), and dumps are rare by definition.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gcd_sim::PoolGauges;
use xbfs_multi_gcd::RankHealth;
use xbfs_telemetry::{
    names::live, Counter, FlightRecorder, Gauge, LogHistogram, MetricUnit, MetricsRegistry,
    MetricsSnapshot,
};

/// Worker state gauge codes.
pub(crate) const WORKER_IDLE: f64 = 0.0;
/// Worker is executing a request.
pub(crate) const WORKER_RUNNING: f64 = 1.0;
/// Worker just quarantined its engine and is rebuilding.
pub(crate) const WORKER_QUARANTINED: f64 = 2.0;

/// Most flight dumps kept on disk per server life; beyond this, dump
/// requests stop writing files (a crash loop must not fill the disk).
const MAX_FLIGHT_DUMPS: usize = 32;

/// Request statuses, in the order the per-status handle arrays use.
const STATUSES: [&str; 3] = ["ok", "timeout", "error"];

/// Index into the per-status handle arrays.
pub(crate) fn status_idx(status: &str) -> usize {
    STATUSES.iter().position(|&s| s == status).unwrap_or(2)
}

/// Handles for one worker's series.
pub(crate) struct WorkerMetrics {
    pub(crate) state: Arc<Gauge>,
    pub(crate) requests: Arc<Counter>,
    pub(crate) rebuilds: Arc<Counter>,
    pub(crate) panics: Arc<Counter>,
    pool_hits: Arc<Counter>,
    pool_misses: Arc<Counter>,
    pool_bytes: Arc<Gauge>,
    pool_pressure: Arc<Counter>,
    /// Last pool sample, for delta accounting (counters stay monotone).
    last_pool: Mutex<PoolGauges>,
}

/// Handles for one cluster rank's series (registered on first sight).
struct RankMetrics {
    crashes: Arc<Counter>,
    restores: Arc<Counter>,
    retransmitted: Arc<Counter>,
}

/// Everything the serving path records into, plus the flight recorder
/// and its dump ledger.
pub struct ServerMetrics {
    pub(crate) registry: MetricsRegistry,
    pub(crate) flight: FlightRecorder,
    flight_dir: PathBuf,
    dumps: Mutex<Vec<String>>,

    // Admission / connection stage.
    pub(crate) requests: [Arc<Counter>; 3],
    pub(crate) latency_ms: [Arc<LogHistogram>; 3],
    pub(crate) admitted: Mirror,
    pub(crate) shed_queue: Mirror,
    pub(crate) shed_breaker: Mirror,
    pub(crate) rejected_draining: Arc<Counter>,
    pub(crate) deduped: Arc<Counter>,
    pub(crate) bad_lines: Arc<Counter>,
    pub(crate) long_lines: Arc<Counter>,
    pub(crate) idle_disconnects: Arc<Counter>,
    pub(crate) connections: Arc<Counter>,
    pub(crate) dropped_connections: Arc<Counter>,
    pub(crate) undelivered: Arc<Counter>,
    pub(crate) replayed: Arc<Counter>,
    pub(crate) chaos_ignored: Arc<Counter>,
    pub(crate) queue_depth: Arc<Gauge>,
    pub(crate) retry_after_ms: Arc<Gauge>,
    pub(crate) queue_wait_ms: Arc<LogHistogram>,
    pub(crate) deadline_headroom_ms: Arc<LogHistogram>,

    // Batching stage (all zero / empty unless `--batch-width > 1`).
    pub(crate) batches_total: Arc<Counter>,
    pub(crate) batch_size: Arc<LogHistogram>,
    pub(crate) max_batch_size: Arc<Gauge>,
    pub(crate) batch_occupancy_pct: Arc<Gauge>,
    pub(crate) linger_wait_ms: Arc<LogHistogram>,

    // Breaker.
    pub(crate) breaker_state: Arc<Gauge>,
    pub(crate) breaker_transitions: Mirror,
    pub(crate) breaker_trips: Mirror,
    pub(crate) flight_dumps_total: Arc<Counter>,

    // Durability (all zero unless `--journal` is set). The journal owns
    // the authoritative totals, so the append hot path touches only the
    // journal's own relaxed atomics.
    pub(crate) journal_appends: Mirror,
    pub(crate) journal_fsyncs: Mirror,
    pub(crate) journal_bytes: Mirror,
    pub(crate) replayed_requests: Arc<Counter>,
    pub(crate) recovery_ms: Arc<Gauge>,

    // Per-worker.
    pub(crate) workers: Vec<WorkerMetrics>,

    // Cluster.
    pub(crate) cluster_expand_us: Arc<Counter>,
    pub(crate) cluster_exchange_us: Arc<Counter>,
    ranks: Mutex<Vec<RankMetrics>>,
}

impl ServerMetrics {
    /// Pre-register every fixed series for a `workers`-wide server.
    /// Flight dumps land in `flight_dir`; each lane remembers
    /// `flight_ring` events.
    pub fn new(workers: usize, flight_dir: PathBuf, flight_ring: usize) -> Self {
        use MetricUnit::{Bytes, Count, Micros, Millis, State};
        let reg = MetricsRegistry::new();
        let requests = STATUSES.map(|s| reg.counter(live::REQUESTS_TOTAL, Count, &[("status", s)]));
        let latency_ms =
            STATUSES.map(|s| reg.histogram(live::REQUEST_LATENCY_MS, Millis, &[("status", s)]));
        let worker_handles = (0..workers)
            .map(|i| {
                let w = i.to_string();
                let l: &[(&str, &str)] = &[("worker", w.as_str())];
                WorkerMetrics {
                    state: reg.gauge(live::WORKER_STATE, State, l),
                    requests: reg.counter(live::WORKER_REQUESTS_TOTAL, Count, l),
                    rebuilds: reg.counter(live::WORKER_REBUILDS_TOTAL, Count, l),
                    panics: reg.counter(live::WORKER_PANICS_TOTAL, Count, l),
                    pool_hits: reg.counter(live::POOL_HITS_TOTAL, Count, l),
                    pool_misses: reg.counter(live::POOL_MISSES_TOTAL, Count, l),
                    pool_bytes: reg.gauge(live::POOL_BYTES, Bytes, l),
                    pool_pressure: reg.counter(live::POOL_PRESSURE_TOTAL, Count, l),
                    last_pool: Mutex::new(PoolGauges::default()),
                }
            })
            .collect();
        let count = |name| reg.counter(name, Count, &[]);
        let gauge = |name, unit| reg.gauge(name, unit, &[]);
        let millis = |name| reg.histogram(name, Millis, &[]);
        let micros = |name| reg.counter(name, Micros, &[]);
        let shed =
            |reason| Mirror::new(reg.counter(live::SHED_TOTAL, Count, &[("reason", reason)]));
        let mirror = |name| Mirror::new(count(name));
        Self {
            flight: FlightRecorder::new(workers, flight_ring.max(8)),
            flight_dir,
            dumps: Mutex::new(Vec::new()),
            requests,
            latency_ms,
            admitted: mirror(live::ADMITTED_TOTAL),
            shed_queue: shed("queue"),
            shed_breaker: shed("breaker"),
            rejected_draining: count(live::REJECTED_DRAINING_TOTAL),
            deduped: count(live::DEDUPED_TOTAL),
            bad_lines: count(live::BAD_LINES_TOTAL),
            long_lines: count(live::LONG_LINES_TOTAL),
            idle_disconnects: count(live::IDLE_DISCONNECTS_TOTAL),
            connections: count(live::CONNECTIONS_TOTAL),
            dropped_connections: count(live::DROPPED_CONNECTIONS_TOTAL),
            undelivered: count(live::UNDELIVERED_TOTAL),
            replayed: count(live::REPLAYED_TOTAL),
            chaos_ignored: count(live::CHAOS_IGNORED_TOTAL),
            queue_depth: gauge(live::QUEUE_DEPTH, Count),
            retry_after_ms: gauge(live::RETRY_AFTER_MS, Millis),
            queue_wait_ms: millis(live::QUEUE_WAIT_MS),
            deadline_headroom_ms: millis(live::DEADLINE_HEADROOM_MS),
            batches_total: count(live::BATCHES_TOTAL),
            batch_size: reg.histogram(live::BATCH_SIZE, Count, &[]),
            max_batch_size: gauge(live::MAX_BATCH_SIZE, Count),
            batch_occupancy_pct: gauge(live::BATCH_OCCUPANCY_PCT, Count),
            linger_wait_ms: millis(live::LINGER_WAIT_MS),
            breaker_state: gauge(live::BREAKER_STATE, State),
            breaker_transitions: mirror(live::BREAKER_TRANSITIONS_TOTAL),
            breaker_trips: mirror(live::BREAKER_TRIPS_TOTAL),
            flight_dumps_total: count(live::FLIGHT_DUMPS_TOTAL),
            journal_appends: mirror(live::JOURNAL_APPENDS_TOTAL),
            journal_fsyncs: mirror(live::JOURNAL_FSYNCS_TOTAL),
            journal_bytes: Mirror::new(reg.counter(live::JOURNAL_BYTES_TOTAL, Bytes, &[])),
            replayed_requests: count(live::REPLAYED_REQUESTS_TOTAL),
            recovery_ms: gauge(live::RECOVERY_MS, Millis),
            workers: worker_handles,
            cluster_expand_us: micros(live::CLUSTER_EXPAND_US_TOTAL),
            cluster_exchange_us: micros(live::CLUSTER_EXCHANGE_US_TOTAL),
            ranks: Mutex::new(Vec::new()),
            registry: reg,
        }
    }

    /// Record one finished request (status + end-to-end latency).
    pub(crate) fn finish_request(&self, worker: usize, status: &str, latency_ms: f64) {
        let i = status_idx(status);
        self.requests[i].add(1);
        self.latency_ms[i].record(latency_ms);
        if let Some(w) = self.workers.get(worker) {
            w.requests.add(1);
        }
    }

    /// Fold one cluster run's per-rank deltas into the rank series
    /// (ranks are registered the first time they are seen).
    pub(crate) fn merge_rank_health(&self, health: &[RankHealth]) {
        let mut ranks = self.ranks.lock().unwrap_or_else(|e| e.into_inner());
        while ranks.len() < health.len() {
            let r = ranks.len().to_string();
            let l: &[(&str, &str)] = &[("rank", r.as_str())];
            ranks.push(RankMetrics {
                crashes: self
                    .registry
                    .counter(live::RANK_CRASHES_TOTAL, MetricUnit::Count, l),
                restores: self
                    .registry
                    .counter(live::RANK_RESTORES_TOTAL, MetricUnit::Count, l),
                retransmitted: self.registry.counter(
                    live::RANK_RETRANSMITTED_BYTES_TOTAL,
                    MetricUnit::Bytes,
                    l,
                ),
            });
        }
        for (rm, h) in ranks.iter().zip(health) {
            rm.crashes.add(h.crashes);
            rm.restores.add(h.checkpoints_restored);
            rm.retransmitted.add(h.retransmitted_bytes);
        }
    }

    /// Sample a worker device's pool and fold the deltas in (counters
    /// stay monotone across engine rebuilds: a fresh device restarts
    /// its own totals from zero, which the delta logic treats as a
    /// reset, not a regression).
    pub(crate) fn sample_pool(&self, worker: usize, g: PoolGauges) {
        let Some(w) = self.workers.get(worker) else {
            return;
        };
        let mut last = w.last_pool.lock().unwrap_or_else(|e| e.into_inner());
        let d = |now: u64, then: u64| now.saturating_sub(then);
        if g.hits < last.hits || g.misses < last.misses {
            // Engine rebuilt on a fresh device: whole sample is new.
            *last = PoolGauges::default();
        }
        w.pool_hits.add(d(g.hits, last.hits));
        w.pool_misses.add(d(g.misses, last.misses));
        w.pool_pressure
            .add(d(g.pressure_events, last.pressure_events));
        w.pool_bytes.set(g.parked_bytes as f64);
        *last = g;
    }

    /// Dump the flight recorder to a timestamped file. Returns the path
    /// (already pushed onto the ledger) unless the dump cap was hit or
    /// the write failed — dumps are forensics, never a failure source.
    pub(crate) fn dump_flight(&self, reason: &str) -> Option<String> {
        {
            let dumps = self.dumps.lock().unwrap_or_else(|e| e.into_inner());
            if dumps.len() >= MAX_FLIGHT_DUMPS {
                return None;
            }
        }
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let seq = self.flight.next_dump_seq();
        let safe_reason: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = self
            .flight_dir
            .join(format!("xbfs-flight-{unix_ms}-{seq}-{safe_reason}.log"));
        let text = self.flight.render(reason);
        if std::fs::create_dir_all(&self.flight_dir).is_err() {
            return None;
        }
        if std::fs::write(&path, text).is_err() {
            return None;
        }
        let shown = path.to_string_lossy().into_owned();
        self.dumps
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(shown.clone());
        self.flight_dumps_total.add(1);
        Some(shown)
    }

    /// Paths of every flight dump written so far.
    pub(crate) fn dump_paths(&self) -> Vec<String> {
        self.dumps.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Where dumps are written.
    pub(crate) fn flight_dir(&self) -> &Path {
        &self.flight_dir
    }

    /// One consistent snapshot of every series (breaker/queue gauges are
    /// refreshed by the caller before snapshotting — see
    /// `Shared::metrics_snapshot`).
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// A registry counter mirroring a total another component owns (the
/// queue, the breaker, the journal), so the fact is counted once, by its
/// owner, and folded into the registry at scrape time.
pub(crate) struct Mirror {
    counter: Arc<Counter>,
    /// The owner's total already folded in.
    seen: AtomicU64,
}

impl Mirror {
    fn new(counter: Arc<Counter>) -> Self {
        let seen = AtomicU64::new(0);
        Self { counter, seen }
    }

    /// Add whatever the owner's `total` has grown past the last sync; the
    /// `fetch_max` guard makes racing scrapes add each increment once.
    pub(crate) fn sync(&self, total: u64) {
        let prev = self.seen.fetch_max(total, Ordering::Relaxed);
        if total > prev {
            self.counter.add(total - prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbfs_telemetry::SeriesValue;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("xbfs-metrics-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn finish_request_feeds_status_series_and_worker_counters() {
        let m = ServerMetrics::new(2, tmpdir("finish"), 16);
        m.finish_request(0, "ok", 12.0);
        m.finish_request(1, "timeout", 80.0);
        m.finish_request(0, "error", 5.0);
        m.finish_request(0, "ok", 14.0);
        let snap = m.snapshot();
        assert_eq!(snap.counter_family_total(live::REQUESTS_TOTAL), 4);
        let ok = snap
            .find(live::REQUESTS_TOTAL, &[("status", "ok")])
            .unwrap();
        assert_eq!(ok.value, SeriesValue::Counter(2));
        let w0 = snap
            .find(live::WORKER_REQUESTS_TOTAL, &[("worker", "0")])
            .unwrap();
        assert_eq!(w0.value, SeriesValue::Counter(3));
        match &snap
            .find(live::REQUEST_LATENCY_MS, &[("status", "ok")])
            .unwrap()
            .value
        {
            SeriesValue::Histogram(h) => assert_eq!(h.count(), 2),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn pool_deltas_survive_engine_rebuild_resets() {
        let m = ServerMetrics::new(1, tmpdir("pool"), 16);
        m.sample_pool(
            0,
            PoolGauges {
                hits: 10,
                misses: 4,
                parked_bytes: 100,
                pressure_events: 1,
                limit_bytes: None,
            },
        );
        m.sample_pool(
            0,
            PoolGauges {
                hits: 15,
                misses: 4,
                parked_bytes: 80,
                pressure_events: 1,
                limit_bytes: None,
            },
        );
        // Fresh device after rebuild: totals restart lower — treated as
        // a reset, not subtracted.
        m.sample_pool(
            0,
            PoolGauges {
                hits: 3,
                misses: 1,
                parked_bytes: 40,
                pressure_events: 0,
                limit_bytes: None,
            },
        );
        let snap = m.snapshot();
        let hits = snap
            .find(live::POOL_HITS_TOTAL, &[("worker", "0")])
            .unwrap();
        assert_eq!(hits.value, SeriesValue::Counter(15 + 3));
        let bytes = snap.find(live::POOL_BYTES, &[("worker", "0")]).unwrap();
        assert_eq!(bytes.value, SeriesValue::Gauge(40.0));
    }

    #[test]
    fn rank_series_appear_on_first_merge_and_accumulate() {
        let m = ServerMetrics::new(1, tmpdir("rank"), 16);
        let h = RankHealth {
            crashes: 1,
            checkpoints_restored: 2,
            retransmitted_bytes: 64,
        };
        m.merge_rank_health(&[RankHealth::default(), h.clone()]);
        m.merge_rank_health(&[RankHealth::default(), h]);
        let snap = m.snapshot();
        let crashes = snap
            .find(live::RANK_CRASHES_TOTAL, &[("rank", "1")])
            .unwrap();
        assert_eq!(crashes.value, SeriesValue::Counter(2));
        let bytes = snap
            .find(live::RANK_RETRANSMITTED_BYTES_TOTAL, &[("rank", "1")])
            .unwrap();
        assert_eq!(bytes.value, SeriesValue::Counter(128));
    }

    #[test]
    fn journal_sync_folds_deltas_once() {
        let m = ServerMetrics::new(1, tmpdir("journal"), 16);
        let sync = |appends, fsyncs, bytes| {
            m.journal_appends.sync(appends);
            m.journal_fsyncs.sync(fsyncs);
            m.journal_bytes.sync(bytes);
        };
        sync(10, 2, 640);
        sync(10, 2, 640); // racing scrape: no double-add
        sync(15, 3, 1000);
        let snap = m.snapshot();
        assert_eq!(
            snap.find(live::JOURNAL_APPENDS_TOTAL, &[]).unwrap().value,
            SeriesValue::Counter(15)
        );
        assert_eq!(
            snap.find(live::JOURNAL_FSYNCS_TOTAL, &[]).unwrap().value,
            SeriesValue::Counter(3)
        );
        assert_eq!(
            snap.find(live::JOURNAL_BYTES_TOTAL, &[]).unwrap().value,
            SeriesValue::Counter(1000)
        );
    }

    #[test]
    fn flight_dump_writes_a_file_and_ledgers_it() {
        let dir = tmpdir("dump");
        let m = ServerMetrics::new(1, dir.clone(), 16);
        m.flight.note(0, "request.start", "id=1");
        m.flight.note(0, "panic", "chaos: injected worker panic");
        let path = m.dump_flight("worker-panic").expect("dump written");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("reason: worker-panic"));
        assert!(text.contains("injected worker panic"));
        assert_eq!(m.dump_paths(), vec![path]);
        let snap = m.snapshot();
        assert_eq!(
            snap.find(live::FLIGHT_DUMPS_TOTAL, &[]).unwrap().value,
            SeriesValue::Counter(1)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

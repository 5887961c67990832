//! One thin adapter per layer of the program. Every call the benchmark
//! makes into `xbfs-graph`, `gcd-sim`, `xbfs-core`, `xbfs-multi-gcd`,
//! `xbfs-server` and `xbfs-telemetry` goes through here, and results come
//! back wrapped in types the benchmark owns. A change to a layer's public
//! API (such as collapsing the engines' `run*` entry points into one call)
//! then edits only that layer's module below.
//!
//! The adapters do no timing: callers time each call from outside.

pub mod graph {
    use xbfs_graph::generators::{rmat_graph, RmatParams};
    pub use xbfs_graph::Csr;

    pub const UNVISITED: u32 = xbfs_graph::UNVISITED;

    /// Graph500 R-MAT graph (a=0.57, b=c=0.19, edge factor 16).
    pub fn generate(scale: u32, seed: u64) -> Csr {
        rmat_graph(RmatParams::graph500(scale), seed)
    }

    /// Single-thread reference BFS levels.
    pub fn reference_levels(g: &Csr, source: u32) -> Vec<u32> {
        xbfs_graph::bfs_levels_serial(g, source)
    }

    /// Edges traversed from a level array, Graph500 convention.
    pub fn traversed_edges(g: &Csr, levels: &[u32]) -> u64 {
        xbfs_graph::reference::traversed_edges(g, levels)
    }

    /// FNV-1a over the CSR offsets and adjacency.
    pub fn fingerprint(g: &Csr) -> u64 {
        let words = g
            .offsets()
            .iter()
            .copied()
            .chain(g.adjacency().iter().map(|&v| u64::from(v)));
        gcd_sim::fnv1a(words)
    }
}

pub mod gcd_sim {
    pub use gcd_sim::Device;
    use gcd_sim::{ArchProfile, ExecMode, KernelReport};

    /// One MI250X GCD; `timing` selects the L2-replay profiler path.
    pub fn device(timing: bool, streams: usize) -> Device {
        let mode = if timing {
            ExecMode::Timing
        } else {
            ExecMode::Functional
        };
        Device::new(ArchProfile::mi250x_gcd(), mode, streams)
    }

    /// Pool acquisitions served from a parked buffer, over all acquisitions.
    pub fn pool_hit_ratio(dev: &Device) -> f64 {
        let (hits, misses) = dev.pool_stats();
        hits as f64 / (hits + misses).max(1) as f64
    }

    /// Modeled counters summed over kernel reports.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Counters {
        pub kernels: u64,
        pub wave_instr: u64,
        pub hbm_lines: u64,
        pub atomics: u64,
        pub l2_hits: u64,
        pub l2_accesses: u64,
    }

    pub fn counters<'a>(reports: impl IntoIterator<Item = &'a KernelReport>) -> Counters {
        let mut c = Counters::default();
        for r in reports {
            c.kernels += 1;
            c.wave_instr += r.stats.instructions;
            c.hbm_lines += r.stats.hbm_lines;
            c.atomics += r.stats.atomics;
            c.l2_hits += r.stats.l2_hits;
            c.l2_accesses += r.stats.l2_accesses;
        }
        c
    }
}

pub mod core {
    use super::gcd_sim::{self, Counters, Device};
    use xbfs_core::{certify_run, BfsRun, MsBfs, MsBfsRun, Strategy, Xbfs, XbfsConfig};
    use xbfs_graph::Csr;

    pub use xbfs_core::levels_digest;

    /// The engine configuration the benchmark and its server use.
    pub fn config() -> XbfsConfig {
        XbfsConfig::default()
    }

    /// What a run reports on the modeled clock. Compared with `==` for
    /// the determinism check, so `total_ms` must repeat bit for bit.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct Modeled {
        pub total_ms: f64,
        pub counters: Counters,
        pub levels: u64,
        pub bottom_up_levels: u64,
    }

    /// One single-source result.
    pub struct Solo(BfsRun);

    impl Solo {
        /// Levels-only digest, comparable with any engine's.
        pub fn digest(&self) -> u64 {
            self.0.result_digest()
        }

        /// The digest the solo serving path puts on the wire (it also
        /// covers the modeled time).
        pub fn served_digest(&self) -> u64 {
            self.0.digest()
        }

        pub fn modeled(&self) -> Modeled {
            let stats = &self.0.level_stats;
            Modeled {
                total_ms: self.0.total_ms,
                counters: gcd_sim::counters(stats.iter().flat_map(|l| &l.kernels)),
                levels: stats.len() as u64,
                bottom_up_levels: stats
                    .iter()
                    .filter(|l| l.strategy == Strategy::BottomUp)
                    .count() as u64,
            }
        }
    }

    /// A pooled single-source engine owning its device.
    pub struct Engine(Xbfs<Device>);

    impl Engine {
        /// Upload `g`; `timing` builds the profiler (timing-mode) engine.
        pub fn new(g: &Csr, timing: bool) -> Result<Self, String> {
            let cfg = config();
            let dev = gcd_sim::device(timing, cfg.required_streams());
            Xbfs::new(dev, g, cfg).map(Self).map_err(|e| e.to_string())
        }

        pub fn run(&self, source: u32) -> Result<Solo, String> {
            self.0.run(source).map(Solo).map_err(|e| e.to_string())
        }

        /// Run with pool sweeps, CSR re-check and result certificate.
        pub fn run_certified(&self, source: u32) -> Result<Solo, String> {
            self.0
                .run_certified(source)
                .map(|(run, _)| Solo(run))
                .map_err(|e| e.to_string())
        }

        pub fn pool_hit_ratio(&self) -> f64 {
            gcd_sim::pool_hit_ratio(self.0.device())
        }
    }

    /// Validate one result's certificate against the host CSR.
    pub fn certify(g: &Csr, run: &Solo) -> Result<(), String> {
        certify_run(g.offsets(), g.adjacency(), &run.0)
            .map(|_| ())
            .map_err(|e| format!("{e:?}"))
    }

    /// A 64-wide bit-parallel multi-source engine owning its device.
    pub struct Batch(MsBfs<Device>);

    /// One multi-source result.
    pub struct BatchOut(MsBfsRun);

    impl Batch {
        pub fn new(g: &Csr) -> Result<Self, String> {
            MsBfs::new(gcd_sim::device(false, 1), g)
                .map(Self)
                .map_err(|e| e.to_string())
        }

        pub fn run(&self, sources: &[u32]) -> Result<BatchOut, String> {
            self.0
                .run_governed(sources, None, false)
                .map(|(run, _)| BatchOut(run))
                .map_err(|e| e.to_string())
        }
    }

    impl BatchOut {
        /// `(source, levels digest)` per slot.
        pub fn digests(&self) -> Vec<(u32, u64)> {
            (0..self.0.width())
                .map(|s| (self.0.sources[s], self.0.result_digest(s)))
                .collect()
        }

        pub fn modeled_ms(&self) -> f64 {
            self.0.total_ms
        }
    }
}

pub mod multi_gcd {
    use xbfs_graph::Csr;
    use xbfs_multi_gcd::{ClusterConfig, ClusterRun, GcdCluster, LinkModel};

    /// A partitioned cluster of simulated GCDs on the Frontier link model.
    pub struct Cluster<'g>(GcdCluster<'g>);

    pub struct ClusterOut(ClusterRun);

    impl<'g> Cluster<'g> {
        pub fn new(g: &'g Csr, gcds: usize) -> Result<Self, String> {
            let cfg = ClusterConfig {
                num_gcds: gcds,
                ..ClusterConfig::node_of_8()
            };
            GcdCluster::new(g, cfg, LinkModel::frontier())
                .map(Self)
                .map_err(|e| e.to_string())
        }

        pub fn run(&mut self, source: u32) -> Result<ClusterOut, String> {
            self.0
                .run(source)
                .map(ClusterOut)
                .map_err(|e| e.to_string())
        }
    }

    impl ClusterOut {
        pub fn digest(&self) -> u64 {
            self.0.result_digest()
        }

        pub fn modeled_ms(&self) -> f64 {
            self.0.total_ms
        }

        pub fn exchanged_bytes(&self) -> u64 {
            self.0.level_stats.iter().map(|l| l.exchanged_bytes).sum()
        }
    }
}

pub mod server {
    use std::sync::Arc;

    use xbfs_graph::Csr;
    use xbfs_server::protocol::parse_response;
    use xbfs_server::{Server, PROTOCOL};
    use xbfs_telemetry::Recorder;

    pub use xbfs_server::{FsyncPolicy, ServeConfig, ServeReport, ServerHandle};

    /// Start an in-process server whose workers run the benchmark's
    /// engine configuration on fresh functional-mode devices.
    pub fn start(cfg: ServeConfig, graph: Arc<Csr>) -> std::io::Result<ServerHandle> {
        let xcfg = super::core::config();
        let streams = xcfg.required_streams();
        let factory = Arc::new(move || super::gcd_sim::device(false, streams));
        Server::start(cfg, graph, xcfg, factory, Arc::new(Recorder::disabled()))
    }

    /// Drain and join; the report carries the server's counters.
    pub fn stop(handle: ServerHandle) -> ServeReport {
        handle.initiate_drain();
        handle.join()
    }

    pub fn bfs_line(id: u64, source: u32) -> String {
        format!("{{\"v\":\"{PROTOCOL}\",\"id\":{id},\"op\":\"bfs\",\"source\":{source}}}\n")
    }

    pub fn metrics_line(id: u64) -> String {
        format!("{{\"v\":\"{PROTOCOL}\",\"id\":{id},\"op\":\"metrics\"}}\n")
    }

    /// What the benchmark reads from one response line.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Reply {
        pub id: u64,
        pub status: String,
        pub source: Option<u32>,
        pub digest: Option<u64>,
        /// Answered from a multi-source batch, so the digest is the
        /// levels-only one.
        pub batched: bool,
    }

    pub fn parse_reply(line: &str) -> Result<Reply, String> {
        let r = parse_response(line)?;
        let digest = match &r.digest {
            Some(hex) => Some(
                u64::from_str_radix(hex.trim_start_matches("0x"), 16)
                    .map_err(|e| format!("bad digest {hex:?}: {e}"))?,
            ),
            None => None,
        };
        Ok(Reply {
            id: r.id,
            status: r.status,
            source: r.source,
            digest,
            batched: r.batch.is_some(),
        })
    }
}

pub mod telemetry {
    use xbfs_server::top::TopSnapshot;
    use xbfs_telemetry::names::live;
    pub use xbfs_telemetry::JsonValue;

    /// One decoded `xbfs-metrics-v1` scrape of the live registry.
    pub struct Scrape(TopSnapshot);

    /// `count`, `sum`, `p50` and `p99` of a registry histogram.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Hist {
        pub count: u64,
        pub sum: f64,
        pub p50: f64,
        pub p99: f64,
    }

    impl Hist {
        pub fn mean(&self) -> f64 {
            self.sum / self.count.max(1) as f64
        }
    }

    /// Decode the reply line of a `metrics` op.
    pub fn parse_scrape(line: &str) -> Result<Scrape, String> {
        let v = JsonValue::parse(line).map_err(|e| format!("{e:?}"))?;
        let m = v.get("metrics").ok_or("reply has no `metrics`")?;
        TopSnapshot::parse(m)
            .map(Scrape)
            .ok_or_else(|| "not an xbfs-metrics-v1 snapshot".to_string())
    }

    impl Scrape {
        fn hist(&self, name: &str, labels: &[(&str, &str)]) -> Hist {
            self.0
                .hist(name, labels)
                .map(|(count, sum, p50, p99)| Hist {
                    count,
                    sum,
                    p50,
                    p99,
                })
                .unwrap_or_default()
        }

        /// Server-side latency of `ok` requests (admission to response).
        pub fn request_latency_ms(&self) -> Hist {
            self.hist(live::REQUEST_LATENCY_MS, &[("status", "ok")])
        }

        pub fn queue_wait_ms(&self) -> Hist {
            self.hist(live::QUEUE_WAIT_MS, &[])
        }

        pub fn linger_wait_ms(&self) -> Hist {
            self.hist(live::LINGER_WAIT_MS, &[])
        }
    }
}

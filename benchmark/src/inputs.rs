//! Workload inputs: the R-MAT graph and every source list.
//!
//! The graph is the same for every workload seed: Graph500 R-MAT with
//! generator seed [`GRAPH_SEED`], the graph the ROADMAP's reference figures
//! were measured on. The workload seed draws every source list. Across
//! seeds, R-MAT graphs of one scale differ in diameter enough to move
//! served qps by a fifth, which would swamp every bound a regression gate
//! can use.
//!
//! Sources come from the connected component of the highest-degree
//! vertex: R-MAT leaves a fifth to a third of the vertices isolated, and
//! a source there would make a one-level run.

use std::sync::Arc;

use crate::layers::graph::{self, Csr, UNVISITED};

/// Width of the engine passes' source set (one full multi-source batch).
pub const SOURCE_SET: usize = 64;

/// Distinct sources the hot-set serving workload draws from.
pub const HOT_SET: usize = 256;

pub struct Inputs {
    pub graph: Arc<Csr>,
    pub fingerprint: u64,
    /// Vertices reachable from the highest-degree vertex, ascending.
    pub component: Vec<u32>,
    /// The engine passes' source set: distinct, from `component`.
    pub sources: Vec<u32>,
    seed: u64,
}

/// SplitMix64: a small seeded generator, enough to draw sources.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next()) * n as u128) >> 64) as usize
    }

    /// `k` distinct items of `pool`, by a partial Fisher-Yates shuffle.
    pub fn sample_distinct(&mut self, pool: &[u32], k: usize) -> Vec<u32> {
        let mut p = pool.to_vec();
        let k = k.min(p.len());
        for i in 0..k {
            let j = i + self.below(p.len() - i);
            p.swap(i, j);
        }
        p.truncate(k);
        p
    }
}

/// R-MAT generator seed of every workload's graph.
pub const GRAPH_SEED: u64 = 7;

const SOURCE_STREAM: u64 = 2;
const REQUEST_STREAM: u64 = 3;
const ARRIVAL_STREAM: u64 = 4;

impl Inputs {
    /// The graph alone; [`Inputs::from_graph`] adds the source lists.
    pub fn generate_graph(scale: u32) -> Csr {
        graph::generate(scale, GRAPH_SEED)
    }

    pub fn from_graph(g: Csr, seed: u64) -> Self {
        let hub = (0..g.num_vertices() as u32)
            .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v)))
            .expect("generated graphs are never empty");
        let component: Vec<u32> = graph::reference_levels(&g, hub)
            .iter()
            .enumerate()
            .filter(|(_, &l)| l != UNVISITED)
            .map(|(v, _)| v as u32)
            .collect();
        let sources = Rng::new(seed, SOURCE_STREAM).sample_distinct(&component, SOURCE_SET);
        Self {
            fingerprint: graph::fingerprint(&g),
            graph: Arc::new(g),
            component,
            sources,
            seed,
        }
    }

    /// `n` request sources drawn uniformly from the component.
    pub fn uniform_requests(&self, n: usize) -> Vec<u32> {
        let mut r = Rng::new(self.seed, REQUEST_STREAM);
        (0..n)
            .map(|_| self.component[r.below(self.component.len())])
            .collect()
    }

    /// Send times, ns from the start, of a Poisson process with exactly
    /// `rps` arrivals per second of `span`: uniform order statistics,
    /// drawn as normalised sums of exponential gaps. Random gaps keep the
    /// schedule from locking in phase with a fixed period of the server,
    /// such as its read timeout; the fixed count keeps the offered load
    /// the same on every seed.
    pub fn poisson_arrivals(&self, rps: f64, span: std::time::Duration) -> Vec<u64> {
        let n = ((rps * span.as_secs_f64()).round() as usize).max(1);
        let mut r = Rng::new(self.seed, ARRIVAL_STREAM);
        let mut t = 0.0;
        let sums: Vec<f64> = (0..=n)
            .map(|_| {
                // Uniform in (0, 1], so the logarithm is finite.
                let u = ((r.next() >> 11) + 1) as f64 / (1u64 << 53) as f64;
                t -= u.ln();
                t
            })
            .collect();
        let scale = span.as_nanos() as f64 / sums[n];
        sums[..n].iter().map(|&s| (s * scale) as u64).collect()
    }

    /// `n` request sources drawn uniformly from a hot set of
    /// [`HOT_SET`] distinct component vertices.
    pub fn hot_requests(&self, n: usize) -> Vec<u32> {
        let mut r = Rng::new(self.seed, REQUEST_STREAM);
        let hot = r.sample_distinct(&self.component, HOT_SET);
        (0..n).map(|_| hot[r.below(hot.len())]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(seed: u64) -> Inputs {
        Inputs::from_graph(Inputs::generate_graph(10), seed)
    }

    #[test]
    fn same_seed_same_inputs() {
        let (a, b) = (inputs(5), inputs(5));
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.sources, b.sources);
        assert_eq!(a.uniform_requests(100), b.uniform_requests(100));
        assert_eq!(a.hot_requests(100), b.hot_requests(100));
    }

    #[test]
    fn different_seed_different_sources_same_graph() {
        let (a, b) = (inputs(5), inputs(6));
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.sources, b.sources);
        assert_ne!(a.uniform_requests(100), b.uniform_requests(100));
        assert_ne!(a.hot_requests(100), b.hot_requests(100));
    }

    #[test]
    fn poisson_arrivals_repeat_per_seed_at_the_asked_rate() {
        let span = std::time::Duration::from_secs(100);
        let a = inputs(5).poisson_arrivals(40.0, span);
        assert_eq!(a, inputs(5).poisson_arrivals(40.0, span));
        assert_ne!(a, inputs(6).poisson_arrivals(40.0, span));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a.len(), 4000);
        assert!(*a.last().unwrap() < span.as_nanos() as u64);
    }

    #[test]
    fn sources_are_distinct_members_of_the_component() {
        let a = inputs(5);
        assert_eq!(a.sources.len(), SOURCE_SET);
        let mut s = a.sources.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), SOURCE_SET);
        assert!(s.iter().all(|v| a.component.binary_search(v).is_ok()));
        let hot = a.hot_requests(4000);
        let mut h = hot.clone();
        h.sort_unstable();
        h.dedup();
        assert!(h.len() <= HOT_SET);
        assert!(h.iter().all(|v| a.component.binary_search(v).is_ok()));
    }
}

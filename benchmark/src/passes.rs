//! The in-process engine passes, all over one seeded source set: solo
//! pooled runs, 64-wide multi-source batches, certified runs, a 4-GCD
//! cluster and the timing-mode (profiler) device, interleaved with the
//! serial reference BFS that calibrates the host's speed. Each call is
//! timed from outside, with the allocations it made.

use std::time::{Duration, Instant};

use crate::alloc::AllocCount;
use crate::layers::core::{self, Batch, Engine, Modeled, Solo};
use crate::layers::graph::{self, Csr};
use crate::layers::multi_gcd::Cluster;
use crate::trace::{SpanId, Tracer};

/// Calls the certified, cluster and profiled passes make at least, so
/// their modeled counts cover the same sources on every run of a seed.
pub const MODELED_SUBSET: usize = 8;

/// Calls the solo pass makes at least. Its modeled GTEPS varies by a tenth
/// from one source to the next, so `modeled_gteps` averages this many.
pub const SOLO_COVERAGE: usize = 32;

/// Batches the batch pass runs at least: at s18 one takes seconds, so a
/// single batch would be a single sample of host noise.
pub const MIN_BATCHES: usize = 2;

/// Simulated GCDs in the cluster pass.
pub const CLUSTER_GCDS: usize = 4;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub start_ns: u64,
    pub ns: u64,
    pub alloc: AllocCount,
}

impl Sample {
    /// Record the call as a span of the main thread.
    pub fn record(
        &self,
        tracer: &Tracer,
        name: &'static str,
        parent: Option<SpanId>,
        modeled_us: Option<f64>,
    ) {
        let end = self.start_ns + self.ns;
        tracer.record(name, parent, 0, self.start_ns, end, None, modeled_us);
    }
}

/// Run `f`, timing it on the host clock and counting its allocations.
pub fn timed<T>(tracer: &Tracer, f: impl FnOnce() -> T) -> (T, Sample) {
    let start_ns = tracer.now_ns();
    let before = AllocCount::now();
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as u64;
    let alloc = AllocCount::now().since(before);
    (
        out,
        Sample {
            start_ns,
            ns,
            alloc,
        },
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    Solo,
    Batch,
    Certified,
    Cluster,
    Profiled,
    Reference,
}

impl PassKind {
    pub const ALL: [PassKind; 6] = [
        PassKind::Solo,
        PassKind::Batch,
        PassKind::Certified,
        PassKind::Cluster,
        PassKind::Profiled,
        PassKind::Reference,
    ];

    pub fn name(self) -> &'static str {
        match self {
            PassKind::Solo => "solo",
            PassKind::Batch => "batch",
            PassKind::Certified => "certified",
            PassKind::Cluster => "cluster",
            PassKind::Profiled => "profiled",
            PassKind::Reference => "reference",
        }
    }

    fn span(self) -> &'static str {
        match self {
            PassKind::Solo => "core.solo",
            PassKind::Batch => "core.batch",
            PassKind::Certified => "core.certified",
            PassKind::Cluster => "multi_gcd.run",
            PassKind::Profiled => "core.profiled",
            PassKind::Reference => "graph.reference",
        }
    }

    /// Share of the pass budget. One 64-wide batch is the batch pass's
    /// smallest unit, so it gets the most.
    fn share(self) -> f64 {
        match self {
            PassKind::Solo => 0.2,
            PassKind::Batch => 0.3,
            PassKind::Certified => 0.15,
            PassKind::Cluster => 0.1,
            PassKind::Profiled => 0.15,
            PassKind::Reference => 0.1,
        }
    }

    fn min_calls(self, set: usize) -> usize {
        match self {
            PassKind::Solo => SOLO_COVERAGE.min(set),
            PassKind::Batch => MIN_BATCHES,
            _ => MODELED_SUBSET.min(set),
        }
    }

    /// The sources every run of this pass answers first, in order.
    pub fn covered(self, sources: &[u32]) -> &[u32] {
        match self {
            PassKind::Batch => sources,
            _ => &sources[..self.min_calls(sources.len())],
        }
    }
}

/// What one call answered and reported on the modeled clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// `(source, levels digest)` for each source the call answered.
    pub digests: Vec<(u32, u64)>,
    /// Modeled counts (single-device single-source passes).
    pub modeled: Option<Modeled>,
    /// Modeled end-to-end time, ms.
    pub modeled_ms: f64,
    /// Bytes the cluster exchanged between GCDs.
    pub exchanged_bytes: u64,
}

#[derive(Debug, Clone)]
pub struct Call {
    pub sample: Sample,
    pub answer: Answer,
}

#[derive(Debug)]
pub struct Pass {
    pub kind: PassKind,
    pub calls: Vec<Call>,
    pub errors: Vec<String>,
}

impl Pass {
    pub fn ms(&self) -> Vec<f64> {
        self.calls
            .iter()
            .map(|c| c.sample.ns as f64 / 1e6)
            .collect()
    }
}

/// The engines every workload builds at set-up.
pub struct Engines<'g> {
    /// The host graph, for the serial reference pass.
    pub graph: &'g Csr,
    pub solo: Engine,
    pub batch: Batch,
    pub cluster: Cluster<'g>,
    pub profiled: Engine,
}

/// Construction times of one set-up, ms.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    pub upload_ms: f64,
    pub cluster_build_ms: f64,
}

impl<'g> Engines<'g> {
    pub fn build(
        g: &'g Csr,
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> Result<(Self, BuildTimes), String> {
        let (solo, s) = timed(tracer, || Engine::new(g, false));
        s.record(tracer, "gcd_sim.upload", parent, None);
        let upload_ms = s.ns as f64 / 1e6;
        let (batch, s) = timed(tracer, || Batch::new(g));
        s.record(tracer, "gcd_sim.upload", parent, None);
        let (profiled, s) = timed(tracer, || Engine::new(g, true));
        s.record(tracer, "gcd_sim.upload", parent, None);
        let (cluster, s) = timed(tracer, || Cluster::new(g, CLUSTER_GCDS));
        s.record(tracer, "multi_gcd.build", parent, None);
        let engines = Self {
            graph: g,
            solo: solo?,
            batch: batch?,
            cluster: cluster?,
            profiled: profiled?,
        };
        let times = BuildTimes {
            upload_ms,
            cluster_build_ms: s.ns as f64 / 1e6,
        };
        Ok((engines, times))
    }
}

/// Results of all five passes, plus the solo results kept for the
/// certificate timing of a traced run.
pub struct Passes {
    pub passes: Vec<Pass>,
    pub kept_solo: Vec<Solo>,
    pub pool_hit_ratio: f64,
}

impl Passes {
    pub fn get(&self, kind: PassKind) -> &Pass {
        self.passes
            .iter()
            .find(|p| p.kind == kind)
            .expect("every pass kind runs")
    }
}

fn solo_answer(source: u32, run: &Solo) -> Answer {
    let modeled = run.modeled();
    Answer {
        digests: vec![(source, run.digest())],
        modeled: Some(modeled),
        modeled_ms: modeled.total_ms,
        exchanged_bytes: 0,
    }
}

/// Run every pass over `sources` within `budget`, interleaved: the next
/// call always goes to the pass that has used the least of its share, so
/// every pass samples the whole stretch and a slow spell of the host
/// falls on all of them alike. A pass stops once it has made its minimum
/// calls and one more call of its last call's length would overrun its
/// share.
pub fn run_all(
    engines: &mut Engines<'_>,
    sources: &[u32],
    budget: Duration,
    keep_solo: bool,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Passes {
    let span = tracer.open("bench.passes", parent, 0);
    let mut passes: Vec<Pass> = PassKind::ALL
        .iter()
        .map(|&kind| Pass {
            kind,
            calls: Vec::new(),
            errors: Vec::new(),
        })
        .collect();
    let mut used = [Duration::ZERO; PassKind::ALL.len()];
    let mut last = [Duration::ZERO; PassKind::ALL.len()];
    let mut kept_solo = Vec::new();
    loop {
        let runnable = (0..passes.len()).filter(|&k| {
            let kind = passes[k].kind;
            let made = passes[k].calls.len() + passes[k].errors.len();
            made < kind.min_calls(sources.len())
                || used[k] + last[k] <= budget.mul_f64(kind.share())
        });
        let Some(k) = runnable.min_by(|&a, &b| {
            let ratio = |k: usize| used[k].as_secs_f64() / passes[k].kind.share();
            ratio(a).total_cmp(&ratio(b))
        }) else {
            break;
        };
        let pass = &mut passes[k];
        let i = pass.calls.len() + pass.errors.len();
        let t = Instant::now();
        match call(engines, pass.kind, sources, i, tracer) {
            Ok((answer, sample, solo)) => {
                sample.record(
                    tracer,
                    pass.kind.span(),
                    Some(span.id),
                    Some(answer.modeled_ms * 1e3),
                );
                if let Some(run) = solo.filter(|_| keep_solo && kept_solo.len() < MODELED_SUBSET) {
                    kept_solo.push(run);
                }
                pass.calls.push(Call { sample, answer });
            }
            Err(e) => pass.errors.push(e),
        }
        last[k] = t.elapsed();
        used[k] += last[k];
    }
    tracer.close(span, None, None);
    Passes {
        passes,
        kept_solo,
        pool_hit_ratio: engines.solo.pool_hit_ratio(),
    }
}

/// The `i`-th call of a pass; solo calls also hand back their result.
fn call(
    engines: &mut Engines<'_>,
    kind: PassKind,
    sources: &[u32],
    i: usize,
    tracer: &Tracer,
) -> Result<(Answer, Sample, Option<Solo>), String> {
    let source = sources[i % sources.len()];
    match kind {
        PassKind::Solo => {
            let (r, s) = timed(tracer, || engines.solo.run(source));
            let run = r?;
            Ok((solo_answer(source, &run), s, Some(run)))
        }
        PassKind::Certified => {
            let (r, s) = timed(tracer, || engines.solo.run_certified(source));
            Ok((solo_answer(source, &r?), s, None))
        }
        PassKind::Profiled => {
            let (r, s) = timed(tracer, || engines.profiled.run(source));
            Ok((solo_answer(source, &r?), s, None))
        }
        PassKind::Reference => {
            let (levels, s) = timed(tracer, || graph::reference_levels(engines.graph, source));
            let a = Answer {
                digests: vec![(source, core::levels_digest(source, &levels))],
                modeled: None,
                modeled_ms: 0.0,
                exchanged_bytes: 0,
            };
            Ok((a, s, None))
        }
        PassKind::Batch => {
            let (r, s) = timed(tracer, || engines.batch.run(sources));
            let run = r?;
            let a = Answer {
                digests: run.digests(),
                modeled: None,
                modeled_ms: run.modeled_ms(),
                exchanged_bytes: 0,
            };
            Ok((a, s, None))
        }
        PassKind::Cluster => {
            let (r, s) = timed(tracer, || engines.cluster.run(source));
            let run = r?;
            let a = Answer {
                digests: vec![(source, run.digest())],
                modeled: None,
                modeled_ms: run.modeled_ms(),
                exchanged_bytes: run.exchanged_bytes(),
            };
            Ok((a, s, None))
        }
    }
}

/// One untimed call of each single-source pass, so that lazy allocation
/// and first-touch page faults fall outside the measurement. The batch
/// pass is not warmed: at s18 one batch takes seconds.
pub fn warm_up(engines: &mut Engines<'_>, sources: &[u32]) {
    let tracer = Tracer::new(false, Instant::now());
    for kind in PassKind::ALL {
        if kind != PassKind::Batch {
            // A failing call fails again, and is counted, when measured.
            let _ = call(engines, kind, sources, 0, &tracer);
        }
    }
}

/// Time `certify_run` alone on kept solo results: ms per call, and the
/// certificates that failed.
pub fn certify_times(
    g: &Csr,
    runs: &[Solo],
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> (Vec<f64>, Vec<String>) {
    let mut times = Vec::new();
    let mut failures = Vec::new();
    for run in runs {
        let (r, s) = timed(tracer, || core::certify(g, run));
        s.record(tracer, "core.certify", parent, None);
        if let Err(e) = r {
            failures.push(format!("certificate rejected a solo result: {e}"));
        }
        times.push(s.ns as f64 / 1e6);
    }
    (times, failures)
}

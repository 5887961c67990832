//! Dual-clock benchmark for xbfs: seeded workloads, every result checked
//! against a serial reference BFS, end-to-end metrics from an untraced
//! run and per-layer metrics from a traced one. See README.md beside this
//! crate. From the repository root:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload offline-s18 --seed 1 --seconds 28 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 0 only when
//! every result was correct and nothing failed.

mod alloc;
mod inputs;
mod layers;
mod metrics;
mod passes;
mod report;
mod serve;
mod stats;
mod trace;
mod verify;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use inputs::Inputs;
use metrics::{END_TO_END, LAYERS, PER_LAYER};
use passes::{timed, Engines, Passes};
use serve::{ServeMode, ServeRun, ServeSide, Traffic};
use trace::{SpanId, Tracer};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Where journals, flight dumps and traces go, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

/// Share of the measured time given to the serving phase on the serving
/// workloads; the engine passes get the rest.
const SERVE_SHARE: f64 = 0.65;

const USAGE: &str =
    "usage: xbfs-benchmark --workload offline-s18|serve-steady-s14|serve-burst-s14 \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OfflineS18,
    ServeSteadyS14,
    ServeBurstS14,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OfflineS18,
        Workload::ServeSteadyS14,
        Workload::ServeBurstS14,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineS18 => "offline-s18",
            Workload::ServeSteadyS14 => "serve-steady-s14",
            Workload::ServeBurstS14 => "serve-burst-s14",
        }
    }

    fn scale(self) -> u32 {
        match self {
            Workload::OfflineS18 => 18,
            Workload::ServeSteadyS14 | Workload::ServeBurstS14 => 14,
        }
    }

    /// Set-ups per run; `setup_s` is their median. An s18 set-up takes
    /// seconds, an s14 one a tenth of a second.
    fn setups(self) -> usize {
        match self.scale() {
            18 => 3,
            _ => 7,
        }
    }

    fn serve(self) -> Option<ServeMode> {
        match self {
            Workload::OfflineS18 => None,
            Workload::ServeSteadyS14 => Some(ServeMode {
                batch_width: 1,
                batch_window_ms: 0.0,
                journal: false,
                traffic: Traffic::Steady { rps: 40.0 },
            }),
            Workload::ServeBurstS14 => Some(ServeMode {
                batch_width: 64,
                batch_window_ms: 1.0,
                journal: true,
                traffic: Traffic::Burst {
                    rps: 20_000.0,
                    per_second: 200.0,
                },
            }),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::OfflineS18,
        seed: 1,
        seconds: 28.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds {value}: must be in (0, 60]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            print!("{}", report.text);
            println!("{}", report.line);
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Report {
    text: String,
    line: String,
    correct: bool,
}

/// What each set-up took; the metrics report medians.
#[derive(Default)]
pub(crate) struct SetupStats {
    pub(crate) setup_s: Vec<f64>,
    pub(crate) generate_s: Vec<f64>,
    pub(crate) upload_ms: Vec<f64>,
    pub(crate) cluster_build_ms: Vec<f64>,
    pub(crate) fingerprints: Vec<u64>,
}

fn run(args: &Args) -> Result<Report, String> {
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let tracer = Tracer::new(args.trace, Instant::now());
    let root = tracer.open("bench.run", None, 0);
    let mut setup = SetupStats::default();
    let setups = args.workload.setups();
    for rep in 0..setups {
        let span = tracer.open("bench.setup", Some(root.id), 0);
        let t = Instant::now();
        let (g, s) = timed(&tracer, || Inputs::generate_graph(args.workload.scale()));
        s.record(&tracer, "graph.generate", Some(span.id), None);
        setup.generate_s.push(s.ns as f64 / 1e9);
        let (inputs, s) = timed(&tracer, || Inputs::from_graph(g, args.seed));
        s.record(&tracer, "graph.component", Some(span.id), None);
        let (mut engines, built) = Engines::build(&inputs.graph, &tracer, Some(span.id))?;
        let side = match args.workload.serve() {
            Some(mode) => {
                let (r, s) = timed(&tracer, || {
                    ServeSide::start(&mode, inputs.graph.clone(), inputs.sources[0], &out_dir)
                });
                s.record(&tracer, "server.start", Some(span.id), None);
                Some(r?)
            }
            None => None,
        };
        setup.setup_s.push(t.elapsed().as_secs_f64());
        setup.upload_ms.push(built.upload_ms);
        setup.cluster_build_ms.push(built.cluster_build_ms);
        setup.fingerprints.push(inputs.fingerprint);
        tracer.close(span, None, None);
        if rep + 1 < setups {
            if let Some(side) = side {
                side.stop();
            }
            continue;
        }
        return measure(
            args,
            &tracer,
            root,
            &inputs,
            &mut engines,
            side,
            setup,
            &out_dir,
        );
    }
    unreachable!("the last set-up returns")
}

/// One measured stretch: the serving phase, if any, then the passes.
pub(crate) struct Half {
    pub(crate) serve: Option<ServeRun>,
    pub(crate) passes: Passes,
}

#[allow(clippy::too_many_arguments)]
fn measure(
    args: &Args,
    tracer: &Tracer,
    root: trace::Open,
    inputs: &Inputs,
    engines: &mut Engines<'_>,
    side: Option<ServeSide>,
    setup: SetupStats,
    out_dir: &Path,
) -> Result<Report, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    // A traced run measures untraced, then traced, for half as long each;
    // the difference is the tracing overhead.
    let untraced = Tracer::new(false, Instant::now());
    let stretches: Vec<(&Tracer, Duration)> = if args.trace {
        vec![(&untraced, budget / 2), (tracer, budget / 2)]
    } else {
        vec![(tracer, budget)]
    };
    passes::warm_up(engines, &inputs.sources);
    let mut halves = Vec::new();
    for (i, &(tr, b)) in stretches.iter().enumerate() {
        halves.push(measure_half(
            args.workload,
            tr,
            root.id,
            inputs,
            engines,
            side.as_ref(),
            b,
            i,
        )?);
    }
    let warm = side.as_ref().map(|s| s.warm.clone());
    let serve_report = side.map(ServeSide::stop);

    let span = tracer.open("bench.verify", Some(root.id), 0);
    let mut verdict = verify::verify(
        inputs,
        engines,
        &halves,
        warm.as_ref(),
        tracer,
        Some(span.id),
    );
    let last = halves.last().expect("one stretch at least");
    let (certify_ms, cert_failures) =
        passes::certify_times(&inputs.graph, &last.passes.kept_solo, tracer, Some(span.id));
    tracer.close(span, None, None);
    tracer.close(root, None, None);
    verdict.failures.extend(cert_failures);
    if setup
        .fingerprints
        .iter()
        .any(|&f| f != setup.fingerprints[0])
    {
        verdict
            .failures
            .push("graph generation drifted between set-ups of one seed".into());
    }

    let (table, values) = if args.trace {
        let spans = tracer.spans();
        let path = out_dir.join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        tracer
            .write_chrome(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("chrome trace: {} ({} spans)", path.display(), spans.len());
        let mut v = report::per_layer(
            &setup,
            &inputs.sources,
            &halves,
            &verdict,
            serve_report.as_ref(),
            &certify_ms,
        );
        let self_ns = trace::self_time_by_layer(&spans);
        for layer in LAYERS {
            let name = self_time_name(layer).expect("every layer has a self-time metric");
            v.insert(name, self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e9);
        }
        (PER_LAYER, v)
    } else {
        (
            END_TO_END,
            report::end_to_end(&setup, &inputs.sources, last, &verdict),
        )
    };

    let failures = &verdict.failures;
    let failed = failures.len() as u64;
    let correct = failures.is_empty();
    for f in failures.iter().take(20) {
        eprintln!("FAILED: {f}");
    }
    let mut text = format!(
        "workload {} seed {} seconds {} trace {}\n\
         graph s{}: {} vertices, {} edges, fingerprint {:#018x}; component {} vertices\n\
         modeled fingerprint {:#018x} (repeats exactly for a seed)\n\
         attempted {} failed {} failed_share {:.6} ratio\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.scale(),
        inputs.graph.num_vertices(),
        inputs.graph.num_edges(),
        inputs.fingerprint,
        inputs.component.len(),
        verdict.modeled_fingerprint,
        verdict.attempted,
        failed,
        failed as f64 / verdict.attempted.max(1) as f64,
    );
    text.push_str(&metrics::render(table, &values));
    let line = metrics::result_line(table, &values, correct, verdict.attempted.max(1), failed)?;
    Ok(Report {
        text,
        line,
        correct,
    })
}

fn self_time_name(layer: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| n.strip_suffix(".self_s") == Some(layer))
}

#[allow(clippy::too_many_arguments)]
fn measure_half(
    workload: Workload,
    tracer: &Tracer,
    root: SpanId,
    inputs: &Inputs,
    engines: &mut Engines<'_>,
    side: Option<&ServeSide>,
    budget: Duration,
    index: usize,
) -> Result<Half, String> {
    let span = tracer.open("bench.measure", Some(root), 0);
    let serve = match (side, workload.serve()) {
        (Some(side), Some(mode)) => {
            let serve_budget = budget.mul_f64(SERVE_SHARE);
            let id_base = 1 + (index as u64) * 1_000_000_000;
            let schedule = serve::plan(mode.traffic, inputs, serve_budget, id_base);
            let cutoff = serve_budget * 2 + Duration::from_secs(20);
            let sp = tracer.open("bench.serve", Some(span.id), 0);
            let r = serve::run_phase(side, &schedule, cutoff, tracer, Some(sp.id))?;
            tracer.close(sp, None, None);
            Some(r)
        }
        _ => None,
    };
    let pass_budget = match workload.serve() {
        Some(_) => budget.mul_f64(1.0 - SERVE_SHARE),
        None => budget,
    };
    let passes = passes::run_all(
        engines,
        &inputs.sources,
        pass_budget,
        tracer.is_on(),
        tracer,
        Some(span.id),
    );
    tracer.close(span, None, None);
    Ok(Half { serve, passes })
}

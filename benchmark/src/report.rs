//! The metrics a run prints, computed from its measured stretches.

use crate::layers::core::Modeled;
use crate::layers::server::ServeReport;
use crate::metrics::{Values, PER_LAYER};
use crate::passes::{Answer, Call, Pass, PassKind};
use crate::stats::{median, percentile, tail};
use crate::verify::Verdict;
use crate::{Half, SetupStats};

/// First answer per source the pass always covers, in source-set order.
fn subset<'a>(pass: &'a Pass, sources: &[u32]) -> Vec<(u32, &'a Answer)> {
    pass.kind
        .covered(sources)
        .iter()
        .filter_map(|&src| {
            pass.calls
                .iter()
                .map(|c| &c.answer)
                .find(|a| a.digests.first().map(|d| d.0) == Some(src))
                .map(|a| (src, a))
        })
        .collect()
}

/// Median over calls of traversed edges per host second, in MTEPS.
fn host_mteps(pass: &Pass, v: &Verdict) -> f64 {
    let rates: Vec<f64> = pass
        .calls
        .iter()
        .map(|c| {
            let edges: u64 = c.answer.digests.iter().map(|&(s, _)| v.edges(s)).sum();
            edges as f64 * 1e3 / c.sample.ns.max(1) as f64
        })
        .collect();
    median(&rates)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Latencies of one BFS answer, ms: from the scheduled send on the
/// serving workloads, one solo engine call offline.
fn latencies(h: &Half) -> Vec<f64> {
    match &h.serve {
        Some(s) => s
            .outcomes
            .iter()
            .filter(|o| o.reply.as_ref().is_some_and(|r| r.status == "ok"))
            .filter_map(|o| o.latency_ms())
            .collect(),
        None => h.passes.get(PassKind::Solo).ms(),
    }
}

/// Reference calls around an engine call whose median calibrates it.
const LOCAL_REFERENCES: usize = 6;

/// Host time per answered source, in serial reference BFS times. Each
/// call is divided by the median of the [`LOCAL_REFERENCES`] reference
/// calls whose midpoints lie nearest its own: for a call of seconds, such
/// as an s18 batch, these come from both sides of it. The median over
/// calls is reported. The host this benchmark was written on speeds up
/// and slows down by 20-40% for minutes at a time; the engine and the
/// reference slow down together, so the ratio holds still where the raw
/// time does not.
fn host_cost(pass: &Pass, reference: &Pass) -> f64 {
    let mid = |c: &Call| c.sample.start_ns + c.sample.ns / 2;
    let refs: Vec<(u64, f64)> = reference
        .calls
        .iter()
        .map(|c| (mid(c), c.sample.ns as f64))
        .collect();
    let costs: Vec<f64> = pass
        .calls
        .iter()
        .map(|c| {
            let mut near = refs.clone();
            near.sort_by_key(|&(m, _)| m.abs_diff(mid(c)));
            let local: Vec<f64> = near.iter().take(LOCAL_REFERENCES).map(|r| r.1).collect();
            c.sample.ns as f64 / (c.answer.digests.len() as f64 * median(&local))
        })
        .collect();
    median(&costs)
}

pub fn end_to_end(setup: &SetupStats, sources: &[u32], h: &Half, v: &Verdict) -> Values {
    let p = &h.passes;
    let solo = p.get(PassKind::Solo);
    let sub = subset(solo, sources);
    let edges: u64 = sub.iter().map(|&(s, _)| v.edges(s)).sum();
    let modeled_ms: Vec<f64> = sub.iter().map(|(_, a)| a.modeled_ms).collect();
    // offline-s18 has no client: its answer latency and answers per second
    // are read on the modeled clock (solo runs over the covered sources, and
    // one 64-wide batch). The serving workloads read them on the wall clock.
    let (lat, served_qps) = match &h.serve {
        Some(s) => {
            let ok = s
                .outcomes
                .iter()
                .filter(|o| o.reply.as_ref().is_some_and(|r| r.status == "ok"))
                .count();
            (latencies(h), ok as f64 / s.elapsed_s.max(1e-9))
        }
        None => {
            let batch = &p.get(PassKind::Batch).calls[0].answer;
            let qps = batch.digests.len() as f64 * 1e3 / batch.modeled_ms;
            (modeled_ms.clone(), qps)
        }
    };
    let reference = p.get(PassKind::Reference);
    let mut m = Values::new();
    m.insert("setup_s", median(&setup.setup_s));
    m.insert("peak_rss_mb", peak_rss_mb());
    m.insert("latency_p50_ms", median(&lat));
    m.insert("latency_p99_ms", tail(&lat).1);
    m.insert("served_qps", served_qps);
    for (name, kind) in [
        ("solo_host_cost", PassKind::Solo),
        ("batch_host_cost", PassKind::Batch),
        ("certified_host_cost", PassKind::Certified),
        ("cluster_host_cost", PassKind::Cluster),
        ("profiled_host_cost", PassKind::Profiled),
    ] {
        m.insert(name, host_cost(p.get(kind), reference));
    }
    m.insert(
        "modeled_gteps",
        edges as f64 / (modeled_ms.iter().sum::<f64>() * 1e6),
    );
    m
}

pub fn per_layer(
    setup: &SetupStats,
    sources: &[u32],
    halves: &[Half],
    v: &Verdict,
    report: Option<&ServeReport>,
    certify_ms: &[f64],
) -> Values {
    let h = halves.last().expect("one stretch at least");
    let p = &h.passes;
    let solo = p.get(PassKind::Solo);
    let modeled: Vec<Modeled> = subset(solo, sources)
        .iter()
        .filter_map(|(_, a)| a.modeled)
        .collect();
    let per_run = |f: fn(&Modeled) -> u64| {
        modeled.iter().map(f).sum::<u64>() as f64 / modeled.len().max(1) as f64
    };
    let (l2_hits, l2_accesses) = subset(p.get(PassKind::Profiled), sources)
        .iter()
        .filter_map(|(_, a)| a.modeled)
        .fold((0, 0), |(h, a), m| {
            (h + m.counters.l2_hits, a + m.counters.l2_accesses)
        });
    let cluster = subset(p.get(PassKind::Cluster), sources);
    let per_call = |pass: &Pass, f: &dyn Fn(&Call) -> Option<f64>| -> f64 {
        median(&pass.calls.iter().filter_map(f).collect::<Vec<_>>())
    };
    let solo_ms = solo.ms();
    let batch = p.get(PassKind::Batch);

    let mut m = Values::new();
    m.insert("graph.generate_s", median(&setup.generate_s));
    m.insert(
        "graph.reference_ms",
        median(&p.get(PassKind::Reference).ms()),
    );
    for (name, kind) in [
        ("solo_host_mteps", PassKind::Solo),
        ("batch_host_mteps", PassKind::Batch),
        ("certified_host_mteps", PassKind::Certified),
        ("cluster_host_mteps", PassKind::Cluster),
        ("profiled_host_mteps", PassKind::Profiled),
    ] {
        m.insert(name, host_mteps(p.get(kind), v));
    }
    m.insert("gcd_sim.upload_ms", median(&setup.upload_ms));
    m.insert("gcd_sim.pool_hit_ratio", p.pool_hit_ratio);
    m.insert(
        "gcd_sim.host_ns_per_wave_instr",
        per_call(solo, &|c| {
            c.answer
                .modeled
                .map(|md| c.sample.ns as f64 / md.counters.wave_instr.max(1) as f64)
        }),
    );
    m.insert(
        "gcd_sim.wave_instr_per_run",
        per_run(|md| md.counters.wave_instr),
    );
    m.insert(
        "gcd_sim.hbm_lines_per_run",
        per_run(|md| md.counters.hbm_lines),
    );
    m.insert("gcd_sim.atomics_per_run", per_run(|md| md.counters.atomics));
    m.insert("gcd_sim.kernels_per_run", per_run(|md| md.counters.kernels));
    m.insert(
        "gcd_sim.l2_hit_pct",
        100.0 * l2_hits as f64 / l2_accesses.max(1) as f64,
    );
    m.insert("core.solo_ms_p50", median(&solo_ms));
    m.insert("core.solo_ms_p90", percentile(&solo_ms, 90.0));
    m.insert(
        "core.solo_allocs",
        per_call(solo, &|c| Some(c.sample.alloc.allocs as f64)),
    );
    m.insert(
        "core.solo_alloc_bytes",
        per_call(solo, &|c| Some(c.sample.alloc.bytes as f64)),
    );
    m.insert("core.batch_ms", median(&batch.ms()));
    m.insert(
        "core.batch_allocs",
        per_call(batch, &|c| Some(c.sample.alloc.allocs as f64)),
    );
    m.insert("core.certify_ms", median(certify_ms));
    m.insert("core.profiled_ms", median(&p.get(PassKind::Profiled).ms()));
    m.insert(
        "core.host_ns_per_modeled_us",
        per_call(solo, &|c| {
            Some(c.sample.ns as f64 / (c.answer.modeled_ms * 1e3))
        }),
    );
    m.insert(
        "core.modeled_ms",
        median(&modeled.iter().map(|md| md.total_ms).collect::<Vec<_>>()),
    );
    m.insert("core.levels_per_run", per_run(|md| md.levels));
    m.insert(
        "core.bottom_up_levels_per_run",
        per_run(|md| md.bottom_up_levels),
    );
    m.insert("multi_gcd.build_ms", median(&setup.cluster_build_ms));
    m.insert("multi_gcd.run_ms", median(&p.get(PassKind::Cluster).ms()));
    m.insert(
        "multi_gcd.exchanged_bytes_per_run",
        cluster.iter().map(|(_, a)| a.exchanged_bytes).sum::<u64>() as f64
            / cluster.len().max(1) as f64,
    );
    let overhead = match halves {
        [untraced, traced] => {
            let (a, b) = (median(&latencies(untraced)), median(&latencies(traced)));
            100.0 * (b - a) / a
        }
        _ => 0.0,
    };
    m.insert("telemetry.trace_overhead_pct", overhead);

    // The serving layer and its client.
    if let (Some(s), Some(r)) = (&h.serve, report) {
        let wait = s.scrape.queue_wait_ms();
        let requests = r.accepted.max(1) as f64;
        let lag: Vec<f64> = s.outcomes.iter().filter_map(|o| o.lag_ms()).collect();
        let batch_size = if r.batches > 0 {
            r.batched_requests as f64 / r.batches as f64
        } else {
            1.0
        };
        m.extend([
            ("server.queue_wait_ms_p50", wait.p50),
            ("server.queue_wait_ms_p99", wait.p99),
            (
                "server.wire_ms",
                median(&latencies(h)) - s.scrape.request_latency_ms().p50,
            ),
            ("server.batch_size_mean", batch_size),
            ("server.linger_ms", s.scrape.linger_wait_ms().mean()),
            (
                "server.journal_appends_per_req",
                r.journal_appends as f64 / requests,
            ),
            (
                "server.journal_fsyncs_per_req",
                r.journal_fsyncs as f64 / requests,
            ),
            (
                "server.journal_bytes_per_req",
                r.journal_bytes as f64 / requests,
            ),
            ("server.max_queue_depth", r.max_queue_depth as f64),
            ("server.shed", r.shed as f64),
            ("server.timeouts", r.timeouts as f64),
            ("server.errors", r.errors as f64),
            ("server.lost", v.lost as f64),
            ("telemetry.scrape_ms", median(&s.scrape_ms)),
            ("client.send_lag_ms_p99", tail(&lag).1),
        ]);
    } else {
        // offline-s18 bypasses the server and the client: they read 0.
        for mt in PER_LAYER {
            let serving = mt.name.starts_with("server.")
                || mt.name.starts_with("client.")
                || mt.name == "telemetry.scrape_ms";
            if serving {
                m.insert(mt.name, 0.0);
            }
        }
    }
    m
}

//! The correctness gate, run untimed after the measurement: every answer
//! against the serial reference, and every repeated call against the
//! first call for the same source.

use std::collections::{BTreeSet, HashMap};

use crate::inputs::Inputs;
use crate::layers::core::levels_digest;
use crate::layers::graph;
use crate::layers::server::Reply;
use crate::passes::{timed, Answer, Engines, PassKind};
use crate::trace::{SpanId, Tracer};
use crate::Half;

/// The correctness gate's findings and the reference data metrics use.
pub struct Verdict {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// `source -> (levels digest, traversed edges)` of the serial reference.
    pub reference: HashMap<u32, (u64, u64)>,
    pub lost: u64,
    pub modeled_fingerprint: u64,
}

impl Verdict {
    pub fn edges(&self, source: u32) -> u64 {
        self.reference.get(&source).map_or(0, |r| r.1)
    }
}

/// Check every answer against the serial reference, and every repeated
/// call against the first call for the same source: the modeled clock
/// must repeat exactly.
pub fn verify(
    inputs: &Inputs,
    engines: &Engines<'_>,
    halves: &[Half],
    warm: Option<&(u32, Reply)>,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Verdict {
    let g = &inputs.graph;
    let mut v = Verdict {
        attempted: 0,
        failures: Vec::new(),
        reference: HashMap::new(),
        lost: 0,
        modeled_fingerprint: 0,
    };
    let mut served: Vec<(u32, Option<&Reply>)> = Vec::new();
    if let Some((source, reply)) = warm {
        served.push((*source, Some(reply)));
    }
    for h in halves {
        if let Some(s) = &h.serve {
            served.extend(
                s.outcomes
                    .iter()
                    .map(|o| (o.planned.source, o.reply.as_ref())),
            );
            v.failures.extend(s.client_errors.iter().cloned());
        }
    }
    let mut sources: BTreeSet<u32> = served.iter().map(|&(s, _)| s).collect();
    for h in halves {
        for p in &h.passes.passes {
            for c in &p.calls {
                sources.extend(c.answer.digests.iter().map(|&(s, _)| s));
            }
        }
    }
    for &src in &sources {
        let (levels, s) = timed(tracer, || graph::reference_levels(g, src));
        s.record(tracer, "graph.reference", parent, None);
        let digest = levels_digest(src, &levels);
        v.reference
            .insert(src, (digest, graph::traversed_edges(g, &levels)));
    }

    let mut first: HashMap<(&'static str, u32), &Answer> = HashMap::new();
    for h in halves {
        for p in &h.passes.passes {
            let name = p.kind.name();
            v.attempted += p.errors.len() as u64;
            v.failures
                .extend(p.errors.iter().map(|e| format!("{name} pass: {e}")));
            for c in &p.calls {
                let a = &c.answer;
                v.attempted += a.digests.len() as u64;
                for &(src, d) in &a.digests {
                    let want = v.reference[&src].0;
                    if d != want {
                        v.failures.push(format!(
                            "{name} pass: source {src} digest {d:#x}, reference {want:#x}"
                        ));
                    }
                }
                let key = (name, a.digests.first().map_or(u32::MAX, |d| d.0));
                match first.get(&key) {
                    Some(earlier) if *earlier != a => v.failures.push(format!(
                        "{name} pass: source {} drifted on the modeled clock between calls",
                        key.1
                    )),
                    Some(_) => {}
                    None => {
                        first.insert(key, a);
                    }
                }
            }
        }
    }
    v.modeled_fingerprint = modeled_fingerprint(&inputs.sources, &first);

    // Solo served replies carry the digest that also covers modeled time;
    // the benchmark's own solo engine gives the expected value.
    let mut solo_digest: HashMap<u32, u64> = HashMap::new();
    for (source, reply) in served {
        v.attempted += 1;
        let Some(r) = reply else {
            v.lost += 1;
            v.failures.push(format!("request for source {source} lost"));
            continue;
        };
        if r.status != "ok" {
            v.failures
                .push(format!("request {} answered {}", r.id, r.status));
            continue;
        }
        let want = if r.batched {
            Ok(v.reference[&source].0)
        } else if let Some(&d) = solo_digest.get(&source) {
            Ok(d)
        } else {
            let (run, s) = timed(tracer, || engines.solo.run(source));
            s.record(tracer, "core.solo", parent, None);
            run.map(|run| {
                if run.digest() != v.reference[&source].0 {
                    v.failures
                        .push(format!("solo engine disagrees with reference on {source}"));
                }
                solo_digest.insert(source, run.served_digest());
                run.served_digest()
            })
        };
        match want {
            Ok(want) if r.digest == Some(want) && r.source == Some(source) => {}
            Ok(want) => v.failures.push(format!(
                "request {} for source {source}: digest {:?}, expected {want:#x}",
                r.id, r.digest
            )),
            Err(e) => v.failures.push(format!("reference solo run: {e}")),
        }
    }
    v
}

/// FNV-1a over the first answers for the sources every pass covers.
fn modeled_fingerprint(sources: &[u32], first: &HashMap<(&'static str, u32), &Answer>) -> u64 {
    let mut words = Vec::new();
    for kind in PassKind::ALL {
        for &src in kind.covered(sources) {
            if let Some(a) = first.get(&(kind.name(), src)) {
                words.push(u64::from(src));
                words.extend(a.digests.iter().map(|d| d.1));
                words.push(a.modeled_ms.to_bits());
                words.push(a.exchanged_bytes);
                if let Some(m) = &a.modeled {
                    let c = m.counters;
                    words.extend([c.kernels, c.wave_instr, c.hbm_lines, c.atomics, c.l2_hits]);
                }
            }
        }
    }
    gcd_sim::fnv1a(words)
}

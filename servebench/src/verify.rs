//! The correctness gate: every answer against a reference built apart from
//! the path under test.

use crate::instance::COMMUNITY_VERTICES;
use crate::wire::{Answer, UNREACHABLE};
use hcl_core::{QueryContext, SharedOracle};
use hcl_graph::VertexId;

/// Threads computing reference answers after the measured window.
const CHECK_THREADS: usize = 2;

/// The reference distance of `(s, t)`. Between the two communities every
/// path crosses a landmark–landmark bridge, so the reference oracle's
/// label bound (Equation 4) is already its answer and its bounded search
/// cannot improve on it; the search is skipped there, nothing else
/// changes.
fn truth(reference: &SharedOracle, ctx: &mut QueryContext, s: VertexId, t: VertexId) -> u32 {
    let labelling = reference.labelling();
    let landmark = |v| labelling.highway().is_landmark(v);
    let community = |v: VertexId| v as usize / COMMUNITY_VERTICES;
    if community(s) != community(t) && !landmark(s) && !landmark(t) {
        return labelling.upper_bound_with(ctx, s, t);
    }
    reference.distance_with(ctx, s, t).unwrap_or(UNREACHABLE)
}

/// Checks every answer against `references[answer.version]` (a
/// `bound_only` answer may exceed it, never undercut it); returns how many
/// were checked, or the first wrong answer. Each distinct question is
/// computed once.
pub fn check(answers: &[Answer], references: &[SharedOracle]) -> Result<usize, String> {
    let mut keys: Vec<(u8, VertexId, VertexId)> =
        answers.iter().map(|a| (a.version, a.s, a.t)).collect();
    keys.sort_unstable();
    keys.dedup();
    let n = references[0].num_vertices();
    let chunk = keys.len().div_ceil(CHECK_THREADS).max(1);
    let truths: Vec<u32> = std::thread::scope(|scope| {
        let workers: Vec<_> = keys
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut ctx = QueryContext::new(n);
                    part.iter()
                        .map(|&(version, s, t)| {
                            truth(&references[version as usize], &mut ctx, s, t)
                        })
                        .collect::<Vec<u32>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("reference thread panicked")).collect()
    });
    for a in answers {
        let k = keys.binary_search(&(a.version, a.s, a.t)).expect("every answer has a key");
        let want = truths[k];
        if a.got != want && !(a.bound_only && a.got > want) {
            let show = |d: u32| if d == UNREACHABLE { "INF".to_string() } else { d.to_string() };
            return Err(format!(
                "wrong answer: d({}, {}) at graph version {} = {}, reference says {}",
                a.s,
                a.t,
                a.version,
                show(a.got),
                show(want),
            ));
        }
    }
    Ok(answers.len())
}

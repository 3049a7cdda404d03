//! Vertex orderings.
//!
//! Both the paper's method and its baselines rank vertices by degree: HL and
//! FD take the top-`k` highest-degree vertices as landmarks (§6.3: "we chose
//! top 20 vertices as landmarks after sorting based on decreasing order of
//! their degrees"), and PLL processes *all* vertices in that order.

use crate::csr::CsrGraph;
use crate::VertexId;

/// All vertices sorted by decreasing degree, ties broken by increasing id
/// (deterministic, matching the paper's setup).
pub fn degree_descending(g: &CsrGraph) -> Vec<VertexId> {
    let n = g.num_vertices();
    ranks(n, &degree_descending_ranks(n, |v| g.degree(v)))
}

/// The position of every vertex `0..n` in the [`degree_descending`] order:
/// `rank[v]` counts the vertices of larger degree, plus those of equal
/// degree and smaller id. One counting sort, `O(n + max degree)`.
///
/// This is the single definition of the canonical degree order. The
/// in-memory sparse view numbers its vertices by it, and the packed
/// reader derives its view ids from the stored degrees with it, so the
/// two cannot disagree.
pub fn degree_descending_ranks(n: usize, degree: impl Fn(VertexId) -> usize) -> Vec<VertexId> {
    let max = (0..n as VertexId).map(&degree).max().unwrap_or(0);
    // Bucket `max - d` holds degree `d`, so ascending buckets are
    // descending degrees; `next[b]` becomes the first rank of bucket `b`.
    let mut next = vec![0 as VertexId; max + 1];
    for v in 0..n as VertexId {
        next[max - degree(v)] += 1;
    }
    let mut at = 0;
    for slot in &mut next {
        at += std::mem::replace(slot, at);
    }
    // Ascending ids within a bucket: ties break by increasing id.
    (0..n as VertexId)
        .map(|v| {
            let slot = &mut next[max - degree(v)];
            *slot += 1;
            *slot - 1
        })
        .collect()
}

/// The `k` highest-degree vertices (deterministic tie-breaking by id).
/// Clamped to `n`.
pub fn top_degree(g: &CsrGraph, k: usize) -> Vec<VertexId> {
    let mut order = degree_descending(g);
    order.truncate(k.min(g.num_vertices()));
    order
}

/// A permutation mapping each vertex to its rank in `order` (inverse
/// permutation). Vertices absent from `order` map to `u32::MAX`.
pub fn ranks(n: usize, order: &[VertexId]) -> Vec<u32> {
    let mut rank = vec![u32::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        rank[v as usize] = i as u32;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn degree_order_is_descending_with_id_ties() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)]);
        // degrees: 0:3, 1:2, 2:2, 3:2, 4:1
        assert_eq!(degree_descending(&g), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn counting_sort_matches_a_comparison_sort() {
        for g in [generate::barabasi_albert(300, 3, 4), generate::grid(5, 7), CsrGraph::empty(6)] {
            let mut want: Vec<VertexId> = g.vertices().collect();
            want.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
            let order = degree_descending(&g);
            assert_eq!(order, want);
            assert_eq!(
                degree_descending_ranks(g.num_vertices(), |v| g.degree(v)),
                ranks(g.num_vertices(), &order)
            );
        }
        assert!(degree_descending_ranks(0, |_| 0).is_empty());
    }

    #[test]
    fn top_degree_selects_hub() {
        let g = generate::star(10);
        assert_eq!(top_degree(&g, 1), vec![0]);
        assert_eq!(top_degree(&g, 3), vec![0, 1, 2]);
        assert_eq!(top_degree(&g, 100).len(), 10);
    }

    #[test]
    fn ranks_inverse_permutation() {
        let order = vec![3u32, 1, 0];
        let r = ranks(4, &order);
        assert_eq!(r, vec![2, 1, u32::MAX, 0]);
    }
}

//! The benchmark instance, shared by every workload: two Barabási–Albert
//! communities joined only through landmark–landmark edges, so a 2-shard
//! range partition respects the components of `G[V∖R]` and routed answers
//! are exact by the deployment contract.

use crate::rng::{derive, Rng};
use hcl_core::PartitionMap;
use hcl_graph::{generate, order, traversal, CsrGraph, GraphBuilder, SearchSpace, VertexId};
use std::sync::Arc;

/// Vertices per community (the two together match `bench_query`'s full
/// 100k-vertex size).
pub const COMMUNITY_VERTICES: usize = 50_000;
/// Barabási–Albert attachment degree.
pub const ATTACH_DEGREE: usize = 8;
/// Top-degree hubs of each community taken as landmarks (20 in total).
pub const HUBS_PER_COMMUNITY: usize = 10;
/// Shards of the routed deployment (a contiguous range partition).
pub const SHARDS: u32 = 2;
/// Non-edges cycled through by `UPDATE` traffic and probes.
pub const EDITS: usize = 3;
/// Reference answers re-checked against plain BiBFS at set-up.
pub const BFS_CHECK_PAIRS: usize = 500;

pub struct Instance {
    pub graph: Arc<CsrGraph>,
    /// Landmarks in rank order (degree descending, id ascending).
    pub landmarks: Vec<VertexId>,
}

impl Instance {
    pub fn generate(seed: u64) -> Instance {
        let a = generate::barabasi_albert(COMMUNITY_VERTICES, ATTACH_DEGREE, derive(seed, 1));
        let b = generate::barabasi_albert(COMMUNITY_VERTICES, ATTACH_DEGREE, derive(seed, 2));
        let offset = COMMUNITY_VERTICES as VertexId;
        let hubs_a = order::top_degree(&a, HUBS_PER_COMMUNITY);
        let hubs_b: Vec<VertexId> =
            order::top_degree(&b, HUBS_PER_COMMUNITY).iter().map(|&v| v + offset).collect();
        let mut builder = GraphBuilder::with_capacity(
            2 * COMMUNITY_VERTICES,
            a.num_edges() + b.num_edges() + HUBS_PER_COMMUNITY,
        );
        for (u, v) in a.edges() {
            builder.add_edge(u, v).expect("community A edge in range");
        }
        for (u, v) in b.edges() {
            builder.add_edge(u + offset, v + offset).expect("community B edge in range");
        }
        for (&x, &y) in hubs_a.iter().zip(&hubs_b) {
            builder.add_edge(x, y).expect("bridge edge in range");
        }
        let graph = builder.build();
        let mut landmarks: Vec<VertexId> = hubs_a.into_iter().chain(hubs_b).collect();
        landmarks.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
        Instance { graph: Arc::new(graph), landmarks }
    }

    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    pub fn partition(&self) -> PartitionMap {
        PartitionMap::range(self.num_vertices(), SHARDS, &self.landmarks)
    }

    /// `EDITS` non-edges, each joining a neighbour `u` of a landmark `r`
    /// to a vertex `v` of the same community at least 3 hops from `r`, so
    /// inserting it moves `v`'s landmark distance and the update has real
    /// work to do. Drawn from `seed`; `ADD` then `DEL` of one returns the
    /// graph to the base instance.
    pub fn edit_set(&self, seed: u64) -> Vec<(VertexId, VertexId)> {
        let mut rng = Rng::new(derive(seed, 3));
        let community = COMMUNITY_VERTICES as VertexId;
        let landmark = |x: VertexId| self.landmarks.contains(&x);
        let mut edits = Vec::new();
        while edits.len() < EDITS {
            let r = self.landmarks[rng.below(self.landmarks.len() as u64) as usize];
            let from_r = traversal::bfs_distances(&self.graph, r);
            let neighbours: Vec<VertexId> =
                self.graph.neighbors(r).iter().copied().filter(|&x| !landmark(x)).collect();
            if neighbours.is_empty() {
                continue;
            }
            let base = r / community * community;
            for _ in 0..1000 {
                let u = neighbours[rng.below(neighbours.len() as u64) as usize];
                let v = base + rng.below(COMMUNITY_VERTICES as u64) as VertexId;
                let edit = (u.min(v), u.max(v));
                if from_r[v as usize] >= 3
                    && !landmark(v)
                    && !self.graph.has_edge(u, v)
                    && !edits.contains(&edit)
                {
                    edits.push(edit);
                    break;
                }
            }
        }
        edits
    }

    /// The graph after inserting `edit` (one graph version of `update-mix`).
    pub fn with_edit(&self, (u, v): (VertexId, VertexId)) -> CsrGraph {
        self.graph.with_edge(u, v).expect("edit set holds non-edges only")
    }
}

/// Re-checks `reference` on a fixed sample of pairs against plain BiBFS on
/// `graph`, which shares no code with the labelling.
pub fn check_reference_by_bfs(
    graph: &CsrGraph,
    reference: &hcl_core::SharedOracle,
    seed: u64,
) -> Result<(), String> {
    let mut rng = Rng::new(derive(seed, 4));
    let mut space = SearchSpace::new(graph.num_vertices());
    let n = graph.num_vertices() as u64;
    for _ in 0..BFS_CHECK_PAIRS {
        let (s, t) = (rng.below(n) as VertexId, rng.below(n) as VertexId);
        let truth = space.bibfs_distance(graph, s, t);
        let got = reference.distance(s, t);
        if got != truth {
            return Err(format!("reference d({s},{t}) = {got:?}, BiBFS says {truth:?}"));
        }
    }
    Ok(())
}

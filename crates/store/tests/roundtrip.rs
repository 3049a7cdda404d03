//! Pack → view round-trip: a packed index must reproduce the original
//! labelling, highway, and sparsified CSR exactly, and queries over the
//! mapped bytes must agree with the in-memory fast path on every input —
//! every generator family, disconnected graphs, landmark endpoints, and
//! random instances under proptest.

use hcl_core::{
    HighwayCoverLabelling, LabelStorage, QueryContext, SharedOracle, SparseNeighbors, SparseView,
};
use hcl_graph::{generate, CsrGraph, VertexId};
use hcl_store::{pack, save_packed, IndexView, PackedOracle};
use proptest::prelude::*;

fn build(g: &CsrGraph, k: usize) -> (HighwayCoverLabelling, SparseView) {
    let landmarks = hcl_graph::order::top_degree(g, k);
    let (hcl, _) = HighwayCoverLabelling::build(g, &landmarks).unwrap();
    let sparse = SparseView::build(g, hcl.highway());
    (hcl, sparse)
}

/// The packed view must return byte-for-byte identical index content.
fn assert_view_matches(
    view: &IndexView,
    hcl: &HighwayCoverLabelling,
    sparse: &SparseView,
    tag: &str,
) {
    let n = hcl.labels().num_vertices();
    let r = hcl.num_landmarks();
    assert_eq!(view.num_vertices(), n, "{tag}: n");
    assert_eq!(view.num_landmarks(), r, "{tag}: r");
    assert_eq!(view.landmarks(), hcl.highway().landmarks(), "{tag}: landmark list");
    assert_eq!(view.total_label_entries(), hcl.labels().total_entries() as u64, "{tag}: entries");
    for rank in 0..r as u32 {
        assert_eq!(view.highway_row(rank), hcl.highway().row(rank), "{tag}: highway row {rank}");
    }
    for v in 0..n as VertexId {
        assert_eq!(view.rank(v), hcl.highway().rank(v), "{tag}: rank({v})");
        let packed: Vec<(u32, u32)> = view.label(v).collect();
        let original: Vec<(u32, u32)> =
            hcl.labels().label(v).iter().map(|e| (e.landmark as u32, e.dist as u32)).collect();
        assert_eq!(packed, original, "{tag}: label({v})");
        assert_eq!(view.sparse_neighbors(v), sparse.graph().neighbors(v), "{tag}: sparse({v})");
    }
}

#[test]
fn round_trip_preserves_index_on_all_families() {
    let families: Vec<(&str, CsrGraph)> = vec![
        ("erdos_renyi", generate::erdos_renyi(70, 150, 1)),
        ("barabasi_albert", generate::barabasi_albert(90, 3, 2)),
        ("watts_strogatz", generate::watts_strogatz(80, 4, 0.2, 3)),
        ("web_copying", generate::web_copying(100, 4, 0.3, 4)),
        ("random_tree", generate::random_tree(60, 5)),
        ("grid", generate::grid(8, 9)),
        ("path", generate::path(40)),
        ("cycle", generate::cycle(30)),
        (
            "disconnected",
            CsrGraph::from_edges(12, &[(0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (9, 10)]),
        ),
    ];
    for (name, g) in &families {
        for k in [0usize, 1, 4, 10] {
            let (hcl, sparse) = build(g, k);
            let image = pack(&hcl, &sparse).unwrap();
            let view = IndexView::from_bytes(&image).unwrap();
            assert_view_matches(&view, &hcl, &sparse, &format!("{name} k={k}"));
        }
    }
}

#[test]
fn packed_queries_match_in_memory_on_all_families() {
    let families: Vec<(&str, CsrGraph)> = vec![
        ("barabasi_albert", generate::barabasi_albert(120, 3, 11)),
        ("watts_strogatz", generate::watts_strogatz(90, 4, 0.2, 13)),
        (
            "disconnected",
            CsrGraph::from_edges(14, &[(0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (9, 10), (12, 13)]),
        ),
    ];
    for (name, g) in &families {
        for k in [0usize, 2, 6] {
            let (hcl, sparse) = build(g, k);
            let image = pack(&hcl, &sparse).unwrap();
            let view = IndexView::from_bytes(&image).unwrap();
            let mut packed_ctx = QueryContext::new(g.num_vertices());
            let mut mem_ctx = QueryContext::new(g.num_vertices());
            let landmarks = hcl.highway().landmarks().to_vec();
            let n = g.num_vertices() as VertexId;
            // Grid of pairs that always includes every landmark endpoint.
            let sources: Vec<VertexId> =
                (0..n).step_by(7).chain(landmarks.iter().copied()).collect();
            for &s in &sources {
                for t in (0..n).step_by(3).chain(landmarks.iter().copied()) {
                    let want = hcl.distance_sparse(&sparse, &mut mem_ctx, s, t);
                    let got = hcl_core::storage::distance_on(&view, &mut packed_ctx, s, t);
                    assert_eq!(got, want, "{name} k={k}: {s}->{t}");
                    let want_bound = hcl.upper_bound_with(&mut mem_ctx, s, t);
                    let got_bound = hcl_core::storage::upper_bound_on(&view, &mut packed_ctx, s, t);
                    assert_eq!(got_bound, want_bound, "{name} k={k}: bound {s}->{t}");
                }
            }
        }
    }
}

#[test]
fn packed_oracle_serves_from_disk_via_mmap() {
    let dir = std::env::temp_dir().join("hcl_store_roundtrip_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.hclx");

    let g = generate::barabasi_albert(400, 4, 21);
    let (hcl, sparse) = build(&g, 12);
    save_packed(&hcl, &sparse, &path).unwrap();

    let packed = PackedOracle::open(&path).unwrap();
    assert_eq!(packed.num_vertices(), 400);
    let mem: SharedOracle<&CsrGraph> = SharedOracle::with_graph(&g, hcl.clone());

    // Pooled single queries and the shared batch machinery agree with the
    // in-memory oracle.
    let pairs: Vec<(VertexId, VertexId)> = (0..400u32)
        .step_by(11)
        .flat_map(|s| (0..400u32).step_by(37).map(move |t| (s, t)))
        .chain(hcl.highway().landmarks().iter().map(|&r| (r, 399)))
        .collect();
    for &(s, t) in &pairs {
        assert_eq!(packed.distance(s, t), mem.distance(s, t), "{s}->{t}");
        assert_eq!(packed.upper_bound(s, t), mem.upper_bound(s, t), "bound {s}->{t}");
    }
    assert_eq!(packed.batch_distances(&pairs, 2), mem.batch_distances(&pairs, 2));

    // The compression the format exists for: the index sections beat the
    // plain serialisation comfortably on a scale-free instance.
    let view = packed.view();
    assert!(
        view.packed_index_bytes() * 4 <= view.plain_index_bytes() * 3,
        "packed {} vs plain {}",
        view.packed_index_bytes(),
        view.plain_index_bytes()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mapped_view_serves_sparse_rows_from_the_mapping() {
    // The zero-copy guard: every neighbour row the bounded search reads
    // must point into the file mapping. A reader that copies the adjacency
    // out again (as format v1's did) fails here.
    let dir = std::env::temp_dir().join("hcl_store_zero_copy_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.hclx");
    let g = generate::barabasi_albert(500, 4, 8);
    let (hcl, sparse) = build(&g, 10);
    save_packed(&hcl, &sparse, &path).unwrap();

    let packed = PackedOracle::open(&path).unwrap();
    let view = packed.view();
    assert!(view.is_mapped(), "the file must be mapped on this platform");
    let file = view.as_bytes().as_ptr_range();
    let file = file.start as usize..=file.end as usize;
    for v in 0..g.num_vertices() as VertexId {
        let row = view.sparse_neighbors(v).as_ptr_range();
        assert!(
            file.contains(&(row.start as usize)) && file.contains(&(row.end as usize)),
            "row of view vertex {v} lies outside the mapping"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn packing_a_patched_view_writes_the_canonical_order() {
    use hcl_core::update::{apply_edit, EdgeEdit};
    use hcl_graph::traversal::bfs_distances;

    // `with_edit` keeps the view's pre-edit order; the packed file must
    // still hold the rows in the order the reader derives from the new
    // degrees. Every edit below changes a degree, so a stale order would
    // hand rows to the wrong vertices.
    let g = generate::watts_strogatz(48, 4, 0.2, 5);
    let (hcl, sparse) = build(&g, 4);
    let landmarks = hcl.highway().landmarks().to_vec();
    let free: Vec<VertexId> = (0..48).filter(|v| !landmarks.contains(v)).collect();
    let (a, b) = (free[0], free[1..].iter().copied().find(|&w| !g.has_edge(free[0], w)).unwrap());
    let (c, d) =
        g.edges().find(|&(u, v)| !landmarks.contains(&u) && !landmarks.contains(&v)).unwrap();

    let mut graph = g.clone();
    let (mut labelling, mut view) = (hcl, sparse);
    for edit in [EdgeEdit::Add(a, b), EdgeEdit::Delete(c, d)] {
        let next = apply_edit(&graph, &labelling, &view, edit).unwrap();
        (graph, labelling, view) = (next.graph, next.labelling, next.sparse);

        let packed = IndexView::from_bytes(&pack(&labelling, &view).unwrap()).unwrap();
        let fresh = SparseView::build(&graph, labelling.highway());
        let n = graph.num_vertices() as VertexId;
        assert!(
            (0..n).any(|v| view.view_of(v) != fresh.view_of(v)),
            "{edit}: the edit must leave the patched view's order stale"
        );
        let mem = SharedOracle::from_parts(
            std::sync::Arc::new(graph.clone()),
            std::sync::Arc::new(labelling.clone()),
            std::sync::Arc::new(view.clone()),
        );
        let mut ctx = QueryContext::new(n as usize);
        for s in 0..n {
            assert_eq!(packed.view_of(s), fresh.view_of(s), "{edit}: view id of {s}");
            let truth = bfs_distances(&graph, s);
            for t in 0..n {
                let got = hcl_core::storage::distance_on(&packed, &mut ctx, s, t);
                let want = (truth[t as usize] != hcl_graph::INF).then_some(truth[t as usize]);
                assert_eq!(got, want, "{edit}: packed {s}->{t} vs BFS");
                assert_eq!(got, mem.distance(s, t), "{edit}: packed {s}->{t} vs memory");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random Erdős–Rényi instances with random landmark counts: the
    /// packed view reproduces the index exactly and answers a random pair
    /// sample (biased to touch landmarks) identically to the in-memory
    /// path.
    #[test]
    fn packed_path_matches_in_memory_on_random_instances(
        n in 10usize..120,
        extra_edges in 0usize..200,
        k in 0usize..12,
        seed in 0u64..1000,
    ) {
        let g = generate::erdos_renyi(n, n / 2 + extra_edges, seed);
        let (hcl, sparse) = build(&g, k.min(n));
        let image = pack(&hcl, &sparse).unwrap();
        let view = IndexView::from_bytes(&image).unwrap();
        prop_assert_eq!(view.num_vertices(), g.num_vertices());
        prop_assert_eq!(view.landmarks(), hcl.highway().landmarks());
        let landmarks = hcl.highway().landmarks();
        let mut packed_ctx = QueryContext::new(g.num_vertices());
        let mut mem_ctx = QueryContext::new(g.num_vertices());
        let nv = g.num_vertices() as u64;
        for i in 0..64u64 {
            // Deterministic pair stream biased to touch landmarks.
            let s = if i % 5 == 0 && !landmarks.is_empty() {
                landmarks[(i / 5) as usize % landmarks.len()]
            } else {
                ((i.wrapping_mul(2654435761).wrapping_add(seed)) % nv) as u32
            };
            let t = ((i.wrapping_mul(40503).wrapping_add(seed * 7 + 1)) % nv) as u32;
            let want = hcl.distance_sparse(&sparse, &mut mem_ctx, s, t);
            let got = hcl_core::storage::distance_on(&view, &mut packed_ctx, s, t);
            prop_assert_eq!(got, want, "n={} k={} seed={} {}->{}", n, k, seed, s, t);
        }
    }
}


import numpy as np

from coopnav.conflict import (ConflictGraph, audibility_masks,
                              build_conflict_graph, greedy_color)
from coopnav.formation import AsvLayout


def acoustic_conflict(p_i, p_j, layout: AsvLayout, r_hf: float) -> bool:
    """True iff some ASV is within r_hf (horizontal) of both AUV positions:
    the pairwise predicate the mask-built conflict graph must agree with."""
    pi = np.asarray(p_i, dtype=float)[:2]
    pj = np.asarray(p_j, dtype=float)[:2]
    di = np.linalg.norm(layout.positions - pi, axis=1)
    dj = np.linalg.norm(layout.positions - pj, axis=1)
    return bool(np.any((di <= r_hf) & (dj <= r_hf)))


def has_edge(g: ConflictGraph, i: int, j: int) -> bool:
    return (min(i, j), max(i, j)) in g.edges


def max_degree(g: ConflictGraph) -> int:
    return max((len(a) for a in g.adj), default=0)


def layout(*pts):
    return AsvLayout(np.array(pts, dtype=float))


def graph(auv_xy, asvs, r_hf):
    return build_conflict_graph(audibility_masks(auv_xy, asvs.positions, r_hf))


def test_conflict_both_in_range():
    assert acoustic_conflict((0, 0), (10, 0), layout((5, 0)), 50.0)


def test_no_conflict_both_out_of_range():
    assert not acoustic_conflict((-60, 0), (60, 0), layout((0, 0)), 50.0)


def test_conflict_at_range_boundary():
    assert acoustic_conflict((-45, 0), (45, 0), layout((0, 0)), 50.0)


def test_complete_graph_when_all_audible():
    pts = [(0, 0), (10, 0), (0, 10), (10, 10)]
    g = graph(pts, layout((5, 5)), 50.0)
    assert len(g.edges) == 6
    assert max_degree(g) == 3


def test_disjoint_footprints_no_edges():
    g = graph([(-100, 0), (100, 0)],
                             layout((-100, 0), (100, 0)), 50.0)
    assert g.edges == frozenset()


def test_empty_fleet():
    g = graph([], layout((0, 0)), 50.0)
    assert g.n == 0 and g.edges == frozenset()


def test_out_of_range_auv_is_isolated_but_present():
    g = graph([(0, 0), (1, 0), (500, 500)], layout((0, 0)), 50.0)
    assert g.n == 3
    assert has_edge(g, 0, 1)
    assert not g.adj[2]


def test_greedy_triangle():
    g = ConflictGraph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
    c = greedy_color(g)
    assert c.color == [0, 1, 2] and c.k == 3


def test_greedy_isolated_vertices():
    c = greedy_color(ConflictGraph(4, frozenset()))
    assert c.color == [0, 0, 0, 0] and c.k == 1


def test_greedy_path():
    c = greedy_color(ConflictGraph(3, frozenset({(0, 1), (1, 2)})))
    assert c.color == [0, 1, 0] and c.k == 2


def test_coloring_properties_random_geometric():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n_auv = int(rng.integers(1, 12))
        n_asv = int(rng.integers(1, 4))
        L = float(rng.uniform(40, 160))
        pts = rng.uniform(-L / 2, L / 2, size=(n_auv, 2))
        asv = AsvLayout(rng.uniform(-L / 2, L / 2, size=(n_asv, 2)))
        g = graph(pts, asv, 50.0)
        c = greedy_color(g)
        # proper
        for i, j in g.edges:
            assert c.color[i] != c.color[j]
        # within the greedy bound
        assert c.k <= max_degree(g) + 1
        # color classes pairwise non-adjacent
        for group in c.groups():
            for a_i, a in enumerate(group):
                for b in group[a_i + 1:]:
                    assert not has_edge(g, a, b)
        # deterministic
        assert greedy_color(g).color == c.color


def test_edge_iff_shared_audible_asv():
    # cross-check the graph builder against the pairwise predicate
    rng = np.random.default_rng(7)
    pts = rng.uniform(-70, 70, size=(8, 2))
    asv = AsvLayout(rng.uniform(-70, 70, size=(3, 2)))
    g = graph(pts, asv, 50.0)
    for i in range(8):
        for j in range(i + 1, 8):
            assert has_edge(g, i, j) == acoustic_conflict(pts[i], pts[j], asv, 50.0)

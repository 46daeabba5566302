import numpy as np
import pytest

from depcoder.connectivity import NODE_CAP, ClosureError, connectivity
from depcoder.dependence import DependenceGraph

from generators import random_digraph
from oracles import oracle_connectivity


def graph(n, pairs):
    return DependenceGraph(n_nodes=n, edges={(u, v, "data") for u, v in pairs})


def test_chain_composes_distances():
    con = connectivity(graph(3, [(0, 1), (1, 2)]))
    assert con.edges() == [(0, 1, 1), (0, 2, 2), (1, 2, 1)]


def test_worked_example_six_instructions():
    # instruction 5 depends on 1 and 4, 4 depends on 3, 6 depends on 5
    # (1-based); instruction 2 feeds nothing on that chain
    edges = [(4, 0), (4, 3), (3, 2), (5, 4)]
    con = connectivity(graph(6, edges))
    assert np.flatnonzero(con.dist[4]).tolist() == [0, 2, 3, 5]
    assert con.dist[4, 0] == 1
    assert con.dist[4, 2] == 2  # transitive, through instruction 4
    assert con.dist[4, 3] == 1
    assert con.dist[4, 5] == 1
    assert con.dist[4, 1] == 0


def test_empty_edge_set():
    assert connectivity(graph(4, [])).edges() == []


def test_mixed_direction_takes_minimum():
    # u reaches v in 3 hops, v reaches u in 1
    con = connectivity(graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert con.dist[0, 3] == 1
    assert con.dist[0, 2] == 2  # 2->3->0 beats 0->1->2


def test_matches_bfs_oracle_on_random_digraphs():
    rng = np.random.default_rng(99)
    for trial in range(500):
        n, edges = random_digraph(rng, max_nodes=64)
        con = connectivity(graph(n, edges))
        want = oracle_connectivity(n, edges)
        got = {(u, v): d for u, v, d in con.edges()}
        assert got == want, f"trial {trial}"


def test_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, edges = random_digraph(rng, max_nodes=32)
        con = connectivity(graph(n, edges))
        assert np.array_equal(con.dist, con.dist.T)


def test_triangle_bound_on_directed_distances():
    rng = np.random.default_rng(17)
    from oracles import bfs_all_pairs
    for _ in range(30):
        n, edges = random_digraph(rng, max_nodes=24)
        dist = bfs_all_pairs(n, edges)
        for (u, w), duw in dist.items():
            for v in range(n):
                if (w, v) in dist and (u, v) in dist:
                    assert dist[(u, v)] <= duw + dist[(w, v)]


def test_node_cap():
    with pytest.raises(ClosureError, match="closure cap.*truncate"):
        connectivity(graph(NODE_CAP + 1, []))


def test_serialization_roundtrip():
    con = connectivity(graph(5, [(0, 1), (1, 2), (4, 2)]))
    d = con.to_dict()
    back = np.zeros((d["nodes"], d["nodes"]), dtype=np.int32)
    for u, v, w in d["edges"]:
        back[u, v] = back[v, u] = w
    assert np.array_equal(back, con.dist)
    assert d["edges"] == sorted(d["edges"])

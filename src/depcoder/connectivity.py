"""Undirected connectivity graph with dependence distances.

One level-synchronous breadth-first search from every instruction at once
closes the dependence graph: each node holds the set of sources that reach
it as a Python-int bitset, and a level pushes only the bits that arrived at
the level before.  That costs O(D·E) bitset operations, where D is the
longest shortest path, so it is fast on the short, bushy graphs of real
functions and slower than one BFS per source on long chains and cycles.  Two
nodes are connected at the shortest directed path between them.
``ConnectivityGraph.to_json`` writes the graph's artifact text straight from
the distance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dependence import DependenceGraph
from .errors import ClosureError
from .jsontext import int_rows

#: largest graph the closure accepts; kept until the benchmark expects over-cap functions to pass
NODE_CAP = 512


@dataclass
class ConnectivityGraph:
    n_nodes: int
    #: dense symmetric distance matrix; 0 means "not connected" (D >= 1 on edges)
    dist: np.ndarray

    def to_json(self) -> str:
        """Compact JSON text of ``{"edges": ..., "nodes": n}`` with sorted keys;
        ``edges`` holds [u, v, distance] for every connected pair u < v, in
        row-major order."""
        u, v = np.nonzero(np.triu(self.dist, 1))
        edges = int_rows(np.stack([u, v, self.dist[u, v]], axis=1))
        return f'{{"edges":{edges},"nodes":{self.n_nodes}}}'


def connectivity(dep: DependenceGraph) -> ConnectivityGraph:
    """All-pairs shortest directed path lengths, each pair at its shorter reaching direction."""
    n = dep.n_nodes
    if n > NODE_CAP:
        raise ClosureError(f"{n} nodes exceed the closure cap of {NODE_CAP}; truncate the "
                           "function upstream (tokenizer max_len) before building masks")
    # BFS levels as unsigned, less one: an unreached 0 wraps to the largest value, so the
    # minimum of the two directions is the shorter reached one, and 0 again if neither is
    u = _levels(n, dep.directed_pairs()).view(np.uint32) - 1
    return ConnectivityGraph(n, (np.minimum(u, u.T) + 1).view(np.int32))


def _levels(n: int, pairs: set[tuple[int, int]]) -> np.ndarray:
    """int32 ``d[v, s]``: the BFS level at which source s first reaches v, and 0
    where it never does and on the diagonal.

    One level-synchronous BFS from every source at once: bit s of ``reach[v]``
    is set once source s has reached v, and the level at which it does is
    ORed into ``planes[k]``, which holds bit k of every such level.  The bit
    sets are freed on return, before the caller folds the levels.
    """
    succ = [[] for _ in range(n)]
    for u, v in pairs:
        succ[u].append(v)
    reach = [1 << v for v in range(n)]  # level 0: each source reaches itself
    frontier = list(enumerate(reach))  # (node, sources that first reached it last level)
    planes: list[list[int]] = []
    level = 0
    while frontier:
        level += 1
        if level.bit_length() > len(planes):
            planes.append([0] * n)
        level_planes = [planes[k] for k in range(level.bit_length()) if level >> k & 1]
        pushed: dict[int, int] = {}
        for u, bits in frontier:
            for v in succ[u]:
                pushed[v] = pushed.get(v, 0) | bits
        frontier = []
        for v, bits in pushed.items():
            bits &= ~reach[v]  # also drops self-loops, since reach[v] holds bit v
            if bits:
                reach[v] |= bits
                frontier.append((v, bits))
                for plane in level_planes:
                    plane[v] |= bits
    d = np.zeros((n, n), dtype=np.int32)
    nb = (n + 7) // 8
    for k, plane in enumerate(planes):
        raw = np.frombuffer(b"".join(x.to_bytes(nb, "little") for x in plane), dtype=np.uint8)
        bits = np.unpackbits(raw.reshape(n, nb), axis=1, count=n, bitorder="little")
        d |= bits.astype(np.int32) << k
    return d

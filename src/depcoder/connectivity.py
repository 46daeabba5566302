"""Undirected connectivity graph with dependence distances.

A breadth-first search from every instruction closes the dependence graph in
O(n·(n+E)); two nodes are connected at the shortest directed path between them.
``ConnectivityGraph.to_json`` writes the graph's artifact text straight from
the distance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dependence import DependenceGraph
from .jsontext import int_rows

#: largest graph the closure accepts; kept until the benchmark expects over-cap functions to pass
NODE_CAP = 512


class ClosureError(Exception):
    pass


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
    succ = [[] for _ in range(n)]
    for u, v in dep.directed_pairs():
        succ[u].append(v)
    d = np.zeros((n, n), dtype=np.int32)
    for src in range(n):  # row[v]: BFS level of v from src, 0 while unreached
        row, queue = [0] * n, [src]
        for u in queue:  # the queue grows while it is walked
            for v in succ[u]:
                if not row[v] and v != src:  # also drops self-loops
                    row[v] = row[u] + 1
                    queue.append(v)
        d[src] = row
    return ConnectivityGraph(n, np.where(d * d.T > 0, np.minimum(d, d.T), np.maximum(d, d.T)))

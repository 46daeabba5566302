"""Undirected connectivity graph with dependence distances.

The directed dependence graph is closed with Floyd-Warshall; two nodes are
connected when either reaches the other, and the distance is the shortest
directed path length (the minimum over the two directions when both exist).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dependence import DependenceGraph

#: largest dependence graph the (cubic) closure accepts
NODE_CAP = 512


class ClosureError(Exception):
    pass


@dataclass
class ConnectivityGraph:
    n_nodes: int
    #: dense symmetric distance matrix; 0 means "not connected" (D >= 1 on edges)
    dist: np.ndarray

    def edges(self) -> list[tuple[int, int, int]]:
        """(u, v, distance) for every connected pair u < v, in row-major order."""
        u, v = np.nonzero(np.triu(self.dist, 1))
        return list(zip(u.tolist(), v.tolist(), self.dist[u, v].tolist()))

    def to_dict(self) -> dict:
        return {"nodes": self.n_nodes, "edges": [[u, v, d] for u, v, d in self.edges()]}


def connectivity(dep: DependenceGraph) -> ConnectivityGraph:
    """All-pairs shortest directed path lengths, folded to undirected edges."""
    n = dep.n_nodes
    if n > NODE_CAP:
        raise ClosureError(
            f"{n} nodes exceed the closure cap of {NODE_CAP}; truncate the "
            "function upstream (tokenizer max_len) before building masks")
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v in dep.directed_pairs():
        if u != v:
            d[u, v] = 1.0
    for k in range(n):
        np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :], out=d)
    sym = np.minimum(d, d.T)
    np.fill_diagonal(sym, np.inf)
    dist = np.where(np.isfinite(sym), sym, 0.0).astype(np.int32)
    return ConnectivityGraph(n_nodes=n, dist=dist)

"""The attention mask of one token sequence, as a row-major pair list.

The mask is the union of three parts: a global part routing everything
through ``[CLS]``, a local part confining attention to tokens of the same
instruction, and a dependence part enabling bidirectional attention between
the ``<INST>`` delimiters of connected instructions, each pair carrying the
instructions' distance.  ``build_bundle``, the only code that builds a mask,
reads the pairs off the token blocks and the kept instructions' block
``dist[:k, :k]`` of the distances (``tokenize`` keeps a prefix), with no
N×N array.  The encoder runs on the ``AttentionPairs`` it returns, and
``sparse_masks`` writes the JSON text of the view the ``pipeline`` command
emits straight from them.

The attention's dense (heads, N, N) products are two methods of the pair
list that run in one workspace per thread and dtype, grown to the largest
heads·N² seen and all zeros between calls: ``gather_product`` writes a
product there and takes its entries at the pairs, and ``spread_product``
writes values at the pairs and multiplies by that matrix.  Each zeroes the
workspace before it returns, so no caller code runs while it is in use.  A
fresh (heads, N, N) array per product, 4 MB at N 512, made long-function
encoding page-fault.
"""

from __future__ import annotations

import threading

import numpy as np

from .frontend import TokenSequence
from .jsontext import int_rows

#: the dense ``AttentionPairs.M`` view's stand-in for -inf at disabled entries
MASK_NEG = -1.0e9


class _Workspaces(threading.local):
    """Each thread's zero workspaces by dtype (a matmul runs without the GIL)."""

    def __init__(self):
        self.buffers: dict[np.dtype, np.ndarray] = {}


_WORKSPACES = _Workspaces()


def _workspace(heads: int, n: int, dtype) -> np.ndarray:
    """A zero (heads, n, n) view of this thread's workspace for ``dtype``,
    grown as needed, which the caller leaves zero."""
    size, dtype = heads * n * n, np.dtype(dtype)
    buf = _WORKSPACES.buffers.get(dtype)
    if buf is None or len(buf) < size:
        buf = _WORKSPACES.buffers[dtype] = np.zeros(size, dtype=dtype)
    return buf[:size].reshape(heads, n, n)


class AttentionPairs:
    """The enabled entries of a mask as a row-major pair list.

    ``flat`` holds their flat indices ``i * n + j`` in increasing order, row
    ``i``'s pairs are ``flat[starts[i]:starts[i] + counts[i]]``, and
    ``biased`` / ``r`` are the positions in the list that carry a distance
    and that distance.  The constructor takes the distance at every pair
    (0 for none).  Every row needs an enabled entry (the global part gives
    every real row one): a segment reduction over an empty row would read its
    neighbour's first entry, so an empty row is a bug and raises
    ``RuntimeError``.
    """

    def __init__(self, n: int, flat: np.ndarray, r: np.ndarray):
        self.n = n
        self.flat = flat
        self.counts = np.bincount(flat // n, minlength=n)
        if not self.counts.all():
            rows = np.flatnonzero(self.counts == 0).tolist()
            raise RuntimeError(f"attention rows {rows} have no enabled entry")
        self.starts = np.cumsum(self.counts) - self.counts
        self.biased = np.flatnonzero(r)
        self.r = r[self.biased]

    def __len__(self) -> int:
        return len(self.flat)

    @property
    def M(self) -> np.ndarray:
        """Dense float32 mask, 0 at the pairs and ``MASK_NEG`` elsewhere, built
        on each access for the benchmark's tracer and the tests' dense oracle
        comparisons only.  ROADMAP item 1 deletes it, ``R`` and ``MASK_NEG``."""
        m = np.full(self.n * self.n, MASK_NEG, dtype=np.float32)
        m[self.flat] = 0.0
        return m.reshape(self.n, self.n)

    @property
    def R(self) -> np.ndarray:
        """Dense distance matrix, 0 off the biased pairs; a view like ``M``."""
        out = np.zeros(self.n * self.n, dtype=self.r.dtype)
        out[self.flat[self.biased]] = self.r
        return out.reshape(self.n, self.n)

    def gather_product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(heads, n, n) product ``a @ b`` -> (heads, P): its entries at the pairs."""
        dense = _workspace(len(a), self.n, np.result_type(a, b))
        try:
            np.matmul(a, b, out=dense)
            return np.take(dense.reshape(len(a), -1), self.flat, axis=1)
        finally:
            dense.fill(0)

    def spread_product(self, values: np.ndarray, b: np.ndarray,
                       transpose: bool = False) -> np.ndarray:
        """``W @ b``, or ``Wᵀ @ b`` with ``transpose``, where W is the (heads,
        n, n) matrix that holds the (heads, P) ``values`` at the pairs and
        zeros elsewhere."""
        dense = _workspace(len(values), self.n, values.dtype)
        rows = dense.reshape(len(values), -1)
        try:
            rows[:, self.flat] = values
            return (dense.transpose(0, 2, 1) if transpose else dense) @ b
        finally:
            rows[:, self.flat] = 0

    def row_max(self, values: np.ndarray) -> np.ndarray:
        """(heads, P) -> (heads, P): each pair's row maximum."""
        return np.repeat(np.maximum.reduceat(values, self.starts, axis=1),
                         self.counts, axis=1)

    def row_sum(self, values: np.ndarray) -> np.ndarray:
        """(heads, P) -> (heads, P): each pair's row sum."""
        return np.repeat(np.add.reduceat(values, self.starts, axis=1),
                         self.counts, axis=1)


def build_bundle(seq: TokenSequence, dist: np.ndarray) -> AttentionPairs:
    """The mask of ``seq`` under the instruction distance matrix ``dist``:
    the ``[CLS]`` row, the ``[CLS]`` column below it, each instruction's token
    block crossed with itself, and the ``<INST>`` pairs of the kept
    instructions that ``dist[:k, :k]`` connects.  The parts share no entry,
    so one sort puts them in row-major order."""
    n, k = len(seq), seq.n_instructions
    bounds = np.fromiter([*seq.inst_positions.values(), n], dtype=np.int64, count=k + 1)
    starts, sizes = bounds[:-1], bounds[1:] - bounds[:-1]
    # row i >= 1 of the local part is the range of c flat indices from the
    # first, f, of its instruction's block: arange(f, f + c) for every row
    first, c = np.arange(1, n) * n + np.repeat(starts, sizes), np.repeat(sizes, sizes)
    local = np.arange(c.sum()) + np.repeat(first - (np.cumsum(c) - c), c)
    block = dist[:k, :k]
    u, v = np.nonzero(block)
    dep = starts[u] * n + starts[v]
    flat = np.sort(np.concatenate([np.arange(n), np.arange(1, n) * n, local, dep]))
    r = np.zeros(len(flat), dtype=dist.dtype)
    r[np.searchsorted(flat, dep)] = block[u, v]
    return AttentionPairs(n, flat, r)


def sparse_masks(pairs: AttentionPairs) -> str:
    """Compact JSON text, keys sorted, of the serializable view of a mask:
    enabled [i, j] pairs (i <= j) per mask part plus [i, j, distance]
    triples for the <INST> pairs, all in row-major order, and ``n``.
    ``global`` is row 0, ``dependence`` the pairs that carry a distance and
    ``local`` the rest of rows 1 and up."""
    i, j = np.divmod(pairs.flat, pairs.n)
    r = np.zeros(len(pairs), dtype=np.int64)
    r[pairs.biased] = pairs.r
    upper = i <= j
    dep = upper & (r > 0)
    ij = np.stack([i, j], axis=1)
    return (f'{{"dependence":{int_rows(ij[dep])},"global":{int_rows(ij[i == 0])},'
            f'"local":{int_rows(ij[upper & (i > 0) & (r == 0)])},"n":{pairs.n},'
            f'"r":{int_rows(np.column_stack([ij[dep], r[dep]]))}}}')

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
"""

from __future__ import annotations

import numpy as np

from .frontend import TokenSequence
from .jsontext import int_rows

#: the dense ``AttentionPairs.M`` view's stand-in for -inf at disabled entries
MASK_NEG = -1.0e9


class AttentionPairs:
    """The enabled entries of a mask as a row-major pair list.

    ``flat`` holds their flat indices ``i * n + j`` in increasing order, row
    ``i``'s pairs are ``flat[starts[i]:starts[i] + counts[i]]``, and
    ``biased`` / ``r`` are the positions in the list that carry a distance
    and that distance.  The constructor takes the distance at every pair
    (0 for none).  Every row needs an enabled entry (the global part gives
    every real row one): a segment reduction over an empty row would read its
    neighbour's first entry.
    """

    def __init__(self, n: int, flat: np.ndarray, r: np.ndarray):
        self.n = n
        self.flat = flat
        self.counts = np.bincount(flat // n, minlength=n)
        if not self.counts.all():
            rows = np.flatnonzero(self.counts == 0).tolist()
            raise ValueError(f"attention rows {rows} have no enabled entry")
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

    def gather(self, dense: np.ndarray) -> np.ndarray:
        """(heads, n, n) -> (heads, P): the entries at the pairs."""
        return np.take(dense.reshape(len(dense), -1), self.flat, axis=1)

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """(heads, P) -> (heads, n, n), zero off the pairs."""
        out = np.zeros((len(values), self.n * self.n), dtype=values.dtype)
        out[:, self.flat] = values
        return out.reshape(len(values), self.n, self.n)

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

"""Attention mask and relative distance matrix for one token sequence.

The mask is the union of three parts: a global part routing everything
through ``[CLS]``, a local part confining attention to tokens of the same
instruction, and a dependence part enabling bidirectional attention between
the ``<INST>`` delimiters of connected instructions.  The dependence part is
exactly ``R > 0``, so the distance matrix ``R`` is its only source.
"Disabled" entries of the float32 mask ``M`` hold ``MASK_NEG`` and enabled
ones 0.  ``build_bundle`` is the only code that builds a bundle; callers
build one from the distances where they use it.  ``sparse_masks``, the view
the ``pipeline`` command writes, builds no bundle: it reads the pairs off
the token blocks and the kept instructions' distances.

The encoder does not add ``M`` to its logits.  It reads the bundle as
``AttentionPairs``: the enabled entries in row-major order, each row's
segment of them, and ``R`` at them, so the softmax, the distance bias and
dropout run on those entries only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frontend import TokenSequence

#: the mask's stand-in for -inf at disabled entries
MASK_NEG = -1.0e9


def global_enabled(seq: TokenSequence) -> np.ndarray:
    n = len(seq)
    en = np.zeros((n, n), dtype=bool)
    en[0, :] = True
    en[:, 0] = True
    return en


def local_enabled(seq: TokenSequence) -> np.ndarray:
    inst = np.asarray(seq.inst_of, dtype=np.int64)
    return (inst[:, None] == inst[None, :]) & (inst[:, None] != -1)


@dataclass
class MaskBundle:
    #: float32 attention mask, entries in {0, MASK_NEG}
    M: np.ndarray
    #: relative distance matrix; > 0 only between <INST> tokens of distinct
    #: connected instructions
    R: np.ndarray

    @property
    def n(self) -> int:
        return self.M.shape[0]


def build_bundle(seq: TokenSequence, dist: np.ndarray) -> MaskBundle:
    """Distance matrix gathered from the kept instructions' block of the
    instruction distance matrix ``dist``, and the union of the three mask
    parts."""
    n = len(seq)
    insts = np.fromiter(seq.inst_positions, dtype=np.int64, count=seq.n_instructions)
    pos = np.fromiter(seq.inst_positions.values(), dtype=np.int64,
                      count=seq.n_instructions)
    R = np.zeros((n, n), dtype=np.int32)
    R[np.ix_(pos, pos)] = dist[np.ix_(insts, insts)]
    M = np.where(global_enabled(seq) | local_enabled(seq) | (R > 0),
                 np.float32(0.0), np.float32(MASK_NEG))
    return MaskBundle(M=M, R=R)


def sparse_masks(seq: TokenSequence, dist: np.ndarray) -> dict:
    """Serializable view of the mask of ``seq`` under the instruction distance
    matrix ``dist``: enabled (i, j) pairs (i <= j) per mask part plus distance
    triples for the <INST> pairs, all in row-major order.  It is read off the
    token blocks and the kept instructions' block of ``dist``; the <INST>
    positions increase with the instruction index, so that block's upper
    triangle is already in row-major order."""
    n = len(seq)
    starts = list(seq.inst_positions.values())
    local = []
    for s, e in zip(starts, starts[1:] + [n]):  # each instruction's token block
        local.extend([i, j] for i in range(s, e) for j in range(i, e))
    kept = np.fromiter(seq.inst_positions, dtype=np.int64, count=len(starts))
    pos = np.array(starts, dtype=np.int64)
    block = dist[np.ix_(kept, kept)]
    u, v = np.nonzero(np.triu(block, 1))
    r = np.stack([pos[u], pos[v], block[u, v]], axis=1)
    return {
        "n": n,
        "global": [[0, j] for j in range(n)],
        "local": local,
        "dependence": r[:, :2].tolist(),
        "r": r.tolist(),
    }


class AttentionPairs:
    """The enabled entries of a bundle's mask as a row-major pair list.

    ``flat`` holds their flat indices ``i * n + j``, row ``i``'s pairs are
    ``flat[starts[i]:starts[i] + counts[i]]``, and ``biased`` / ``r`` are the
    positions in the list where ``R > 0`` and ``R`` there.  Every row needs
    an enabled entry (the global part gives every real row one): a segment
    reduction over an empty row would read its neighbour's first entry.
    """

    def __init__(self, bundle: MaskBundle):
        self.n = n = bundle.n
        self.flat = np.flatnonzero(bundle.M == 0)
        self.counts = np.bincount(self.flat // n, minlength=n)
        if not self.counts.all():
            rows = np.flatnonzero(self.counts == 0).tolist()
            raise ValueError(f"attention rows {rows} have no enabled entry")
        self.starts = np.cumsum(self.counts) - self.counts
        r = np.take(bundle.R, self.flat)
        self.biased = np.flatnonzero(r)
        self.r = r[self.biased]

    def __len__(self) -> int:
        return len(self.flat)

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

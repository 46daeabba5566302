"""The attention mask of one token sequence, or of a packed batch, as a
row-major pair list.

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

Given several sequences, ``build_bundle`` lays their rows end to end into
one block-diagonal pair list, so that a batch runs through the encoder's
row-wise work at once while no sequence attends to another (packing
without cross-contamination, Krell et al., arXiv:2107.02027).  Each
sequence is a segment, found by its row offset, its size and its range in
the pair list, as variable-length attention finds sequences by cumulative
offsets (FlashAttention, Dao et al., 2022).  One sequence on its own is
the one-segment case.  The row reductions, ``biased`` and ``r`` run over
the whole list; only the dense products go segment by segment.
Pre-training's edge masking gives ``build_bundle`` the instruction pairs
whose ``<INST>`` pairs it leaves out or puts in.

``AttentionPairs.select`` keeps the pairs of some query rows only, over the
same n columns: the encoder's last layer computes just the rows its caller
reads (a post-LN block's row depends on its own query and on every row's
keys and values, as Funnel-Transformer's pooled queries use).  Its list has
m query rows, and each segment spans a rectangular m_s × n_s block: the
segment's selected rows (none, possibly) by all of its columns.  A square
list is the m = n case; every method below runs either.

The attention's dense (heads, m, n) products are two methods of the pair
list that run one segment's block at a time: ``gather_product`` computes a
segment's block of a product and takes its entries at the segment's pairs,
and ``spread_product`` writes values at the pairs of a zero block and
multiplies by it or its transpose.  One (heads, ΣN, ΣN) product over a
packed batch is slower than its diagonal blocks.  A fresh (heads, N, N)
block, 4 MB at N 512 in float32, is served without page faults from the
heap that ``cli._keep_freed_memory`` keeps.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .frontend import TokenSequence
from .jsontext import int_rows

#: the dense ``AttentionPairs.M`` view's stand-in for -inf at disabled entries
MASK_NEG = -1.0e9


class Segment(NamedTuple):
    """One sequence of a pair list: its first query row and their count, its
    first column and the sequence's length, its pairs' range in the list,
    and their flat indices ``i * n + j`` within its own m×n block.  In a
    square list ``row`` is ``col`` and ``m`` is ``n``."""
    row: int
    m: int
    col: int
    n: int
    pairs: slice
    flat: np.ndarray


class AttentionPairs:
    """The enabled entries of a mask as a row-major pair list.

    ``flat`` holds their flat indices ``i * n + j`` in increasing order, row
    ``i``'s pairs are ``flat[starts[i]:starts[i] + counts[i]]``, and
    ``biased`` / ``r`` are the positions in the list that carry a distance
    and that distance.  The constructor takes the distance at every pair
    (0 for none).  Every row needs an enabled entry (the global part gives
    every real row one): a segment reduction over an empty row would read its
    neighbour's first entry, so an empty row is a bug and raises
    ``RuntimeError``.  ``segments`` lists the sequences (one, unless
    ``build_bundle`` packed several); no pair joins two of them.

    The list has ``m`` query rows over ``n`` columns.  It is square unless
    ``select`` made it: then ``rows`` names the sequence row of each query
    row, and ``i`` in ``i * n + j`` counts query rows.
    """

    def __init__(self, n: int, flat: np.ndarray, r: np.ndarray, rows: np.ndarray | None = None):
        self.n = n
        self.rows = rows
        self.m = n if rows is None else len(rows)
        self.flat = flat
        self.counts = np.bincount(flat // n, minlength=self.m)
        if not self.counts.all():
            empty = np.flatnonzero(self.counts == 0).tolist()
            raise RuntimeError(f"attention rows {empty} have no enabled entry")
        self.starts = np.cumsum(self.counts) - self.counts
        self.biased = np.flatnonzero(r)
        self.r = r[self.biased]
        self.segments = [Segment(0, self.m, 0, n, slice(0, len(flat)), flat)]

    def select(self, rows) -> "AttentionPairs":
        """The pairs of the query ``rows`` of this square list, sorted and
        distinct, over the same n columns, in the same order: a segment
        keeps all of its columns and those of its rows that are selected,
        none possibly.  Rows that are unsorted, repeated or out of range
        raise ``ValueError``."""
        rows = np.asarray(rows, dtype=np.int64)
        if (self.rows is not None or rows.ndim != 1 or np.any(np.diff(rows) <= 0)
                or (len(rows) and not 0 <= rows[0] <= rows[-1] < self.n)):
            raise ValueError(f"rows {rows.tolist()} are not sorted, distinct rows "
                             f"of a square list of {self.n}")
        counts = self.counts[rows]
        ends = np.concatenate([[0], np.cumsum(counts)])
        # the list positions of the selected rows' pairs, row after row
        take = np.arange(ends[-1]) + np.repeat(self.starts[rows] - ends[:-1], counts)
        query = np.repeat(np.arange(len(rows)), counts)
        col = self.flat[take] % self.n
        r = np.zeros(len(self), dtype=self.r.dtype)
        r[self.biased] = self.r
        out = AttentionPairs(self.n, query * self.n + col, r[take], rows)
        bounds = np.searchsorted(rows, [seg.row for seg in self.segments] + [self.n])
        out.segments = []
        for seg, lo, hi in zip(self.segments, bounds[:-1], bounds[1:]):
            pairs = slice(int(ends[lo]), int(ends[hi]))
            out.segments.append(Segment(int(lo), int(hi - lo), seg.col, seg.n, pairs,
                                        (query[pairs] - lo) * seg.n + col[pairs] - seg.col))
        return out

    def queries(self, h: np.ndarray) -> np.ndarray:
        """The rows of the (n, ...) ``h`` that are this list's query rows."""
        return h if self.rows is None else h[self.rows]

    def __len__(self) -> int:
        return len(self.flat)

    @property
    def M(self) -> np.ndarray:
        """Dense float32 mask, 0 at the pairs and ``MASK_NEG`` elsewhere, built
        on each access for the benchmark's tracer and the tests' dense oracle
        comparisons only.  ROADMAP item 1 deletes it, ``R`` and ``MASK_NEG``."""
        m = np.full(self.m * self.n, MASK_NEG, dtype=np.float32)
        m[self.flat] = 0.0
        return m.reshape(self.m, self.n)

    @property
    def R(self) -> np.ndarray:
        """Dense distance matrix, 0 off the biased pairs; a view like ``M``."""
        out = np.zeros(self.m * self.n, dtype=self.r.dtype)
        out[self.flat[self.biased]] = self.r
        return out.reshape(self.m, self.n)

    @property
    def positions(self) -> np.ndarray:
        """Each row's position within its segment: 0, 1, ... from every
        segment's first row."""
        return np.concatenate([np.arange(seg.n) for seg in self.segments])

    def _check(self, m: int | None, n: int | None, pairs: int | None = None) -> None:
        """Raise ``ValueError`` unless an operand's dimension over the query
        rows is ``m``, one over the columns ``n`` and one over the pairs
        ``P``, each where given: a segment's slice of a wrong-sized operand
        would fit silently."""
        if m not in (None, self.m) or n not in (None, self.n) or pairs not in (None, len(self)):
            raise ValueError(f"operands over {m} query rows, {n} columns and {pairs} pairs "
                             f"for a pair list of {self.m}×{self.n} and {len(self)} pairs")

    def gather_product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(heads, m, d) ``a`` @ (heads, d, n) ``b`` -> (heads, P): the product's
        entries at the pairs, one segment's block at a time."""
        self._check(a.shape[-2], b.shape[-1])
        heads = len(a)
        out = np.empty((heads, len(self)), np.result_type(a, b))
        for seg in self.segments:
            dense = np.matmul(a[:, seg.row:seg.row + seg.m], b[:, :, seg.col:seg.col + seg.n])
            np.take(dense.reshape(heads, -1), seg.flat, axis=1, out=out[:, seg.pairs],
                    mode="clip")
        return out

    def spread_product(self, values: np.ndarray, b: np.ndarray,
                       transpose: bool = False) -> np.ndarray:
        """``W @ b`` over (heads, n, d) ``b``, or ``Wᵀ @ b`` over (heads, m, d)
        ``b`` with ``transpose``, where W is the (heads, m, n) matrix that
        holds the (heads, P) ``values`` at the pairs and zeros elsewhere, one
        segment's block at a time.  A segment with no query row gets zeros
        in ``Wᵀ @ b``: its product has an inner dimension of 0."""
        self._check(*((b.shape[-2], None) if transpose else (None, b.shape[-2])),
                    values.shape[-1])
        heads = len(values)
        out = np.empty((heads, self.n if transpose else self.m, b.shape[-1]),
                       np.result_type(values, b))
        for seg in self.segments:
            rows, cols = slice(seg.row, seg.row + seg.m), slice(seg.col, seg.col + seg.n)
            dense = np.zeros((heads, seg.m, seg.n), values.dtype)
            dense.reshape(heads, -1)[:, seg.flat] = values[:, seg.pairs]
            if transpose:
                np.matmul(dense.transpose(0, 2, 1), b[:, rows], out=out[:, cols])
            else:
                np.matmul(dense, b[:, cols], out=out[:, rows])
        return out

    def row_max(self, values: np.ndarray) -> np.ndarray:
        """(heads, P) -> (heads, P): each pair's row maximum."""
        return np.repeat(np.maximum.reduceat(values, self.starts, axis=1),
                         self.counts, axis=1)

    def row_sum(self, values: np.ndarray) -> np.ndarray:
        """(heads, P) -> (heads, P): each pair's row sum."""
        return np.repeat(np.add.reduceat(values, self.starts, axis=1),
                         self.counts, axis=1)


def _square_segments(pairs: AttentionPairs, firsts: np.ndarray) -> list[Segment]:
    """The segments of the square list ``pairs`` whose sequences start at
    the rows ``firsts``, ascending, and end where the next one starts."""
    bounds = np.append(firsts, pairs.n)
    sizes = np.diff(bounds)
    ranges = np.append(pairs.starts, len(pairs))[bounds]
    per_segment = np.diff(ranges)
    first, m = np.repeat(firsts, per_segment), np.repeat(sizes, per_segment)
    i = np.repeat(np.arange(pairs.n), pairs.counts)
    # (i - first) * m + (j - first), where j = flat - i * n
    local = pairs.flat - first - i * (pairs.n - m) - first * m
    return [Segment(row, size, row, size, slice(lo, hi), local[lo:hi])
            for row, size, lo, hi in zip(firsts.tolist(), sizes.tolist(),
                                         ranges[:-1].tolist(), ranges[1:].tolist())]


def inst_rows(seqs: list[TokenSequence]) -> np.ndarray:
    """Each kept instruction's ``<INST>`` row in the sequences ``seqs`` laid
    end to end, by instruction index numbered across them."""
    # instructions are kept as a prefix, so the keys run 0, 1, ... in order
    firsts = np.cumsum([0] + [len(seq) for seq in seqs[:-1]]).tolist()
    return np.concatenate([first + np.fromiter(seq.inst_positions.values(), dtype=np.int64,
                                               count=seq.n_instructions)
                           for seq, first in zip(seqs, firsts)])


def build_bundle(seqs, dists, removed=(), added=()) -> AttentionPairs:
    """The mask of the sequence ``seqs`` under its instruction distance
    matrix ``dists``, or of a list of sequences under theirs, laid end to
    end as one segment each: a sequence's rows follow the rows of those
    before it, and no pair joins two sequences.  Each sequence's part is the
    ``[CLS]`` row, the ``[CLS]`` column below it, each instruction's token
    block crossed with itself, and the ``<INST>`` pairs of the kept
    instructions that ``dist[:k, :k]`` connects.  The parts share no entry,
    so one sort puts them in row-major order.

    ``removed`` and ``added`` are (E, 2) instruction pairs, numbered across
    the sequences, whose ``<INST>`` pairs in both directions are left out
    and put in at distance 1, as pre-training's edge masking does; no
    ``dist`` is modified.  A removed pair must be connected and an added one
    unconnected and within one sequence, or ``ValueError`` is raised."""
    if isinstance(seqs, TokenSequence):
        seqs, dists = [seqs], [dists]
    sizes = np.array([len(seq) for seq in seqs])
    firsts = np.cumsum(sizes) - sizes
    n = int(sizes.sum())
    starts = inst_rows(seqs)  # each <INST> row opens its instruction's token block
    inst_first = np.cumsum([0] + [seq.n_instructions for seq in seqs])
    # a block ends where the next opens, or at its sequence's end
    ends = np.append(starts[1:], 0)
    kept = inst_first[1:] > inst_first[:-1]  # the sequences with an instruction
    ends[inst_first[1:][kept] - 1] = (firsts + sizes)[kept]
    sizes_b = ends - starts
    # every row x: the pair of its sequence's [CLS] row with x, and, below
    # that [CLS], the pair of x with it
    rows = np.arange(n)
    cls, inner = np.repeat(firsts, sizes), np.delete(rows, firsts)
    # an inner row is the range of c flat indices from the first, f, of its
    # instruction's block: arange(f, f + c) for every row
    first, c = inner * n + np.repeat(starts, sizes_b), np.repeat(sizes_b, sizes_b)
    local = np.arange(c.sum()) + np.repeat(first - (np.cumsum(c) - c), c)
    deps, rs = [], []
    for seq, dist, lo in zip(seqs, dists, inst_first.tolist()):
        block = dist[:seq.n_instructions, :seq.n_instructions]
        u, v = np.nonzero(block)
        deps.append(starts[lo + u] * n + starts[lo + v])
        rs.append(block[u, v])
    # row-major within each block, and the blocks in row order: ascending
    dep, r_dep = np.concatenate(deps), np.concatenate(rs)
    if len(removed) or len(added):
        removed, added = (np.asarray(e, dtype=np.int64).reshape(-1, 2) for e in (removed, added))
        padded = np.append(dep, -1)  # no pair's key, where a search runs past the end
        gone = (starts[removed] @ ((n, 1), (1, n))).ravel()
        at = np.searchsorted(dep, gone)
        if np.any(padded[at] != gone):
            raise ValueError("a removed instruction pair is not connected")
        new = (starts[added] @ ((n, 1), (1, n))).ravel()
        within = np.diff(np.searchsorted(inst_first, added, "right"), axis=1) == 0
        if not within.all() or np.any(padded[np.searchsorted(dep, new)] == new):
            raise ValueError("an added instruction pair is connected or joins two sequences")
        keep = np.ones(len(dep), dtype=bool)
        keep[at] = False
        dep = np.concatenate([dep[keep], new])
        r_dep = np.concatenate([r_dep[keep], np.ones(len(new), dtype=r_dep.dtype)])
    flat = np.sort(np.concatenate([cls * n + rows, inner * n + np.repeat(firsts, sizes - 1),
                                   local, dep]))
    r = np.zeros(len(flat), dtype=r_dep.dtype)
    r[np.searchsorted(flat, dep)] = r_dep
    pairs = AttentionPairs(n, flat, r)
    if len(seqs) > 1:  # the constructor's one segment covers a single sequence
        pairs.segments = _square_segments(pairs, firsts)
    return pairs


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

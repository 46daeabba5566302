"""Attention mask and relative distance matrix for one token sequence.

The mask is the union of three parts: a global part routing everything
through ``[CLS]``, a local part confining attention to tokens of the same
instruction, and a dependence part enabling bidirectional attention between
the ``<INST>`` delimiters of connected instructions.  The dependence part is
exactly ``R > 0``, so the distance matrix ``R`` is its only source.
"Disabled" entries of the additive mask ``M`` hold ``MASK_NEG``, added to the
attention logits before softmax.  ``M`` is float32: 0 and ``MASK_NEG`` are
exact in it, so a float32 model adds it without a cast and a float64 model
widens it exactly.  ``build_bundle`` is the only code that
builds a bundle; callers build one from the distances where they use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frontend import TokenSequence

#: additive stand-in for -inf; post-softmax weight at such entries is < 1e-12
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
    #: additive float32 attention mask, entries in {0, MASK_NEG}
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


def sparse_masks(seq: TokenSequence, bundle: MaskBundle) -> dict:
    """Serializable view of a bundle: enabled (i, j) pairs (i <= j) per mask
    part plus distance triples for the <INST> pairs, all in row-major order."""

    def pairs(en: np.ndarray) -> list[list[int]]:
        return np.argwhere(np.triu(en)).tolist()

    ru, rv = np.nonzero(np.triu(bundle.R, 1))
    return {
        "n": len(seq),
        "global": pairs(global_enabled(seq)),
        "local": pairs(local_enabled(seq)),
        "dependence": pairs(bundle.R > 0),
        "r": np.stack([ru, rv, bundle.R[ru, rv]], axis=1).tolist(),
    }

"""Compact JSON text of integer arrays, written by numpy without Python lists.

The ``pipeline`` command writes the closure's distance triples and the mask's
pair lists, hundreds of thousands of small integers per listing.  Listing
them with ``tolist`` and encoding them with ``json.dumps`` costs several times
more than spelling out their digits in one byte grid.
"""

from __future__ import annotations

import numpy as np


def int_rows(a: np.ndarray) -> str:
    """``json.dumps(a.tolist(), separators=(",", ":"))`` of a 2-D array of
    non-negative integers with at least one column.

    Every value takes a field of ``w + 1`` bytes, ``w`` the digit count of
    the largest value: its digits looked up in a table of ``0..a.max()``,
    right-aligned behind NUL padding, then a comma.  A row is ``[``, its
    fields and a comma, the last field's comma turned into ``]`` and the last
    row's comma into the closing ``]``; one boolean mask drops the padding.
    """
    rows, cols = a.shape
    if rows == 0:
        return "[]"
    if a.min() < 0:  # a broken invariant, not bad input: no table entry
        raise RuntimeError(f"int_rows takes non-negative integers, got {a.min()}")
    top = int(a.max())
    w = len(str(top))
    table = np.zeros((top + 1, w + 1), dtype=np.uint8)
    for k in range(w):  # the digit at place 10**k of every value 0..top
        place = 10 ** k
        table[:, w - 1 - k] = np.repeat(np.arange(top // place + 1) % 10 + ord("0"),
                                        place)[:top + 1]
        if k:  # values below 10**k have no digit there
            table[:place, w - 1 - k] = 0
    table[:, w] = ord(",")
    grid = np.empty((rows, cols * (w + 1) + 2), dtype=np.uint8)
    grid[:, 0] = ord("[")
    grid[:, 1:-1] = table[a].reshape(rows, -1)
    grid[:, -2] = ord("]")
    grid[:, -1] = ord(",")
    grid[-1, -1] = ord("]")
    flat = grid.ravel()
    return "[" + flat[flat != 0].tobytes().decode("ascii")

"""Correctness references computed apart from the program.

Nothing here calls into ``depcoder``: the closure is a breadth-first search,
the masks follow their definition pair by pair, the checkpoint is read from
its documented byte layout, and the reference forward pass loops over heads
with its own softmax, LayerNorm and GELU in float64.
"""

from __future__ import annotations

import json
import math
from collections import deque

import numpy as np

#: max |program - reference| over an embedding.  The program computes in
#: float32 (unit roundoff 6e-8); sums of up to 512 terms over two layers
#: stay well inside 1e3 roundoffs of O(1) activations.
EMBED_ATOL = 5e-4
#: |first-step MLM loss - ln(vocab size)|: the 0.02-std initialization
#: predicts near-uniformly.
FIRST_MLM_TOL = 0.1
#: the metrics log prints lr with 8 decimals
LR_ATOL = 1e-8
LN_EPS = 1e-12


def bfs_distances(n: int, edges) -> dict[tuple[int, int], int]:
    """{(u, v): d} for u < v connected either way; d is the shorter of the
    two directed shortest-path lengths.  ``edges`` are (u, v) with u -> v."""
    out_adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if u != v:
            out_adj[u].append(v)
    dist: dict[tuple[int, int], int] = {}
    for s in range(n):
        seen = {s: 0}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in out_adj[x]:
                if y not in seen:
                    seen[y] = seen[x] + 1
                    queue.append(y)
        for t, d in seen.items():
            if t != s:
                key = (min(s, t), max(s, t))
                if key not in dist or d < dist[key]:
                    dist[key] = d
    return dist


def inst_positions(surface: list[str], inst_of: list[int]) -> dict[int, int]:
    return {inst_of[p]: p for p, tok in enumerate(surface) if tok == "<INST>"}


def expected_masks(surface: list[str], inst_of: list[int],
                   dist: dict[tuple[int, int], int]) -> dict:
    """The sparse mask record as the method defines it: [CLS] row and column,
    same-instruction pairs, and <INST> pairs of connected kept instructions
    with their distances."""
    n = len(surface)
    pos = inst_positions(surface, inst_of)
    local = [[i, j] for i in range(n) for j in range(i, n)
             if inst_of[i] != -1 and inst_of[i] == inst_of[j]]
    dep, r = [], []
    for (t, s), d in dist.items():
        if t in pos and s in pos:
            a, b = sorted((pos[t], pos[s]))
            dep.append([a, b])
            r.append([a, b, d])
    return {"n": n, "global": [[0, j] for j in range(n)], "local": sorted(local),
            "dependence": sorted(dep), "r": sorted(r)}


def mask_density(record: dict) -> float:
    """Enabled share of the full n x n mask described by a sparse record."""
    n = record["n"]
    enabled = set()
    for kind in ("global", "local", "dependence"):
        for i, j in record[kind]:
            enabled.add((i, j))
            enabled.add((j, i))
    return len(enabled) / (n * n)


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Model config and float64 parameters from the checkpoint layout: an
    8-byte little-endian header length, a JSON header, then row-major float32
    tensors in header order."""
    with open(path, "rb") as fh:
        hlen = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(hlen))
        params = {}
        for spec in header["tensors"]:
            count = math.prod(spec["shape"])
            raw = np.frombuffer(fh.read(4 * count), dtype="<f4")
            params[spec["name"]] = raw.reshape(spec["shape"]).astype(np.float64)
    return header["config"], params


def _layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * g + b


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x * x * x)))


def reference_embedding(config: dict, params: dict, ids: list[int],
                        enabled: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """[CLS] output of the dense encoder, one head at a time."""
    n = len(ids)
    heads, hidden = config["heads"], config["hidden"]
    dk = hidden // heads
    r = np.minimum(dist, config["r_max"])
    h = params["tok_emb"][ids] + params["pos_emb"][:n]
    for layer in range(config["layers"]):
        p = {k.split(".", 1)[1]: v for k, v in params.items() if k.startswith(f"l{layer}.")}
        outs = []
        for i in range(heads):
            q, k, v = h @ p["wq"][i], h @ p["wk"][i], h @ p["wv"][i]
            bias = np.where(dist > 0, params["beta"][i][r], 0.0)
            scores = np.where(enabled, (q @ k.T + bias) / math.sqrt(dk), -np.inf)
            w = np.exp(scores - scores.max(axis=1, keepdims=True))
            outs.append((w / w.sum(axis=1, keepdims=True)) @ v)
        z = _layer_norm(np.concatenate(outs, axis=1) @ p["wo"] + h, p["ln1_g"], p["ln1_b"])
        f = _gelu(z @ p["w1"] + p["b1"]) @ p["w2"] + p["b2"]
        h = _layer_norm(f + z, p["ln2_g"], p["ln2_b"])
    return h[0]


def dense_masks(surface: list[str], inst_of: list[int],
                dist: dict[tuple[int, int], int]) -> tuple[np.ndarray, np.ndarray]:
    """(enabled, distance) n x n arrays from the mask definition."""
    rec = expected_masks(surface, inst_of, dist)
    n = rec["n"]
    enabled = np.zeros((n, n), dtype=bool)
    for kind in ("global", "local", "dependence"):
        for i, j in rec[kind]:
            enabled[i, j] = enabled[j, i] = True
    r = np.zeros((n, n), dtype=np.int64)
    for i, j, d in rec["r"]:
        r[i, j] = r[j, i] = d
    return enabled, r


def lr_schedule(step: int, lr: float, warmup: int, total: int) -> float:
    """Linear warmup to ``lr``, then linear decay to zero at ``total``."""
    if step <= warmup:
        return lr * step / warmup
    return lr * max(0.0, (total - step) / (total - warmup))

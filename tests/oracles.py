"""Independent oracle implementations for the test suite.

Each routine deliberately takes a different computational path from the
library code it checks: location rules written from the ``dependence``
module docstring, path enumeration instead of a dataflow fixpoint,
post-dominance by reachability instead of post-dominator sets, exit
reachability by a forward-scanning fixed point instead of a backward walk,
distances per ordered pair by one BFS per source and folded pair by pair
instead of one sweep over all sources folded as matrices, per-pair
definition evaluation instead of matrix composition, explicit loops instead
of vectorized metrics.
"""

from __future__ import annotations

import json
from collections import deque

import numpy as np

from depcoder.cfg import EXIT, Cfg
from depcoder.dependence import def_use, frame_offsets
from depcoder.frontend import INST, TokenSequence


# ---------------------------------------------------------------------------
# Operand lists, one character at a time

def split_operands_by_char(text: str) -> list[str]:
    """The non-blank parts of ``text`` between the commas at bracket depth 0."""
    parts, depth, buf = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return [p for p in parts if p.strip()]


# ---------------------------------------------------------------------------
# Abstract locations, by the rules the dependence module documents

MEMORY_KINDS = ("stack_slot", "stack_frame_all", "memory_all")


def oracle_overlap(a, b) -> bool:
    """Two memory regions may overlap unless they are two different stack
    slots; a register or the flags overlaps only itself."""
    if a.kind in MEMORY_KINDS and b.kind in MEMORY_KINDS:
        if a.kind == "stack_slot" and b.kind == "stack_slot":
            return a.key == b.key
        return True
    return (a.kind, a.key) == (b.kind, b.key)


def oracle_strong_update(loc) -> bool:
    """A def of the whole frame or the whole memory adds to the reaching
    defs; a def of anything else replaces them."""
    return loc.kind not in ("stack_frame_all", "memory_all")


# ---------------------------------------------------------------------------
# Data dependences by exhaustive path enumeration (loop-free programs)

def path_enum_data_deps(instrs, cfg: Cfg, flags_channel=False, max_len=None):
    """Enumerate every instruction-level CFG path from entry up to 2|V| steps
    and record def-use pairs along each path."""
    n = len(instrs)
    if n == 0:
        return set()
    if max_len is None:
        max_len = 2 * n
    frames = frame_offsets(instrs)
    du = [def_use(i, frames[i.index], flags_channel) for i in instrs]

    # instruction-level successors
    succ = {i: [] for i in range(n)}
    for b, (lo, hi) in enumerate(cfg.blocks):
        for i in range(lo, hi - 1):
            succ[i].append(i + 1)
        for nb in cfg.succ[b]:
            if nb >= 0:
                succ[hi - 1].append(cfg.blocks[nb][0])

    pairs = set()

    def walk(i, live, depth):
        if depth > max_len:
            return
        defs, uses = du[i]
        for use in uses:
            for (j, d) in live:
                if j != i and oracle_overlap(use, d):
                    pairs.add((i, j))
        new_live = set(live)
        for d in defs:
            if oracle_strong_update(d):
                new_live = {(j, L) for (j, L) in new_live if L != d}
            new_live.add((i, d))
        for nxt in succ[i]:
            walk(nxt, new_live, depth + 1)

    walk(0, set(), 0)
    return pairs


# ---------------------------------------------------------------------------
# Control dependences from post-dominance by reachability

def postdominates(cfg: Cfg, b: int, a: int) -> bool:
    """True when every path from block a to EXIT passes through block b: a is
    b, or EXIT is unreachable from a once b is removed."""
    if a == b:
        return True
    seen, todo = {a}, [a]
    while todo:
        for v in cfg.succ[todo.pop()]:
            if v == EXIT:
                return False
            if v != b and v not in seen:
                seen.add(v)
                todo.append(v)
    return True


def oracle_block_control_deps(cfg: Cfg) -> set[tuple[int, int]]:
    """(dependent, controlling) pairs straight from the definition: B is
    control dependent on A iff some successor of A is post-dominated by B
    while A itself is not strictly post-dominated by B."""
    blocks = range(len(cfg.blocks))
    return {(b, a) for a in blocks if len(cfg.succ[a]) > 1 for b in blocks
            if (b == a or not postdominates(cfg, b, a))
            and any(s != EXIT and postdominates(cfg, b, s) for s in cfg.succ[a])}


# ---------------------------------------------------------------------------
# Exit reachability by a forward-scanning fixed point

def oracle_augment_exit_reachability(blocks, succ) -> None:
    """Add block->EXIT edges in place until EXIT is reachable from every
    block.  Each round rescans the blocks in order until no more of them
    reach EXIT, then gives the first block that does not an edge to EXIT."""
    while True:
        reaches = {EXIT}
        changed = True
        while changed:
            changed = False
            for b in range(len(blocks)):
                if b not in reaches and any(v in reaches for v in succ[b]):
                    reaches.add(b)
                    changed = True
        stuck = [b for b in range(len(blocks)) if b not in reaches]
        if not stuck:
            return
        succ[stuck[0]].append(EXIT)


# ---------------------------------------------------------------------------
# All-pairs shortest paths by BFS

def bfs_all_pairs(n: int, edges: set[tuple[int, int]]) -> dict[tuple[int, int], int]:
    adj = {u: [] for u in range(n)}
    for u, v in edges:
        adj[u].append(v)
    dist = {}
    for src in range(n):
        seen = {src: 0}
        q = deque([src])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen[v] = seen[u] + 1
                    q.append(v)
        for v, d in seen.items():
            if v != src:
                dist[(src, v)] = d
    return dist


def oracle_connectivity(n: int, edges: set[tuple[int, int]]):
    """Undirected connectivity edges with min-direction distances via BFS."""
    dist = bfs_all_pairs(n, edges)
    out = {}
    for u in range(n):
        for v in range(u + 1, n):
            ds = [d for d in (dist.get((u, v)), dist.get((v, u))) if d is not None]
            if ds:
                out[(u, v)] = min(ds)
    return out


def oracle_connectivity_text(n: int, edges: set[tuple[int, int]]) -> str:
    """The connectivity artifact text: compact JSON, keys sorted, of the
    oracle's edges as [u, v, distance] in row-major order."""
    triples = [[u, v, d] for (u, v), d in sorted(oracle_connectivity(n, edges).items())]
    return json.dumps({"nodes": n, "edges": triples}, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Naive per-pair mask evaluation

def naive_mask_bundle(seq: TokenSequence, con, neg=-1.0e9):
    n = len(seq)
    m = np.full((n, n), neg)
    r = np.zeros((n, n), dtype=np.int32)
    for i in range(n):
        for j in range(n):
            if i == 0 or j == 0:
                m[i, j] = 0.0  # global: [CLS] row/column
            if seq.inst_of[i] == seq.inst_of[j] and seq.inst_of[i] != -1:
                m[i, j] = 0.0  # local: same instruction
            if seq.surface[i] == INST and seq.surface[j] == INST:
                t, s = seq.inst_of[i], seq.inst_of[j]
                if t != s and con.dist[t, s] > 0:
                    m[i, j] = 0.0  # dependence: connected instructions
                    r[i, j] = int(con.dist[t, s])
    return m, r


# ---------------------------------------------------------------------------
# Dense per-head attention, straight from the encoder docstring's formula

def dense_attention(h: np.ndarray, pairs, layer: int, state):
    """softmax((Q_i K_i^T + B_i) / sqrt(d_k) + M) V_i per head, with the full
    (N, N) bias B_i = where(R > 0, beta_i[min(R, r_max)], 0); returns the
    output projection of the concatenated heads and the (heads, N, N) weights."""
    p, cfg = state.params, state.config
    r = np.minimum(pairs.R, cfg.r_max)
    outs, probs = [], []
    for i in range(cfg.heads):
        q = h @ p[f"l{layer}.wq"][i]
        k = h @ p[f"l{layer}.wk"][i]
        v = h @ p[f"l{layer}.wv"][i]
        b = np.where(pairs.R > 0, p["beta"][i][r], 0.0)
        s = (q @ k.T + b) / np.sqrt(cfg.head_dim) + pairs.M
        e = np.exp(s - s.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        outs.append(a @ v)
        probs.append(a)
    return np.concatenate(outs, axis=1) @ p[f"l{layer}.wo"], np.stack(probs)


# ---------------------------------------------------------------------------
# Ranking / multi-label metric oracles

def brute_force_rank(query: np.ndarray, pool) -> list[int]:
    def cos(a, b):
        na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
        return 0.0 if na == 0 or nb == 0 else float(a @ b) / (na * nb)

    sims = [(-cos(query, c), i) for i, c in enumerate(pool)]
    sims.sort()
    return [i for _, i in sims]


def naive_lrap(y, f) -> float:
    n_s, n_l = y.shape
    total = 0.0
    for i in range(n_s):
        positives = [j for j in range(n_l) if y[i][j] == 1]
        s = 0.0
        for j in positives:
            rank = sum(1 for k in range(n_l) if f[i][k] >= f[i][j])
            l_ij = sum(1 for k in positives if f[i][k] >= f[i][j])
            s += l_ij / rank
        total += s / len(positives)
    return total / n_s


def naive_lrl(y, f) -> float:
    n_s, n_l = y.shape
    total = 0.0
    for i in range(n_s):
        positives = [k for k in range(n_l) if y[i][k] == 1]
        negatives = [l for l in range(n_l) if y[i][l] == 0]
        bad = 0
        for k in positives:
            for l in negatives:
                if f[i][k] <= f[i][l]:
                    bad += 1
        total += bad / (len(positives) * len(negatives))
    return total / n_s


def trapezoid_auc(scores, labels) -> float:
    """Area under the ROC curve by explicit threshold sweep + trapezoids."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    thresholds = sorted(set(scores.tolist()), reverse=True)
    pos = int((labels == 1).sum())
    neg = int((labels == 0).sum())
    points = [(0.0, 0.0)]
    for th in thresholds:
        predicted = scores >= th
        tpr = float((predicted & (labels == 1)).sum()) / pos
        fpr = float((predicted & (labels == 0)).sum()) / neg
        points.append((fpr, tpr))
    points.append((1.0, 1.0))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def naive_sparse_masks(seq: TokenSequence, con) -> dict:
    """Per-pair evaluation of the serialized mask view (pairs i <= j)."""
    _, r = naive_mask_bundle(seq, con)
    n = len(seq)
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    inst = seq.inst_of
    return {
        "n": n,
        "global": [[i, j] for i, j in upper if i == 0 or j == 0],
        "local": [[i, j] for i, j in upper if inst[i] == inst[j] != -1],
        "dependence": [[i, j] for i, j in upper if r[i, j] > 0],
        "r": [[i, j, int(r[i, j])] for i, j in upper if r[i, j] > 0],
    }

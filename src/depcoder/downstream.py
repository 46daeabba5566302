"""Downstream heads and evaluation metrics.

Covers embedding-based binary similarity (cosine ranking, recall@k, MRR,
triplet fine-tuning), per-token type inference with no-access-aware P/R/F1
accounting, attention pooling and the multi-label ranking metrics
(LRAP, label ranking loss, macro ROC-AUC).
"""

from __future__ import annotations

import numpy as np

from .encoder import EncoderState, ForwardTrace, head_cross_entropy
from .errors import MetricsError


# 35 common high-level types; "no-access" is appended as the 36th label for
# tokens without ground truth.
DEFAULT_TYPE_LABELS = (
    "char", "unsigned char", "short", "unsigned short", "int", "unsigned int",
    "long", "unsigned long", "long long", "unsigned long long",
    "float", "double", "long double", "bool", "enum",
    "void*", "char*", "short*", "int*", "long*", "float*", "double*",
    "struct*", "union*", "func*",
    "struct", "union", "array",
    "int8_t", "int16_t", "int32_t", "int64_t",
    "uint8_t", "uint16_t", "uint32_t",
)
NO_ACCESS = "no-access"


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def cosine_rank(query: np.ndarray, pool: list[np.ndarray], k: int | None = None) -> list[int]:
    """Pool indices by descending cosine similarity; ties keep pool order."""
    sims = np.array([cosine(query, c) for c in pool])
    order = np.argsort(-sims, kind="stable")
    out = [int(i) for i in order]
    return out if k is None else out[:k]


def recall_at_k(queries: list[np.ndarray], pools: list[list[np.ndarray]],
                truth: list[int], k: int) -> float:
    """Fraction of queries whose ground-truth pool index lands in the top k."""
    if not queries:
        raise MetricsError("no queries")
    hits = sum(1 for q, pool, t in zip(queries, pools, truth)
               if t in cosine_rank(q, pool, k))
    return hits / len(queries)


def mrr(queries: list[np.ndarray], pools: list[list[np.ndarray]],
        truth: list[int]) -> float:
    if not queries:
        raise MetricsError("no queries")
    total = 0.0
    for q, pool, t in zip(queries, pools, truth):
        rank = cosine_rank(q, pool).index(t) + 1
        total += 1.0 / rank
    return total / len(queries)


# ---------------------------------------------------------------------------
# Triplet fine-tuning

def triplet_loss(anchor: np.ndarray, positive: np.ndarray, negative: np.ndarray,
                 margin: float = 0.2) -> float:
    return max(0.0, margin - cosine(anchor, positive) + cosine(anchor, negative))


def _d_cosine(a: np.ndarray, b: np.ndarray):
    """Gradients of cos(a, b) w.r.t. a and b."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return np.zeros_like(a), np.zeros_like(b)
    c = float(a @ b / (na * nb))
    da = b / (na * nb) - c * a / (na * na)
    db = a / (na * nb) - c * b / (nb * nb)
    return da, db


def triplet_loss_grads(anchor, positive, negative, margin: float = 0.2):
    """Loss plus gradients w.r.t. the three embeddings."""
    loss = triplet_loss(anchor, positive, negative, margin)
    da = np.zeros_like(anchor)
    dp = np.zeros_like(positive)
    dn = np.zeros_like(negative)
    if loss > 0.0:
        dap_a, dap_p = _d_cosine(anchor, positive)
        dan_a, dan_n = _d_cosine(anchor, negative)
        da = -dap_a + dan_a
        dp = -dap_p
        dn = dan_n
    return loss, da, dp, dn


# ---------------------------------------------------------------------------
# Type inference head

def type_logits(trace: ForwardTrace, state: EncoderState) -> np.ndarray:
    return trace.final @ state.params["type_w"] + state.params["type_b"]


def type_inference_loss(trace: ForwardTrace, labelled: list[tuple[int, int]],
                        state: EncoderState):
    """Cross-entropy over the labelled token positions.

    ``labelled`` holds (token position, label id) pairs.  Returns the summed
    loss, gradient w.r.t. the final hidden states and head gradients.
    """
    return head_cross_entropy(trace, [p for p, _ in labelled], [l for _, l in labelled],
                              state, "type")


def type_prf(predictions: list[int], gold: list[int], no_access_id: int):
    """Precision/recall/F1 with the no-access accounting used for binary type
    inference: FN counts gold-typed tokens predicted no-access, FP counts
    tokens wrongly given a type; no-access predictions never enter TP/FP."""
    tp = fp = fn = 0
    for pred, g in zip(predictions, gold):
        if g != no_access_id:
            if pred == g:
                tp += 1
            elif pred == no_access_id:
                fn += 1
            else:
                fp += 1
        elif pred != no_access_id:
            fp += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


# ---------------------------------------------------------------------------
# Attention pooling + multi-label metrics

def attention_pool(embeddings: list[np.ndarray], query: np.ndarray):
    """Softmax-weighted pooling of function embeddings against a learnable
    query vector; returns the pooled vector and the weights."""
    e = np.stack(embeddings)
    scores = e @ query
    scores = scores - scores.max()
    w = np.exp(scores)
    w = w / w.sum()
    return w @ e, w


def attention_pool_grads(embeddings: list[np.ndarray], query: np.ndarray,
                         d_pooled: np.ndarray):
    """Gradients of the pooled vector w.r.t. the query and each embedding."""
    e = np.stack(embeddings)
    pooled, w = attention_pool(embeddings, query)
    d_w = e @ d_pooled                       # (k,)
    d_scores = w * (d_w - float(w @ d_w))    # softmax backward
    d_query = e.T @ d_scores
    d_e = np.outer(w, d_pooled) + d_scores[:, None] * query[None, :]
    return pooled, d_query, [d_e[i] for i in range(len(embeddings))]


def _check_batch(y: np.ndarray, f: np.ndarray) -> None:
    if y.shape != f.shape or y.ndim != 2:
        raise MetricsError("score and label matrices must share an (n_s, n_l) shape")
    if not np.all(y.sum(axis=1) > 0):
        raise MetricsError("every sample needs at least one positive label")


def lrap(y: np.ndarray, f: np.ndarray) -> float:
    """Label ranking average precision; ties rank by counting scores >= f_ij."""
    y = np.asarray(y)
    f = np.asarray(f)
    _check_batch(y, f)
    n_s = y.shape[0]
    total = 0.0
    for i in range(n_s):
        pos = np.nonzero(y[i])[0]
        acc = 0.0
        for j in pos:
            geq = f[i] >= f[i, j]
            rank = int(geq.sum())
            l_ij = int((geq & (y[i] == 1)).sum())
            acc += l_ij / rank
        total += acc / len(pos)
    return total / n_s


def lrl(y: np.ndarray, f: np.ndarray) -> float:
    """Label ranking loss: the normalized count of (positive, negative) label
    pairs ordered weakly wrongly (f_pos <= f_neg)."""
    y = np.asarray(y)
    f = np.asarray(f)
    _check_batch(y, f)
    n_s, n_l = y.shape
    total = 0.0
    for i in range(n_s):
        pos = np.nonzero(y[i] == 1)[0]
        neg = np.nonzero(y[i] == 0)[0]
        if len(neg) == 0:
            raise MetricsError("label ranking loss needs at least one negative label")
        bad = int((f[i, pos][:, None] <= f[i, neg][None, :]).sum())
        total += bad / (len(pos) * len(neg))
    return total / n_s


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC for one class with half credit for ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise MetricsError("ROC-AUC needs both positive and negative examples")
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((greater + 0.5 * ties) / (len(pos) * len(neg)))


def macro_roc_auc(y: np.ndarray, f: np.ndarray) -> float:
    """Average AUC over classes that have both positives and negatives."""
    y = np.asarray(y)
    f = np.asarray(f)
    aucs = []
    for j in range(y.shape[1]):
        col = y[:, j]
        if 0 < col.sum() < len(col):
            aucs.append(roc_auc(f[:, j], col))
    if not aucs:
        raise MetricsError("no class has both positive and negative examples")
    return float(np.mean(aucs))

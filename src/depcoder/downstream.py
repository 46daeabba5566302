"""Downstream heads and evaluation metrics.

Covers embedding-based binary similarity (cosine ranking, recall@k, MRR,
triplet fine-tuning), per-token type inference with no-access-aware P/R/F1
accounting, the attention-pooled multi-label head and its ranking metrics
(LRAP, label ranking loss, macro ROC-AUC).
"""

from __future__ import annotations

import numpy as np

from .encoder import (EncoderState, ForwardTrace, binary_cross_entropy, head_cross_entropy,
                      sigmoid)
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


def cosine_rank(query: np.ndarray, pool: list[np.ndarray]) -> list[int]:
    """Pool indices by descending cosine similarity; ties keep pool order."""
    sims = np.array([cosine(query, c) for c in pool])
    return [int(i) for i in np.argsort(-sims, kind="stable")]


def truth_ranks(queries: list[np.ndarray], pools: list[list[np.ndarray]],
                truth: list[int]) -> list[int]:
    """Each query's 1-based rank of its truth in its pool, as ``recall_at_k`` and ``mrr`` read."""
    if not queries:
        raise MetricsError("no queries")
    if any(t not in range(len(pool)) for pool, t in zip(pools, truth)):
        raise MetricsError("a truth index lies outside its pool")
    return [cosine_rank(q, pool).index(t) + 1 for q, pool, t in zip(queries, pools, truth)]


def recall_at_k(ranks: list[int], k: int) -> float:
    """Fraction of queries whose truth ranks in the top k."""
    if k < 1:
        raise MetricsError(f"recall@{k}: a cutoff below 1")
    return sum(r <= k for r in ranks) / len(ranks)


def mrr(ranks: list[int]) -> float:
    total = 0.0
    for r in ranks:
        total += 1.0 / r
    return total / len(ranks)


# ---------------------------------------------------------------------------
# Triplet fine-tuning

def _d_cosine(a: np.ndarray, b: np.ndarray):
    """cos(a, b) and its gradients w.r.t. a and b."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0, np.zeros_like(a), np.zeros_like(b)
    c = float(a @ b / (na * nb))
    da = b / (na * nb) - c * a / (na * na)
    db = a / (na * nb) - c * b / (nb * nb)
    return c, da, db


def triplet_loss_grads(anchor, positive, negative, margin: float = 0.2):
    """max(0, margin - cos(a, p) + cos(a, n)) plus its gradients w.r.t. a, p and n."""
    c_ap, dap_a, dap_p = _d_cosine(anchor, positive)
    c_an, dan_a, dan_n = _d_cosine(anchor, negative)
    loss = max(0.0, margin - c_ap + c_an)
    if loss == 0.0:
        return loss, *(np.zeros_like(v) for v in (anchor, positive, negative))
    return loss, -dap_a + dan_a, -dap_p, dan_n


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
# Attention pooling + multi-label head and metrics

def attention_pool(embeddings: list[np.ndarray], query: np.ndarray):
    """Softmax-weighted pooling of function embeddings against a learnable
    query vector; returns the pooled vector and the weights."""
    e = np.stack(embeddings)
    scores = e @ query
    scores = scores - scores.max()
    w = np.exp(scores)
    w = w / w.sum()
    return w @ e, w


def multilabel_probs(embeddings: list[np.ndarray], head: dict[str, np.ndarray]) -> np.ndarray:
    """The per-label probabilities of the head ``query``/``w``/``b`` for one
    sample, the embeddings of its functions."""
    pooled, _ = attention_pool(embeddings, head["query"])
    return sigmoid(pooled @ head["w"] + head["b"])


def multilabel_loss_grads(embeddings: list[np.ndarray], head: dict[str, np.ndarray],
                          y: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """Summed sigmoid cross-entropy of one sample's labels ``y``, and its
    gradients w.r.t. the head's ``query``, ``w`` and ``b``."""
    e = np.stack(embeddings)
    pooled, weights = attention_pool(embeddings, head["query"])
    loss, dlogits = binary_cross_entropy(pooled @ head["w"] + head["b"], y)
    d_weights = e @ (head["w"] @ dlogits)
    d_scores = weights * (d_weights - float(weights @ d_weights))  # softmax backward
    return loss, {"query": e.T @ d_scores, "w": np.outer(pooled, dlogits), "b": dlogits}


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

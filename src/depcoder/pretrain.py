"""Joint masked-language and masked-dependence pre-training.

Each step perturbs every sequence twice: token masking (15% of eligible
tokens, replaced by ``[MASK]`` / a random token / kept at 80/10/10), and edge
masking (positive connectivity edges touching a 40% node sample are deleted
from the attention mask while an equal number of spurious edges is injected).
Both losses are computed on the same perturbed forward pass; the model must
recover the masked tokens and classify true-vs-injected edges from the
``<INST>`` hidden states.  Edge masking edits a copy of the instruction
distances and builds the step's mask bundle from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connectivity import ConnectivityGraph
from .corpus import FunctionArtifacts
from .encoder import (EncoderState, ForwardTrace, NumericsError, backward, encode,
                      head_cross_entropy)
from .frontend import CLS_ID, FIRST_REGULAR_ID, INST_ID, MASK_ID, PAD_ID, TokenSequence
from .masks import MaskBundle, build_bundle


@dataclass
class MlmPerturbation:
    positions: list[int]
    kinds: list[str]  # mask-token | random-token | unchanged
    original: list[int]

    def __len__(self) -> int:
        return len(self.positions)


def eligible_positions(seq: TokenSequence) -> list[int]:
    special = (CLS_ID, INST_ID, PAD_ID, MASK_ID)
    return [i for i, t in enumerate(seq.tokens) if t not in special]


def mlm_perturb(seq: TokenSequence, vocab_size: int, rng: np.random.Generator,
                rate: float = 0.15) -> tuple[np.ndarray, MlmPerturbation]:
    """RoBERTa-style token masking over the eligible positions."""
    ids = np.asarray(seq.tokens, dtype=np.int64).copy()
    eligible = eligible_positions(seq)
    positions, kinds, original = [], [], []
    n_regular = vocab_size - FIRST_REGULAR_ID
    for pos in eligible:
        if rng.random() >= rate:
            continue
        positions.append(pos)
        original.append(int(ids[pos]))
        u = rng.random()
        if u < 0.8:
            kinds.append("mask-token")
            ids[pos] = MASK_ID
        elif u < 0.9 and n_regular > 0:
            kinds.append("random-token")
            ids[pos] = FIRST_REGULAR_ID + int(rng.integers(n_regular))
        else:
            kinds.append("unchanged")
    return ids, MlmPerturbation(positions=positions, kinds=kinds, original=original)


@dataclass
class EdgeSample:
    nodes: list[int]
    positives: list[tuple[int, int]]
    negatives: list[tuple[int, int]]

    def labelled(self) -> list[tuple[int, int, int]]:
        return [(u, v, 1) for u, v in self.positives] + \
               [(u, v, 0) for u, v in self.negatives]


def mdm_sample(con: ConnectivityGraph, n_nodes: int, rng: np.random.Generator,
               node_frac: float = 0.4) -> EdgeSample:
    """Sample positive edges touching a 40% node subset and an equal number of
    non-edges (all available when the complement is smaller)."""
    k = int(round(node_frac * n_nodes))
    if k == 0:
        return EdgeSample(nodes=[], positives=[], negatives=[])
    sampled = sorted(int(x) for x in rng.choice(n_nodes, size=k, replace=False))
    in_sample = np.zeros(n_nodes, dtype=bool)
    in_sample[sampled] = True
    # pairs u < v with an end in the sample, row-major like the edge lists
    touched = np.triu(in_sample[:, None] | in_sample[None, :], 1)
    linked = con.dist[:n_nodes, :n_nodes] > 0
    positives = [(u, v) for u, v in np.argwhere(touched & linked).tolist()]
    candidates = np.argwhere(touched & ~linked)
    n_neg = min(len(positives), len(candidates))
    negatives = []
    if n_neg:
        idx = np.sort(rng.choice(len(candidates), size=n_neg, replace=False))
        negatives = [(u, v) for u, v in candidates[idx].tolist()]
    return EdgeSample(nodes=sampled, positives=positives, negatives=negatives)


def perturb_bundle(seq: TokenSequence, dist: np.ndarray,
                   sample: EdgeSample) -> MaskBundle:
    """The bundle of ``seq`` over a copy of the instruction distances in which
    the sampled positive edges are deleted (distance 0) and the negatives
    injected (distance 1).  ``dist`` itself is never modified."""
    d = dist.copy()
    for t, s in sample.positives:
        d[t, s] = d[s, t] = 0
    for t, s in sample.negatives:
        d[t, s] = d[s, t] = 1
    return build_bundle(seq, d)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _sigmoid(x: float) -> float:
    # tanh form avoids exp overflow for large |x|
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def mlm_loss(trace: ForwardTrace, pert: MlmPerturbation, state: EncoderState):
    """Summed cross-entropy at the masked positions; returns the loss, the
    gradient w.r.t. the final hidden states and the head gradients."""
    return head_cross_entropy(trace, pert.positions, pert.original, state, "mlm")


def mdm_loss(trace: ForwardTrace, sample: EdgeSample, seq: TokenSequence):
    """Binary cross-entropy of sigmoid(h_u . h_v) over the balanced edge set,
    using the final-layer <INST> hidden states."""
    dh = np.zeros_like(trace.final)
    loss = 0.0
    h = trace.final
    pos_of = seq.inst_positions
    for t, s, y in sample.labelled():
        u, v = pos_of[t], pos_of[s]
        dot = float(h[u] @ h[v])
        # y*softplus(-dot) + (1-y)*softplus(dot), numerically stable
        loss += float(_softplus(-dot) if y else _softplus(dot))
        p = _sigmoid(dot)
        dd = p - y
        dh[u] += dd * h[v]
        dh[v] += dd * h[u]
    return loss, dh


def edge_probabilities(trace: ForwardTrace, sample: EdgeSample,
                       seq: TokenSequence) -> list[tuple[float, int]]:
    """(probability, label) per sampled edge, for the recoverability probe."""
    h = trace.final
    pos_of = seq.inst_positions
    out = []
    for t, s, y in sample.labelled():
        dot = float(h[pos_of[t]] @ h[pos_of[s]])
        out.append((_sigmoid(dot), y))
    return out


# ---------------------------------------------------------------------------
# Optimizer and training step

@dataclass
class AdamW:
    lr: float = 3e-4
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    warmup_steps: int = 100
    total_steps: int = 500
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def _decayed(self, name: str) -> bool:
        # layer norms, biases and the distance tables follow BERT practice:
        # no weight decay
        short = name.rsplit(".", 1)[-1]
        return not (("ln" in short) or short in ("b1", "b2", "mlm_b", "type_b", "beta"))

    def schedule(self, step: int) -> float:
        if self.warmup_steps > 0 and step <= self.warmup_steps:
            return self.lr * step / self.warmup_steps
        if self.total_steps <= self.warmup_steps:
            return self.lr
        frac = (self.total_steps - step) / (self.total_steps - self.warmup_steps)
        return self.lr * max(0.0, frac)

    def apply(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> float:
        self.step_count += 1
        lr = self.schedule(self.step_count)
        if self.clip_norm > 0:
            total = float(np.sqrt(sum(float((g ** 2).sum()) for g in grads.values())))
            if total > self.clip_norm:
                scale = self.clip_norm / total
                grads = {k: g * scale for k, g in grads.items()}
        b1, b2 = self.betas
        for name, p in params.items():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            mhat = self.m[name] / (1 - b1 ** self.step_count)
            vhat = self.v[name] / (1 - b2 ** self.step_count)
            update = mhat / (np.sqrt(vhat) + self.eps)
            if self._decayed(name):
                update = update + self.weight_decay * p
            p -= (lr * update).astype(p.dtype)
        return lr


@dataclass
class StepMetrics:
    step: int
    mlm_loss: float
    mdm_loss: float
    total: float
    lr: float
    n_masked: int
    n_edges: int


def train_step(items: list[FunctionArtifacts], state: EncoderState, opt: AdamW,
               rng: np.random.Generator, mlm_rate: float = 0.15,
               node_frac: float = 0.4, training: bool = True) -> StepMetrics:
    """One optimization step over a batch of functions.

    Reported losses are means (per masked token / per sampled edge); the total
    is their sum, matching the gradients fed to the optimizer.
    """
    prepared = []
    for item in items:
        ids, pert = mlm_perturb(item.seq, state.config.vocab_size, rng, mlm_rate)
        sample = mdm_sample(item.con, item.seq.n_instructions, rng, node_frac)
        bundle = perturb_bundle(item.seq, item.con.dist, sample)
        trace = encode(ids, bundle, state, rng=rng, training=training)
        prepared.append((item, pert, sample, trace))

    n_masked = sum(len(p) for _, p, _, _ in prepared)
    n_edges = sum(len(s.positives) + len(s.negatives) for _, _, s, _ in prepared)
    mlm_scale = 1.0 / max(1, n_masked)
    mdm_scale = 1.0 / max(1, n_edges)

    grads = state.zero_grads()
    mlm_total = 0.0
    mdm_total = 0.0
    for item, pert, sample, trace in prepared:
        l_mlm, dh_mlm, head_grads = mlm_loss(trace, pert, state)
        l_mdm, dh_mdm = mdm_loss(trace, sample, item.seq)
        mlm_total += l_mlm
        mdm_total += l_mdm
        for k, g in head_grads.items():
            grads[k] += g * mlm_scale
        backward(trace, dh_mlm * mlm_scale + dh_mdm * mdm_scale, state, grads)

    mlm_mean = mlm_total * mlm_scale
    mdm_mean = mdm_total * mdm_scale
    total = mlm_mean + mdm_mean
    if not np.isfinite(total):
        raise NumericsError(
            f"non-finite loss at step {opt.step_count + 1}: "
            f"mlm={mlm_mean!r} mdm={mdm_mean!r} over {len(items)} functions")
    lr = opt.apply(state.params, grads)
    return StepMetrics(step=opt.step_count, mlm_loss=mlm_mean, mdm_loss=mdm_mean,
                       total=total, lr=lr, n_masked=n_masked, n_edges=n_edges)

"""Joint masked-language and masked-dependence pre-training.

Each step perturbs every sequence twice: token masking (15% of eligible
tokens, replaced by ``[MASK]`` / a random token / kept at 80/10/10), and edge
masking (positive connectivity edges touching a 40% node sample are deleted
from the attention mask while an equal number of spurious edges is injected).
Both losses are computed on the same perturbed forward pass; the model must
recover the masked tokens and classify true-vs-injected edges from the
``<INST>`` hidden states.  Edge masking edits a copy of the kept
instructions' distances and builds the step's mask from it.

A step perturbs each function on its own, then packs the batch
(``perturb_batch``): the functions' rows are laid end to end under one
block-diagonal mask, and token positions, instruction indices and
``<INST>`` rows shift by the functions before.  So a step makes one call
each to ``encode``, ``mlm_loss``, ``mdm_loss``, ``backward`` and the
optimizer, and the losses take positions in the packed rows; one function
is the one-segment case.  The encoder's last layer runs only at the rows
the losses read (``loss_rows``), the masked tokens and the sampled edges'
``<INST>`` rows.  The step ends in ``update``, the reverse pass and the
optimizer step, as the fine-tuning commands' packed steps do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .connectivity import ConnectivityGraph
from .corpus import FunctionArtifacts
from .encoder import (EncoderState, ForwardTrace, NumericsError, backward,
                      binary_cross_entropy, encode, head_cross_entropy, sigmoid)
from .frontend import CLS_ID, FIRST_REGULAR_ID, INST_ID, MASK_ID, PAD_ID, TokenSequence
from .masks import AttentionPairs, build_bundle


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
    """RoBERTa-style token masking over the eligible positions, from three
    vectorised draws: which positions, the kind of each and its random token."""
    ids = list(seq.tokens)
    eligible = eligible_positions(seq)
    positions = [pos for pos, u in zip(eligible, rng.random(len(eligible)).tolist()) if u < rate]
    original = [ids[pos] for pos in positions]
    kinds = []
    n_regular = vocab_size - FIRST_REGULAR_ID
    draws = rng.random(len(positions)).tolist()
    # a random token per position, used only where its kind is random-token
    tokens = (FIRST_REGULAR_ID + rng.integers(max(n_regular, 1), size=len(positions))).tolist()
    for pos, u, tok in zip(positions, draws, tokens):
        if u < 0.8:
            kinds.append("mask-token")
            ids[pos] = MASK_ID
        elif u < 0.9 and n_regular > 0:
            kinds.append("random-token")
            ids[pos] = tok
        else:
            kinds.append("unchanged")
    return (np.array(ids, dtype=np.int64),
            MlmPerturbation(positions=positions, kinds=kinds, original=original))


@dataclass
class EdgeSample:
    """The sampled instruction indices, ascending, and the positive and
    negative edges as (E, 2) int arrays of ``u < v`` rows in row-major order."""
    nodes: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray


def mdm_sample(con: ConnectivityGraph, n_nodes: int, rng: np.random.Generator,
               node_frac: float = 0.4) -> EdgeSample:
    """Sample positive edges touching a 40% node subset and an equal number of
    non-edges (all available when the complement is smaller)."""
    k = int(round(node_frac * n_nodes))
    if k == 0:
        none = np.zeros((0, 2), dtype=np.int64)
        return EdgeSample(nodes=np.zeros(0, dtype=np.int64), positives=none, negatives=none)
    sampled = np.sort(rng.choice(n_nodes, size=k, replace=False))
    in_sample = np.zeros(n_nodes, dtype=bool)
    in_sample[sampled] = True
    # pairs u < v with an end in the sample, row-major like the edge lists
    touched = np.triu(in_sample[:, None] | in_sample[None, :], 1)
    linked = con.dist[:n_nodes, :n_nodes] > 0
    positives = np.argwhere(touched & linked)
    candidates = np.argwhere(touched & ~linked)
    n_neg = min(len(positives), len(candidates))
    negatives = candidates[:0]
    if n_neg:
        negatives = candidates[np.sort(rng.choice(len(candidates), size=n_neg, replace=False))]
    return EdgeSample(nodes=sampled, positives=positives, negatives=negatives)


def perturb_bundle(seq: TokenSequence, dist: np.ndarray,
                   sample: EdgeSample) -> AttentionPairs:
    """The mask of ``seq`` over a copy of the kept instructions' distances in
    which the sampled positive edges are deleted (distance 0) and the
    negatives injected (distance 1).  ``dist`` itself is never modified."""
    d = dist[:seq.n_instructions, :seq.n_instructions].copy()
    for edges, value in ((sample.positives, 0), (sample.negatives, 1)):
        t, s = edges.T
        d[t, s] = d[s, t] = value
    return build_bundle(seq, d)


def mlm_loss(trace: ForwardTrace, pert: MlmPerturbation, state: EncoderState):
    """Summed cross-entropy at the masked positions, rows of the trace (of
    the packed rows for a batch); returns the loss, the gradient w.r.t. the
    final hidden states and the head gradients."""
    return head_cross_entropy(trace, pert.positions, pert.original, state, "mlm")


def inst_rows(seq: TokenSequence) -> np.ndarray:
    """Each kept instruction's ``<INST>`` row in ``seq``, by instruction index."""
    # instructions are kept as a prefix, so the keys run 0, 1, ... in order
    return np.fromiter(seq.inst_positions.values(), dtype=np.int64, count=seq.n_instructions)


def _edge_rows(sample: EdgeSample, rows: np.ndarray) -> np.ndarray:
    """The (E, 2) ``<INST>`` rows of the sampled edges' ends, positives first."""
    return rows[np.concatenate([sample.positives, sample.negatives])]


def _edge_logits(trace: ForwardTrace, sample: EdgeSample, rows: np.ndarray):
    """Per sampled edge (positives first): the rows of ``trace.final`` that
    hold its ends' ``<INST>`` states ``u`` and ``v``, those states, its label
    and its logit ``h_u . h_v``."""
    ends = trace.index_of(_edge_rows(sample, rows))
    u, v = ends[:, 0], ends[:, 1]
    hu, hv = trace.final[u], trace.final[v]
    y = np.zeros(len(ends), dtype=trace.final.dtype)
    y[:len(sample.positives)] = 1.0
    return u, v, hu, hv, y, np.einsum("ij,ij->i", hu, hv)


def mdm_loss(trace: ForwardTrace, sample: EdgeSample, rows: np.ndarray):
    """Binary cross-entropy of sigmoid(h_u . h_v) over the balanced edge set,
    using the final-layer <INST> hidden states.  ``rows[t]`` is instruction
    t's ``<INST>`` row in the trace: ``inst_rows(seq)`` for one function,
    ``PackedBatch.rows`` for a batch."""
    u, v, hu, hv, y, dot = _edge_logits(trace, sample, rows)
    loss, ddot = binary_cross_entropy(dot, y)
    dh = np.zeros_like(trace.final)
    np.add.at(dh, u, ddot[:, None] * hv)
    np.add.at(dh, v, ddot[:, None] * hu)
    return loss, dh


def edge_probabilities(trace: ForwardTrace, sample: EdgeSample,
                       rows: np.ndarray) -> list[tuple[float, int]]:
    """(probability, label) per sampled edge, for the recoverability probe."""
    *_, y, dot = _edge_logits(trace, sample, rows)
    return list(zip(sigmoid(dot).tolist(), y.astype(int).tolist()))


@dataclass
class PackedBatch:
    """A batch's perturbed functions laid end to end for one encoder pass:
    their token ids and block-diagonal mask, the token masking at packed
    rows, the edge sample with the instructions numbered across the batch,
    and each of those instructions' ``<INST>`` row."""
    ids: np.ndarray
    pairs: AttentionPairs
    pert: MlmPerturbation
    sample: EdgeSample
    rows: np.ndarray


def perturb_batch(items: list[FunctionArtifacts], vocab_size: int, rng: np.random.Generator,
                  mlm_rate: float = 0.15, node_frac: float = 0.4) -> PackedBatch:
    """Mask each function's tokens and edges, in that order, and pack the
    batch: a function's positions and rows shift by the rows of the
    functions before it, and its instruction indices by their instructions."""
    ids, perts, samples, bundles = [], [], [], []
    for item in items:
        tokens, pert = mlm_perturb(item.seq, vocab_size, rng, mlm_rate)
        sample = mdm_sample(item.con, item.seq.n_instructions, rng, node_frac)
        ids.append(tokens)
        perts.append(pert)
        samples.append(sample)
        bundles.append(perturb_bundle(item.seq, item.con.dist, sample))
    rows = np.cumsum([0] + [len(item.seq) for item in items]).tolist()
    insts = np.cumsum([0] + [item.seq.n_instructions for item in items]).tolist()
    pert = MlmPerturbation(positions=[p + r for pt, r in zip(perts, rows) for p in pt.positions],
                           kinds=[k for pt in perts for k in pt.kinds],
                           original=[t for pt in perts for t in pt.original])
    sample = EdgeSample(*(np.concatenate([getattr(s, name) + i for s, i in zip(samples, insts)])
                          for name in ("nodes", "positives", "negatives")))
    return PackedBatch(ids=np.concatenate(ids), pairs=AttentionPairs.pack(bundles),
                       pert=pert, sample=sample,
                       rows=np.concatenate([inst_rows(item.seq) + r
                                            for item, r in zip(items, rows)]))


def loss_rows(batch: PackedBatch) -> np.ndarray:
    """The packed rows that the MLM and MDM losses read, sorted and distinct:
    the masked tokens and the sampled edges' ``<INST>`` rows."""
    # a mask rather than np.union1d, whose first call imports numpy.ma
    read = np.zeros(batch.pairs.n, dtype=bool)
    read[batch.pert.positions] = True
    read[_edge_rows(batch.sample, batch.rows)] = True
    return np.flatnonzero(read)


# ---------------------------------------------------------------------------
# Optimizer and training step

#: elements per block of the optimizer's flat update
_ADAM_BLOCK = 16384


@dataclass
class AdamW:
    """AdamW over one flat gradient, with the two moments as flat buffers
    (the contiguous-buffer update of ZeRO, Rajbhandari et al., 2020).
    ``m[name]`` and ``v[name]`` are views of a parameter's slices."""

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
    _flat_m: np.ndarray | None = field(default=None, init=False, repr=False)
    _flat_v: np.ndarray | None = field(default=None, init=False, repr=False)

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

    def _allocate(self, params: dict[str, np.ndarray], dtype) -> None:
        size = sum(p.size for p in params.values())
        self._flat_m, self._flat_v = np.zeros(size, dtype), np.zeros(size, dtype)
        offset = 0
        for name, p in params.items():
            self.m[name] = self._flat_m[offset:offset + p.size].reshape(p.shape)
            self.v[name] = self._flat_v[offset:offset + p.size].reshape(p.shape)
            offset += p.size

    def apply(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> float:
        """One update from the step's summed gradients.  A non-finite gradient
        raises ``NumericsError`` before any parameter or moment changes."""
        g = np.concatenate([grads[name].ravel() for name in params])
        sumsq = float(np.dot(g, g))
        if not math.isfinite(sumsq):  # a NaN or inf, or only an overflow of the sum
            for name in params:
                if not np.all(np.isfinite(grads[name])):
                    raise NumericsError(f"non-finite gradient for parameter {name!r}")
        if self._flat_m is None:
            self._allocate(params, g.dtype)
        m, v = self._flat_m, self._flat_v
        if len(g) != len(m):
            raise ValueError("the parameters differ from those of the first update")
        self.step_count += 1
        lr = self.schedule(self.step_count)
        if self.clip_norm > 0 and math.sqrt(sumsq) > self.clip_norm:
            g *= self.clip_norm / math.sqrt(sumsq)
        b1, b2 = self.betas
        c1, c2 = 1 - b1 ** self.step_count, 1 - b2 ** self.step_count
        # block by block, so that the temporaries stay small and in cache;
        # each block of g becomes the update mhat / (sqrt(vhat) + eps)
        for lo in range(0, len(g), _ADAM_BLOCK):
            gb, mb, vb = (a[lo:lo + _ADAM_BLOCK] for a in (g, m, v))
            mb *= b1
            tmp = (1 - b1) * gb
            mb += tmp
            vb *= b2
            np.multiply(gb, 1 - b2, out=tmp)
            tmp *= gb
            vb += tmp
            np.divide(vb, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            np.divide(mb, c1, out=gb)
            gb /= tmp
        offset = 0
        for name, p in params.items():
            update = g[offset:offset + p.size].reshape(p.shape)
            offset += p.size
            if self._decayed(name):
                update += self.weight_decay * p
            update *= lr
            p -= update
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


def update(trace: ForwardTrace, d_final: np.ndarray, head_grads: dict[str, np.ndarray],
           state: EncoderState, opt: AdamW) -> float:
    """The end of every encoder-training step: the heads' gradients, one reverse
    pass of ``trace`` from ``d_final`` and one optimizer update; returns the lr."""
    grads = state.zero_grads()
    for k, g in head_grads.items():
        grads[k] += g
    backward(trace, d_final, state, grads)
    return opt.apply(state.params, grads)


def train_step(items: list[FunctionArtifacts], state: EncoderState, opt: AdamW,
               rng: np.random.Generator, mlm_rate: float = 0.15,
               node_frac: float = 0.4) -> StepMetrics:
    """One optimization step over a batch of functions, packed into one
    encoder pass and one reverse pass.

    Reported losses are means (per masked token / per sampled edge); the total
    is their sum, matching the gradients fed to the optimizer.
    """
    batch = perturb_batch(items, state.config.vocab_size, rng, mlm_rate, node_frac)
    trace = encode(batch.ids, batch.pairs, state, rng=rng, rows=loss_rows(batch))
    n_masked = len(batch.pert)
    n_edges = len(batch.sample.positives) + len(batch.sample.negatives)
    mlm_scale = 1.0 / max(1, n_masked)
    mdm_scale = 1.0 / max(1, n_edges)

    l_mlm, dh_mlm, head_grads = mlm_loss(trace, batch.pert, state)
    l_mdm, dh_mdm = mdm_loss(trace, batch.sample, batch.rows)
    mlm_mean = l_mlm * mlm_scale
    mdm_mean = l_mdm * mdm_scale
    total = mlm_mean + mdm_mean
    if not np.isfinite(total):
        raise NumericsError(
            f"non-finite loss at step {opt.step_count + 1}: "
            f"mlm={mlm_mean!r} mdm={mdm_mean!r} over {len(items)} functions")
    lr = update(trace, dh_mlm * mlm_scale + dh_mdm * mdm_scale,
                {k: g * mlm_scale for k, g in head_grads.items()}, state, opt)
    return StepMetrics(step=opt.step_count, mlm_loss=mlm_mean, mdm_loss=mdm_mean,
                       total=total, lr=lr, n_masked=n_masked, n_edges=n_edges)

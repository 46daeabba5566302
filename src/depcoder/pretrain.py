"""Joint masked-language and masked-dependence pre-training.

Each step perturbs every sequence twice: token masking (15% of eligible
tokens, replaced by ``[MASK]`` / a random token / kept at 80/10/10), and edge
masking (positive connectivity edges touching a 40% node sample are deleted
from the attention mask while an equal number of spurious edges is injected).
Both losses are computed on the same perturbed forward pass; the model must
recover the masked tokens and classify true-vs-injected edges from the
``<INST>`` hidden states.

A step packs the batch (``perturb_batch``): the functions' rows are laid
end to end under one block-diagonal mask, and token positions, instruction
indices and ``<INST>`` rows run across the functions.  Each perturbation
is one step over the whole batch: ``mlm_perturb`` draws over the packed
token ids, ``mdm_sample`` draws random keys over the batch's instructions
and its candidate non-edges and ranks them within each function, and
``perturb_bundle`` builds the packed mask and deletes or injects the
sampled edges' ``<INST>`` pairs in its pair list.  So a step makes one
call each to ``encode``, ``mlm_loss``, ``mdm_loss``, ``backward`` and the
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
from .masks import AttentionPairs, build_bundle, inst_rows


@dataclass
class MlmPerturbation:
    positions: list[int]
    kinds: list[str]  # mask-token | random-token | unchanged
    original: list[int]

    def __len__(self) -> int:
        return len(self.positions)


#: the token masking kinds, by the code ``mlm_perturb`` draws
_KINDS = np.array(["mask-token", "random-token", "unchanged"])


def eligible_positions(tokens: np.ndarray) -> np.ndarray:
    """The positions in the token ids ``tokens`` that token masking may pick:
    all but those of ``[CLS]``, ``<INST>``, ``[PAD]`` and ``[MASK]``."""
    return np.flatnonzero((tokens[:, None] != (CLS_ID, INST_ID, PAD_ID, MASK_ID)).all(axis=1))


def mlm_perturb(tokens: np.ndarray, vocab_size: int, rng: np.random.Generator,
                rate: float = 0.15) -> tuple[np.ndarray, MlmPerturbation]:
    """RoBERTa-style token masking over the eligible positions of the token
    ids ``tokens``, one function's or a packed batch's, from three draws
    over all of them at once: which positions, the kind of each and its
    random token."""
    ids = np.array(tokens, dtype=np.int64)
    eligible = eligible_positions(ids)
    positions = eligible[rng.random(len(eligible)) < rate]
    original = ids[positions]
    n_regular = vocab_size - FIRST_REGULAR_ID
    draws = rng.random(len(positions))
    # a random token per position, used only where its kind is random-token
    random = FIRST_REGULAR_ID + rng.integers(max(n_regular, 1), size=len(positions))
    kind = np.where(draws < 0.8, 0, np.where((draws < 0.9) & (n_regular > 0), 1, 2))
    ids[positions[kind == 0]] = MASK_ID
    ids[positions[kind == 1]] = random[kind == 1]
    return ids, MlmPerturbation(positions=positions.tolist(), kinds=_KINDS[kind].tolist(),
                                original=original.tolist())


@dataclass
class EdgeSample:
    """The sampled instruction indices, ascending, and the positive and
    negative edges as (E, 2) int arrays of ``u < v`` rows in row-major order.
    For a batch the instructions are numbered across its functions."""
    nodes: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray


def _smallest_within(groups: np.ndarray, keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Whether each item is among the ``counts[g]`` items of smallest key in
    its group ``g``; ``groups`` is ascending."""
    order = np.lexsort((keys, groups))
    first = np.searchsorted(groups, groups)  # each item's group's first item
    rank = np.empty(len(keys), dtype=np.int64)
    rank[order] = np.arange(len(keys)) - first[order]
    return rank < counts[groups]


def mdm_sample(cons: list[ConnectivityGraph], n_nodes: list[int], rng: np.random.Generator,
               node_frac: float = 0.4) -> EdgeSample:
    """Sample, in each function, its positive edges touching a subset of
    round(``node_frac`` · k) of its k kept instructions and an equal number
    of its non-edges (all available when they are fewer), numbering the
    instructions across the functions.  Two draws serve the batch: random
    keys over its instructions, of which each function samples its
    smallest, and random keys over the candidate non-edges, ranked the same
    way within each function."""
    sizes = np.array(n_nodes, dtype=np.int64)
    firsts = np.cumsum(sizes) - sizes
    fn = np.repeat(np.arange(len(sizes)), sizes)
    in_sample = _smallest_within(fn, rng.random(int(sizes.sum())),
                                 np.rint(node_frac * sizes).astype(np.int64))
    # every pair u < v within a function, row-major: each instruction u
    # with each later one of its function, a range of v from u + 1
    later = np.repeat(firsts + sizes, sizes) - np.arange(len(fn)) - 1
    u = np.repeat(np.arange(len(fn)), later)
    v = np.arange(later.sum()) + np.repeat(np.arange(len(fn)) + 1 - (np.cumsum(later) - later),
                                           later)
    ends = np.cumsum(sizes * (sizes - 1) // 2).tolist()
    linked = np.concatenate([con.dist[u[lo:hi] - first, v[lo:hi] - first] > 0
                             for con, first, lo, hi
                             in zip(cons, firsts.tolist(), [0] + ends[:-1], ends)])
    touched = in_sample[u] | in_sample[v]
    pos, cand = touched & linked, touched & ~linked
    positives = np.stack([u[pos], v[pos]], axis=1)
    candidates = np.stack([u[cand], v[cand]], axis=1)
    fn_pos, fn_cand = fn[positives[:, 0]], fn[candidates[:, 0]]
    n_neg = np.minimum(np.bincount(fn_pos, minlength=len(sizes)),
                       np.bincount(fn_cand, minlength=len(sizes)))
    chosen = _smallest_within(fn_cand, rng.random(len(candidates)), n_neg)
    return EdgeSample(nodes=np.flatnonzero(in_sample), positives=positives,
                      negatives=candidates[chosen])


def perturb_bundle(seqs: list[TokenSequence], dists: list[np.ndarray],
                   sample: EdgeSample) -> AttentionPairs:
    """The mask of ``seqs`` laid end to end under their distances ``dists``,
    with the ``<INST>`` pairs of the sampled positive edges deleted and
    those of the negatives injected at distance 1.  No ``dist`` is modified."""
    return build_bundle(seqs, dists, removed=sample.positives, added=sample.negatives)


def mlm_loss(trace: ForwardTrace, pert: MlmPerturbation, state: EncoderState):
    """Summed cross-entropy at the masked positions, rows of the trace (of
    the packed rows for a batch); returns the loss, the gradient w.r.t. the
    final hidden states and the head gradients."""
    return head_cross_entropy(trace, pert.positions, pert.original, state, "mlm")


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
    t's ``<INST>`` row in the trace: ``inst_rows(seqs)`` of the sequences
    it encodes, ``PackedBatch.rows`` for a batch."""
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
    """Mask the batch's tokens, then its edges, each in one step over the
    functions laid end to end: positions and rows are those of the packed
    rows, and instruction indices run across the functions."""
    seqs = [item.seq for item in items]
    ids, pert = mlm_perturb(np.concatenate([seq.tokens for seq in seqs]), vocab_size, rng,
                            mlm_rate)
    sample = mdm_sample([item.con for item in items], [seq.n_instructions for seq in seqs],
                        rng, node_frac)
    pairs = perturb_bundle(seqs, [item.con.dist for item in items], sample)
    return PackedBatch(ids=ids, pairs=pairs, pert=pert, sample=sample, rows=inst_rows(seqs))


def loss_rows(batch: PackedBatch) -> np.ndarray:
    """The packed rows that the MLM and MDM losses read, sorted and distinct:
    the masked tokens and the sampled edges' ``<INST>`` rows."""
    # a mask rather than np.union1d, whose first call imports numpy.ma
    read = np.zeros(batch.pairs.n, dtype=bool)
    read[batch.pert.positions] = True
    read[_edge_rows(batch.sample, batch.rows)] = True
    return np.flatnonzero(read)


def batch_indices(n: int, batch_size: int, rng: np.random.Generator):
    """Endless batches of ``batch_size`` indices into ``n`` items, read in
    order from successive random permutations: a batch that runs past the
    end of one permutation continues into the next, which is drawn only
    then, just before that batch is yielded."""
    order, at = np.zeros(0, dtype=np.int64), 0
    while True:
        while len(order) - at < batch_size:
            order, at = np.concatenate([order[at:], rng.permutation(n)]), 0
        yield order[at:at + batch_size].tolist()
        at += batch_size


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

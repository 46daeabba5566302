"""Transformer encoder with mask- and distance-regularized attention.

Per layer (post-layer-norm residual ordering):

    Z_hat = RMA(H, M, R);  Z = LN(Z_hat + H);  H' = LN(FFN(Z) + Z)

RMA is multi-head attention whose logits receive a distance-dependent bias
between the ``<INST>`` tokens of connected instructions and an additive
0 / -inf mask:

    head_i = softmax((Q_i K_i^T + B_i) / sqrt(d_k) + M) V_i
    B_i[u, v] = beta_i[min(R[u, v], r_max)]   where R[u, v] > 0, else 0

Neither M nor B is built.  ``encode`` takes the mask as its
``AttentionPairs``, the P entries where M is 0, and each layer gathers
Q_i K_i^T at those pairs into a (heads, P) array.  ``beta`` is added at the
pairs where R > 0, and the softmax runs per row segment of the pair list,
so a disabled entry gets exactly zero weight.  Dropout is drawn only when
``encode`` is given an rng, one value per head and pair.  The two products,
Q K^T and weights times V, stay dense BLAS matmuls, which the pair list runs
one sequence's block at a time (see ``masks``): ``gather_product`` takes
Q K^T at the pairs, and ``spread_product`` multiplies the weights, zero off
the pairs, by V.  The reverse pass makes the same two calls, the second
also transposed, so no (heads, N, N) array reaches this module, and it adds
the logit gradients at the biased pairs into ``beta`` in one ``np.add.at``.

``encode`` runs a packed batch (``build_bundle`` over several sequences)
as it runs one sequence: every row-wise step, from the embeddings through
the projections, LayerNorms, GELU, dropout and residuals, runs once over
all the batch's rows, and only the two products go segment by segment.
Positions restart at 0 at each segment, and ``backward`` adds the
position-embedding gradient per segment.

Given the ``rows`` its caller reads, ``encode`` runs the last layer at those
rows only.  In a post-LN block row i's output depends on its own query and
on the keys and values of every row, so the last layer projects K and V
from all rows and Q from the selected ones, attends over
``pairs.select(rows)`` (a rectangular segment per sequence, see ``masks``)
and runs its residuals, LayerNorms, FFN and dropout on those rows alone.
``final`` then holds just those rows, and ``ForwardTrace.index_of`` maps a
sequence row to its row of ``final`` or raises for one not computed.  The
last layer's reverse pass returns a gradient over all rows: the residual
and Q paths add at the selected rows, the K and V paths at every row.

A float32 model computes in float32 throughout.  The projections are
batched matmuls on the (heads, d, dk) weights, and the softmax and its
reverse run in place on arrays the step has just made, never on the trace.
Everything runs on numpy with an explicit reverse pass so gradients can be
checked against central finite differences in 64-bit mode.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import ModelShape
from .corpus import write_file
from .errors import ConfigError, InputError, NumericsError
from .masks import AttentionPairs

CHECKPOINT_VERSION = 2


@dataclass
class EncoderConfig(ModelShape):
    vocab_size: int = 64
    n_type_labels: int = 36

    def __post_init__(self):
        self.validate()

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32


_LN_EPS = 1e-12
_GELU_C = 0.7978845608028654  # sqrt(2 / pi)
_GELU_A = 0.044715


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU in its tanh form, and the ``tanh`` that its reverse reuses.  The
    steps run in place on two fresh arrays and round as ``0.5 * x * (1 +
    tanh(c * (x + a * x³)))`` does, since halving is exact."""
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = t + 1.0
    y *= x
    y *= 0.5
    return y, t


def _gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The derivative of GELU at ``x`` given the forward's ``tanh`` ``t``:
    ``0.5 * (1 + t) + 0.5 * x * (1 - t²) * c * (1 + 3a * x²)``, in place on
    two fresh arrays."""
    d = x * 0.5
    w = t * t
    np.subtract(1.0, w, out=w)
    d *= w
    d *= _GELU_C
    np.multiply(x, 3.0 * _GELU_A, out=w)
    w *= x
    w += 1.0
    d *= w
    np.add(t, 1.0, out=w)
    w *= 0.5
    d += w
    return d


def _tensor_specs(config: EncoderConfig) -> dict[str, tuple[tuple[int, ...], float | None]]:
    """Every parameter's name -> (shape, initial value), in the order ``init``
    draws them; ``None`` means drawn from N(0, 0.02²)."""
    dh, dk, h = config.hidden, config.head_dim, config.heads
    specs = {
        "tok_emb": ((config.vocab_size, dh), None),
        "pos_emb": ((config.max_len, dh), None),
        # index 0 is reserved for "no bias applies" and never contributes
        "beta": ((h, config.r_max + 1), 0.0),
        "mlm_w": ((dh, config.vocab_size), None),
        "mlm_b": ((config.vocab_size,), 0.0),
        "type_w": ((dh, config.n_type_labels), None),
        "type_b": ((config.n_type_labels,), 0.0),
    }
    for l in range(config.layers):
        specs.update({
            f"l{l}.wq": ((h, dh, dk), None),
            f"l{l}.wk": ((h, dh, dk), None),
            f"l{l}.wv": ((h, dh, dk), None),
            f"l{l}.wo": ((dh, dh), None),
            f"l{l}.ln1_g": ((dh,), 1.0),
            f"l{l}.ln1_b": ((dh,), 0.0),
            f"l{l}.w1": ((dh, config.ffn), None),
            f"l{l}.b1": ((config.ffn,), 0.0),
            f"l{l}.w2": ((config.ffn, dh), None),
            f"l{l}.b2": ((dh,), 0.0),
            f"l{l}.ln2_g": ((dh,), 1.0),
            f"l{l}.ln2_b": ((dh,), 0.0),
        })
    return specs


class EncoderState:
    """All trainable parameters, as a flat name -> array dict."""

    def __init__(self, config: EncoderConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: EncoderConfig, seed: int = 0) -> "EncoderState":
        rng = np.random.default_rng(seed)
        dt = config.np_dtype
        p: dict[str, np.ndarray] = {}
        for name, (shape, fill) in _tensor_specs(config).items():
            if fill is None:
                p[name] = (rng.standard_normal(shape) * 0.02).astype(dt)
            else:
                p[name] = np.full(shape, fill, dtype=dt)
        return cls(config, p)

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params.items()}

    # -- checkpoint container: JSON header, then raw row-major float32 data --

    def save(self, path) -> None:
        names = sorted(self.params)
        header = {
            "format_version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "tensors": [{"name": n, "shape": list(self.params[n].shape),
                         "dtype": "float32"} for n in names],
        }
        blob = json.dumps(header, sort_keys=True).encode() + b"\n"
        write_file(path, b"".join(
            [len(blob).to_bytes(8, "little"), blob]
            + [np.ascontiguousarray(self.params[n], dtype=np.float32).tobytes() for n in names]))

    @classmethod
    def load(cls, path) -> "EncoderState":
        with open(path, "rb") as fh:
            hlen = int.from_bytes(fh.read(8), "little")
            if hlen > os.fstat(fh.fileno()).st_size:
                raise InputError(f"header length {hlen} exceeds the file")
            header = json.loads(fh.read(hlen).decode())
            if header["format_version"] != CHECKPOINT_VERSION:
                raise InputError(f"unsupported checkpoint version {header['format_version']}")
            try:
                config = EncoderConfig(**header["config"])
            except ConfigError as e:  # the file's fault, not the run's configuration
                raise InputError(f"the header's model: {e}") from e
            params = {}
            for spec in header["tensors"]:
                if spec["dtype"] != "float32":
                    raise InputError(f"tensor {spec['name']!r} is {spec['dtype']!r}, not float32")
                count = int(np.prod(spec["shape"])) if spec["shape"] else 1
                raw = fh.read(count * 4)
                arr = np.frombuffer(raw, dtype=np.float32).reshape(spec["shape"])
                params[spec["name"]] = arr.astype(config.np_dtype)
            if fh.read(1):
                raise InputError("bytes follow the last tensor")
        expected = {n: shape for n, (shape, _) in _tensor_specs(config).items()}
        if {n: a.shape for n, a in params.items()} != expected:
            raise InputError("the tensors do not fit the model the header configures")
        return cls(config, params)


@dataclass
class _LayerCache:
    h_in: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    probs: np.ndarray       # post-softmax, pre-dropout (heads, P), in pair order
    attn_drop: np.ndarray | None  # (heads, P)
    z_cat: np.ndarray
    xhat1: np.ndarray
    inv_std1: np.ndarray
    z1: np.ndarray
    ffn_pre: np.ndarray
    ffn_act: np.ndarray
    ffn_tanh: np.ndarray    # the GELU's tanh, reused by its reverse
    ffn_drop: np.ndarray | None
    xhat2: np.ndarray
    inv_std2: np.ndarray


@dataclass
class ForwardTrace:
    token_ids: np.ndarray
    pairs: AttentionPairs
    #: hidden states after the last layer, at ``rows`` when it is set
    final: np.ndarray
    #: per-layer reverse-pass cache; ``caches[l].h_in`` is H^(l) and
    #: ``caches[l].probs`` the layer's attention weights at its pair list
    caches: list[_LayerCache] = field(repr=False)
    #: the last layer's pair list: ``pairs.select(rows)``, or ``pairs``
    last_pairs: AttentionPairs | None = field(default=None, repr=False)

    @property
    def rows(self) -> np.ndarray | None:
        """The sequence rows that ``final`` holds, in order; None for all."""
        return None if self.last_pairs is None else self.last_pairs.rows

    def index_of(self, positions) -> np.ndarray:
        """The row of ``final`` that holds each of the sequence rows
        ``positions``; a row the last layer did not compute raises
        ``ValueError``."""
        positions = np.asarray(positions, dtype=np.int64)
        rows = self.rows
        if rows is None:
            return positions
        at = np.searchsorted(rows, positions)
        found = at < len(rows)
        found[found] = rows[at[found]] == positions[found]
        if not found.all():
            raise ValueError(f"rows {positions[~found].tolist()} were not computed")
        return at

    @property
    def cls_embedding(self) -> np.ndarray:
        return self.final[self.index_of([0])[0]]


def embed_inputs(token_ids: np.ndarray, state: EncoderState,
                 positions: np.ndarray) -> np.ndarray:
    """Token plus position embeddings; a packed batch's ``positions`` restart
    at each sequence."""
    n = int(positions.max()) + 1
    if n > state.config.max_len:
        raise ValueError(f"sequence length {n} exceeds max_len {state.config.max_len}")
    return state.params["tok_emb"][token_ids] + state.params["pos_emb"][positions]


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``a`` with the same row of ``b``, as a column."""
    return np.einsum("ij,ij->i", a, b)[:, None]


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    d = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(_row_dot(xhat, xhat) / d + _LN_EPS)
    xhat *= inv_std
    y = xhat * g
    y += b
    return y, xhat, inv_std


def _layer_norm_backward(dy, xhat, inv_std, g):
    d = dy.shape[-1]
    dg = (dy * xhat).sum(axis=0)
    db = dy.sum(axis=0)
    dx = dy * g  # d xhat, turned into dx in place
    mean_dx = dx.sum(axis=-1, keepdims=True) / d
    mean_dx_xhat = _row_dot(dx, xhat) / d
    dx -= mean_dx
    dx -= xhat * mean_dx_xhat
    dx *= inv_std
    return dx, dg, db


def _dropout_mask(rng: np.random.Generator | None, shape, cfg: EncoderConfig):
    """An inverted-dropout mask of ``shape``, or None when ``rng`` is None or
    the model has no dropout."""
    if rng is None or cfg.dropout == 0.0:
        return None
    keep = 1.0 - cfg.dropout
    return (rng.random(shape) < keep).astype(cfg.np_dtype) / keep


def rma_attention(h: np.ndarray, pairs: AttentionPairs, layer: int, state: EncoderState,
                  rng: np.random.Generator | None = None):
    """One regularized multi-head attention application over the enabled
    ``pairs``; returns the output at their query rows and the cache needed
    for the reverse pass.  Its weights are dropped out when an ``rng`` is
    given."""
    cfg = state.config
    p = state.params
    dk = cfg.head_dim

    q = pairs.queries(h) @ p[f"l{layer}.wq"]  # (heads, m, dk)
    k = h @ p[f"l{layer}.wk"]  # (heads, N, dk)
    v = h @ p[f"l{layer}.wv"]
    scores = pairs.gather_product(q, k.transpose(0, 2, 1))  # (heads, P)
    # the distance bias applies only between connected <INST> tokens (R > 0)
    scores[:, pairs.biased] += p["beta"][:, np.minimum(pairs.r, cfg.r_max)]
    scores /= math.sqrt(dk)  # a Python float keeps float32 scores float32
    # row-segment softmax in place: ``scores`` is fresh and becomes ``probs``
    scores -= pairs.row_max(scores)
    np.exp(scores, out=scores)
    scores /= pairs.row_sum(scores)
    probs = scores

    attn_drop = _dropout_mask(rng, probs.shape, cfg)
    used = probs if attn_drop is None else probs * attn_drop

    z = pairs.spread_product(used, v)  # (heads, m, dk)
    z_cat = z.transpose(1, 0, 2).reshape(pairs.m, cfg.hidden)
    out = z_cat @ p[f"l{layer}.wo"]
    return out, (q, k, v, probs, attn_drop, z_cat)


def transformer_block(h: np.ndarray, pairs: AttentionPairs, layer: int, state: EncoderState,
                      rng: np.random.Generator | None = None):
    p = state.params
    attn_out, (q, k, v, probs, attn_drop, z_cat) = rma_attention(h, pairs, layer, state, rng)
    # biases and residuals are added in place to the products just made
    attn_out += pairs.queries(h)
    z1, xhat1, inv_std1 = _layer_norm(attn_out, p[f"l{layer}.ln1_g"], p[f"l{layer}.ln1_b"])
    ffn_pre = z1 @ p[f"l{layer}.w1"]
    ffn_pre += p[f"l{layer}.b1"]
    ffn_act, ffn_tanh = _gelu(ffn_pre)
    ffn_out = ffn_act @ p[f"l{layer}.w2"]
    ffn_out += p[f"l{layer}.b2"]
    ffn_drop = _dropout_mask(rng, ffn_out.shape, state.config)
    if ffn_drop is not None:
        ffn_out *= ffn_drop
    ffn_out += z1
    h_out, xhat2, inv_std2 = _layer_norm(ffn_out, p[f"l{layer}.ln2_g"], p[f"l{layer}.ln2_b"])
    cache = _LayerCache(h_in=h, q=q, k=k, v=v, probs=probs, attn_drop=attn_drop,
                        z_cat=z_cat, xhat1=xhat1, inv_std1=inv_std1, z1=z1,
                        ffn_pre=ffn_pre, ffn_act=ffn_act, ffn_tanh=ffn_tanh,
                        ffn_drop=ffn_drop, xhat2=xhat2, inv_std2=inv_std2)
    return h_out, cache


def encode(token_ids, pairs: AttentionPairs, state: EncoderState,
           rng: np.random.Generator | None = None, rows=None) -> ForwardTrace:
    """Run the encoder over the mask ``pairs``, one sequence's or a packed
    batch's; the trace keeps what the reverse pass needs.  Given an ``rng``,
    the training pass: dropout is drawn from it when the model's ``dropout``
    is above 0.  Given ``rows``, the sorted, distinct rows the caller reads,
    the last layer runs at those rows only and ``final`` holds them in
    order; rows that are unsorted, repeated or out of range raise
    ``ValueError``."""
    last = pairs if rows is None else pairs.select(rows)
    ids = np.asarray(token_ids, dtype=np.int64)
    h = embed_inputs(ids, state, pairs.positions).astype(state.config.np_dtype)
    caches = []
    top = state.config.layers - 1
    for layer in range(top + 1):
        h, cache = transformer_block(h, last if layer == top else pairs, layer, state, rng)
        if not np.all(np.isfinite(h)):
            raise NumericsError(f"non-finite activations after layer {layer}")
        caches.append(cache)
    return ForwardTrace(token_ids=ids, pairs=pairs, final=h, caches=caches, last_pairs=last)


def _input_grad(dproj: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The input gradient of the projection ``x @ w`` by its (heads, d, dk)
    weights, from the (heads, rows, dk) output gradient: one 2-D product of
    the heads laid side by side, (rows, heads·dk) @ (heads·dk, d), summing
    over heads and dk at once."""
    heads, rows, dk = dproj.shape
    return (dproj.transpose(1, 0, 2).reshape(rows, heads * dk)
            @ w.transpose(0, 2, 1).reshape(heads * dk, -1))


def _block_backward(dh_out: np.ndarray, c: _LayerCache, pairs: AttentionPairs,
                    layer: int, state: EncoderState, grads: dict[str, np.ndarray]) -> np.ndarray:
    """One layer's reverse pass: adds its parameter gradients into ``grads``
    and returns the gradient w.r.t. its input, over all N rows however many
    query rows ``pairs`` has.  Its temporaries, (rows, ffn) arrays among
    them, are freed when it returns, before the next layer's."""
    cfg = state.config
    p = state.params
    dk = cfg.head_dim
    da2, dg2, db2 = _layer_norm_backward(dh_out, c.xhat2, c.inv_std2, p[f"l{layer}.ln2_g"])
    grads[f"l{layer}.ln2_g"] += dg2
    grads[f"l{layer}.ln2_b"] += db2
    dffn_out = da2 if c.ffn_drop is None else da2 * c.ffn_drop
    dz1 = da2.copy()
    grads[f"l{layer}.w2"] += c.ffn_act.T @ dffn_out
    grads[f"l{layer}.b2"] += dffn_out.sum(axis=0)
    dpre = dffn_out @ p[f"l{layer}.w2"].T
    dpre *= _gelu_grad(c.ffn_pre, c.ffn_tanh)
    grads[f"l{layer}.w1"] += c.z1.T @ dpre
    grads[f"l{layer}.b1"] += dpre.sum(axis=0)
    dz1 += dpre @ p[f"l{layer}.w1"].T

    da1, dg1, db1 = _layer_norm_backward(dz1, c.xhat1, c.inv_std1, p[f"l{layer}.ln1_g"])
    grads[f"l{layer}.ln1_g"] += dg1
    grads[f"l{layer}.ln1_b"] += db1

    grads[f"l{layer}.wo"] += c.z_cat.T @ da1
    dz_cat = da1 @ p[f"l{layer}.wo"].T
    dz = dz_cat.reshape(pairs.m, cfg.heads, dk).transpose(1, 0, 2)  # (heads, m, dk)

    used = c.probs if c.attn_drop is None else c.probs * c.attn_drop
    dv = pairs.spread_product(used, dz, transpose=True)
    # softmax reverse in place on the fresh ``dprobs``; the cache is read only
    dprobs = pairs.gather_product(dz, c.v.transpose(0, 2, 1))  # (heads, P)
    if c.attn_drop is not None:
        dprobs *= c.attn_drop
    dprobs -= pairs.row_sum(dprobs * c.probs)
    dprobs *= c.probs
    dprobs /= math.sqrt(dk)
    # grad w.r.t. (QK^T + B) at the pairs
    np.add.at(grads["beta"], (np.arange(cfg.heads)[:, None], np.minimum(pairs.r, cfg.r_max)),
              dprobs[:, pairs.biased])
    dq = pairs.spread_product(dprobs, c.k)  # (heads, m, dk)
    dkk = pairs.spread_product(dprobs, c.q, transpose=True)  # (heads, N, dk)
    grads[f"l{layer}.wq"] += pairs.queries(c.h_in).T @ dq
    grads[f"l{layer}.wk"] += c.h_in.T @ dkk
    grads[f"l{layer}.wv"] += c.h_in.T @ dv
    # the residual and Q paths reach the query rows, the K and V paths every row
    dh_query = _input_grad(dq, p[f"l{layer}.wq"])
    dh_query += da1
    dh_in = _input_grad(dkk, p[f"l{layer}.wk"])
    dh_in += _input_grad(dv, p[f"l{layer}.wv"])
    if pairs.rows is None:
        dh_in += dh_query
    else:
        dh_in[pairs.rows] += dh_query
    return dh_in


def backward(trace: ForwardTrace, d_final: np.ndarray, state: EncoderState,
             grads: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Reverse-mode gradients of every encoder parameter given the gradient of
    the loss w.r.t. the final hidden states.  Head parameters (mlm/type) are
    left for the loss functions that own them, and the optimizer checks that
    the gradients are finite.  ``d_final`` is shaped as ``trace.final``."""
    if d_final.shape != trace.final.shape:
        raise ValueError(f"a gradient of shape {d_final.shape} for final states of shape "
                         f"{trace.final.shape}")
    if grads is None:
        grads = state.zero_grads()
    pairs = trace.pairs
    dh = d_final.astype(state.config.np_dtype)
    top = state.config.layers - 1
    for layer in reversed(range(top + 1)):
        layer_pairs = trace.last_pairs if layer == top else pairs
        dh = _block_backward(dh, trace.caches[layer], layer_pairs, layer, state, grads)
    np.add.at(grads["tok_emb"], trace.token_ids, dh)
    for seg in pairs.segments:
        grads["pos_emb"][:seg.n] += dh[seg.row:seg.row + seg.n]
    return grads


def head_cross_entropy(trace: ForwardTrace, positions: list[int], targets: list[int],
                       state: EncoderState, head: str):
    """Summed softmax cross-entropy of the linear head ``{head}_w``/``{head}_b``
    over the final hidden states at ``positions``, sequence rows that may
    repeat; returns the loss, the gradient w.r.t. the final hidden states and
    the head's gradients."""
    w, b = state.params[f"{head}_w"], state.params[f"{head}_b"]
    dh = np.zeros_like(trace.final)
    if not positions:
        return 0.0, dh, {f"{head}_w": np.zeros_like(w), f"{head}_b": np.zeros_like(b)}
    at = trace.index_of(positions)
    hs = trace.final[at]
    logits = hs @ w + b
    logits = logits - logits.max(axis=-1, keepdims=True)
    logp = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    rows, targets = np.arange(len(targets)), np.asarray(targets)
    loss = float(-logp[rows, targets].sum())
    dlogits = np.exp(logp)
    dlogits[rows, targets] -= 1.0
    np.add.at(dh, at, dlogits @ w.T)  # a repeated position takes each label's gradient
    return loss, dh, {f"{head}_w": hs.T @ dlogits, f"{head}_b": dlogits.sum(axis=0)}


def sigmoid(x: np.ndarray) -> np.ndarray:
    # the tanh form cannot overflow for large |x|
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def binary_cross_entropy(logits: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Summed sigmoid cross-entropy of ``logits`` against 0/1 labels ``y``, and
    its gradient w.r.t. the logits."""
    # y * softplus(-x) + (1 - y) * softplus(x), numerically stable
    loss = float(np.logaddexp(0.0, np.where(y > 0, -logits, logits)).sum())
    return loss, sigmoid(logits) - y

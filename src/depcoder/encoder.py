"""Transformer encoder with mask- and distance-regularized attention.

Per layer (post-layer-norm residual ordering):

    Z_hat = RMA(H, M, R);  Z = LN(Z_hat + H);  H' = LN(FFN(Z) + Z)

RMA is multi-head attention whose logits receive a distance-dependent bias
between the ``<INST>`` tokens of connected instructions and an additive
0 / -inf mask:

    head_i = softmax((Q_i K_i^T + B_i) / sqrt(d_k) + M) V_i
    B_i[u, v] = beta_i[min(R[u, v], r_max)]   where R[u, v] > 0, else 0

B is never built: ``beta`` is looked up and added only at the nonzero
entries of R (the connected ``<INST>`` pairs), and the reverse pass scatters
their logit gradients back into ``beta`` in one ``np.add.at``.

A float32 model computes in float32 throughout: the mask is float32, so
adding it casts nothing.  The projections are batched matmuls on the
(heads, d, dk) weights, and the softmax and its reverse run in place on
arrays the step has just made, never on the trace.  Everything runs on numpy
with an explicit reverse pass so gradients can be checked against central
finite differences in 64-bit mode.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import ModelShape
from .masks import MaskBundle

CHECKPOINT_VERSION = 1


class NumericsError(Exception):
    """Non-finite activations or gradients: the training-divergence signal."""


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


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + _GELU_A * (x * x * x))))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)


class EncoderState:
    """All trainable parameters, as a flat name -> array dict."""

    def __init__(self, config: EncoderConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: EncoderConfig, seed: int = 0) -> "EncoderState":
        rng = np.random.default_rng(seed)
        dt = config.np_dtype
        dh, dk, h = config.hidden, config.head_dim, config.heads

        def normal(*shape):
            return (rng.standard_normal(shape) * 0.02).astype(dt)

        p: dict[str, np.ndarray] = {
            "tok_emb": normal(config.vocab_size, dh),
            "pos_emb": normal(config.max_len, dh),
            # index 0 is reserved for "no bias applies" and never contributes
            "beta": np.zeros((h, config.r_max + 1), dtype=dt),
            "mlm_w": normal(dh, config.vocab_size),
            "mlm_b": np.zeros(config.vocab_size, dtype=dt),
            "type_w": normal(dh, config.n_type_labels),
            "type_b": np.zeros(config.n_type_labels, dtype=dt),
        }
        for l in range(config.layers):
            p[f"l{l}.wq"] = normal(h, dh, dk)
            p[f"l{l}.wk"] = normal(h, dh, dk)
            p[f"l{l}.wv"] = normal(h, dh, dk)
            p[f"l{l}.wo"] = normal(dh, dh)
            p[f"l{l}.ln1_g"] = np.ones(dh, dtype=dt)
            p[f"l{l}.ln1_b"] = np.zeros(dh, dtype=dt)
            p[f"l{l}.w1"] = normal(dh, config.ffn)
            p[f"l{l}.b1"] = np.zeros(config.ffn, dtype=dt)
            p[f"l{l}.w2"] = normal(config.ffn, dh)
            p[f"l{l}.b2"] = np.zeros(dh, dtype=dt)
            p[f"l{l}.ln2_g"] = np.ones(dh, dtype=dt)
            p[f"l{l}.ln2_b"] = np.zeros(dh, dtype=dt)
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
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            for n in names:
                fh.write(np.ascontiguousarray(self.params[n], dtype=np.float32).tobytes())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path) -> "EncoderState":
        with open(path, "rb") as fh:
            hlen = int.from_bytes(fh.read(8), "little")
            header = json.loads(fh.read(hlen).decode())
            if header["format_version"] != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {header['format_version']}")
            config = EncoderConfig(**header["config"])
            params = {}
            for spec in header["tensors"]:
                count = int(np.prod(spec["shape"])) if spec["shape"] else 1
                raw = fh.read(count * 4)
                arr = np.frombuffer(raw, dtype=np.float32).reshape(spec["shape"])
                params[spec["name"]] = arr.astype(config.np_dtype)
        return cls(config, params)


@dataclass
class _LayerCache:
    h_in: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    probs: np.ndarray       # post-softmax, pre-dropout (heads, N, N)
    attn_drop: np.ndarray | None
    z_cat: np.ndarray
    xhat1: np.ndarray
    inv_std1: np.ndarray
    z1: np.ndarray
    ffn_pre: np.ndarray
    ffn_act: np.ndarray
    ffn_drop: np.ndarray | None
    xhat2: np.ndarray
    inv_std2: np.ndarray


@dataclass
class ForwardTrace:
    token_ids: np.ndarray
    bundle: MaskBundle
    #: hidden states after the last layer
    final: np.ndarray
    #: per-layer reverse-pass cache; ``caches[l].h_in`` is H^(l) and
    #: ``caches[l].probs`` the layer's attention weights
    caches: list[_LayerCache] = field(repr=False)

    @property
    def cls_embedding(self) -> np.ndarray:
        return self.final[0]


def embed_inputs(token_ids: np.ndarray, state: EncoderState) -> np.ndarray:
    n = len(token_ids)
    if n > state.config.max_len:
        raise ValueError(f"sequence length {n} exceeds max_len {state.config.max_len}")
    return state.params["tok_emb"][token_ids] + state.params["pos_emb"][:n]


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x - mu) * inv_std
    return xhat * g + b, xhat, inv_std


def _layer_norm_backward(dy, xhat, inv_std, g):
    dg = (dy * xhat).sum(axis=0)
    db = dy.sum(axis=0)
    dxhat = dy * g
    dx = inv_std * (dxhat
                    - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, dg, db


def rma_attention(h: np.ndarray, bundle: MaskBundle, layer: int, state: EncoderState,
                  rng: np.random.Generator | None = None, training: bool = False):
    """One regularized multi-head attention application; returns the output
    and the cache needed for the reverse pass."""
    cfg = state.config
    p = state.params
    dk = cfg.head_dim

    q = h @ p[f"l{layer}.wq"]  # (heads, N, dk)
    k = h @ p[f"l{layer}.wk"]
    v = h @ p[f"l{layer}.wv"]
    # the distance bias applies only between connected <INST> tokens (R > 0)
    i, j = np.nonzero(bundle.R)
    r = np.minimum(bundle.R[i, j], cfg.r_max)
    scores = q @ k.transpose(0, 2, 1)
    scores[:, i, j] += p["beta"][:, r]
    scores /= math.sqrt(dk)  # a Python float keeps float32 scores float32
    scores += bundle.M
    # softmax in place: ``scores`` is a fresh array and becomes ``probs``
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    probs = scores

    attn_drop = None
    used = probs
    if training and cfg.dropout > 0.0:
        if rng is None:
            raise ValueError("training mode requires an rng for dropout")
        keep = 1.0 - cfg.dropout
        attn_drop = (rng.random(probs.shape) < keep).astype(cfg.np_dtype) / keep
        used = probs * attn_drop

    z = used @ v  # (heads, N, dk)
    z_cat = z.transpose(1, 0, 2).reshape(h.shape[0], cfg.hidden)
    out = z_cat @ p[f"l{layer}.wo"]
    return out, (q, k, v, probs, attn_drop, z_cat)


def transformer_block(h: np.ndarray, bundle: MaskBundle, layer: int, state: EncoderState,
                      rng: np.random.Generator | None = None, training: bool = False):
    cfg = state.config
    p = state.params
    attn_out, (q, k, v, probs, attn_drop, z_cat) = rma_attention(
        h, bundle, layer, state, rng, training)
    z1, xhat1, inv_std1 = _layer_norm(attn_out + h, p[f"l{layer}.ln1_g"], p[f"l{layer}.ln1_b"])
    ffn_pre = z1 @ p[f"l{layer}.w1"] + p[f"l{layer}.b1"]
    ffn_act = _gelu(ffn_pre)
    ffn_out = ffn_act @ p[f"l{layer}.w2"] + p[f"l{layer}.b2"]
    ffn_drop = None
    if training and cfg.dropout > 0.0:
        keep = 1.0 - cfg.dropout
        ffn_drop = (rng.random(ffn_out.shape) < keep).astype(cfg.np_dtype) / keep
        ffn_out = ffn_out * ffn_drop
    h_out, xhat2, inv_std2 = _layer_norm(ffn_out + z1, p[f"l{layer}.ln2_g"], p[f"l{layer}.ln2_b"])
    cache = _LayerCache(h_in=h, q=q, k=k, v=v, probs=probs, attn_drop=attn_drop,
                        z_cat=z_cat, xhat1=xhat1, inv_std1=inv_std1, z1=z1,
                        ffn_pre=ffn_pre, ffn_act=ffn_act, ffn_drop=ffn_drop,
                        xhat2=xhat2, inv_std2=inv_std2)
    return h_out, cache


def encode(token_ids, bundle: MaskBundle, state: EncoderState,
           rng: np.random.Generator | None = None, training: bool = False) -> ForwardTrace:
    """Run the full encoder; the trace keeps what the reverse pass needs."""
    ids = np.asarray(token_ids, dtype=np.int64)
    h = embed_inputs(ids, state).astype(state.config.np_dtype)
    caches = []
    for layer in range(state.config.layers):
        h, cache = transformer_block(h, bundle, layer, state, rng, training)
        if not np.all(np.isfinite(h)):
            raise NumericsError(f"non-finite activations after layer {layer}")
        caches.append(cache)
    return ForwardTrace(token_ids=ids, bundle=bundle, final=h, caches=caches)


def backward(trace: ForwardTrace, d_final: np.ndarray, state: EncoderState,
             grads: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Reverse-mode gradients of every encoder parameter given the gradient of
    the loss w.r.t. the final hidden states.  Head parameters (mlm/type) are
    left for the loss functions that own them."""
    cfg = state.config
    p = state.params
    if grads is None:
        grads = state.zero_grads()
    i, j = np.nonzero(trace.bundle.R)
    r = np.minimum(trace.bundle.R[i, j], cfg.r_max)
    dk = cfg.head_dim
    dh_out = d_final.astype(cfg.np_dtype)

    for layer in reversed(range(cfg.layers)):
        c = trace.caches[layer]
        da2, dg2, db2 = _layer_norm_backward(dh_out, c.xhat2, c.inv_std2, p[f"l{layer}.ln2_g"])
        grads[f"l{layer}.ln2_g"] += dg2
        grads[f"l{layer}.ln2_b"] += db2
        dffn_out = da2 if c.ffn_drop is None else da2 * c.ffn_drop
        dz1 = da2.copy()
        grads[f"l{layer}.w2"] += c.ffn_act.T @ dffn_out
        grads[f"l{layer}.b2"] += dffn_out.sum(axis=0)
        dact = dffn_out @ p[f"l{layer}.w2"].T
        dpre = dact * _gelu_grad(c.ffn_pre)
        grads[f"l{layer}.w1"] += c.z1.T @ dpre
        grads[f"l{layer}.b1"] += dpre.sum(axis=0)
        dz1 += dpre @ p[f"l{layer}.w1"].T

        da1, dg1, db1 = _layer_norm_backward(dz1, c.xhat1, c.inv_std1, p[f"l{layer}.ln1_g"])
        grads[f"l{layer}.ln1_g"] += dg1
        grads[f"l{layer}.ln1_b"] += db1
        dh_in = da1.copy()

        grads[f"l{layer}.wo"] += c.z_cat.T @ da1
        dz_cat = da1 @ p[f"l{layer}.wo"].T
        n = dz_cat.shape[0]
        dz = dz_cat.reshape(n, cfg.heads, dk).transpose(1, 0, 2)  # (heads, N, dk)

        used = c.probs if c.attn_drop is None else c.probs * c.attn_drop
        dv = used.transpose(0, 2, 1) @ dz
        # softmax reverse in place on the fresh ``dprobs``; the cache is read only
        dprobs = dz @ c.v.transpose(0, 2, 1)
        if c.attn_drop is not None:
            dprobs *= c.attn_drop
        dprobs -= (dprobs * c.probs).sum(axis=-1, keepdims=True)
        dprobs *= c.probs
        dprobs /= math.sqrt(dk)
        draw = dprobs  # grad w.r.t. (QK^T + B)
        np.add.at(grads["beta"], (np.arange(cfg.heads)[:, None], r), draw[:, i, j])
        dq = draw @ c.k
        dkk = draw.transpose(0, 2, 1) @ c.q
        for name, dproj in (("wq", dq), ("wk", dkk), ("wv", dv)):
            grads[f"l{layer}.{name}"] += c.h_in.T @ dproj
            dh_in += (dproj @ p[f"l{layer}.{name}"].transpose(0, 2, 1)).sum(axis=0)
        dh_out = dh_in

    np.add.at(grads["tok_emb"], trace.token_ids, dh_out)
    grads["pos_emb"][:len(trace.token_ids)] += dh_out

    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericsError(f"non-finite gradient for parameter {name!r}")
    return grads


def head_cross_entropy(trace: ForwardTrace, positions: list[int], targets: list[int],
                       state: EncoderState, head: str):
    """Summed softmax cross-entropy of the linear head ``{head}_w``/``{head}_b``
    over the final hidden states at ``positions``; returns the loss, the
    gradient w.r.t. the final hidden states and the head's gradients, which
    are accumulated into arrays of the parameters' dtype."""
    w, b = state.params[f"{head}_w"], state.params[f"{head}_b"]
    dh = np.zeros_like(trace.final)
    head_grads = {f"{head}_w": np.zeros_like(w), f"{head}_b": np.zeros_like(b)}
    if not positions:
        return 0.0, dh, head_grads
    hs = trace.final[positions]
    logits = hs @ w + b
    logits = logits - logits.max(axis=-1, keepdims=True)
    logp = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    rows, targets = np.arange(len(targets)), np.asarray(targets)
    loss = float(-logp[rows, targets].sum())
    dlogits = np.exp(logp)
    dlogits[rows, targets] -= 1.0
    head_grads[f"{head}_w"] += hs.T @ dlogits
    head_grads[f"{head}_b"] += dlogits.sum(axis=0)
    dh[positions] += dlogits @ w.T
    return loss, dh, head_grads

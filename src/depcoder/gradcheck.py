"""Finite-difference verification of the hand-written reverse pass.

Builds a tiny 64-bit model over a fixed two-function listing, freezes one
MLM + edge perturbation of the two functions packed into one batch, as
pre-training packs them, and compares analytic gradients of the combined
MLM + edge-prediction + type-head loss against central differences.  The
encoder's last layer runs only at the rows the three losses read, as in
training, so the check covers its pruned reverse pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .corpus import Corpus
from .downstream import type_inference_loss
from .encoder import EncoderState, backward, encode
from .pretrain import PackedBatch, loss_rows, mdm_loss, mlm_loss, perturb_batch

_LISTING = """\
.func alpha
  mov rax, 7
  mov rbx, 3
  add rax, rbx
  mov [rsp + 8], rax
  mov rcx, [rsp + 8]
  imul rcx, rbx
  cmp rcx, rax
  jne .done
  xor rax, rax
.done:
  ret

.func beta
  mov rsi, 1024
  lea rdi, [rsi + 4*rsi + 16]
  mov rdx, [rdi]
  sub rdx, rsi
  shl rdx, 2
  ret
"""


@dataclass
class GradcheckSetup:
    state: EncoderState
    batch: PackedBatch
    #: (packed token position, type label) pairs for the type head
    labels: list[tuple[int, int]]


def build_setup(seed: int = 0) -> GradcheckSetup:
    cfg = RunConfig(layers=2, hidden=16, heads=2, ffn=32, dropout=0.0, dtype="float64",
                    max_len=128)
    corpus = Corpus.from_text(_LISTING, cfg)
    state = EncoderState.init(cfg.encoder_config(len(corpus.vocab)), seed)
    batch = perturb_batch(corpus.functions, len(corpus.vocab), np.random.default_rng(seed + 1),
                          mlm_rate=0.3)
    # every third token position of each function is labelled for the type head
    labels = [(seg.row + p, p % state.config.n_type_labels)
              for seg in batch.pairs.segments for p in range(3, seg.n, 3)]
    return GradcheckSetup(state=state, batch=batch, labels=labels)


def total_loss(setup: GradcheckSetup, grads: dict[str, np.ndarray] | None = None) -> float:
    """The summed MLM + edge + type-head loss; its gradients add into ``grads`` if given."""
    batch = setup.batch
    rows = sorted({*loss_rows(batch).tolist(), *(p for p, _ in setup.labels)})
    trace = encode(batch.ids, batch.pairs, setup.state, rows=rows)
    l_mlm, dh_mlm, mlm_head = mlm_loss(trace, batch.pert, setup.state)
    l_mdm, dh_mdm = mdm_loss(trace, batch.sample, batch.rows)
    l_type, dh_type, type_head = type_inference_loss(trace, setup.labels, setup.state)
    if grads is not None:
        for k, g in {**mlm_head, **type_head}.items():
            grads[k] += g
        backward(trace, dh_mlm + dh_mdm + dh_type, setup.state, grads)
    return l_mlm + l_mdm + l_type


@dataclass
class GradcheckResult:
    max_rel_err: float
    n_checked: int
    worst_param: str
    per_param_max: dict[str, float]

    @property
    def passed(self) -> bool:
        return self.max_rel_err < 1e-4


def run(n_samples: int = 220, seed: int = 0) -> GradcheckResult:
    """Sample parameters across every parameter class and compare gradients."""
    eps = 1e-4  # central-difference step
    setup = build_setup(seed=seed)
    grads = setup.state.zero_grads()
    total_loss(setup, grads)
    rng = np.random.default_rng(seed + 7)
    names = sorted(setup.state.params)
    per_class = max(1, n_samples // len(names))

    max_rel = 0.0
    worst = ""
    checked = 0
    per_param_max: dict[str, float] = {}
    for name in names:
        p = setup.state.params[name]
        flat = p.reshape(-1)
        count = min(per_class, flat.size)
        # bias strength toward entries with visible gradient so every class
        # is exercised where it matters, plus a few arbitrary entries
        gflat = np.abs(grads[name].reshape(-1))
        by_mag = np.argsort(-gflat, kind="stable")[:count]
        extra = rng.choice(flat.size, size=min(2, flat.size), replace=False)
        idxs = sorted({int(i) for i in by_mag} | {int(i) for i in extra})
        worst_here = 0.0
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            up = total_loss(setup)
            flat[i] = orig - eps
            down = total_loss(setup)
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            an = float(grads[name].reshape(-1)[i])
            rel = abs(an - fd) / max(abs(an) + abs(fd), 1e-4)
            checked += 1
            worst_here = max(worst_here, rel)
            if rel > max_rel:
                max_rel, worst = rel, f"{name}[{i}]"
        per_param_max[name] = worst_here
    return GradcheckResult(max_rel_err=max_rel, n_checked=checked,
                           worst_param=worst, per_param_max=per_param_max)

"""Finite-difference verification of the hand-written reverse pass.

Builds a tiny 64-bit model over a fixed two-function listing, freezes one
MLM + edge perturbation, and compares analytic gradients of the combined
MLM + edge-prediction + type-head loss against central differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .corpus import Corpus
from .downstream import type_inference_loss
from .encoder import EncoderState, backward, encode
from .pretrain import mdm_loss, mdm_sample, mlm_loss, mlm_perturb, perturb_bundle

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
    cases: list  # (ids, bundle, perturbation, sample, seq, type_labels)


def build_setup(seed: int = 0, layers: int = 2, hidden: int = 16,
                heads: int = 2) -> GradcheckSetup:
    cfg = RunConfig(layers=layers, hidden=hidden, heads=heads, ffn=2 * hidden,
                    dropout=0.0, dtype="float64", max_len=128)
    corpus = Corpus.from_text(_LISTING, cfg)
    state = EncoderState.init(cfg.encoder_config(len(corpus.vocab)), seed)
    rng = np.random.default_rng(seed + 1)
    cases = []
    for art in corpus.functions:
        ids, pert = mlm_perturb(art.seq, len(corpus.vocab), rng, rate=0.3)
        sample = mdm_sample(art.con, art.seq.n_instructions, rng)
        bundle = perturb_bundle(art.seq, art.con.dist, sample)
        # a couple of labelled token positions for the type head
        positions = [p for p in range(1, len(art.seq)) if p % 3 == 0]
        labels = [(p, p % state.config.n_type_labels) for p in positions]
        cases.append((ids, bundle, pert, sample, art.seq, labels))
    return GradcheckSetup(state=state, cases=cases)


def total_loss(setup: GradcheckSetup) -> float:
    loss = 0.0
    for ids, bundle, pert, sample, seq, labels in setup.cases:
        trace = encode(ids, bundle, setup.state, training=False)
        l_mlm, _, _ = mlm_loss(trace, pert, setup.state)
        l_mdm, _ = mdm_loss(trace, sample, seq)
        l_type, _, _ = type_inference_loss(trace, labels, setup.state)
        loss += l_mlm + l_mdm + l_type
    return loss


def analytic_grads(setup: GradcheckSetup) -> dict[str, np.ndarray]:
    grads = setup.state.zero_grads()
    for ids, bundle, pert, sample, seq, labels in setup.cases:
        trace = encode(ids, bundle, setup.state, training=False)
        _, dh_mlm, mlm_head = mlm_loss(trace, pert, setup.state)
        _, dh_mdm = mdm_loss(trace, sample, seq)
        _, dh_type, type_head = type_inference_loss(trace, labels, setup.state)
        for k, g in {**mlm_head, **type_head}.items():
            grads[k] += g
        backward(trace, dh_mlm + dh_mdm + dh_type, setup.state, grads)
    return grads


@dataclass
class GradcheckResult:
    max_rel_err: float
    n_checked: int
    worst_param: str
    per_param_max: dict[str, float]

    @property
    def passed(self) -> bool:
        return self.max_rel_err < 1e-4


def run(n_samples: int = 220, eps: float = 1e-4, seed: int = 0) -> GradcheckResult:
    """Sample parameters across every parameter class and compare gradients."""
    setup = build_setup(seed=seed)
    grads = analytic_grads(setup)
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

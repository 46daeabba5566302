"""Synthetic x86-64 corpus generation for desk-scale training and evaluation.

Functions are random straight-line or lightly branching programs over the
supported instruction subset.  Each function can be paired with semantics-
preserving variants sharing a ground-truth id:

  * reorder: independent instructions permuted within their basic blocks,
    respecting read/write conflicts (so the dependence graph is isomorphic
    under the permutation)
  * rename: a bijective renaming of registers that carry no implicit role

These variant pairs drive the zero-shot similarity evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cfg import build_cfg
from .corpus import function_text
from .dependence import def_use, frame_offsets, overlap
from .downstream import NO_ACCESS
from .frontend import (CANONICAL_REG, SUB_FORMS, Instruction, Operand, ParsedFunction,
                       instruction_tokens, parse_listing)

#: registers with no implicit role in the def/use tables (rax/rdx: ret, imul,
#: idiv; rcx: shift counts; rsp: stack anchor)
RENAMEABLE = ("rbx", "rsi", "rdi", "rbp", "r8", "r9", "r10", "r11",
              "r12", "r13", "r14", "r15")

_GEN_REGS = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi",
             "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15")
_JCCS = ("je", "jne", "jl", "jg", "jle", "jge")


def render_operand(op: Operand) -> str:
    if op.kind == "register":
        return op.reg
    if op.kind == "immediate":
        return str(op.value)
    if op.kind == "label":
        return op.label
    parts = []
    if op.base:
        parts.append(op.base)
    if op.index:
        parts.append(f"{op.scale}*{op.index}" if op.scale != 1 else op.index)
    if op.disp or not parts:
        parts.append(str(op.disp))
    return "[" + " + ".join(parts) + "]"


def render_instruction(instr: Instruction) -> str:
    if not instr.operands:
        return instr.mnemonic
    return f"{instr.mnemonic} {', '.join(render_operand(op) for op in instr.operands)}"


# ---------------------------------------------------------------------------
# Random function generation

def _random_imm(rng: np.random.Generator) -> int:
    if rng.random() < 0.7:
        return int(rng.integers(1, 200))
    return int(rng.integers(0x1000, 0x100000))


def generate_function(name: str, rng: np.random.Generator) -> list[str]:
    regs = [str(r) for r in rng.choice(_GEN_REGS, size=int(rng.integers(3, 6)),
                                       replace=False)]
    slots = [int(s) for s in rng.choice([0, 8, 16, 24, 32], size=2, replace=False)]
    body: list[str] = []
    for r in regs[:2]:
        body.append(f"mov {r}, {_random_imm(rng)}")

    n_body = int(rng.integers(4, 12))
    for _ in range(n_body):
        kind = rng.random()
        rd = regs[int(rng.integers(len(regs)))]
        rs = regs[int(rng.integers(len(regs)))]
        if kind < 0.18:
            body.append(f"mov {rd}, {_random_imm(rng)}")
        elif kind < 0.36:
            op = ("add", "sub", "and", "or", "xor")[int(rng.integers(5))]
            body.append(f"{op} {rd}, {rs}")
        elif kind < 0.46:
            body.append(f"imul {rd}, {rs}")
        elif kind < 0.56:
            op = ("shl", "shr")[int(rng.integers(2))]
            body.append(f"{op} {rd}, {int(rng.integers(1, 8))}")
        elif kind < 0.68:
            body.append(f"mov [rsp + {slots[int(rng.integers(len(slots)))]}], {rs}")
        elif kind < 0.80:
            body.append(f"mov {rd}, [rsp + {slots[int(rng.integers(len(slots)))]}]")
        elif kind < 0.88:
            scale = (1, 2, 4, 8)[int(rng.integers(4))]
            body.append(f"lea {rd}, [{rs} + {scale}*{rd} + {int(rng.integers(0, 64))}]")
        elif kind < 0.94:
            body.append(f"mov {rd}, [{rs}]")
        else:
            body.append(f"mov [{rs}], {rd}")

    if rng.random() < 0.4 and len(body) >= 4:
        # guard a short forward window with a conditional branch
        at = int(rng.integers(1, len(body) - 2))
        span = int(rng.integers(1, min(3, len(body) - at) + 1))
        ra, rb = regs[int(rng.integers(len(regs)))], regs[int(rng.integers(len(regs)))]
        jcc = _JCCS[int(rng.integers(len(_JCCS)))]
        body = (body[:at]
                + [f"cmp {ra}, {rb}", f"{jcc} .skip"]
                + body[at:at + span] + [".skip:"] + body[at + span:])
    body.append("ret")
    return [f".func {name}"] + body


# ---------------------------------------------------------------------------
# Variants

def _conflicts(instrs, i: int, j: int, frames) -> bool:
    di, ui = def_use(instrs[i], frames[i], flags_channel=True)
    dj, uj = def_use(instrs[j], frames[j], flags_channel=True)
    for a in di:
        if any(overlap(a, b) for b in uj | dj):
            return True
    for a in ui:
        if any(overlap(a, b) for b in dj):
            return True
    return False


def _frame_barrier(instr: Instruction) -> bool:
    m = instr.mnemonic
    if m in ("push", "pop"):
        return True
    ops = instr.operands
    return bool(ops) and ops[0].kind == "register" and CANONICAL_REG[ops[0].reg] == "rsp"


def reorder_variant(fn: ParsedFunction, rng: np.random.Generator,
                    new_name: str) -> tuple[ParsedFunction, list[int]]:
    """Random conflict-respecting permutation within each basic block.

    Returns the variant and the permutation (old index -> new index).
    """
    cfg = build_cfg(fn)
    instrs = fn.instructions
    frames = frame_offsets(instrs)
    perm = [0] * len(instrs)
    new_order: list[int] = []
    for (lo, hi) in cfg.blocks:
        idxs = list(range(lo, hi))
        last = instrs[hi - 1].mnemonic
        movable = idxs[:-1] if last in ("ret", "jmp") or last.startswith("j") else idxs
        pinned = idxs[len(movable):]
        # ordering DAG over the movable instructions
        after: dict[int, set[int]] = {i: set() for i in movable}
        indeg = {i: 0 for i in movable}
        for a_pos, a in enumerate(movable):
            for b in movable[a_pos + 1:]:
                if (_frame_barrier(instrs[a]) or _frame_barrier(instrs[b])
                        or _conflicts(instrs, a, b, frames)):
                    after[a].add(b)
                    indeg[b] += 1
        ready = sorted(i for i in movable if indeg[i] == 0)
        order: list[int] = []
        while ready:
            pick = ready.pop(int(rng.integers(len(ready))))
            order.append(pick)
            for b in sorted(after[pick]):
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
            ready.sort()
        order.extend(pinned)
        new_order.extend(order)
    for new_idx, old_idx in enumerate(new_order):
        perm[old_idx] = new_idx
    new_instrs = [instrs[o]._replace(index=i, raw_text=render_instruction(instrs[o]))
                  for i, o in enumerate(new_order)]
    return ParsedFunction(name=new_name, instructions=new_instrs,
                          labels=dict(fn.labels)), perm


def rename_variant(fn: ParsedFunction, rng: np.random.Generator,
                   new_name: str) -> ParsedFunction:
    """Bijective renaming over the renameable registers used by the function."""
    used = sorted({CANONICAL_REG[r] for i in fn.instructions for op in i.operands
                   for r in (op.reg, op.base, op.index) if r} & set(RENAMEABLE))
    mapping = {}
    if used:
        targets = [str(r) for r in rng.permutation(RENAMEABLE)[:len(used)]]
        if targets == used:  # force an actual change
            if len(targets) > 1:
                targets = targets[1:] + targets[:1]
            else:
                alt = [r for r in RENAMEABLE if r not in used]
                targets = [alt[int(rng.integers(len(alt)))]]
        mapping = dict(zip(used, targets))

    def map_reg(r):
        wide = CANONICAL_REG[r] if r else None
        if mapping.get(wide, wide) == wide:
            return r
        # the target at the same width; a high byte (bh) becomes its low byte
        width = min((wide, *SUB_FORMS[wide]).index(r), 3)
        return (mapping[wide], *SUB_FORMS[mapping[wide]])[width]

    def map_operand(op):
        if op.kind == "register":
            return op._replace(reg=map_reg(op.reg))
        if op.kind == "memory":
            return op._replace(base=map_reg(op.base), index=map_reg(op.index))
        return op

    new_instrs = []
    for instr in fn.instructions:
        new = instr._replace(operands=tuple(map(map_operand, instr.operands)))
        new_instrs.append(new._replace(raw_text=render_instruction(new)))
    return ParsedFunction(name=new_name, instructions=new_instrs, labels=dict(fn.labels))


# ---------------------------------------------------------------------------
# Corpus assembly

_MLC_MNEMONICS = ("mov", "add", "sub", "imul", "xor", "shl", "cmp", "lea")
_MLC_GROUP = 3  # functions per multi-label sample


def _type_label_for(surface: str) -> str | None:
    """Deterministic toy labels so desk-scale type-inference runs can overfit."""
    if surface in CANONICAL_REG:
        return "long"
    if surface.lstrip("-").isdigit():
        return "int"
    if surface.startswith("<imm"):
        return "int64_t"
    if surface == "<addr>":
        return "func*"
    return None


@dataclass
class SynthCorpus:
    listing: str
    #: (original, variant, kind) triples
    pairs: list[tuple[str, str, str]]
    eval_spec: dict
    triplets: list[dict]
    type_labels: list[dict]
    mlc_samples: list[dict]


def build_corpus(n_functions: int, seed: int, pool_size: int = 10,
                 with_variants: bool = True) -> SynthCorpus:
    rng = np.random.default_rng(seed)
    base_lines: list[list[str]] = []
    names = []
    for i in range(n_functions):
        name = f"fn{i:04d}"
        names.append(name)
        base_lines.append(generate_function(name, rng))

    all_lines: list[str] = []
    pairs: list[tuple[str, str, str]] = []
    for lines in base_lines:
        all_lines.extend(lines)
    if with_variants:
        parsed = {f.name: f for f in parse_listing("\n".join(all_lines))}
        for i, name in enumerate(names):
            kind = "reorder" if i % 2 == 0 else "rename"
            vname = f"{name}__v"
            if kind == "reorder":
                variant, _ = reorder_variant(parsed[name], rng, vname)
            else:
                variant = rename_variant(parsed[name], rng, vname)
            all_lines.extend(function_text(variant).splitlines())
            pairs.append((name, vname, kind))

    listing = "\n".join(all_lines) + "\n"

    # similarity evaluation: each variant queries a pool of originals
    queries, pools, truth = [], [], []
    for orig, variant, _ in pairs:
        others = [n for n in names if n != orig]
        k = min(pool_size - 1, len(others))
        distractors = [others[int(j)] for j in rng.choice(len(others), size=k, replace=False)]
        pool = distractors + [orig]
        order = rng.permutation(len(pool))
        pool = [pool[int(j)] for j in order]
        queries.append(variant)
        pools.append(pool)
        truth.append(pool.index(orig))
    eval_spec = {"queries": queries, "pools": pools, "truth": truth}

    triplets = []
    for orig, variant, _ in pairs:
        others = [n for n in names if n != orig]
        if not others:  # a single function has no negative to draw
            continue
        neg = others[int(rng.integers(len(others)))]
        triplets.append({"anchor": variant, "positive": orig, "negative": neg})

    parsed_all = parse_listing(listing)
    type_labels = []
    for fn in parsed_all:
        labels = []
        pos = 1  # position 0 is [CLS]
        for instr in fn.instructions:
            toks = instruction_tokens(instr)
            labels.append([pos + 1, NO_ACCESS])  # the mnemonic token
            for off, tok in enumerate(toks[1:], start=2):
                lab = _type_label_for(tok)
                if lab is not None:
                    labels.append([pos + off, lab])
            pos += 1 + len(toks)
        type_labels.append({"function": fn.name, "labels": labels})

    # label = mnemonic used by every function of the sample; "mov" is always
    # present so each row has a positive, and samples without a negative are
    # dropped (the ranking metrics need both)
    mlc_samples = []
    mnems = {fn.name: {i.mnemonic for i in fn.instructions} for fn in parsed_all}
    group: list[str] = []
    for name in names:
        group.append(name)
        if len(group) == _MLC_GROUP:
            shared = set.intersection(*(mnems[g] for g in group))
            labels = [1 if m in shared else 0 for m in _MLC_MNEMONICS]
            if 0 < sum(labels) < len(labels):
                mlc_samples.append({"functions": list(group), "labels": labels})
            group = []

    return SynthCorpus(listing=listing, pairs=pairs, eval_spec=eval_spec,
                       triplets=triplets, type_labels=type_labels,
                       mlc_samples=mlc_samples)

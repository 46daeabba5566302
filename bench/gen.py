"""Seeded assembly listings for the benchmark workloads.

The generator is the benchmark's own: it does not use ``depcoder.synth``, so
a change to the program cannot change what a workload feeds it.  It emits
only the mnemonics the program supports, branches only forward (so every
dependence edge points to an earlier instruction) and addresses stack slots
as ``[rsp + c]``.  Next to each instruction's text it records the tokens the
documented tokenization yields, which the correctness checks use instead of
the program's tokenizer.

Function sizes are stratified: the k-th of n functions takes a size from the
middle of the k-th n-quantile of the size range.  Every seed then gives nearly the same
size distribution, and the run-to-run spread of the figures comes from the
machine rather than from the make-up of the inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

RESERVED = ("[PAD]", "[UNK]", "[CLS]", "[MASK]", "<INST>",
            "<imm16>", "<imm32>", "<imm64>", "<addr>")
INST = "<INST>"
CLS = "[CLS]"

REGS = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp",
        "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15")
ALU = ("add", "sub", "and", "or", "xor")
SHIFTS = ("shl", "shr")
JCCS = ("je", "jne", "jl", "jle", "jg", "jge", "jb", "ja")
SLOTS = (0, 8, 16, 24, 32, 40, 48, 56)
SMALL_IMMS = (1, 2, 3, 4, 7, 8, 12, 16, 24, 32, 64, 100, 127, 200, 255)
LARGE_IMMS = (4096, 30000, 65536, 1 << 20, (1 << 31) + 5)


def imm_token(v: int) -> str:
    if -256 < v < 256:
        return str(v)
    if -(1 << 15) <= v < (1 << 15):
        return "<imm16>"
    if -(1 << 31) <= v < (1 << 31):
        return "<imm32>"
    return "<imm64>"


def vocabulary_tokens() -> list[str]:
    """Every token the generator can emit, reserved block first; the embed
    workload ships this list as its ``vocab.tsv``."""
    regular = (["mov", "lea", "push", "pop", "imul", "idiv", "cmp", "test", "jmp",
                "call", "ret", "nop", *ALU, *SHIFTS, *JCCS, *REGS, "rsp",
                ",", "[", "]", "+", "*", "2", "4", "8"]
               + [str(v) for v in range(256)])
    out = list(RESERVED)
    for tok in regular:
        if tok not in out:
            out.append(tok)
    return out


# -- operands: (text, tokens) -------------------------------------------------

def _reg(r):
    return r, [r]


def _imm(v):
    return str(v), [imm_token(v)]


def _slot(off):
    if off == 0:
        return "[rsp]", ["[", "rsp", "]"]
    return f"[rsp + {off}]", ["[", "rsp", "+", str(off), "]"]


def _mem(base, index, scale, disp):
    text = f"[{base} + {scale}*{index} + {disp}]"
    toks = ["[", base, "+"] + ([str(scale), "*", index] if scale != 1 else [index])
    toks += ["+", imm_token(disp), "]"]
    return text, toks


def _label(name):
    return name, ["<addr>"]


def _instr(mnemonic, *operands):
    text = mnemonic + (" " + ", ".join(t for t, _ in operands) if operands else "")
    toks = [INST, mnemonic]
    for i, (_, ot) in enumerate(operands):
        if i:
            toks.append(",")
        toks.extend(ot)
    return text, toks


@dataclass
class GenFunction:
    name: str
    #: listing lines: instructions and label lines, in order
    lines: list[str] = field(default_factory=list)
    #: per instruction, its surface tokens starting with <INST>
    tokens: list[list[str]] = field(default_factory=list)

    @property
    def n_instructions(self) -> int:
        return len(self.tokens)

    def text(self) -> str:
        return "\n".join([f".func {self.name}"] + self.lines) + "\n"


#: instruction kinds and their shares of a function body, in percent; a
#: "branch" is a compare followed by a conditional jump
MIX = (("branch", 8), ("jmp", 2), ("mov_rr", 12), ("mov_ri", 8), ("alu_rr", 14),
       ("alu_ri", 6), ("imul2", 4), ("imul3", 2), ("shift", 4), ("store_slot", 8),
       ("load_slot", 8), ("lea", 5), ("load_mem", 3), ("store_mem", 1), ("pushpop", 5),
       ("idiv", 2), ("call", 1), ("nop", 7))


def _deck(rng: random.Random, slots: int) -> list[str]:
    """``slots`` kinds in the exact shares of MIX (largest remainder), shuffled.
    Exact shares keep rare, costly kinds (calls and stores through a pointer,
    which every later memory access depends on) from varying by seed."""
    quotas = [(kind, share * slots / 100) for kind, share in MIX]
    counts = {kind: int(q) for kind, q in quotas}
    by_remainder = sorted(quotas, key=lambda kq: int(kq[1]) - kq[1])
    for kind, _ in by_remainder[:slots - sum(counts.values())]:
        counts[kind] += 1
    deck = [kind for kind, _ in MIX for _ in range(counts[kind])]
    rng.shuffle(deck)
    return deck


def make_function(rng: random.Random, name: str, n_instr: int) -> GenFunction:
    """A function of exactly ``n_instr`` instructions ending in ``ret``."""
    fn = GenFunction(name)
    pending: dict[int, list[str]] = {}  # instruction index -> labels placed there
    n_labels = 0

    def emit(item):
        for lab in pending.pop(fn.n_instructions, []):
            fn.lines.append(f"{lab}:")
        text, toks = item
        fn.lines.append(text)
        fn.tokens.append(toks)

    def reg():
        return rng.choice(REGS)

    def label(target):
        nonlocal n_labels
        lab = f".L{n_labels}"
        n_labels += 1
        pending.setdefault(target, []).append(lab)
        return _label(lab)

    body = n_instr - 1
    deck = _deck(rng, round(body / 1.08))  # a branch takes two instructions
    while fn.n_instructions < body:
        room = body - fn.n_instructions
        kind = deck.pop() if deck else "mov_rr"
        if (kind == "branch" and room < 3) or (kind == "jmp" and room < 2):
            kind = "mov_rr"
        if kind == "branch":  # forward, over a short window
            target = fn.n_instructions + 2 + rng.randint(1, min(8, room - 1))
            emit(_instr(rng.choice(("cmp", "test")), _reg(reg()), _reg(reg())))
            emit(_instr(rng.choice(JCCS), label(target)))
        elif kind == "jmp":
            emit(_instr("jmp", label(fn.n_instructions + 1 + rng.randint(1, min(4, room)))))
        elif kind == "mov_rr":
            emit(_instr("mov", _reg(reg()), _reg(reg())))
        elif kind == "mov_ri":
            imm = rng.choice(SMALL_IMMS) if rng.random() < 0.8 else rng.choice(LARGE_IMMS)
            emit(_instr("mov", _reg(reg()), _imm(imm)))
        elif kind == "alu_rr":
            emit(_instr(rng.choice(ALU), _reg(reg()), _reg(reg())))
        elif kind == "alu_ri":
            emit(_instr(rng.choice(ALU), _reg(reg()), _imm(rng.choice(SMALL_IMMS))))
        elif kind == "imul2":
            emit(_instr("imul", _reg(reg()), _reg(reg())))
        elif kind == "imul3":
            emit(_instr("imul", _reg(reg()), _reg(reg()), _imm(rng.choice(SMALL_IMMS))))
        elif kind == "shift":
            emit(_instr(rng.choice(SHIFTS), _reg(reg()), _imm(rng.randint(1, 7))))
        elif kind == "store_slot":
            emit(_instr("mov", _slot(rng.choice(SLOTS)), _reg(reg())))
        elif kind == "load_slot":
            emit(_instr("mov", _reg(reg()), _slot(rng.choice(SLOTS))))
        elif kind == "lea":
            emit(_instr("lea", _reg(reg()),
                        _mem(reg(), reg(), rng.choice((1, 2, 4, 8)), rng.randint(1, 120))))
        elif kind == "load_mem":
            emit(_instr("mov", _reg(reg()), _mem(reg(), reg(), 1, rng.choice(SLOTS[1:]))))
        elif kind == "store_mem":
            emit(_instr("mov", _mem(reg(), reg(), 8, rng.choice(SLOTS[1:])), _reg(reg())))
        elif kind == "pushpop":
            emit(_instr(rng.choice(("push", "pop")), _reg(reg())))
        elif kind == "idiv":
            emit(_instr("idiv", _reg(rng.choice(REGS[1:]))))
        elif kind == "call":
            emit(_instr("call", _label("helper")))
        else:
            emit(_instr("nop"))
    emit(_instr("ret"))
    for lab in pending.pop(fn.n_instructions, []):  # labels that fall through to exit
        fn.lines.append(f"{lab}:")
    if pending:
        raise AssertionError(f"unplaced labels in {name}: {pending}")
    return fn


def stratified_sizes(rng: random.Random, n: int, lo: int, hi: int,
                     log: bool = False) -> list[int]:
    """n sizes in [lo, hi], one from the middle fifth of each n-quantile of
    the range (of its logarithm when ``log``), in random order."""
    fracs = [(k + 0.4 + 0.2 * rng.random()) / n for k in range(n)]
    if log:
        sizes = [round(lo * (hi / lo) ** f) for f in fracs]
    else:
        sizes = [lo + int((hi - lo + 1) * f) for f in fracs]
    sizes = [min(hi, max(lo, s)) for s in sizes]
    rng.shuffle(sizes)
    return sizes


def make_listing(seed: int, prefix: str, n: int, lo: int, hi: int) -> list[GenFunction]:
    rng = random.Random(f"{prefix}:{seed}")
    return [make_function(rng, f"{prefix}_{i:03d}", size)
            for i, size in enumerate(stratified_sizes(rng, n, lo, hi))]


def listing_text(functions: list[GenFunction]) -> str:
    return "".join(fn.text() for fn in functions)


def kept_tokens(fn: GenFunction, max_len: int) -> tuple[list[str], list[int]]:
    """Surface tokens after whole-instruction truncation at ``max_len``, and
    the instruction index of every token (-1 for [CLS])."""
    surface, inst_of = [CLS], [-1]
    for i, toks in enumerate(fn.tokens):
        if len(surface) + len(toks) > max_len:
            break
        surface.extend(toks)
        inst_of.extend([i] * len(toks))
    return surface, inst_of

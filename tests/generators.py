"""Random inputs for the oracle-equivalence tests.

Loop-free programs keep every block reachable (branches are built from
structured if-then / if-then-else patterns), so exhaustive path enumeration
from the entry covers the whole function.  Looping programs jump forward and
backward to random labels, so they also hold unreachable blocks.  Random CFGs
are fabricated directly as block graphs, cycles allowed.
"""

from __future__ import annotations

import numpy as np

from depcoder.cfg import EXIT, Cfg, _augment_exit_reachability
from depcoder.frontend import parse_listing

_REGS = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi", "r8", "r9")
_JCCS = ("je", "jne", "jl", "jg")


def _simple_instr(rng: np.random.Generator) -> str:
    r = lambda: _REGS[int(rng.integers(len(_REGS)))]
    slot = int(rng.integers(4)) * 8
    choices = (
        f"mov {r()}, {int(rng.integers(1, 300))}",
        f"mov {r()}, {r()}",
        f"add {r()}, {r()}",
        f"xor {r()}, {r()}",
        f"imul {r()}, {r()}",
        f"mov [rsp + {slot}], {r()}",
        f"mov {r()}, [rsp + {slot}]",
        f"mov {r()}, [{r()}]",
        f"mov [{r()}], {r()}",
        f"lea {r()}, [{r()} + 8]",
        f"push {r()}",
        f"shl {r()}, {int(rng.integers(1, 5))}",
    )
    return choices[int(rng.integers(len(choices)))]


def random_loopfree_program(rng: np.random.Generator, max_instr: int = 10) -> str:
    """Listing text for one random loop-free function (every block reachable).

    cmp/jcc pairs add 2 instructions and if-then-else adds a jmp, so the
    budget is spent carefully to stay under ``max_instr``.
    """
    n_body = int(rng.integers(2, max(3, max_instr - 3)))
    body = [_simple_instr(rng) for _ in range(n_body)]
    label_id = 0
    shape = rng.random()
    if shape > 0.45 and len(body) >= 2 and n_body + 2 <= max_instr:
        at = int(rng.integers(0, len(body) - 1))
        span = int(rng.integers(1, len(body) - at))
        ra, rb = (_REGS[int(rng.integers(len(_REGS)))] for _ in range(2))
        jcc = _JCCS[int(rng.integers(len(_JCCS)))]
        if shape > 0.75 and span >= 2 and n_body + 3 <= max_instr:
            # if-then-else over the window
            cut = at + max(1, span // 2)
            body = (body[:at]
                    + [f"cmp {ra}, {rb}", f"{jcc} .L{label_id}"]
                    + body[at:cut] + [f"jmp .L{label_id + 1}", f".L{label_id}:"]
                    + body[cut:at + span] + [f".L{label_id + 1}:"]
                    + body[at + span:])
        else:
            body = (body[:at]
                    + [f"cmp {ra}, {rb}", f"{jcc} .L{label_id}"]
                    + body[at:at + span] + [f".L{label_id}:"]
                    + body[at + span:])
    return ".func f\n" + "\n".join(body) + "\n"


def random_loopfree_function(rng: np.random.Generator, max_instr: int = 10):
    return parse_listing(random_loopfree_program(rng, max_instr))[0]


def random_looping_program(rng: np.random.Generator, max_instr: int = 9) -> str:
    """Listing text for one random function of 3..``max_instr`` instructions
    whose jcc/jmp targets lie before or after the jump (or at the end).

    Besides the loop-free instruction mix it draws calls, pops, rets and
    writes to rsp, so frame tracking is lost or shifted inside loops.
    """
    n = int(rng.integers(3, max_instr + 1))
    n_labels = int(rng.integers(1, 4))
    label_at = [int(rng.integers(n + 1)) for _ in range(n_labels)]
    r = lambda: _REGS[int(rng.integers(len(_REGS)))]
    lines = []
    for i in range(n + 1):
        lines.extend(f".L{k}:" for k, at in enumerate(label_at) if at == i)
        if i == n:
            break
        target = f".L{int(rng.integers(n_labels))}"
        u = rng.random()
        if u < 0.2:
            lines.append(f"{_JCCS[int(rng.integers(len(_JCCS)))]} {target}")
        elif u < 0.3:
            lines.append(f"jmp {target}")
        elif u < 0.4:
            lines.append(f"cmp {r()}, {r()}")
        elif u < 0.5:
            lines.append(("call g", f"pop {r()}", "sub rsp, 16", "add rsp, 8",
                          "mov rsp, rbp", "ret")[int(rng.integers(6))])
        else:
            lines.append(_simple_instr(rng))
    return ".func f\n" + "\n".join(lines) + "\n"


def random_cfg(rng: np.random.Generator, max_blocks: int = 12) -> Cfg:
    """Fabricated one-instruction-per-block CFG; cycles allowed, exit made
    reachable by the same augmentation the real builder uses."""
    n = int(rng.integers(2, max_blocks + 1))
    blocks = [(i, i + 1) for i in range(n)]
    succ: dict[int, list[int]] = {}
    for b in range(n):
        k = int(rng.integers(1, 3))
        targets: list[int] = []
        for _ in range(k):
            if rng.random() < 0.2:
                t = EXIT
            else:
                t = int(rng.integers(n))  # self-loops allowed
            if t not in targets:
                targets.append(t)
        if not targets:
            targets = [EXIT]
        succ[b] = targets
    _augment_exit_reachability(blocks, succ)
    return Cfg(blocks=blocks, succ=succ)


def random_digraph(rng: np.random.Generator, max_nodes: int = 64, p: float = 0.08):
    n = int(rng.integers(2, max_nodes + 1))
    edges = {(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < p}
    return n, edges

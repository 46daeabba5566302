"""Instruction-level data and control dependence analysis.

Data dependences come from reaching definitions over abstract locations that
over-approximate the memory an expression can touch:

  * ``[rsp + c]`` with a tracked stack pointer -> one precise stack slot
  * stack addresses with an index register or an untracked rsp -> the whole
    stack frame
  * any other memory expression -> the whole memory space

A location is a ``(kind, key)`` named tuple whose key is the canonical
register name or the slot's frame offset, and ``None`` for the flags, the
whole frame and the whole memory.  Two memory regions may overlap unless they
are two different stack slots; a register or the flags overlaps only itself.

Reaching definitions are kept per location: a def of a register, the flags or
a stack slot replaces the location's reaching set, a def of the whole frame or
the whole memory adds to it, and a use depends on every def that reaches a
location it may overlap.  A worklist solver walks the blocks lowest id first
and queues a block again when the result of one of its predecessors changes;
edges are collected in each walk.  Every block starts on the worklist, so
every block is analysed whether the entry reaches it or not.

Control dependences are read off the post-dominator sets of the blocks by
the definition of Ferrante, Ottenstein and Warren, then lifted from basic
blocks to instructions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import NamedTuple

from .cfg import EXIT, JCC_MNEMONICS, Cfg, build_cfg
from .errors import CfgError, DependenceError, UnsupportedInstruction
from .frontend import CANONICAL_REG, Instruction, Operand, ParsedFunction


# ---------------------------------------------------------------------------
# Abstract locations

class AbstractLocation(NamedTuple):
    kind: str  # register | flags | stack_slot | stack_frame_all | memory_all
    #: canonical 64-bit register name, or frame-relative byte offset of a stack slot
    key: str | int | None = None


FLAGS = AbstractLocation("flags")
STACK_FRAME_ALL = AbstractLocation("stack_frame_all")
MEMORY_ALL = AbstractLocation("memory_all")


#: surface register name -> its location, built once for every name
reg_loc = {r: AbstractLocation("register", c) for r, c in CANONICAL_REG.items()}.__getitem__


def slot_loc(offset: int) -> AbstractLocation:
    return AbstractLocation("stack_slot", offset)


def overlap(a: AbstractLocation, b: AbstractLocation) -> bool:
    """May the two locations denote the same storage?  Two memory regions may,
    unless they are two different stack slots; anything else overlaps only itself."""
    if _is_memory(a) and _is_memory(b):
        return not (a.kind == b.kind == "stack_slot") or a.key == b.key
    return a == b


def _is_memory(loc: AbstractLocation) -> bool:
    return loc.kind not in ("register", "flags")


def _is_precise(loc: AbstractLocation) -> bool:
    """Precise locations admit strong updates (their defs kill earlier defs)."""
    return loc.kind in ("register", "flags", "stack_slot")


# ---------------------------------------------------------------------------
# Stack-pointer tracking

def frame_offsets(instrs: list[Instruction]) -> list[int | None]:
    """rsp offset relative to function entry, before each instruction.

    Tracking follows listing order through push/pop and ``sub/add rsp, imm``;
    any other write to rsp untracks it for the rest of the function.
    """
    out: list[int | None] = []
    off: int | None = 0
    for instr in instrs:
        out.append(off)
        if off is None:
            continue
        m, ops = instr.mnemonic, instr.operands
        if m == "push":
            off -= 8
        elif m == "pop":
            off += 8
            if ops and ops[0].kind == "register" and CANONICAL_REG[ops[0].reg] == "rsp":
                off = None
        elif m in ("sub", "add") and len(ops) == 2 \
                and ops[0].kind == "register" and CANONICAL_REG[ops[0].reg] == "rsp":
            if ops[1].kind == "immediate":
                off += ops[1].value if m == "add" else -ops[1].value
            else:
                off = None
        elif _writes_rsp(instr):
            off = None
    return out


def _writes_rsp(instr: Instruction) -> bool:
    ops = instr.operands
    if instr.mnemonic in ("mov", "lea", "imul", "and", "or", "xor", "shl", "shr", "idiv"):
        return bool(ops) and ops[0].kind == "register" and CANONICAL_REG[ops[0].reg] == "rsp"
    return False


# ---------------------------------------------------------------------------
# may_locations and def/use

def may_locations(op: Operand, frame_off: int | None) -> set[AbstractLocation]:
    """Locations an operand may access when read or written."""
    if op.kind == "register":
        return {reg_loc(op.reg)}
    if op.kind in ("immediate", "label"):
        return set()
    # memory
    base = CANONICAL_REG[op.base] if op.base else None
    index = CANONICAL_REG[op.index] if op.index else None
    if base == "rsp" or index == "rsp":
        if base == "rsp" and index is None and frame_off is not None:
            return {slot_loc(frame_off + op.disp)}
        return {STACK_FRAME_ALL}
    return {MEMORY_ALL}


def _addr_regs(op: Operand) -> set[AbstractLocation]:
    """Address registers of a memory operand, excluding the stack anchor rsp."""
    if op.kind != "memory":
        return set()
    regs = set()
    for r in (op.base, op.index):
        if r is not None and CANONICAL_REG[r] != "rsp":
            regs.add(reg_loc(r))
    return regs


# System-V caller-saved clobbering for call sites (configurable via on_unknown
# only for unsupported mnemonics; call itself always uses these sets).
CALL_DEFS = frozenset({reg_loc(r) for r in
                       ("rax", "rcx", "rdx", "rsi", "rdi", "r8", "r9", "r10", "r11")}
                      | {MEMORY_ALL})
CALL_USES = frozenset({reg_loc(r) for r in ("rdi", "rsi", "rdx", "rcx", "r8", "r9", "rsp")}
                      | {MEMORY_ALL})

_RMW_MNEMONICS = frozenset({"add", "sub", "and", "or", "xor", "shl", "shr"})


def def_use(instr: Instruction, frame_off: int | None, flags_channel: bool = False,
            on_unknown: str = "error") -> tuple[set[AbstractLocation], set[AbstractLocation]]:
    """Per-mnemonic def/use sets over abstract locations.

    Address registers count as uses only on destination operands (reads
    through a pointer carry the pointed-to region, not the pointer register).
    """
    m, ops = instr.mnemonic, instr.operands
    defs: set[AbstractLocation] = set()
    uses: set[AbstractLocation] = set()
    rsp = reg_loc("rsp")
    flags = {FLAGS} if flags_channel else set()

    def locs(op):
        return may_locations(op, frame_off)

    if m == "nop":
        pass
    elif m == "mov" and len(ops) == 2:
        defs |= locs(ops[0])
        uses |= locs(ops[1]) | _addr_regs(ops[0])
    elif m == "lea" and len(ops) == 2 and ops[1].kind == "memory":
        defs |= locs(ops[0])
        uses |= _addr_regs(ops[1])
    elif m == "push" and len(ops) == 1:
        defs |= {rsp} | ({slot_loc(frame_off - 8)} if frame_off is not None else {STACK_FRAME_ALL})
        uses |= {rsp} | locs(ops[0])
    elif m == "pop" and len(ops) == 1:
        defs |= {rsp} | locs(ops[0])
        uses |= {rsp} | ({slot_loc(frame_off)} if frame_off is not None else {STACK_FRAME_ALL})
    elif m in _RMW_MNEMONICS and len(ops) == 2:
        defs |= locs(ops[0]) | flags
        uses |= locs(ops[0]) | locs(ops[1]) | _addr_regs(ops[0])
    elif m == "imul" and len(ops) == 1:
        defs |= {reg_loc("rax"), reg_loc("rdx")} | flags
        uses |= {reg_loc("rax")} | locs(ops[0])
    elif m == "imul" and len(ops) == 2:
        defs |= locs(ops[0]) | flags
        uses |= locs(ops[0]) | locs(ops[1])
    elif m == "imul" and len(ops) == 3:
        defs |= locs(ops[0]) | flags
        uses |= locs(ops[1])
    elif m == "idiv" and len(ops) == 1:
        defs |= {reg_loc("rax"), reg_loc("rdx")} | flags
        uses |= {reg_loc("rax"), reg_loc("rdx")} | locs(ops[0])
    elif m in ("cmp", "test") and len(ops) == 2:
        defs |= flags
        uses |= locs(ops[0]) | locs(ops[1])
    elif m in JCC_MNEMONICS:
        uses |= flags
    elif m == "jmp":
        if ops and ops[0].kind != "label":
            uses |= locs(ops[0])
    elif m == "call":
        defs |= set(CALL_DEFS)
        uses |= set(CALL_USES)
        if ops and ops[0].kind != "label":
            uses |= locs(ops[0])
    elif m == "ret":
        uses |= {reg_loc("rax"), rsp}
    else:
        if on_unknown == "conservative":
            blob = set(CALL_DEFS) | set(CALL_USES)
            return blob, set(blob)
        raise UnsupportedInstruction(
            f"unsupported instruction {instr.raw_text!r} (index {instr.index})")
    return defs, uses


# ---------------------------------------------------------------------------
# Reaching definitions -> data dependences

def data_dependences(instrs: list[Instruction], cfg: Cfg, flags_channel: bool = False,
                     on_unknown: str = "error") -> set[tuple[int, int]]:
    """Edges (u, v): instruction u may use a value defined at v.

    Edges are recorded in the same block walk that computes OUT.  Blocks
    are taken from a worklist, lowest id first, and a block whose OUT
    changes queues its successors again, so a block's last walk sees its
    final IN.  IN only grows from empty, so every edge an earlier walk
    records is recorded again by the block's last walk.  Registers and the
    flags are kept apart from memory: a register or flags use overlaps only
    its own location, so it is looked up, and a memory use scans only memory.
    """
    frames = frame_offsets(instrs)
    du = [def_use(i, frames[i.index], flags_channel, on_unknown) for i in instrs]
    preds = cfg.preds()
    # OUT of each block: reaching defs of (registers and flags, memory locations)
    outs: list[tuple[dict, dict]] = [({}, {}) for _ in cfg.blocks]
    edges: set[tuple[int, int]] = set()
    work = list(range(len(cfg.blocks)))  # sorted, so already a heap
    queued = [True] * len(cfg.blocks)
    while work:
        b = heapq.heappop(work)
        queued[b] = False
        lo, hi = cfg.blocks[b]
        regs: dict[AbstractLocation, frozenset[int]] = {}
        mem: dict[AbstractLocation, frozenset[int]] = {}
        for p in preds[b]:
            for into, out in zip((regs, mem), outs[p]):
                for loc, sites in out.items():
                    into[loc] = into.get(loc, frozenset()) | sites
        for i in range(lo, hi):
            defs, uses = du[i]
            for use in uses:
                if _is_memory(use):
                    for loc, sites in mem.items():
                        if overlap(use, loc):
                            edges.update((i, j) for j in sites if j != i)
                else:
                    edges.update((i, j) for j in regs.get(use, ()) if j != i)
            for d in defs:
                into = mem if _is_memory(d) else regs
                kept = frozenset() if _is_precise(d) else into.get(d, frozenset())
                into[d] = kept | {i}
        if (regs, mem) != outs[b]:
            outs[b] = (regs, mem)
            for s in cfg.succ[b]:
                if s != EXIT and not queued[s]:
                    queued[s] = True
                    heapq.heappush(work, s)
    return edges


# ---------------------------------------------------------------------------
# Post-dominators -> control dependences

def _postdominators(cfg: Cfg) -> dict[int, set[int]]:
    """Post-dominator set of every block and of EXIT: the greatest solution
    of pdom(b) = {b} | intersection of pdom(s) over the successors s of b.

    The greatest solution is the right one because EXIT is reachable from
    every block of a built CFG.
    """
    blocks = range(len(cfg.blocks))
    pdom = dict.fromkeys(blocks, set(blocks) | {EXIT})
    pdom[EXIT] = {EXIT}
    changed = True
    while changed:
        changed = False
        for b in reversed(blocks):
            new = {b} | set.intersection(*(pdom[s] for s in cfg.succ[b]))
            if new != pdom[b]:
                pdom[b] = new
                changed = True
    return pdom


def block_control_dependences(cfg: Cfg) -> set[tuple[int, int]]:
    """(dependent block, controlling block) pairs.  Block b depends on the
    branch block a when b post-dominates a successor of a but does not
    strictly post-dominate a (Ferrante, Ottenstein and Warren 1987)."""
    pdom = _postdominators(cfg)
    return {(b, a) for a, vs in cfg.succ.items() if len(vs) > 1
            for s in vs for b in pdom[s]
            if b != EXIT and (b == a or b not in pdom[a])}


def control_dependences(instrs: list[Instruction], cfg: Cfg) -> set[tuple[int, int]]:
    """Edges (u, v): the branch at v decides whether u executes."""
    edges: set[tuple[int, int]] = set()
    for b, a in block_control_dependences(cfg):
        branch = cfg.terminator_of(a)
        lo, hi = cfg.blocks[b]
        for i in range(lo, hi):
            if i != branch:
                edges.add((i, branch))
    return edges


# ---------------------------------------------------------------------------
# Combined dependence graph

@dataclass
class DependenceGraph:
    n_nodes: int
    #: directed (u, v, kind): u depends on v; kind in {"data", "control"}
    edges: set[tuple[int, int, str]] = field(default_factory=set)

    def directed_pairs(self) -> set[tuple[int, int]]:
        return {(u, v) for (u, v, _) in self.edges}

    def to_dict(self) -> dict:
        return {"nodes": self.n_nodes,
                "edges": [[u, v, k] for (u, v, k) in sorted(self.edges)]}


def dependence_graph(fn: ParsedFunction, flags_channel: bool = False,
                     on_unknown: str = "error") -> DependenceGraph:
    """Union of data and control dependences for one function."""
    instrs = fn.instructions
    edges: set[tuple[int, int, str]] = set()
    try:
        cfg = build_cfg(fn)
        for u, v in data_dependences(instrs, cfg, flags_channel, on_unknown):
            edges.add((u, v, "data"))
        for u, v in control_dependences(instrs, cfg):
            edges.add((u, v, "control"))
    except (CfgError, DependenceError) as e:
        raise DependenceError(f"{fn.name}: {e}") from e
    return DependenceGraph(n_nodes=len(instrs), edges=edges)

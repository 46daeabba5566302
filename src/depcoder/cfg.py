"""Control flow graph over instruction index ranges.

Blocks split at label targets and after terminators (jmp/jcc/ret).  Block 0
is the entry; one virtual exit node carries the id ``EXIT``, and after
augmentation it is reachable from every block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .frontend import Instruction, ParsedFunction

EXIT = -2

JCC_MNEMONICS = frozenset({
    "je", "jne", "jz", "jnz", "jl", "jle", "jg", "jge",
    "jb", "jbe", "ja", "jae", "js", "jns",
})
TERMINATORS = JCC_MNEMONICS | {"jmp", "ret"}


class CfgError(Exception):
    pass


@dataclass
class Cfg:
    #: (start, end) instruction index ranges, end exclusive, listing order
    blocks: list[tuple[int, int]]
    #: block id -> successor block ids (EXIT allowed)
    succ: dict[int, list[int]]

    def preds(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {b: [] for b in range(len(self.blocks))}
        out[EXIT] = []
        for u, vs in self.succ.items():
            for v in vs:
                if v in out:
                    out[v].append(u)
        return out

    def terminator_of(self, block: int) -> int:
        """Index of the block's last instruction."""
        return self.blocks[block][1] - 1


def _is_jcc(instr: Instruction) -> bool:
    return instr.mnemonic in JCC_MNEMONICS


def _branch_target(instr: Instruction, labels: dict[str, int], n: int) -> int | None:
    """Resolve a jump target to an instruction index, or None for indirect."""
    if not instr.operands or instr.operands[0].kind != "label":
        return None
    name = instr.operands[0].label
    if name not in labels:
        raise CfgError(f"unresolvable label {name!r} in {instr.raw_text!r}")
    return labels[name]


def build_cfg(fn: ParsedFunction) -> Cfg:
    instrs = fn.instructions
    n = len(instrs)
    if n == 0:
        return Cfg(blocks=[], succ={})

    leaders = {0}
    for target in fn.labels.values():
        if target < n:
            leaders.add(target)
    for instr in instrs:
        if instr.mnemonic in TERMINATORS and instr.index + 1 < n:
            leaders.add(instr.index + 1)
    starts = sorted(leaders)
    blocks = [(s, e) for s, e in zip(starts, starts[1:] + [n])]
    block_at = {s: i for i, (s, e) in enumerate(blocks)}

    def target_block(idx: int) -> int:
        return EXIT if idx >= n else block_at[idx]

    succ: dict[int, list[int]] = {}
    for b, (s, e) in enumerate(blocks):
        last = instrs[e - 1]
        out: list[int] = []
        if last.mnemonic == "ret":
            out = [EXIT]
        elif last.mnemonic == "jmp":
            t = _branch_target(last, fn.labels, n)
            out = [EXIT] if t is None else [target_block(t)]
        elif _is_jcc(last):
            t = _branch_target(last, fn.labels, n)
            if t is None:
                raise CfgError(f"conditional jump without label target: {last.raw_text!r}")
            out = [target_block(t), target_block(e)]
        else:
            out = [target_block(e)]
        deduped: list[int] = []
        for v in out:
            if v not in deduped:
                deduped.append(v)
        succ[b] = deduped

    _augment_exit_reachability(blocks, succ)
    return Cfg(blocks=blocks, succ=succ)


def _augment_exit_reachability(blocks, succ) -> None:
    """Add block->EXIT edges until EXIT is reachable from every block
    (handles infinite loops)."""
    while True:
        reaches = {EXIT}
        changed = True
        while changed:
            changed = False
            for b in range(len(blocks)):
                if b not in reaches and any(v in reaches for v in succ[b]):
                    reaches.add(b)
                    changed = True
        stuck = [b for b in range(len(blocks)) if b not in reaches]
        if not stuck:
            return
        succ[stuck[0]].append(EXIT)

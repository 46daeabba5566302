"""Textual x86-64 disassembly parsing and tokenization.

Input format (one listing may hold many functions):

    .func <name>        starts a function
    <label>:            attaches a label to the next instruction
    mnemonic op1, op2   one instruction per line, Intel syntax
    # comment           comments run to end of line

Memory operands are written ``[base + scale*index + disp]`` with any subset
of the three parts present; displacements may be decimal or 0x-hex, and
either ``scale*index`` or ``index*scale`` is accepted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class ParseError(Exception):
    """Raised on malformed listing input; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# Reserved token ids. These are fixed across every vocabulary.
PAD, UNK, CLS, MASK, INST = "[PAD]", "[UNK]", "[CLS]", "[MASK]", "<INST>"
IMM16, IMM32, IMM64, ADDR = "<imm16>", "<imm32>", "<imm64>", "<addr>"
RESERVED_TOKENS = (PAD, UNK, CLS, MASK, INST, IMM16, IMM32, IMM64, ADDR)
PAD_ID, UNK_ID, CLS_ID, MASK_ID, INST_ID = 0, 1, 2, 3, 4
FIRST_REGULAR_ID = len(RESERVED_TOKENS)

_R64 = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
        "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15", "rip")
_SUB_FORMS = {
    "rax": ("eax", "ax", "al", "ah"),
    "rbx": ("ebx", "bx", "bl", "bh"),
    "rcx": ("ecx", "cx", "cl", "ch"),
    "rdx": ("edx", "dx", "dl", "dh"),
    "rsi": ("esi", "si", "sil"),
    "rdi": ("edi", "di", "dil"),
    "rbp": ("ebp", "bp", "bpl"),
    "rsp": ("esp", "sp", "spl"),
    "rip": ("eip",),
}
for _i in range(8, 16):
    _SUB_FORMS[f"r{_i}"] = (f"r{_i}d", f"r{_i}w", f"r{_i}b")

#: surface register name -> canonical 64-bit name
CANONICAL_REG = {r: r for r in _R64}
for _wide, _subs in _SUB_FORMS.items():
    for _s in _subs:
        CANONICAL_REG[_s] = _wide

REGISTER_NAMES = frozenset(CANONICAL_REG)


@dataclass(frozen=True)
class Operand:
    kind: str  # register | immediate | memory | label
    reg: str | None = None
    value: int | None = None
    base: str | None = None
    index: str | None = None
    scale: int = 1
    disp: int = 0
    label: str | None = None

    @staticmethod
    def register(name: str) -> "Operand":
        return Operand(kind="register", reg=name)

    @staticmethod
    def immediate(value: int) -> "Operand":
        return Operand(kind="immediate", value=value)

    @staticmethod
    def memory(base=None, index=None, scale=1, disp=0) -> "Operand":
        return Operand(kind="memory", base=base, index=index, scale=scale, disp=disp)

    @staticmethod
    def label_ref(name: str) -> "Operand":
        return Operand(kind="label", label=name)


@dataclass(frozen=True)
class Instruction:
    index: int
    mnemonic: str
    operands: tuple[Operand, ...]
    raw_text: str


@dataclass
class ParsedFunction:
    name: str
    instructions: list[Instruction]
    #: label name -> index of the instruction it precedes (== len(instructions)
    #: for a trailing label, which resolves to the virtual exit)
    labels: dict[str, int] = field(default_factory=dict)


_IDENT_RE = re.compile(r"^[.\w$@]+$")
_NUM_RE = re.compile(r"^[+-]?(0x[0-9a-fA-F]+|\d+)$")


def _parse_int(text: str) -> int:
    return int(text, 0)


def _parse_memory(inner: str, line_no: int, raw: str) -> Operand:
    base = index = None
    scale = 1
    disp = 0
    have_disp = False
    # split into signed terms on top-level +/-
    terms: list[tuple[int, str]] = []
    sign, buf = 1, []
    for ch in inner + "+":
        if ch in "+-":
            term = "".join(buf).strip()
            if term:
                terms.append((sign, term))
            elif terms or sign == -1:
                pass  # leading sign of the next term
            sign = 1 if ch == "+" else -1
            buf = []
        else:
            buf.append(ch)
    if not terms:
        raise ParseError(f"empty memory operand in {raw!r}", line_no)
    for tsign, term in terms:
        if "*" in term:
            a, _, b = term.partition("*")
            a, b = a.strip(), b.strip()
            if a in REGISTER_NAMES and _NUM_RE.match(b):
                r, s = a, _parse_int(b)
            elif b in REGISTER_NAMES and _NUM_RE.match(a):
                r, s = b, _parse_int(a)
            else:
                raise ParseError(f"unrecognized scaled-index term {term!r} in {raw!r}", line_no)
            if tsign < 0 or index is not None:
                raise ParseError(f"bad scaled-index term {term!r} in {raw!r}", line_no)
            if s not in (1, 2, 4, 8):
                raise ParseError(f"scale must be 1, 2, 4 or 8, got {s} in {raw!r}", line_no)
            index, scale = r, s
        elif term in REGISTER_NAMES:
            if tsign < 0:
                raise ParseError(f"negated register {term!r} in {raw!r}", line_no)
            if base is None:
                base = term
            elif index is None:
                index = term
            else:
                raise ParseError(f"too many registers in memory operand {raw!r}", line_no)
        elif _NUM_RE.match(term):
            disp += tsign * _parse_int(term)
            have_disp = True
        else:
            raise ParseError(f"unrecognized memory term {term!r} in {raw!r}", line_no)
    if base is None and index is None and not have_disp:
        raise ParseError(f"memory operand with no parts: {raw!r}", line_no)
    return Operand.memory(base=base, index=index, scale=scale, disp=disp)


def _parse_operand(text: str, line_no: int) -> Operand:
    text = text.strip()
    if not text:
        raise ParseError("empty operand", line_no)
    if text.startswith("["):
        if not text.endswith("]"):
            raise ParseError(f"unterminated memory operand {text!r}", line_no)
        return _parse_memory(text[1:-1], line_no, text)
    if text in REGISTER_NAMES:
        return Operand.register(text)
    if _NUM_RE.match(text):
        return Operand.immediate(_parse_int(text))
    if _IDENT_RE.match(text):
        return Operand.label_ref(text)
    raise ParseError(f"unknown operand form {text!r}", line_no)


def _split_operands(text: str) -> list[str]:
    parts, depth, buf = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    if buf:
        parts.append("".join(buf))
    return parts


def parse_listing(text: str) -> list[ParsedFunction]:
    """Parse a disassembly listing into functions.

    Every instruction line yields exactly one :class:`Instruction`; labels are
    recorded per function for CFG construction.
    """
    functions: list[ParsedFunction] = []
    seen: set[str] = set()
    current: ParsedFunction | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(".func"):
            name = line[len(".func"):].strip()
            if not name or not _IDENT_RE.match(name):
                raise ParseError(f"bad function name in {line!r}", line_no)
            if name in seen:
                raise ParseError(f"duplicate function name {name!r}", line_no)
            seen.add(name)
            current = ParsedFunction(name=name, instructions=[])
            functions.append(current)
            continue
        if current is None:
            raise ParseError(f"content outside .func: {line!r}", line_no)
        if line.endswith(":"):
            label = line[:-1].strip()
            if not _IDENT_RE.match(label):
                raise ParseError(f"bad label {line!r}", line_no)
            if label in current.labels:
                raise ParseError(f"duplicate label {label!r}", line_no)
            current.labels[label] = len(current.instructions)
            continue
        mnemonic, _, rest = line.partition(" ")
        mnemonic = mnemonic.lower()
        operands = tuple(_parse_operand(p, line_no) for p in _split_operands(rest) if p.strip()) \
            if rest.strip() else ()
        current.instructions.append(Instruction(
            index=len(current.instructions),
            mnemonic=mnemonic,
            operands=operands,
            raw_text=line,
        ))
    return functions


def immediate_token(value: int) -> str:
    """Normalize an immediate: small values stay literal, larger ones are
    replaced by width buckets to bound the vocabulary."""
    if -256 < value < 256:
        return str(value)
    if -(1 << 15) <= value < (1 << 15):
        return IMM16
    if -(1 << 31) <= value < (1 << 31):
        return IMM32
    return IMM64


def _memory_tokens(op: Operand) -> list[str]:
    parts: list[list[str]] = []
    if op.base is not None:
        parts.append([op.base])
    if op.index is not None:
        if op.scale != 1:
            parts.append([str(op.scale), "*", op.index])
        else:
            parts.append([op.index])
    if op.disp != 0 or not parts:
        parts.append([immediate_token(op.disp)])
    out = ["["]
    for i, p in enumerate(parts):
        if i:
            out.append("+")
        out.extend(p)
    out.append("]")
    return out


def operand_tokens(op: Operand) -> list[str]:
    if op.kind == "register":
        return [op.reg]
    if op.kind == "immediate":
        return [immediate_token(op.value)]
    if op.kind == "label":
        return [ADDR]
    return _memory_tokens(op)


def instruction_tokens(instr: Instruction) -> list[str]:
    """Surface tokens of one instruction (without the ``<INST>`` delimiter)."""
    toks = [instr.mnemonic]
    for i, op in enumerate(instr.operands):
        if i:
            toks.append(",")
        toks.extend(operand_tokens(op))
    return toks


class Vocabulary:
    """token string <-> id bijection with fixed reserved ids.

    Unknown strings map to ``[UNK]`` at lookup time.
    """

    def __init__(self, regular_tokens: list[str] | None = None):
        self._token_to_id: dict[str, int] = {t: i for i, t in enumerate(RESERVED_TOKENS)}
        self._id_to_token: list[str] = list(RESERVED_TOKENS)
        for tok in regular_tokens or []:
            self._add(tok)

    def _add(self, tok: str) -> None:
        if tok in self._token_to_id:
            raise ValueError(f"duplicate vocabulary token {tok!r}")
        self._token_to_id[tok] = len(self._id_to_token)
        self._id_to_token.append(tok)

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, tok: str) -> bool:
        return tok in self._token_to_id

    def id(self, tok: str) -> int:
        return self._token_to_id.get(tok, UNK_ID)

    def token(self, idx: int) -> str:
        return self._id_to_token[idx]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, tok in enumerate(self._id_to_token):
                fh.write(f"{tok}\t{idx}\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        pairs = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                tok, _, idx = line.rpartition("\t")
                pairs.append((int(idx), tok))
        pairs.sort()
        if [idx for idx, _ in pairs] != list(range(len(pairs))):
            raise ValueError("vocabulary ids are not exactly 0..n-1")
        tokens = [t for _, t in pairs]
        if tuple(tokens[:FIRST_REGULAR_ID]) != RESERVED_TOKENS:
            raise ValueError("vocabulary file does not carry the reserved token block")
        return cls(tokens[FIRST_REGULAR_ID:])


def build_vocab(functions: list[ParsedFunction], min_freq: int = 1) -> Vocabulary:
    """Build a vocabulary from parsed functions.

    Tokens appearing at least ``min_freq`` times get ids, assigned in order
    of first appearance (deterministic given function order).
    """
    if not functions:
        raise ValueError("empty corpus")
    freq: dict[str, int] = {}  # insertion order is first-appearance order
    for fn in functions:
        for instr in fn.instructions:
            for tok in instruction_tokens(instr):
                freq[tok] = freq.get(tok, 0) + 1
    regular = [t for t, c in freq.items() if c >= min_freq and t not in RESERVED_TOKENS]
    return Vocabulary(regular)


@dataclass
class TokenSequence:
    """Tokenized function: ``[CLS]`` then per-instruction ``<INST>`` blocks."""

    tokens: list[int]
    surface: list[str]
    #: token position -> instruction index (-1 for [CLS] / [PAD])
    inst_of: list[int]
    #: instruction index -> position of its <INST> token
    inst_positions: dict[int, int]

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def n_instructions(self) -> int:
        return len(self.inst_positions)


def tokenize(instrs: list[Instruction], vocab: Vocabulary, max_len: int = 512) -> TokenSequence:
    """Tokenize instructions, truncating at whole-instruction granularity."""
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    surface = [CLS]
    inst_of = [-1]
    inst_positions: dict[int, int] = {}
    for instr in instrs:
        toks = [INST] + instruction_tokens(instr)
        if len(surface) + len(toks) > max_len:
            break  # whole-instruction truncation: drop this and all later ones
        inst_positions[instr.index] = len(surface)
        surface.extend(toks)
        inst_of.extend([instr.index] * len(toks))
    ids = [vocab.id(t) for t in surface]
    return TokenSequence(tokens=ids, surface=surface, inst_of=inst_of,
                         inst_positions=inst_positions)

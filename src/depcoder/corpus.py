"""Corpus management: per-function pipeline artifacts and their on-disk cache.

Every artifact of a function comes from one path: ``compute_artifacts``
tokenizes it, and its ``FunctionArtifacts`` computes the dependence graph and
then the connectivity graph on first use, once each.  A corpus analyses every
function of a listing as it is built; the ``pipeline`` command computes only
what the sections it writes need.  Nothing keeps a mask:
``FunctionArtifacts.bundle`` builds the pair list on each access.

The ``pipeline`` command goes through an optional on-disk cache of one entry
per function, holding everything the vocabulary does not decide.  Line 1 of
an entry is its digest; after it come the compact JSON texts of the
``SECTIONS``, one per line, exactly as the command writes them to its output
files.  The digest is the sha256 of the entry's key (the function's text, the
analysis settings ``max_len``, ``flags_dep`` and ``on_unknown``, and
``CACHE_FORMAT``) followed by the section lines, so an entry that is stale,
unreadable or changed in any byte is recomputed, never served; a hit serves
the section texts as they are and decodes only ``tokens``, and loads no
numpy: the closure and mask modules are imported on a miss only.  Each
writer writes the entry through a temporary file of its own.  Token ids are
looked up from the surface on every call.
``ANALYSIS_DIGEST`` pins the analysis output of a fixed listing, so an
analysis change that does not bump ``CACHE_FORMAT`` fails a test.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .config import RunConfig
from .dependence import DependenceGraph, dependence_graph
from .frontend import ParsedFunction, TokenSequence, Vocabulary, build_vocab, parse_listing, tokenize

if TYPE_CHECKING:  # the closure and masks load numpy; a cache hit needs neither
    from .connectivity import ConnectivityGraph
    from .masks import AttentionPairs

#: layout version of a cache entry; part of every entry's key
CACHE_FORMAT = 4
#: sha256 of the ``pipeline --stage mask`` output of ``synth --functions 8
#: --seed 0`` without and with ``--flags-dep``; moving it means bumping
#: ``CACHE_FORMAT``
ANALYSIS_DIGEST = "e9eecd0d9535c9182b4e786e88e53c354d037c4a18bc8e59dab88f41b2754fe9"


def function_text(fn: ParsedFunction) -> str:
    lines = [f".func {fn.name}"]
    by_index: dict[int, list[str]] = {}
    for label, idx in fn.labels.items():
        by_index.setdefault(idx, []).append(label)
    for instr in fn.instructions:
        for label in by_index.get(instr.index, []):
            lines.append(f"{label}:")
        lines.append(instr.raw_text)
    for label in by_index.get(len(fn.instructions), []):
        lines.append(f"{label}:")
    return "\n".join(lines) + "\n"


@dataclass
class FunctionArtifacts:
    """One function's tokenization, and its analysis computed on first use."""
    fn: ParsedFunction
    seq: TokenSequence
    cfg: RunConfig

    @property
    def name(self) -> str:
        return self.fn.name

    @functools.cached_property
    def deps(self) -> DependenceGraph:
        return dependence_graph(self.fn, flags_channel=self.cfg.flags_dep,
                                on_unknown=self.cfg.on_unknown)

    @functools.cached_property
    def con(self) -> ConnectivityGraph:
        from .connectivity import connectivity

        return connectivity(self.deps)

    @property
    def bundle(self) -> AttentionPairs:
        """The function's unperturbed mask, built afresh on each access."""
        from .masks import build_bundle

        return build_bundle(self.seq, self.con.dist)


def compute_artifacts(fn: ParsedFunction, vocab: Vocabulary,
                      cfg: RunConfig) -> FunctionArtifacts:
    return FunctionArtifacts(fn=fn, seq=tokenize(fn.instructions, vocab, cfg.max_len), cfg=cfg)


@dataclass
class Corpus:
    functions: list[FunctionArtifacts]
    vocab: Vocabulary
    by_name: dict[str, FunctionArtifacts] = field(default_factory=dict)

    def __post_init__(self):
        self.by_name = {f.name: f for f in self.functions}

    def __len__(self) -> int:
        return len(self.functions)

    @classmethod
    def from_text(cls, listing: str, cfg: RunConfig,
                  vocab: Vocabulary | None = None) -> "Corpus":
        parsed = parse_listing(listing)
        if vocab is None:
            vocab = build_vocab(parsed, min_freq=cfg.vocab_min_freq)
        arts = [compute_artifacts(fn, vocab, cfg) for fn in parsed]
        for art in arts:
            art.con  # analyse every function now: a bad one fails before any training
        return cls(functions=arts, vocab=vocab)


# ---------------------------------------------------------------------------
# On-disk artifact cache (used by the pipeline command)

#: the ``pipeline`` stages, and the section each adds: a cache entry holds
#: the texts of all ``SECTIONS``, one per line, in this order, and the
#: command writes each to ``<function>.<section>.json``
STAGES = ("tokenize", "deps", "connectivity", "mask")
SECTIONS = ("tokens", "deps", "conn", "mask")


def dumps(obj) -> str:
    """Compact JSON with sorted keys, the form of every artifact file and
    cache entry section."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cached_artifact_dict(fn: ParsedFunction, vocab: Vocabulary, cfg: RunConfig,
                         cache_dir: str | None = None,
                         sections: tuple[str, ...] = SECTIONS) -> dict:
    """``{"tokens": <the decoded tokens section, ids included>, "texts":
    <each section's text>}`` for one function, going through the cache when
    one is configured.  A hit serves the entry's section texts as written and
    decodes only ``tokens``; any other entry is recomputed, whole, through
    ``compute_artifacts`` and overwritten.  Without a cache only
    ``sections``, a prefix of ``SECTIONS``, are computed.  The token ids are
    looked up in ``vocab`` on every call, cached or not."""
    tokens = cache_path = None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        cache_path = os.path.join(cache_dir, f"{fn.name}.json")
        key = json.dumps([CACHE_FORMAT, function_text(fn), cfg.max_len, cfg.flags_dep,
                          cfg.on_unknown]) + "\n"
        try:
            with open(cache_path, encoding="utf-8", newline="") as fh:
                digest, _, body = fh.read().partition("\n")
        except (OSError, ValueError):  # missing, unreadable or not UTF-8: a miss
            digest = body = ""
        if digest == hashlib.sha256((key + body).encode("utf-8")).hexdigest():
            texts = dict(zip(SECTIONS, body.split("\n")))
            tokens = json.loads(texts["tokens"])
    if tokens is None:
        if cache_path:
            sections = SECTIONS
        art = compute_artifacts(fn, vocab, cfg)
        tokens = {
            "surface": art.seq.surface,
            "inst_of": art.seq.inst_of,
            "inst_positions": {str(k): v for k, v in art.seq.inst_positions.items()},
        }
        texts = {"tokens": dumps(tokens)}
        if "deps" in sections:
            texts["deps"] = dumps(art.deps.to_dict())
        if "conn" in sections:
            texts["conn"] = art.con.to_json()
        if "mask" in sections:
            from .masks import sparse_masks

            texts["mask"] = sparse_masks(art.bundle)
        if cache_path:
            body = "\n".join(texts[k] for k in SECTIONS)
            digest = hashlib.sha256((key + body).encode("utf-8")).hexdigest()
            write_file(cache_path, (digest + "\n" + body).encode("utf-8"))
    ids = [vocab.id(t) for t in tokens["surface"]]
    # "ids" sorts before the other token keys, so it opens the object
    texts["tokens"] = f'{{"ids":{dumps(ids)},{texts["tokens"][1:]}'
    return {"tokens": dict(tokens, ids=ids), "texts": texts}


def write_file(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file of this writer's
    own, so that writers of one path never move each other's file.  Mode
    ``"x"`` gives it a plain ``open``'s mode; a failed write removes it."""
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise

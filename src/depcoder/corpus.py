"""Corpus management: per-function pipeline artifacts and their on-disk cache.

A corpus binds every function of a listing to its tokenization, dependence
graph and connectivity graph, each derived once per function.  It keeps no
mask: ``FunctionArtifacts.bundle`` builds the pair list on each access.

The ``pipeline`` command goes through an optional on-disk cache of one entry
per function, holding everything the vocabulary does not decide.  Line 1 of
an entry is its digest; after it come the compact JSON texts of the
``SECTIONS``, one per line, exactly as the command writes them to its output
files.  The digest is the sha256 of the entry's key (the function's text, the
analysis settings ``max_len``, ``flags_dep`` and ``on_unknown``, and
``CACHE_FORMAT``) followed by the section lines, so an entry that is stale,
unreadable or changed in any byte is recomputed, never served; a hit serves
the section texts as they are and decodes only ``tokens``.  Token ids are
looked up from the surface on every call.
``ANALYSIS_DIGEST`` pins the analysis output of a fixed listing, so an
analysis change that does not bump ``CACHE_FORMAT`` fails a test.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from .config import RunConfig
from .connectivity import ConnectivityGraph, connectivity
from .dependence import DependenceGraph, dependence_graph
from .frontend import ParsedFunction, TokenSequence, Vocabulary, build_vocab, parse_listing, tokenize
from .masks import AttentionPairs, build_bundle, sparse_masks

#: layout version of a cache entry; part of every entry's key
CACHE_FORMAT = 3
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
    fn: ParsedFunction
    seq: TokenSequence
    deps: DependenceGraph
    con: ConnectivityGraph

    @property
    def name(self) -> str:
        return self.fn.name

    @property
    def bundle(self) -> AttentionPairs:
        """The function's unperturbed mask, built afresh on each access."""
        return build_bundle(self.seq, self.con.dist)


def compute_artifacts(fn: ParsedFunction, vocab: Vocabulary,
                      cfg: RunConfig) -> FunctionArtifacts:
    seq = tokenize(fn.instructions, vocab, cfg.max_len)
    deps = dependence_graph(fn, flags_channel=cfg.flags_dep, on_unknown=cfg.on_unknown)
    return FunctionArtifacts(fn=fn, seq=seq, deps=deps, con=connectivity(deps))


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
        return cls(functions=arts, vocab=vocab)

    @classmethod
    def from_file(cls, path, cfg: RunConfig, vocab: Vocabulary | None = None) -> "Corpus":
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read(), cfg, vocab)


# ---------------------------------------------------------------------------
# On-disk artifact cache (used by the pipeline command)

#: the sections of a cache entry, one text per line, in this order
SECTIONS = ("tokens", "deps", "connectivity", "mask")


def dumps(obj) -> str:
    """Compact JSON with sorted keys, the form of every artifact file and
    cache entry section."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cached_artifact_dict(fn: ParsedFunction, vocab: Vocabulary, cfg: RunConfig,
                         cache_dir: str | None = None) -> dict:
    """``{"tokens": <the decoded tokens section, ids included>, "texts":
    <every section's text>}`` for one function, going through the cache when
    one is configured.  A hit serves the entry's section texts as written and
    decodes only ``tokens``; any other entry is recomputed and overwritten.
    The token ids are looked up in ``vocab`` on every call, cached or not."""
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
        arts = compute_artifacts(fn, vocab, cfg)
        tokens = {
            "surface": arts.seq.surface,
            "inst_of": arts.seq.inst_of,
            "inst_positions": {str(k): v for k, v in arts.seq.inst_positions.items()},
        }
        texts = {"tokens": dumps(tokens), "deps": dumps(arts.deps.to_dict()),
                 "connectivity": arts.con.to_json(), "mask": sparse_masks(arts.bundle)}
        if cache_path:
            body = "\n".join(texts[k] for k in SECTIONS)
            tmp = cache_path + ".tmp"
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(hashlib.sha256((key + body).encode("utf-8")).hexdigest() + "\n" + body)
            os.replace(tmp, cache_path)
    ids = [vocab.id(t) for t in tokens["surface"]]
    # "ids" sorts before the other token keys, so it opens the object
    texts["tokens"] = f'{{"ids":{dumps(ids)},{texts["tokens"][1:]}'
    return {"tokens": dict(tokens, ids=ids), "texts": texts}

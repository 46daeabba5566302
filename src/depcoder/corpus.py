"""Corpus management: per-function pipeline artifacts and their on-disk cache.

A corpus binds every function of a listing to its tokenization, dependence
graph and connectivity graph, each derived once per function.  It keeps no
mask: ``FunctionArtifacts.bundle`` builds the pair list on each access.

The ``pipeline`` command goes through an optional on-disk cache of one JSON
entry per function.  An entry holds everything the vocabulary does not
decide: the surface tokens, the dependence and connectivity graphs and the
sparse mask view.  It is keyed (``sha``) by the hash of the function's text,
the analysis settings that shape those artifacts (``max_len``, ``flags_dep``,
``on_unknown``) and the entry format, so a stale entry is recomputed, never
silently reused; so is an entry that cannot be read or parsed, that is not
an object, or whose sections lack the shape a hit reads.  Token ids are
looked up from the surface on every call.  A computed section is
JSON-encoded once, the connectivity and mask sections as text written
straight from their arrays: the entry is assembled from the section texts
that the command also writes to its output files.
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
CACHE_FORMAT = 2
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

def dumps(obj) -> str:
    """Compact JSON with sorted keys, the form of every artifact file and
    cache entry."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _readable(arts) -> bool:
    """Whether a cache entry's ``artifacts`` has the sections, and the
    ``tokens`` keys and surface, that a hit reads."""
    if not (isinstance(arts, dict)
            and arts.keys() == {"connectivity", "deps", "function", "mask", "tokens"}):
        return False
    tokens = arts["tokens"]
    return (isinstance(tokens, dict)
            and tokens.keys() == {"inst_of", "inst_positions", "surface"}
            and isinstance(tokens["surface"], list)
            and all(isinstance(t, str) for t in tokens["surface"]))


class ArtifactDict(dict):
    """A function's decoded ``tokens`` section, token ids included; ``texts``
    maps every section to its ``dumps`` text."""

    texts: dict[str, str]


def cached_artifact_dict(fn: ParsedFunction, vocab: Vocabulary, cfg: RunConfig,
                         cache_dir: str | None = None) -> ArtifactDict:
    """Artifacts of one function as section texts, going through the cache
    when one is configured; an entry that is unreadable, not a JSON object,
    keyed differently or not shaped as a hit reads it is recomputed and
    overwritten.  The token ids are looked up in ``vocab`` on every call,
    cached or not.  Each section is encoded once; a computed entry is
    assembled from those texts, and the caller writes them out."""
    out = cache_path = None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        cache_path = os.path.join(cache_dir, f"{fn.name}.json")
        key = [CACHE_FORMAT, function_text(fn), cfg.max_len, cfg.flags_dep, cfg.on_unknown]
        sha = hashlib.sha256(json.dumps(key).encode("utf-8")).hexdigest()
        try:
            with open(cache_path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):  # missing, unreadable or not JSON: a miss
            entry = None
        if (isinstance(entry, dict) and entry.get("sha") == sha
                and _readable(entry.get("artifacts"))):
            out = entry["artifacts"]
    if out is not None:
        texts = {k: dumps(v) for k, v in out.items()}
    else:
        arts = compute_artifacts(fn, vocab, cfg)
        out = {
            "function": fn.name,
            "tokens": {
                "surface": arts.seq.surface,
                "inst_of": arts.seq.inst_of,
                "inst_positions": {str(k): v for k, v in arts.seq.inst_positions.items()},
            },
            "deps": arts.deps.to_dict(),
        }
        texts = {k: dumps(v) for k, v in out.items()}
        texts["connectivity"] = arts.con.to_json()
        texts["mask"] = sparse_masks(arts.bundle)
        if cache_path:  # == dumps({"artifacts": <the sections>, "sha": sha})
            body = ",".join(f"{dumps(k)}:{texts[k]}" for k in sorted(texts))
            tmp = cache_path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(f'{{"artifacts":{{{body}}},"sha":{dumps(sha)}}}')
            os.replace(tmp, cache_path)
    ids = [vocab.id(t) for t in out["tokens"]["surface"]]
    # "ids" sorts before the other token keys, so it opens the object
    texts["tokens"] = f'{{"ids":{dumps(ids)},{texts["tokens"][1:]}'
    result = ArtifactDict(tokens=dict(out["tokens"], ids=ids))
    result.texts = texts
    return result

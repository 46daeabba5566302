"""Corpus management: per-function pipeline artifacts and their on-disk cache.

A corpus binds every function of a listing to its tokenization, dependence
graph and connectivity graph, each derived once per function.  It keeps no
dense mask: ``FunctionArtifacts.bundle`` builds one on each access.

The ``pipeline`` command goes through an optional on-disk cache of one JSON
entry per function.  An entry holds everything the vocabulary does not
decide: the surface tokens, the dependence and connectivity graphs and the
sparse mask view.  It is keyed (``sha``) by the hash of the function's text,
the analysis settings that shape those artifacts (``max_len``, ``flags_dep``,
``on_unknown``) and the entry format, so a stale entry is recomputed, never
silently reused; so is an entry that cannot be read or parsed, or that is not
an object.  Token ids are looked up from the surface on every call.
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
from .masks import MaskBundle, build_bundle, sparse_masks

#: layout version of a cache entry; part of every entry's key
CACHE_FORMAT = 2


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
    def bundle(self) -> MaskBundle:
        """The function's unperturbed mask bundle, built afresh on each access."""
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
    config: RunConfig
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
        return cls(functions=arts, vocab=vocab, config=cfg)

    @classmethod
    def from_file(cls, path, cfg: RunConfig, vocab: Vocabulary | None = None) -> "Corpus":
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read(), cfg, vocab)


# ---------------------------------------------------------------------------
# On-disk artifact cache (used by the pipeline command)

def cached_artifact_dict(fn: ParsedFunction, vocab: Vocabulary, cfg: RunConfig,
                         cache_dir: str | None = None) -> dict:
    """Artifacts of one function as a JSON-ready dict, going through the cache
    when one is configured; an entry that is unreadable, not a JSON object or
    keyed differently is recomputed and overwritten.  The token
    ids are looked up in ``vocab`` on every call, cached or not."""
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
        if isinstance(entry, dict) and entry.get("sha") == sha:
            out = entry["artifacts"]
    if out is None:
        arts = compute_artifacts(fn, vocab, cfg)
        out = {
            "function": fn.name,
            "tokens": {
                "surface": arts.seq.surface,
                "inst_of": arts.seq.inst_of,
                "inst_positions": {str(k): v for k, v in arts.seq.inst_positions.items()},
            },
            "deps": arts.deps.to_dict(),
            "connectivity": arts.con.to_dict(),
            "mask": sparse_masks(arts.seq, arts.bundle),
        }
        if cache_path:
            tmp = cache_path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"sha": sha, "artifacts": out}, sort_keys=True))
            os.replace(tmp, cache_path)
    out["tokens"]["ids"] = [vocab.id(t) for t in out["tokens"]["surface"]]
    return out

"""Span tracing around calls into the program's public functions.

The benchmark does not change the program: it swaps a module's function for
a timing wrapper while tracing is on, and puts the original back afterwards.
A function is swapped wherever a ``depcoder`` module holds it, so calls made
through ``from .module import name`` are traced too.

Spans are kept in memory as ``(name, start, end, parent, op)`` tuples and
written out when the run ends.  A layer's self time is the duration of its
spans minus the part covered by their child spans.  Counters are taken from
the traced calls' arguments and results inside a ``trace.count`` span, so the
counting cost shows as tracing overhead instead of as a layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

COUNT_SPAN = "trace.count"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# -- counters: (counts, args, kwargs, result) -> None -------------------------

def _count_tokenize(c, args, kwargs, seq):
    instrs = _arg(args, kwargs, 0, "instrs")
    c["frontend.tokens"] += len(seq)
    c["frontend.instructions"] += len(instrs)
    c["frontend.truncated_instructions"] += len(instrs) - seq.n_instructions


def _count_deps(c, args, kwargs, dep):
    c["dependence.edges"] += len(dep.edges)


def _count_closure(c, args, kwargs, con):
    c["connectivity.nodes"] += con.n_nodes
    c["connectivity.pairs"] += int((con.dist > 0).sum()) // 2


def _count_bundle(c, args, kwargs, bundle):
    c["masks.enabled_entries"] += int((bundle.M == 0).sum())
    c["masks.entries"] += bundle.M.size


def _count_corpus(c, args, kwargs, corpus):
    nbytes = sum(f.bundle.M.nbytes + f.bundle.R.nbytes + f.con.dist.nbytes
                 for f in corpus.functions)
    c["masks.resident_bytes"] = max(c["masks.resident_bytes"], nbytes)


def _count_attention(c, args, kwargs, out):
    h, bundle, layer, state = args[:4]
    c["encoder.attention_entries"] += state.config.heads * bundle.n * bundle.n


def _count_mlm(c, args, kwargs, out):
    c["pretrain.masked_tokens"] += len(out[1])


def _count_mdm(c, args, kwargs, sample):
    c["pretrain.sampled_edges"] += len(sample.positives) + len(sample.negatives)


#: (module, attribute, span name, counter); "Class.method" patches the class
TARGETS = (
    ("frontend", "parse_listing", "frontend.parse", None),
    ("frontend", "build_vocab", "frontend.vocab", None),
    ("frontend", "tokenize", "frontend.tokenize", _count_tokenize),
    ("cfg", "build_cfg", "cfg.build", None),
    ("dependence", "dependence_graph", "dependence.graph", _count_deps),
    ("connectivity", "connectivity", "connectivity.closure", _count_closure),
    ("masks", "build_bundle", "masks.bundle", _count_bundle),
    ("masks", "sparse_masks", "masks.sparse", None),
    ("corpus", "compute_artifacts", "corpus.compute", None),
    ("corpus", "cached_artifact_dict", "corpus.cached", None),
    ("corpus", "Corpus.from_text", "corpus.build", _count_corpus),
    ("encoder", "rma_attention", "encoder.attention", _count_attention),
    ("encoder", "transformer_block", "encoder.block", None),
    ("encoder", "encode", "encoder.encode", None),
    ("encoder", "backward", "encoder.backward", None),
    ("pretrain", "mlm_perturb", "pretrain.mlm_perturb", _count_mlm),
    ("pretrain", "mdm_sample", "pretrain.mdm_sample", _count_mdm),
    ("pretrain", "perturb_bundle", "pretrain.perturb_bundle", None),
    ("pretrain", "mlm_loss", "pretrain.loss", None),
    ("pretrain", "mdm_loss", "pretrain.loss", None),
    ("pretrain", "AdamW.apply", "pretrain.adamw", None),
    ("pretrain", "train_step", "pretrain.step", None),
)

#: reported self-time metric -> the span names it sums
LAYER_TIMES = {
    "frontend.parse_ms": ("frontend.parse",),
    "frontend.vocab_ms": ("frontend.vocab",),
    "frontend.tokenize_ms": ("frontend.tokenize",),
    "cfg.build_ms": ("cfg.build",),
    "dependence.graph_ms": ("dependence.graph",),
    "connectivity.closure_ms": ("connectivity.closure",),
    "masks.bundle_ms": ("masks.bundle",),
    "masks.sparse_ms": ("masks.sparse",),
    "corpus.artifact_ms": ("corpus.compute", "corpus.cached", "corpus.build"),
    "encoder.attention_ms": ("encoder.attention",),
    "encoder.block_ms": ("encoder.block",),
    "encoder.encode_ms": ("encoder.encode",),
    "encoder.backward_ms": ("encoder.backward",),
    "pretrain.mlm_perturb_ms": ("pretrain.mlm_perturb",),
    "pretrain.mdm_sample_ms": ("pretrain.mdm_sample",),
    "pretrain.perturb_bundle_ms": ("pretrain.perturb_bundle",),
    "pretrain.loss_ms": ("pretrain.loss",),
    "pretrain.adamw_ms": ("pretrain.adamw",),
    "pretrain.step_ms": ("pretrain.step",),
    "cli.io_ms": ("cli",),
}

COUNTS = ("frontend.tokens", "frontend.instructions", "frontend.truncated_instructions",
          "dependence.edges", "connectivity.nodes", "connectivity.pairs",
          "corpus.cache_hits", "corpus.cache_lookups", "encoder.attention_entries",
          "pretrain.masked_tokens", "pretrain.sampled_edges")

#: every per-layer metric a traced run reports -> its unit
PER_LAYER = {**{name: "ms" for name in LAYER_TIMES}, **{name: "count" for name in COUNTS},
             "masks.density": "ratio", "masks.resident_mb": "MB", "trace.overhead_pct": "%"}


class Tracer:
    """In-memory span recorder; ``install`` swaps the wrappers in."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None,
                           self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if counter is not None:
                cidx = tracer.begin(COUNT_SPAN)
                counter(tracer.counts, args, kwargs, out)
                tracer.end(cidx)
            return out

        return traced

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        for mod_name in {t[0] for t in TARGETS} | {"cli"}:
            importlib.import_module(f"depcoder.{mod_name}")
        mods = [m for name, m in sys.modules.items()
                if name == "depcoder" or name.startswith("depcoder.")]
        for mod_name, attr, span, counter in TARGETS:
            module = sys.modules[f"depcoder.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(span, raw.__func__, counter))
                else:
                    new = self.wrap(span, raw, counter)
                setattr(cls, meth, new)
                self._restore.append((cls, meth, raw))
                continue
            orig = getattr(module, attr)
            new = self.wrap(span, orig, counter)
            for m in mods:
                if m.__dict__.get(attr) is orig:
                    setattr(m, attr, new)
                    self._restore.append((m, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- summaries ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time in seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def cache_stats(self) -> tuple[int, int]:
        """(hits, lookups): calls of the cached artifact entry point, and
        those answered without recomputing the artifacts."""
        computed = {s[3] for s in self.spans if s[0] == "corpus.compute"}
        lookups = [i for i, s in enumerate(self.spans) if s[0] == "corpus.cached"]
        return sum(1 for i in lookups if i not in computed), len(lookups)

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer self times and counts, per traced round."""
        st = self.self_times()
        out = {name: 1e3 * sum(st.get(s, 0.0) for s in spans) / rounds
               for name, spans in LAYER_TIMES.items()}
        counts = dict(self.counts)
        counts["corpus.cache_hits"], counts["corpus.cache_lookups"] = self.cache_stats()
        for name in COUNTS:
            out[name] = counts.get(name, 0) / rounds
        entries = counts.get("masks.entries", 0)
        out["masks.density"] = counts.get("masks.enabled_entries", 0) / entries if entries else 0.0
        out["masks.resident_mb"] = counts.get("masks.resident_bytes", 0) / 2 ** 20
        return out

    def dump(self, path, origin: float) -> None:
        rows = [{"name": n, "start": t0 - origin, "end": t1 - origin, "parent": p, "op": op}
                for n, t0, t1, p, op in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)

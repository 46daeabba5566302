"""The program surface that the benchmark under ``bench/`` relies on.

The benchmark times and traces the program by swapping its public functions
for wrappers, and reads a few fields of their arguments and results.  A
rename that breaks it should fail here rather than only when the benchmark
runs.  These tests read ``bench/`` and never change it.
"""

import ast
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from depcoder.cli import main
from depcoder.config import RunConfig
from depcoder.corpus import Corpus
from depcoder.masks import MASK_NEG

from oracles import naive_mask_bundle

BENCH = Path(__file__).resolve().parent.parent / "bench"

LISTING = """.func f
mov rax, 1
mov rbx, rax
add rbx, rax
cmp rbx, 4
jne .out
mov [rsp + 8], rbx
.out:
ret
.func g
push rbp
mov rbp, rsp
pop rbp
ret
"""


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(spans):
    for mod_name, attr, _, _ in spans.TARGETS:
        module = importlib.import_module(f"depcoder.{mod_name}")
        owner = module
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(module, cls_name)
            assert attr in owner.__dict__, f"{mod_name}.{cls_name}.{attr}"
        assert callable(getattr(owner, attr)), f"{mod_name}.{attr}"


def test_timed_entry_points_keep_their_leading_argument():
    from depcoder import corpus, encoder, pretrain

    def first(fn):
        return next(iter(inspect.signature(fn).parameters))

    assert first(pretrain.train_step) == "items"
    assert first(encoder.encode) == "token_ids"
    assert first(corpus.cached_artifact_dict) == "fn"


def test_cached_artifact_dict_returns_token_ids(tmp_path):
    from depcoder.corpus import cached_artifact_dict
    from depcoder.frontend import build_vocab, parse_listing

    functions = parse_listing(LISTING)
    vocab = build_vocab(functions)
    for cache_dir in (None, str(tmp_path), str(tmp_path)):  # no cache, cold, warm
        out = cached_artifact_dict(functions[0], vocab, RunConfig(), cache_dir)
        assert out["tokens"]["ids"] == [vocab.id(t) for t in out["tokens"]["surface"]]


def test_mask_is_zero_exactly_on_enabled_entries():
    # the tracer's density counter reads ``bundle.M == 0``
    for art in Corpus.from_text(LISTING, RunConfig()).functions:
        want_m, want_r = naive_mask_bundle(art.seq, art.con)
        enabled = want_m == 0
        assert np.array_equal(art.bundle.M == 0, enabled)
        assert np.all(art.bundle.M[~enabled] == MASK_NEG)
        assert np.array_equal(art.bundle.R, want_r)


def test_config_keys_the_benchmark_writes_are_accepted():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    keys = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dump" and node.args
                and isinstance(node.args[0], ast.Dict)):
            keys |= {k.value for k in node.args[0].keys if isinstance(k, ast.Constant)}
    assert {"layers", "hidden", "heads", "corpus", "out_dir"} <= keys
    RunConfig.from_dict({k: getattr(RunConfig(), k) for k in keys})


def test_traced_commands_fill_the_counters(spans, tmp_path):
    listing = tmp_path / "x.asm"
    listing.write_text(LISTING, encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"layers": 1, "hidden": 16, "heads": 2, "ffn": 32,
                               "steps": 2, "batch_size": 2, "warmup": 1}))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["pipeline", str(listing), "--out", str(tmp_path / "p"),
                     "--cache-dir", str(tmp_path / "c")]) == 0
        assert main(["pretrain", "--config", str(cfg), "--corpus", str(listing),
                     "--out", str(tmp_path / "run")]) == 0
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics(rounds=1)
    for name in ("frontend.tokens", "dependence.edges", "connectivity.pairs",
                 "corpus.cache_lookups", "encoder.attention_entries",
                 "pretrain.masked_tokens", "masks.resident_mb"):
        assert m[name] > 0, name
    assert 0.0 < m["masks.density"] < 1.0


def test_traced_cache_lookups_miss_cold_and_hit_warm(spans, tmp_path):
    # the tracer counts a lookup as a miss when the artifacts are computed inside it
    listing = tmp_path / "x.asm"
    listing.write_text(LISTING, encoding="utf-8")
    tracer = spans.Tracer()
    tracer.install()
    try:
        for run, want in (("cold", (0, 2)), ("warm", (2, 4))):
            assert main(["pipeline", str(listing), "--out", str(tmp_path / run),
                         "--cache-dir", str(tmp_path / "c")]) == 0
            assert tracer.cache_stats() == want, run
    finally:
        tracer.uninstall()


def test_timed_entry_points_are_looked_up_when_called(monkeypatch, tmp_path):
    # the benchmark times an operation by swapping the module attribute; a
    # command that bound the name at import time would run untimed
    from depcoder import corpus, encoder, pretrain

    calls = {}
    for module, attr in ((pretrain, "train_step"), (encoder, "encode"),
                         (corpus, "cached_artifact_dict")):
        def counted(*args, _orig=getattr(module, attr), _attr=attr, **kwargs):
            calls[_attr] = calls.get(_attr, 0) + 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)

    listing = tmp_path / "x.asm"
    listing.write_text(LISTING, encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"layers": 1, "hidden": 16, "heads": 2, "ffn": 32,
                               "steps": 2, "batch_size": 2, "warmup": 1}))
    run = tmp_path / "run"
    assert main(["pretrain", "--config", str(cfg), "--corpus", str(listing),
                 "--out", str(run)]) == 0
    assert calls["train_step"] == 2
    calls.clear()
    assert main(["embed", str(listing), "--checkpoint", str(run / "model.ckpt"),
                 "--out", str(tmp_path / "emb.jsonl")]) == 0
    assert calls == {"encode": 2}
    calls.clear()
    assert main(["pipeline", str(listing), "--out", str(tmp_path / "p"),
                 "--cache-dir", str(tmp_path / "c")]) == 0
    assert calls == {"cached_artifact_dict": 2}

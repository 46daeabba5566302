import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import depcoder
from depcoder.cli import _THREAD_VARS, build_parser, main
from depcoder.config import RunConfig
from depcoder.corpus import CACHE_FORMAT, SECTIONS, dumps, function_text
from depcoder.frontend import parse_listing

POINTER_CHAIN = """.func chain
mov rax, rbx
mov [rsp + 0x10], rax
mov rcx, [rsp + 0x10]
mov rdx, [rcx]
"""

# cmp (3) feeds jne (4) only through FLAGS
FLAGS_FN = """.func f
mov rax, 1
mov rbx, 2
add rax, rbx
cmp rax, rbx
jne .done
add rax, 1
.done:
ret
"""


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


def tree(path):
    return {f: (path / f).read_bytes() for f in os.listdir(path)}


def entry_key(source, fmt=CACHE_FORMAT):
    """The key of the only function of ``source`` under the default settings."""
    cfg = RunConfig()
    fn = parse_listing(source)[0]
    return json.dumps([fmt, function_text(fn), cfg.max_len, cfg.flags_dep, cfg.on_unknown])


def entry_body(sections):
    return "\n".join(dumps(sections[k]) for k in SECTIONS if k in sections)


def signed_entry(source, sections):
    """A cache entry of ``source``'s function: its digest, then the sections."""
    body = entry_body(sections)
    return hashlib.sha256(f"{entry_key(source)}\n{body}".encode()).hexdigest() + "\n" + body


def entry_sections(text):
    return dict(zip(SECTIONS, map(json.loads, text.split("\n")[1:])))


def edited_entry(edit):
    """A cache entry corruption: ``edit`` applied to the decoded sections,
    kept under the entry's digest line."""
    def corrupt(text):
        sections = entry_sections(text)
        edit(sections)
        return text.partition("\n")[0] + "\n" + entry_body(sections)
    return corrupt


def format_2_entry(text):
    """The entry of the chain function as the previous entry format wrote it:
    one JSON object holding the sections and the hash of its key."""
    sha = hashlib.sha256(entry_key(POINTER_CHAIN, fmt=2).encode()).hexdigest()
    return dumps({"artifacts": dict(entry_sections(text), function="chain"), "sha": sha})


@pytest.fixture()
def chain_listing(tmp_path):
    return write(tmp_path / "chain.asm", POINTER_CHAIN)


class TestPipeline:
    def test_paper_example_dependences(self, tmp_path, chain_listing):
        out = tmp_path / "out"
        assert main(["pipeline", chain_listing, "--out", str(out)]) == 0
        with open(out / "chain.deps.json") as fh:
            deps = json.load(fh)
        assert deps["edges"] == [[1, 0, "data"], [2, 1, "data"], [3, 1, "data"]]

    def test_empty_listing_warns_and_succeeds(self, tmp_path, capsys):
        listing = write(tmp_path / "empty.asm", "# nothing here\n")
        out = tmp_path / "out"
        assert main(["pipeline", listing, "--out", str(out),
                     "--stage", "tokenize"]) == 0
        assert "empty corpus" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path, chain_listing):
        out = tmp_path / "out"
        main(["pipeline", chain_listing, "--out", str(out)])
        first = {f: sha(out / f) for f in os.listdir(out)}
        main(["pipeline", chain_listing, "--out", str(out)])
        second = {f: sha(out / f) for f in os.listdir(out)}
        assert first == second

    def test_stage_selects_stop_point(self, tmp_path, chain_listing):
        out = tmp_path / "out"
        main(["pipeline", chain_listing, "--out", str(out), "--stage", "deps"])
        names = set(os.listdir(out))
        assert "chain.tokens.json" in names and "chain.deps.json" in names
        assert "chain.conn.json" not in names

    def test_stale_cache_recomputed(self, tmp_path, chain_listing):
        out = tmp_path / "out"
        cache = tmp_path / "cache"
        main(["pipeline", chain_listing, "--out", str(out), "--cache-dir", str(cache)])
        good = sha(out / "chain.deps.json")
        # poison the cache entry: wrong artifacts under a stale digest
        entry_path = cache / "chain.json"
        text = edited_entry(lambda s: s["deps"].update(edges=[]))(entry_path.read_text())
        write(entry_path, "0" * 64 + text[64:])
        main(["pipeline", chain_listing, "--out", str(out), "--cache-dir", str(cache)])
        assert sha(out / "chain.deps.json") == good

    def test_poisoned_cache_with_matching_hash_is_reused(self, tmp_path, chain_listing):
        # a digest over the key and the body means reuse: a hit serves the
        # section texts as written, with no further check
        out = tmp_path / "out"
        cache = tmp_path / "cache"
        main(["pipeline", chain_listing, "--out", str(out), "--cache-dir", str(cache)])
        sections = entry_sections((cache / "chain.json").read_text())
        sections["deps"]["edges"] = [[3, 0, "data"]]
        write(cache / "chain.json", signed_entry(POINTER_CHAIN, sections))
        main(["pipeline", chain_listing, "--out", str(out), "--cache-dir", str(cache)])
        with open(out / "chain.deps.json") as fh:
            assert json.load(fh)["edges"] == [[3, 0, "data"]]

    def test_warm_pass_recomputes_nothing(self, tmp_path, monkeypatch):
        from depcoder import corpus

        listing = write(tmp_path / "f.asm", FLAGS_FN + POINTER_CHAIN)
        cache = str(tmp_path / "cache")
        assert main(["pipeline", listing, "--out", str(tmp_path / "cold"),
                     "--cache-dir", cache]) == 0
        entries = tree(tmp_path / "cache")

        def recompute(*args, **kwargs):
            raise AssertionError("a cache hit recomputed a function")
        monkeypatch.setattr(corpus, "tokenize", recompute)
        assert main(["pipeline", listing, "--out", str(tmp_path / "warm"),
                     "--cache-dir", cache]) == 0
        assert tree(tmp_path / "warm") == tree(tmp_path / "cold")
        assert tree(tmp_path / "cache") == entries

    def test_interleaved_writers_of_one_entry_both_succeed(self, tmp_path, monkeypatch):
        # writer b writes the whole entry while writer a is about to move its
        # temporary file into place
        from depcoder import corpus
        from depcoder.frontend import build_vocab

        fn = parse_listing(POINTER_CHAIN)[0]
        vocab, cache = build_vocab([fn]), str(tmp_path / "cache")
        real_replace, results = os.replace, []

        def interleaved(src, dst):
            monkeypatch.setattr(os, "replace", real_replace)
            results.append(corpus.cached_artifact_dict(fn, vocab, RunConfig(), cache))
            real_replace(src, dst)
        monkeypatch.setattr(os, "replace", interleaved)
        results.append(corpus.cached_artifact_dict(fn, vocab, RunConfig(), cache))
        assert results[0] == results[1]
        assert os.listdir(cache) == ["chain.json"]
        plain = tmp_path / "plain"
        plain.write_text("")
        assert os.stat(tmp_path / "cache" / "chain.json").st_mode == os.stat(plain).st_mode

        def recompute(*args, **kwargs):
            raise AssertionError("the entry was not served")
        monkeypatch.setattr(corpus, "tokenize", recompute)
        assert corpus.cached_artifact_dict(fn, vocab, RunConfig(), cache) == results[0]

    def test_interleaved_writers_of_one_output_file_both_succeed(self, tmp_path, monkeypatch):
        # writer b writes the whole file while writer a is about to move its
        # temporary file into place
        from depcoder.cli import _write_text

        out, real_replace = tmp_path / "out.json", os.replace

        def interleaved(src, dst):
            monkeypatch.setattr(os, "replace", real_replace)
            _write_text(out, "b\n")
            real_replace(src, dst)
        monkeypatch.setattr(os, "replace", interleaved)
        _write_text(out, "a\n")
        assert out.read_text() == "a\n"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failed_entry_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        from depcoder import corpus
        from depcoder.frontend import build_vocab

        fn = parse_listing(POINTER_CHAIN)[0]
        cache = tmp_path / "cache"

        def full_disk(src, dst):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(OSError, match="No space"):
            corpus.cached_artifact_dict(fn, build_vocab([fn]), RunConfig(), str(cache))
        assert os.listdir(cache) == []

    @pytest.mark.parametrize("stage", ["tokenize", "deps"])
    def test_no_cache_stage_computes_only_what_it_writes(self, tmp_path, monkeypatch, stage):
        from depcoder import connectivity, corpus

        listing = write(tmp_path / "f.asm", FLAGS_FN + POINTER_CHAIN)
        assert main(["pipeline", listing, "--out", str(tmp_path / "before"),
                     "--stage", stage]) == 0

        def unwanted(*args, **kwargs):
            raise AssertionError("computed a section the stage does not write")
        monkeypatch.setattr(connectivity, "connectivity", unwanted)
        if stage == "tokenize":
            monkeypatch.setattr(corpus, "dependence_graph", unwanted)
        assert main(["pipeline", listing, "--out", str(tmp_path / "after"),
                     "--stage", stage]) == 0
        assert tree(tmp_path / "after") == tree(tmp_path / "before")

    def expect_recomputed(self, tmp_path, listing, corrupt):
        """Corrupt the cold entry of ``listing``'s function ``chain``: the
        next run writes the no-cache bytes and the good entry again."""
        fresh, out, cache = (tmp_path / d for d in ("fresh", "out", "cache"))
        assert main(["pipeline", listing, "--out", str(fresh)]) == 0
        assert main(["pipeline", listing, "--out", str(out), "--cache-dir", str(cache)]) == 0
        entry_path = cache / "chain.json"
        good_entry = entry_path.read_bytes()
        entry_path.write_bytes(corrupt(good_entry))
        assert main(["pipeline", listing, "--out", str(out), "--cache-dir", str(cache)]) == 0
        assert tree(out) == tree(fresh)
        assert entry_path.read_bytes() == good_entry

    @pytest.mark.parametrize("corrupt", [
        lambda text: text[:20],
        lambda text: "[]",
        # a body a hit could not read, under the digest of the good one
        edited_entry(lambda sections: sections.clear()),
        edited_entry(lambda sections: sections.update(tokens=[])),
        edited_entry(lambda sections: sections["tokens"].update(surface=5)),
        format_2_entry,
        lambda text: text + "\n",
        lambda text: ("1" if text[0] == "0" else "0") + text[1:],
        lambda text: text.replace("\n", "\r"),
    ], ids=["truncated", "not-an-object", "no-sections", "sections-not-an-object",
            "surface-not-a-list", "format-2", "trailing-newline", "digest-changed",
            "newline-to-cr"])
    def test_corrupt_cache_entry_is_recomputed(self, tmp_path, chain_listing, corrupt):
        self.expect_recomputed(tmp_path, chain_listing,
                               lambda good: corrupt(good.decode()).encode())

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_truncated_or_changed_entry_is_recomputed(self, tmp_path_factory, data):
        # the entry is ASCII, so a changed byte is a changed character or
        # leaves the file not UTF-8
        tmp_path = tmp_path_factory.mktemp("entry")
        listing = write(tmp_path / "chain.asm", POINTER_CHAIN)

        def corrupt(good):
            if data.draw(st.booleans(), label="truncate"):
                return good[:data.draw(st.integers(0, len(good) - 1), label="length")]
            i = data.draw(st.integers(0, len(good) - 1), label="at")
            byte = data.draw(st.integers(0, 255).filter(lambda b: b != good[i]), label="byte")
            return good[:i] + bytes([byte]) + good[i + 1:]
        self.expect_recomputed(tmp_path, listing, corrupt)

    def read(self, path):
        with open(path) as fh:
            return json.load(fh)

    def test_cache_keyed_on_flags_dep(self, tmp_path):
        listing = write(tmp_path / "f.asm", FLAGS_FN)
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        assert main(["pipeline", listing, "--out", out, "--cache-dir", cache]) == 0
        assert [4, 3, "data"] not in self.read(tmp_path / "out" / "f.deps.json")["edges"]
        assert main(["pipeline", listing, "--out", out, "--cache-dir", cache,
                     "--flags-dep"]) == 0
        assert [4, 3, "data"] in self.read(tmp_path / "out" / "f.deps.json")["edges"]

    def test_cached_ids_follow_the_current_vocab(self, tmp_path):
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        main(["pipeline", write(tmp_path / "a.asm", FLAGS_FN), "--out", out,
              "--cache-dir", cache])
        ahead = ".func g\npush rbp\npop rbp\nret\n" + FLAGS_FN
        assert main(["pipeline", write(tmp_path / "b.asm", ahead), "--out", out,
                     "--cache-dir", cache]) == 0
        with open(tmp_path / "out" / "vocab.tsv") as fh:
            vocab = {tok: int(i) for tok, i in (ln.rstrip("\n").rsplit("\t", 1) for ln in fh)}
        tokens = self.read(tmp_path / "out" / "f.tokens.json")
        assert tokens["ids"] == [vocab[t] for t in tokens["surface"]]

    def test_cache_keyed_on_max_len(self, tmp_path):
        listing = write(tmp_path / "f.asm", FLAGS_FN)
        cfg = write(tmp_path / "cfg.json", '{"max_len": 12}')
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        main(["pipeline", listing, "--out", out, "--cache-dir", cache])
        assert len(self.read(tmp_path / "out" / "f.tokens.json")["ids"]) == 31
        assert main(["pipeline", listing, "--out", out, "--cache-dir", cache,
                     "--config", cfg]) == 0
        assert len(self.read(tmp_path / "out" / "f.tokens.json")["ids"]) == 11

    def test_parse_error_exit_code(self, tmp_path):
        listing = write(tmp_path / "bad.asm", ".func f\nmov rax, ???\n")
        assert main(["pipeline", listing, "--out", str(tmp_path / "o")]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["pipeline", str(tmp_path / "nope.asm"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_mask_stage_emits_sparse_files(self, tmp_path, chain_listing):
        out = tmp_path / "masks"
        assert main(["pipeline", chain_listing, "--out", str(out)]) == 0
        with open(out / "chain.mask.json") as fh:
            sp = json.load(fh)
        assert set(sp) == {"n", "global", "local", "dependence", "r"}
        assert sp["r"]  # the example has connected instructions

    @pytest.mark.parametrize("stage", ["tokenize", "deps", "connectivity", "mask"])
    def test_no_cache_cold_and_warm_write_the_same_bytes(self, tmp_path, stage):
        listing = write(tmp_path / "f.asm", FLAGS_FN + POINTER_CHAIN)
        trees = {}
        for run, extra in (("none", []), ("cold", ["--cache-dir", str(tmp_path / "c")]),
                           ("warm", ["--cache-dir", str(tmp_path / "c")])):
            out = tmp_path / run
            assert main(["pipeline", listing, "--out", str(out), "--stage", stage] + extra) == 0
            trees[run] = {f: (out / f).read_bytes() for f in os.listdir(out)}
        assert "f.tokens.json" in trees["none"] and "chain.tokens.json" in trees["none"]
        assert trees["cold"] == trees["none"] and trees["warm"] == trees["none"]

    def test_entry_and_files_are_the_section_texts(self, tmp_path):
        from depcoder.corpus import cached_artifact_dict
        from depcoder.frontend import build_vocab

        functions = parse_listing(FLAGS_FN)
        vocab = build_vocab(functions)
        art = cached_artifact_dict(functions[0], vocab, RunConfig(), str(tmp_path / "c"))
        text = (tmp_path / "c" / "f.json").read_text(encoding="utf-8")
        sections = entry_sections(text)
        assert list(sections) == list(SECTIONS)
        assert text == signed_entry(FLAGS_FN, sections)
        tokens = dict(sections["tokens"], ids=art["tokens"]["ids"])
        assert art == {"tokens": tokens,
                       "texts": {k: dumps(v) for k, v in dict(sections, tokens=tokens).items()}}

        listing = write(tmp_path / "f.asm", FLAGS_FN)
        assert main(["pipeline", listing, "--out", str(tmp_path / "out")]) == 0
        for key in SECTIONS:
            written = (tmp_path / "out" / f"f.{key}.json").read_text(encoding="utf-8")
            assert written == art["texts"][key] + "\n"

    def test_analysis_digest_is_pinned(self, tmp_path):
        # the analysis output of a fixed listing: an analysis change that moves
        # it must bump CACHE_FORMAT with it, so no warm cache serves old entries
        from depcoder.corpus import ANALYSIS_DIGEST

        assert main(["synth", "--out", str(tmp_path / "s"), "--functions", "8",
                     "--seed", "0"]) == 0
        tree = tmp_path / "tree"
        for name, extra in (("plain", []), ("flags-dep", ["--flags-dep"])):
            assert main(["pipeline", str(tmp_path / "s" / "corpus.asm"), "--out",
                         str(tree / name), "--stage", "mask"] + extra) == 0
        digest = hashlib.sha256()
        for path in sorted(p for p in tree.rglob("*") if p.is_file()):
            digest.update(path.relative_to(tree).as_posix().encode() + b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
        assert digest.hexdigest() == ANALYSIS_DIGEST


    def test_upper_case_tab_separated_listing_gives_the_same_files(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "s"), "--functions", "8",
                     "--seed", "0"]) == 0
        listing = tmp_path / "s" / "corpus.asm"
        lines = listing.read_text(encoding="utf-8").splitlines(keepends=True)
        assert any(line.endswith(":\n") for line in lines)  # labels, upper-cased too
        shouted = write(tmp_path / "shouted.asm", "".join(
            line if line.startswith(".func") else line.upper().replace(" ", "\t", 1)
            for line in lines))
        for name, path in (("plain", listing), ("shouted", shouted)):
            assert main(["pipeline", str(path), "--out", str(tmp_path / name)]) == 0
        assert tree(tmp_path / "shouted") == tree(tmp_path / "plain")

#: every command's arguments: dest -> (option strings, empty for a positional;
#: default, required, type name, choices)
COMMON_ARGS = {
    "config": (("--config",), None, False, None, None),
    "seed": (("--seed",), None, False, "int", None),
    "threads": (("--threads",), None, False, "int", None),
    "flags_dep": (("--flags-dep",), False, False, None, None),
}
MODEL_ARGS = {
    **COMMON_ARGS,
    "listing": ((), None, True, None, None),
    "checkpoint": (("--checkpoint",), None, True, None, None),
    "vocab": (("--vocab",), None, False, None, None),
}
COMMAND_ARGS = {
    "pipeline": {**COMMON_ARGS,
                 "listing": ((), None, True, None, None),
                 "out": (("--out",), None, True, None, None),
                 "stage": (("--stage",), "mask", False, None,
                           ("tokenize", "deps", "connectivity", "mask")),
                 "cache_dir": (("--cache-dir",), None, False, None, None)},
    "synth": {**COMMON_ARGS,
              "out": (("--out",), None, True, None, None),
              "functions": (("--functions",), 200, False, "_at_least_1", None),
              "pool_size": (("--pool-size",), 10, False, "_at_least_1", None),
              "no_variants": (("--no-variants",), False, False, None, None)},
    "pretrain": {**COMMON_ARGS,
                 "corpus": (("--corpus",), None, False, None, None),
                 "out": (("--out",), None, False, None, None)},
    "embed": {**MODEL_ARGS,
              "out": (("--out",), None, True, None, None)},
    "eval-sim": {**COMMON_ARGS,
                 "embeddings": (("--embeddings",), None, True, None, None),
                 "eval_spec": (("--eval-spec",), None, True, None, None),
                 "k": (("--k",), "1,5,10", False, "_cutoffs", None)},
    "finetune-sim": {**MODEL_ARGS,
                     "triplets": (("--triplets",), None, True, None, None),
                     "out": (("--out",), None, True, None, None),
                     "steps": (("--steps",), 50, False, "int", None)},
    "train-type": {**MODEL_ARGS,
                   "labels": (("--labels",), None, True, None, None),
                   "out": (("--out",), None, True, None, None),
                   "steps": (("--steps",), 300, False, "int", None)},
    "eval-type": {**MODEL_ARGS,
                  "labels": (("--labels",), None, True, None, None)},
    "train-mlc": {**MODEL_ARGS,
                  "samples": (("--samples",), None, True, None, None),
                  "out": (("--out",), None, True, None, None),
                  "steps": (("--steps",), 200, False, "int", None)},
    "eval-mlc": {**MODEL_ARGS,
                 "samples": (("--samples",), None, True, None, None),
                 "head": (("--head",), None, True, None, None)},
    "gradcheck": {**COMMON_ARGS,
                  "samples": (("--samples",), 220, False, "int", None)},
}


class TestParser:
    def test_every_command_keeps_its_arguments(self):
        import argparse

        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        found = {
            name: {a.dest: (tuple(a.option_strings), a.default, a.required,
                            getattr(a.type, "__name__", a.type),
                            tuple(a.choices) if a.choices else None)
                   for a in command._actions if not isinstance(a, argparse._HelpAction)}
            for name, command in sub.choices.items()}
        assert found == COMMAND_ARGS


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", '{"not_a_key": 1}')
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 4

    def test_invalid_value_rejected(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", '{"hidden": 10, "heads": 4}')
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 4

    @pytest.mark.parametrize("config, argv", [
        ('{"mdm_node_frac": 1.5}', ["pretrain"]),
        ('{"pool_k": 0}', ["train-mlc", "x.asm", "--checkpoint", "m.ckpt",
                           "--samples", "s.jsonl", "--out", "o"]),
    ], ids=["mdm-node-frac", "pool-k"])
    def test_out_of_range_value_is_a_config_error(self, tmp_path, capsys, config, argv):
        cfg = write(tmp_path / "cfg.json", config)
        assert main(argv + ["--config", cfg]) == 4
        assert "config error" in capsys.readouterr().err

    def test_malformed_json_rejected(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", "{nope")
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


class TestThreads:
    @pytest.fixture(autouse=True)
    def unset_thread_vars(self, monkeypatch):
        for var in _THREAD_VARS:
            monkeypatch.delenv(var, raising=False)

    def synth(self, tmp_path, config, *flags):
        cfg = write(tmp_path / "cfg.json", json.dumps(config))
        code = main(["synth", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--functions", "2", *flags])
        return code, {var: os.environ.get(var) for var in _THREAD_VARS}

    def test_config_key_pins_blas_threads(self, tmp_path):
        assert self.synth(tmp_path, {"threads": 3}) == (0, dict.fromkeys(_THREAD_VARS, "3"))

    def test_flag_overrides_config_key(self, tmp_path):
        assert self.synth(tmp_path, {"threads": 3}, "--threads", "2") == (
            0, dict.fromkeys(_THREAD_VARS, "2"))

    def test_default_leaves_blas_alone(self, tmp_path):
        assert self.synth(tmp_path, {}) == (0, dict.fromkeys(_THREAD_VARS))

    def test_non_positive_rejected(self, tmp_path):
        assert self.synth(tmp_path, {"threads": 0}) == (4, dict.fromkeys(_THREAD_VARS))

    def test_package_and_cli_load_no_numpy(self):
        # BLAS reads its thread count once, when numpy loads
        src = os.path.dirname(os.path.dirname(os.path.abspath(depcoder.__file__)))
        code = "import sys, depcoder, depcoder.cli; print('numpy' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert run.stdout == "False\n"

    def test_warm_pipeline_loads_no_numpy(self, tmp_path):
        # a cache hit only reads, checks and writes text
        listing = write(tmp_path / "f.asm", FLAGS_FN + POINTER_CHAIN)
        cache = str(tmp_path / "cache")
        assert main(["pipeline", listing, "--out", str(tmp_path / "cold"),
                     "--cache-dir", cache]) == 0
        src = os.path.dirname(os.path.dirname(os.path.abspath(depcoder.__file__)))
        argv = ["pipeline", listing, "--out", str(tmp_path / "warm"), "--cache-dir", cache]
        code = f"import sys; from depcoder.cli import main; print(main({argv!r}), 'numpy' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert run.stdout == "0 False\n"
        assert tree(tmp_path / "warm") == tree(tmp_path / "cold")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny end-to-end synth + pretrain run shared across CLI tests."""
    root = tmp_path_factory.mktemp("run")
    data = root / "data"
    run = root / "run"
    assert main(["synth", "--out", str(data), "--functions", "10", "--seed", "3"]) == 0
    cfg = {
        "layers": 1, "hidden": 32, "heads": 2, "ffn": 64,
        "steps": 12, "batch_size": 4, "warmup": 2, "lr": 3e-4,
        "seed": 3, "corpus": str(data / "corpus.asm"), "out_dir": str(run),
    }
    cfg_path = write(root / "cfg.json", json.dumps(cfg))
    assert main(["pretrain", "--config", cfg_path]) == 0
    return {"root": root, "data": data, "run": run, "cfg": cfg_path}


class TestTrainingCommands:
    def test_pretrain_outputs(self, trained):
        run = trained["run"]
        assert (run / "model.ckpt").exists()
        assert (run / "vocab.tsv").exists()
        with open(run / "metrics.csv") as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "step,mlm_loss,mdm_loss,total,lr"
        assert len(lines) == 13
        first = lines[1].split(",")
        # each value is rounded to 6 decimals on its own, so the three
        # rounding errors of up to 0.5e-6 add up to at most 1.5e-6
        assert float(first[3]) == pytest.approx(float(first[1]) + float(first[2]),
                                                abs=1.5e-6)

    def test_embed_and_eval_sim(self, trained, capsys):
        data, run = trained["data"], trained["run"]
        emb = run / "emb.jsonl"
        assert main(["embed", str(data / "corpus.asm"), "--checkpoint",
                     str(run / "model.ckpt"), "--out", str(emb)]) == 0
        assert main(["eval-sim", "--embeddings", str(emb),
                     "--eval-spec", str(data / "eval.json"), "--k", "1,5"]) == 0
        out = capsys.readouterr().out
        result = json.loads(out.strip().splitlines()[-1])
        assert {"mrr", "recall@1", "recall@5", "queries"} <= set(result)
        assert 0.0 <= result["recall@1"] <= result["recall@5"] <= 1.0

    def test_finetune_sim(self, trained):
        data, run = trained["data"], trained["run"]
        out = run / "finetuned.ckpt"
        assert main(["finetune-sim", str(data / "corpus.asm"),
                     "--checkpoint", str(run / "model.ckpt"),
                     "--triplets", str(data / "triplets.jsonl"),
                     "--out", str(out), "--steps", "3", "--config",
                     trained["cfg"]]) == 0
        assert out.exists()

    def test_train_and_eval_type(self, trained, capsys):
        data, run = trained["data"], trained["run"]
        out = run / "typed.ckpt"
        assert main(["train-type", str(data / "corpus.asm"),
                     "--checkpoint", str(run / "model.ckpt"),
                     "--labels", str(data / "typelabels.jsonl"),
                     "--out", str(out), "--steps", "5", "--config",
                     trained["cfg"]]) == 0
        assert main(["eval-type", str(data / "corpus.asm"),
                     "--checkpoint", str(out),
                     "--labels", str(data / "typelabels.jsonl")]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert {"precision", "recall", "f1"} <= set(result)

    @pytest.mark.parametrize("command", ["train-type", "finetune-sim"])
    def test_a_finetuned_checkpoint_loads_without_vocab(self, trained, tmp_path, command):
        # the checkpoint lies apart from the pre-training run and its vocab.tsv
        data, run = trained["data"], trained["run"]
        listing = str(data / "corpus.asm")
        if command == "train-type":
            ckpt, labels = str(tmp_path / "typed.ckpt"), str(data / "typelabels.jsonl")
            train = ["--labels", labels]
            use = ["eval-type", listing, "--checkpoint", ckpt, "--labels", labels]
        else:
            ckpt = str(tmp_path / "ft.ckpt")
            train = ["--triplets", str(data / "triplets.jsonl")]
            use = ["embed", listing, "--checkpoint", ckpt, "--out", str(tmp_path / "e.jsonl")]
        assert main([command, listing, "--checkpoint", str(run / "model.ckpt"), *train,
                     "--out", ckpt, "--steps", "2", "--config", trained["cfg"]]) == 0
        assert (tmp_path / "vocab.tsv").read_bytes() == (run / "vocab.tsv").read_bytes()
        assert main(use) == 0

    def test_train_and_eval_mlc(self, trained, capsys):
        data, run = trained["data"], trained["run"]
        head = run / "mlc.json"
        assert main(["train-mlc", str(data / "corpus.asm"),
                     "--checkpoint", str(run / "model.ckpt"),
                     "--samples", str(data / "mlc.jsonl"),
                     "--out", str(head), "--steps", "10"]) == 0
        assert main(["eval-mlc", str(data / "corpus.asm"),
                     "--checkpoint", str(run / "model.ckpt"),
                     "--samples", str(data / "mlc.jsonl"),
                     "--head", str(head)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert 0.0 <= result["lrap"] <= 1.0
        assert 0.0 <= result["lrl"] <= 1.0

    @pytest.mark.parametrize("pos", [-1, "1", True])
    def test_bad_label_position_rejected(self, trained, tmp_path, capsys, pos):
        listing = write(tmp_path / "chain.asm", POINTER_CHAIN)
        labels = write(tmp_path / "labels.jsonl", json.dumps(
            {"function": "chain", "labels": [[pos, "long"], [2, "no-access"]]}) + "\n")
        assert main(["eval-type", listing, "--checkpoint",
                     str(trained["run"] / "model.ckpt"), "--labels", labels]) == 2
        assert "not a non-negative integer" in capsys.readouterr().err

    def test_divergence_exit_code(self, trained, tmp_path):
        cfg = dict(json.loads(open(trained["cfg"]).read()))
        cfg.update({"lr": 1e12, "steps": 30, "warmup": 0,
                    "clip_norm": 0.0, "out_dir": str(tmp_path / "boom")})
        cfg_path = write(tmp_path / "boom.json", json.dumps(cfg))
        import numpy as np
        with np.errstate(all="ignore"):
            code = main(["pretrain", "--config", cfg_path])
        assert code == 3

    def test_nonfinite_gradient_exit_code(self, trained, tmp_path, capsys, monkeypatch):
        from depcoder import pretrain

        original = pretrain.backward

        def poisoned(trace, d_final, state, grads):
            out = original(trace, d_final, state, grads)
            out["beta"][0, 1] = float("nan")
            return out

        monkeypatch.setattr(pretrain, "backward", poisoned)
        cfg = dict(json.loads(open(trained["cfg"]).read()))
        cfg.update({"steps": 2, "out_dir": str(tmp_path / "nan")})
        assert main(["pretrain", "--config", write(tmp_path / "nan.json",
                                                   json.dumps(cfg))]) == 3
        assert "non-finite gradient for parameter 'beta'" in capsys.readouterr().err
        assert not (tmp_path / "nan" / "model.ckpt").exists()


def bad_input(case, tmp_path, trained):
    """The argv of a command given the bad input ``case``, and the bad file's path."""
    listing = write(tmp_path / "chain.asm", POINTER_CHAIN)
    ckpt = str(trained["run"] / "model.ckpt")
    if case == "directory_listing":
        return ["pipeline", str(tmp_path), "--out", str(tmp_path / "o")], str(tmp_path)
    if case == "non_utf8_listing":
        (tmp_path / "latin1.asm").write_bytes(b".func caf\xe9\nret\n")
        path = str(tmp_path / "latin1.asm")
        return ["pipeline", path, "--out", str(tmp_path / "o")], path
    if case == "directory_vocab":
        return ["embed", listing, "--checkpoint", ckpt, "--vocab", str(tmp_path),
                "--out", str(tmp_path / "e.jsonl")], str(tmp_path)
    if case == "vocab_of_another_size":
        # one token more than the checkpoint embeds
        vocab = (trained["run"] / "vocab.tsv").read_text(encoding="utf-8")
        path = write(tmp_path / "vocab.tsv", vocab + f"extra\t{len(vocab.splitlines())}\n")
        return ["embed", listing, "--checkpoint", ckpt, "--vocab", path,
                "--out", str(tmp_path / "e.jsonl")], path
    if case == "labels_row_without_labels":
        path = write(tmp_path / "labels.jsonl", '{"function": "chain"}\n')
        return ["eval-type", listing, "--checkpoint", ckpt, "--labels", path], path
    if case == "triplet_of_an_absent_function":
        path = write(tmp_path / "t.jsonl", json.dumps(
            {"anchor": "chain", "positive": "chain", "negative": "absent"}) + "\n")
        return ["finetune-sim", listing, "--checkpoint", ckpt, "--triplets", path,
                "--out", str(tmp_path / "f.ckpt"), "--steps", "1"], path
    if case in ("sample_without_a_function", "head_of_a_wrong_shape"):
        functions = [] if case == "sample_without_a_function" else ["chain"]
        samples = write(tmp_path / "s.jsonl", json.dumps(
            {"functions": functions, "labels": [1, 0]}) + "\n")
        head = write(tmp_path / "head.json", json.dumps(
            {"query": [0.0], "w": [[0.0, 0.0]], "b": [0.0, 0.0]}))
        return ["eval-mlc", listing, "--checkpoint", ckpt, "--samples", samples,
                "--head", head], samples if functions == [] else head
    rows = [{"function": "chain", "embedding": [1.0]}]
    if case == "embeddings_of_two_lengths":
        rows.append({"function": "other", "embedding": [1.0, 2.0]})
    embs = write(tmp_path / "e.jsonl", "".join(json.dumps(row) + "\n" for row in rows))
    query, truth = ("absent", 0) if case == "eval_spec_of_an_absent_embedding" else ("chain", 1)
    path = write(tmp_path / "spec.json", json.dumps(
        {"queries": [query], "pools": [["chain"]], "truth": [truth]}))
    return ["eval-sim", "--embeddings", embs, "--eval-spec", path], \
        embs if case == "embeddings_of_two_lengths" else path


def checkpoint_with(data, edit):
    """The checkpoint ``data`` with its JSON header changed by ``edit``."""
    hlen = int.from_bytes(data[:8], "little")
    header = json.loads(data[8:8 + hlen])
    edit(header)
    blob = json.dumps(header).encode() + b"\n"
    return len(blob).to_bytes(8, "little") + blob + data[8 + hlen:]


class TestExitCodes:
    @pytest.mark.parametrize("case", [
        "directory_listing", "non_utf8_listing", "directory_vocab", "vocab_of_another_size",
        "labels_row_without_labels", "triplet_of_an_absent_function",
        "eval_spec_of_an_absent_embedding", "truth_index_outside_its_pool",
        "embeddings_of_two_lengths", "sample_without_a_function", "head_of_a_wrong_shape"])
    def test_bad_input_exits_2_naming_the_file(self, trained, tmp_path, capsys, case):
        argv, path = bad_input(case, tmp_path, trained)
        assert main(argv) == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        lambda data: b"garbage",
        lambda data: data[:-4],
        lambda data: checkpoint_with(data, lambda h: h["config"].update(bogus=1)),
        lambda data: checkpoint_with(data, lambda h: h.update(format_version=2)),
        lambda data: checkpoint_with(data, lambda h: h["tensors"][0].update(name="renamed")),
    ], ids=["garbage", "truncated_tensors", "unknown_config_key", "wrong_version",
            "renamed_tensor"])
    def test_corrupt_checkpoint_exits_2_naming_the_file(self, trained, tmp_path, capsys,
                                                        corrupt):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(corrupt((trained["run"] / "model.ckpt").read_bytes()))
        listing = write(tmp_path / "chain.asm", POINTER_CHAIN)
        assert main(["embed", listing, "--checkpoint", str(ckpt), "--vocab",
                     str(trained["run"] / "vocab.tsv"), "--out", str(tmp_path / "e")]) == 2
        assert str(ckpt) in capsys.readouterr().err

    def test_checkpoint_of_an_invalid_shape_is_a_config_error(self, trained, tmp_path):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(checkpoint_with((trained["run"] / "model.ckpt").read_bytes(),
                                         lambda h: h["config"].update(heads=3)))
        listing = write(tmp_path / "chain.asm", POINTER_CHAIN)
        assert main(["embed", listing, "--checkpoint", str(ckpt), "--vocab",
                     str(trained["run"] / "vocab.tsv"), "--out", str(tmp_path / "e")]) == 4

    def test_bad_cutoffs_exit_2(self, tmp_path):
        # argparse rejects them before any file is read
        for cutoffs in ("1,x", "0", "-1", "1,0"):
            with pytest.raises(SystemExit) as exit_:
                main(["eval-sim", "--embeddings", str(tmp_path / "e.jsonl"),
                      "--eval-spec", str(tmp_path / "s.json"), "--k", cutoffs])
            assert exit_.value.code == 2, cutoffs

    def test_synth_counts_below_1_exit_2(self, tmp_path):
        for flag, value in (("--functions", "0"), ("--functions", "-3"),
                            ("--pool-size", "0"), ("--functions", "x")):
            with pytest.raises(SystemExit) as exit_:
                main(["synth", "--out", str(tmp_path / "s"), flag, value])
            assert exit_.value.code == 2, (flag, value)
        assert not (tmp_path / "s").exists()

    def test_a_bug_is_not_an_input_error(self, tmp_path, monkeypatch, chain_listing):
        from depcoder import corpus

        def broken(*args, **kwargs):
            raise ValueError("a broken invariant")
        monkeypatch.setattr(corpus, "tokenize", broken)
        with pytest.raises(ValueError, match="broken invariant"):
            main(["pipeline", chain_listing, "--out", str(tmp_path / "o")])

    def test_a_parser_bug_is_not_an_input_error(self, tmp_path, monkeypatch, chain_listing):
        from depcoder import cli

        def broken(*args, **kwargs):
            raise ValueError("a broken invariant")
        monkeypatch.setattr(cli, "parse_listing", broken)
        with pytest.raises(ValueError, match="broken invariant"):
            main(["pipeline", chain_listing, "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("command", ["pipeline", "pretrain"])
    def test_a_fault_of_the_whole_listing_names_the_file(self, tmp_path, capsys, command):
        if command == "pipeline":
            listing = write(tmp_path / "bad.asm", ".func f\nmov rax, ???\n")
            argv, detail = ["pipeline", listing, "--out", str(tmp_path / "o")], "line 2: unknown"
        else:
            listing = write(tmp_path / "empty.asm", "")
            argv, detail = ["pretrain", "--corpus", listing, "--out", str(tmp_path / "o")], \
                "empty corpus"
        assert main(argv) == 2
        assert f"input error: {listing}: {detail}" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["embed_into_a_missing_directory", "pipeline_into_a_file",
                                      "cache_dir_that_is_a_file", "pretrain_under_a_file"])
    def test_an_unwritable_output_is_a_config_error_before_any_work(self, trained, tmp_path,
                                                                   capsys, case):
        listing = write(tmp_path / "chain.asm", POINTER_CHAIN)
        a_file = write(tmp_path / "a_file", "")
        if case == "embed_into_a_missing_directory":
            # a checkpoint that does not exist: the output is checked before it is read
            out = str(tmp_path / "missing" / "e.jsonl")
            argv = ["embed", listing, "--checkpoint", str(tmp_path / "none.ckpt"), "--out", out]
        elif case == "pipeline_into_a_file":
            out = a_file
            argv = ["pipeline", listing, "--out", out]
        elif case == "cache_dir_that_is_a_file":
            out = a_file
            argv = ["pipeline", listing, "--out", str(tmp_path / "o"), "--cache-dir", out]
        else:
            out = os.path.join(a_file, "run")
            argv = ["pretrain", "--config", trained["cfg"], "--out", out]
        kind = "file" if argv[0] == "embed" else "directory"
        assert main(argv) == 4
        assert f"config error: cannot write the output {kind} {out}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["a_file", "chain.asm"]


class TestGradcheckCommand:
    def test_passes(self, capsys):
        assert main(["gradcheck", "--samples", "40"]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["passed"] is True
        assert result["max_rel_err"] < 1e-4


class TestFlagsChannel:
    def test_flags_dep_adds_cmp_to_jcc_edge(self, tmp_path):
        listing = write(tmp_path / "br.asm",
                        ".func g\ncmp rax, rbx\njne .l\nmov rcx, 1\n.l:\nret\n")
        plain = tmp_path / "plain"
        flagged = tmp_path / "flagged"
        assert main(["pipeline", listing, "--out", str(plain)]) == 0
        assert main(["pipeline", listing, "--out", str(flagged), "--flags-dep"]) == 0
        with open(plain / "g.deps.json") as fh:
            without = json.load(fh)["edges"]
        with open(flagged / "g.deps.json") as fh:
            with_flags = json.load(fh)["edges"]
        assert [1, 0, "data"] not in without
        assert [1, 0, "data"] in with_flags


class TestTypeOverfit:
    def test_token_accuracy_after_overfitting(self, tmp_path, capsys):
        # 50 labelled functions, 300 steps of full fine-tuning from a random
        # init: the deterministic surface -> label mapping must be memorized
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--functions", "50",
                     "--seed", "21", "--no-variants"]) == 0
        cfg = {"layers": 1, "hidden": 32, "heads": 2, "ffn": 64,
               "steps": 1, "batch_size": 8, "warmup": 0, "lr": 1e-3, "seed": 21,
               "corpus": str(data / "corpus.asm"), "out_dir": str(tmp_path / "pre")}
        cfg_path = write(tmp_path / "cfg.json", json.dumps(cfg))
        assert main(["pretrain", "--config", cfg_path]) == 0
        out = tmp_path / "typed.ckpt"
        assert main(["train-type", str(data / "corpus.asm"),
                     "--checkpoint", str(tmp_path / "pre" / "model.ckpt"),
                     "--labels", str(data / "typelabels.jsonl"),
                     "--out", str(out), "--steps", "300",
                     "--config", cfg_path]) == 0
        capsys.readouterr()

        import numpy as np
        from depcoder.config import RunConfig
        from depcoder.corpus import Corpus
        from depcoder.downstream import DEFAULT_TYPE_LABELS, NO_ACCESS, type_logits
        from depcoder.encoder import EncoderState, encode
        from depcoder.frontend import Vocabulary

        state = EncoderState.load(out)
        vocab = Vocabulary.load(tmp_path / "pre" / "vocab.tsv")
        corpus = Corpus.from_text((data / "corpus.asm").read_text(), RunConfig(), vocab)
        label_of = {n: i for i, n in enumerate(list(DEFAULT_TYPE_LABELS) + [NO_ACCESS])}
        correct = total = 0
        with open(data / "typelabels.jsonl") as fh:
            rows = [json.loads(l) for l in fh if l.strip()]
        for row in rows:
            art = corpus.by_name[row["function"]]
            trace = encode(art.seq.tokens, art.bundle, state, training=False)
            logits = type_logits(trace, state)
            for pos, label in row["labels"]:
                if pos < len(art.seq):
                    correct += int(int(np.argmax(logits[pos])) == label_of[label])
                    total += 1
        accuracy = correct / total
        assert accuracy >= 0.95, f"train token accuracy {accuracy:.3f}"

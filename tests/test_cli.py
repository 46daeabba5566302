import hashlib
import json
import os

import pytest

from depcoder.cli import _THREAD_VARS, main

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
        # poison the cache entry: wrong artifacts under a stale hash
        entry_path = cache / "chain.json"
        with open(entry_path) as fh:
            entry = json.load(fh)
        entry["sha"] = "0" * 64
        entry["artifacts"]["deps"]["edges"] = []
        write(entry_path, json.dumps(entry))
        main(["pipeline", chain_listing, "--out", str(out), "--cache-dir", str(cache)])
        assert sha(out / "chain.deps.json") == good

    def test_poisoned_cache_with_matching_hash_is_reused(self, tmp_path, chain_listing):
        # hash match means reuse: this is the cache-hit path
        out = tmp_path / "out"
        cache = tmp_path / "cache"
        main(["pipeline", chain_listing, "--out", str(out), "--cache-dir", str(cache)])
        with open(cache / "chain.json") as fh:
            entry = json.load(fh)
        entry["artifacts"]["deps"]["edges"] = [[3, 0, "data"]]
        write(cache / "chain.json", json.dumps(entry))
        main(["pipeline", chain_listing, "--out", str(out), "--cache-dir", str(cache)])
        with open(out / "chain.deps.json") as fh:
            assert json.load(fh)["edges"] == [[3, 0, "data"]]

    @pytest.mark.parametrize("corrupt", [lambda text: text[:20], lambda text: "[]"],
                             ids=["truncated", "not-an-object"])
    def test_corrupt_cache_entry_is_recomputed(self, tmp_path, chain_listing, corrupt):
        fresh, out, cache = (str(tmp_path / d) for d in ("fresh", "out", "cache"))
        assert main(["pipeline", chain_listing, "--out", fresh]) == 0
        assert main(["pipeline", chain_listing, "--out", out, "--cache-dir", cache]) == 0
        entry_path = os.path.join(cache, "chain.json")
        with open(entry_path, encoding="utf-8") as fh:
            good_entry = fh.read()
        write(entry_path, corrupt(good_entry))
        assert main(["pipeline", chain_listing, "--out", out, "--cache-dir", cache]) == 0
        assert {f: sha(os.path.join(out, f)) for f in os.listdir(out)} == \
            {f: sha(os.path.join(fresh, f)) for f in os.listdir(fresh)}
        assert sha(entry_path) == hashlib.sha256(good_entry.encode()).hexdigest()

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

    def test_build_mask_emits_sparse_files(self, tmp_path, chain_listing):
        out = tmp_path / "masks"
        assert main(["build-mask", chain_listing, "--out", str(out)]) == 0
        with open(out / "chain.mask.json") as fh:
            sp = json.load(fh)
        assert set(sp) == {"n", "global", "local", "dependence", "r"}
        assert sp["r"]  # the example has connected instructions


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", '{"not_a_key": 1}')
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 4

    def test_invalid_value_rejected(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", '{"hidden": 10, "heads": 4}')
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 4

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
        assert float(first[3]) == pytest.approx(float(first[1]) + float(first[2]),
                                                abs=1e-6)

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
        corpus = Corpus.from_file(data / "corpus.asm", RunConfig(), vocab)
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

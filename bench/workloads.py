"""The three workloads: inputs, one round of the measured command, checks.

A run repeats rounds until its time is up.  A round is one whole command
over the workload's fixed inputs, so every round attempts the same
operations:

* ``pretrain-smoke``: one ``depcoder pretrain`` run; an operation is one
  training step.
* ``embed-long``: one ``depcoder embed`` run; an operation is one function's
  forward pass.
* ``pipeline-long``: a cold pass of the ``pipeline --stage mask`` command into an
  empty cache, then a warm pass over the same listing; an operation is one
  function in one pass.

Every command runs through ``depcoder.cli.main``.  Set-up is the time from
the command's start to its first operation.  Operations are timed by
swapping ``pretrain.train_step``, ``encoder.encode`` and
``corpus.cached_artifact_dict`` for timing wrappers.  ``pipeline`` exits at
the first function it cannot analyse, so each function above the closure's
node cap runs as a ``pipeline`` command of its own and counts as one failed
operation.

A round's cheap checks (exit codes, digests against the first round) run
after every round; the full checks of the first round's outputs run once,
after the run has read its peak memory (``check_outputs``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import checks
import gen

MAX_LEN = 512


@dataclass
class Round:
    setups: list[float]
    #: (seconds, tokens) per successful measured operation
    ops: list[tuple[float, int]]
    #: seconds from the first operation's start to the last one's end
    op_time: float
    attempted: int
    failed: int
    wall: float
    traced: bool
    errors: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


@contextlib.contextmanager
def timed_calls(module, attr: str, size, record: list, tracer=None):
    """Swap ``module.attr`` for a wrapper appending (start, end, size(args, result)).
    Entered after the tracer is installed, it wraps the traced function, so
    the operation id is set before the operation's own span begins."""
    orig = getattr(module, attr)

    def timed(*args, **kwargs):
        if tracer is not None:
            tracer.op += 1
        t0 = perf_counter()
        out = orig(*args, **kwargs)
        record.append((t0, perf_counter(), size(args, out)))
        return out

    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, orig)


@contextlib.contextmanager
def traced(tracer):
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        with tracer.span("cli"):
            yield
    finally:
        tracer.uninstall()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``depcoder.cli.main`` with its console output captured."""
    from depcoder import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def dir_digest(path) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def makeup(functions: list[gen.GenFunction]) -> dict:
    instrs = [f.n_instructions for f in functions]
    kept = [gen.kept_tokens(f, MAX_LEN) for f in functions]
    tokens = [len(s) for s, _ in kept]
    truncated = sum(f.n_instructions - (max(io_) + 1) for f, (_, io_) in zip(functions, kept))
    return {
        "functions": len(functions),
        "instructions": {"min": min(instrs), "median": float(np.median(instrs)),
                         "max": max(instrs), "mean": float(np.mean(instrs))},
        "tokens": {"min": min(tokens), "median": float(np.median(tokens)),
                   "max": max(tokens), "mean": float(np.mean(tokens))},
        "truncated_functions": sum(1 for f, (_, io_) in zip(functions, kept)
                                   if max(io_) + 1 < f.n_instructions),
        "truncated_instruction_share": truncated / sum(instrs),
    }


def import_program() -> None:
    """Load every program module up front, so that no round pays for it."""
    import depcoder.cli  # noqa: F401
    import depcoder.corpus  # noqa: F401
    import depcoder.encoder  # noqa: F401
    import depcoder.pretrain  # noqa: F401


class Workload:
    name = ""

    def prepare(self, seed: int, workdir: str) -> None:
        raise NotImplementedError

    def run_round(self, rdir: str, tracer) -> Round:
        raise NotImplementedError

    def check_round(self, rnd: Round, rdir: str, first: bool) -> list[str]:
        """Cheap checks, after every round."""
        raise NotImplementedError

    def check_outputs(self, rnd: Round, rdir: str) -> list[str]:
        """Full checks of the first round's outputs, once the run is over."""
        raise NotImplementedError

    def named_metrics(self, rounds: list[Round]) -> tuple[dict, dict]:
        """(op_stats, {workload-specific name: (value, unit)})"""
        raise NotImplementedError

    @staticmethod
    def op_stats(rounds: list[Round], fns_per_op: int = 1) -> dict:
        secs = [s for r in rounds for s, _ in r.ops]
        tokens = sum(t for r in rounds for _, t in r.ops)
        op_time = sum(r.op_time for r in rounds)
        return {
            "op_ms": 1e3 * float(np.median(secs)),
            "op_ms_p90": 1e3 * float(np.percentile(secs, 90)),
            "fns_per_s": fns_per_op * len(secs) / op_time,
            "tokens_per_s": tokens / op_time,
            "samples": len(secs),
        }


# ---------------------------------------------------------------------------

class PretrainSmoke(Workload):
    """The smoke configuration: ~200 functions of ~66 tokens, L=2, d_h=64,
    H=4, ffn 256, batch 8, dropout 0.1.  A round is a short schedule (warmup
    then linear decay) at a learning rate high enough for the loss to fall
    within it."""

    name = "pretrain-smoke"
    FUNCTIONS, MIN_INSTR, MAX_INSTR = 200, 6, 18
    STEPS, WARMUP, LR, BATCH = 32, 4, 1e-3, 8

    def prepare(self, seed, workdir):
        self.seed = seed
        self.functions = gen.make_listing(seed, "train", self.FUNCTIONS,
                                          self.MIN_INSTR, self.MAX_INSTR)
        self.listing = os.path.join(workdir, "corpus.asm")
        write_text(self.listing, gen.listing_text(self.functions))
        self.makeup = makeup(self.functions)

    def run_round(self, rdir, tracer):
        from depcoder import pretrain

        cfg_path = os.path.join(rdir, "config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({"layers": 2, "hidden": 64, "heads": 4, "ffn": 256,
                       "dropout": 0.1, "batch_size": self.BATCH, "steps": self.STEPS,
                       "warmup": self.WARMUP, "lr": self.LR, "seed": self.seed,
                       "threads": 1, "corpus": self.listing,
                       "out_dir": os.path.join(rdir, "run")}, fh)
        steps: list = []
        size = lambda args, out: sum(len(item.seq) for item in args[0])  # noqa: E731
        with traced(tracer), timed_calls(pretrain, "train_step", size, steps, tracer):
            t0 = perf_counter()
            rc, log = run_cli(["pretrain", "--config", cfg_path])
            t1 = perf_counter()
        rnd = Round(setups=[steps[0][0] - t0] if steps else [], attempted=self.STEPS,
                    ops=[(b - a, n) for a, b, n in steps], failed=self.STEPS - len(steps),
                    op_time=(steps[-1][1] - steps[0][0]) if steps else 0.0,
                    wall=t1 - t0, traced=tracer is not None)
        if rc != 0:
            rnd.errors.append(f"pretrain exited {rc}: {log.strip()[-300:]}")
        return rnd

    def check_round(self, rnd, rdir, first):
        if rnd.errors:
            return rnd.errors
        run = os.path.join(rdir, "run")
        errors = []
        with open(os.path.join(run, "vocab.tsv"), encoding="utf-8") as fh:
            vocab_size = sum(1 for line in fh if line.strip())
        with open(os.path.join(run, "metrics.csv"), encoding="utf-8") as fh:
            rows = [line.strip().split(",") for line in fh if line.strip()]
        if rows[0] != ["step", "mlm_loss", "mdm_loss", "total", "lr"]:
            errors.append(f"metrics.csv header {rows[0]}")
        rows = [[float(x) for x in row] for row in rows[1:]]
        if len(rows) != self.STEPS:
            errors.append(f"{len(rows)} metric rows for {self.STEPS} steps")
        if not all(math.isfinite(x) for row in rows for x in row[1:4]):
            errors.append("non-finite loss")
        if abs(rows[0][1] - math.log(vocab_size)) > checks.FIRST_MLM_TOL:
            errors.append(f"first MLM loss {rows[0][1]:.4f} vs ln({vocab_size}) = "
                          f"{math.log(vocab_size):.4f}")
        for step, *_, lr in rows:
            want = checks.lr_schedule(int(step), self.LR, self.WARMUP, self.STEPS)
            if abs(lr - want) > checks.LR_ATOL:
                errors.append(f"lr {lr} at step {int(step)}, closed form {want}")
                break
        tenth = max(1, self.STEPS // 10)
        first_loss = float(np.mean([r[3] for r in rows[:tenth]]))
        last_loss = float(np.mean([r[3] for r in rows[-tenth:]]))
        if not last_loss < first_loss:
            errors.append(f"loss did not fall: {first_loss:.4f} -> {last_loss:.4f}")
        rnd.extra["loss_first"], rnd.extra["loss_final"] = first_loss, last_loss
        rnd.extra["vocab_size"] = vocab_size
        return errors

    def check_outputs(self, rnd, rdir):
        from depcoder.encoder import EncoderState

        state = EncoderState.load(os.path.join(rdir, "run", "model.ckpt"))
        bad = [k for k, v in state.params.items() if not np.all(np.isfinite(v))]
        return [f"non-finite parameters after reload: {bad[:3]}"] if bad else []

    def named_metrics(self, rounds):
        s = self.op_stats(rounds, fns_per_op=self.BATCH)
        named = {
            "train_step_ms": (s["op_ms"], "ms"),
            "train_step_ms_p90": (s["op_ms_p90"], "ms"),
            "train_tokens_per_s": (s["tokens_per_s"], "tokens/s"),
            "train_loss_final": (float(np.median([r.extra["loss_final"] for r in rounds])),
                                 "nats"),
        }
        return s, named


# ---------------------------------------------------------------------------

class EmbedLong(Workload):
    """Forward-only encoding of functions of 40-120 instructions (~220-660
    tokens before truncation at max_len 512) with a seeded checkpoint."""

    name = "embed-long"
    FUNCTIONS, MIN_INSTR, MAX_INSTR = 32, 40, 120
    REFERENCE_SAMPLE = 3

    def prepare(self, seed, workdir):
        from depcoder.encoder import EncoderConfig, EncoderState

        self.seed = seed
        self.functions = gen.make_listing(seed, "embed", self.FUNCTIONS,
                                          self.MIN_INSTR, self.MAX_INSTR)
        self.listing = os.path.join(workdir, "embed.asm")
        write_text(self.listing, gen.listing_text(self.functions))
        model_dir = os.path.join(workdir, "model")
        os.makedirs(model_dir)
        self.vocab = gen.vocabulary_tokens()
        write_text(os.path.join(model_dir, "vocab.tsv"),
                   "".join(f"{tok}\t{i}\n" for i, tok in enumerate(self.vocab)))
        # weights well away from the near-uniform initialization, so the
        # reference check sees the mask, the distance bias and the softmax
        config = EncoderConfig(layers=2, heads=4, hidden=64, ffn=256,
                               vocab_size=len(self.vocab), max_len=MAX_LEN, r_max=8)
        state = EncoderState.init(config, seed)
        rng = np.random.default_rng(seed)
        for name, p in state.params.items():
            short = name.rsplit(".", 1)[-1]
            if short.startswith("ln") and short.endswith("_g"):
                new = 1.0 + 0.1 * rng.standard_normal(p.shape)
            elif name in ("tok_emb", "pos_emb", "beta"):
                new = rng.standard_normal(p.shape)
            elif p.ndim == 1:
                new = 0.1 * rng.standard_normal(p.shape)
            else:
                new = rng.standard_normal(p.shape) / math.sqrt(p.shape[-2])
            state.params[name] = new.astype(p.dtype)
        self.checkpoint = os.path.join(model_dir, "model.ckpt")
        state.save(self.checkpoint)
        self.makeup = makeup(self.functions)

    def run_round(self, rdir, tracer):
        from depcoder import encoder

        out = os.path.join(rdir, "emb.jsonl")
        calls: list = []
        with traced(tracer), \
                timed_calls(encoder, "encode", lambda args, out: len(args[0]), calls, tracer):
            t0 = perf_counter()
            rc, log = run_cli(["embed", self.listing, "--checkpoint", self.checkpoint,
                               "--out", out])
            t1 = perf_counter()
        rnd = Round(setups=[calls[0][0] - t0] if calls else [],
                    ops=[(b - a, n) for a, b, n in calls], attempted=len(self.functions),
                    failed=len(self.functions) - len(calls),
                    op_time=(calls[-1][1] - calls[0][0]) if calls else 0.0,
                    wall=t1 - t0, traced=tracer is not None)
        if rc != 0:
            rnd.errors.append(f"embed exited {rc}: {log.strip()[-300:]}")
        return rnd

    def check_round(self, rnd, rdir, first):
        if rnd.errors:
            return rnd.errors
        digest = dir_digest(rdir)
        if first:
            self.digest = digest
        return [] if digest == self.digest else ["embeddings differ from the first round"]

    def check_outputs(self, rnd, rdir):
        with open(os.path.join(rdir, "emb.jsonl"), encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
        errors = []
        names = [f.name for f in self.functions]
        if [r["function"] for r in rows] != names:
            errors.append("embedding rows do not match the listing's functions")
            return errors
        for r in rows:
            e = np.asarray(r["embedding"])
            if e.shape != (64,) or not np.all(np.isfinite(e)):
                errors.append(f"{r['function']}: bad embedding")
        config, params = checks.read_checkpoint(self.checkpoint)
        ids_of = {tok: i for i, tok in enumerate(self.vocab)}
        sample = random.Random(f"reference:{self.seed}").sample(
            range(len(self.functions)), self.REFERENCE_SAMPLE)
        worst = 0.0
        for i in sample:
            fn = self.functions[i]
            surface, inst_of = gen.kept_tokens(fn, MAX_LEN)
            dist = checks.bfs_distances(fn.n_instructions, self._dep_pairs(fn))
            enabled, r = checks.dense_masks(surface, inst_of, dist)
            ref = checks.reference_embedding(config, params,
                                             [ids_of.get(t, 1) for t in surface], enabled, r)
            worst = max(worst, float(np.max(np.abs(np.asarray(rows[i]["embedding"]) - ref))))
        rnd.extra["reference_max_abs_err"] = worst
        if worst > checks.EMBED_ATOL:
            errors.append(f"embedding differs from the reference by {worst:.2e} "
                          f"(> {checks.EMBED_ATOL})")
        return errors

    @staticmethod
    def _dep_pairs(fn):
        """Dependence edges from the program's analysis: the reference checks
        the encoder, while the analysis is checked on pipeline-long."""
        from depcoder.dependence import dependence_graph
        from depcoder.frontend import parse_listing

        return dependence_graph(parse_listing(fn.text())[0]).directed_pairs()

    def named_metrics(self, rounds):
        s = self.op_stats(rounds)
        named = {
            "embed_fns_per_s": (s["fns_per_s"], "functions/s"),
            "embed_tokens_per_s": (s["tokens_per_s"], "tokens/s"),
            "embed_fn_ms": (s["op_ms"], "ms"),
            "embed_fn_ms_p90": (s["op_ms_p90"], "ms"),
        }
        return s, named


# ---------------------------------------------------------------------------

class PipelineLong(Workload):
    """Dependence analysis, closure and mask build over functions of ~30-510
    instructions (log-uniform sizes), plus a fixed set of functions above the
    closure's 512-node cap.  Those fail in both passes, whatever the seed."""

    name = "pipeline-long"
    FUNCTIONS, MIN_INSTR, MAX_INSTR = 24, 30, 510
    OVER_CAP, OVER_MIN, OVER_MAX = 2, 520, 700

    def prepare(self, seed, workdir):
        self.seed = seed
        rng = random.Random(f"pipeline:{seed}")
        sizes = gen.stratified_sizes(rng, self.FUNCTIONS, self.MIN_INSTR, self.MAX_INSTR,
                                     log=True)
        self.functions = [gen.make_function(rng, f"fn_{i:03d}", n)
                          for i, n in enumerate(sizes)]
        self.listing = os.path.join(workdir, "pipeline.asm")
        write_text(self.listing, gen.listing_text(self.functions))
        # one listing each: ``pipeline`` exits 2 for the whole listing
        self.over_cap = {}
        for fn in gen.make_listing(0, "overcap", self.OVER_CAP, self.OVER_MIN, self.OVER_MAX):
            self.over_cap[fn.name] = os.path.join(workdir, f"{fn.name}.asm")
            write_text(self.over_cap[fn.name], gen.listing_text([fn]))
        self.makeup = makeup(self.functions)
        self.makeup["over_cap_functions"] = self.OVER_CAP

    def _pass(self, rdir: str, kind: str, tracer) -> dict:
        """One ``pipeline --stage mask`` command over the listing, then one
        per over-cap function, all into the round's cache."""
        from depcoder import corpus

        cache = os.path.join(rdir, "cache")
        calls: list = []
        over_cap: dict = {}
        size = lambda args, out: len(out["tokens"]["ids"])  # noqa: E731
        with traced(tracer):
            with timed_calls(corpus, "cached_artifact_dict", size, calls, tracer):
                t0 = perf_counter()
                rc, log = run_cli(["pipeline", self.listing, "--out", os.path.join(rdir, kind),
                                   "--stage", "mask", "--cache-dir", cache])
                t1 = perf_counter()
            for name, listing in self.over_cap.items():
                if tracer is not None:
                    tracer.op += 1
                over_cap[name] = run_cli(["pipeline", listing, "--stage", "mask",
                                          "--out", os.path.join(rdir, f"{kind}-{name}"),
                                          "--cache-dir", cache])
            t2 = perf_counter()
        # an operation runs from one function's start to the next one's
        starts = [a for a, _, _ in calls] + [t1]
        ops = [(starts[i + 1] - starts[i], n) for i, (_, _, n) in enumerate(calls)]
        return {"rc": rc, "log": log, "setup": (calls[0][0] if calls else t1) - t0,
                "ops": ops, "op_time": t1 - starts[0], "over_cap": over_cap, "wall": t2 - t0}

    def run_round(self, rdir, tracer):
        cold = self._pass(rdir, "cold", tracer)
        warm = self._pass(rdir, "warm", tracer)
        attempted = len(self.functions) + self.OVER_CAP
        rnd = Round(setups=[cold["setup"], warm["setup"]], ops=cold["ops"],
                    op_time=cold["op_time"], attempted=2 * attempted,
                    failed=2 * attempted - len(cold["ops"]) - len(warm["ops"]),
                    wall=cold["wall"] + warm["wall"], traced=tracer is not None,
                    extra={"warm_ops": warm["ops"], "warm_time": warm["op_time"]})
        for kind, p in (("cold", cold), ("warm", warm)):
            if p["rc"] != 0:
                rnd.errors.append(f"{kind} pipeline exited {p['rc']}: {p['log'].strip()[-300:]}")
            for name, (rc, log) in p["over_cap"].items():
                if rc != 2 or "closure cap" not in log:
                    rnd.errors.append(f"{kind} pipeline of over-cap {name} exited {rc}, "
                                      f"expected 2 for the closure cap: {log.strip()[-300:]}")
        return rnd

    def check_round(self, rnd, rdir, first):
        if rnd.errors:
            return rnd.errors
        errors = []
        digest = dir_digest(os.path.join(rdir, "cold"))
        if digest != dir_digest(os.path.join(rdir, "warm")):
            errors.append("warm-pass output differs from the cold pass")
        if first:
            self.digest = digest
        if digest != self.digest:
            errors.append("cold-pass output differs from the first round")
        return errors

    def check_outputs(self, rnd, rdir):
        cold = os.path.join(rdir, "cold")
        with open(os.path.join(cold, "vocab.tsv"), encoding="utf-8") as fh:
            vocab = {}
            for line in fh:
                tok, _, idx = line.rstrip("\n").rpartition("\t")
                vocab[tok] = int(idx)
        errors, densities = [], []
        for fn in self.functions:
            errors += self._check_function(fn, cold, vocab, densities)
            if len(errors) > 10:
                break
        self.makeup["mask_density"] = float(np.mean(densities)) if densities else None
        return errors

    @staticmethod
    def _check_function(fn, out, vocab, densities) -> list[str]:
        def load(kind):
            with open(os.path.join(out, f"{fn.name}.{kind}.json"), encoding="utf-8") as fh:
                return json.load(fh)

        tokens, deps, conn, mask = (load(k) for k in ("tokens", "deps", "conn", "mask"))
        surface, inst_of = gen.kept_tokens(fn, MAX_LEN)
        errors = []
        if tokens["surface"] != surface or tokens["inst_of"] != inst_of:
            errors.append(f"{fn.name}: tokens differ from the listing's tokenization")
        if tokens["ids"] != [vocab.get(t, 1) for t in tokens["surface"]]:
            errors.append(f"{fn.name}: token ids disagree with vocab.tsv")
        if deps["nodes"] != fn.n_instructions:
            errors.append(f"{fn.name}: {deps['nodes']} dependence nodes")
        if any(v >= u for u, v, _ in deps["edges"]):
            errors.append(f"{fn.name}: a dependence edge points forward")
        dist = checks.bfs_distances(fn.n_instructions, [(u, v) for u, v, _ in deps["edges"]])
        got = {(u, v): d for u, v, d in conn["edges"]}
        if got != dist or conn["nodes"] != fn.n_instructions:
            errors.append(f"{fn.name}: connectivity differs from BFS over the edges")
        want = checks.expected_masks(surface, inst_of, dist)
        for kind in ("n", "global", "local", "dependence", "r"):
            if mask[kind] != want[kind]:
                errors.append(f"{fn.name}: mask {kind!r} differs from the definition")
        densities.append(checks.mask_density(want))
        return errors

    def named_metrics(self, rounds):
        s = self.op_stats(rounds)
        warm_n = sum(len(r.extra["warm_ops"]) for r in rounds)
        warm_t = sum(r.extra["warm_time"] for r in rounds)
        named = {
            "pipeline_cold_fns_per_s": (s["fns_per_s"], "functions/s"),
            "pipeline_warm_fns_per_s": (warm_n / warm_t, "functions/s"),
            "pipeline_fn_ms": (s["op_ms"], "ms"),
            "pipeline_fn_ms_p90": (s["op_ms_p90"], "ms"),
        }
        return s, named


WORKLOADS = {w.name: w for w in (PretrainSmoke, EmbedLong, PipelineLong)}


def clean(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)

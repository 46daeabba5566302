"""Command-line surface tying the pipeline together.

Exit codes: 0 success; 2 an ``InputError``, a fault in a file the user gave;
3 a ``NumericsError``, numeric divergence, or a failed ``gradcheck``; 4 a
``ConfigError``, an output path that cannot be written among them.  Any
other exception is a bug: a traceback and exit 1.

numpy is imported inside the commands, after ``main`` has pinned the BLAS
thread pools from the ``threads`` config key or ``--threads``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import replace

from .config import RunConfig
from .corpus import SECTIONS, STAGES, Corpus, dumps, write_file
from .errors import ConfigError, InputError, ListingError, NumericsError
from .frontend import Vocabulary, build_vocab, parse_listing

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration file")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--threads", type=int, help="BLAS thread count (1 = deterministic)")
    common.add_argument("--flags-dep", action="store_true",
                        help="model the FLAGS register as a dependence channel")
    # the commands that encode a listing with a trained checkpoint
    model = argparse.ArgumentParser(add_help=False, parents=[common])
    model.add_argument("listing")
    model.add_argument("--checkpoint", required=True)
    model.add_argument("--vocab", help="default: vocab.tsv beside the checkpoint")

    parser = argparse.ArgumentParser(prog="depcoder",
                                     description="dependence-regularized assembly encoder")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, parent, help):
        p = sub.add_parser(name, parents=[parent], help=help)
        p.set_defaults(run=run)
        return p

    p = command("pipeline", cmd_pipeline, common,
                "tokenize, analyze and build masks for a listing")
    p.add_argument("listing")
    p.add_argument("--out", required=True)
    p.add_argument("--stage", choices=STAGES, default=STAGES[-1])
    p.add_argument("--cache-dir")

    p = command("synth", cmd_synth, common, "generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--functions", type=_at_least_1, default=200)
    p.add_argument("--pool-size", type=_at_least_1, default=10)
    p.add_argument("--no-variants", action="store_true")

    p = command("pretrain", cmd_pretrain, common, "MLM + MDM pre-training")
    p.add_argument("--corpus", help="listing path (overrides the config)")
    p.add_argument("--out", help="output directory (overrides the config)")

    p = command("embed", cmd_embed, model, "emit function embeddings")
    p.add_argument("--out", required=True)

    p = command("eval-sim", cmd_eval_sim, common, "recall@k / MRR over a pool spec")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--eval-spec", required=True)
    p.add_argument("--k", default="1,5,10", type=_cutoffs, help="comma-separated cutoffs")

    p = command("finetune-sim", cmd_finetune_sim, model, "triplet fine-tuning")
    p.add_argument("--triplets", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=50)

    p = command("train-type", cmd_train_type, model, "train the type-inference head")
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=300)

    p = command("eval-type", cmd_eval_type, model, "type-inference P/R/F1")
    p.add_argument("--labels", required=True)

    p = command("train-mlc", cmd_train_mlc, model, "train attention pooling + multi-label head")
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=200)

    p = command("eval-mlc", cmd_eval_mlc, model, "LRAP / LRL / ROC-AUC")
    p.add_argument("--samples", required=True)
    p.add_argument("--head", required=True)

    p = command("gradcheck", cmd_gradcheck, common, "finite-difference check of the reverse pass")
    p.add_argument("--samples", type=int, default=220)

    return parser


def _at_least_1(text: str) -> int:
    """A count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is below 1")
    return value


def _cutoffs(text: str) -> list[int]:
    """The ``--k`` cutoffs: comma-separated integers, each at least 1."""
    ks = [int(x) for x in text.split(",")]
    if min(ks) < 1:
        raise argparse.ArgumentTypeError(f"a cutoff below 1 in {text!r}")
    return ks


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.threads is not None:
            cfg.threads = args.threads
        if args.flags_dep:
            cfg.flags_dep = True
        cfg.validate()
        # BLAS sizes its thread pools from these when numpy loads
        if cfg.threads is not None:
            for var in _THREAD_VARS:
                os.environ[var] = str(cfg.threads)
        _check_outputs(args, cfg)
        return args.run(args, cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 4
    except NumericsError as e:
        print(f"numeric divergence: {e}", file=sys.stderr)
        return 3
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# helpers

@contextlib.contextmanager
def _reading(path):
    """Report a fault in the user's file ``path`` as an ``InputError`` naming it."""
    try:
        yield
    except (InputError, OSError, ValueError, KeyError, TypeError) as e:
        detail = e if isinstance(e, InputError) else f"{type(e).__name__}: {e}"
        raise InputError(f"{path}: {detail}") from e


@contextlib.contextmanager
def _listing(path):
    """Name the listing ``path`` in a fault of the listing as a whole.  A
    fault of one function names the function, and any other exception is a
    bug and passes as it is."""
    try:
        yield
    except ListingError as e:
        raise InputError(f"{path}: {e}") from e


def _check_output(path, directory: bool) -> None:
    """Raise ``ConfigError`` naming ``path`` unless the command can write it:
    an output directory is one or can be made, and an output file's
    directory exists."""
    full = os.path.abspath(path)
    if directory:
        while not os.path.exists(full):
            full = os.path.dirname(full)
        ok = os.path.isdir(full)
    else:
        ok = os.path.isdir(os.path.dirname(full)) and not os.path.isdir(full)
    if not ok:
        raise ConfigError(f"cannot write the output {'directory' if directory else 'file'} {path}")


def _check_outputs(args, cfg) -> None:
    """Check the command's output paths before it does any work."""
    out = getattr(args, "out", None)
    if args.command == "pretrain":
        out = out or cfg.out_dir
    if out:
        _check_output(out, directory=args.command in ("pipeline", "synth", "pretrain"))
    if getattr(args, "cache_dir", None):
        _check_output(args.cache_dir, directory=True)


def _read_text(path) -> str:
    with _reading(path), open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_text(path, text: str) -> None:
    write_file(path, text.encode("utf-8"))


def _write_json(path, payload) -> None:
    _write_text(path, dumps(payload) + "\n")


def _write_jsonl(path, rows) -> None:
    _write_text(path, "".join(dumps(row) + "\n" for row in rows))


def _read_jsonl(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _load(args, cfg):
    """The checkpoint, and the listing's corpus under its vocabulary and its
    ``max_len``.  The vocabulary is ``--vocab`` or ``vocab.tsv`` next to the
    checkpoint, and must be as large as the checkpoint's embedding table."""
    from .encoder import EncoderState

    with _reading(args.checkpoint):
        state = EncoderState.load(args.checkpoint)
    vocab_path = args.vocab
    if vocab_path is None:
        vocab_path = os.path.join(os.path.dirname(os.path.abspath(args.checkpoint)), "vocab.tsv")
        if not os.path.exists(vocab_path):
            raise InputError("no --vocab given and no vocab.tsv next to the checkpoint")
    with _reading(vocab_path):
        vocab = Vocabulary.load(vocab_path)
    if len(vocab) != state.config.vocab_size:
        raise InputError(f"{vocab_path}: {len(vocab)} tokens, but the checkpoint "
                         f"embeds {state.config.vocab_size}")
    with _listing(args.listing):
        return state, Corpus.from_text(_read_text(args.listing),
                                       replace(cfg, max_len=state.config.max_len), vocab)


def _save_model(state, vocab, path) -> None:
    """The write side of ``_load``: ``vocab.tsv`` beside the checkpoint ``path``, then ``path``."""
    vocab.save(os.path.join(os.path.dirname(os.path.abspath(path)), "vocab.tsv"))
    state.save(path)
    print(f"checkpoint written to {path}")


def _finetune_optimizer(cfg, steps):
    """AdamW for ``steps`` steps of fine-tuning, warmed up over at most a tenth of them."""
    from .pretrain import AdamW
    return AdamW(lr=cfg.lr, weight_decay=cfg.weight_decay, clip_norm=cfg.clip_norm,
                 warmup_steps=min(cfg.warmup, steps // 10), total_steps=steps)


def _embedding(state, art):
    from .encoder import encode
    return encode(art.seq.tokens, art.bundle, state, training=False).cls_embedding


# ---------------------------------------------------------------------------
# commands

def cmd_pipeline(args, cfg) -> int:
    from .corpus import cached_artifact_dict

    with _listing(args.listing):
        functions = parse_listing(_read_text(args.listing))
    os.makedirs(args.out, exist_ok=True)
    if not functions:
        print("warning: empty corpus, nothing to do", file=sys.stderr)
        return 0
    vocab = build_vocab(functions, min_freq=cfg.vocab_min_freq)
    vocab.save(os.path.join(args.out, "vocab.tsv"))
    sections = SECTIONS[:STAGES.index(args.stage) + 1]
    for fn in functions:
        art = cached_artifact_dict(fn, vocab, cfg, args.cache_dir, sections)
        for key in sections:
            _write_text(os.path.join(args.out, f"{fn.name}.{key}.json"), art["texts"][key] + "\n")
    return 0


def cmd_synth(args, cfg) -> int:
    from .synth import build_corpus

    corpus = build_corpus(args.functions, cfg.seed, pool_size=args.pool_size,
                          with_variants=not args.no_variants)
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "corpus.asm"), corpus.listing)
    _write_json(os.path.join(args.out, "eval.json"), corpus.eval_spec)
    _write_json(os.path.join(args.out, "pairs.json"), [list(p) for p in corpus.pairs])
    _write_jsonl(os.path.join(args.out, "triplets.jsonl"), corpus.triplets)
    _write_jsonl(os.path.join(args.out, "typelabels.jsonl"), corpus.type_labels)
    _write_jsonl(os.path.join(args.out, "mlc.jsonl"), corpus.mlc_samples)
    print(f"wrote {len(corpus.pairs) or args.functions} groups to {args.out}")
    return 0


def cmd_pretrain(args, cfg) -> int:
    import numpy as np

    from .encoder import EncoderState
    from .pretrain import AdamW, train_step

    corpus_path = args.corpus or cfg.corpus
    out_dir = args.out or cfg.out_dir
    if not corpus_path or not out_dir:
        raise InputError("pretrain needs a corpus and an output directory "
                         "(--corpus/--out or config keys)")
    with _listing(corpus_path):
        corpus = Corpus.from_text(_read_text(corpus_path), cfg)
    state = EncoderState.init(cfg.encoder_config(len(corpus.vocab)), cfg.seed)
    opt = AdamW(lr=cfg.lr, weight_decay=cfg.weight_decay, clip_norm=cfg.clip_norm,
                warmup_steps=cfg.warmup, total_steps=cfg.steps)
    rng = np.random.default_rng(cfg.seed)

    os.makedirs(out_dir, exist_ok=True)
    queue: list[int] = []
    lines = ["step,mlm_loss,mdm_loss,total,lr"]
    for _ in range(cfg.steps):
        while len(queue) < cfg.batch_size:
            queue.extend(int(i) for i in rng.permutation(len(corpus)))
        batch = [corpus.functions[queue.pop(0)] for _ in range(cfg.batch_size)]
        m = train_step(batch, state, opt, rng, mlm_rate=cfg.mlm_rate,
                       node_frac=cfg.mdm_node_frac)
        lines.append(f"{m.step},{m.mlm_loss:.6f},{m.mdm_loss:.6f},{m.total:.6f},{m.lr:.8f}")
        if m.step % 50 == 0 or m.step == cfg.steps:
            print(f"step {m.step}: mlm {m.mlm_loss:.4f} mdm {m.mdm_loss:.4f} "
                  f"total {m.total:.4f}")
    _write_text(os.path.join(out_dir, "metrics.csv"), "\n".join(lines) + "\n")
    _save_model(state, corpus.vocab, os.path.join(out_dir, "model.ckpt"))
    return 0


def cmd_embed(args, cfg) -> int:
    state, corpus = _load(args, cfg)
    rows = [{"function": art.name,
             "embedding": [float(x) for x in _embedding(state, art)]}
            for art in corpus.functions]
    _write_jsonl(args.out, rows)
    print(f"wrote {len(rows)} embeddings to {args.out}")
    return 0


def cmd_eval_sim(args, cfg) -> int:
    import numpy as np

    from .downstream import mrr, recall_at_k

    with _reading(args.embeddings):
        rows = _read_jsonl(args.embeddings)
        # one matrix, so that embeddings of two lengths are rejected here
        embs = dict(zip([row["function"] for row in rows],
                        np.array([row["embedding"] for row in rows], dtype=np.float64)))
    with _reading(args.eval_spec), open(args.eval_spec, encoding="utf-8") as fh:
        spec = json.load(fh)
        queries = [embs[q] for q in spec["queries"]]
        pools = [[embs[c] for c in pool] for pool in spec["pools"]]
        truth = spec["truth"]
        if any(t not in range(len(pool)) for pool, t in zip(pools, truth)):
            raise InputError("a truth index lies outside its pool")
    result = {"queries": len(queries), "mrr": mrr(queries, pools, truth)}
    for k in args.k:
        result[f"recall@{k}"] = recall_at_k(queries, pools, truth, k)
    print(json.dumps(result, sort_keys=True))
    return 0


def cmd_finetune_sim(args, cfg) -> int:
    import numpy as np

    from .downstream import triplet_loss_grads
    from .encoder import backward, encode

    state, corpus = _load(args, cfg)
    with _reading(args.triplets):
        triplets = [[corpus.by_name[t[k]] for k in ("anchor", "positive", "negative")]
                    for t in _read_jsonl(args.triplets)]
        if not triplets:
            raise InputError("no triplets")
    opt = _finetune_optimizer(cfg, args.steps)
    rng = np.random.default_rng(cfg.seed)
    for step in range(args.steps):
        grads = state.zero_grads()
        loss_sum = 0.0
        for _ in range(cfg.batch_size):
            arts = triplets[int(rng.integers(len(triplets)))]
            traces = [encode(a.seq.tokens, a.bundle, state, rng=rng, training=True)
                      for a in arts]
            loss, da, dp, dn = triplet_loss_grads(
                *(tr.cls_embedding for tr in traces), margin=cfg.triplet_margin)
            loss_sum += loss
            for tr, d in zip(traces, (da, dp, dn)):
                d_final = np.zeros_like(tr.final)
                d_final[0] = d / cfg.batch_size
                backward(tr, d_final, state, grads)
        opt.apply(state.params, grads)
        if (step + 1) % 10 == 0:
            print(f"step {step + 1}: triplet loss {loss_sum / cfg.batch_size:.4f}")
    _save_model(state, corpus.vocab, args.out)
    return 0


def _label_ids():
    from .downstream import DEFAULT_TYPE_LABELS, NO_ACCESS
    return {name: i for i, name in enumerate([*DEFAULT_TYPE_LABELS, NO_ACCESS])}


def _labelled_positions(path, corpus, label_of):
    """(function name -> [(position, label id)]) of the labels file ``path``,
    clipped to tokenized length."""
    out = {}
    with _reading(path):
        for row in _read_jsonl(path):
            name = row["function"]
            if name not in corpus.by_name:
                raise InputError(f"labelled function {name!r} not in the listing")
            seq_len = len(corpus.by_name[name].seq)
            pairs = []
            for pos, label in row["labels"]:
                if label not in label_of:
                    raise InputError(f"unknown type label {label!r}")
                if type(pos) is not int or pos < 0:  # a JSON true is a bool, not a position
                    raise InputError(
                        f"label position {pos!r} in {name!r} is not a non-negative integer")
                if pos < seq_len:
                    pairs.append((pos, label_of[label]))
            out[name] = pairs
    return out


def cmd_train_type(args, cfg) -> int:
    import numpy as np

    from .downstream import type_inference_loss
    from .encoder import backward, encode

    state, corpus = _load(args, cfg)
    label_of = _label_ids()
    labelled = _labelled_positions(args.labels, corpus, label_of)
    names = [n for n in labelled if labelled[n]]
    if not names:
        raise InputError(f"{args.labels}: no labelled tokens")
    opt = _finetune_optimizer(cfg, args.steps)
    rng = np.random.default_rng(cfg.seed)
    for step in range(args.steps):
        grads = state.zero_grads()
        batch = [names[int(i)] for i in rng.integers(len(names), size=cfg.batch_size)]
        n_tokens = sum(len(labelled[n]) for n in batch)
        loss_sum = 0.0
        for name in batch:
            art = corpus.by_name[name]
            trace = encode(art.seq.tokens, art.bundle, state, rng=rng, training=True)
            loss, dh, head = type_inference_loss(trace, labelled[name], state)
            loss_sum += loss
            for k, g in head.items():
                grads[k] += g / n_tokens
            backward(trace, dh / n_tokens, state, grads)
        opt.apply(state.params, grads)
        if (step + 1) % 50 == 0:
            print(f"step {step + 1}: type loss {loss_sum / max(1, n_tokens):.4f}")
    _save_model(state, corpus.vocab, args.out)
    return 0


def cmd_eval_type(args, cfg) -> int:
    import numpy as np

    from .downstream import type_logits, type_prf
    from .encoder import encode

    state, corpus = _load(args, cfg)
    label_of = _label_ids()
    labelled = _labelled_positions(args.labels, corpus, label_of)
    preds, gold = [], []
    for name, pairs in labelled.items():
        if not pairs:
            continue
        art = corpus.by_name[name]
        trace = encode(art.seq.tokens, art.bundle, state, training=False)
        logits = type_logits(trace, state)
        for pos, label in pairs:
            preds.append(int(np.argmax(logits[pos])))
            gold.append(label)
    p, r, f1 = type_prf(preds, gold, label_of["no-access"])
    print(json.dumps({"precision": p, "recall": r, "f1": f1, "tokens": len(gold)},
                     sort_keys=True))
    return 0


def _mlc_inputs(args, corpus, state, cfg):
    """The label matrix of ``--samples`` and per sample the embeddings it pools, encoded once."""
    import numpy as np

    with _reading(args.samples):
        samples = _read_jsonl(args.samples)
        y = np.array([row["labels"] for row in samples], dtype=np.float64)
        pools = [[corpus.by_name[n] for n in row["functions"][:cfg.pool_k]] for row in samples]
        if y.ndim != 2 or not all(pools):
            raise InputError("want samples, each with a list of labels and a function")
    arts = {a.name: a for pool in pools for a in pool}
    embs = {n: np.asarray(_embedding(state, a), dtype=np.float64) for n, a in arts.items()}
    return y, [[embs[a.name] for a in pool] for pool in pools]


def _mlc_forward(e, head):
    """The pooled vector, label logits and label probabilities of one sample."""
    import numpy as np

    from .downstream import attention_pool

    pooled, _ = attention_pool(e, head["query"])
    logits = pooled @ head["w"] + head["b"]
    return pooled, logits, 1.0 / (1.0 + np.exp(-logits))


def cmd_train_mlc(args, cfg) -> int:
    import numpy as np

    from .downstream import attention_pool_grads
    from .pretrain import AdamW

    state, corpus = _load(args, cfg)
    ys, inputs = _mlc_inputs(args, corpus, state, cfg)
    dh = state.config.hidden
    rng = np.random.default_rng(cfg.seed)
    head = {"query": (rng.standard_normal(dh) * 0.02),
            "w": (rng.standard_normal((dh, ys.shape[1])) * 0.02),
            "b": np.zeros(ys.shape[1])}
    opt = AdamW(lr=1e-2, weight_decay=0.0, clip_norm=cfg.clip_norm,
                warmup_steps=0, total_steps=args.steps)
    for step in range(args.steps):
        grads = {k: np.zeros_like(v) for k, v in head.items()}
        loss_sum = 0.0
        for y, e in zip(ys, inputs):
            pooled, logits, p = _mlc_forward(e, head)
            loss_sum += float(np.logaddexp(0, logits).sum() - (y * logits).sum())
            dlogits = (p - y) / len(ys)
            grads["w"] += np.outer(pooled, dlogits)
            grads["b"] += dlogits
            d_pooled = head["w"] @ dlogits
            _, d_query, _ = attention_pool_grads(e, head["query"], d_pooled)
            grads["query"] += d_query
        opt.apply(head, grads)
        if (step + 1) % 50 == 0:
            print(f"step {step + 1}: mlc loss {loss_sum / len(ys):.4f}")
    _write_json(args.out, {k: np.asarray(v).tolist() for k, v in head.items()})
    print(f"head written to {args.out}")
    return 0


def cmd_eval_mlc(args, cfg) -> int:
    import numpy as np

    from .downstream import lrap, lrl, macro_roc_auc

    state, corpus = _load(args, cfg)
    y, inputs = _mlc_inputs(args, corpus, state, cfg)
    dh, n_labels = state.config.hidden, y.shape[1]
    shapes = {"query": (dh,), "w": (dh, n_labels), "b": (n_labels,)}
    with _reading(args.head), open(args.head, encoding="utf-8") as fh:
        head = {k: np.asarray(v, dtype=np.float64) for k, v in dict(json.load(fh)).items()}
        if {k: v.shape for k, v in head.items()} != shapes:
            raise InputError(f"want the head shapes {shapes}")
    f = np.stack([_mlc_forward(e, head)[2] for e in inputs])
    print(json.dumps({"lrap": lrap(y, f), "lrl": lrl(y, f),
                      "roc_auc": macro_roc_auc(y, f), "samples": len(y)},
                     sort_keys=True))
    return 0


def cmd_gradcheck(args, cfg) -> int:
    from .gradcheck import run

    result = run(n_samples=args.samples, seed=cfg.seed)
    print(json.dumps({"max_rel_err": result.max_rel_err, "checked": result.n_checked,
                      "worst": result.worst_param, "passed": result.passed},
                     sort_keys=True))
    return 0 if result.passed else 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface tying the pipeline together.

Exit codes: 0 success; 2 an ``InputError``, a fault in a file the user gave;
3 a ``NumericsError``, numeric divergence, or a failed ``gradcheck``; 4 a
``ConfigError``, an output path that cannot be written among them.  Any
other exception is a bug: a traceback and exit 1.

numpy is imported inside the commands, after ``main`` has pinned the BLAS
thread pools from the ``threads`` config key or ``--threads``.

A checkpoint's commands analyse the listing as its ``ModelShape`` says.  A
fine-tuning step packs its functions into one ``encode``, as pre-training
does, and ends in ``pretrain.update``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import sys
from dataclasses import fields, replace

from .config import ModelShape, RunConfig
from .corpus import SECTIONS, STAGES, Corpus, dumps, write_file
from .errors import ConfigError, InputError, ListingError, NumericsError
from .frontend import Vocabulary, build_vocab, parse_listing

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")

#: glibc ``mallopt`` parameters, and the values ``_keep_freed_memory`` sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_BYTES, _MMAP_BYTES = 64 << 20, 32 << 20


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration file")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--threads", type=int, help="BLAS thread count (1 = deterministic)")
    # the commands that analyse a listing afresh; a checkpoint carries its own setting
    analysis = argparse.ArgumentParser(add_help=False, parents=[common])
    analysis.add_argument("--flags-dep", action="store_const", const=True,
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

    p = command("pipeline", cmd_pipeline, analysis,
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

    p = command("pretrain", cmd_pretrain, analysis, "MLM + MDM pre-training")
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
    p.add_argument("--steps", type=_at_least_1, default=50)

    p = command("train-type", cmd_train_type, model, "train the type-inference head")
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=_at_least_1, default=300)

    p = command("eval-type", cmd_eval_type, model, "type-inference P/R/F1")
    p.add_argument("--labels", required=True)

    p = command("train-mlc", cmd_train_mlc, model, "train attention pooling + multi-label head")
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=_at_least_1, default=200)

    p = command("eval-mlc", cmd_eval_mlc, model, "LRAP / LRL / ROC-AUC")
    p.add_argument("--samples", required=True)
    p.add_argument("--head", required=True)

    p = command("gradcheck", cmd_gradcheck, common, "finite-difference check of the reverse pass")
    p.add_argument("--samples", type=_at_least_1, default=220)

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
        for key in ("seed", "threads", "flags_dep"):  # the flags that override a key
            if getattr(args, key, None) is not None:
                setattr(cfg, key, getattr(args, key))
        cfg.validate()
        # BLAS sizes its thread pools from these when numpy loads
        if cfg.threads is not None:
            for var in _THREAD_VARS:
                os.environ[var] = str(cfg.threads)
        _keep_freed_memory()
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

def _keep_freed_memory() -> None:
    """Have glibc's allocator keep freed memory mapped for reuse, so that a
    training step's arrays do not page-fault in afresh every step.

    Under glibc's defaults a block above a threshold that starts at 128 KiB
    is mapped on allocation and unmapped when freed, and free memory above
    128 KiB at the heap's top goes back to the kernel.  Here blocks below
    32 MiB, glibc's largest threshold on 64-bit, come from the heap, which
    is trimmed only once 64 MiB is free at its top.  That covers the
    attention's dense (heads, N, N) product blocks at the default shape:
    4 MiB in float32 and 8 MiB in float64 at 4 heads and N 512.  A larger
    block is still mapped afresh on each allocation, which is correct, only
    slower.  A C library without ``mallopt`` is left as it is.  No result
    depends on it."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no C library to load
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)


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
    ``ModelShape``, ``max_len`` and the analysis settings among it.  The
    vocabulary is ``--vocab`` or ``vocab.tsv`` next to the checkpoint, and
    must be as large as the checkpoint's embedding table."""
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
    shape = {f.name: getattr(state.config, f.name) for f in fields(ModelShape)}
    with _listing(args.listing):
        return state, Corpus.from_text(_read_text(args.listing), replace(cfg, **shape), vocab)


def _save_model(state, vocab, path) -> None:
    """The write side of ``_load``: ``vocab.tsv`` beside the checkpoint ``path``, then ``path``."""
    vocab.save(os.path.join(os.path.dirname(os.path.abspath(path)), "vocab.tsv"))
    state.save(path)
    print(f"checkpoint written to {path}")


def _finetune_optimizer(cfg, steps):
    """AdamW warmed up over at most a tenth of ``steps``, at lr 0 only a step after the last."""
    from .pretrain import AdamW
    return AdamW(lr=cfg.lr, weight_decay=cfg.weight_decay, clip_norm=cfg.clip_norm,
                 warmup_steps=min(cfg.warmup, steps // 10), total_steps=steps + 1)


def _embedding(state, art):
    from .encoder import encode
    return encode(art.seq.tokens, art.bundle, state, rows=[0]).cls_embedding


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
    from .synth import MLC_GROUP, build_corpus

    corpus = build_corpus(args.functions, cfg.seed, pool_size=args.pool_size,
                          with_variants=not args.no_variants)
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "corpus.asm"), corpus.listing)
    _write_json(os.path.join(args.out, "eval.json"), corpus.eval_spec)
    _write_json(os.path.join(args.out, "pairs.json"), [list(p) for p in corpus.pairs])
    _write_jsonl(os.path.join(args.out, "triplets.jsonl"), corpus.triplets)
    _write_jsonl(os.path.join(args.out, "typelabels.jsonl"), corpus.type_labels)
    _write_jsonl(os.path.join(args.out, "mlc.jsonl"), corpus.mlc_samples)
    if not corpus.mlc_samples:
        print(f"warning: mlc.jsonl is empty: a sample takes {MLC_GROUP} functions", file=sys.stderr)
    print(f"wrote {len(corpus.pairs) or args.functions} groups to {args.out}")
    return 0


def cmd_pretrain(args, cfg) -> int:
    import numpy as np

    from .encoder import EncoderState
    from .pretrain import AdamW, batch_indices, train_step

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
    batches = batch_indices(len(corpus), cfg.batch_size, rng)
    lines = ["step,mlm_loss,mdm_loss,total,lr"]
    for _ in range(cfg.steps):
        batch = [corpus.functions[i] for i in next(batches)]
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

    from .downstream import mrr, recall_at_k, truth_ranks

    with _reading(args.embeddings):
        rows = _read_jsonl(args.embeddings)
        names = [row["function"] for row in rows]
        # one matrix, so that embeddings of two lengths are rejected here
        matrix = np.array([row["embedding"] for row in rows], dtype=np.float64)
        embs = {}
        for name, emb in zip(names, matrix):
            if not np.isfinite(emb).all():  # a NaN cosine ranks by no order
                raise InputError(f"function {name}: non-finite embedding")
            if name in embs:
                raise InputError(f"function {name}: a second embedding")
            embs[name] = emb
    with _reading(args.eval_spec), open(args.eval_spec, encoding="utf-8") as fh:
        spec = json.load(fh)
        queries = [embs[q] for q in spec["queries"]]
        pools = [[embs[c] for c in pool] for pool in spec["pools"]]
        truth = spec["truth"]
        bad = [t for t in truth if type(t) is not int]  # a JSON true is a bool, not an index
        if bad:
            raise InputError(f"truth index {bad[0]!r} is not an integer")
        if not len(queries) == len(pools) == len(truth):
            raise InputError(f"{len(queries)} queries, {len(pools)} pools and "
                             f"{len(truth)} truth indices")
        ranks = truth_ranks(queries, pools, truth)  # a truth outside its pool raises here
    result = {"queries": len(queries), "mrr": mrr(ranks),
              **{f"recall@{k}": recall_at_k(ranks, k) for k in args.k}}
    print(json.dumps(result, sort_keys=True))
    return 0


def cmd_finetune_sim(args, cfg) -> int:
    import numpy as np

    from .downstream import triplet_loss_grads
    from .encoder import encode
    from .masks import build_bundle
    from .pretrain import update

    state, corpus = _load(args, cfg)
    with _reading(args.triplets):
        triplets = [[corpus.by_name[t[k]] for k in ("anchor", "positive", "negative")]
                    for t in _read_jsonl(args.triplets)]
        if not triplets:
            raise InputError("no triplets")
    opt = _finetune_optimizer(cfg, args.steps)
    rng = np.random.default_rng(cfg.seed)
    for step in range(args.steps):
        arts = [a for i in rng.integers(len(triplets), size=cfg.batch_size) for a in triplets[i]]
        pairs = build_bundle([a.seq for a in arts], [a.con.dist for a in arts])
        # a function's first row is its [CLS], and the last layer runs at those rows only
        trace = encode(np.concatenate([a.seq.tokens for a in arts]), pairs, state, rng=rng,
                       rows=[seg.row for seg in pairs.segments])
        d_final = np.zeros_like(trace.final)
        loss_sum = 0.0
        for t in range(0, len(arts), 3):  # a triplet's functions are three segments in a row
            loss, *d = triplet_loss_grads(*trace.final[t:t + 3], margin=cfg.triplet_margin)
            loss_sum += loss
            d_final[t:t + 3] = np.stack(d) / cfg.batch_size
        update(trace, d_final, {}, state, opt)
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
            if name in out:
                raise InputError(f"labelled function {name!r} has a second row")
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
    from .encoder import encode
    from .masks import build_bundle
    from .pretrain import update

    state, corpus = _load(args, cfg)
    label_of = _label_ids()
    labelled = _labelled_positions(args.labels, corpus, label_of)
    names = [n for n in labelled if labelled[n]]
    if not names:
        raise InputError(f"{args.labels}: no labelled tokens")
    opt = _finetune_optimizer(cfg, args.steps)
    rng = np.random.default_rng(cfg.seed)
    for step in range(args.steps):
        arts = [corpus.by_name[names[i]] for i in rng.integers(len(names), size=cfg.batch_size)]
        pairs = build_bundle([a.seq for a in arts], [a.con.dist for a in arts])
        labels = [(pos + seg.row, label) for a, seg in zip(arts, pairs.segments)
                  for pos, label in labelled[a.name]]
        trace = encode(np.concatenate([a.seq.tokens for a in arts]), pairs, state, rng=rng,
                       rows=sorted({pos for pos, _ in labels}))
        loss, dh, head = type_inference_loss(trace, labels, state)
        update(trace, dh / len(labels), {k: g / len(labels) for k, g in head.items()},
               state, opt)
        if (step + 1) % 50 == 0:
            print(f"step {step + 1}: type loss {loss / len(labels):.4f}")
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
        positions = [pos for pos, _ in pairs]
        trace = encode(art.seq.tokens, art.bundle, state, rows=sorted(set(positions)))
        logits = type_logits(trace, state)[trace.index_of(positions)]
        for row, (_, label) in zip(logits, pairs):
            preds.append(int(np.argmax(row)))
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
        if not samples:
            raise InputError("no samples")
        y = np.array([row["labels"] for row in samples], dtype=np.float64)
        pools = [[corpus.by_name[n] for n in row["functions"][:cfg.pool_k]] for row in samples]
        if y.ndim != 2 or not all(pools) or not np.isin(y, (0, 1)).all():  # NaN is neither
            raise InputError("want samples, each with a function and a list of 0/1 labels")
    arts = {a.name: a for pool in pools for a in pool}
    embs = {n: np.asarray(_embedding(state, a), dtype=np.float64) for n, a in arts.items()}
    return y, [[embs[a.name] for a in pool] for pool in pools]


def cmd_train_mlc(args, cfg) -> int:
    import numpy as np

    from .downstream import multilabel_loss_grads
    from .pretrain import AdamW

    state, corpus = _load(args, cfg)
    ys, inputs = _mlc_inputs(args, corpus, state, cfg)
    dh = state.config.hidden
    rng = np.random.default_rng(cfg.seed)
    head = {"query": (rng.standard_normal(dh) * 0.02),
            "w": (rng.standard_normal((dh, ys.shape[1])) * 0.02),
            "b": np.zeros(ys.shape[1])}
    opt = AdamW(lr=1e-2, weight_decay=0.0, clip_norm=cfg.clip_norm,
                warmup_steps=0, total_steps=args.steps + 1)  # as _finetune_optimizer
    for step in range(args.steps):
        grads = {k: np.zeros_like(v) for k, v in head.items()}
        loss_sum = 0.0
        for y, e in zip(ys, inputs):
            loss, sample_grads = multilabel_loss_grads(e, head, y)
            loss_sum += loss
            for k, g in sample_grads.items():
                grads[k] += g / len(ys)
        opt.apply(head, grads)
        if (step + 1) % 50 == 0:
            print(f"step {step + 1}: mlc loss {loss_sum / len(ys):.4f}")
    _write_json(args.out, {k: np.asarray(v).tolist() for k, v in head.items()})
    print(f"head written to {args.out}")
    return 0


def cmd_eval_mlc(args, cfg) -> int:
    import numpy as np

    from .downstream import lrap, lrl, macro_roc_auc, multilabel_probs

    state, corpus = _load(args, cfg)
    y, inputs = _mlc_inputs(args, corpus, state, cfg)
    dh, n_labels = state.config.hidden, y.shape[1]
    shapes = {"query": (dh,), "w": (dh, n_labels), "b": (n_labels,)}
    with _reading(args.head), open(args.head, encoding="utf-8") as fh:
        head = {k: np.asarray(v, dtype=np.float64) for k, v in dict(json.load(fh)).items()}
        if {k: v.shape for k, v in head.items()} != shapes:
            raise InputError(f"want the head shapes {shapes}")
        if not all(np.isfinite(v).all() for v in head.values()):
            raise InputError("a non-finite head value")
    f = np.stack([multilabel_probs(e, head) for e in inputs])
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

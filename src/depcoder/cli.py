"""Command-line surface tying the pipeline together.

Exit codes: 0 success, 2 input error, 3 numeric divergence, 4 config error.

Heavy imports happen inside ``main`` so that the ``threads`` config key or
``--threads`` can pin the BLAS thread pools before numpy is loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration file")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--threads", type=int, help="BLAS thread count (1 = deterministic)")
    common.add_argument("--flags-dep", action="store_true",
                        help="model the FLAGS register as a dependence channel")

    parser = argparse.ArgumentParser(prog="depcoder",
                                     description="dependence-regularized assembly encoder")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pipeline", parents=[common],
                       help="tokenize, analyze and build masks for a listing")
    p.add_argument("listing")
    p.add_argument("--out", required=True)
    p.add_argument("--stage", choices=("tokenize", "deps", "connectivity", "mask"),
                   default="mask")
    p.add_argument("--cache-dir")

    p = sub.add_parser("build-mask", parents=[common],
                       help="emit sparse attention masks for a listing")
    p.add_argument("listing")
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--functions", type=int, default=200)
    p.add_argument("--pool-size", type=int, default=10)
    p.add_argument("--no-variants", action="store_true")

    p = sub.add_parser("pretrain", parents=[common], help="MLM + MDM pre-training")
    p.add_argument("--corpus", help="listing path (overrides the config)")
    p.add_argument("--out", help="output directory (overrides the config)")

    p = sub.add_parser("embed", parents=[common], help="emit function embeddings")
    p.add_argument("listing")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval-sim", parents=[common], help="recall@k / MRR over a pool spec")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--eval-spec", required=True)
    p.add_argument("--k", default="1,5,10", help="comma-separated cutoffs")

    p = sub.add_parser("finetune-sim", parents=[common], help="triplet fine-tuning")
    p.add_argument("listing")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab")
    p.add_argument("--triplets", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=50)

    p = sub.add_parser("train-type", parents=[common], help="train the type-inference head")
    p.add_argument("listing")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab")
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=300)

    p = sub.add_parser("eval-type", parents=[common], help="type-inference P/R/F1")
    p.add_argument("listing")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab")
    p.add_argument("--labels", required=True)

    p = sub.add_parser("train-mlc", parents=[common],
                       help="train attention pooling + multi-label head")
    p.add_argument("listing")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab")
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=200)

    p = sub.add_parser("eval-mlc", parents=[common], help="LRAP / LRL / ROC-AUC")
    p.add_argument("listing")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab")
    p.add_argument("--samples", required=True)
    p.add_argument("--head", required=True)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="finite-difference check of the reverse pass")
    p.add_argument("--samples", type=int, default=220)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from .config import ConfigError, RunConfig

    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.threads is not None:
            cfg.threads = args.threads
        if args.flags_dep:
            cfg.flags_dep = True
        cfg.validate()
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 4
    # BLAS sizes its thread pools from these when numpy loads
    if cfg.threads is not None:
        for var in _THREAD_VARS:
            os.environ[var] = str(cfg.threads)

    from .cfg import CfgError
    from .connectivity import ClosureError
    from .dependence import DependenceError
    from .downstream import MetricsError
    from .encoder import NumericsError
    from .frontend import ParseError

    try:
        return _dispatch(args, cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 4
    except NumericsError as e:
        print(f"numeric divergence: {e}", file=sys.stderr)
        return 3
    except (ParseError, CfgError, DependenceError, ClosureError, MetricsError,
            FileNotFoundError, json.JSONDecodeError, ValueError, KeyError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


def _dispatch(args, cfg) -> int:
    handler = {
        "pipeline": cmd_pipeline,
        "build-mask": cmd_build_mask,
        "synth": cmd_synth,
        "pretrain": cmd_pretrain,
        "embed": cmd_embed,
        "eval-sim": cmd_eval_sim,
        "finetune-sim": cmd_finetune_sim,
        "train-type": cmd_train_type,
        "eval-type": cmd_eval_type,
        "train-mlc": cmd_train_mlc,
        "eval-mlc": cmd_eval_mlc,
        "gradcheck": cmd_gradcheck,
    }[args.command]
    return handler(args, cfg)


# ---------------------------------------------------------------------------
# helpers

def _write_text(path, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path, payload) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _write_jsonl(path, rows) -> None:
    _write_text(path, "".join(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
                              for row in rows))


def _read_jsonl(path) -> list:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def _load(args, cfg):
    """The checkpoint, and the listing's corpus under its vocabulary and its
    ``max_len``.  The vocabulary is ``--vocab`` or ``vocab.tsv`` next to the
    checkpoint."""
    from dataclasses import replace

    from .corpus import Corpus
    from .encoder import EncoderState
    from .frontend import Vocabulary

    state = EncoderState.load(args.checkpoint)
    vocab_path = args.vocab
    if vocab_path is None:
        vocab_path = os.path.join(os.path.dirname(os.path.abspath(args.checkpoint)), "vocab.tsv")
        if not os.path.exists(vocab_path):
            raise FileNotFoundError(
                "no --vocab given and no vocab.tsv next to the checkpoint")
    corpus = Corpus.from_file(args.listing, replace(cfg, max_len=state.config.max_len),
                              Vocabulary.load(vocab_path))
    return state, corpus


def _embedding(state, art):
    from .encoder import encode
    return encode(art.seq.tokens, art.bundle, state, training=False).cls_embedding


# ---------------------------------------------------------------------------
# commands

def cmd_pipeline(args, cfg) -> int:
    from .corpus import cached_artifact_dict
    from .frontend import build_vocab, parse_listing

    with open(args.listing, encoding="utf-8") as fh:
        functions = parse_listing(fh.read())
    os.makedirs(args.out, exist_ok=True)
    if not functions:
        print("warning: empty corpus, nothing to do", file=sys.stderr)
        return 0
    vocab = build_vocab(functions, min_freq=cfg.vocab_min_freq)
    vocab.save(os.path.join(args.out, "vocab.tsv"))
    stages = ("tokenize", "deps", "connectivity", "mask")
    # (artifact key, file suffix) written by each stage
    outputs = (("tokens", "tokens"), ("deps", "deps"), ("connectivity", "conn"),
               ("mask", "mask"))
    upto = stages.index(args.stage)
    for fn in functions:
        art = cached_artifact_dict(fn, vocab, cfg, args.cache_dir)
        for key, suffix in outputs[:upto + 1]:
            _write_json(os.path.join(args.out, f"{fn.name}.{suffix}.json"), art[key])
    return 0


def cmd_build_mask(args, cfg) -> int:
    args.stage = "mask"
    args.cache_dir = None
    return cmd_pipeline(args, cfg)


def cmd_synth(args, cfg) -> int:
    from .synth import build_corpus

    corpus = build_corpus(args.functions, cfg.seed, pool_size=args.pool_size,
                          with_variants=not args.no_variants)
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "corpus.asm"), corpus.listing)
    _write_json(os.path.join(args.out, "eval.json"), corpus.eval_spec)
    _write_json(os.path.join(args.out, "pairs.json"),
                [list(p) for p in corpus.pairs])
    _write_jsonl(os.path.join(args.out, "triplets.jsonl"), corpus.triplets)
    _write_jsonl(os.path.join(args.out, "typelabels.jsonl"), corpus.type_labels)
    _write_jsonl(os.path.join(args.out, "mlc.jsonl"), corpus.mlc_samples)
    print(f"wrote {len(corpus.pairs) or args.functions} groups to {args.out}")
    return 0


def cmd_pretrain(args, cfg) -> int:
    import numpy as np

    from .corpus import Corpus
    from .encoder import EncoderState
    from .pretrain import AdamW, train_step

    corpus_path = args.corpus or cfg.corpus
    out_dir = args.out or cfg.out_dir
    if not corpus_path or not out_dir:
        raise FileNotFoundError("pretrain needs a corpus and an output directory "
                                "(--corpus/--out or config keys)")
    corpus = Corpus.from_file(corpus_path, cfg)
    state = EncoderState.init(cfg.encoder_config(len(corpus.vocab)), cfg.seed)
    opt = AdamW(lr=cfg.lr, weight_decay=cfg.weight_decay, clip_norm=cfg.clip_norm,
                warmup_steps=cfg.warmup, total_steps=cfg.steps)
    rng = np.random.default_rng(cfg.seed)

    os.makedirs(out_dir, exist_ok=True)
    corpus.vocab.save(os.path.join(out_dir, "vocab.tsv"))
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
    state.save(os.path.join(out_dir, "model.ckpt"))
    print(f"checkpoint written to {os.path.join(out_dir, 'model.ckpt')}")
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

    embs = {row["function"]: np.asarray(row["embedding"])
            for row in _read_jsonl(args.embeddings)}
    with open(args.eval_spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    queries = [embs[q] for q in spec["queries"]]
    pools = [[embs[c] for c in pool] for pool in spec["pools"]]
    truth = spec["truth"]
    result = {"queries": len(queries), "mrr": mrr(queries, pools, truth)}
    for k in (int(x) for x in args.k.split(",")):
        result[f"recall@{k}"] = recall_at_k(queries, pools, truth, k)
    print(json.dumps(result, sort_keys=True))
    return 0


def cmd_finetune_sim(args, cfg) -> int:
    import numpy as np

    from .downstream import triplet_loss_grads
    from .encoder import backward, encode
    from .pretrain import AdamW

    state, corpus = _load(args, cfg)
    triplets = _read_jsonl(args.triplets)
    if not triplets:
        raise FileNotFoundError(f"no triplets in {args.triplets}")
    opt = AdamW(lr=cfg.lr, weight_decay=cfg.weight_decay, clip_norm=cfg.clip_norm,
                warmup_steps=min(cfg.warmup, args.steps // 10),
                total_steps=args.steps)
    rng = np.random.default_rng(cfg.seed)
    for step in range(args.steps):
        grads = state.zero_grads()
        loss_sum = 0.0
        for _ in range(cfg.batch_size):
            t = triplets[int(rng.integers(len(triplets)))]
            arts = [corpus.by_name[t[k]] for k in ("anchor", "positive", "negative")]
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
    state.save(args.out)
    print(f"checkpoint written to {args.out}")
    return 0


def _label_ids():
    from .downstream import DEFAULT_TYPE_LABELS, NO_ACCESS
    labels = list(DEFAULT_TYPE_LABELS) + [NO_ACCESS]
    return {name: i for i, name in enumerate(labels)}


def _labelled_positions(rows, corpus, label_of):
    """(function name -> [(position, label id)]) clipped to tokenized length."""
    out = {}
    for row in rows:
        name = row["function"]
        if name not in corpus.by_name:
            raise FileNotFoundError(f"labelled function {name!r} not in the listing")
        seq_len = len(corpus.by_name[name].seq)
        pairs = []
        for pos, label in row["labels"]:
            if label not in label_of:
                raise FileNotFoundError(f"unknown type label {label!r}")
            if type(pos) is not int or pos < 0:  # a JSON true is a bool, not a position
                raise FileNotFoundError(
                    f"label position {pos!r} in {name!r} is not a non-negative integer")
            if pos < seq_len:
                pairs.append((pos, label_of[label]))
        out[name] = pairs
    return out


def cmd_train_type(args, cfg) -> int:
    import numpy as np

    from .downstream import type_inference_loss
    from .encoder import backward, encode
    from .pretrain import AdamW

    state, corpus = _load(args, cfg)
    label_of = _label_ids()
    labelled = _labelled_positions(_read_jsonl(args.labels), corpus, label_of)
    names = [n for n in labelled if labelled[n]]
    if not names:
        raise FileNotFoundError("no labelled tokens")
    opt = AdamW(lr=cfg.lr, weight_decay=cfg.weight_decay, clip_norm=cfg.clip_norm,
                warmup_steps=min(cfg.warmup, args.steps // 10), total_steps=args.steps)
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
    state.save(args.out)
    print(f"checkpoint written to {args.out}")
    return 0


def cmd_eval_type(args, cfg) -> int:
    import numpy as np

    from .downstream import type_logits, type_prf
    from .encoder import encode

    state, corpus = _load(args, cfg)
    label_of = _label_ids()
    no_access = label_of["no-access"]
    labelled = _labelled_positions(_read_jsonl(args.labels), corpus, label_of)
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
    p, r, f1 = type_prf(preds, gold, no_access)
    print(json.dumps({"precision": p, "recall": r, "f1": f1, "tokens": len(gold)},
                     sort_keys=True))
    return 0


def _mlc_inputs(samples, corpus, state, cfg):
    """Per sample, the embeddings of the functions it pools; each function is
    encoded once."""
    import numpy as np

    names = dict.fromkeys(n for row in samples for n in row["functions"][:cfg.pool_k])
    embs = {n: np.asarray(_embedding(state, corpus.by_name[n]), dtype=np.float64)
            for n in names}
    return [[embs[n] for n in row["functions"][:cfg.pool_k]] for row in samples]


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
    samples = _read_jsonl(args.samples)
    if not samples:
        raise FileNotFoundError(f"no samples in {args.samples}")
    n_labels = len(samples[0]["labels"])
    dh = state.config.hidden
    rng = np.random.default_rng(cfg.seed)
    head = {"query": (rng.standard_normal(dh) * 0.02),
            "w": (rng.standard_normal((dh, n_labels)) * 0.02),
            "b": np.zeros(n_labels)}
    inputs = _mlc_inputs(samples, corpus, state, cfg)
    opt = AdamW(lr=1e-2, weight_decay=0.0, clip_norm=cfg.clip_norm,
                warmup_steps=0, total_steps=args.steps)
    for step in range(args.steps):
        grads = {k: np.zeros_like(v) for k, v in head.items()}
        loss_sum = 0.0
        for row, e in zip(samples, inputs):
            pooled, logits, p = _mlc_forward(e, head)
            y = np.asarray(row["labels"], dtype=np.float64)
            loss_sum += float(np.logaddexp(0, logits).sum() - (y * logits).sum())
            dlogits = (p - y) / len(samples)
            grads["w"] += np.outer(pooled, dlogits)
            grads["b"] += dlogits
            d_pooled = head["w"] @ dlogits
            _, d_query, _ = attention_pool_grads(e, head["query"], d_pooled)
            grads["query"] += d_query
        opt.apply(head, grads)
        if (step + 1) % 50 == 0:
            print(f"step {step + 1}: mlc loss {loss_sum / len(samples):.4f}")
    _write_json(args.out, {k: np.asarray(v).tolist() for k, v in head.items()})
    print(f"head written to {args.out}")
    return 0


def cmd_eval_mlc(args, cfg) -> int:
    import numpy as np

    from .downstream import lrap, lrl, macro_roc_auc

    state, corpus = _load(args, cfg)
    samples = _read_jsonl(args.samples)
    with open(args.head, encoding="utf-8") as fh:
        raw = json.load(fh)
    head = {k: np.asarray(v) for k, v in raw.items()}
    y = np.stack([np.asarray(row["labels"]) for row in samples])
    f = np.stack([_mlc_forward(e, head)[2]
                  for e in _mlc_inputs(samples, corpus, state, cfg)])
    print(json.dumps({"lrap": lrap(y, f), "lrl": lrl(y, f),
                      "roc_auc": macro_roc_auc(y, f), "samples": len(samples)},
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

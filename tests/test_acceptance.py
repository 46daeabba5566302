"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The desk-scale training run (criteria 7 and 8) is shared via a session
fixture and takes a minute or two on a laptop CPU.
"""

import hashlib
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from depcoder.cfg import build_cfg
from depcoder.config import RunConfig
from depcoder.connectivity import connectivity
from depcoder.corpus import Corpus
from depcoder.dependence import (DependenceGraph, block_control_dependences,
                                 data_dependences)
from depcoder.downstream import (lrap, lrl, recall_at_k, type_prf)
from depcoder.encoder import EncoderConfig, EncoderState, encode
from depcoder.frontend import parse_listing
from depcoder.gradcheck import run as run_gradcheck
from depcoder.pretrain import (AdamW, edge_probabilities, mdm_sample,
                               mlm_perturb, perturb_bundle, train_step)
from depcoder.synth import build_corpus

from generators import random_cfg, random_digraph, random_loopfree_function
from oracles import (naive_lrap, naive_lrl, naive_mask_bundle,
                     oracle_block_control_deps, oracle_connectivity,
                     path_enum_data_deps)


def record(criterion: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. Dependence-analysis oracle

def test_criterion_01_dependence_oracles():
    t0 = time.monotonic()
    fn = parse_listing(""".func chain
mov rax, rbx
mov [rsp + 0x10], rax
mov rcx, [rsp + 0x10]
mov rdx, [rcx]
""")[0]
    exact = data_dependences(fn.instructions, build_cfg(fn))
    ok_example = exact == {(1, 0), (2, 1), (3, 1)}

    rng = np.random.default_rng(2024)
    ok_data = True
    for _ in range(200):
        f = random_loopfree_function(rng, max_instr=10)
        cfg = build_cfg(f)
        if data_dependences(f.instructions, cfg) != path_enum_data_deps(f.instructions, cfg):
            ok_data = False
            break

    ok_control = True
    for _ in range(100):
        cfg = random_cfg(rng, max_blocks=12)
        if block_control_dependences(cfg) != oracle_block_control_deps(cfg):
            ok_control = False
            break

    elapsed = time.monotonic() - t0
    record("1", ok_example and ok_data and ok_control and elapsed < 30,
           f"worked example {'exact' if ok_example else 'WRONG'}; 200 loop-free "
           f"programs vs path enumeration {'exact' if ok_data else 'MISMATCH'}; "
           f"100 CFGs vs post-dominance by reachability "
           f"{'exact' if ok_control else 'MISMATCH'}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Closure oracle

def test_criterion_02_closure_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(500):
        n, edges = random_digraph(rng, max_nodes=64)
        dep = DependenceGraph(n_nodes=n, edges={(u, v, "data") for u, v in edges})
        got = {(u, v): d for u, v, d in connectivity(dep).edges()}
        if got != oracle_connectivity(n, edges):
            ok = False
            break
    elapsed = time.monotonic() - t0
    record("2", ok and elapsed < 30,
           f"500 random digraphs (N <= 64) vs BFS {'exact' if ok else 'MISMATCH'}; "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Mask oracle

def test_criterion_03_mask_oracle():
    rng = np.random.default_rng(5)
    cfg = RunConfig()
    ok_random = True
    from depcoder.synth import generate_function
    for trial in range(200):
        listing = "\n".join(generate_function(f"m{trial}", rng)) + "\n"
        art = Corpus.from_text(listing, cfg).functions[0]
        want_m, want_r = naive_mask_bundle(art.seq, art.con)
        if not (np.array_equal(art.bundle.M, want_m)
                and np.array_equal(art.bundle.R, want_r)):
            ok_random = False
            break

    # worked example: instruction 5 (1-based) connected to {1, 3, 4, 6} with
    # distances {1, 2, 1, 1}; instruction 2 disconnected
    dep = DependenceGraph(6, {(4, 0, "data"), (4, 3, "data"),
                              (3, 2, "data"), (5, 4, "data")})
    con = connectivity(dep)
    neigh = np.flatnonzero(con.dist[4]).tolist()
    dists = [int(con.dist[4, v]) for v in neigh]
    ok_fig = (neigh == [0, 2, 3, 5] and dists == [1, 2, 1, 1]
              and con.dist[4, 1] == 0)
    record("3", ok_random and ok_fig,
           f"200 random programs vs per-pair oracle "
           f"{'exact' if ok_random else 'MISMATCH'}; worked example "
           f"neighbors {neigh} distances {dists}")


# ---------------------------------------------------------------------------
# 4. Attention masking invariant + clamp saturation

def test_criterion_04_masking_invariant():
    rng = np.random.default_rng(9)
    cfg = RunConfig()
    worst_weight = 0.0
    worst_rowsum = 0.0
    ok_clamp = True
    from depcoder.synth import generate_function
    for seed in range(10):
        listing = "\n".join(generate_function(f"a{seed}", rng)) + "\n"
        corpus = Corpus.from_text(listing, cfg)
        art = corpus.functions[0]
        ec = EncoderConfig(layers=2, heads=4, hidden=32, ffn=64,
                           vocab_size=len(corpus.vocab), dropout=0.0)
        state = EncoderState.init(ec, seed)
        state.params["beta"][:] = rng.standard_normal(state.params["beta"].shape)
        trace = encode(art.seq.tokens, art.bundle, state)
        masked = art.bundle.M < -1e8
        for c in trace.caches:
            if masked.any():
                worst_weight = max(worst_weight, float(c.probs[:, masked].max()))
            worst_rowsum = max(worst_rowsum,
                               float(np.abs(c.probs.sum(axis=-1) - 1.0).max()))
        big = art.bundle
        big.R[big.R > 0] += ec.r_max + 3
        sat = art.bundle
        sat.R[sat.R > 0] = np.minimum(big.R[big.R > 0], ec.r_max)
        if not np.array_equal(encode(art.seq.tokens, big, state).final,
                              encode(art.seq.tokens, sat, state).final):
            ok_clamp = False
    ok = worst_weight < 1e-12 and worst_rowsum < 1e-6 and ok_clamp
    record("4", ok,
           f"max masked weight {worst_weight:.2e} (< 1e-12); max row-sum error "
           f"{worst_rowsum:.2e} (< 1e-6); clamp saturation "
           f"{'bitwise equal' if ok_clamp else 'DIFFERS'}")


# ---------------------------------------------------------------------------
# 5. Gradient check

def test_criterion_05_gradcheck():
    t0 = time.monotonic()
    result = run_gradcheck(n_samples=220, eps=1e-4, seed=0)
    elapsed = time.monotonic() - t0
    classes = {"beta", "tok_emb", "pos_emb", "mlm_w", "type_w"}
    covered = classes <= set(result.per_param_max)
    wqkv = all(any(k.endswith(s) for k in result.per_param_max)
               for s in (".wq", ".wk", ".wv", ".wo", ".w1", ".ln1_g"))
    record("5", result.passed and covered and wqkv
           and result.n_checked >= 200 and elapsed < 300,
           f"max relative error {result.max_rel_err:.2e} (< 1e-4) over "
           f"{result.n_checked} parameters incl. bias tables, embeddings, "
           f"projections, FFN, layer norms and heads; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Sampler statistics

def test_criterion_06_sampler_statistics():
    from depcoder.connectivity import ConnectivityGraph
    from depcoder.frontend import CLS_ID, FIRST_REGULAR_ID, INST_ID, TokenSequence

    n_eligible = 100
    seq = TokenSequence(
        tokens=[CLS_ID, INST_ID] + [FIRST_REGULAR_ID + i % 7 for i in range(n_eligible)],
        surface=["[CLS]", "<INST>"] + [f"t{i}" for i in range(n_eligible)],
        inst_of=[-1] + [0] * (n_eligible + 1),
        inst_positions={0: 1})
    rng = np.random.default_rng(31)
    trials = 10_000
    masked = 0
    kinds = {"mask-token": 0, "random-token": 0, "unchanged": 0}
    for _ in range(trials):
        _, pert = mlm_perturb(seq, vocab_size=40, rng=rng)
        masked += len(pert)
        for k in pert.kinds:
            kinds[k] += 1
    frac = masked / (n_eligible * trials)
    total = sum(kinds.values())
    splits = (kinds["mask-token"] / total, kinds["random-token"] / total,
              kinds["unchanged"] / total)
    ok_mlm = abs(frac - 0.15) < 0.01 and abs(splits[0] - 0.8) < 0.02 \
        and abs(splits[1] - 0.1) < 0.02 and abs(splits[2] - 0.1) < 0.02

    n = 20
    dist = np.zeros((n, n), dtype=np.int32)
    rng2 = np.random.default_rng(32)
    for u in range(n):
        for v in range(u + 1, n):
            if rng2.random() < 0.3:
                dist[u, v] = dist[v, u] = 1
    con = ConnectivityGraph(n_nodes=n, dist=dist)
    fracs = []
    balanced = True
    for _ in range(trials):
        s = mdm_sample(con, n, rng2)
        fracs.append(len(s.nodes) / n)
        in_s = set(s.nodes)
        cands = sum(1 for u in range(n) for v in range(u + 1, n)
                    if (u in in_s or v in in_s) and con.dist[u, v] == 0)
        if len(s.negatives) != min(len(s.positives), cands):
            balanced = False
    node_frac = float(np.mean(fracs))
    ok_mdm = abs(node_frac - 0.40) < 0.02 and balanced
    record("6", ok_mlm and ok_mdm,
           f"MLM fraction {frac:.4f} (0.15 +/- 0.01), split "
           f"{splits[0]:.3f}/{splits[1]:.3f}/{splits[2]:.3f} (0.8/0.1/0.1 +/- 0.02); "
           f"MDM node fraction {node_frac:.4f} (0.40 +/- 0.02), balance "
           f"{'held' if balanced else 'VIOLATED'}")


# ---------------------------------------------------------------------------
# 7 + 8. Desk-scale pre-training smoke and zero-shot directional check

@pytest.fixture(scope="session")
def smoke_run():
    synth = build_corpus(100, seed=0, pool_size=10)  # 100 bases + 100 variants
    cfg = RunConfig()
    corpus = Corpus.from_text(synth.listing, cfg)
    assert len(corpus) == 200
    items = corpus.functions
    ec = EncoderConfig(layers=2, heads=4, hidden=64, ffn=256,
                       vocab_size=len(corpus.vocab), max_len=cfg.max_len,
                       r_max=cfg.r_max, dropout=cfg.dropout)
    state = EncoderState.init(ec, 0)
    opt = AdamW(lr=3e-4, warmup_steps=100, total_steps=500)
    rng = np.random.default_rng(0)
    queue: list[int] = []
    metrics = []
    t0 = time.monotonic()
    for _ in range(500):
        while len(queue) < 8:
            queue.extend(int(i) for i in rng.permutation(len(items)))
        batch = [items[queue.pop(0)] for _ in range(8)]
        metrics.append(train_step(batch, state, opt, rng))
    return {"synth": synth, "corpus": corpus, "state": state,
            "losses": [m.total for m in metrics],
            "mlm": [m.mlm_loss for m in metrics],
            "train_seconds": time.monotonic() - t0}


def test_criterion_07_pretraining_smoke(smoke_run):
    losses = smoke_run["losses"]
    ratio = losses[499] / losses[9]
    mlm_dropped = smoke_run["mlm"][499] < smoke_run["mlm"][9]
    corpus, state = smoke_run["corpus"], smoke_run["state"]
    rng = np.random.default_rng(1234)
    correct = total = 0
    for art in corpus.functions:
        sample = mdm_sample(art.con, art.seq.n_instructions, rng)
        if not sample.positives and not sample.negatives:
            continue
        bundle = perturb_bundle(art.seq, art.con.dist, sample)
        trace = encode(art.seq.tokens, bundle, state, training=False)
        for p, y in edge_probabilities(trace, sample, art.seq):
            correct += int((p > 0.5) == bool(y))
            total += 1
    accuracy = correct / total
    record("7", ratio < 0.5 and mlm_dropped and accuracy >= 0.9,
           f"200 functions, L=2/d_h=64/H=4, 500 steps, batch 8: "
           f"loss@500 / loss@10 = {ratio:.3f} (< 0.5); MLM loss "
           f"{'below' if mlm_dropped else 'NOT below'} its step-10 value; "
           f"MDM edge accuracy {accuracy:.3f} over {total} edges (>= 0.9); "
           f"{smoke_run['train_seconds']:.0f}s training")


def test_criterion_08_zero_shot_directional(smoke_run):
    corpus, state, synth = smoke_run["corpus"], smoke_run["state"], smoke_run["synth"]
    t0 = time.monotonic()
    embs = {art.name: encode(art.seq.tokens, art.bundle, state,
                             training=False).cls_embedding
            for art in corpus.functions}
    spec = synth.eval_spec
    queries = [embs[q] for q in spec["queries"]]
    pools = [[embs[c] for c in pool] for pool in spec["pools"]]
    r1 = recall_at_k(queries, pools, spec["truth"], 1)
    total = smoke_run["train_seconds"] + (time.monotonic() - t0)
    record("8", r1 >= 0.5 and total < 1800,
           f"zero-shot recall@1 at pool size 10 = {r1:.3f} "
           f"(>= 0.5; random baseline 0.1) over {len(queries)} reorder/rename "
           f"queries; {total:.0f}s total (< 30 min)")


# ---------------------------------------------------------------------------
# 9. Metric formulas

def test_criterion_09_metric_formulas():
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(100):
        y = (rng.random((20, 8)) < 0.35).astype(int)
        y[y.sum(axis=1) == 0, 0] = 1
        y[y.sum(axis=1) == 8, 0] = 0
        f = rng.standard_normal((20, 8))
        worst = max(worst, abs(lrap(y, f) - naive_lrap(y, f)),
                    abs(lrl(y, f) - naive_lrl(y, f)))
    y = np.array([[1, 0, 1, 0], [0, 1, 0, 0]])
    f = np.array([[0.9, 0.2, 0.8, 0.1], [0.2, 0.9, 0.1, 0.3]])
    ok_perfect = lrap(y, f) == 1.0 and lrl(y, f) == 0.0

    qrng = np.random.default_rng(41)
    queries = [qrng.standard_normal(6) for _ in range(15)]
    pools = [[qrng.standard_normal(6) for _ in range(8)] for _ in range(15)]
    truth = [int(qrng.integers(8)) for _ in range(15)]
    recalls = [recall_at_k(queries, pools, truth, k) for k in range(1, 9)]
    ok_monotone = recalls == sorted(recalls) and all(r <= 1 for r in recalls)

    no_access = 35
    preds = [1] * 8 + [2, 2] + [no_access] * 2
    gold = [1] * 8 + [3, 3] + [4, 4]
    prf = type_prf(preds, gold, no_access)
    ok_prf = prf == pytest.approx((0.8, 0.8, 0.8))
    record("9", worst < 1e-12 and ok_perfect and ok_monotone and ok_prf,
           f"LRAP/LRL vs naive formulas: max |diff| {worst:.2e} (< 1e-12) on "
           f"100 random 20x8 batches; perfect ranking -> LRAP=1, LRL=0; "
           f"recall@k monotone; hand confusion -> P/R/F1 = "
           f"({prf[0]:.2f}, {prf[1]:.2f}, {prf[2]:.2f})")


# ---------------------------------------------------------------------------
# 10. End-to-end determinism

def test_criterion_10_determinism(tmp_path):
    data = tmp_path / "data"
    code = subprocess.run(
        [sys.executable, "-m", "depcoder.cli", "synth", "--out", str(data),
         "--functions", "25", "--seed", "11"],
        capture_output=True).returncode
    assert code == 0
    cfg = {"layers": 2, "hidden": 32, "heads": 2, "ffn": 64, "steps": 40,
           "batch_size": 4, "warmup": 5, "seed": 11,
           "corpus": str(data / "corpus.asm")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    digests = []
    for run in ("run1", "run2"):
        out = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "depcoder.cli", "pretrain",
             "--config", str(cfg_path), "--out", str(out), "--threads", "1"],
            capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        digests.append({
            "metrics": hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest(),
            "ckpt": hashlib.sha256((out / "model.ckpt").read_bytes()).hexdigest(),
            "vocab": hashlib.sha256((out / "vocab.tsv").read_bytes()).hexdigest(),
        })
    ok = digests[0] == digests[1]
    record("10", ok,
           f"two single-threaded runs, same seed/config: metrics.csv, "
           f"model.ckpt, vocab.tsv hashes {'identical' if ok else 'DIFFER'} "
           f"(ckpt {digests[0]['ckpt'][:12]}...)")

import json
from types import SimpleNamespace

import numpy as np
import pytest

from depcoder.config import RunConfig
from depcoder.connectivity import ConnectivityGraph
from depcoder.corpus import Corpus
from depcoder.encoder import EncoderConfig, EncoderState, ForwardTrace, NumericsError, encode
from depcoder.frontend import (CLS_ID, FIRST_REGULAR_ID, INST_ID, MASK_ID,
                               TokenSequence)
from depcoder.pretrain import (AdamW, EdgeSample, edge_probabilities,
                               eligible_positions, mdm_loss, mdm_sample,
                               mlm_loss, mlm_perturb, perturb_bundle, train_step)

from oracles import naive_mask_bundle


def fabricated_seq(n_eligible=100):
    """[CLS] + one giant instruction of regular tokens."""
    tokens = [CLS_ID, INST_ID] + [FIRST_REGULAR_ID + (i % 5) for i in range(n_eligible)]
    surface = ["[CLS]", "<INST>"] + [f"t{i % 5}" for i in range(n_eligible)]
    inst_of = [-1] + [0] * (n_eligible + 1)
    return TokenSequence(tokens=tokens, surface=surface, inst_of=inst_of,
                         inst_positions={0: 1})


def complete_connectivity(n):
    dist = np.ones((n, n), dtype=np.int32)
    np.fill_diagonal(dist, 0)
    return ConnectivityGraph(n_nodes=n, dist=dist)


class TestMlmPerturb:
    def test_monte_carlo_fraction_and_split(self):
        seq = fabricated_seq(100)
        rng = np.random.default_rng(0)
        n_masked = 0
        kinds = {"mask-token": 0, "random-token": 0, "unchanged": 0}
        trials = 10_000
        for _ in range(trials):
            _, pert = mlm_perturb(seq, vocab_size=30, rng=rng)
            n_masked += len(pert)
            for k in pert.kinds:
                kinds[k] += 1
        frac = n_masked / (100 * trials)
        assert abs(frac - 0.15) < 0.01
        total = sum(kinds.values())
        assert abs(kinds["mask-token"] / total - 0.8) < 0.02
        assert abs(kinds["random-token"] / total - 0.1) < 0.02
        assert abs(kinds["unchanged"] / total - 0.1) < 0.02

    def test_specials_never_selected(self):
        seq = fabricated_seq(30)
        rng = np.random.default_rng(1)
        for _ in range(200):
            ids, pert = mlm_perturb(seq, vocab_size=30, rng=rng)
            assert 0 not in pert.positions and 1 not in pert.positions
            assert ids[0] == CLS_ID and ids[1] == INST_ID
            for pos, kind in zip(pert.positions, pert.kinds):
                if kind == "mask-token":
                    assert ids[pos] == MASK_ID
                elif kind == "unchanged":
                    assert ids[pos] == seq.tokens[pos]
                else:
                    assert ids[pos] >= FIRST_REGULAR_ID

    def test_no_eligible_tokens(self):
        seq = TokenSequence(tokens=[CLS_ID], surface=["[CLS]"], inst_of=[-1],
                            inst_positions={})
        ids, pert = mlm_perturb(seq, vocab_size=30, rng=np.random.default_rng(0))
        assert len(pert) == 0
        assert list(ids) == [CLS_ID]

    def test_seed_reproducible(self):
        seq = fabricated_seq(50)
        a = mlm_perturb(seq, 30, np.random.default_rng(7))
        b = mlm_perturb(seq, 30, np.random.default_rng(7))
        assert np.array_equal(a[0], b[0])
        assert a[1].positions == b[1].positions and a[1].kinds == b[1].kinds

    def test_eligible_positions(self):
        seq = fabricated_seq(10)
        assert eligible_positions(seq) == list(range(2, 12))


class TestMdmSample:
    def test_empty_graph(self):
        con = ConnectivityGraph(n_nodes=5, dist=np.zeros((5, 5), dtype=np.int32))
        sample = mdm_sample(con, 5, np.random.default_rng(0))
        assert sample.positives == [] and sample.negatives == []

    def test_complete_graph_exhausts_negatives(self):
        con = complete_connectivity(5)
        sample = mdm_sample(con, 5, np.random.default_rng(0))
        assert sample.positives and sample.negatives == []

    def test_node_fraction(self):
        con = complete_connectivity(20)
        rng = np.random.default_rng(0)
        fracs = [len(mdm_sample(con, 20, rng).nodes) / 20 for _ in range(10_000)]
        assert abs(float(np.mean(fracs)) - 0.40) < 0.02

    def test_balanced_when_possible(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(4, 16))
            dist = np.zeros((n, n), dtype=np.int32)
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.3:
                        dist[u, v] = dist[v, u] = 1
            con = ConnectivityGraph(n_nodes=n, dist=dist)
            sample = mdm_sample(con, n, rng)
            in_s = set(sample.nodes)
            touched = [(u, v) for u in range(n) for v in range(u + 1, n)
                       if u in in_s or v in in_s]
            candidates = [(u, v) for u, v in touched if con.dist[u, v] == 0]
            assert sample.positives == [(u, v) for u, v in touched if con.dist[u, v] > 0]
            assert set(sample.negatives) <= set(candidates)
            assert sample.negatives == sorted(sample.negatives)
            assert len(sample.negatives) == min(len(sample.positives), len(candidates))
            assert not (set(sample.positives) & set(sample.negatives))

    def test_positives_touch_sampled_nodes(self):
        rng = np.random.default_rng(11)
        con = complete_connectivity(10)
        sample = mdm_sample(con, 10, rng)
        in_s = set(sample.nodes)
        assert all(u in in_s or v in in_s for u, v in sample.positives)


def small_artifact():
    listing = """.func f
mov rax, 7
mov rbx, rax
add rbx, rax
mov rcx, rbx
mov rdx, 5
ret
"""
    corpus = Corpus.from_text(listing, RunConfig(dtype="float64", dropout=0.0))
    return corpus, corpus.functions[0]


def pair_distances(pairs):
    """(i, j) -> distance (0 for none) at every enabled pair."""
    i, j = np.divmod(pairs.flat, pairs.n)
    r = np.zeros(len(pairs), dtype=np.int64)
    r[pairs.biased] = pairs.r
    return dict(zip(zip(i.tolist(), j.tolist()), r.tolist()))


class TestPerturbBundle:
    def test_empty_sample_identity(self):
        _, art = small_artifact()
        sample = EdgeSample(nodes=[], positives=[], negatives=[])
        out = perturb_bundle(art.seq, art.con.dist, sample)
        assert np.array_equal(out.flat, art.bundle.flat)
        assert np.array_equal(out.biased, art.bundle.biased)
        assert np.array_equal(out.r, art.bundle.r)

    def test_delete_is_symmetric(self):
        _, art = small_artifact()
        t, s = json.loads(art.con.to_json())["edges"][0][:2]
        sample = EdgeSample(nodes=[t], positives=[(t, s)], negatives=[])
        out = pair_distances(perturb_bundle(art.seq, art.con.dist, sample))
        pt, ps = art.seq.inst_positions[t], art.seq.inst_positions[s]
        assert (pt, ps) not in out and (ps, pt) not in out
        # everything else untouched
        base = pair_distances(art.bundle)
        assert base[pt, ps] == base[ps, pt] > 0
        assert out == {ij: d for ij, d in base.items() if ij not in {(pt, ps), (ps, pt)}}

    def test_inject_negative_distance_one(self):
        _, art = small_artifact()
        non_edges = [(u, v) for u in range(art.seq.n_instructions)
                     for v in range(u + 1, art.seq.n_instructions)
                     if art.con.dist[u, v] == 0]
        t, s = non_edges[0]
        sample = EdgeSample(nodes=[t], positives=[], negatives=[(t, s)])
        out = pair_distances(perturb_bundle(art.seq, art.con.dist, sample))
        pt, ps = art.seq.inst_positions[t], art.seq.inst_positions[s]
        assert out[pt, ps] == out[ps, pt] == 1
        # everything else untouched
        touched = {(pt, ps), (ps, pt)}
        assert {ij: d for ij, d in out.items() if ij not in touched} == pair_distances(art.bundle)

    def test_original_bundle_immutable(self):
        _, art = small_artifact()
        before = art.con.dist.copy()
        t, s = json.loads(art.con.to_json())["edges"][0][:2]
        non_edge = next((u, v) for u in range(art.seq.n_instructions)
                        for v in range(u + 1, art.seq.n_instructions)
                        if art.con.dist[u, v] == 0)
        perturb_bundle(art.seq, art.con.dist, EdgeSample([t], [(t, s)], [non_edge]))
        assert np.array_equal(art.con.dist, before)


def fake_trace(final):
    return ForwardTrace(token_ids=np.zeros(len(final), dtype=int), pairs=None,
                        final=np.asarray(final), caches=[])


class TestLosses:
    def test_mlm_uniform_model_is_log_vocab(self):
        corpus, art = small_artifact()
        cfg = EncoderConfig(layers=1, heads=2, hidden=16, ffn=32,
                            vocab_size=len(corpus.vocab), dtype="float64")
        state = EncoderState.init(cfg, 0)
        state.params["mlm_w"][:] = 0.0
        state.params["mlm_b"][:] = 0.0
        rng = np.random.default_rng(0)
        ids, pert = mlm_perturb(art.seq, len(corpus.vocab), rng, rate=0.5)
        trace = encode(ids, art.bundle, state)
        loss, _, _ = mlm_loss(trace, pert, state)
        assert loss == pytest.approx(len(pert) * np.log(len(corpus.vocab)), rel=1e-12)

    def test_mlm_near_one_hot_loss_vanishes(self):
        corpus, art = small_artifact()
        cfg = EncoderConfig(layers=1, heads=1, hidden=len(corpus.vocab),
                            ffn=32, vocab_size=len(corpus.vocab), dtype="float64")
        state = EncoderState.init(cfg, 0)
        state.params["mlm_w"] = np.eye(len(corpus.vocab)) * 50.0
        state.params["mlm_b"][:] = 0.0
        pert_positions = [2, 3]
        originals = [art.seq.tokens[p] for p in pert_positions]
        final = np.zeros((len(art.seq), len(corpus.vocab)))
        for p, tok in zip(pert_positions, originals):
            final[p, tok] = 1.0
        from depcoder.pretrain import MlmPerturbation
        pert = MlmPerturbation(positions=pert_positions,
                               kinds=["mask-token"] * 2, original=originals)
        loss, _, _ = mlm_loss(fake_trace(final), pert, state)
        assert loss < 1e-10

    def test_mdm_zero_dot_gives_log2(self):
        _, art = small_artifact()
        final = np.zeros((len(art.seq), 8))
        sample = EdgeSample(nodes=[0], positives=[(0, 1)], negatives=[(0, 4)])
        loss, _ = mdm_loss(fake_trace(final), sample, art.seq)
        assert loss == pytest.approx(2 * np.log(2), rel=1e-12)

    def test_mdm_perfect_separation(self):
        _, art = small_artifact()
        final = np.zeros((len(art.seq), 8))
        p0, p1, p4 = (art.seq.inst_positions[t] for t in (0, 1, 4))
        final[p0, 0] = final[p1, 0] = 40.0   # aligned -> dot 1600
        final[p4, 0] = -40.0                 # anti-aligned -> dot -1600
        sample = EdgeSample(nodes=[0], positives=[(0, 1)], negatives=[(0, 4)])
        loss, _ = mdm_loss(fake_trace(final), sample, art.seq)
        assert loss < 1e-6

    def test_edge_probabilities_labels(self):
        _, art = small_artifact()
        final = np.zeros((len(art.seq), 8))
        sample = EdgeSample(nodes=[0], positives=[(0, 1)], negatives=[(0, 4)])
        probs = edge_probabilities(fake_trace(final), sample, art.seq)
        assert [y for _, y in probs] == [1, 0]
        assert all(p == 0.5 for p, _ in probs)


class TestTrainStep:
    def make_items(self, n=6, seed=0):
        rng = np.random.default_rng(seed)
        from depcoder.synth import generate_function
        listing = "\n".join("\n".join(generate_function(f"f{i}", rng))
                            for i in range(n)) + "\n"
        corpus = Corpus.from_text(listing, RunConfig(dropout=0.1))
        items = corpus.functions
        cfg = EncoderConfig(layers=2, heads=2, hidden=32, ffn=64,
                            vocab_size=len(corpus.vocab))
        return items, EncoderState.init(cfg, seed)

    def test_loss_decomposition(self):
        items, state = self.make_items()
        opt = AdamW(total_steps=10, warmup_steps=2)
        m = train_step(items[:4], state, opt, np.random.default_rng(0))
        assert m.total == pytest.approx(m.mlm_loss + m.mdm_loss, abs=1e-6)

    def test_bitwise_reproducible(self):
        items1, state1 = self.make_items(seed=4)
        items2, state2 = self.make_items(seed=4)
        opt1 = AdamW(total_steps=5, warmup_steps=1)
        opt2 = AdamW(total_steps=5, warmup_steps=1)
        rng1, rng2 = np.random.default_rng(2), np.random.default_rng(2)
        for _ in range(5):
            train_step(items1[:3], state1, opt1, rng1)
            train_step(items2[:3], state2, opt2, rng2)
        for name in state1.params:
            assert np.array_equal(state1.params[name], state2.params[name]), name

    def test_loss_decreases_on_overfit(self):
        items, state = self.make_items(n=4, seed=1)
        opt = AdamW(lr=3e-4, total_steps=60, warmup_steps=5)
        rng = np.random.default_rng(0)
        losses = [train_step(items, state, opt, rng).total for _ in range(60)]
        assert np.mean(losses[-5:]) < 0.6 * np.mean(losses[:5])

    def test_perturbation_soundness_no_attention_over_deleted(self):
        _, art = small_artifact()
        corpus, _ = small_artifact()
        cfg = EncoderConfig(layers=2, heads=2, hidden=16, ffn=32,
                            vocab_size=len(corpus.vocab), dtype="float64")
        state = EncoderState.init(cfg, 0)
        t, s = json.loads(art.con.to_json())["edges"][0][:2]
        sample = EdgeSample(nodes=[t], positives=[(t, s)], negatives=[])
        perturbed = perturb_bundle(art.seq, art.con.dist, sample)
        trace = encode(art.seq.tokens, perturbed, state)
        dist = art.con.dist.copy()
        dist[t, s] = dist[s, t] = 0
        want_m, _ = naive_mask_bundle(art.seq, SimpleNamespace(dist=dist))
        pair_ij = np.stack(np.divmod(trace.pairs.flat, len(art.seq)), axis=1)
        assert np.array_equal(pair_ij, np.argwhere(want_m == 0))
        pt, ps = art.seq.inst_positions[t], art.seq.inst_positions[s]
        for c in trace.caches:
            probs = trace.pairs.scatter(c.probs)
            assert probs[:, pt, ps].max() < 1e-12
            assert probs[:, ps, pt].max() < 1e-12
            assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6)


class TestSchedule:
    def test_linear_warmup_then_decay(self):
        opt = AdamW(lr=1.0, warmup_steps=10, total_steps=110)
        assert opt.schedule(5) == pytest.approx(0.5)
        assert opt.schedule(10) == pytest.approx(1.0)
        assert opt.schedule(60) == pytest.approx(0.5)
        assert opt.schedule(110) == pytest.approx(0.0)

    def test_clipping_bounds_update_norm(self):
        params = {"w": np.zeros(4)}
        opt = AdamW(lr=0.1, warmup_steps=0, total_steps=10, clip_norm=1.0,
                    weight_decay=0.0)
        big = {"w": np.full(4, 100.0)}
        opt.apply(params, big)
        assert np.isfinite(params["w"]).all()


class TestAdamW:
    def test_nonfinite_gradient_raises_before_any_update(self):
        params = {"a": np.ones(3), "b": np.ones((2, 2))}
        opt = AdamW(lr=0.1, warmup_steps=0, total_steps=10)
        opt.apply(params, {"a": np.full(3, 0.5), "b": np.full((2, 2), 0.5)})
        before = {k: v.copy() for k, v in params.items()}
        m, v = ({k: a.copy() for k, a in d.items()} for d in (opt.m, opt.v))
        for bad in (np.nan, np.inf):
            grads = {"a": np.full(3, 0.5), "b": np.array([[0.5, 0.5], [bad, 0.5]])}
            with pytest.raises(NumericsError, match="parameter 'b'"):
                opt.apply(params, grads)
            assert opt.step_count == 1
            for name in params:
                assert np.array_equal(params[name], before[name])
                assert np.array_equal(opt.m[name], m[name])
                assert np.array_equal(opt.v[name], v[name])

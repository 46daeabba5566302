import json
from types import SimpleNamespace

import numpy as np
import pytest

from depcoder.config import RunConfig
from depcoder.connectivity import ConnectivityGraph
from depcoder.corpus import Corpus
from depcoder.encoder import (EncoderConfig, EncoderState, ForwardTrace, NumericsError, backward,
                              encode)
from depcoder.frontend import (CLS_ID, FIRST_REGULAR_ID, INST_ID, MASK_ID, PAD_ID, UNK_ID,
                               TokenSequence)
from depcoder.masks import build_bundle
from depcoder.pretrain import (AdamW, EdgeSample, edge_probabilities,
                               eligible_positions, inst_rows, loss_rows, mdm_loss, mdm_sample,
                               mlm_loss, mlm_perturb, perturb_batch, perturb_bundle,
                               train_step)

from oracles import dense_from_pairs, loop_mdm_loss, naive_mask_bundle, per_array_adamw


def fabricated_seq(n_eligible=100):
    """[CLS] + one giant instruction of regular tokens."""
    tokens = [CLS_ID, INST_ID] + [FIRST_REGULAR_ID + (i % 5) for i in range(n_eligible)]
    surface = ["[CLS]", "<INST>"] + [f"t{i % 5}" for i in range(n_eligible)]
    inst_of = [-1] + [0] * (n_eligible + 1)
    return TokenSequence(tokens=tokens, surface=surface, inst_of=inst_of,
                         inst_positions={0: 1})


def edge_sample(nodes=(), positives=(), negatives=()):
    """An ``EdgeSample`` of the instruction indices ``nodes`` and the edge lists."""
    edges = [np.array(e, dtype=np.int64).reshape(-1, 2) for e in (positives, negatives)]
    return EdgeSample(np.array(nodes, dtype=np.int64), *edges)


def complete_connectivity(n):
    dist = np.ones((n, n), dtype=np.int32)
    np.fill_diagonal(dist, 0)
    return ConnectivityGraph(n_nodes=n, dist=dist)


def assert_mlm_rate_and_split(tokens):
    """Over 10,000 draws on the token ids ``tokens``, which hold 100
    eligible tokens: 15% masked, of which 80/10/10 by kind."""
    rng = np.random.default_rng(0)
    n_masked = 0
    kinds = {"mask-token": 0, "random-token": 0, "unchanged": 0}
    trials = 10_000
    for _ in range(trials):
        _, pert = mlm_perturb(tokens, vocab_size=30, rng=rng)
        n_masked += len(pert)
        for k in pert.kinds:
            kinds[k] += 1
    frac = n_masked / (100 * trials)
    assert abs(frac - 0.15) < 0.01
    total = sum(kinds.values())
    assert abs(kinds["mask-token"] / total - 0.8) < 0.02
    assert abs(kinds["random-token"] / total - 0.1) < 0.02
    assert abs(kinds["unchanged"] / total - 0.1) < 0.02


class TestMlmPerturb:
    def test_monte_carlo_fraction_and_split(self):
        assert_mlm_rate_and_split(fabricated_seq(100).tokens)

    def test_packed_batch_fraction_and_split(self):
        # four functions' 25 eligible tokens each, with their [CLS] and <INST> between
        assert_mlm_rate_and_split(np.concatenate([fabricated_seq(25).tokens] * 4))

    def test_specials_never_selected(self):
        seq = fabricated_seq(30)
        rng = np.random.default_rng(1)
        for _ in range(200):
            ids, pert = mlm_perturb(seq.tokens, vocab_size=30, rng=rng)
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
        ids, pert = mlm_perturb(seq.tokens, vocab_size=30, rng=np.random.default_rng(0))
        assert len(pert) == 0
        assert list(ids) == [CLS_ID]

    def test_seed_reproducible(self):
        seq = fabricated_seq(50)
        a = mlm_perturb(seq.tokens, 30, np.random.default_rng(7))
        b = mlm_perturb(seq.tokens, 30, np.random.default_rng(7))
        assert np.array_equal(a[0], b[0])
        assert a[1].positions == b[1].positions and a[1].kinds == b[1].kinds

    def test_eligible_positions(self):
        seq = fabricated_seq(10)
        assert eligible_positions(np.array(seq.tokens)).tolist() == list(range(2, 12))

    def test_reserved_tokens_other_than_the_markers_are_eligible(self):
        # [UNK] and the immediate and address placeholders stand for text
        tokens = np.arange(FIRST_REGULAR_ID + 2)
        want = [t for t in tokens.tolist() if t not in (CLS_ID, INST_ID, PAD_ID, MASK_ID)]
        assert eligible_positions(tokens).tolist() == want
        assert UNK_ID in want and len(want) > 3


class TestMdmSample:
    def test_empty_graph(self):
        con = ConnectivityGraph(n_nodes=5, dist=np.zeros((5, 5), dtype=np.int32))
        sample = mdm_sample([con], [5], np.random.default_rng(0))
        assert sample.positives.shape == sample.negatives.shape == (0, 2)

    def test_complete_graph_exhausts_negatives(self):
        con = complete_connectivity(5)
        sample = mdm_sample([con], [5], np.random.default_rng(0))
        assert len(sample.positives) and sample.negatives.shape == (0, 2)

    def test_node_fraction(self):
        con = complete_connectivity(20)
        rng = np.random.default_rng(0)
        fracs = [len(mdm_sample([con], [20], rng).nodes) / 20 for _ in range(10_000)]
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
            sample = mdm_sample([con], [n], rng)
            in_s = set(sample.nodes.tolist())
            assert sample.nodes.tolist() == sorted(in_s)
            touched = [(u, v) for u in range(n) for v in range(u + 1, n)
                       if u in in_s or v in in_s]
            candidates = [(u, v) for u, v in touched if con.dist[u, v] == 0]
            assert sample.positives.shape[1:] == sample.negatives.shape[1:] == (2,)
            positives, negatives = ([tuple(e) for e in edges.tolist()]
                                    for edges in (sample.positives, sample.negatives))
            assert positives == [(u, v) for u, v in touched if con.dist[u, v] > 0]
            assert set(negatives) <= set(candidates)
            assert negatives == sorted(negatives)
            assert len(negatives) == min(len(positives), len(candidates))
            assert not (set(positives) & set(negatives))

    def test_positives_touch_sampled_nodes(self):
        rng = np.random.default_rng(11)
        con = complete_connectivity(10)
        sample = mdm_sample([con], [10], rng)
        in_s = set(sample.nodes.tolist())
        assert all(u in in_s or v in in_s for u, v in sample.positives.tolist())


def random_connectivity(rng, n, p=0.3):
    dist = np.zeros((n, n), dtype=np.int32)
    linked = np.triu(rng.random((n, n)) < p, 1)
    dist[linked | linked.T] = 1
    return ConnectivityGraph(n_nodes=n, dist=dist)


class TestBatchSample:
    """``mdm_sample`` over a batch samples each function on its own."""

    @pytest.mark.parametrize("node_frac", [0.4, 0.25, 1.0])
    def test_each_function_keeps_its_sample_invariants(self, node_frac):
        rng = np.random.default_rng(5)
        for _ in range(100):
            sizes = rng.integers(0, 16, size=int(rng.integers(1, 6))).tolist()
            cons = [random_connectivity(rng, n) for n in sizes]
            sample = mdm_sample(cons, sizes, rng, node_frac)
            assert np.array_equal(sample.nodes, np.unique(sample.nodes))
            first = 0
            for con, n in zip(cons, sizes):
                def mine(edges):
                    return [(u - first, v - first) for u, v in edges.tolist()
                            if first <= u < first + n]

                nodes = {u - first for u in sample.nodes.tolist() if first <= u < first + n}
                assert len(nodes) == int(round(node_frac * n))
                touched = [(u, v) for u in range(n) for v in range(u + 1, n)
                           if u in nodes or v in nodes]
                candidates = [(u, v) for u, v in touched if con.dist[u, v] == 0]
                positives, negatives = mine(sample.positives), mine(sample.negatives)
                assert positives == [(u, v) for u, v in touched if con.dist[u, v] > 0]
                assert set(negatives) <= set(candidates) and negatives == sorted(negatives)
                assert len(negatives) == min(len(positives), len(candidates))
                first += n
            # no edge joins two functions: both ends fall in one function's range
            owner = np.repeat(np.arange(len(sizes)), sizes)
            for edges in (sample.positives, sample.negatives):
                assert edges.shape[1:] == (2,) and np.all(edges[:, 0] < edges[:, 1])
                assert np.array_equal(owner[edges[:, 0]], owner[edges[:, 1]])

    def test_negatives_are_drawn_uniformly_within_a_function(self):
        # with instructions 0 and 1 of a 3-node path sampled, the one positive
        # edge (0, 1) gets one of the two candidates, each half the time; the
        # second function, fully linked, has no candidate
        path = np.zeros((3, 3), dtype=np.int32)
        path[0, 1] = path[1, 0] = 1
        cons = [ConnectivityGraph(n_nodes=3, dist=path), complete_connectivity(4)]
        rng = np.random.default_rng(9)
        counts = {}
        trials = 0
        while trials < 6000:
            sample = mdm_sample(cons, [3, 4], rng, 2 / 3)
            if sample.nodes[:2].tolist() != [0, 1]:
                continue
            trials += 1
            (edge,) = sample.negatives.tolist()
            counts[tuple(edge)] = counts.get(tuple(edge), 0) + 1
        assert set(counts) == {(0, 2), (1, 2)}
        assert all(abs(c / trials - 0.5) < 0.03 for c in counts.values())


def per_function_masks(items, sample):
    """Each function's mask over a copy of its distances with the sample's
    edges in it deleted and injected, one function at a time."""
    masks, first = [], 0
    for item in items:
        k = item.seq.n_instructions
        dist = item.con.dist[:k, :k].copy()
        for edges, value in ((sample.positives, 0), (sample.negatives, 1)):
            mine = edges[(edges[:, 0] >= first) & (edges[:, 0] < first + k)] - first
            dist[mine[:, 0], mine[:, 1]] = dist[mine[:, 1], mine[:, 0]] = value
        masks.append(build_bundle(item.seq, dist))
        first += k
    return masks


def assert_per_function_masks(pairs, items, sample):
    """The packed perturbed mask is the per-function masks laid end to end, exactly."""
    masks = per_function_masks(items, sample)
    assert len(pairs.segments) == len(masks) and len(pairs) == sum(len(m) for m in masks)
    for seg, mask in zip(pairs.segments, masks):
        assert (seg.n, seg.pairs.stop - seg.pairs.start) == (mask.n, len(mask))
        assert np.array_equal(seg.flat, mask.flat)
        block = slice(seg.row, seg.row + seg.n)
        assert np.array_equal(pairs.R[block, block], mask.R)
    owner = np.repeat(np.arange(len(items)), [len(item.seq) for item in items])
    i, j = np.divmod(pairs.flat, pairs.n)
    assert np.array_equal(owner[i], owner[j])


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
        sample = edge_sample()
        out = perturb_bundle([art.seq], [art.con.dist], sample)
        assert np.array_equal(out.flat, art.bundle.flat)
        assert np.array_equal(out.biased, art.bundle.biased)
        assert np.array_equal(out.r, art.bundle.r)

    def test_delete_is_symmetric(self):
        _, art = small_artifact()
        t, s = json.loads(art.con.to_json())["edges"][0][:2]
        sample = edge_sample([t], [(t, s)])
        out = pair_distances(perturb_bundle([art.seq], [art.con.dist], sample))
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
        sample = edge_sample([t], negatives=[(t, s)])
        out = pair_distances(perturb_bundle([art.seq], [art.con.dist], sample))
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
        perturb_bundle([art.seq], [art.con.dist], edge_sample([t], [(t, s)], [non_edge]))
        assert np.array_equal(art.con.dist, before)


    def test_packed_mask_is_the_per_function_masks_end_to_end(self):
        items, _ = TestTrainStep().make_items(n=6, seed=2)
        rng = np.random.default_rng(4)
        for node_frac in (0.4, 1.0):
            sample = mdm_sample([item.con for item in items],
                                [item.seq.n_instructions for item in items], rng, node_frac)
            assert len(sample.positives) and len(sample.negatives)
            pairs = perturb_bundle([item.seq for item in items],
                                   [item.con.dist for item in items], sample)
            assert_per_function_masks(pairs, items, sample)

    def test_edits_that_cannot_be_made_raise(self):
        items, _ = TestTrainStep().make_items(n=2, seed=2)
        seqs, dists = [item.seq for item in items], [item.con.dist for item in items]
        k = items[0].seq.n_instructions
        linked = np.argwhere(np.triu(items[0].con.dist[:k, :k], 1))
        unlinked = np.argwhere(np.triu(items[0].con.dist[:k, :k] == 0, 1))
        with pytest.raises(ValueError, match="not connected"):
            build_bundle(seqs, dists, removed=unlinked[:1])
        with pytest.raises(ValueError, match="is connected or joins"):
            build_bundle(seqs, dists, added=linked[:1])
        with pytest.raises(ValueError, match="is connected or joins"):
            build_bundle(seqs, dists, added=[(0, k)])  # the second function's first instruction


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
        ids, pert = mlm_perturb(art.seq.tokens, len(corpus.vocab), rng, rate=0.5)
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
        sample = edge_sample([0], [(0, 1)], [(0, 4)])
        loss, _ = mdm_loss(fake_trace(final), sample, inst_rows([art.seq]))
        assert loss == pytest.approx(2 * np.log(2), rel=1e-12)

    def test_mdm_perfect_separation(self):
        _, art = small_artifact()
        final = np.zeros((len(art.seq), 8))
        p0, p1, p4 = (art.seq.inst_positions[t] for t in (0, 1, 4))
        final[p0, 0] = final[p1, 0] = 40.0   # aligned -> dot 1600
        final[p4, 0] = -40.0                 # anti-aligned -> dot -1600
        sample = edge_sample([0], [(0, 1)], [(0, 4)])
        loss, _ = mdm_loss(fake_trace(final), sample, inst_rows([art.seq]))
        assert loss < 1e-6

    def test_edge_probabilities_labels(self):
        _, art = small_artifact()
        final = np.zeros((len(art.seq), 8))
        sample = edge_sample([0], [(0, 1)], [(0, 4)])
        probs = edge_probabilities(fake_trace(final), sample, inst_rows([art.seq]))
        assert [y for _, y in probs] == [1, 0]
        assert all(p == 0.5 for p, _ in probs)


    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("edges", ["sharing_endpoints", "none"])
    def test_mdm_loss_matches_the_per_edge_loop(self, dtype, edges):
        _, art = small_artifact()
        final = np.random.default_rng(3).standard_normal((len(art.seq), 8)).astype(dtype)
        if edges == "none":
            sample = edge_sample()
        else:  # instruction 0, 1 and 5 each end more than one edge
            sample = edge_sample([0, 1], [(0, 1), (1, 2), (0, 3)], [(0, 4), (1, 5), (2, 5)])
        loss, dh = mdm_loss(fake_trace(final), sample, inst_rows([art.seq]))
        want_loss, want_dh = loop_mdm_loss(final, sample, art.seq)
        tol = 1e-12 if dtype == np.float64 else 1e-5
        assert dh.dtype == dtype
        assert loss == pytest.approx(want_loss, rel=tol, abs=tol)
        assert np.allclose(dh, want_dh, rtol=tol, atol=tol)
        probs = edge_probabilities(fake_trace(final), sample, inst_rows([art.seq]))
        assert [y for _, y in probs] == [1] * len(sample.positives) + [0] * len(sample.negatives)
        assert all(0.0 < p < 1.0 for p, _ in probs)


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

    def test_one_pass_per_step(self, monkeypatch):
        from depcoder import pretrain

        items, state = self.make_items()
        calls = []
        for name in ("encode", "mlm_loss", "mdm_loss", "backward"):
            def counted(*args, _name=name, _fn=getattr(pretrain, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(pretrain, name, counted)
        train_step(items[:5], state, AdamW(total_steps=4, warmup_steps=1),
                   np.random.default_rng(0))
        assert sorted(calls) == ["backward", "encode", "mdm_loss", "mlm_loss"]

    def test_packed_batch_is_the_batch_perturbed_in_one_step(self):
        items, state = self.make_items()
        vocab = state.config.vocab_size
        batch = perturb_batch(items, vocab, np.random.default_rng(7), 0.3, 0.5)
        rng = np.random.default_rng(7)
        ids, pert = mlm_perturb(np.concatenate([item.seq.tokens for item in items]), vocab,
                                rng, 0.3)
        sample = mdm_sample([item.con for item in items],
                            [item.seq.n_instructions for item in items], rng, 0.5)
        assert np.array_equal(batch.ids, ids)
        assert (batch.pert.positions, batch.pert.kinds, batch.pert.original) == (
            pert.positions, pert.kinds, pert.original)
        for name in ("nodes", "positives", "negatives"):
            assert np.array_equal(getattr(batch.sample, name), getattr(sample, name))
        row = inst = 0
        for item, seg in zip(items, batch.pairs.segments):
            assert (seg.row, seg.n) == (row, len(item.seq))
            assert np.array_equal(batch.rows[inst:inst + item.seq.n_instructions],
                                  inst_rows([item.seq]) + row)
            row, inst = row + seg.n, inst + item.seq.n_instructions
        assert row == len(batch.ids) == batch.pairs.n and len(batch.rows) == inst
        assert_per_function_masks(batch.pairs, items, batch.sample)

    def test_gradcheck_runs_on_a_packed_batch(self):
        from depcoder.gradcheck import build_setup

        segments = build_setup().batch.pairs.segments
        assert len(segments) == 2 and segments[0].n != segments[1].n

    def test_the_last_layer_runs_at_the_loss_rows(self, monkeypatch):
        from depcoder import pretrain

        items, state = self.make_items()
        traces = []
        monkeypatch.setattr(pretrain, "encode",
                            lambda *a, **k: traces.append(encode(*a, **k)) or traces[-1])
        batch = perturb_batch(items[:5], state.config.vocab_size, np.random.default_rng(0))
        train_step(items[:5], state, AdamW(total_steps=4, warmup_steps=1),
                   np.random.default_rng(0))
        edges = np.concatenate([batch.sample.positives, batch.sample.negatives])
        want = sorted({*batch.pert.positions, *batch.rows[edges].ravel().tolist()})
        assert np.array_equal(traces[0].rows, want) and np.array_equal(loss_rows(batch), want)
        assert 0 < len(want) < batch.pairs.n

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_losses_and_gradients_agree_with_the_full_pass(self, dtype):
        items, trained = self.make_items()
        cfg = EncoderConfig(layers=2, heads=2, hidden=32, ffn=64, dtype=dtype, dropout=0.0,
                            vocab_size=trained.config.vocab_size)
        state = EncoderState.init(cfg, 1)
        batch = perturb_batch(items, cfg.vocab_size, np.random.default_rng(3))
        results = []
        for rows in (None, loss_rows(batch)):
            trace = encode(batch.ids, batch.pairs, state, rows=rows)
            l_mlm, dh_mlm, head = mlm_loss(trace, batch.pert, state)
            l_mdm, dh_mdm = mdm_loss(trace, batch.sample, batch.rows)
            grads = state.zero_grads()
            for k, g in head.items():
                grads[k] += g
            backward(trace, dh_mlm + dh_mdm, state, grads)
            results.append((l_mlm, l_mdm, grads))
        (full_mlm, full_mdm, full), (mlm, mdm, pruned) = results
        tol = {"rtol": 1e-12, "atol": 1e-12} if dtype == "float64" else {"rtol": 1e-5, "atol": 1e-5}
        assert mlm == pytest.approx(full_mlm, rel=tol["rtol"])
        assert mdm == pytest.approx(full_mdm, rel=tol["rtol"])
        for name in state.params:
            np.testing.assert_allclose(pruned[name], full[name], **tol, err_msg=name)

    def test_gradcheck_checks_the_pruned_last_layer(self, monkeypatch):
        from depcoder import gradcheck

        traces = []
        monkeypatch.setattr(gradcheck, "encode",
                            lambda *a, **k: traces.append(encode(*a, **k)) or traces[-1])
        setup = gradcheck.build_setup()
        gradcheck.total_loss(setup)
        rows = traces[0].rows
        assert rows is not None and 0 < len(rows) < setup.batch.pairs.n
        assert {p for p, _ in setup.labels} <= set(rows.tolist())
        assert set(loss_rows(setup.batch).tolist()) <= set(rows.tolist())
        # acceptance criterion 5 runs the finite-difference check itself on this path

    def test_perturbation_soundness_no_attention_over_deleted(self):
        _, art = small_artifact()
        corpus, _ = small_artifact()
        cfg = EncoderConfig(layers=2, heads=2, hidden=16, ffn=32,
                            vocab_size=len(corpus.vocab), dtype="float64")
        state = EncoderState.init(cfg, 0)
        t, s = json.loads(art.con.to_json())["edges"][0][:2]
        sample = edge_sample([t], [(t, s)])
        perturbed = perturb_bundle([art.seq], [art.con.dist], sample)
        trace = encode(art.seq.tokens, perturbed, state)
        dist = art.con.dist.copy()
        dist[t, s] = dist[s, t] = 0
        want_m, _ = naive_mask_bundle(art.seq, SimpleNamespace(dist=dist))
        pair_ij = np.stack(np.divmod(trace.pairs.flat, len(art.seq)), axis=1)
        assert np.array_equal(pair_ij, np.argwhere(want_m == 0))
        pt, ps = art.seq.inst_positions[t], art.seq.inst_positions[s]
        for c in trace.caches:
            probs = dense_from_pairs(trace.pairs, c.probs)
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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("params", ["encoder", "train_mlc_head"])
    def test_flat_update_matches_the_per_array_reference(self, dtype, params):
        if params == "encoder":  # layer norms, biases and beta take no weight decay
            shapes = {"tok_emb": (7, 4), "beta": (2, 5), "l0.wq": (2, 4, 2), "l0.ln1_g": (4,),
                      "l0.ln1_b": (4,), "l0.b1": (6,), "mlm_b": (7,), "l0.w1": (4, 6)}
            decayed = {"tok_emb", "l0.wq", "l0.w1"}
        else:
            shapes = {"query": (4,), "w": (4, 3), "b": (3,)}
            decayed = set(shapes)
        rng = np.random.default_rng(9)
        params = {k: rng.standard_normal(shape).astype(dtype) for k, shape in shapes.items()}
        ref = {k: p.astype(np.float64) for k, p in params.items()}
        ref_m, ref_v = {}, {}
        opt = AdamW(lr=0.05, warmup_steps=2, total_steps=8, weight_decay=0.1, clip_norm=1.0)
        tol = {"rtol": 1e-10, "atol": 1e-12} if dtype == np.float64 else {"rtol": 1e-5, "atol": 1e-6}
        clipped = 0
        for step in range(1, 7):
            scale = 3.0 if step % 2 else 0.01  # clipping fires on every other step
            grads = {k: (scale * rng.standard_normal(shape)).astype(dtype)
                     for k, shape in shapes.items()}
            clipped += sum(float((g.astype(np.float64) ** 2).sum()) for g in grads.values()) > 1.0
            lr = opt.apply(params, grads)
            per_array_adamw(ref, grads, ref_m, ref_v, step, lr, decayed, weight_decay=0.1)
            for k in shapes:
                assert params[k].dtype == opt.m[k].dtype == dtype
                assert np.allclose(params[k], ref[k], **tol), (step, k)
                assert np.allclose(opt.m[k], ref_m[k], **tol), (step, k)
                assert np.allclose(opt.v[k], ref_v[k], **tol), (step, k)
        assert clipped == 3

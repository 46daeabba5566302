import copy
import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from depcoder.config import RunConfig
from depcoder.corpus import Corpus
from depcoder.downstream import DEFAULT_TYPE_LABELS, type_inference_loss
from depcoder.encoder import (EncoderConfig, EncoderState, NumericsError, _gelu, _gelu_grad,
                              _layer_norm, _layer_norm_backward, backward, embed_inputs, encode,
                              rma_attention)
from depcoder.masks import AttentionPairs, build_bundle
from depcoder.synth import generate_function, reorder_variant

from generators import LONG_FUNCTION
from oracles import (dense_from_pairs, mean_layer_norm, mean_layer_norm_backward,
                     naive_mask_bundle, tanh_gelu, tanh_gelu_grad)

LISTING = """\
.func f
mov rax, 7
mov rbx, rax
add rbx, rax
mov [rsp + 8], rbx
mov rcx, [rsp + 8]
imul rcx, rax
ret
"""


@pytest.fixture(scope="module")
def corpus():
    return Corpus.from_text(LISTING, RunConfig(dtype="float64", dropout=0.0))


@pytest.fixture(scope="module")
def art(corpus):
    return corpus.functions[0]


def make_state(corpus, seed=0, layers=2, hidden=16, heads=2, dtype="float64", max_len=128):
    cfg = EncoderConfig(layers=layers, heads=heads, hidden=hidden, ffn=2 * hidden,
                        vocab_size=len(corpus.vocab), max_len=max_len, r_max=8,
                        dropout=0.0, dtype=dtype)
    return EncoderState.init(cfg, seed)


class TestEmbedding:
    def test_zero_tables_give_zero(self, corpus, art):
        state = make_state(corpus)
        state.params["tok_emb"][:] = 0
        state.params["pos_emb"][:] = 0
        assert np.all(embed_inputs(np.array(art.seq.tokens), state, np.arange(len(art.seq))) == 0)

    def test_position_perturbation_is_local(self, corpus, art):
        state = make_state(corpus)
        ids = np.array(art.seq.tokens)
        base = embed_inputs(ids, state, np.arange(len(ids)))
        state.params["pos_emb"][3] += 1.0
        bumped = embed_inputs(ids, state, np.arange(len(ids)))
        diff = np.abs(bumped - base).sum(axis=1)
        assert diff[3] > 0
        assert np.all(diff[np.arange(len(ids)) != 3] == 0)

    def test_shape(self, corpus, art):
        state = make_state(corpus)
        out = embed_inputs(np.array(art.seq.tokens), state, np.arange(len(art.seq)))
        assert out.shape == (len(art.seq), state.config.hidden)

    def test_overflow_rejected(self, corpus):
        state = make_state(corpus)
        with pytest.raises(ValueError, match="max_len"):
            embed_inputs(np.zeros(129, dtype=int), state, np.arange(129))


class TestAttention:
    def test_self_only_mask_returns_value_rows(self, corpus, art):
        state = make_state(corpus)
        n = len(art.seq)
        pairs = AttentionPairs(n, np.arange(n) * (n + 1), np.zeros(n, dtype=np.int32))
        h = np.asarray(np.random.default_rng(0).standard_normal((n, 16)))
        _, (q, k, v, probs, _, z_cat) = rma_attention(h, pairs, 0, state)
        assert probs.shape == (state.config.heads, n)
        assert np.allclose(dense_from_pairs(pairs, probs), np.eye(n)[None, :, :])
        dk = state.config.head_dim
        for head in range(state.config.heads):
            assert np.allclose(z_cat[:, head * dk:(head + 1) * dk], v[head])

    def test_zero_bias_degeneracy(self, corpus, art):
        state = make_state(corpus)
        trace_with_r = encode(art.seq.tokens, art.bundle, state)
        flat = art.bundle.flat
        no_r = AttentionPairs(len(art.seq), flat, np.zeros(len(flat), dtype=np.int32))
        assert len(art.bundle.r) and not len(no_r.r)
        trace_without = encode(art.seq.tokens, no_r, state)
        assert np.array_equal(trace_with_r.final, trace_without.final)
        state.params["beta"][:] = 0.3
        assert not np.array_equal(encode(art.seq.tokens, art.bundle, state).final,
                                  trace_without.final)

    def test_clamp_uses_r_max_bucket(self, corpus, art):
        state = make_state(corpus)
        state.params["beta"][:] = np.random.default_rng(1).standard_normal(
            state.params["beta"].shape)
        k = art.seq.n_instructions
        linked = art.con.dist[:k, :k] > 0
        big = build_bundle(art.seq, np.where(linked, 12, 0))
        clamped = build_bundle(art.seq, np.where(linked, state.config.r_max, 0))
        assert np.array_equal(big.flat, art.bundle.flat) and np.all(big.r == 12)
        out_big = encode(art.seq.tokens, big, state).final
        out_clamped = encode(art.seq.tokens, clamped, state).final
        assert np.array_equal(out_big, out_clamped)

    def test_masking_exactness_random_models(self, corpus, art):
        for seed in range(5):
            state = make_state(corpus, seed=seed)
            state.params["beta"][:] = 0.1 * seed
            trace = encode(art.seq.tokens, art.bundle, state)
            want_m, _ = naive_mask_bundle(art.seq, art.con)
            masked = want_m < -1e8
            pair_ij = np.stack(np.divmod(trace.pairs.flat, len(art.seq)), axis=1)
            assert np.array_equal(pair_ij, np.argwhere(want_m == 0))
            for c in trace.caches:
                probs = dense_from_pairs(trace.pairs, c.probs)
                assert probs[:, masked].max() < 1e-12
                assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6)

    def test_pairs_reject_a_row_with_no_enabled_entry(self, art):
        n, flat = len(art.seq), art.bundle.flat
        keep = flat // n != 2
        with pytest.raises(RuntimeError, match=r"rows \[2\]"):
            AttentionPairs(n, flat[keep], np.zeros(np.count_nonzero(keep), dtype=np.int32))

    def test_pairs_hold_the_distances_at_the_enabled_entries(self, art):
        pairs = art.bundle
        want_m, want_r = naive_mask_bundle(art.seq, art.con)
        r = want_r.ravel()[pairs.flat]
        assert np.array_equal(pairs.biased, np.flatnonzero(r))
        assert np.array_equal(pairs.r, r[r > 0])
        assert np.array_equal(np.sort(pairs.r), np.sort(want_r[want_r > 0]))
        assert np.array_equal(pairs.counts, (want_m == 0).sum(axis=1))
        assert np.array_equal(pairs.flat[pairs.starts], np.arange(pairs.n) * pairs.n
                              + np.argmax(want_m == 0, axis=1))

    def test_bias_locality(self, corpus, art):
        state = make_state(corpus)
        state.params["beta"][:] = 0.05
        base = encode(art.seq.tokens, art.bundle, state).final
        # no pair sits at the clamped distance 7 -> bitwise identical output
        assert not np.any(np.minimum(art.bundle.r, 8) == 7)
        state.params["beta"][:, 7] += 3.0
        assert np.array_equal(encode(art.seq.tokens, art.bundle, state).final, base)
        # distance 1 pairs exist -> output must move
        state.params["beta"][:, 1] += 3.0
        assert not np.array_equal(encode(art.seq.tokens, art.bundle, state).final, base)


class TestBlockAndEncode:
    def test_deterministic(self, corpus, art):
        state = make_state(corpus)
        a = encode(art.seq.tokens, art.bundle, state).final
        b = encode(art.seq.tokens, art.bundle, state).final
        assert np.array_equal(a, b)

    def test_cls_only_sequence(self, corpus):
        state = make_state(corpus)
        empty = Corpus.from_text(".func g\n", RunConfig(dtype="float64"),
                                 vocab=corpus.vocab)
        art = empty.functions[0]
        trace = encode(art.seq.tokens, art.bundle, state)
        assert trace.final.shape == (1, 16)

    def test_hidden_states_per_layer(self, corpus, art):
        state = make_state(corpus, layers=3)
        trace = encode(art.seq.tokens, art.bundle, state)
        assert len(trace.caches) == 3
        assert np.array_equal(trace.caches[0].h_in,
                              embed_inputs(np.array(art.seq.tokens), state,
                                           np.arange(len(art.seq))))
        assert all(c.probs.shape == (2, len(trace.pairs)) for c in trace.caches)

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_no_cache_field_is_dense_in_the_sequence(self, corpus, art, dropout):
        # dk = 8 and N = 41, so only an (heads, N, N) array has a trailing (N, N)
        cfg = EncoderConfig(layers=2, heads=2, hidden=16, ffn=32,
                            vocab_size=len(corpus.vocab), max_len=128,
                            dropout=dropout, dtype="float64")
        state = EncoderState.init(cfg, 0)
        trace = encode(art.seq.tokens, art.bundle, state, rng=np.random.default_rng(0))
        n = len(art.seq)
        assert len(trace.pairs) < n * n
        for c in trace.caches:
            for f in dataclasses.fields(c):
                value = getattr(c, f.name)
                assert value is None or value.shape[-2:] != (n, n), f.name
            assert c.probs.shape == (2, len(trace.pairs))
            assert c.attn_drop is None or c.attn_drop.shape == c.probs.shape

    def test_without_an_rng_no_dropout_is_drawn(self, corpus, art):
        states = [make_state(corpus), make_state(corpus)]
        states[1].config.dropout = 0.5
        plain, dropped = (encode(art.seq.tokens, art.bundle, state) for state in states)
        assert np.array_equal(dropped.final, plain.final)
        for c, want in zip(dropped.caches, plain.caches):
            assert c.attn_drop is None and c.ffn_drop is None
            for f in dataclasses.fields(c):
                now, then = getattr(c, f.name), getattr(want, f.name)
                assert now is then is None or np.array_equal(now, then), f.name
        # the same model draws its dropout when it is given an rng
        drawn = encode(art.seq.tokens, art.bundle, states[1], rng=np.random.default_rng(0))
        assert all(c.attn_drop is not None and c.ffn_drop is not None for c in drawn.caches)
        assert not np.array_equal(drawn.final, plain.final)

    def test_reordered_program_same_cls_without_positions(self):
        rng = np.random.default_rng(8)
        cfg = RunConfig(dtype="float64", dropout=0.0)
        for trial in range(10):
            listing = "\n".join(generate_function(f"f{trial}", rng)) + "\n"
            corpus = Corpus.from_text(listing, cfg)
            base = corpus.functions[0]
            variant_fn, perm = reorder_variant(base.fn, rng, "g")
            if [i.raw_text for i in variant_fn.instructions] == \
                    [i.raw_text for i in base.fn.instructions]:
                continue
            from depcoder.corpus import compute_artifacts
            variant = compute_artifacts(variant_fn, corpus.vocab, cfg)
            state = make_state(corpus, seed=trial)
            state.params["pos_emb"][:] = 0.0
            a = encode(base.seq.tokens, base.bundle, state).cls_embedding
            b = encode(variant.seq.tokens, variant.bundle, state).cls_embedding
            assert np.allclose(a, b, atol=1e-9)
            state = make_state(corpus, seed=trial)  # absolute positions back on
            a = encode(base.seq.tokens, base.bundle, state).cls_embedding
            b = encode(variant.seq.tokens, variant.bundle, state).cls_embedding
            assert not np.allclose(a, b, atol=1e-9)

    def test_nonfinite_activation_raises(self, corpus, art):
        state = make_state(corpus)
        state.params["l0.w1"][:] = 1e308  # force inf - inf = nan inside the block
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericsError):
                encode(art.seq.tokens, art.bundle, state)


class TestBackward:
    def test_zero_upstream_gradient(self, corpus, art):
        state = make_state(corpus)
        trace = encode(art.seq.tokens, art.bundle, state)
        grads = backward(trace, np.zeros_like(trace.final), state)
        assert all(np.all(g == 0) for g in grads.values())

    def test_beta_index_zero_never_trained(self, corpus, art):
        state = make_state(corpus)
        state.params["beta"][:] = 0.2
        trace = encode(art.seq.tokens, art.bundle, state)
        grads = backward(trace, np.ones_like(trace.final), state)
        assert np.all(grads["beta"][:, 0] == 0)
        assert np.any(grads["beta"][:, 1:] != 0)

    def test_float32_model_computes_in_float32(self, corpus, art):
        state = make_state(corpus, dtype="float32")
        trace = encode(art.seq.tokens, art.bundle, state)
        for c in trace.caches:
            assert c.probs.dtype == np.float32
            assert c.z_cat.dtype == np.float32
        assert trace.final.dtype == np.float32
        grads = backward(trace, np.ones_like(trace.final), state)
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}

    def test_dropout_masks_are_applied_in_backward(self, corpus, art):
        cfg = EncoderConfig(layers=1, heads=2, hidden=16, ffn=32,
                            vocab_size=len(corpus.vocab), max_len=128,
                            dropout=0.5, dtype="float64")
        state = EncoderState.init(cfg, 0)
        rng = np.random.default_rng(0)
        trace = encode(art.seq.tokens, art.bundle, state, rng=rng)
        grads = backward(trace, np.ones_like(trace.final), state)
        assert np.isfinite(grads["tok_emb"]).all()

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_backward_leaves_the_trace_unchanged(self, corpus, art, dropout):
        cfg = EncoderConfig(layers=2, heads=2, hidden=16, ffn=32,
                            vocab_size=len(corpus.vocab), max_len=128,
                            dropout=dropout, dtype="float64")
        state = EncoderState.init(cfg, 0)
        trace = encode(art.seq.tokens, art.bundle, state, rng=np.random.default_rng(0))
        before = copy.deepcopy(trace.caches)
        d_final = np.random.default_rng(1).standard_normal(trace.final.shape)
        first = backward(trace, d_final, state)
        second = backward(trace, d_final, state)
        assert all(np.array_equal(first[name], second[name]) for name in first)
        for c, saved in zip(trace.caches, before):
            assert (c.attn_drop is None) == (dropout == 0.0)
            for f in dataclasses.fields(c):
                now, then = getattr(c, f.name), getattr(saved, f.name)
                assert now is then is None or np.array_equal(now, then), f.name


@pytest.fixture(scope="module")
def arts():
    """Four generated functions of different lengths."""
    rng = np.random.default_rng(5)
    listing = "".join("\n".join(generate_function(f"g{i}", rng)) + "\n" for i in range(4))
    arts = Corpus.from_text(listing, RunConfig()).functions
    assert len({len(a.seq) for a in arts}) == len(arts) >= 3
    return arts


class TestPacking:
    """A packed batch runs as its functions run one at a time."""

    @staticmethod
    def both(arts, state, d_finals):
        """(finals, gradients) of the packed batch, and of each function on its own."""
        packed = encode(np.concatenate([a.seq.tokens for a in arts]),
                        build_bundle([a.seq for a in arts], [a.con.dist for a in arts]), state)
        packed_grads = backward(packed, np.concatenate(d_finals), state)
        singles = [encode(a.seq.tokens, a.bundle, state) for a in arts]
        single_grads = state.zero_grads()
        for trace, d_final in zip(singles, d_finals):
            backward(trace, d_final, state, single_grads)
        return (packed, packed_grads), (singles, single_grads)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_forward_is_exact_and_gradients_agree(self, arts, dtype):
        cfg = EncoderConfig(layers=2, heads=2, hidden=16, ffn=32, max_len=128, r_max=8,
                            vocab_size=1 + max(max(a.seq.tokens) for a in arts),
                            dropout=0.0, dtype=dtype)
        state = EncoderState.init(cfg, 3)
        state.params["beta"][:] = np.random.default_rng(4).standard_normal(
            state.params["beta"].shape)
        rng = np.random.default_rng(6)
        d_finals = [rng.standard_normal((len(a.seq), 16)).astype(dtype) for a in arts]
        (packed, packed_grads), (singles, single_grads) = self.both(arts, state, d_finals)
        assert np.array_equal(packed.final, np.concatenate([t.final for t in singles]))
        for layer, c in enumerate(packed.caches):
            assert np.array_equal(c.probs, np.concatenate([t.caches[layer].probs
                                                           for t in singles], axis=1))
        tol = {"rtol": 1e-12, "atol": 1e-12} if dtype == "float64" else {"rtol": 1e-5, "atol": 1e-5}
        for name in state.params:
            assert packed_grads[name].dtype == single_grads[name].dtype
            np.testing.assert_allclose(packed_grads[name], single_grads[name], **tol,
                                       err_msg=name)
        # positions restart at each function, so every function trains pos_emb's first rows
        assert np.any(packed_grads["pos_emb"][:len(arts[-1].seq)] != 0)
        assert np.all(packed_grads["pos_emb"][max(len(a.seq) for a in arts):] == 0)

    def test_rows_never_attend_across_functions(self, arts):
        pairs = build_bundle([a.seq for a in arts], [a.con.dist for a in arts])
        owner = np.repeat(np.arange(len(arts)), [len(a.seq) for a in arts])
        i, j = np.divmod(pairs.flat, pairs.n)
        assert np.array_equal(owner[i], owner[j])
        assert np.array_equal(pairs.positions,
                              np.concatenate([np.arange(len(a.seq)) for a in arts]))


class TestLastLayerRows:
    """Given the rows its caller reads, ``encode`` runs the last layer at those rows only."""

    @staticmethod
    def model(arts, dtype="float64", layers=2):
        cfg = EncoderConfig(layers=layers, heads=2, hidden=16, ffn=32, max_len=128, r_max=8,
                            vocab_size=1 + max(max(a.seq.tokens) for a in arts),
                            dropout=0.0, dtype=dtype)
        state = EncoderState.init(cfg, 3)
        state.params["beta"][:] = np.random.default_rng(4).standard_normal(
            state.params["beta"].shape)
        return state

    @staticmethod
    def batch(arts):
        """The packed ids and pairs, and rows read in the first, third and
        fourth segments; the second segment has none."""
        pairs = build_bundle([a.seq for a in arts], [a.con.dist for a in arts])
        seg = pairs.segments
        rows = np.array([seg[0].row, seg[0].row + 2, seg[2].row + 1, seg[2].row + 4,
                         seg[3].row + seg[3].n - 1])
        return np.concatenate([a.seq.tokens for a in arts]), pairs, rows

    @pytest.mark.parametrize("layers", [1, 2])
    def test_selected_rows_equal_the_full_pass(self, arts, layers):
        state = self.model(arts, layers=layers)
        ids, pairs, rows = self.batch(arts)
        full = encode(ids, pairs, state)
        pruned = encode(ids, pairs, state, rows=rows)
        assert pruned.final.shape == (len(rows), 16)
        assert np.array_equal(pruned.rows, rows) and full.rows is None
        np.testing.assert_allclose(pruned.final, full.final[rows], rtol=1e-12, atol=1e-12)
        for c, want in zip(pruned.caches[:-1], full.caches[:-1]):
            assert np.array_equal(c.probs, want.probs)
        # the last layer's weights are the full layer's rows at the selected rows
        top = pruned.caches[-1]
        assert top.probs.shape == (2, len(pruned.last_pairs)) and top.q.shape[1] == len(rows)
        np.testing.assert_allclose(dense_from_pairs(pruned.last_pairs, top.probs),
                                   dense_from_pairs(pairs, full.caches[-1].probs)[:, rows],
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_gradients_agree_with_the_full_pass(self, arts, dtype):
        state = self.model(arts, dtype)
        ids, pairs, rows = self.batch(arts)
        d_rows = np.random.default_rng(6).standard_normal((len(rows), 16)).astype(dtype)
        full = encode(ids, pairs, state)
        d_full = np.zeros_like(full.final)
        d_full[rows] = d_rows
        want = backward(full, d_full, state)
        got = backward(encode(ids, pairs, state, rows=rows), d_rows, state)
        tol = {"rtol": 1e-12, "atol": 1e-12} if dtype == "float64" else {"rtol": 1e-5, "atol": 1e-5}
        for name in state.params:
            assert got[name].dtype == want[name].dtype
            np.testing.assert_allclose(got[name], want[name], **tol, err_msg=name)
        assert all(np.any(got[f"l1.{w}"] != 0) for w in ("wq", "wk", "wv", "w1"))
        with pytest.raises(ValueError, match="shape"):
            backward(full, d_rows, state)

    def test_the_selection_is_the_square_list_at_its_rows(self, arts):
        _, pairs, rows = self.batch(arts)
        sel = pairs.select(rows)
        assert (sel.m, sel.n) == (len(rows), pairs.n) and np.array_equal(sel.rows, rows)
        ones = np.ones((1, len(sel)))
        every = np.ones((1, len(pairs)))
        assert np.array_equal(dense_from_pairs(sel, ones), dense_from_pairs(pairs, every)[:, rows])
        assert np.array_equal(sel.R, pairs.R[rows])
        assert [(s.m, s.col, s.n) for s in sel.segments] == \
            [(m, s.col, s.n) for m, s in zip([2, 0, 2, 1], pairs.segments)]

    def test_rectangular_products_match_dense_ones(self, arts):
        _, pairs, rows = self.batch(arts)
        sel = pairs.select(rows)
        rng = np.random.default_rng(2)
        values = rng.standard_normal((2, len(sel)))
        w = dense_from_pairs(sel, values)  # (heads, m, n)
        a, b = rng.standard_normal((2, sel.m, 3)), rng.standard_normal((2, 3, sel.n))
        np.testing.assert_allclose(sel.gather_product(a, b), (a @ b).reshape(2, -1)[:, sel.flat],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sel.spread_product(values, b.transpose(0, 2, 1)),
                                   w @ b.transpose(0, 2, 1), rtol=1e-12, atol=1e-12)
        # the transposed product's output starts as np.empty: a segment with no
        # selected row must write zeros over its columns, not leave what was there
        dirty = np.full((2, sel.n, 3), np.nan)
        del dirty
        spread = sel.spread_product(values, a, transpose=True)
        np.testing.assert_allclose(spread, w.transpose(0, 2, 1) @ a, rtol=1e-12, atol=1e-12)
        empty = sel.segments[1]
        assert empty.m == 0 and np.all(spread[:, empty.col:empty.col + empty.n] == 0)

    def test_rows_must_be_sorted_distinct_and_in_range(self, arts):
        state = self.model(arts)
        ids, pairs, _ = self.batch(arts)
        for rows in ([3, 1], [2, 2], [-1, 0], [0, pairs.n], [[0, 1]]):
            with pytest.raises(ValueError, match="sorted, distinct"):
                encode(ids, pairs, state, rows=rows)

    def test_a_row_not_computed_cannot_be_read(self, arts):
        state = self.model(arts)
        ids, pairs, _ = self.batch(arts)
        trace = encode(ids, pairs, state, rows=[1, 4])
        assert np.array_equal(trace.index_of([4, 1, 4]), [1, 0, 1])
        with pytest.raises(ValueError, match=r"rows \[0\] were not computed"):
            trace.cls_embedding
        with pytest.raises(ValueError, match="not computed"):
            type_inference_loss(trace, [(2, 0)], state)
        np.testing.assert_allclose(encode(ids, pairs, state, rows=[0]).cls_embedding,
                                   encode(ids, pairs, state).cls_embedding, rtol=1e-12, atol=1e-12)

    def test_no_row_read(self, arts):
        state = self.model(arts)
        ids, pairs, _ = self.batch(arts)
        trace = encode(ids, pairs, state, rows=[])
        assert trace.final.shape == (0, 16)
        grads = backward(trace, trace.final.copy(), state)
        assert all(not np.any(g) for g in grads.values())


def test_a_repeated_label_position_takes_each_labels_gradient(corpus, art):
    """A labels row may name one position twice, as ``[[2, "int"], [2, "long"]]``
    does; the final-state gradient must be the sum of both labels' gradients."""
    state = make_state(corpus)
    labels = [(2, DEFAULT_TYPE_LABELS.index("int")), (2, DEFAULT_TYPE_LABELS.index("long"))]
    trace = encode(art.seq.tokens, art.bundle, state, rows=[2])
    _, dh, _ = type_inference_loss(trace, labels, state)
    eps, fd = 1e-6, np.empty(state.config.hidden)
    for i in range(len(fd)):
        orig = trace.final[0, i]
        trace.final[0, i] = orig + eps
        up = type_inference_loss(trace, labels, state)[0]
        trace.final[0, i] = orig - eps
        down = type_inference_loss(trace, labels, state)[0]
        trace.final[0, i] = orig
        fd[i] = (up - down) / (2 * eps)
    np.testing.assert_allclose(dh[0], fd, rtol=1e-6, atol=1e-9)


class TestDenseProducts:
    """The attention's dense products give the same bits whatever ran before
    them or beside them, and reject operands of a wrong shape."""

    @pytest.fixture(scope="class")
    def long_art(self, corpus):
        art = Corpus.from_text(LONG_FUNCTION, RunConfig(), vocab=corpus.vocab).functions[0]
        assert len(art.seq) == 512
        return art

    @staticmethod
    def run(art, state):
        trace = encode(art.seq.tokens, art.bundle, state, rng=np.random.default_rng(0))
        grads = backward(trace, np.ones_like(trace.final), state)
        return [trace.final, *(grads[name] for name in sorted(grads))]

    def test_calls_across_lengths_and_dtypes_are_bit_identical(self, corpus, art, long_art):
        short32 = make_state(corpus, dtype="float32", max_len=512)
        short32.config.dropout = 0.5
        first = self.run(art, short32)
        self.run(long_art, short32)
        self.run(art, make_state(corpus, dtype="float64"))
        again = self.run(art, short32)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    def test_operands_of_a_wrong_shape_raise(self, corpus, art):
        trace = encode(art.seq.tokens, art.bundle, make_state(corpus))
        c, pairs = trace.caches[0], art.bundle
        wrong = np.ones((c.k.shape[0], c.k.shape[1] + 1, c.k.shape[2]))
        for product in (lambda: pairs.spread_product(c.probs, wrong),
                        lambda: pairs.spread_product(c.probs, wrong, transpose=True),
                        lambda: pairs.gather_product(c.q, wrong.transpose(0, 2, 1))):
            with pytest.raises(ValueError):
                product()

    def test_two_threads_match_the_serial_results(self, corpus, art, long_art):
        state = make_state(corpus, dtype="float32", max_len=512)
        arts = [long_art, art]
        serial = [encode(a.seq.tokens, a.bundle, state).final for a in arts]
        start = threading.Barrier(2, timeout=60)

        def encode_repeatedly(a):
            start.wait()
            return [encode(a.seq.tokens, a.bundle, state).final for _ in range(10)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                results = list(pool.map(encode_repeatedly, arts, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(serial, results):
            assert all(np.array_equal(want, g) for g in got)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestLayerFunctions:
    def test_layer_norm_matches_the_mean_form(self, dtype):
        rng = np.random.default_rng(21)
        x = (3.0 * rng.standard_normal((66, 64)) + 1.0).astype(dtype)
        g, b = (rng.standard_normal((2, 64)) + 1.0).astype(dtype)
        dy = rng.standard_normal((66, 64)).astype(dtype)
        tol = {"rtol": 1e-12, "atol": 1e-12} if dtype == np.float64 else {"rtol": 1e-5, "atol": 1e-5}
        want = mean_layer_norm(x, g, b)
        for got, ref in zip(_layer_norm(x, g, b), want):
            assert got.dtype == dtype
            assert np.allclose(got, ref, **tol)
        for got, ref in zip(_layer_norm_backward(dy, *want[1:], g),
                            mean_layer_norm_backward(dy, *want[1:], g)):
            assert got.dtype == dtype
            assert np.allclose(got, ref, **tol)

    def test_gelu_and_its_reverse_are_the_tanh_form_bit_for_bit(self, dtype):
        x = (3.0 * np.random.default_rng(22).standard_normal((66, 256))).astype(dtype)
        y, t = _gelu(x)
        assert y.dtype == t.dtype == dtype
        assert np.array_equal(y, tanh_gelu(x))
        assert np.array_equal(_gelu_grad(x, t), tanh_gelu_grad(x))


class TestCheckpoint:
    def test_roundtrip(self, corpus, art, tmp_path):
        state = make_state(corpus, dtype="float32")
        path = tmp_path / "model.ckpt"
        state.save(path)
        loaded = EncoderState.load(path)
        assert loaded.config == state.config
        for name, p in state.params.items():
            assert np.array_equal(loaded.params[name], p)

    def test_load_checks_the_shapes_without_drawing_a_model(self, corpus, tmp_path,
                                                            monkeypatch):
        state = make_state(corpus, dtype="float32")
        state.save(tmp_path / "model.ckpt")

        def drawn(*args, **kwargs):
            raise AssertionError("load drew a model")
        monkeypatch.setattr(EncoderState, "init", classmethod(drawn))
        loaded = EncoderState.load(tmp_path / "model.ckpt")
        assert {n: p.shape for n, p in loaded.params.items()} == \
            {n: p.shape for n, p in state.params.items()}

    def test_deterministic_bytes(self, corpus, tmp_path):
        state = make_state(corpus, dtype="float32")
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        state.save(a)
        state.save(b)
        assert a.read_bytes() == b.read_bytes()

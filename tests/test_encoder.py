import copy
import dataclasses

import numpy as np
import pytest

from depcoder.config import RunConfig
from depcoder.corpus import Corpus
from depcoder.encoder import (EncoderConfig, EncoderState, NumericsError,
                              backward, embed_inputs, encode, rma_attention)
from depcoder.masks import MaskBundle, build_bundle
from depcoder.synth import generate_function, reorder_variant

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


def make_state(corpus, seed=0, layers=2, hidden=16, heads=2, dtype="float64"):
    cfg = EncoderConfig(layers=layers, heads=heads, hidden=hidden, ffn=2 * hidden,
                        vocab_size=len(corpus.vocab), max_len=128, r_max=8,
                        dropout=0.0, dtype=dtype)
    return EncoderState.init(cfg, seed)


class TestEmbedding:
    def test_zero_tables_give_zero(self, corpus, art):
        state = make_state(corpus)
        state.params["tok_emb"][:] = 0
        state.params["pos_emb"][:] = 0
        assert np.all(embed_inputs(np.array(art.seq.tokens), state) == 0)

    def test_position_perturbation_is_local(self, corpus, art):
        state = make_state(corpus)
        ids = np.array(art.seq.tokens)
        base = embed_inputs(ids, state)
        state.params["pos_emb"][3] += 1.0
        bumped = embed_inputs(ids, state)
        diff = np.abs(bumped - base).sum(axis=1)
        assert diff[3] > 0
        assert np.all(diff[np.arange(len(ids)) != 3] == 0)

    def test_shape(self, corpus, art):
        state = make_state(corpus)
        out = embed_inputs(np.array(art.seq.tokens), state)
        assert out.shape == (len(art.seq), state.config.hidden)

    def test_overflow_rejected(self, corpus):
        state = make_state(corpus)
        with pytest.raises(ValueError, match="max_len"):
            embed_inputs(np.zeros(129, dtype=int), state)


class TestAttention:
    def test_self_only_mask_returns_value_rows(self, corpus, art):
        state = make_state(corpus)
        n = len(art.seq)
        m = np.full((n, n), -1e9)
        np.fill_diagonal(m, 0.0)
        bundle = MaskBundle(M=m, R=np.zeros((n, n), dtype=np.int32))
        h = np.asarray(np.random.default_rng(0).standard_normal((n, 16)))
        _, (q, k, v, probs, _, z_cat) = rma_attention(h, bundle, 0, state)
        assert np.allclose(probs, np.eye(n)[None, :, :])
        dk = state.config.head_dim
        for head in range(state.config.heads):
            assert np.allclose(z_cat[:, head * dk:(head + 1) * dk], v[head])

    def test_zero_bias_degeneracy(self, corpus, art):
        state = make_state(corpus)
        trace_with_r = encode(art.seq.tokens, art.bundle, state)
        no_r = MaskBundle(M=art.bundle.M, R=np.zeros_like(art.bundle.R))
        trace_without = encode(art.seq.tokens, no_r, state)
        assert np.array_equal(trace_with_r.final, trace_without.final)
        state.params["beta"][:] = 0.3
        assert not np.array_equal(encode(art.seq.tokens, art.bundle, state).final,
                                  trace_without.final)

    def test_clamp_uses_r_max_bucket(self, corpus, art):
        state = make_state(corpus)
        state.params["beta"][:] = np.random.default_rng(1).standard_normal(
            state.params["beta"].shape)
        big = art.bundle
        big.R[big.R > 0] = 12
        clamped = art.bundle
        clamped.R[clamped.R > 0] = state.config.r_max
        out_big = encode(art.seq.tokens, big, state).final
        out_clamped = encode(art.seq.tokens, clamped, state).final
        assert np.array_equal(out_big, out_clamped)

    def test_masking_exactness_random_models(self, corpus, art):
        for seed in range(5):
            state = make_state(corpus, seed=seed)
            state.params["beta"][:] = 0.1 * seed
            trace = encode(art.seq.tokens, art.bundle, state)
            masked = art.bundle.M < -1e8
            for c in trace.caches:
                assert c.probs[:, masked].max() < 1e-12
                assert np.allclose(c.probs.sum(axis=-1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_float32_mask_gives_the_float64_mask_result(self, corpus, art, dtype):
        bundle = build_bundle(art.seq, art.con.dist)
        assert bundle.M.dtype == np.float32
        wide = MaskBundle(M=bundle.M.astype(np.float64), R=bundle.R)
        state = make_state(corpus, dtype=dtype)
        state.params["beta"][:] = 0.3
        h = np.random.default_rng(0).standard_normal((len(art.seq), 16)).astype(dtype)
        out, (*_, probs, _, _) = rma_attention(h, bundle, 0, state)
        out_wide, (*_, probs_wide, _, _) = rma_attention(h, wide, 0, state)
        assert out.dtype == np.dtype(dtype)
        assert np.array_equal(out, out_wide)
        assert np.array_equal(probs, probs_wide)

    def test_bias_locality(self, corpus, art):
        state = make_state(corpus)
        state.params["beta"][:] = 0.05
        base = encode(art.seq.tokens, art.bundle, state).final
        # no pair sits at the clamped distance 7 -> bitwise identical output
        assert not np.any(np.minimum(art.bundle.R, 8) == 7)
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
                              embed_inputs(np.array(art.seq.tokens), state))
        assert all(c.probs.shape == (2, len(art.seq), len(art.seq)) for c in trace.caches)

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
        trace = encode(art.seq.tokens, art.bundle, state, rng=rng, training=True)
        grads = backward(trace, np.ones_like(trace.final), state)
        assert np.isfinite(grads["tok_emb"]).all()

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_backward_leaves_the_trace_unchanged(self, corpus, art, dropout):
        cfg = EncoderConfig(layers=2, heads=2, hidden=16, ffn=32,
                            vocab_size=len(corpus.vocab), max_len=128,
                            dropout=dropout, dtype="float64")
        state = EncoderState.init(cfg, 0)
        trace = encode(art.seq.tokens, art.bundle, state,
                       rng=np.random.default_rng(0), training=True)
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


class TestCheckpoint:
    def test_roundtrip(self, corpus, art, tmp_path):
        state = make_state(corpus, dtype="float32")
        path = tmp_path / "model.ckpt"
        state.save(path)
        loaded = EncoderState.load(path)
        assert loaded.config == state.config
        for name, p in state.params.items():
            assert np.array_equal(loaded.params[name], p)

    def test_deterministic_bytes(self, corpus, tmp_path):
        state = make_state(corpus, dtype="float32")
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        state.save(a)
        state.save(b)
        assert a.read_bytes() == b.read_bytes()

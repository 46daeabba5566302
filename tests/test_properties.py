"""Property-based checks of the dependence analysis and the mask bundle.

The data dependences of random functions with forward and backward jumps are
compared with exhaustive path enumeration, restricted to the instructions the
entry reaches (the dataflow also analyses unreachable blocks, which no path
from the entry visits).  Their control dependences are compared with the
definition through post-dominance by reachability, on the CFGs ``build_cfg``
builds: back edges, self-loops, and infinite loops that need the exit edge.

The closure examples draw dependence graphs of up to 150 nodes with cycles,
self-loops and pairs that carry both kinds, and compare ``connectivity`` with
breadth-first search per ordered pair.

The mask examples draw a function from ``synth.generate_function`` and a
token budget that often truncates it, so the kept-instruction gather in
``build_bundle`` is exercised on prefixes as well as whole functions.

The attention examples take such a bundle, raise some of its distances above
``r_max`` so that many pairs share the clamped bucket, and compare
``rma_attention`` with a dense per-head evaluation of the formula and the
bucket's ``beta`` gradient with central differences, in float64.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from depcoder.cfg import build_cfg
from depcoder.config import RunConfig
from depcoder.connectivity import connectivity
from depcoder.corpus import Corpus
from depcoder.dependence import DependenceGraph, block_control_dependences, data_dependences
from depcoder.encoder import EncoderConfig, EncoderState, backward, encode, rma_attention
from depcoder.frontend import parse_listing
from depcoder.masks import build_bundle, global_enabled, local_enabled, sparse_masks
from depcoder.pretrain import mdm_sample, perturb_bundle
from depcoder.synth import generate_function

from generators import random_dependence_edges, random_looping_program
from oracles import (dense_attention, naive_mask_bundle, naive_sparse_masks,
                     oracle_block_control_deps, oracle_connectivity, path_enum_data_deps)

SETTINGS = settings(max_examples=40, deadline=None)


def artifact(seed: int, max_len: int):
    listing = "\n".join(generate_function("p", np.random.default_rng(seed))) + "\n"
    return Corpus.from_text(listing, RunConfig(max_len=max_len)).functions[0]


seeds = st.integers(0, 2 ** 32 - 1)
max_lens = st.integers(2, 96)


def reachable_instructions(cfg) -> set[int]:
    seen, todo = {0}, [0]
    while todo:
        for b in cfg.succ[todo.pop()]:
            if b >= 0 and b not in seen:
                seen.add(b)
                todo.append(b)
    return {i for b in seen for i in range(*cfg.blocks[b])}


@settings(max_examples=300, deadline=None)
@given(seed=seeds)
def test_data_dependences_with_back_edges_match_path_enumeration(seed):
    fn = parse_listing(random_looping_program(np.random.default_rng(seed)))[0]
    cfg = build_cfg(fn)
    live = reachable_instructions(cfg)
    for flags_channel in (False, True):
        got = data_dependences(fn.instructions, cfg, flags_channel)
        want = path_enum_data_deps(fn.instructions, cfg, flags_channel)
        assert {(u, v) for u, v in got if u in live and v in live} == want


@settings(max_examples=300, deadline=None)
@given(seed=seeds)
def test_control_dependences_of_built_cfgs_match_the_definition(seed):
    fn = parse_listing(random_looping_program(np.random.default_rng(seed), 16))[0]
    cfg = build_cfg(fn)
    assert block_control_dependences(cfg) == oracle_block_control_deps(cfg)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(0, 150), out_degree=st.floats(0, 4))
def test_closure_matches_bfs_per_pair(seed, n, out_degree):
    edges = random_dependence_edges(np.random.default_rng(seed), n, out_degree)
    con = connectivity(DependenceGraph(n_nodes=n, edges=edges))
    assert con.dist.dtype == np.int32 and con.dist.shape == (n, n)
    assert np.array_equal(con.dist, con.dist.T)
    assert not np.diagonal(con.dist).any()
    want = oracle_connectivity(n, {(u, v) for u, v, _ in edges})
    assert {(u, v): d for u, v, d in con.to_dict()["edges"]} == want


@SETTINGS
@given(seed=seeds, max_len=max_lens)
def test_bundle_and_sparse_view_match_the_oracle(seed, max_len):
    art = artifact(seed, max_len)
    want_m, want_r = naive_mask_bundle(art.seq, art.con)
    bundle = build_bundle(art.seq, art.con.dist)
    assert np.array_equal(bundle.M, want_m)
    assert np.array_equal(bundle.R, want_r)
    assert sparse_masks(art.seq, bundle) == naive_sparse_masks(art.seq, art.con)


@SETTINGS
@given(seed=seeds, max_len=max_lens, sample_seed=seeds,
       node_frac=st.floats(0.0, 1.0))
def test_perturbed_mask_is_enabled_exactly_on_its_parts(seed, max_len, sample_seed,
                                                         node_frac):
    art = artifact(seed, max_len)
    rng = np.random.default_rng(sample_seed)
    sample = mdm_sample(art.con, art.seq.n_instructions, rng, node_frac)
    out = perturb_bundle(art.seq, art.con.dist, sample)
    enabled = global_enabled(art.seq) | local_enabled(art.seq) | (out.R > 0)
    assert np.array_equal(out.M == 0, enabled)
    pos = art.seq.inst_positions
    for t, s in sample.positives:
        assert out.R[pos[t], pos[s]] == 0
    for t, s in sample.negatives:
        assert out.R[pos[t], pos[s]] == 1


R_MAX = 3


def attention_setup(seed: int, max_len: int, model_seed: int, layers: int = 1):
    """A float64 model with a random ``beta`` table and the bundle of a synth
    function in which about half of the dependence pairs sit beyond ``r_max``."""
    art = artifact(seed, max_len)
    rng = np.random.default_rng(model_seed)
    cfg = EncoderConfig(layers=layers, heads=2, hidden=8, ffn=16, max_len=max_len,
                        r_max=R_MAX, dropout=0.0, dtype="float64",
                        vocab_size=int(max(art.seq.tokens)) + 1)
    state = EncoderState.init(cfg, model_seed)
    state.params["beta"][:] = rng.standard_normal(state.params["beta"].shape)
    bundle = art.bundle
    far = np.triu(rng.random(bundle.R.shape) < 0.5, 1)
    far = (far | far.T) & (bundle.R > 0)
    bundle.R[far] += R_MAX + rng.integers(0, 4)
    return art, state, bundle, rng


@SETTINGS
@given(seed=seeds, max_len=max_lens, model_seed=seeds)
def test_attention_matches_the_dense_formula(seed, max_len, model_seed):
    art, state, bundle, rng = attention_setup(seed, max_len, model_seed)
    h = rng.standard_normal((len(art.seq), state.config.hidden))
    out, (_, _, _, probs, _, _) = rma_attention(h, bundle, 0, state)
    want_out, want_probs = dense_attention(h, bundle, 0, state)
    np.testing.assert_allclose(probs, want_probs, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(out, want_out, rtol=1e-10, atol=1e-10)


@settings(max_examples=10, deadline=None)
@given(seed=seeds, max_len=st.integers(24, 96), model_seed=seeds)
def test_clamped_bucket_gradient_matches_central_differences(seed, max_len, model_seed):
    art, state, bundle, rng = attention_setup(seed, max_len, model_seed, layers=2)
    assume(np.count_nonzero(bundle.R >= R_MAX) >= 2)
    d_final = rng.standard_normal((len(art.seq), state.config.hidden))

    def loss():
        return float((encode(art.seq.tokens, bundle, state).final * d_final).sum())

    got = backward(encode(art.seq.tokens, bundle, state), d_final, state)["beta"][:, R_MAX]
    beta, eps = state.params["beta"], 1e-5
    for i in range(state.config.heads):
        beta[i, R_MAX] += eps
        up = loss()
        beta[i, R_MAX] -= 2 * eps
        down = loss()
        beta[i, R_MAX] += eps
        np.testing.assert_allclose(got[i], (up - down) / (2 * eps), rtol=1e-5, atol=1e-8)

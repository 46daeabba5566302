"""Property-based checks of the parser, the dependence analysis and the mask bundle.

A listing of several random functions parses to the same functions as
parsing each function's own text alone, and every operand as parsing its
text on its own, although the listing shares one parse of each distinct
operand text among all its functions.

The data dependences of random functions with forward and backward jumps are
compared with exhaustive path enumeration, restricted to the instructions the
entry reaches (the dataflow also analyses unreachable blocks, which no path
from the entry visits).  Their control dependences are compared with the
definition through post-dominance by reachability, on the CFGs ``build_cfg``
builds: back edges, self-loops, and infinite loops that need the exit edge.

The closure examples draw dependence graphs of up to 150 nodes with cycles,
self-loops and pairs that carry both kinds, and compare ``connectivity`` and
its artifact text with breadth-first search per ordered pair.

The mask examples draw a function from ``synth.generate_function`` and a
token budget that often truncates it, so the kept-instruction block that
``build_bundle`` reads is exercised on prefixes as well as whole functions.

The pair list's two dense products, ``gather_product`` and
``spread_product`` in both orientations, equal the same products over the
dense matrix of the pairs, in float32 and float64, for one function's list
and for the block-diagonal list that packs up to three.

The attention examples take such a function, raise some of its distances
above ``r_max`` in a copy of the distances so that many pairs share the
clamped bucket, and compare ``rma_attention`` over the rebuilt pair list
with a dense per-head evaluation of the formula and the bucket's ``beta``
gradient with central differences, in float64.

Token soup, lines of random mnemonics, labels and ``.func`` heads over
random operands, some malformed, goes through the whole analysis
(parse, every function's artifacts under both ``flags_dep`` and
``on_unknown`` settings, and its sparse mask text) and may raise only an
``InputError``.  The reorder and rename variants of random functions print
and parse back as themselves, and keep the dependence graph: the same
edges, through the permutation for a reorder.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from depcoder.cfg import build_cfg
from depcoder.config import RunConfig
from depcoder.connectivity import connectivity
from depcoder.corpus import Corpus, compute_artifacts, dumps, function_text
from depcoder.dependence import (DependenceGraph, block_control_dependences, data_dependences,
                                 dependence_graph)
from depcoder.encoder import EncoderConfig, EncoderState, backward, encode, rma_attention
from depcoder.errors import InputError
from depcoder.frontend import _parse_operand, _split_operands, build_vocab, parse_listing
from depcoder.masks import build_bundle, sparse_masks
from depcoder.pretrain import mdm_sample, perturb_bundle
from depcoder.synth import generate_function, rename_variant, reorder_variant

from generators import (random_dependence_edges, random_loopfree_program,
                        random_looping_program)
from oracles import (dense_attention, dense_from_pairs, naive_mask_bundle, naive_sparse_masks,
                     oracle_block_control_deps, oracle_connectivity_text,
                     path_enum_data_deps, split_operands_by_char)

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


@SETTINGS
@given(seeds=st.lists(seeds, min_size=1, max_size=6))
def test_listing_parses_as_its_functions_alone(seeds):
    programs = [(random_looping_program if s % 2 else random_loopfree_program)(
        np.random.default_rng(s), 12) for s in seeds]
    listing = "".join(p.replace(".func f\n", f".func f{i}\n", 1) for i, p in enumerate(programs))
    functions = parse_listing(listing)
    assert [fn.name for fn in functions] == [f"f{i}" for i in range(len(seeds))]
    for fn in functions:
        assert parse_listing(function_text(fn)) == [fn]
        for instr in fn.instructions:  # against a parse of each operand on its own
            rest = instr.raw_text.partition(" ")[2]
            assert instr.operands == tuple(_parse_operand(p, 0)
                                           for p in split_operands_by_char(rest))


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet="[], a", max_size=12))
def test_operand_split_matches_a_scan_by_character(text):
    assert [p for p in _split_operands(text) if p.strip()] == split_operands_by_char(text)


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
    assert con.to_json() == oracle_connectivity_text(n, {(u, v) for u, v, _ in edges})


SOUP_HEADS = ("mov", "add", "shl", "imul", "idiv", "cmp", "test", "lea", "push", "pop", "jne",
              "jmp", "call", "ret", "nop", "frobnicate", ".l:", ".func")
SOUP_OPERANDS = ("rax", "eax", "al", "rbx", "rcx", "rsp", "rbp", "r9d", "8", "-1", "0x10",
                 "99999999999999999999", "[rsp + 8]", "[rbx + 2*rax - 8]", "[rbp]", ".l", "f",
                 "[rax", "qword")
# lines of a head and up to three operands, after a first line ".func f"
soups = st.lists(st.tuples(st.sampled_from(SOUP_HEADS),
                           st.lists(st.sampled_from(SOUP_OPERANDS), max_size=3)),
                 max_size=40).map(
    lambda lines: "".join(f"{head} {', '.join(ops)}\n" for head, ops in [(".func", ["f"])] + lines))


@settings(max_examples=200, deadline=None)
@given(listing=soups)
def test_analysis_of_token_soup_raises_only_input_errors(listing):
    try:
        functions = parse_listing(listing)
    except InputError:
        return
    vocab = build_vocab(functions)
    for fn in functions:
        for flags_dep in (False, True):
            for on_unknown in ("error", "conservative"):
                cfg = RunConfig(flags_dep=flags_dep, on_unknown=on_unknown)
                try:
                    sparse_masks(compute_artifacts(fn, vocab, cfg).bundle)
                except InputError:
                    pass


@settings(max_examples=100, deadline=None)
@given(seed=seeds)
def test_variants_reparse_and_keep_the_dependence_graph(seed):
    rng = np.random.default_rng(seed)
    fn = parse_listing("\n".join(generate_function("f", rng)) + "\n")[0]
    reordered, perm = reorder_variant(fn, rng, "v")
    renamed = rename_variant(fn, rng, "v")
    for variant in (reordered, renamed):
        assert parse_listing(function_text(variant)) == [variant]
    for flags_channel in (False, True):
        edges = dependence_graph(fn, flags_channel=flags_channel).edges
        assert dependence_graph(reordered, flags_channel=flags_channel).edges == \
            {(perm[u], perm[v], kind) for u, v, kind in edges}
        assert dependence_graph(renamed, flags_channel=flags_channel).edges == edges


def assert_mask_views_match_the_oracle(art):
    # build_bundle, mdm_sample and perturb_bundle read the kept instructions
    # as the block dist[:k, :k]
    assert list(art.seq.inst_positions) == list(range(art.seq.n_instructions))
    want_m, want_r = naive_mask_bundle(art.seq, art.con)
    pairs = build_bundle(art.seq, art.con.dist)
    want_ij = np.argwhere(want_m == 0)
    assert np.array_equal(pairs.flat, want_ij[:, 0] * len(art.seq) + want_ij[:, 1])
    r = np.zeros(len(pairs), dtype=want_r.dtype)
    r[pairs.biased] = pairs.r
    assert np.array_equal(r, want_r[want_ij[:, 0], want_ij[:, 1]])
    assert np.array_equal(pairs.M, want_m)
    assert np.array_equal(pairs.R, want_r)
    assert sparse_masks(pairs) == dumps(naive_sparse_masks(art.seq, art.con))


@SETTINGS
@given(seed=seeds, max_len=max_lens)
def test_bundle_and_sparse_view_match_the_oracle(seed, max_len):
    assert_mask_views_match_the_oracle(artifact(seed, max_len))


@pytest.mark.parametrize("listing, max_len", [
    (".func p\n", 512),  # no instructions at all
    ("\n".join(generate_function("p", np.random.default_rng(0))) + "\n", 2),  # none kept
], ids=["no-instructions", "max-len-2"])
def test_bundle_and_sparse_view_match_the_oracle_with_no_kept_instruction(listing, max_len):
    art = Corpus.from_text(listing, RunConfig(max_len=max_len)).functions[0]
    assert art.seq.n_instructions == 0 and len(art.seq) == 1
    assert_mask_views_match_the_oracle(art)


@SETTINGS
@given(seed=seeds, max_len=max_lens, sample_seed=seeds,
       node_frac=st.floats(0.0, 1.0))
def test_perturbed_mask_is_enabled_exactly_on_its_parts(seed, max_len, sample_seed,
                                                         node_frac):
    art = artifact(seed, max_len)
    rng = np.random.default_rng(sample_seed)
    sample = mdm_sample([art.con], [art.seq.n_instructions], rng, node_frac)
    out = perturb_bundle([art.seq], [art.con.dist], sample)
    want = art.con.dist.copy()
    for t, s in sample.positives:
        want[t, s] = want[s, t] = 0
    for t, s in sample.negatives:
        want[t, s] = want[s, t] = 1
    want_m, want_r = naive_mask_bundle(art.seq, SimpleNamespace(dist=want))
    assert np.array_equal(out.M, want_m)
    assert np.array_equal(out.R, want_r)
    pos = art.seq.inst_positions
    for t, s in sample.positives:
        assert out.R[pos[t], pos[s]] == 0
    for t, s in sample.negatives:
        assert out.R[pos[t], pos[s]] == 1


R_MAX = 3


def attention_setup(seed: int, max_len: int, model_seed: int, layers: int = 1):
    """A float64 model with a random ``beta`` table and the mask of a synth
    function in which about half of the dependence pairs sit beyond ``r_max``."""
    art = artifact(seed, max_len)
    rng = np.random.default_rng(model_seed)
    cfg = EncoderConfig(layers=layers, heads=2, hidden=8, ffn=16, max_len=max_len,
                        r_max=R_MAX, dropout=0.0, dtype="float64",
                        vocab_size=int(max(art.seq.tokens)) + 1)
    state = EncoderState.init(cfg, model_seed)
    state.params["beta"][:] = rng.standard_normal(state.params["beta"].shape)
    k = art.seq.n_instructions
    dist = art.con.dist[:k, :k].copy()
    far = np.triu(rng.random(dist.shape) < 0.5, 1)
    far = (far | far.T) & (dist > 0)
    dist[far] += R_MAX + rng.integers(0, 4)
    return art, state, build_bundle(art.seq, dist), rng


@SETTINGS
@given(seed=seeds, max_len=max_lens, model_seed=seeds)
def test_attention_matches_the_dense_formula(seed, max_len, model_seed):
    art, state, pairs, rng = attention_setup(seed, max_len, model_seed)
    h = rng.standard_normal((len(art.seq), state.config.hidden))
    out, (_, _, _, probs, _, _) = rma_attention(h, pairs, 0, state)
    want_out, want_probs = dense_attention(h, pairs, 0, state)
    np.testing.assert_allclose(dense_from_pairs(pairs, probs), want_probs, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(out, want_out, rtol=1e-10, atol=1e-10)


@SETTINGS
@given(functions=st.lists(st.tuples(seeds, max_lens), min_size=1, max_size=3),
       draw_seed=seeds, heads=st.integers(1, 4), d=st.integers(1, 8),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_pair_list_products_match_the_dense_oracle(functions, draw_seed, heads, d, dtype):
    arts = [artifact(seed, max_len) for seed, max_len in functions]
    bundles = [build_bundle(art.seq, art.con.dist) for art in arts]
    # one function is the one-segment case; more are packed block-diagonally
    pairs = build_bundle([art.seq for art in arts], [art.con.dist for art in arts])
    assert [seg.n for seg in pairs.segments] == [b.n for b in bundles]
    for seg, bundle in zip(pairs.segments, bundles):  # each function's own mask, shifted
        assert np.array_equal(seg.flat, bundle.flat)
        assert np.array_equal(pairs.R[seg.row:seg.row + seg.n, seg.row:seg.row + seg.n], bundle.R)
    assert len(pairs) == sum(len(b) for b in bundles)
    rng = np.random.default_rng(draw_seed)
    a, b = rng.standard_normal((2, heads, pairs.n, d)).astype(dtype)
    values = rng.standard_normal((heads, len(pairs))).astype(dtype)
    tol = {"rtol": 1e-12, "atol": 1e-12} if dtype == np.float64 else {"rtol": 1e-5, "atol": 1e-5}
    got = pairs.gather_product(a, b.transpose(0, 2, 1))
    assert got.dtype == dtype
    want = (a @ b.transpose(0, 2, 1)).reshape(heads, -1)[:, pairs.flat]
    np.testing.assert_allclose(got, want, **tol)
    dense = dense_from_pairs(pairs, values)
    for transpose, w in ((False, dense), (True, dense.transpose(0, 2, 1))):
        got = pairs.spread_product(values, b, transpose=transpose)
        assert got.dtype == dtype
        np.testing.assert_allclose(got, w @ b, **tol)


@settings(max_examples=10, deadline=None)
@given(seed=seeds, max_len=st.integers(24, 96), model_seed=seeds)
def test_clamped_bucket_gradient_matches_central_differences(seed, max_len, model_seed):
    art, state, pairs, rng = attention_setup(seed, max_len, model_seed, layers=2)
    assume(np.count_nonzero(pairs.r >= R_MAX) >= 2)
    d_final = rng.standard_normal((len(art.seq), state.config.hidden))

    def loss():
        return float((encode(art.seq.tokens, pairs, state).final * d_final).sum())

    got = backward(encode(art.seq.tokens, pairs, state), d_final, state)["beta"][:, R_MAX]
    beta, eps = state.params["beta"], 1e-5
    for i in range(state.config.heads):
        beta[i, R_MAX] += eps
        up = loss()
        beta[i, R_MAX] -= 2 * eps
        down = loss()
        beta[i, R_MAX] += eps
        np.testing.assert_allclose(got[i], (up - down) / (2 * eps), rtol=1e-5, atol=1e-8)

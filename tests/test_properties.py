"""Property-based checks of the dependence analysis and the mask bundle.

The data dependences of random functions with forward and backward jumps are
compared with exhaustive path enumeration, restricted to the instructions the
entry reaches (the dataflow also analyses unreachable blocks, which no path
from the entry visits).

The mask examples draw a function from ``synth.generate_function`` and a
token budget that often truncates it, so the kept-instruction gather in
``build_bundle`` is exercised on prefixes as well as whole functions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from depcoder.cfg import ENTRY, build_cfg
from depcoder.config import RunConfig
from depcoder.corpus import Corpus
from depcoder.dependence import data_dependences
from depcoder.frontend import parse_listing
from depcoder.masks import build_bundle, global_enabled, local_enabled, sparse_masks
from depcoder.pretrain import mdm_sample, perturb_bundle
from depcoder.synth import generate_function

from generators import random_looping_program
from oracles import naive_mask_bundle, naive_sparse_masks, path_enum_data_deps

SETTINGS = settings(max_examples=40, deadline=None)


def artifact(seed: int, max_len: int):
    listing = "\n".join(generate_function("p", np.random.default_rng(seed))) + "\n"
    return Corpus.from_text(listing, RunConfig(max_len=max_len)).functions[0]


seeds = st.integers(0, 2 ** 32 - 1)
max_lens = st.integers(2, 96)


def reachable_instructions(cfg) -> set[int]:
    seen, todo = set(), [ENTRY]
    while todo:
        for b in cfg.succ.get(todo.pop(), []):
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

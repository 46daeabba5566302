"""Property-based checks of the mask bundle over synthetic functions.

Each example draws a function from ``synth.generate_function`` and a token
budget that often truncates it, so the kept-instruction gather in
``build_bundle`` is exercised on prefixes as well as whole functions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from depcoder.config import RunConfig
from depcoder.corpus import Corpus
from depcoder.masks import build_bundle, global_enabled, local_enabled, sparse_masks
from depcoder.pretrain import mdm_sample, perturb_bundle
from depcoder.synth import generate_function

from oracles import naive_mask_bundle, naive_sparse_masks

SETTINGS = settings(max_examples=40, deadline=None)


def artifact(seed: int, max_len: int):
    listing = "\n".join(generate_function("p", np.random.default_rng(seed))) + "\n"
    return Corpus.from_text(listing, RunConfig(max_len=max_len)).functions[0]


seeds = st.integers(0, 2 ** 32 - 1)
max_lens = st.integers(2, 96)


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

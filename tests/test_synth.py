import numpy as np

from depcoder.config import RunConfig
from depcoder.corpus import Corpus, compute_artifacts, function_text
from depcoder.dependence import dependence_graph
from depcoder.frontend import CANONICAL_REG, SUB_FORMS, parse_listing
from depcoder.synth import (build_corpus, generate_function, render_instruction,
                            rename_variant, reorder_variant)


def test_generation_is_seed_deterministic():
    a = build_corpus(12, seed=5)
    b = build_corpus(12, seed=5)
    assert a.listing == b.listing
    assert a.eval_spec == b.eval_spec
    assert a.triplets == b.triplets


def test_one_function_has_no_triplet_and_more_draw_as_before():
    one = build_corpus(1, seed=5, pool_size=1)
    assert one.triplets == [] and one.eval_spec["pools"] == [["fn0000"]]
    three = build_corpus(3, seed=5)  # pinned draws: synth output must not move
    assert [t["negative"] for t in three.triplets] == ["fn0001", "fn0002", "fn0000"]
    assert three.eval_spec["truth"] == [2, 1, 2]


def test_generated_functions_parse_and_analyze():
    cfg = RunConfig()
    corpus = Corpus.from_text(build_corpus(20, seed=1).listing, cfg)
    assert len(corpus) == 40  # originals + one variant each
    for art in corpus.functions:
        assert art.seq.n_instructions == len(art.fn.instructions)
        assert art.deps.n_nodes == len(art.fn.instructions)


def test_reorder_variant_dependence_graph_isomorphic():
    rng = np.random.default_rng(0)
    for trial in range(40):
        listing = "\n".join(generate_function(f"f{trial}", rng)) + "\n"
        fn = parse_listing(listing)[0]
        variant, perm = reorder_variant(fn, rng, "v")
        orig = dependence_graph(fn)
        got = dependence_graph(variant)
        # oracle: map the original edges through the known permutation
        want = {(perm[u], perm[v], kind) for (u, v, kind) in orig.edges}
        assert got.edges == want, f"trial {trial}"


def test_reorder_keeps_multiset_of_instructions():
    rng = np.random.default_rng(1)
    listing = "\n".join(generate_function("f", rng)) + "\n"
    fn = parse_listing(listing)[0]
    variant, perm = reorder_variant(fn, rng, "v")
    assert sorted(i.raw_text for i in variant.instructions) == \
           sorted(render_instruction(i) for i in fn.instructions)
    assert sorted(perm) == list(range(len(fn.instructions)))


def test_rename_variant_tokens_differ_distances_identical():
    rng = np.random.default_rng(2)
    cfg = RunConfig()
    checked = 0
    for trial in range(40):
        listing = "\n".join(generate_function(f"f{trial}", rng)) + "\n"
        corpus = Corpus.from_text(listing, cfg)
        base = corpus.functions[0]
        variant = rename_variant(base.fn, rng, "v")
        if [i.raw_text for i in variant.instructions] == \
                [i.raw_text for i in base.fn.instructions]:
            continue  # no renameable register used
        checked += 1
        art = compute_artifacts(variant, corpus.vocab, cfg)
        assert art.seq.surface != base.seq.surface
        assert np.array_equal(art.con.dist, base.con.dist)
    assert checked >= 30


def test_rename_keeps_the_dependences_of_sub_registers():
    fn = parse_listing(".func f\nmov ebx, 1\nmov rax, rbx\nret\n")[0]
    variant = rename_variant(fn, np.random.default_rng(0), "v")
    dst, src = variant.instructions[0].operands[0].reg, variant.instructions[1].operands[1].reg
    assert src != "rbx" and dst == SUB_FORMS[src][0]  # one register, written at 32 bits
    assert dependence_graph(variant).edges == dependence_graph(fn).edges
    assert dependence_graph(fn).directed_pairs() == {(2, 1), (1, 0)}


def test_rename_maps_every_width_and_keeps_the_dependences():
    fn = parse_listing(".func f\nmov bh, 1\nmov bl, 2\nadd esi, ebx\nmov rax, rsi\n"
                       "mov cx, [rbx + r8d*4]\nmov si, cx\nret\n")[0]
    for seed in range(20):
        variant = rename_variant(fn, np.random.default_rng(seed), "v")
        for old, new in zip(fn.instructions, variant.instructions):
            for a, b in zip(old.operands, new.operands):
                for r, s in ((a.reg, b.reg), (a.base, b.base), (a.index, b.index)):
                    assert (r is None) == (s is None)
                    if r and s != r:  # renamed: same width, a high byte to a low byte
                        wide = CANONICAL_REG[r]
                        width = min((wide, *SUB_FORMS[wide]).index(r), 3)
                        assert s == (CANONICAL_REG[s], *SUB_FORMS[CANONICAL_REG[s]])[width]
        assert dependence_graph(variant).edges == dependence_graph(fn).edges


def test_rename_roundtrips_through_parser():
    rng = np.random.default_rng(3)
    listing = "\n".join(generate_function("f", rng)) + "\n"
    fn = parse_listing(listing)[0]
    variant = rename_variant(fn, rng, "v")
    re_parsed = parse_listing(function_text(variant))[0]
    assert [i.raw_text for i in re_parsed.instructions] == \
           [i.raw_text for i in variant.instructions]


def test_eval_spec_pools_contain_truth():
    corpus = build_corpus(15, seed=7, pool_size=10)
    spec = corpus.eval_spec
    assert len(spec["queries"]) == 15
    for pool, t, query in zip(spec["pools"], spec["truth"], spec["queries"]):
        assert len(pool) == 10
        assert pool[t] == query.rsplit("__", 1)[0]
        assert query not in pool


def test_type_labels_positions_valid():
    corpus = build_corpus(6, seed=9)
    cfg = RunConfig()
    arts = Corpus.from_text(corpus.listing, cfg)
    for row in corpus.type_labels:
        seq = arts.by_name[row["function"]].seq
        for pos, label in row["labels"]:
            assert 0 < pos < len(seq)
            assert seq.surface[pos] not in ("[CLS]", "<INST>")


def test_mlc_samples_have_positives():
    corpus = build_corpus(9, seed=4, mlc_group=3)
    assert len(corpus.mlc_samples) == 3
    for row in corpus.mlc_samples:
        assert sum(row["labels"]) >= 1
        assert len(row["functions"]) == 3

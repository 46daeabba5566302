import numpy as np

from depcoder.config import RunConfig
from depcoder.connectivity import connectivity
from depcoder.corpus import Corpus
from depcoder.dependence import DependenceGraph
from depcoder.frontend import build_vocab, parse_listing, tokenize
from depcoder.masks import build_bundle, sparse_masks
from depcoder.synth import generate_function

from oracles import naive_mask_bundle


def seq_of(body: str):
    listing = f".func f\n{body}\n"
    fn = parse_listing(listing)[0]
    return fn, tokenize(fn.instructions, build_vocab(parse_listing(listing)))


def con_of(body: str):
    from depcoder.dependence import dependence_graph
    fn, seq = seq_of(body)
    return seq, connectivity(dependence_graph(fn))


def dependence_enabled(seq, con):
    return build_bundle(seq, con.dist).R > 0


def entries(pairs):
    """The pair list as a set of (i, j)."""
    return set(zip(*(x.tolist() for x in np.divmod(pairs.flat, pairs.n))))


def distances(pairs):
    """(i, j) -> distance at the pairs that carry one."""
    i, j = np.divmod(pairs.flat[pairs.biased], pairs.n)
    return dict(zip(zip(i.tolist(), j.tolist()), pairs.r.tolist()))


def without_dependences(seq):
    """The global and local parts only: no instruction pair is connected."""
    k = seq.n_instructions
    return build_bundle(seq, np.zeros((k, k), dtype=np.int32))


class TestGlobalMask:
    def test_cls_only(self):
        _, seq = seq_of("")
        assert entries(without_dependences(seq)) == {(0, 0)}

    def test_row_and_column_zero_enabled(self):
        _, seq = seq_of("ret")  # N = 3
        got = entries(without_dependences(seq))
        assert {(0, j) for j in range(3)} | {(i, 0) for i in range(3)} <= got
        # past row and column 0 only the instruction's own block is enabled
        assert {(i, j) for i, j in got if i and j} == {(1, 1), (1, 2), (2, 1), (2, 2)}


class TestLocalMask:
    def test_two_diagonal_blocks(self):
        # instruction token blocks of sizes 3 (<INST> push rax) and 2 (<INST> ret)
        _, seq = seq_of("push rax\nret")
        pairs = without_dependences(seq)
        blocks = {(i, j) for b in (range(1, 4), range(4, 6)) for i in b for j in b}
        assert {(i, j) for i, j in entries(pairs) if i and j} == blocks
        # [CLS] self-attention comes from the global part
        assert [0, 0] not in sparse_masks(pairs)["local"]

    def test_cross_instruction_blocked(self):
        seq, con = con_of("mov rax, 1\nmov rbx, rax")
        p0, p1 = seq.inst_positions[0], seq.inst_positions[1]
        assert (p0 + 1, p1 + 1) not in entries(build_bundle(seq, con.dist))


class TestDependenceMask:
    def test_worked_six_instruction_program(self):
        # chain: 5 deps on 1, 4; 4 deps on 3; 6 deps on 5 (1-based)
        dep = DependenceGraph(6, {(4, 0, "data"), (4, 3, "data"),
                                  (3, 2, "data"), (5, 4, "data")})
        con = connectivity(dep)
        body = "\n".join(f"mov rax, {i}" for i in range(6))
        _, seq = seq_of(body)
        m = dependence_enabled(seq, con)
        p = seq.inst_positions
        for other in (0, 2, 3, 5):
            assert m[p[4], p[other]]
            assert m[p[other], p[4]]
        assert not m[p[4], p[1]]
        # non-<INST> entries stay blocked
        assert not m[p[4] + 1, p[0]]

    def test_no_edges_all_blocked(self):
        seq, con = con_of("mov rax, 1\nmov rbx, 2")
        assert not dependence_enabled(seq, con).any()

    def test_truncated_instructions_contribute_nothing(self):
        listing = ".func f\nmov rax, 1\nmov rbx, rax\nmov rcx, rbx\n"
        fn = parse_listing(listing)[0]
        from depcoder.dependence import dependence_graph
        con = connectivity(dependence_graph(fn))
        seq = tokenize(fn.instructions, build_vocab([fn]), max_len=11)
        assert seq.n_instructions == 2
        m = dependence_enabled(seq, con)
        assert m.shape == (len(seq), len(seq))
        p = seq.inst_positions
        assert m[p[1], p[0]]  # retained pair keeps its edge


class TestBundle:
    def test_single_instruction_all_enabled(self):
        seq, con = con_of("ret")
        pairs = build_bundle(seq, con.dist)
        assert np.array_equal(pairs.flat, np.arange(len(seq) ** 2))

    def test_diagonal_and_symmetry(self):
        seq, con = con_of("mov rax, 1\nmov rbx, rax\nadd rbx, rax")
        pairs = build_bundle(seq, con.dist)
        got = entries(pairs)
        assert {(i, i) for i in range(len(seq))} <= got
        assert got == {(j, i) for i, j in got}
        r = distances(pairs)
        assert r and r == {(j, i): d for (i, j), d in r.items()}
        assert pairs.counts.all()

    def test_r_only_between_connected_inst_pairs(self):
        seq, con = con_of("mov rax, 1\nmov rbx, rax\nadd rbx, rax")
        pairs = build_bundle(seq, con.dist)
        inst_positions = set(seq.inst_positions.values())
        assert distances(pairs)
        for u, v in distances(pairs):
            assert u in inst_positions and v in inst_positions
            t, s = seq.inst_of[u], seq.inst_of[v]
            assert t != s and con.dist[t, s] > 0

    def test_worked_example_distances(self):
        dep = DependenceGraph(6, {(4, 0, "data"), (4, 3, "data"),
                                  (3, 2, "data"), (5, 4, "data")})
        con = connectivity(dep)
        body = "\n".join(f"mov rax, {i}" for i in range(6))
        _, seq = seq_of(body)
        r = distances(build_bundle(seq, con.dist))
        p = seq.inst_positions
        assert r[p[4], p[0]] == 1
        assert r[p[4], p[3]] == 1
        assert r[p[4], p[5]] == 1
        assert r[p[4], p[2]] == 2
        assert (p[4], p[1]) not in r

    def test_matches_naive_oracle_on_random_programs(self):
        rng = np.random.default_rng(11)
        cfg = RunConfig()
        for trial in range(200):
            listing = "\n".join(generate_function(f"g{trial}", rng)) + "\n"
            corpus = Corpus.from_text(listing, cfg)
            art = corpus.functions[0]
            want_m, want_r = naive_mask_bundle(art.seq, art.con)
            assert np.array_equal(art.bundle.M, want_m), f"trial {trial}"
            assert np.array_equal(art.bundle.R, want_r), f"trial {trial}"

    def test_artifact_bundle_is_fresh_on_each_access(self):
        # a corpus keeps no mask, so editing one leaves the next untouched
        art = Corpus.from_text(".func f\nmov rax, 1\nmov rbx, rax\n", RunConfig()).functions[0]
        art.bundle.r[:] = 7
        assert len(art.bundle.r) and not np.any(art.bundle.r == 7)

    def test_union_monotone_in_connectivity(self):
        seq, con = con_of("mov rax, 1\nmov rbx, 2\nmov rcx, 3")
        base = build_bundle(seq, con.dist)
        richer = con.dist.copy()
        richer[0, 1] = richer[1, 0] = 1
        extended = build_bundle(seq, richer)
        assert entries(extended) >= entries(base)

    def test_inst_mediated_two_hop_path(self):
        seq, con = con_of("mov rax, 1\nmov rbx, rax")
        got = entries(build_bundle(seq, con.dist))
        p0, p1 = seq.inst_positions[0], seq.inst_positions[1]
        i, j = p0 + 1, p1 + 1  # internal tokens of the two instructions
        assert (i, j) not in got
        assert (i, p0) in got
        assert (p0, p1) in got
        assert (p1, j) in got


class TestSparseSerialization:
    def test_pairs_sorted_and_consistent(self):
        seq, con = con_of("mov rax, 1\nmov rbx, rax")
        sp = sparse_masks(build_bundle(seq, con.dist))
        assert sp["n"] == len(seq)
        for kind in ("global", "local", "dependence"):
            assert sp[kind] == sorted(sp[kind])
            assert all(i <= j for i, j in sp[kind])
        p0, p1 = seq.inst_positions[0], seq.inst_positions[1]
        assert [p0, p1] in sp["dependence"]
        assert [p0, p1, 1] in sp["r"]

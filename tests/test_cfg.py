from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depcoder.cfg import EXIT, CfgError, _augment_exit_reachability, build_cfg
from depcoder.frontend import parse_listing

from generators import random_looping_program
from oracles import oracle_augment_exit_reachability


def cfg_of(body: str):
    return build_cfg(parse_listing(f".func f\n{body}\n")[0])


def test_straight_line_single_block():
    cfg = cfg_of("mov rax, 1\nadd rax, 2\nret")
    assert cfg.blocks == [(0, 3)]
    assert cfg.succ[0] == [EXIT]


def test_if_then_shape():
    cfg = cfg_of("cmp rax, rbx\njnz .L\nmov rcx, 1\n.L:\nret")
    assert cfg.blocks == [(0, 2), (2, 3), (3, 4)]
    assert cfg.succ[0] == [2, 1]  # taken target first, then fallthrough
    assert cfg.succ[1] == [2]
    assert cfg.succ[2] == [EXIT]


def test_jmp_no_duplicate_edge():
    cfg = cfg_of("jmp .L\n.L:\nret")
    assert cfg.succ[0] == [1]


def test_indirect_jump_goes_to_exit():
    cfg = cfg_of("mov rax, rbx\njmp rax")
    assert cfg.succ[0] == [EXIT]


def test_fallthrough_block_at_end_gets_exit_edge():
    cfg = cfg_of("jmp .L\nmov rax, 1\n.L:\nmov rbx, 2")
    # last block ends without a terminator
    assert EXIT in cfg.succ[len(cfg.blocks) - 1]


def test_trailing_label_resolves_to_exit():
    cfg = cfg_of("cmp rax, rbx\nje .end\nmov rcx, 1\n.end:")
    assert cfg.succ[0][0] == EXIT


def test_unresolvable_label():
    with pytest.raises(CfgError, match="nowhere"):
        cfg_of("jmp .nowhere")


def test_infinite_loop_augmented_to_exit():
    cfg = cfg_of(".loop:\nadd rax, 1\njmp .loop")
    assert EXIT in cfg.succ[0]


def test_empty_function():
    cfg = build_cfg(parse_listing(".func f\n")[0])
    assert cfg.blocks == []


def test_every_instruction_in_exactly_one_block():
    fn = parse_listing(".func f\ncmp rax, rbx\njl .a\nmov rcx, 1\njmp .b\n"
                       ".a:\nmov rcx, 2\n.b:\nret\n")[0]
    cfg = build_cfg(fn)
    covered = []
    for (lo, hi) in cfg.blocks:
        covered.extend(range(lo, hi))
    assert covered == list(range(len(fn.instructions)))


def test_first_stuck_block_gets_the_exit_edge_each_round():
    # 0 -> 1 <-> 2 never reaches EXIT.  Block 0's edge leaves 1 and 2 stuck,
    # so block 1 gets one too, after which block 2 reaches EXIT through 1.
    cfg = cfg_of("jmp .a\n.a:\nadd rax, 1\njmp .b\n.b:\nadd rbx, 1\njmp .a")
    assert cfg.succ == {0: [1, EXIT], 1: [2, EXIT], 2: [1]}


def unaugmented_cfg(fn):
    with mock.patch("depcoder.cfg._augment_exit_reachability"):
        return build_cfg(fn)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), max_instr=st.integers(3, 24))
def test_exit_edges_of_looping_programs_match_the_fixed_point(seed, max_instr):
    fn = parse_listing(random_looping_program(np.random.default_rng(seed), max_instr))[0]
    raw = unaugmented_cfg(fn)
    want = {b: list(vs) for b, vs in raw.succ.items()}
    oracle_augment_exit_reachability(raw.blocks, want)
    assert build_cfg(fn).succ == want


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40))
def test_exit_edges_of_fabricated_graphs_match_the_fixed_point(seed, n):
    # one or two targets per block, EXIT one in 3n + 1 of them, so long
    # chains and many stuck cycles occur
    rng = np.random.default_rng(seed)
    succ = {b: list(dict.fromkeys(EXIT if t < 0 else int(t) % n
                                  for t in rng.integers(-1, 3 * n, int(rng.integers(1, 3)))))
            for b in range(n)}
    blocks = [(b, b + 1) for b in range(n)]
    want = {b: list(vs) for b, vs in succ.items()}
    oracle_augment_exit_reachability(blocks, want)
    _augment_exit_reachability(blocks, succ)
    assert succ == want

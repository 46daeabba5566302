import itertools

import numpy as np
import pytest

from depcoder.cfg import EXIT, build_cfg
from depcoder.dependence import (CALL_DEFS, CALL_USES, MEMORY_ALL,
                                 STACK_FRAME_ALL, UnsupportedInstruction,
                                 control_dependences, data_dependences,
                                 def_use, dependence_graph, frame_offsets,
                                 may_locations, overlap, reg_loc, slot_loc,
                                 block_control_dependences, FLAGS)
from depcoder.frontend import parse_listing

from generators import random_cfg, random_loopfree_function
from oracles import oracle_block_control_deps, oracle_overlap, path_enum_data_deps


def fn_of(body: str):
    return parse_listing(f".func f\n{body}\n")[0]


def op_of(text: str):
    return fn_of(f"mov rax, {text}").instructions[0].operands[1]


class TestMayLocations:
    def test_tracked_stack_offset(self):
        assert may_locations(op_of("[rsp + 0x20]"), 0) == {slot_loc(0x20)}

    def test_indexed_stack_is_whole_frame(self):
        assert may_locations(op_of("[rsp + rax*8 + 0x30]"), 0) == {STACK_FRAME_ALL}

    def test_untracked_rsp_is_whole_frame(self):
        assert may_locations(op_of("[rsp + 0x20]"), None) == {STACK_FRAME_ALL}

    def test_non_stack_memory(self):
        assert may_locations(op_of("[rbx + rax]"), 0) == {MEMORY_ALL}

    def test_register_and_immediate(self):
        assert may_locations(op_of("eax"), 0) == {reg_loc("rax")}
        assert may_locations(op_of("42"), 0) == set()

    def test_frame_relative_offsets_shift_with_rsp(self):
        # after one push the same [rsp + 0x10] names a different entry slot
        assert may_locations(op_of("[rsp + 0x10]"), -8) == {slot_loc(8)}


class TestFrameTracking:
    def test_push_pop_sub_add(self):
        fn = fn_of("push rax\nsub rsp, 32\nmov rbx, [rsp]\nadd rsp, 32\npop rax\nret")
        assert frame_offsets(fn.instructions) == [0, -8, -40, -40, -8, 0]

    def test_untracked_after_direct_write(self):
        fn = fn_of("mov rsp, rax\nmov rbx, [rsp + 8]")
        offs = frame_offsets(fn.instructions)
        assert offs[0] == 0 and offs[1] is None

    def test_untracked_after_non_immediate_sub(self):
        fn = fn_of("sub rsp, rax\nmov rbx, [rsp]")
        assert frame_offsets(fn.instructions)[1] is None


class TestDefUse:
    def test_store_to_tracked_slot(self):
        fn = fn_of("mov [rsp + 0x10], rax")
        defs, uses = def_use(fn.instructions[0], 0)
        assert defs == {slot_loc(0x10)}
        assert uses == {reg_loc("rax")}

    def test_nop(self):
        assert def_use(fn_of("nop").instructions[0], 0) == (set(), set())

    def test_add_with_and_without_flags(self):
        instr = fn_of("add rax, rbx").instructions[0]
        defs, uses = def_use(instr, 0, flags_channel=False)
        assert defs == {reg_loc("rax")}
        assert uses == {reg_loc("rax"), reg_loc("rbx")}
        defs, _ = def_use(instr, 0, flags_channel=True)
        assert defs == {reg_loc("rax"), FLAGS}

    def test_load_uses_region_not_pointer(self):
        # reads through a pointer carry the pointed-to region only
        _, uses = def_use(fn_of("mov rdx, [rcx]").instructions[0], 0)
        assert uses == {MEMORY_ALL}

    def test_store_uses_destination_address_registers(self):
        _, uses = def_use(fn_of("mov [rcx], rdx").instructions[0], 0)
        assert uses == {reg_loc("rdx"), reg_loc("rcx")}

    def test_call_clobbers(self):
        defs, uses = def_use(fn_of("call helper").instructions[0], 0)
        assert defs == set(CALL_DEFS)
        assert uses == set(CALL_USES)

    def test_lea_reads_registers_not_memory(self):
        _, uses = def_use(fn_of("lea rax, [rbx + 2*rcx + 8]").instructions[0], 0)
        assert uses == {reg_loc("rbx"), reg_loc("rcx")}

    def test_sub_register_aliasing(self):
        defs, _ = def_use(fn_of("mov eax, 1").instructions[0], 0)
        assert defs == {reg_loc("rax")}

    def test_unknown_mnemonic_error_or_conservative(self):
        instr = fn_of("cpuid").instructions[0]
        with pytest.raises(UnsupportedInstruction, match="cpuid"):
            def_use(instr, 0)
        defs, uses = def_use(instr, 0, on_unknown="conservative")
        assert MEMORY_ALL in defs and MEMORY_ALL in uses
        assert reg_loc("rax") in defs


class TestOverlap:
    def test_rules(self):
        assert overlap(reg_loc("rax"), reg_loc("eax"))
        assert not overlap(reg_loc("rax"), reg_loc("rbx"))
        assert overlap(slot_loc(8), slot_loc(8))
        assert not overlap(slot_loc(8), slot_loc(16))
        assert overlap(slot_loc(8), STACK_FRAME_ALL)
        assert overlap(slot_loc(8), MEMORY_ALL)
        assert overlap(STACK_FRAME_ALL, MEMORY_ALL)
        assert not overlap(reg_loc("rax"), MEMORY_ALL)
        assert not overlap(FLAGS, MEMORY_ALL)

    def test_every_pair_matches_the_documented_rule(self):
        locs = [reg_loc("rax"), reg_loc("rbx"), reg_loc("eax"), FLAGS, slot_loc(8),
                slot_loc(16), STACK_FRAME_ALL, MEMORY_ALL]
        for a, b in itertools.product(locs, repeat=2):
            assert overlap(a, b) == overlap(b, a) == oracle_overlap(a, b), (a, b)


class TestDataDependences:
    def test_store_load_pointer_chain(self):
        fn = fn_of("mov rax, rbx\nmov [rsp + 0x10], rax\n"
                   "mov rcx, [rsp + 0x10]\nmov rdx, [rcx]")
        edges = data_dependences(fn.instructions, build_cfg(fn))
        assert edges == {(1, 0), (2, 1), (3, 1)}

    def test_single_instruction(self):
        fn = fn_of("mov rax, rbx")
        assert data_dependences(fn.instructions, build_cfg(fn)) == set()

    def test_diamond_join_sees_both_definitions(self):
        fn = fn_of("cmp rsi, rdi\njne .else\nmov rax, 1\njmp .join\n"
                   ".else:\nmov rax, 2\n.join:\nmov rbx, rax")
        edges = data_dependences(fn.instructions, build_cfg(fn))
        assert {(5, 2), (5, 4)} <= edges
        assert (5, 0) not in edges

    def test_kill_stops_stale_definition(self):
        fn = fn_of("mov rax, 1\nmov rax, 2\nmov rbx, rax")
        edges = data_dependences(fn.instructions, build_cfg(fn))
        assert (2, 1) in edges and (2, 0) not in edges

    def test_whole_frame_store_kills_nothing(self):
        # rsp is untracked after the mov, so both stores write the whole frame
        fn = fn_of("mov rsp, rbp\nmov [rsp + 8], rax\nmov [rsp + 16], rbx\nmov rcx, [rsp]")
        edges = data_dependences(fn.instructions, build_cfg(fn))
        assert edges == {(3, 1), (3, 2)}

    def test_loop_carried_dependence_without_self_loop(self):
        fn = fn_of("mov rax, 0\n.loop:\nadd rax, rbx\nmov rcx, rax\n"
                   "cmp rcx, rdx\njl .loop")
        edges = data_dependences(fn.instructions, build_cfg(fn))
        assert (2, 1) in edges      # rcx <- the add
        assert (1, 1) not in edges  # self-dependences dropped
        assert (1, 0) in edges      # add still sees the init on iteration 1

    def test_loop_block_is_walked_again_with_its_own_definitions(self):
        # the loop block's first walk sees only the entry's rax; the rax it
        # defines itself reaches its first instruction on the next walk
        fn = fn_of("mov rax, 0\n.l:\nmov rbx, rax\nmov rax, rcx\njl .l")
        edges = data_dependences(fn.instructions, build_cfg(fn))
        assert edges == {(1, 0), (1, 2)}

    def test_unreachable_blocks_are_analysed(self):
        # nothing jumps to the second and third blocks; the third is reached
        # only from the second
        fn = fn_of("ret\nmov rax, 1\njmp .b\n.b:\nmov rbx, rax\nmov rcx, rbx\nret")
        cfg = build_cfg(fn)
        assert cfg.preds()[1] == []
        edges = data_dependences(fn.instructions, cfg)
        assert edges == {(3, 1), (4, 3), (5, 1)}  # (5, 1): ret uses rax

    def test_matches_path_enumeration_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(200):
            fn = random_loopfree_function(rng, max_instr=10)
            cfg = build_cfg(fn)
            got = data_dependences(fn.instructions, cfg)
            want = path_enum_data_deps(fn.instructions, cfg)
            assert got == want, f"trial {trial}:\n{fn.instructions}"

    def test_flags_channel_only_adds_edges(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            fn = random_loopfree_function(rng, max_instr=10)
            cfg = build_cfg(fn)
            without = data_dependences(fn.instructions, cfg, flags_channel=False)
            with_flags = data_dependences(fn.instructions, cfg, flags_channel=True)
            assert without <= with_flags

    def test_flags_edge_links_jcc_to_cmp(self):
        fn = fn_of("cmp rax, rbx\njne .l\nmov rcx, 1\n.l:\nret")
        cfg = build_cfg(fn)
        edges = data_dependences(fn.instructions, cfg, flags_channel=True)
        assert (1, 0) in edges
        edges = data_dependences(fn.instructions, cfg, flags_channel=False)
        assert (1, 0) not in edges


class TestControlDependences:
    def test_straight_line_has_none(self):
        fn = fn_of("mov rax, 1\nadd rax, 2\nret")
        assert control_dependences(fn.instructions, build_cfg(fn)) == set()

    def test_if_then_guarded_depends_on_branch(self):
        # hand post-dominator computation: the mov (index 2) is guarded by
        # the jnz (index 1); cmp and ret post-dominate / precede the branch
        fn = fn_of("cmp rax, rbx\njnz .L\nmov rcx, 1\n.L:\nret")
        edges = control_dependences(fn.instructions, build_cfg(fn))
        assert edges == {(2, 1)}

    def test_if_then_else_join_independent(self):
        fn = fn_of("cmp rsi, rdi\njne .else\nmov rax, 1\njmp .join\n"
                   ".else:\nmov rax, 2\n.join:\nmov rbx, rax")
        edges = control_dependences(fn.instructions, build_cfg(fn))
        assert edges == {(2, 1), (3, 1), (4, 1)}  # both arms incl. the jmp

    def test_infinite_loop_worked_example(self):
        # blocks: 0 = cmp/je, 1 = the add/jmp loop, 2 = ret.  The loop gets
        # an edge to EXIT, so pdom(1) = {1, EXIT}, pdom(2) = {2, EXIT} and
        # pdom(0) = {0, EXIT}: both arms depend on the je, and the loop body
        # depends on its own jmp through the augmentation edge.
        fn = fn_of("cmp rax, rbx\nje .out\n.loop:\nadd rax, 1\njmp .loop\n"
                   ".out:\nret")
        cfg = build_cfg(fn)
        assert cfg.succ == {0: [2, 1], 1: [1, EXIT], 2: [EXIT]}
        assert block_control_dependences(cfg) == {(1, 0), (2, 0), (1, 1)}
        assert control_dependences(fn.instructions, cfg) == {
            (2, 1), (3, 1), (4, 1), (2, 3)}

    def test_matches_postdominance_oracle(self):
        rng = np.random.default_rng(123)
        for trial in range(100):
            cfg = random_cfg(rng, max_blocks=12)
            got = block_control_dependences(cfg)
            want = oracle_block_control_deps(cfg)
            assert got == want, f"trial {trial}: {cfg.succ}"


class TestDependenceGraph:
    def test_union_of_kinds(self):
        fn = fn_of("mov rax, 5\ncmp rax, rbx\njnz .L\nmov rcx, rax\n.L:\nret")
        g = dependence_graph(fn)
        assert (3, 0, "data") in g.edges
        assert (3, 2, "control") in g.edges

    def test_serialization_sorted_and_deterministic(self):
        fn = fn_of("mov rax, rbx\nmov rcx, rax\nadd rcx, rax")
        a = dependence_graph(fn).to_dict()
        b = dependence_graph(fn).to_dict()
        assert a == b
        assert a["edges"] == sorted(a["edges"])

    def test_no_self_loops(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            fn = random_loopfree_function(rng)
            g = dependence_graph(fn)
            assert all(u != v for u, v, _ in g.edges)

    def test_nodes_in_range(self):
        fn = fn_of("mov rax, rbx\nmov rcx, rax")
        g = dependence_graph(fn)
        assert all(0 <= u < g.n_nodes and 0 <= v < g.n_nodes for u, v, _ in g.edges)

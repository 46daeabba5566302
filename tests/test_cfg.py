import pytest

from depcoder.cfg import EXIT, CfgError, build_cfg
from depcoder.frontend import parse_listing


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

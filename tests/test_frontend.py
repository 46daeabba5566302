import pytest

from depcoder.errors import InputError
from depcoder.frontend import (CLS, INST, RESERVED_TOKENS, UNK_ID, Operand,
                               ParseError, Vocabulary, build_vocab, immediate_token,
                               instruction_tokens, parse_listing, tokenize)


def parse_one(body: str):
    return parse_listing(f".func f\n{body}\n")[0]


class TestParsing:
    def test_memory_with_scaled_index(self):
        instr = parse_one("mov rdx, [rbx+4*rax]").instructions[0]
        assert instr.mnemonic == "mov"
        assert instr.operands[0] == Operand.register("rdx")
        assert instr.operands[1] == Operand.memory(base="rbx", index="rax", scale=4)

    def test_zero_operand(self):
        instr = parse_one("ret").instructions[0]
        assert instr.mnemonic == "ret"
        assert instr.operands == ()

    def test_label_operand(self):
        fn = parse_one("jnz .L2\n.L2:\nret")
        assert fn.instructions[0].operands == (Operand.label_ref(".L2"),)
        assert fn.labels == {".L2": 1}

    def test_index_scale_order_flexible(self):
        a = parse_one("mov rax, [rbx + rax*8 + 0x30]").instructions[0]
        b = parse_one("mov rax, [rbx + 8*rax + 48]").instructions[0]
        assert a.operands[1] == b.operands[1] == Operand.memory(
            base="rbx", index="rax", scale=8, disp=0x30)

    def test_negative_and_hex_displacements(self):
        op = parse_one("mov rax, [rsp - 8]").instructions[0].operands[1]
        assert op.disp == -8
        op = parse_one("mov rax, [rsp + 0x20]").instructions[0].operands[1]
        assert op.disp == 0x20

    def test_leading_zero_numbers_are_decimal(self):
        instr = parse_one("mov rax, 08").instructions[0]
        assert instr.operands[1] == Operand.immediate(8)
        op = parse_one("mov rax, [rsp + 010]").instructions[0].operands[1]
        assert op.base == "rsp" and op.disp == 10
        op = parse_one("mov rax, [rbx + 08*rcx - 0x010]").instructions[0].operands[1]
        assert (op.scale, op.disp) == (8, -0x10)

    def test_any_case_and_whitespace_parse_as_the_lower_case_listing(self):
        lower = parse_one("mov rax, 0x1f\nlea rbx, [rsp + 8*rax + 8]\njmp rax\n.l:\njl .l")
        upper = parse_one("MOV\tRAX,  0X1F\nLEA \t RBX, [RSP + RAX*8 + 8]\nJMP\tRAX\n.l:\nJL .l")
        assert [i[:3] for i in upper.instructions] == [i[:3] for i in lower.instructions]
        assert upper.labels == lower.labels

    def test_labels_stay_case_sensitive(self):
        fn = parse_one("jmp .L\n.l:\nret")
        assert fn.instructions[0].operands == (Operand.label_ref(".L"),)
        assert fn.labels == {".l": 1}

    def test_displacement_only_memory(self):
        op = parse_one("mov rax, [0x404000]").instructions[0].operands[1]
        assert op.base is None and op.index is None and op.disp == 0x404000

    def test_immediates(self):
        instr = parse_one("mov rax, -17").instructions[0]
        assert instr.operands[1] == Operand.immediate(-17)

    def test_comments_and_blank_lines(self):
        fn = parse_listing(".func f\n# full comment\n\nret # trailing\n")[0]
        assert [i.mnemonic for i in fn.instructions] == ["ret"]

    def test_instruction_indices_dense(self):
        fn = parse_one("mov rax, 1\nmov rbx, 2\nret")
        assert [i.index for i in fn.instructions] == [0, 1, 2]

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_listing(".func f\nmov rax, 1\nmov rax, ???\n")
        assert exc.value.line == 3
        assert "???" in str(exc.value)

    def test_repeated_bad_operand_names_its_first_line(self):
        # operands are parsed once per distinct text; one that fails is not kept
        listing = ".func f\nmov rax, 1\nmov rax, ???\nret\n.func g\n" + "nop\n" * 3 + \
            "mov rbx, ???\n"
        with pytest.raises(ParseError) as exc:
            parse_listing(listing)
        assert exc.value.line == 3
        assert str(exc.value) == "line 3: unknown operand form '???'"

    def test_error_on_bad_scale(self):
        with pytest.raises(ParseError, match="scale"):
            parse_one("mov rax, [rbx + 3*rcx]")

    def test_error_outside_function(self):
        with pytest.raises(ParseError):
            parse_listing("mov rax, 1\n")

    def test_error_duplicate_function(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_listing(".func f\nret\n.func f\nret\n")

    def test_trailing_label_points_past_end(self):
        fn = parse_one("jmp .end\nmov rax, 1\n.end:")
        assert fn.labels[".end"] == 2


class TestImmediateNormalization:
    def test_small_values_stay_literal(self):
        assert immediate_token(7) == "7"
        assert immediate_token(-255) == "-255"

    def test_width_buckets(self):
        assert immediate_token(256) == "<imm16>"
        assert immediate_token(0x401000) == "<imm32>"
        assert immediate_token(1 << 40) == "<imm64>"
        assert immediate_token(-(1 << 20)) == "<imm32>"

    def test_label_becomes_addr_token(self):
        fn = parse_one("call helper")
        assert instruction_tokens(fn.instructions[0]) == ["call", "<addr>"]


def _vocab_for(body: str) -> Vocabulary:
    return build_vocab(parse_listing(f".func f\n{body}\n"))


class TestTokenize:
    def test_scaled_index_memory_sequence(self):
        fn = parse_one("mov rdx, [rbx+4*rax]")
        seq = tokenize(fn.instructions, _vocab_for("mov rdx, [rbx+4*rax]"))
        assert seq.surface == ["[CLS]", "<INST>", "mov", "rdx", ",", "[",
                               "rbx", "+", "4", "*", "rax", "]"]
        assert seq.inst_of == [-1] + [0] * 11
        assert seq.inst_positions == {0: 1}

    def test_empty_function(self):
        seq = tokenize([], _vocab_for("ret"))
        assert seq.surface == [CLS]
        assert seq.n_instructions == 0

    def test_whole_instruction_truncation(self):
        # three instructions of 6 surface tokens (7 with <INST>); max_len 10
        # holds [CLS] + one instruction (8 tokens) but not two (15)
        body = "mov rax, [rbx]\nmov rcx, [rdx]\nmov rsi, [rdi]"
        fn = parse_one(body)
        seq = tokenize(fn.instructions, _vocab_for(body), max_len=10)
        assert seq.n_instructions == 1
        assert seq.surface.count(INST) == 1
        assert len(seq) == 8

    def test_truncation_never_splits(self):
        body = "mov rax, [rbx]\nmov rcx, [rdx]\nmov rsi, [rdi]"
        fn = parse_one(body)
        vocab = _vocab_for(body)
        for max_len in range(2, 30):
            seq = tokenize(fn.instructions, vocab, max_len=max_len)
            # retained instructions are a prefix
            assert sorted(seq.inst_positions) == list(range(seq.n_instructions))

    def test_truncation_monotone_in_max_len(self):
        body = "mov rax, [rbx]\nadd rax, 4\nret\nmov rcx, 9"
        fn = parse_one(body)
        vocab = _vocab_for(body)
        lengths = [len(tokenize(fn.instructions, vocab, max_len=m))
                   for m in range(2, 40)]
        assert lengths == sorted(lengths)

    def test_roundtrip_by_inst_of(self):
        body = "mov rax, [rbx+8]\nadd rax, rcx\nret"
        fn = parse_one(body)
        seq = tokenize(fn.instructions, _vocab_for(body))
        for instr in fn.instructions:
            toks = [s for s, t in zip(seq.surface, seq.inst_of) if t == instr.index]
            assert toks == [INST] + instruction_tokens(instr)

    def test_inst_positions_consistent(self):
        body = "mov rax, 1\nadd rax, 2\nret"
        fn = parse_one(body)
        seq = tokenize(fn.instructions, _vocab_for(body))
        assert seq.surface.count(INST) == seq.n_instructions == 3
        for t, pos in seq.inst_positions.items():
            assert seq.surface[pos] == INST
            assert seq.inst_of[pos] == t


class TestVocabulary:
    def test_single_instruction_corpus(self):
        vocab = build_vocab(parse_listing(".func f\nret\n"), min_freq=1)
        assert "ret" in vocab
        assert vocab.id("ret") >= 9  # after the reserved block

    def test_bucketing_applied_during_build(self):
        vocab = build_vocab(parse_listing(".func f\nmov rax, 7\nmov rbx, 0x401000\n"))
        assert "7" in vocab
        assert "<imm32>" in vocab
        assert "0x401000" not in vocab and "4198400" not in vocab

    def test_min_freq_drops_rare_tokens(self):
        listing = ".func f\nmov rax, 1\nmov rax, 1\npush rbx\n"
        vocab = build_vocab(parse_listing(listing), min_freq=2)
        assert "mov" in vocab and "rax" in vocab
        assert "push" not in vocab
        fn = parse_listing(listing)[0]
        seq = tokenize(fn.instructions, vocab)
        assert seq.tokens[seq.surface.index("push")] == UNK_ID

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputError, match="empty corpus"):
            build_vocab([])

    def test_deterministic_given_corpus_order(self):
        functions = parse_listing(".func a\nmov rax, rbx\n.func b\nadd rcx, rdx\n")
        v1 = build_vocab(functions)
        v2 = build_vocab(functions)
        assert [v1.token(i) for i in range(len(v1))] == \
               [v2.token(i) for i in range(len(v2))]

    def test_save_load_roundtrip(self, tmp_path):
        vocab = build_vocab(parse_listing(".func f\nmov rax, [rbx+4*rax]\nret\n"))
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert len(loaded) == len(vocab)
        assert all(loaded.token(i) == vocab.token(i) for i in range(len(vocab)))

    @pytest.mark.parametrize("rows", [[("mov", 10), ("rax", 11)],
                                      [("mov", 9), ("rax", 9)]],
                             ids=["gap", "duplicate"])
    def test_load_rejects_ids_that_are_not_consecutive(self, tmp_path, rows):
        path = tmp_path / "vocab.tsv"
        lines = list(zip(RESERVED_TOKENS, range(len(RESERVED_TOKENS)))) + rows
        path.write_text("".join(f"{tok}\t{idx}\n" for tok, idx in lines))
        with pytest.raises(InputError, match="not exactly"):
            Vocabulary.load(path)

    def test_unknown_lookup_is_unk(self):
        vocab = build_vocab(parse_listing(".func f\nret\n"))
        assert vocab.id("never-seen") == UNK_ID

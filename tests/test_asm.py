"""Assembler contracts and the round-trip oracle over the bundled corpus."""

import random
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from ellf import asm, elfio, meta as meta_module
from ellf.asm import (
    FuncBegin,
    FuncEnd,
    Instr,
    SlotDef,
    assemble,
    assemble_image,
    parse_assembly,
    roundtrip_check,
    _CODE_RE,
    _split_args,
    _split_terms,
)
from ellf.corpus import corpus_programs, hazard_program
from ellf.errors import (
    AsmSyntaxError,
    EllfError,
    PointerStraddle,
    RangeOverflow,
    UndefinedLabel,
)
from ellf.isa import (
    JCC_MNEMONICS,
    Immediate,
    MemRef,
    PcRel,
    Register,
    SymbolRef,
    _REG_INFO,
    encode_one,
    label_imm_width,
)
from ellf.lifter import emit_assembly, lift, render_operand
from helpers_gen import random_form
from ellf.meta import DataPointer, OperandPointer, decode_metadata, validate_metadata
from test_frozen_outputs import PROGRAMS, mutated_sources


def test_bases_do_not_leak_into_the_parsed_program():
    prog = parse_assembly(".section .text\n.func f\n    ret\n.endfunc\n")
    _, meta_a = assemble_image(prog, {".text": 0x1000})
    _, meta_b = assemble_image(prog, {".text": 0x2000})
    assert meta_a.instruction_regions[0].start == 0x1000
    assert meta_b.instruction_regions[0].start == 0x2000
    assert prog.sections[0].base is None


@pytest.mark.parametrize("literal", [r'"\xZZ"', r'"\x"'])
def test_bad_hex_escape_is_a_syntax_error(literal):
    src = f".section .data base=0x2000\n    .asciz {literal}\n"
    with pytest.raises(AsmSyntaxError) as info:
        parse_assembly(src)
    assert info.value.line == 2


@pytest.mark.parametrize("literal, message", [(r'"abc\"', "dangling escape"),
                                              (r'"\q"', r"unknown escape \\q")])
def test_dangling_or_unknown_escape_is_a_syntax_error(literal, message):
    src = f".section .data base=0x2000\n    .asciz {literal}\n"
    with pytest.raises(AsmSyntaxError, match=message) as info:
        parse_assembly(src)
    assert info.value.line == 2


def test_hex_escape_with_two_digits():
    prog = parse_assembly('.section .data base=0x2000\n    .asciz "\\x41\\x7a"\n')
    assert prog.sections[0].items[0].payload == b"Az\0"


def test_slot_constant_after_endfunc_is_undefined():
    src = """\
.section .text base=0x1000
.func f
.slot f, s8, 8
    mov rax, [rsp - s8]
    ret
.endfunc
    mov rax, [rsp - s8]
"""
    with pytest.raises(UndefinedLabel) as info:
        assemble(parse_assembly(src))
    assert info.value.line == 7


@pytest.mark.parametrize("name", sorted(corpus_programs()))
def test_corpus_round_trip(name):
    report = roundtrip_check(corpus_programs()[name])
    assert report.ok, report.lines()


def test_round_trip_lifts_the_metadata_stored_in_the_elf(monkeypatch):
    src = corpus_programs()["12_data_pointers"]
    assert roundtrip_check(src).ok
    encode = asm.encode_canonical
    monkeypatch.setattr(asm, "encode_canonical", lambda meta: encode(meta._replace(data=())))
    report = roundtrip_check(src)
    assert not report.ok and not report.metadata_fixpoint


def test_hazard_fails_strict_lift():
    elf, _ = assemble(parse_assembly(hazard_program()))
    img = elfio.read_elf(elf)
    meta = decode_metadata(elfio.extract_section(img, ".ellf"))
    with pytest.raises(PointerStraddle):
        lift(img, meta, mode="strict")


# A label immediate's field does not depend on the label's value: imm32 here.
LABEL_IMMEDIATES = """\
.section .text base={base}
.func f
    add rax, g
    cmp rcx, g
    ret
.endfunc
.func g
    ret
.endfunc
"""


@pytest.mark.parametrize("base", ["0x0", "0x401000"])
def test_label_immediates_on_group1_forms_round_trip(base):
    src = LABEL_IMMEDIATES.format(base=base)
    report = roundtrip_check(src)
    assert report.ok, report.lines()
    elf, meta = assemble(parse_assembly(src))
    text = next(sec for sec in elfio.read_elf(elf).sections if sec.name == ".text")
    assert text.size == 7 + 7 + 1 + 1
    assert meta.instruction_regions[0].count == 4


def test_label_immediate_beyond_imm32_is_a_syntax_error_naming_the_line():
    with pytest.raises(AsmSyntaxError) as info:
        assemble(parse_assembly(LABEL_IMMEDIATES.format(base="0x80000000")))
    assert info.value.line == 3


MOVABS = ".section .text base=0x1000\n.func f\n    {}\n    mov rcx, 7\n    ret\n.endfunc\n"


def test_movabs_keeps_a_small_immediate_in_the_imm64_field():
    src = MOVABS.format("movabs rax, 7")
    prog = parse_assembly(src)
    assert prog.sections[0].items[1] == Instr("mov", (Register("rax"), Immediate(7, 64)), 3)
    elf, meta = assemble(prog)
    img = elfio.read_elf(elf)
    assert elfio.load_image(img).read(0x1000, 0x1012) == bytes.fromhex(
        "48b80700000000000000" "48c7c107000000" "c3")
    assert "    movabs rax, 7\n    mov rcx, 7\n" in emit_assembly(lift(img, meta))
    assert roundtrip_check(src).ok


@pytest.mark.parametrize("statement", ["movabs eax, 7", "movabs rax, rcx", "movabs rax, f",
                                       "movabs rax", "movabs [rax], 7"])
def test_movabs_takes_a_64_bit_register_and_a_number(statement):
    with pytest.raises(AsmSyntaxError, match="movabs takes a 64-bit register and a number") \
            as info:
        parse_assembly(MOVABS.format(statement))
    assert info.value.line == 3


def test_branch_out_of_rel32_range_names_the_line():
    src = (".section .text base=0x1000\n.func f\n    jmp g\n.endfunc\n"
           ".section .text2 base=0x100001000\n.func g\n    ret\n.endfunc\n")
    with pytest.raises(RangeOverflow, match="out of rel32 range") as info:
        assemble(parse_assembly(src))
    assert info.value.line == 3


def layout_forms(prog):
    """The distinct (mnemonic, operands) that laying out ``prog`` encodes: slot
    constants resolved against the enclosing function's slot table, and each
    label operand a placeholder that names neither the label nor an address."""
    slots = {}
    for sec in prog.sections:
        for item in sec.items:
            if isinstance(item, SlotDef):
                slots.setdefault(item.function, {})[item.name] = item.offset

    def operand(ins, op, table):
        if isinstance(op, MemRef):  # [LABEL + N]
            return MemRef(rip_relative=True)
        if isinstance(op, SymbolRef):
            if ins.mnemonic in ("jmp", "call") or ins.mnemonic in JCC_MNEMONICS:
                return PcRel(0)
            return Immediate(0, label_imm_width(ins))
        if isinstance(op, asm._MemAst):
            disp = sum(sign * (term if isinstance(term, int) else table[term])
                       for sign, term in op.const_terms)
            return MemRef(base=op.base, index=op.index, scale=op.scale, disp=disp)
        return op

    forms = set()
    for sec in prog.sections:
        table = {}
        for item in sec.items:
            if isinstance(item, FuncBegin):
                table = slots.get(item.name, {})
            elif isinstance(item, FuncEnd):
                table = {}
            elif isinstance(item, Instr):
                forms.add((item.mnemonic,
                           tuple(operand(item, op, table) for op in item.operands)))
    return forms


def encode_calls(monkeypatch, prog):
    calls = []
    real = asm.encode_one
    monkeypatch.setattr(asm, "encode_one", lambda *args: calls.append(args) or real(*args))
    assemble_image(prog)
    return calls


@pytest.mark.parametrize("name", sorted(corpus_programs()))
def test_each_instruction_is_encoded_once_plus_once_per_label_reference(
        monkeypatch, name):
    """An instruction is encoded once through its layout form, whose bytes
    every instruction of the same form shares, and each one that names a label
    is encoded once more at its fixup."""
    prog = parse_assembly(corpus_programs()[name])
    labeled = [item for sec in prog.sections for item in sec.items
               if isinstance(item, Instr)
               and any(isinstance(op, (SymbolRef, MemRef)) for op in item.operands)]
    calls = encode_calls(monkeypatch, prog)
    assert len(calls) == len(layout_forms(prog)) + len(labeled)


def test_a_repeated_form_is_encoded_once_and_a_label_reference_once_more(monkeypatch):
    src = (".section .text base=0x1000\n.func f\n    push rbp\n    call f\n"
           "    push rbp\n    call f\n    push rbp\n.endfunc\n")
    calls = encode_calls(monkeypatch, parse_assembly(src))
    assert len(calls) == 1 + 1 + 2  # push rbp, call's placeholder, each call's fixup


def text_bytes(raw, start, end):
    return elfio.load_image(elfio.read_elf(raw)).read(start, end)


def test_a_form_encodes_by_its_function_slot_table_not_its_line_text():
    line = "    mov rax, [rbp - s8]"
    src = "\n".join([".section .text base=0x1000", ".slot f, s8, 8", ".slot g, s8, 16",
                     ".func f", "    push rbp", line, "    push rbp", line, ".endfunc",
                     ".func g", line, "    push rbp", line, ".endfunc"])
    raw, _ = assemble_image(parse_assembly(src))
    push = encode_one("push", (Register("rbp"),))
    in_f, in_g = (encode_one("mov", (Register("rax"), MemRef(base="rbp", disp=disp)))
                  for disp in (-8, -16))
    expected = push + in_f + push + in_f + in_g + push + in_g
    assert in_f != in_g
    assert text_bytes(raw, 0x1000, 0x1000 + len(expected)) == expected


def test_a_repeated_erroneous_form_names_its_first_line():
    src = (".section .text base=0x1000\n.func f\n    ret\n    push eax\n"
           "    ret\n    push eax\n.endfunc\n")
    with pytest.raises(AsmSyntaxError, match="push takes a 64-bit register") as info:
        assemble_image(parse_assembly(src))
    assert info.value.line == 4


@pytest.mark.parametrize("near, far", [("jmp g", "jmp h"),
                                       ("mov rax, [g]", "mov rax, [h]")],
                         ids=["rel32", "rip"])
def test_a_shared_form_that_overflows_only_at_fixup_names_its_own_line(near, far):
    src = (f".section .text base=0x1000\n.func f\n    {near}\n    {far}\n.endfunc\n"
           ".func g\n    ret\n.endfunc\n"
           ".section .text2 base=0x100001000\n.func h\n    ret\n.endfunc\n")
    with pytest.raises(RangeOverflow, match="out of") as info:
        assemble_image(parse_assembly(src))
    assert info.value.line == 4


def dialect_line(mnemonic, operands, rng):
    """A random form as a dialect line, and its operands as the assembler
    should resolve them in a function whose slot ``s`` is at ``off``: a
    callable of (off, labels, addr, length). A branch targets ``f`` or ``g``,
    a RIP-relative operand names ``d``, and a memory operand with a register
    subtracts ``s`` when its displacement leaves room for it."""
    texts, resolvers = [], []
    for op in operands:
        if isinstance(op, PcRel):
            name = rng.choice("fg")
            texts.append(name)
            resolvers.append(lambda off, labels, addr, length, name=name:
                             PcRel(labels[name]))
        elif isinstance(op, MemRef) and op.rip_relative:
            texts.append("[d]")
            resolvers.append(lambda off, labels, addr, length:
                             MemRef(rip_relative=True, disp=labels["d"] - addr - length))
        elif isinstance(op, MemRef) and (op.base or op.index) and op.disp >= -(1 << 31) + 24:
            texts.append(render_operand(op)[:-1] + " - s]")
            resolvers.append(lambda off, labels, addr, length, op=op:
                             op._replace(disp=op.disp - off))
        else:
            texts.append(render_operand(op))
            resolvers.append(lambda off, labels, addr, length, op=op: op)
    if mnemonic == "mov" and isinstance(operands[-1], Immediate) and operands[-1].width == 64:
        mnemonic = "movabs"
    text = f"    {mnemonic} {', '.join(texts)}".rstrip()
    return text, lambda *args: tuple(resolve(*args) for resolve in resolvers)


@pytest.mark.parametrize("seed", range(4))
def test_assembled_bytes_equal_each_resolved_form_encoded_at_its_address(seed):
    rng = random.Random(seed)
    pool = []
    for _ in range(30):
        mnemonic, operands, _ = random_form(rng)
        pool.append((mnemonic, *dialect_line(mnemonic, operands, rng)))
    bodies = {"f": rng.choices(pool, k=60), "g": rng.choices(pool, k=60)}
    offsets = {"f": 8, "g": 24}
    lines = [".section .text base=0x401000", ".slot f, s, 8", ".slot g, s, 24"]
    for name, body in bodies.items():
        lines += [f".func {name}", *(text for _, text, _ in body), ".endfunc"]
    lines += [".section .data base=0x601000", "d:", "    .quad 0"]
    raw, _ = assemble_image(parse_assembly("\n".join(lines)))

    # No length depends on a label's value or the address.
    zeros = dict.fromkeys("fgd", 0)
    labels = {"d": 0x601000}
    addr = 0x401000
    sites = []  # (function, address, length) of each instruction
    for name, body in bodies.items():
        labels[name] = addr
        for mnemonic, _, resolve in body:
            length = len(encode_one(mnemonic, resolve(offsets[name], zeros, 0, 0)))
            sites.append((name, addr, length))
            addr += length
    for (name, at, length), (mnemonic, text, resolve) in zip(
            sites, bodies["f"] + bodies["g"]):
        expected = encode_one(mnemonic, resolve(offsets[name], labels, at, length), at)
        assert text_bytes(raw, at, at + length) == expected, (name, text)


REPEATS = [".section .text base=0x1000", ".slot f, s8, 8", ".func f", "    push rbp",
           "    mov rax, [rbp - 8]", "    ret", "x: mov rax, [rbp - 8]", "    ret",
           "    mov rax, [rbp - 8]  # again", "\tMOV RAX, [rbp - 8]", "    ret", ".endfunc"]


def test_a_repeated_instruction_text_parses_as_each_line_alone():
    def instrs(text):
        return [item for item in parse_assembly(text).sections[0].items
                if isinstance(item, Instr)]

    alone = [ins for n, line in enumerate(REPEATS, start=1) if line.strip()[0] in "mMpxr"
             for ins in instrs(REPEATS[0] + "\n" * (n - 1) + line)]
    assert instrs("\n".join(REPEATS)) == alone
    assert [ins.line for ins in alone] == [4, 5, 6, 7, 8, 9, 10, 11]


@pytest.mark.parametrize("bad, error", [
    ("mov rax, [rbp -- 8]", "empty term in memory operand"),
    ("mov rax, [rbp - s16]", "'s16' is not a slot of the enclosing function"),
], ids=["in_parsing", "in_assembly"])
def test_an_error_in_a_repeated_instruction_text_names_its_first_line(bad, error):
    lines = [bad if "[rbp - 8]" in line else line for line in REPEATS]
    with pytest.raises(EllfError) as info:
        assemble_image(parse_assembly("\n".join(lines)))
    assert str(info.value) == f"line 5: {error}"


def test_a_length_change_after_layout_is_a_syntax_error_naming_the_line(monkeypatch):
    real = asm.encode_one

    def drifting(mnemonic, ops, address=0):  # one byte longer once a branch resolves
        grown = any(isinstance(op, PcRel) and op.target != address for op in ops)
        return real(mnemonic, ops, address) + b"\x90" * grown

    monkeypatch.setattr(asm, "encode_one", drifting)
    src = ".section .text base=0x1000\n.func f\n    jmp .L\n.L:\n    ret\n.endfunc\n"
    with pytest.raises(AsmSyntaxError, match="laid out in 5") as info:
        assemble_image(parse_assembly(src))
    assert info.value.line == 3


@pytest.mark.parametrize("base", ["-1", "-0x1000", hex(1 << 64)])
def test_section_base_outside_the_address_space_is_a_syntax_error(base):
    src = f".section .data base=0x2000\n    .byte 1\n.section .text base={base}\n"
    with pytest.raises(AsmSyntaxError) as info:
        parse_assembly(src)
    assert info.value.line == 3


def test_escaped_backslash_before_the_closing_quote():
    prog = parse_assembly('.section .data base=0x2000\n    .asciz "a\\\\"  # note\n')
    assert prog.sections[0].items[0].payload == b"a\\\0"


def test_character_above_0xff_in_asciz_is_a_syntax_error():
    src = '.section .data base=0x2000\n    .asciz "caf\u00e9"\n    .asciz "\u20ac"\n'
    with pytest.raises(AsmSyntaxError) as info:
        parse_assembly(src)
    assert info.value.line == 3


@pytest.mark.parametrize("operand", ["[rbx - -8]", "[rbx + +8]", "[rbx - + 8]",
                                     "[rbx +]", "[rbx - ]", "[- -8]", "[-]"])
def test_adjacent_or_trailing_sign_in_memory_operand_is_a_syntax_error(operand):
    src = f".section .text base=0x1000\n    ret\n    mov rax, {operand}\n"
    with pytest.raises(AsmSyntaxError, match="empty term in memory operand") as info:
        parse_assembly(src)
    assert info.value.line == 3


@pytest.mark.parametrize("operand, terms", [("[-8]", [(-1, 8)]),
                                            ("[+rbx]", [(1, "rbx")]),
                                            ("[ - 8 + RBX ]", [(-1, 8), (1, "rbx")])])
def test_leading_sign_in_memory_operand(operand, terms):
    parse_assembly(f".section .text base=0x1000\n    mov rax, {operand}\n")
    assert _split_terms(operand[1:-1].strip(), 1) == terms


def test_empty_memory_operand_is_a_syntax_error():
    with pytest.raises(AsmSyntaxError, match="empty memory operand"):
        parse_assembly(".section .text base=0x1000\n    mov rax, []\n")


def test_a_second_register_term_is_the_index_at_scale_one():
    def code(operand):
        src = f".section .text base=0x1000\n.func f\n    mov rax, {operand}\n    ret\n.endfunc\n"
        return assemble_image(parse_assembly(src))[0]

    assert code("[rbx + rcx]") == code("[rbx + rcx*1]") != code("[rcx + rbx]")


def test_a_label_minus_an_offset_names_the_address_before_the_label():
    src = (".section .text base=0x1000\n.func f\n    mov rcx, g - 4\n    ret\n.endfunc\n"
           ".func g\n    ret\n.endfunc\n.set h, g - 1\n.section .data base=0x2000\n"
           "    .quad h\n")
    g = 0x1000 + 10 + 1  # after a movabs and a ret
    assert pointer_values(src) == {OperandPointer(0x1000, 1): g - 4, DataPointer(0x2000): g - 1}


def pointer_values(src):
    """The pointer records of ``src`` assembled, each with its value."""
    elf, meta = assemble_image(parse_assembly(src))
    values = {}
    assert validate_metadata(meta, elfio.read_elf(elf), None, values) == []
    assert list(values) == list(meta.pointers)
    return values


def set_program(sets):
    """A movabs of label ``a``, with ``sets`` (lines 7 on) before a 16-byte ``buf``."""
    return (".section .text base=0x1000\n.func f\n    mov rax, a\n    ret\n.endfunc\n"
            f".section .data base=0x2000\n{sets}buf:\n    .zero 16\n")


def test_a_set_may_name_a_set_defined_on_a_later_line():
    values = pointer_values(set_program(".set a, b\n.set b, buf + 8\n"))
    assert values == {OperandPointer(0x1000, 1): 0x2008}


@pytest.mark.parametrize("sets, error, message", [
    (".set a, b\n.set b, a\n", AsmSyntaxError, "line 7: .set a is defined in terms of itself"),
    (".set a, b\n.set b, nowhere + 8\n", UndefinedLabel,
     "line 8: label 'nowhere' is not defined"),
], ids=["cycle", "undefined_base"])
def test_a_set_chain_without_a_placed_end_names_its_line(sets, error, message):
    with pytest.raises(error) as info:
        assemble_image(parse_assembly(set_program(sets)))
    assert str(info.value) == message


@pytest.mark.parametrize("statement, message", [
    (".slot f, a b, 8", "malformed .slot name: 'a b'"),
    (".slot f, 9x, 8", "malformed .slot name: '9x'"),
    (".slot f g, s8, 8", "malformed .slot function: 'f g'"),
    (".set x y, f", "malformed .set name: 'x y'"),
    ('.set "a", f', "malformed .set name: '\"a\"'"),
])
def test_slot_and_set_names_must_be_identifiers(statement, message):
    src = f".section .text base=0x1000\n.func f\n    ret\n{statement}\n.endfunc\n"
    with pytest.raises(AsmSyntaxError) as info:
        parse_assembly(src)
    assert info.value.line == 4
    assert str(info.value) == f"line 4: {message}"


@pytest.mark.parametrize("src, line, message", [
    (".section .data base=0x5000\n.func f\n    ret\n.endfunc\n", 3,
     "instructions not allowed in the non-executable section .data"),
    (".section .text base=0x1000\n.func f\n    .byte 1\n    ret\n.endfunc\n", 3,
     "function f must start with an instruction"),
    (".section .text base=0x1000\n.func f\nx:\n    .zero 2\n    ret\n.endfunc\n", 4,
     "function f must start with an instruction"),
], ids=["instruction_in_data", "function_starting_with_data", "labeled_data_first"])
def test_code_that_text_records_cannot_describe_is_a_syntax_error(src, line, message):
    # The metadata of such code would fail validation or a strict lift.
    with pytest.raises(AsmSyntaxError) as info:
        assemble_image(parse_assembly(src))
    assert str(info.value) == f"line {line}: {message}"


@pytest.mark.parametrize("cells", ["f", "8, tbl - f"])
def test_a_label_cell_in_code_is_a_syntax_error_naming_the_line_and_section(cells):
    # A lift reads pointer cells in data alone: it would drop this record
    # without a word, and the round trip would fail its metadata fixpoint.
    src = (".section .text base=0x1000\n.func f\n    lea rax, [tbl]\n    ret\n.endfunc\n"
           f"tbl:\n    .quad {cells}\n")
    with pytest.raises(AsmSyntaxError) as info:
        assemble_image(parse_assembly(src))
    assert str(info.value) == ("line 7: label-valued .quad not allowed in the executable "
                               "section .text")
    assert roundtrip_check(src).error == f"AsmSyntaxError: {info.value}"


FUNC_THEN = ".section .text base=0x1000\n.func f\n    {}\n    ret\n.endfunc\n"
CELLS = ".section .data base=0x2000\nfirst:\n    .quad {}\nlast:\n"


@pytest.mark.parametrize("src, line, message", [
    (FUNC_THEN.format("call done") + "done:\n", 3,
     "call target 0x1006 is not inside any section"),
    (FUNC_THEN.format("lea rax, [done]") + "done:\n", 3,
     "pointer target 0x1008 is not inside any section"),
    (FUNC_THEN.format("mov rax, done") + "done:\n", 3,
     "pointer target 0x100b is not inside any section"),
    (".section .text base=0x1000\n    jmp done\ndone:\n", 2,
     "jump target 0x1005 is not inside any section"),
    (FUNC_THEN.format("lea rax, [end_ptr]") + ".section .data base=0x2000\nend_ptr:\n"
     "    .quad buf + 16\nbuf:\n    .zero 16\n", 8,
     "pointer target 0x2018 is not inside any section"),
    (corpus_programs()["20_suffix_string"].replace("full + 6", "full + 66"), 5,
     "pointer target 0x40f142 is not inside any section"),
    (CELLS.format("last - first"), 3, "diff minuend 0x2008 is not inside any section"),
    (CELLS.format("first - last"), 3, "diff subtrahend 0x2008 is not inside any section"),
], ids=["call", "lea", "movabs", "jump_outside_functions", "one_past_the_end_cell",
        "one_past_the_end_set", "diff_minuend", "diff_subtrahend"])
def test_a_label_value_in_no_section_is_a_syntax_error_naming_the_line(src, line, message):
    # Validation, and so a strict lift and the round trip, would refuse it.
    with pytest.raises(AsmSyntaxError) as info:
        assemble_image(parse_assembly(src))
    assert str(info.value) == f"line {line}: {message}"
    assert roundtrip_check(src).error == f"AsmSyntaxError: {info.value}"


def test_every_source_that_assembles_validates_clean():
    """Over the bundled programs and the mutated sources whose assembler
    outcomes are frozen. The one problem the assembler writes is a straddle:
    a ``.set`` label can place a data object inside a pointer cell, as the
    hazard fixture does on purpose, and only a strict lift refuses that."""
    assembled = 0
    for src in [*PROGRAMS.values(), *mutated_sources()]:
        try:
            elf, meta = assemble_image(parse_assembly(src))
        except EllfError:
            continue
        assembled += 1
        problems = validate_metadata(meta, elfio.read_elf(elf))
        assert all(p.kind == "straddle" for p in problems) and (not problems or ".set" in src), (
            src, problems)
    assert assembled >= 900


def test_assemble_holds_its_metadata_to_the_invariants_once(monkeypatch):
    calls = []
    check = meta_module.check_invariants
    monkeypatch.setattr(meta_module, "check_invariants",
                        lambda meta: calls.append(meta) or check(meta))
    elf, meta = assemble(parse_assembly(corpus_programs()["12_data_pointers"]))
    assert calls == [meta]
    assert decode_metadata(elfio.extract_section(elfio.read_elf(elf), ".ellf")) == meta


# --- the lexer against the per-character scanners it replaced ---
# The three reference functions are the parser's code before it was written
# with regular expressions; on well-formed statements the two must agree.

def reference_strip_comment(line):
    out = []
    in_str = False
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == '"' and (i == 0 or line[i - 1] != "\\"):
            in_str = not in_str
        if ch == "#" and not in_str:
            break
        out.append(ch)
        i += 1
    return "".join(out)


def reference_split_args(text):
    if not text.strip():
        return []
    parts = []
    depth = 0
    in_str = False
    cur = []
    for ch in text:
        if ch == '"':
            in_str = not in_str
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0 and not in_str:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    return parts


def reference_split_terms(body):
    terms = []
    sign = 1
    token = []

    def flush():
        if not token:
            return
        text = "".join(token).strip()
        if not text:
            raise AsmSyntaxError("empty term in memory operand")
        try:
            terms.append((sign, int(text, 0)))
        except ValueError:
            if text.lower() in _REG_INFO or "*" in text:
                terms.append((sign, text.lower()))
            else:
                terms.append((sign, text))  # slot constant or label
        token.clear()

    for ch in body:
        if ch in "+-":
            if token and "".join(token).strip():
                flush()
            else:
                token.clear()
            sign = 1 if ch == "+" else -1
        else:
            token.append(ch)
    flush()
    if not terms:
        raise AsmSyntaxError("empty memory operand")
    return terms


REGISTERS = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp", "r8", "r15",
             "eax", "r9d")
ESCAPES = {"\\n": b"\n", "\\t": b"\t", "\\r": b"\r", "\\0": b"\0", "\\\\": b"\\",
           '\\"': b'"'}

spaces = st.sampled_from(["", " ", "  ", "\t"])
# Every character a string may hold as itself: no backslash or quote, at most U+00FF.
plain_chars = st.characters(max_codepoint=0xFF, exclude_characters='\\"',
                            exclude_categories=("Cc",)) | st.sampled_from("#,[]+-*")
string_pieces = st.lists(
    st.one_of(plain_chars.map(lambda ch: (ch, ch.encode("latin-1"))),
              st.sampled_from(sorted(ESCAPES.items())),
              st.integers(0, 0xFF).flatmap(lambda b: st.sampled_from(
                  [(f"\\x{b:02x}", bytes([b])), (f"\\x{b:02X}", bytes([b]))]))),
    max_size=12)
comments = st.text(st.sampled_from('ab #"\\,[];'), max_size=10).map(lambda t: "#" + t)
identifiers = st.from_regex(r"[A-Za-z_.$][A-Za-z0-9_.$]{0,6}", fullmatch=True)
ints = st.integers(0, 1 << 40).flatmap(lambda n: st.sampled_from([str(n), hex(n)]))
scaled = st.tuples(st.sampled_from(REGISTERS), spaces, st.sampled_from("1248")).map(
    lambda t: f"{t[0]}{t[1]}*{t[1]}{t[2]}")
terms = st.one_of(st.sampled_from(REGISTERS + ("RBP", "R8")), scaled, ints, identifiers)


@st.composite
def memory_bodies(draw):
    """A memory operand's body: signed terms, the first maybe without a sign."""
    parts = [draw(st.sampled_from(["", "-", "+"])) + draw(spaces) + draw(terms)]
    for term in draw(st.lists(terms, max_size=4)):
        parts.append(draw(spaces) + draw(st.sampled_from("+-")) + draw(spaces) + term)
    return "".join(parts)


operands = st.one_of(st.sampled_from(REGISTERS), ints, identifiers,
                     st.tuples(identifiers, st.sampled_from(["+", " - "]), ints).map("".join),
                     memory_bodies().map(lambda body: f"[{body}]"))


@st.composite
def asciz_lines(draw):
    pieces = draw(string_pieces)
    # Fixed here: the parent kept the comment after an escaped backslash
    # that ends the string (test_escaped_backslash_before_the_closing_quote).
    assume(not pieces or pieces[-1][0] != "\\\\")
    text = "".join(piece for piece, _ in pieces)
    payload = b"".join(data for _, data in pieces)
    line = f'{draw(spaces)}.asciz{draw(spaces)} "{text}"{draw(spaces)}'
    return line + draw(st.just("") | comments), payload


@settings(max_examples=300, deadline=None)
@given(asciz_lines())
def test_asciz_lines_lex_as_the_reference_does(case):
    line, payload = case
    assert _CODE_RE.match(line).group() == reference_strip_comment(line)
    prog = parse_assembly(".section .data base=0x2000\n" + line + "\n")
    assert prog.sections[0].items[0].payload == payload + b"\0"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["mov", "lea", "add", ".byte", ".quad", ".slot"]),
       st.lists(operands, min_size=0, max_size=4), spaces,
       st.just("") | comments)
def test_statements_lex_as_the_reference_does(word, args, space, comment):
    operand_text = ("," + space).join(args)
    line = f"    {word} {operand_text}{space}{comment}"
    code = _CODE_RE.match(line).group()
    assert code == reference_strip_comment(line)
    rest = code.strip()[len(word):]
    assert _split_args(rest) == reference_split_args(rest)
    for arg in _split_args(rest):
        if arg.startswith("["):
            body = arg[1:-1].strip()
            assert _split_terms(body, 1) == reference_split_terms(body)


def lifted_text(source):
    elf, meta = assemble(parse_assembly(source))
    return emit_assembly(lift(elfio.read_elf(elf), meta, mode="strict"))


@settings(max_examples=25, deadline=None)
@given(st.lists(asciz_lines(), min_size=1, max_size=4))
def test_lifted_text_parses_back_to_the_program_it_came_from(strings):
    source = (".section .text base=0x1000\n.func f\n    lea rax, [s0]\n    ret\n"
              ".endfunc\n.section .data base=0x2000\n")
    source += "".join(f"s{i}:\n{line}\n" for i, (line, _) in enumerate(strings))
    prog = parse_assembly(lifted_text(source))
    assert parse_assembly(lifted_text(lifted_text(source))) == prog
    image = elfio.load_image(elfio.read_elf(assemble(prog)[0]))
    payload = b"".join(data + b"\0" for _, data in strings)
    assert image.read(0x2000, 0x2000 + len(payload)) == payload


# --- .byte lines against the value-by-value parser they replaced ---

def reference_byte_payload(rest, line):
    """The parser's ``.byte`` path before it converted a whole line at once,
    quoting in hex a value too long for ``str()``."""
    args = [part.strip() for part in rest.split(",")] if rest.strip() else []
    if not args:
        raise AsmSyntaxError(".byte needs at least one value", line)
    values = []
    for arg in args:
        try:
            values.append(int(arg.strip(), 0))
        except (ValueError, TypeError):
            raise AsmSyntaxError(f"expected a number, got {arg!r}", line) from None
    for v in values:
        if not 0 <= v <= 0xFF:
            try:
                shown = str(v)
            except ValueError:  # more than 4300 decimal digits
                shown = hex(v)
            raise AsmSyntaxError(f"byte value {shown} out of range", line)
    return bytes(values)


BASE_FORMATS = {"": "d", "0x": "x", "0X": "X", "0o": "o", "0O": "o", "0b": "b"}


@st.composite
def byte_numbers(draw, values, mangle):
    """An integer literal with a base prefix, maybe signed, maybe with
    underscores: valid ones only, or, with ``mangle``, anywhere."""
    value = draw(values)
    prefix = draw(st.sampled_from(sorted(BASE_FORMATS)))
    digits = format(abs(value), BASE_FORMATS[prefix])
    if mangle and draw(st.booleans()):
        cut = draw(st.integers(0, len(digits)))
        digits = digits[:cut] + draw(st.sampled_from(["_", "__"])) + digits[cut:]
    elif len(digits) > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, len(digits) - 1))
        digits = digits[:cut] + "_" + digits[cut:]
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+"] + ["-"] * mangle))
    return sign + prefix + digits


byte_padding = st.text(st.sampled_from(" \t\x1f"), max_size=2)
clean_bytes = st.tuples(byte_padding, byte_numbers(st.integers(0, 0xFF), False),
                        byte_padding).map("".join)
byte_items = st.one_of(
    clean_bytes, clean_bytes,
    byte_numbers(st.integers(-300, -1) | st.integers(0x100, 1 << 80), False),
    byte_numbers(st.integers(-300, 600), True),
    st.just(""),
    st.text(st.sampled_from("0123456789abfxoXO_+-. zq"), max_size=6),
    st.tuples(st.sampled_from(["", "0x", "-"]), st.integers(4000, 5000)).map(
        lambda t: t[0] + "7" * t[1]),  # past int()'s decimal digit limit
).flatmap(lambda item: byte_padding.map(lambda pad: pad + item))


@settings(max_examples=500, deadline=None)
@given(st.lists(clean_bytes, max_size=10) | st.lists(byte_items, max_size=10))
def test_byte_lines_parse_as_the_reference_does(items):
    rest = ",".join(items)

    def outcome(parse):
        try:
            return parse()
        except AsmSyntaxError as exc:
            return type(exc), str(exc), exc.line

    assert (outcome(lambda: asm._parse_data("byte", rest, 3).payload)
            == outcome(lambda: reference_byte_payload(rest, 3)))


def test_byte_values_may_carry_any_whitespace_that_strip_removes():
    prog = parse_assembly(".section .data base=0x2000\n    .byte \x1f1,\x1f0x_ff ,2\n")
    assert prog.sections[0].items[0].payload == b"\x01\xff\x02"


# --- line breaks ---

FORMER_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", FORMER_LINE_BREAKS)
def test_only_lf_crlf_and_cr_break_lines(char):
    src = f".section .text base=0x1000\n# note{char} more\n    ret\r\n    ret\r    bogus\n"
    with pytest.raises(AsmSyntaxError) as info:
        parse_assembly(src)
    assert str(info.value) == "line 5: unknown mnemonic 'bogus'"


def test_asciz_may_hold_a_form_feed():
    prog = parse_assembly('.section .data base=0x2000\n    .asciz "a\x0cb\x85"\n')
    assert prog.sections[0].items[0].payload == b"a\x0cb\x85\0"


def test_a_line_separator_in_asciz_is_a_character_above_0xff():
    with pytest.raises(AsmSyntaxError) as info:
        parse_assembly('.section .data base=0x2000\n    .asciz "a\u2028b"\n')
    assert str(info.value) == ("line 2: '\\u2028' is not a byte: .asciz holds "
                               "characters up to \\xff")


# --- a run of .byte lines against the line path ---

def test_a_run_of_plain_byte_lines_is_one_data_item():
    for run in ["    .byte 1, 2\r\n\t.byte\t3", "    .byte 0x01, 0x02\n    .byte 0x03"]:
        src = (f".section .data base=0x2000\n{run}\n"
               "x:\n    .byte 4\n    .byte 5  # five\n    .byte 6")
        items = parse_assembly(src).sections[0].items
        assert [(type(item).__name__, getattr(item, "payload", None), item.line)
                for item in items] == [("Data", b"\1\2\3", 2), ("Label", None, 4),
                                       ("Data", b"\4", 5), ("Data", b"\5", 6),
                                       ("Data", b"\6", 7)]


@pytest.mark.parametrize("base, line", [(0xFFFFFFFFFFFFFFF8, 4), (0xFFFFFFFFFFFFFFF9, 3),
                                        (0xFFFFFFFFFFFFFFFC, 3), (0xFFFFFFFFFFFFFFFD, 2)])
def test_a_run_past_the_address_space_names_the_line_of_the_first_byte_past_it(
        base, line):
    for run in [".byte 1,2,3,4\n.byte 5,6,7,8\n.byte 9\n",
                ".byte 0x01, 0x02, 0x03, 0x04\n.byte 0x05, 0x06, 0x07, 0x08\n.byte 0x09\n"]:
        with pytest.raises(AsmSyntaxError) as info:
            assemble_image(parse_assembly(f".section .data base={base:#x}\n{run}"))
        assert str(info.value) == (f"line {line}: section .data runs past the end of the "
                                   f"64-bit address space")


@pytest.mark.parametrize("src, message", [
    (".section .bss base=0x2000\nb:\n    .byte 1, 2\n    .byte 3\n",
     "line 3: .byte not allowed in the zero-fill section .bss"),
    (".section .text base=0x1000\n.func f\n    .byte 1\n    .byte 2\n    ret\n.endfunc\n",
     "line 3: function f must start with an instruction"),
], ids=["in_bss", "opening_a_function"])
def test_a_run_that_cannot_stand_where_it_is_names_its_first_line(src, message):
    for text in (src, src.replace("\n", " #\n")):  # a run, then the line path
        with pytest.raises(AsmSyntaxError) as info:
            assemble_image(parse_assembly(text))
        assert str(info.value) == message


def test_a_line_that_is_almost_a_run_is_rejected_in_linear_time():
    src = ".section .data base=0x2000\n.byte" + " " * 20_000 + "1 # note\n"
    start = time.perf_counter()
    assert parse_assembly(src).sections[0].items[0].payload == b"\1"
    assert time.perf_counter() - start < 1.0  # a quadratic match takes seconds


def test_a_run_as_the_lifter_spells_it_decodes_in_linear_time_and_memory():
    src = ".section .rodata base=0x2000\nblob:\n" + "".join(  # about 64 KiB
        "    .byte " + ", ".join(f"0x{37 * (8 * i + j) & 0xFF:02x}" for j in range(8)) + "\n"
        for i in range(1150))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        items = parse_assembly(src).sections[0].items
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(item.payload) for item in items[1:]] == [8 * 1150]
    # About 5.5 to 7 times the text on CPython 3.10 to 3.13; reading value by
    # value takes about 13 times, and a regex that repeats per value 22 to 28.
    assert peak < 10 * len(src)
    assert elapsed < 1.0


def assembled(text):
    """The ELF and metadata ``text`` assembles to, or the error's class, message
    and line."""
    try:
        return assemble_image(parse_assembly(text))
    except EllfError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


line_values = st.lists(st.integers(0, 0xFF), min_size=1, max_size=8)
run_values = st.tuples(  # a line's values in one literal form (byte_numbers varies them)
    line_values,
    st.sampled_from(["{}", "{:#x}", "0x{:02x}", "{:#04X}", "+{:#o}", "0b_{:b}", "{:#b}"]),
    st.sampled_from(["", " ", "\t", " \t"]),
).map(lambda t: [t[2] + t[1].format(v) + t[2] for v in t[0]])


def lifter_line(values):
    return "    .byte " + ", ".join(f"0x{v:02x}" for v in values)


def edited(line, at, char):
    """``line`` with the character at ``at`` replaced by ``char``, or with
    ``char`` put before it if ``at`` is negative."""
    i = abs(at) % len(line)
    return line[:i] + char + line[i + (at >= 0):]


# .byte lines as the lifter writes them, or one character away from that.
lifter_lines = st.one_of(
    st.builds(lifter_line, line_values), st.builds(lifter_line, line_values),
    st.builds(edited, st.builds(lifter_line, line_values), st.integers(-60, 60),
              st.sampled_from(["", " ", "\t", ",", "0", "f", "A", "X", "x", "h", "_"])),
)
byte_statements = st.tuples(
    st.sampled_from(["", "    ", "\t", " \t"]), st.sampled_from([" ", "\t", " \t "]),
    st.integers(0, 9).flatmap(  # mostly values a run may hold, so runs reach the assembler
        lambda k: run_values if k < 8 else st.lists(
            clean_bytes if k == 8 else byte_items, max_size=4)),
).map(lambda t: f"{t[0]}.byte{t[1]}{','.join(t[2])}")
other_statements = st.sampled_from([
    "", "  ", "d{}:", "d{}: .byte 1, 2", "    .quad 7", "    .quad d0 + 1",
    "    .byte 3  # three", "    .asciz \"ab\"", "    .zero 2",
])
SECTION_HEADS = [
    [".section .data base=0x2000"], [".section .data base=0xfffffffffffffff0"],
    [".section .data base=0xfffffffffffffff9"], [".section .rodata base=0xffffffffffffffc3"],
    [".section .bss base=0x2000"], [".section .text base=0x1000", ".func f"], [],
]


@st.composite
def byte_run_sources(draw):
    """Source lines and which of them are plain ``.byte`` statements: runs of
    them among labels, blank lines and other data, in one of the sections."""
    head = draw(st.sampled_from(SECTION_HEADS))
    lines, is_byte = head + ["d0:"], [False] * (len(head) + 1)
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            statements = draw(st.sampled_from([byte_statements, lifter_lines]))
            run = draw(st.lists(statements, min_size=1, max_size=4))
            lines += run
            is_byte += [True] * len(run)
        else:
            lines.append(draw(other_statements).format(len(lines)))
            is_byte.append(False)
    if ".func f" in head:
        lines += ["    ret", ".endfunc"]
        is_byte += [False, False]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""  # no line break after the last line
    return lines, is_byte, ends


@settings(max_examples=300, deadline=None)
@given(byte_run_sources())
def test_byte_runs_assemble_as_the_line_path_does(source):
    # A comment keeps a .byte line out of a run but leaves its values and
    # its line number as they are, so the line path parses the second text.
    lines, is_byte, ends = source
    text = "".join(line + end for line, end in zip(lines, ends))
    by_line = "".join(line + " #" * byte + end for line, byte, end in zip(lines, is_byte, ends))
    assert assembled(text) == assembled(by_line)


@pytest.mark.parametrize("line", [
    ".byte 0x, 0xabab", ".byte 0x ab", ".byte 0xabcd", ".byte 0x0xab, 0xcd",
    ".byte 0xab , 0xcd", ".byte 0xAB, 0xcd", ".byte\t0xab", ".byte 0xa b", ".byte 0xah",
    ".byte 0xab,0xcd", ".byte 0xab, 0xcd,", ".byte 0xab, 0xcd",
])
def test_a_line_near_the_lifters_spelling_assembles_as_the_line_path_does(line):
    lines = [".section .data base=0x2000", "d:", "    .byte 0x01, 0x02", "    " + line]
    by_line = lines[:2] + [text + " #" for text in lines[2:]]
    assert assembled("\n".join(lines) + "\n") == assembled("\n".join(by_line) + "\n")

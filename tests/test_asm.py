"""Assembler contracts and the round-trip oracle over the bundled corpus."""

import pytest

from ellf import elfio
from ellf.asm import assemble, assemble_image, parse_assembly, roundtrip_check
from ellf.corpus import corpus_programs, hazard_program
from ellf.errors import AsmSyntaxError, PointerStraddle, UndefinedLabel
from ellf.lifter import lift
from ellf.meta import decode_metadata


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


def test_hazard_fails_strict_lift():
    elf, _ = assemble(parse_assembly(hazard_program()))
    img = elfio.read_elf(elf)
    meta = decode_metadata(elfio.extract_section(img, ".ellf"))
    with pytest.raises(PointerStraddle):
        lift(img, meta, mode="strict")


@pytest.mark.parametrize("base", ["-1", "-0x1000", hex(1 << 64)])
def test_section_base_outside_the_address_space_is_a_syntax_error(base):
    src = f".section .data base=0x2000\n    .byte 1\n.section .text base={base}\n"
    with pytest.raises(AsmSyntaxError) as info:
        parse_assembly(src)
    assert info.value.line == 3

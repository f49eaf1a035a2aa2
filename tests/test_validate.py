"""Cross-checking metadata against the sections and bytes of a binary."""

import json
import re

import pytest

from ellf import cli, elfio, isa
from ellf.asm import assemble_image, parse_assembly
from ellf.corpus import corpus_programs, hazard_program
from ellf.errors import LiftError, OverlapError, PointerStraddle
from ellf.lifter import emit_assembly, lift, lift_unsymbolized
from ellf.meta import (
    BASIC_BLOCK,
    FUNCTION_END,
    FUNCTION_START,
    DataDiff,
    DataPointer,
    DataRecord,
    EllfMetadata,
    InstructionRegion,
    OperandPointer,
    StackRecord,
    TextRecord,
    _pointer_sort_key,
    _text_sort_key,
    metadata_to_json,
    repair_metadata,
    validate_metadata,
)

from conftest import FAR_REFERENCES, SPARSE_DEMO_META, far_target_image


def test_demo_metadata_is_clean(table_demo):
    _, meta, img = table_demo
    blocks = set()
    assert validate_metadata(meta, img, None, None, blocks) == []
    # ``jmp .Lb3`` lands on 0x4023; the two cells hold .Lb1 and .Lb2 - D_4024.
    assert blocks == {0x4014, 0x401C, 0x4023}
    assert not any(rec.kind == BASIC_BLOCK for rec in meta.text)
    # The sparse oracle records the block at 0x4014 as well: a record at an
    # implied site is accepted.
    blocks = set()
    assert validate_metadata(SPARSE_DEMO_META, img, None, None, blocks) == []
    assert blocks == {0x4014, 0x401C, 0x4023}


def test_data_record_past_section_end(table_demo):
    _, meta, img = table_demo
    meta = meta._replace(data=(DataRecord(0x4024, 8), DataRecord(0x402C, 9)))
    diags = validate_metadata(meta, img)
    assert len(diags) == 1
    assert diags[0].kind == "range"
    assert diags[0].addr == 0x402C


def test_operand_pointer_off_instruction_start(table_demo):
    _, meta, img = table_demo
    shifted = OperandPointer(0x4005, 1)
    meta = meta._replace(pointers=(shifted,) + meta.pointers[1:])
    diags = validate_metadata(meta, img)
    assert len(diags) == 1
    assert diags[0].kind == "alignment"
    assert diags[0].addr == 0x4005


def test_region_outside_executable_section(table_demo):
    _, _, img = table_demo
    meta = EllfMetadata(instruction_regions=SPARSE_DEMO_META.instruction_regions[:1]
                        + (type(SPARSE_DEMO_META.instruction_regions[0])(0x4024, 1),))
    diags = validate_metadata(meta, img)
    assert any(d.kind == "range" and d.addr == 0x4024 for d in diags)


def test_text_record_outside_executable_section(table_demo):
    _, _, img = table_demo
    meta = SPARSE_DEMO_META._replace(text=SPARSE_DEMO_META.text + (
        type(SPARSE_DEMO_META.text[0])(0x4030, "basic_block"),))
    diags = validate_metadata(meta, img)
    assert any(d.kind == "range" and d.addr == 0x4030 for d in diags)


def test_stack_entry_must_be_function_start(table_demo):
    _, meta, img = table_demo
    meta = meta._replace(stack=(StackRecord(0x4014, (8,)),))
    diags = validate_metadata(meta, img)
    assert [d.kind for d in diags] == ["function-start"]


def test_pointer_target_outside_sections():
    """The value of an operand pointer is the immediate the binary holds."""
    src = ".section .text base=0x4000\n.func f\n    add rax, 0x9999\n    ret\n.endfunc\n"
    elf, meta = assemble_image(parse_assembly(src))
    pointer = OperandPointer(0x4000, 1)
    values = {}
    diags = validate_metadata(meta._replace(pointers=(pointer,)), elfio.read_elf(elf), None,
                              values)
    assert [(d.kind, d.message, d.record) for d in diags] == [
        ("range", "pointer target 0x9999 is not inside any section", pointer)]
    assert values == {pointer: 0x9999}


def test_operand_pointer_on_an_8_bit_immediate(tmp_path, capsys):
    """``add rax, 0x10`` as imm8: a label there would reassemble as imm32."""
    elf = elfio.build_elf([elfio.NewSection(
        ".text", 0x10, bytes.fromhex("4883c010c3"),  # add rax, 0x10; ret
        sh_flags=elfio.SHF_ALLOC | elfio.SHF_EXECINSTR)])
    img = elfio.read_elf(elf)
    pointer = OperandPointer(0x10, 1)
    meta = EllfMetadata(instruction_regions=(InstructionRegion(0x10, 2),),
                        pointers=(pointer,),
                        text=(TextRecord(0x10, FUNCTION_START),
                              TextRecord(0x14, FUNCTION_END)))
    diags = validate_metadata(meta, img)
    assert [(d.kind, d.addr, d.record) for d in diags] == [("pointer", 0x10, pointer)]

    with pytest.raises(LiftError, match="8-bit immediate"):
        lift(img, meta, mode="strict")
    lifted = lift(img, meta, mode="lenient")
    assert lifted.diagnostics == tuple(diags)
    text = emit_assembly(lifted)
    assert "    add rax, 16\n" in text
    raw, _ = assemble_image(parse_assembly(text))
    assert elfio.load_image(elfio.read_elf(raw)).read(0x10, 0x15) == elfio.load_image(
        img).read(0x10, 0x15)

    elf_path, meta_path = tmp_path / "in.elf", tmp_path / "meta.json"
    elf_path.write_bytes(elf)
    meta_path.write_text(json.dumps(metadata_to_json(meta)))
    code = cli.main(["inject", str(elf_path), "--meta", str(meta_path),
                     "-o", str(tmp_path / "out.elf")])
    assert code == cli.EXIT_DOMAIN
    assert "8-bit immediate" in capsys.readouterr().err
    assert not (tmp_path / "out.elf").exists()


# ``mov rax, helper`` at 0x408000 is 10 bytes long and has two operands.
BAD_POINTER = OperandPointer(0x408000, 5)
BAD_REGION = InstructionRegion(0x408001, 1)
DANGLING = TextRecord(0x408001, BASIC_BLOCK)
STRADDLING = DataDiff(0x2004, 0x2000)  # its cell holds 0, so its minuend is 0x2000

FUNCTION_POINTER = corpus_programs()["13_function_pointer"]
TWO_CELLS = """\
.section .text base=0x1000
.func f
    ret
.endfunc
.section .data base=0x2000
a:
    .quad a
b:
    .quad 0
"""
JUMP = ".section .text base=0x1000\n.func f\n    jmp done\ndone:\n    ret\n.endfunc\n"


def _jump_into_nothing_decoded(meta):
    """``JUMP``'s metadata with only its jmp decoded, so that ``done`` is none."""
    return meta._replace(instruction_regions=(InstructionRegion(0x1000, 1),),
                         text=(TextRecord(0x1000, FUNCTION_START),))


def _operand_index_out_of_range(meta):
    return meta._replace(pointers=(BAD_POINTER,) + meta.pointers[1:])


def _overlapping_regions(meta):
    return meta._replace(instruction_regions=meta.instruction_regions + (BAD_REGION,))


def _assembled(source, mutate=lambda meta: meta):
    """A case's build: ``source`` assembled, with its metadata mutated."""
    def build():
        elf, meta = assemble_image(parse_assembly(source))
        return elf, mutate(meta)
    return build


def _zero_fill_data_named_data():
    elf = elfio.build_elf([
        elfio.NewSection(".text", 0x1000, b"\xc3",
                         sh_flags=elfio.SHF_ALLOC | elfio.SHF_EXECINSTR),
        elfio.NewSection(".data", 0x2000, b"", elfio.SHT_NOBITS,
                         elfio.SHF_ALLOC | elfio.SHF_WRITE, size=16)])
    return elf, EllfMetadata(instruction_regions=(InstructionRegion(0x1000, 1),),
                             text=(TextRecord(0x1000, FUNCTION_START),
                                   TextRecord(0x1000, FUNCTION_END)))


# fault -> (build of the ELF and its metadata, then the one diagnostic's
# kind, message, address and record)
REFUSED = {
    "operand_index_out_of_range": (
        _assembled(FUNCTION_POINTER, _operand_index_out_of_range), "pointer",
        "operand index 5 out of range for the instruction at 0x408000", 0x408000,
        BAD_POINTER),
    "overlapping_regions": (
        _assembled(FUNCTION_POINTER, _overlapping_regions), "overlap",
        "region at 0x408001 begins inside the decoded extent of the region at 0x408000",
        0x408001, BAD_REGION),
    "dangling_text_record": (
        _assembled(FUNCTION_POINTER, lambda meta: meta._replace(
            text=tuple(sorted(meta.text + (DANGLING,), key=_text_sort_key)))), "range",
        "text record at 0x408001 (basic_block) is not a decoded instruction start",
        0x408001, DANGLING),
    "text_record_without_regions": (
        _assembled(FUNCTION_POINTER, lambda meta: EllfMetadata(text=meta.text[:1])),
        "range", "text record at 0x408000 (function_start) is not a decoded instruction start",
        0x408000, TextRecord(0x408000, FUNCTION_START)),
    "overlapping_cells": (
        _assembled(TWO_CELLS, lambda meta: meta._replace(pointers=meta.pointers
                                                         + (STRADDLING,))), "straddle",
        "pointer payload at 0x2004 overlaps the pointer payload ending at 0x2008", 0x2004,
        STRADDLING),
    "data_record_inside_a_cell": (
        _assembled(hazard_program()), "straddle",
        "pointer payload at 0x402010 crosses the data object boundary at 0x402014",
        0x402010, DataPointer(0x402010)),
    "branch_to_a_non_block": (
        _assembled(JUMP, _jump_into_nothing_decoded), "cfg",
        "branch target 0x1005 is not a decoded instruction start", 0x1000, None),
    "misnamed_section": (
        _zero_fill_data_named_data, "section",
        "section .data is zero-fill data but the assembly dialect reads its name as data",
        0x2000, None),
}


def _dropped(meta, kept):
    """The records of ``meta`` that ``kept`` lacks, table by table."""
    return [rec for table, left in zip(meta[1:], kept[1:]) for rec in table if rec not in left]


def _function_pointer_program():
    elf, meta = assemble_image(parse_assembly(FUNCTION_POINTER))
    return elf, elfio.read_elf(elf), meta


@pytest.mark.parametrize("fault", sorted(REFUSED))
def test_metadata_that_every_lift_refuses_fails_validation(fault):
    """A strict lift raises on the one fault validation reports. A lenient
    lift drops the record it names, if any, and nothing else; a ``cfg`` or
    ``section`` fault names none and leaves nothing to drop, so it raises
    there too."""
    build, kind, message, addr, record = REFUSED[fault]
    elf, meta = build()
    img = elfio.read_elf(elf)
    problems = validate_metadata(meta, img)
    assert [(d.kind, d.message, d.addr, d.record) for d in problems] == [
        (kind, message, addr, record)]
    with pytest.raises(LiftError,
                       match=f"metadata fails validation: .*{re.escape(message)}") as info:
        lift(img, meta, mode="strict")
    assert type(info.value) is (PointerStraddle if kind == "straddle" else LiftError)
    if record is None:
        with pytest.raises(LiftError) as lenient:
            lift_unsymbolized(img, meta, "lenient")
        assert str(lenient.value) == str(info.value)
        return
    kept, _, _, _, diagnostics = lift_unsymbolized(img, meta, "lenient")
    assert diagnostics == problems
    assert _dropped(meta, kept) == ([] if record is None else [record])


@pytest.mark.parametrize("fault", sorted(REFUSED))
def test_inject_refuses_metadata_that_every_lift_refuses(tmp_path, capsys, fault):
    build, _, message, _, _ = REFUSED[fault]
    elf, meta = build()
    elf_path, meta_path = tmp_path / "in.elf", tmp_path / "meta.json"
    elf_path.write_bytes(elf)
    meta_path.write_text(json.dumps(metadata_to_json(meta)))
    code = cli.main(["inject", str(elf_path), "--meta", str(meta_path),
                     "-o", str(tmp_path / "out.elf")])
    assert code == cli.EXIT_DOMAIN
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.elf").exists()


def test_a_lenient_lift_warns_once_and_skips_an_out_of_range_operand_index():
    _, img, meta = _function_pointer_program()
    meta = _operand_index_out_of_range(meta)
    lifted = lift(img, meta, mode="lenient")
    assert lifted.diagnostics == tuple(validate_metadata(meta, img))
    assert "    movabs rax, 4227085\n" in emit_assembly(lifted)


def test_a_lenient_lift_drops_an_overlapping_region():
    elf, img, meta = _function_pointer_program()
    lifted = lift(img, _overlapping_regions(meta), mode="lenient")
    assert [d.record for d in lifted.diagnostics] == [BAD_REGION]
    text = emit_assembly(lifted)
    assert text == emit_assembly(lift(img, meta))
    raw, _ = assemble_image(parse_assembly(text))
    assert elfio.load_image(elfio.read_elf(raw)) == elfio.load_image(img)


def test_repair_decodes_each_region_once(monkeypatch):
    """The first round decodes every region, the extra one too; the round
    after the drop reuses the decodes of the regions it keeps."""
    _, img, meta = _function_pointer_program()
    damaged = _overlapping_regions(meta)
    calls = []
    decode_one = isa.decode_one
    monkeypatch.setattr(isa, "decode_one", lambda *args: calls.append(args[1]) or decode_one(*args))
    decoded = {}
    repaired, diagnostics = repair_metadata(damaged, img, decoded)
    assert len(calls) == sum(region.count for region in damaged.instruction_regions)
    assert sorted(calls) == sorted([*decoded, BAD_REGION.start])
    monkeypatch.setattr(isa, "decode_one", decode_one)
    assert (repaired, diagnostics) == (meta, validate_metadata(damaged, img))
    assert [d.record for d in diagnostics] == [BAD_REGION]


def test_a_region_that_runs_into_bytes_outside_the_subset_does_not_decode():
    src = ".section .text base=0x1000\n.func f\n    ret\n.endfunc\n    .byte 0x0f, 0x0b\n"
    elf, meta = assemble_image(parse_assembly(src))
    region = InstructionRegion(0x1000, 2)  # ret, then ud2
    diags = validate_metadata(meta._replace(instruction_regions=(region,)), elfio.read_elf(elf))
    assert [(d.kind, d.message, d.addr, d.record) for d in diags] == [(
        "range", "instruction region at 0x1000 does not decode: byte pattern at 0x1001 is "
                 "outside the instruction subset (opcode 0x0f)", 0x1000, region)]


def _text_then_data(text, data, region):
    """An image of ``.text`` at 0x1000 and an abutting ``.data``, with
    metadata of the one ``region``."""
    img = elfio.read_elf(elfio.build_elf([
        elfio.NewSection(".text", 0x1000, text,
                         sh_flags=elfio.SHF_ALLOC | elfio.SHF_EXECINSTR),
        elfio.NewSection(".data", 0x1000 + len(text), data,
                         sh_flags=elfio.SHF_ALLOC | elfio.SHF_WRITE)]))
    return img, EllfMetadata(instruction_regions=(region,))


def test_a_region_that_runs_out_of_its_executable_section_fails_validation():
    # mov rax, 1; ret in .text, then two nops at the start of .data
    region = InstructionRegion(0x1000, 4)
    img, meta = _text_then_data(bytes.fromhex("48c7c001000000c3"), b"\x90\x90\0\0", region)
    message = ("instruction region at 0x1000 leaves executable sections at 0x1008, "
               "inside the instruction at 0x1008")
    assert [(d.kind, d.message, d.addr, d.record) for d in validate_metadata(meta, img)] \
        == [("range", message, 0x1008, region)]
    with pytest.raises(LiftError, match=message):
        lift(img, meta)
    lenient = lift(img, meta, mode="lenient")
    assert lenient.instructions == {}  # the region is dropped
    assert [d.message for d in lenient.diagnostics] == [message]


def test_an_instruction_that_straddles_the_end_of_code_fails_validation():
    # mov rax, 1 with its last three bytes in .data
    region = InstructionRegion(0x1000, 1)
    img, meta = _text_then_data(bytes.fromhex("48c7c001"), b"\0\0\0", region)
    assert [d.message for d in validate_metadata(meta, img)] == [
        "instruction region at 0x1000 leaves executable sections at 0x1004, "
        "inside the instruction at 0x1000"]


# --- records whose value the binary cannot give or contradicts ---

def test_each_record_gets_the_value_the_binary_holds_where_it_points(table_demo):
    _, meta, img = table_demo
    values = {}
    assert validate_metadata(meta, img, None, values) == []
    first, second = meta.pointers
    # the cells hold .Lb1 - D_4024 and .Lb2 - D_4024; lea rcx, [D_4024] is
    # RIP-relative, so validation derives its operand pointer
    lea = OperandPointer(0x4004, 1)
    assert values == {first: 0x4014, second: 0x401C, lea: 0x4024}
    assert validate_metadata(SPARSE_DEMO_META, img, None, values) == []
    assert values == {first: 0x4014, second: 0x401C, lea: 0x4024}  # recorded, the same

    _, img, meta = _function_pointer_program()
    values = {}
    assert validate_metadata(meta, img, None, values) == []
    assert values == {OperandPointer(0x408000, 1): 0x40800D, DataPointer(0x408100): 0x40800D}


BSS_BUFFER = """\
.section .text base=0x1000
.func f
    lea rax, [buf]
    ret
.endfunc
.section .bss base=0x2000
buf:
    .zero 16
"""


@pytest.mark.parametrize("cell", [0x2000, 0x1000, 0x3000], ids=["bss", "text", "no_section"])
def test_a_pointer_cell_outside_progbits_data_has_no_value(cell):
    elf, meta = assemble_image(parse_assembly(BSS_BUFFER))
    img = elfio.read_elf(elf)
    pointer = DataPointer(cell)
    foreign = meta._replace(pointers=tuple(sorted(meta.pointers + (pointer,),
                                                  key=_pointer_sort_key)))
    values = {}
    diags = validate_metadata(foreign, img, None, values)
    assert [(d.kind, d.message, d.addr, d.record) for d in diags] == [
        ("range", f"pointer cell at 0x{cell:x} is not wholly inside progbits data", cell,
         pointer)]
    assert pointer not in values
    with pytest.raises(LiftError, match="not wholly inside progbits data"):
        lift(img, foreign, mode="strict")
    lenient = lift(img, foreign, mode="lenient")
    assert lenient.diagnostics == tuple(diags)
    assert emit_assembly(lenient) == emit_assembly(lift(img, meta, mode="strict"))


def test_an_operand_pointer_on_a_plain_immediate_keeps_the_immediate():
    """``mov rax, 1`` holds a sign-extended imm32, where a label would take
    the 10-byte movabs form: the record gives no value, and a lenient lift
    drops it and keeps the stored number."""
    elf, meta = assemble_image(parse_assembly(corpus_programs()["11_calls_chain"]))
    img = elfio.read_elf(elf)
    pointer = OperandPointer(0x406014, 1)  # mov rax, 1 in inner
    foreign = meta._replace(pointers=(pointer,))
    message = ("operand 1 of the instruction at 0x406014 is a 32-bit immediate, but a "
               "label there takes 64 bits")
    diags = validate_metadata(foreign, img)
    assert [(d.kind, d.message, d.record) for d in diags] == [("pointer", message, pointer)]
    with pytest.raises(LiftError, match=message):
        lift(img, foreign, mode="strict")
    lenient = lift(img, foreign, mode="lenient")
    assert lenient.diagnostics == tuple(diags)
    text = emit_assembly(lenient)
    assert "    mov rax, 1\n" in text
    assert text == emit_assembly(lift(img, meta, mode="strict"))


# --- targets in no section, and images whose sections overlap ---

def test_a_branch_target_in_no_section_fails_validation():
    _, _, (mnemonic, operands), _ = FAR_REFERENCES[0]
    img, meta = far_target_image(mnemonic, operands)
    message = "branch target 0x101000 is not inside any section"
    assert [(d.kind, d.message, d.addr, d.record) for d in validate_metadata(meta, img)] == [
        ("range", message, 0x1000, None)]
    with pytest.raises(LiftError, match="metadata fails validation: .*" + message):
        lift(img, meta, mode="strict")


def test_an_unrecorded_rip_relative_target_in_no_section_fails_validation():
    _, _, (mnemonic, operands), _ = FAR_REFERENCES[1]
    img, unrecorded = far_target_image(mnemonic, operands)
    pointer = OperandPointer(0x1000, 1)
    recorded = unrecorded._replace(pointers=(pointer,))
    # A recorded operand is reported once, for its record.
    assert [(d.kind, d.message, d.record) for d in validate_metadata(recorded, img)] == [
        ("range", "pointer target 0x101000 is not inside any section", pointer)]
    message = "RIP-relative target 0x101000 is not inside any section"
    assert [(d.kind, d.message, d.addr, d.record)
            for d in validate_metadata(unrecorded, img)] == [("range", message, 0x1000, None)]
    with pytest.raises(LiftError, match="metadata fails validation: .*" + message):
        lift(img, unrecorded, mode="strict")


def overlapping_sections_elf():
    """.text at 0x1000-0x1010 and .data from 0x1008."""
    return elfio.build_elf([
        elfio.NewSection(".text", 0x1000, b"\x90" * 16,
                         sh_flags=elfio.SHF_ALLOC | elfio.SHF_EXECINSTR),
        elfio.NewSection(".data", 0x1008, bytes(8),
                         sh_flags=elfio.SHF_ALLOC | elfio.SHF_WRITE)])


@pytest.mark.parametrize("meta", [EllfMetadata(), EllfMetadata(data=(DataRecord(0x1008, 8),))],
                         ids=["no_records", "one_data_record"])
def test_an_image_whose_sections_overlap_fails_validation(meta):
    img = elfio.read_elf(overlapping_sections_elf())
    with pytest.raises(OverlapError, match="sections .text and .data overlap at 0x1008"):
        validate_metadata(meta, img)
    with pytest.raises(OverlapError):
        img.section_at(0x1000)

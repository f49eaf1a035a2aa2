"""Turning linker-time facts into oracle metadata."""

import re

import pytest
from test_frozen_outputs import PROGRAMS

from ellf import elfio
from ellf.asm import assemble_image, parse_assembly
from ellf.errors import InconsistentFacts, InvariantViolation
from ellf.isa import decode_one
from ellf.meta import (
    BASIC_BLOCK,
    BlockFacts,
    BuildFacts,
    DataDiff,
    DataPointer,
    DataRecord,
    EllfMetadata,
    FUNCTION_END,
    FUNCTION_START,
    InstructionRegion,
    JumpTableFact,
    OperandPointer,
    RelocationFact,
    StackRecord,
    TextRecord,
    build_facts_from_json,
    from_build_facts,
)

# 24 bytes of straight-line code, then a second "function" of 4 bytes.
FACTS_DEMO = """\
.section .text base=0x4000
.func first
    push rbp
    mov rbp, rsp
    mov rax, 1
    mov rcx, 2
    add rax, rcx
.L_tail:
    pop rbp
    ret
.endfunc
.func second
    xor rax, rax
    ret
.endfunc
.section .data base=0x5000
words:
    .quad 0
    .quad 0
"""


@pytest.fixture(scope="module")
def facts_demo_image():
    elf, meta = assemble_image(parse_assembly(FACTS_DEMO))
    img = elfio.read_elf(elf)
    return elfio.load_image(img), meta


def _func_layout(image, start):
    """Instruction starts and lengths from the decoder (the test oracle)."""
    addrs = []
    addr = start
    while addr in image:
        ins = decode_one(image, addr)
        addrs.append((addr, ins.length))
        addr += ins.length
    return addrs


def test_adjacent_blocks_coalesce(facts_demo_image):
    image, _ = facts_demo_image
    layout = _func_layout(image, 0x4000)
    first_size = sum(l for _, l in layout)
    # split the first function into two adjacent blocks at .L_tail
    tail_off = sum(l for _, l in layout[:5])
    facts = BuildFacts(basic_blocks=(
        BlockFacts(0x4000, (0, tail_off), (tail_off, first_size - tail_off)),))
    meta, diags = from_build_facts(facts, image)
    # one region spanning both blocks, instruction count from the decoder
    assert meta.instruction_regions == (InstructionRegion(0x4000, len(layout)),)
    assert not diags


def test_text_records_and_function_end(facts_demo_image):
    image, _ = facts_demo_image
    layout = _func_layout(image, 0x4000)
    tail_off = sum(l for _, l in layout[:5])
    size = sum(l for _, l in layout)
    facts = BuildFacts(basic_blocks=(
        BlockFacts(0x4000, (0, tail_off), (tail_off, size - tail_off)),))
    meta, _ = from_build_facts(facts, image)
    last_instr = layout[-1][0]
    assert meta.text == (
        TextRecord(0x4000, FUNCTION_START),
        TextRecord(0x4000 + tail_off, BASIC_BLOCK),
        TextRecord(last_instr, FUNCTION_END),
    )


def test_compression_soundness(facts_demo_image):
    """Expanding the regions yields exactly the block-start and interior
    instruction addresses the facts described."""
    image, _ = facts_demo_image
    layout = _func_layout(image, 0x4000)
    size = sum(l for _, l in layout)
    facts = BuildFacts(basic_blocks=(BlockFacts(0x4000, (0,), (size,)),))
    meta, _ = from_build_facts(facts, image)
    expanded = set()
    for region in meta.instruction_regions:
        addr = region.start
        for _ in range(region.count):
            expanded.add(addr)
            addr += decode_one(image, addr).length
    assert expanded == {a for a, _ in layout}


def test_variable_overlap_drops_later(facts_demo_image):
    image, _ = facts_demo_image
    facts = BuildFacts(variables=(DataRecord(0x5000, 12), DataRecord(0x5006, 6)))
    meta, diags = from_build_facts(facts, image)
    assert meta.data == (DataRecord(0x5000, 12),)
    assert [d.kind for d in diags] == ["overlap-dropped"]
    assert diags[0].addr == 0x5006


def test_empty_facts(facts_demo_image):
    image, _ = facts_demo_image
    meta, diags = from_build_facts(BuildFacts(), image)
    assert meta == EllfMetadata()
    assert not diags


def test_relocation_classification(facts_demo_image):
    image, _ = facts_demo_image
    layout = _func_layout(image, 0x4000)
    # the third instruction (mov rax, 1) holds a 4-byte immediate at its tail
    mov_addr = layout[2][0]
    mov = decode_one(image, mov_addr)
    imm_field = mov.fields[0]
    size = sum(l for _, l in layout)
    facts = BuildFacts(
        basic_blocks=(BlockFacts(0x4000, (0,), (size,)),),
        relocations=(
            RelocationFact(mov_addr + imm_field.offset, "pc32", 0x5000),
            RelocationFact(0x5000, "abs64", 0x4000),
        ),
    )
    meta, _ = from_build_facts(facts, image)
    assert OperandPointer(mov_addr, imm_field.operand, 0x5000) in meta.pointers
    assert DataPointer(0x5000, 0x4000) in meta.pointers


def test_diff_relocations_use_declared_tables(facts_demo_image):
    image, _ = facts_demo_image
    facts = BuildFacts(
        relocations=(
            RelocationFact(0x5000, "diff32", 0x4000),
            RelocationFact(0x5008, "diff32", 0x4005),
        ),
        jump_tables=(JumpTableFact(0x5000, 2, 8),),
    )
    meta, _ = from_build_facts(facts, image)
    assert meta.pointers == (DataDiff(0x5000, 0x4000, 0x5000),
                             DataDiff(0x5008, 0x4005, 0x5000))


def test_diff_relocation_without_table_needs_subtrahend(facts_demo_image):
    image, _ = facts_demo_image
    facts = BuildFacts(relocations=(
        RelocationFact(0x5000, "diff32", 0x4000, subtrahend_addr=0x5008),))
    meta, _ = from_build_facts(facts, image)
    assert meta.pointers == (DataDiff(0x5000, 0x4000, 0x5008),)
    with pytest.raises(InconsistentFacts):
        from_build_facts(BuildFacts(relocations=(
            RelocationFact(0x5000, "diff32", 0x4000),)), image)


def test_misaligned_relocation_rejected(facts_demo_image):
    image, _ = facts_demo_image
    layout = _func_layout(image, 0x4000)
    size = sum(l for _, l in layout)
    facts = BuildFacts(
        basic_blocks=(BlockFacts(0x4000, (0,), (size,)),),
        relocations=(RelocationFact(0x4000, "abs64", 0x5000),),  # opcode byte
    )
    with pytest.raises(InconsistentFacts):
        from_build_facts(facts, image)


def test_pc32_outside_regions_rejected(facts_demo_image):
    image, _ = facts_demo_image
    facts = BuildFacts(relocations=(RelocationFact(0x5000, "pc32", 0x4000),))
    with pytest.raises(InconsistentFacts):
        from_build_facts(facts, image)


def test_locals_become_stack_records(facts_demo_image):
    image, _ = facts_demo_image
    facts = BuildFacts(locals=(
        StackRecord(0x4000, (32, 4)),
        StackRecord(0x4000, (40,)),
    ))
    meta, _ = from_build_facts(facts, image)
    assert meta.stack == (StackRecord(0x4000, (4, 32, 40)),)
    with pytest.raises(InconsistentFacts):
        from_build_facts(BuildFacts(locals=(StackRecord(0x4000, (0,)),)), image)


def test_overlapping_blocks_rejected(facts_demo_image):
    image, _ = facts_demo_image
    facts = BuildFacts(basic_blocks=(BlockFacts(0x4000, (0, 2), (4, 4)),))
    with pytest.raises(InconsistentFacts):
        from_build_facts(facts, image)


MOV_RET = {0x100 + i: b for i, b in enumerate(bytes.fromhex("b82a000000c3"))}


@pytest.mark.parametrize("offsets, sizes", [
    ((0, 2), (2, 3)),        # the last block starts inside mov eax, 42
    ((0, 2, 5), (2, 3, 1)),  # an earlier block does
])
def test_a_block_inside_an_instruction_is_rejected(offsets, sizes):
    facts = BuildFacts(basic_blocks=(BlockFacts(0x100, offsets, sizes),))
    with pytest.raises(InconsistentFacts,
                       match="block at 0x102 is not at an instruction start"):
        from_build_facts(facts, MOV_RET)


@pytest.mark.parametrize("blocks, message", [
    ((BlockFacts(0x100, (0, 5), (5, 0)),), "block at 0x105 is not at an instruction start"),
    # 0x105 starts the ret that the second function decodes
    ((BlockFacts(0x100, (0, 5), (5, 0)), BlockFacts(0x105, (0,), (1,))),
     "block at 0x105 holds no instruction"),
])
def test_an_empty_last_block_is_rejected(blocks, message):
    with pytest.raises(InconsistentFacts, match=message):
        from_build_facts(BuildFacts(basic_blocks=blocks), MOV_RET)


def test_build_facts_json_loader():
    obj = {
        "basic_blocks": [{"function_addr": "0x4000", "block_offsets": [0],
                          "block_sizes": [4]}],
        "relocations": [{"addr": "0x5000", "kind": "abs64",
                         "target_addr": "0x4000"}],
        "variables": [{"addr": "0x5000", "size": 8}],
        "locals": [{"function_addr": "0x4000", "offsets": [8]}],
        "jump_tables": [{"table_addr": "0x5000", "entry_count": 2,
                         "entry_size": 8}],
    }
    facts = build_facts_from_json(obj)
    assert facts.basic_blocks[0].function_addr == 0x4000
    assert facts.relocations[0].subtrahend_addr is None
    assert facts.jump_tables[0].entry_size == 8


@pytest.mark.parametrize("obj, message", [
    ({"variables": [{"addr": "0x10"}]}, "variables[0].size is missing"),
    ({"locals": [{"function_addr": "0x10", "offsets": 8}]},
     "locals[0].offsets must be a list, got int"),
    ([], "build facts JSON must be an object, got list"),
    ({"variables": [{"addr": "0x10", "size": 2.9}]},
     "variables[0].size must be an integer, got 2.9"),
    ({"basic_blocks": [{"function_addr": "0x10", "block_offsets": [0, "4"],
                        "block_sizes": [4, 4]}]},
     "basic_blocks[0].block_offsets[1] must be an integer, got '4'"),
    ({"relocations": [{"addr": "0x10", "kind": "rel8", "target_addr": "0x20"}]},
     "relocations[0].kind: unknown relocation kind 'rel8'"),
    ({"jump_tables": "none"}, "jump_tables must be a list, got str"),
], ids=["missing_field", "offsets_not_a_list", "top_level_list", "fractional_size",
        "string_in_an_integer_list", "unknown_relocation_kind", "table_not_a_list"])
def test_malformed_build_facts_name_the_table_record_and_field(obj, message):
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        build_facts_from_json(obj)


def facts_of(meta, image):
    """The facts a linker would report for the program ``meta`` describes.

    Blocks come from the text records, one abs64 relocation from each operand
    pointer (at its operand's field) and each data pointer, one diff32 from
    each difference cell; variables and locals are the data and stack tables.
    """
    blocks = []
    for rec in meta.text:
        if rec.kind == FUNCTION_START:
            entry, starts = rec.addr, [rec.addr]
        elif rec.kind == BASIC_BLOCK:
            starts.append(rec.addr)
        else:
            ends = starts[1:] + [rec.addr + decode_one(image, rec.addr).length]
            blocks.append(BlockFacts(entry, tuple(s - entry for s in starts),
                                     tuple(e - s for s, e in zip(starts, ends))))
    relocations = []
    for rec in meta.pointers:
        if isinstance(rec, OperandPointer):
            field = next(f for f in decode_one(image, rec.instr_addr).fields
                         if f.operand == rec.operand_index)
            relocations.append(RelocationFact(rec.instr_addr + field.offset, "abs64",
                                              rec.target))
        elif isinstance(rec, DataPointer):
            relocations.append(RelocationFact(rec.addr, "abs64", rec.target))
        else:
            relocations.append(RelocationFact(rec.addr, "diff32", rec.minuend,
                                              rec.subtrahend))
    return BuildFacts(basic_blocks=tuple(blocks), relocations=tuple(relocations),
                      variables=meta.data, locals=meta.stack)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_the_facts_of_every_bundled_program_give_back_its_metadata(name):
    """The assembler and from_build_facts agree: the facts of an assembled
    program, decoded and mapped to records, are its metadata again."""
    elf, meta = assemble_image(parse_assembly(PROGRAMS[name]))
    image = elfio.load_image(elfio.read_elf(elf))
    facts = facts_of(meta, image)
    assert facts.basic_blocks
    assert from_build_facts(facts, image) == (meta, [])


def test_the_bundled_programs_hold_every_kind_of_pointer_record():
    """So the test above maps each kind of relocation on some program."""
    kinds = {type(rec) for src in PROGRAMS.values()
             for rec in assemble_image(parse_assembly(src))[1].pointers}
    assert kinds == {OperandPointer, DataPointer, DataDiff}

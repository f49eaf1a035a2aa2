"""Pipeline behavior: decoding regions, labels, the three symbolization
passes, CFG recovery, and deterministic emission."""

from collections import Counter
from itertools import permutations
import re
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from ellf import elfio, isa, lifter
from ellf.asm import Data, Instr, assemble, assemble_image, parse_assembly
from ellf.corpus import corpus_programs, hazard_program
from ellf.errors import AsmSyntaxError, LiftError, PointerStraddle
from ellf.isa import (MAX_LENGTH, RUN_BYTES, Immediate, MemRef, Register, SymbolDiff,
                      SymbolRef, decode_one)
from ellf.lifter import (
    LabelMap,
    SlotMemRef,
    Zeroes,
    _byte_text,
    emit_assembly,
    generate_labels,
    lift,
    lift_unsymbolized,
    render_instruction,
)
from ellf.meta import (
    BASIC_BLOCK,
    FUNCTION_END,
    FUNCTION_START,
    DataPointer,
    DataRecord,
    EllfMetadata,
    InstructionRegion,
    OperandPointer,
    TextRecord,
    repair_metadata,
    validate_metadata,
)

from conftest import (FAR_REFERENCES, FAR_TARGET, SPARSE_DEMO_META, TABLE_DEMO,
                      far_target_image)
from test_frozen_outputs import PROGRAMS, metadata_variants


# --- step I ---

def decode_regions(img, *regions):
    """Validation's diagnostics for metadata of ``regions`` alone, as
    (kind, message, address, record), and the instructions it decoded. The
    section names of ``code_image`` are left out of the diagnostics."""
    decoded = {}
    diags = validate_metadata(EllfMetadata(instruction_regions=regions), img, decoded)
    return [(d.kind, d.message, d.addr, d.record) for d in diags
            if d.kind != "section"], decoded


def test_region_decodes_exact_count(table_demo):
    _, _, img = table_demo
    diags, instrs = decode_regions(img, InstructionRegion(0x4000, 10))
    assert diags == [] and len(instrs) == 10
    ordered = sorted(instrs)
    assert instrs[ordered[0]].mnemonic == "push"
    assert instrs[ordered[-1]].mnemonic == "ret"


def code_image(*sections):
    """The image of ``(vaddr, bytes)`` executable sections; ``(vaddr, None,
    size)`` is a zero-fill one."""
    flags = elfio.SHF_ALLOC | elfio.SHF_EXECINSTR
    return elfio.read_elf(elfio.build_elf([
        elfio.NewSection(f".s{i}", vaddr, b"", elfio.SHT_NOBITS, flags, size=size[0])
        if data is None else elfio.NewSection(f".s{i}", vaddr, data, sh_flags=flags)
        for i, (vaddr, data, *size) in enumerate(sections)]))


def test_single_instruction_region():
    diags, instrs = decode_regions(code_image((0x100, b"\xc3")), InstructionRegion(0x100, 1))
    assert diags == [] and instrs[0x100].mnemonic == "ret"


def test_region_decode_error():
    region = InstructionRegion(0x100, 2)
    diags, _ = decode_regions(code_image((0x100, b"\xc3\x06")), region)
    assert diags == [("range", "instruction region at 0x100 does not decode: byte pattern "
                               "at 0x101 is outside the instruction subset (opcode 0x06)",
                      0x100, region)]


def test_region_overlap():
    region = InstructionRegion(0x101, 1)
    diags, _ = decode_regions(code_image((0x100, b"\x55\x55\xc3")),
                              InstructionRegion(0x100, 2), region)
    assert diags == [("overlap", "region at 0x101 begins inside the decoded extent of the "
                                 "region at 0x100", 0x101, region)]


def test_an_instruction_across_two_abutting_code_sections_decodes():
    img = code_image((0x1000, bytes.fromhex("48c7c0")), (0x1003, bytes.fromhex("01000000c3")))
    diags, decoded = decode_regions(img, InstructionRegion(0x1000, 2))
    assert diags == []
    assert [(ins.mnemonic, ins.operands, ins.length) for ins in decoded.values()] == [
        ("mov", (Register("rax"), Immediate(1, 32)), 7), ("ret", (), 1)]


def test_an_instruction_that_runs_into_zero_fill_reads_zeros():
    img = code_image((0x1000, b"\xb8"), (0x1001, None, 16))
    diags, decoded = decode_regions(img, InstructionRegion(0x1000, 1))
    assert diags == []
    assert decoded[0x1000].operands == (Register("eax"), Immediate(0, 32))


@pytest.mark.parametrize("after", [(0x1010, b"\x00" * 4), None])  # a gap, or nothing
def test_an_instruction_that_runs_past_the_mapped_bytes_is_truncated(after):
    img = code_image((0x1000, bytes.fromhex("c3b801")), *([after] if after else []))
    region = InstructionRegion(0x1000, 2)
    diags, _ = decode_regions(img, region)
    assert diags == [("range", "instruction region at 0x1000 does not decode: instruction "
                               "at 0x1001 runs past the image", 0x1000, region)]


def test_a_region_longer_than_one_read_decodes_whole():
    count = RUN_BYTES // 7 + 10  # 7-byte instructions, past the first read
    img = code_image((0x1000, bytes.fromhex("48c7c001000000") * count))
    diags, decoded = decode_regions(img, InstructionRegion(0x1000, count))
    assert diags == [] and len(decoded) == count
    assert {ins.operands for ins in decoded.values()} == {(Register("rax"), Immediate(1, 32))}


def test_a_region_in_a_huge_zero_fill_section_reads_no_more_than_one_run():
    img = code_image((0x1000, None, 1 << 40))
    tracemalloc.start()
    try:
        diags, _ = decode_regions(img, InstructionRegion(0x1000, 1 << 40))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [message for _, message, _, _ in diags] == [
        "instruction region at 0x1000 does not decode: byte pattern at 0x1000 is outside "
        "the instruction subset (opcode 0x00)"]
    assert peak < 4 * RUN_BYTES


def test_a_strict_lift_decodes_each_instruction_once(monkeypatch):
    programs = []
    for source in [*corpus_programs().values(), TABLE_DEMO]:
        elf, meta = assemble(parse_assembly(source))
        programs.append((elfio.read_elf(elf), meta))
    calls = Counter()

    def counted(code, addr):
        calls[addr] += 1
        return decode_one(code, addr)

    monkeypatch.setattr(isa, "decode_one", counted)  # what decode_region calls
    for img, meta in programs:
        calls.clear()
        lp = lift(img, meta)
        assert calls == Counter(lp.instructions.keys())  # each address once
        assert calls.total() == sum(region.count for region in meta.instruction_regions)


# --- labels ---

def test_label_names_from_sparse_oracle(table_demo):
    _, _, img = table_demo
    values, blocks = {}, set()
    validate_metadata(SPARSE_DEMO_META, img, None, values, blocks)
    lm = generate_labels(SPARSE_DEMO_META, img, values, blocks)
    assert lm.functions == {0x4000: "F_4000"}
    # blocks: the recorded one plus those the jump and the cells imply
    assert lm.bb_backed == {0x4014, 0x401C, 0x4023}
    assert lm.blocks[0x4014] == ".Lb1"
    assert lm.blocks[0x401C] == ".Lb2"
    assert lm.blocks[0x4023] == ".Lb3"
    assert lm.data_labels == {0x4024: "D_4024", 0x402C: "D_402c"}


def test_lookup_returns_floor_entry(table_demo):
    _, _, img = table_demo
    lm = generate_labels(EllfMetadata(), img, {}, set())
    assert lm.lookup(0x4010, "text") == ("S_text", 0x10)
    assert lm.lookup(0x402C, "data") == ("S_rodata", 8)


def _linear_lookup(lm, addr, namespace):
    """Reference: merge the tables by precedence, then scan in address order."""
    if namespace == "text":
        merged = dict(lm.text_floors)
        merged.update(lm.blocks)
        merged.update(lm.functions)
    else:
        merged = dict(lm.data_floors)
        merged.update(lm.data_labels)
    best = None
    for entry_addr, name in sorted(merged.items()):
        if entry_addr > addr:
            break
        best = (name, addr - entry_addr)
    return best


def _names(prefix):
    # A small address space makes shared addresses across tables common.
    return st.sets(st.integers(0, 48)).map(
        lambda addrs: {a: f"{prefix}{a:x}" for a in addrs})


@given(functions=_names("F_"), blocks=_names(".Lb"), text_floors=_names("S_t"),
       data_labels=_names("D_"), data_floors=_names("S_d"),
       queries=st.lists(st.integers(0, 56), max_size=16))
def test_lookup_matches_linear_scan(functions, blocks, text_floors, data_labels,
                                    data_floors, queries):
    lm = LabelMap()
    lm.functions.update(functions)
    lm.blocks.update(blocks)
    lm.text_floors.update(text_floors)
    lm.data_labels.update(data_labels)
    lm.data_floors.update(data_floors)
    for addr in [-1, *queries]:  # -1 lies below every entry
        for namespace in ("text", "data"):
            assert lm.lookup(addr, namespace) == _linear_lookup(lm, addr, namespace)
    assert lm.lookup(-1, "text") is None and lm.lookup(-1, "data") is None


def test_block_numbering_is_deterministic_across_functions():
    src = """\
.section .text base=0x1000
.func first
    xor rax, rax
    jmp .L_f1
.L_f1:
    ret
.endfunc
.func second
    xor rcx, rcx
    jmp .L_s1
.L_s1:
    ret
.endfunc
"""
    elf, meta = assemble(parse_assembly(src))
    img = elfio.read_elf(elf)
    values, blocks = {}, set()
    validate_metadata(meta, img, None, values, blocks)
    lm = generate_labels(meta, img, values, blocks)
    names = [lm.blocks[a] for a in sorted(lm.blocks)]
    assert names == sorted(set(names)), "block labels must be unique"
    again = generate_labels(meta, img, values, blocks)
    assert {a: n for a, n in lm.blocks.items()} == again.blocks


# --- symbolization steps (driven through a lenient lift of the sparse oracle) ---

@pytest.fixture(scope="module")
def sparse_lift(table_demo):
    _, _, img = table_demo
    return lift(img, SPARSE_DEMO_META, mode="lenient")


def test_coarse_rewrites_recorded_operand(sparse_lift):
    lea = sparse_lift.instructions[0x4004]
    assert lea.operands[1] == MemRef(rip_relative=True, disp=0x19,
                                     label="D_4024", label_offset=0)


def test_raw_immediates_stay_raw(sparse_lift):
    mov = sparse_lift.instructions[0x401C]
    assert mov.operands == (Register("rax"), Immediate(42, 32))


def test_diff_payload_rendering(sparse_lift):
    text = emit_assembly(sparse_lift)
    assert "    .quad .Lb1 - D_4024" in text
    assert "    .quad .Lb2 - D_4024" in text


def test_function_annotations(sparse_lift):
    lines = emit_assembly(sparse_lift).splitlines()
    entry = render_instruction(sparse_lift.instructions[0x4000])
    last = render_instruction(sparse_lift.instructions[0x4023])
    assert lines[:3] == [".section .text base=0x4000", ".func F_4000", "    " + entry]
    i = lines.index("    " + last)
    assert lines[i - 1:i + 2] == [".Lb3:", "    " + last, ".endfunc"]
    assert lines.count(".func F_4000") == lines.count(".endfunc") == 1


def test_direct_jump_rewritten_to_minted_label(sparse_lift):
    jmp = sparse_lift.instructions[0x4017]
    from ellf.isa import SymbolRef
    assert jmp.operands == (SymbolRef(".Lb3", 0),)


def test_region_only_metadata_lifts_with_the_records_the_decode_implies(table_demo):
    _, _, img = table_demo
    meta = EllfMetadata(instruction_regions=SPARSE_DEMO_META.instruction_regions)
    lp = lift(img, meta, mode="strict")
    text = emit_assembly(lp)
    # the jump's target is a block, and the RIP-relative operand a pointer
    assert "    jmp .Lb1\n    mov rax, 42\n.Lb1:\n    ret\n" in text
    assert "    lea rcx, [D_4024]\n" in text and "\nD_4024:\n" in text
    # no function, and with no pointer records the table cells are bytes
    assert ".func" not in text and ".quad" not in text
    assert _reassembles_to_the_same_alloc_bytes(text, img)


def test_strict_dangling_text_record(table_demo):
    _, full, img = table_demo
    dangling = TextRecord(0x4002, BASIC_BLOCK)
    meta = full._replace(text=full.text[:1] + (dangling,) + full.text[1:])
    message = "text record at 0x4002 (basic_block) is not a decoded instruction start"
    with pytest.raises(LiftError, match=re.escape(message)):
        lift(img, meta, mode="strict")
    kept, _, _, _, diags = lift_unsymbolized(img, meta, "lenient")
    assert [(d.kind, d.message, d.record) for d in diags] == [("range", message, dangling)]
    assert kept == full


@pytest.mark.parametrize("meta", [
    SPARSE_DEMO_META._replace(pointers=(OperandPointer(0x4005, 1),)
                              + SPARSE_DEMO_META.pointers[1:]),
    # the cell at 0x402c holds .Lb2 - D_4024, which as a pointer is in no section
    SPARSE_DEMO_META._replace(pointers=SPARSE_DEMO_META.pointers[:2]
                              + (DataPointer(0x402C),)),
    SPARSE_DEMO_META._replace(text=SPARSE_DEMO_META.text
                              + (TextRecord(0x4030, BASIC_BLOCK),)),
], ids=["operand_pointer_off_an_instruction", "target_outside_sections",
        "text_record_outside_text"])
def test_lenient_lift_reports_a_validation_fault_once(table_demo, meta):
    _, _, img = table_demo
    problems = validate_metadata(meta, img)
    assert len([p for p in problems if p.record is not None]) == 1
    assert lift(img, meta, mode="lenient").diagnostics == tuple(problems)
    with pytest.raises(LiftError) as info:
        lift(img, meta, mode="strict")
    assert type(info.value) is LiftError


@pytest.mark.parametrize("mode", ["Strict", "", None])
def test_unknown_lift_mode_is_rejected(table_demo, mode):
    _, meta, img = table_demo
    with pytest.raises(ValueError, match="mode must be"):
        lift(img, meta, mode=mode)


# The passes that write disjoint state, in the order lift() runs them.
PASSES = ("text_symbolize", "stack_symbolize", "data_symbolize")
PASS_FUNCTIONS = {name: getattr(lifter, name) for name in PASSES}


def _lenient_lift(img, meta):
    """What the pass order may not change, or the error the lift raised."""
    try:
        lp = lift(img, meta, mode="lenient")
    except LiftError as exc:
        return type(exc).__name__, str(exc)
    return emit_assembly(lp), lp.cfgs, lp.variables, Counter(lp.diagnostics)


@pytest.mark.parametrize("name", sorted(set(PROGRAMS) - {"byte_heavy"}))
def test_text_stack_and_data_passes_give_the_same_lift_in_any_order(monkeypatch, name):
    """lift() itself runs the passes: each order is bound to their names in
    turn. The order of the diagnostics may differ, their multiset may not."""
    elf, meta = assemble(parse_assembly(PROGRAMS[name]))
    img = elfio.read_elf(elf)
    for variant in metadata_variants(img, meta, seed=name):
        lifts = []
        for order in permutations(PASSES):
            for slot, step in zip(PASSES, order):
                monkeypatch.setattr(lifter, slot, PASS_FUNCTIONS[step])
            lifts.append(_lenient_lift(img, variant))
        assert lifts == [lifts[0]] * len(lifts), variant


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_a_lift_that_returns_reassembles_to_the_same_bytes(name):
    """Over the partial and damaged metadata of ``metadata_variants``,
    validation is the one judge. A strict lift raises if and only if
    ``validate_metadata`` reports a problem. ``repair_metadata`` either
    raises LiftError, or returns metadata that validates clean, with
    diagnostics that start with validation's first round; step I of a
    lenient lift returns the same. The strict lift of what it returns
    reassembles to the same bytes."""
    elf, meta = assemble(parse_assembly(PROGRAMS[name]))
    img = elfio.read_elf(elf)
    for variant in metadata_variants(img, meta, seed=f"{name}-0"):
        problems = validate_metadata(variant, img)
        if problems:
            with pytest.raises(LiftError):
                lift_unsymbolized(img, variant, "strict")
        else:
            assert lift_unsymbolized(img, variant, "strict")[0] == variant
        try:
            repaired, diagnostics = repair_metadata(variant, img)
        except LiftError:
            with pytest.raises(LiftError):
                lift_unsymbolized(img, variant, "lenient")
            continue
        assert validate_metadata(repaired, img) == [], variant
        assert diagnostics[:len(problems)] == problems, variant
        kept, _, _, _, lenient = lift_unsymbolized(img, variant, "lenient")
        assert (kept, lenient) == (repaired, diagnostics), variant
        lp = lift(img, repaired, mode="strict")
        # The renderer places .func and block lines only at instructions.
        assert set(lp.labels.functions) | lp.labels.bb_backed <= set(lp.instructions), variant
        text = emit_assembly(lp)
        raw, _ = assemble_image(parse_assembly(text))
        assert elfio.load_image(elfio.read_elf(raw)) == elfio.load_image(img), variant


def test_the_decode_implies_the_block_a_jump_targets():
    """Without its block records, the ``jne`` of ``03_conditional`` still
    targets a decoded instruction, so validation implies a block there: the
    metadata validates clean, the jump names that block's label exactly, and
    the CFG has it."""
    elf, meta = assemble(parse_assembly(corpus_programs()["03_conditional"]))
    img = elfio.read_elf(elf)
    assert TextRecord(0x401012, BASIC_BLOCK) not in meta.text  # implied, so not written
    variant = meta._replace(text=tuple(rec for rec in meta.text if rec.kind != BASIC_BLOCK))
    blocks = set()
    assert validate_metadata(variant, img, None, None, blocks) == []
    assert blocks == {0x401012}
    assert repair_metadata(variant, img) == (variant, [])
    lp = lift(img, variant, mode="strict")
    text = emit_assembly(lp)
    assert "    jne .Lb1\n" in text and "\n.Lb1:\n    xor rax, rax\n" in text
    # The jne ends a block, so its fall-through starts one.
    assert [(block.start, block.end, block.successors) for block in lp.cfgs[0].blocks] == [
        (0x401000, 0x401004, (0x40100A, 0x401012)), (0x40100A, 0x401011, ()),
        (0x401012, 0x401015, ())]
    assert _reassembles_to_the_same_alloc_bytes(text, img)


# --- stack symbolization ---

def test_stack_slot_resolution_rule():
    src = """\
.section .text base=0x1000
.func fr
.slot fr, s4, 4
.slot fr, s32, 32
.slot fr, s40, 40
    push rbp
    mov rbp, rsp
    mov rax, [rbp - 8]
    mov rcx, [rbp + 8 - s4]
    mov [rbp - 32], rax
    ret
.endfunc
"""
    elf, meta = assemble(parse_assembly(src))
    lp = lift(elfio.read_elf(elf), meta, mode="strict")
    ops = {a: ins.operands for a, ins in lp.instructions.items()}
    addrs = sorted(lp.instructions)
    # [rbp - 8] accesses depth 16: base offset 32, interior 16
    slot = ops[addrs[2]][1]
    assert isinstance(slot, SlotMemRef)
    assert (slot.slot_offset, slot.interior, slot.bias) == (32, 16, 8)
    # exact slot start: depth 4, interior 0
    slot = ops[addrs[3]][1]
    assert (slot.slot_offset, slot.interior) == (4, 0)
    # store at depth 40: deepest slot
    slot = ops[addrs[4]][0]
    assert (slot.slot_offset, slot.interior) == (40, 0)


def _one_instruction(text):
    """``text`` assembled alone at 0x1000 and decoded back."""
    elf, _ = assemble(parse_assembly(f".section .text base=0x1000\n    {text}\n"))
    return decode_one(elfio.load_image(elfio.read_elf(elf)).read_run(0x1000, MAX_LENGTH),
                      0x1000)


# (instruction, (rsp, rbp) anchors before, anchors after). An anchor is the
# register's offset from the stack pointer at function entry, None when
# untracked.
SP_EFFECTS = [
    ("push rbp", (0, None), (-8, None)),
    ("push rsp", (None, -8), (None, -8)),
    ("pop rax", (-16, -8), (-8, -8)),
    ("pop rax", (None, -8), (None, -8)),
    ("pop rbp", (-16, -8), (-8, None)),
    ("pop rsp", (-16, -8), (None, -8)),
    ("leave", (-32, -8), (0, None)),
    ("leave", (-32, None), (None, None)),
    ("mov rbp, rsp", (-8, None), (-8, -8)),
    ("mov rbp, rsp", (None, -8), (None, None)),
    ("mov rbp, rax", (-8, -8), (-8, None)),
    ("mov rbp, rbp", (-8, -8), (-8, None)),
    ("mov rsp, rbp", (-32, -8), (-8, -8)),
    ("mov rsp, rax", (-32, -8), (None, -8)),
    ("mov rax, rsp", (-32, -8), (-32, -8)),
    ("mov [rbp - 8], rsp", (-32, -8), (-32, -8)),
    ("sub rsp, 16", (-8, -8), (-24, -8)),
    ("add rsp, 16", (-24, -8), (-8, -8)),
    ("sub rsp, 16", (None, -8), (None, -8)),
    ("add rsp, rax", (-24, -8), (None, -8)),
    ("sub rsp, rax", (-24, -8), (None, -8)),
    ("and rsp, -16", (-24, -8), (None, -8)),
    ("or rsp, 1", (-24, -8), (None, -8)),
    ("inc rsp", (-24, -8), (None, -8)),
    ("movsxd rsp, [rax]", (-24, -8), (None, -8)),
    ("imul rsp, rax", (-24, -8), (None, -8)),
    ("add rbp, 8", (-24, -8), (-24, None)),
    ("dec rbp", (-24, -8), (-24, None)),
    ("lea rbp, [rsp + 8]", (-24, -8), (-24, None)),
    ("xor rbp, rbp", (-24, -8), (-24, None)),
    ("mov ebp, 0", (-24, -8), (-24, None)),
    ("mov ebp, esp", (-24, -8), (-24, None)),
    ("xor ebp, ebp", (-24, -8), (-24, None)),
    ("add esp, 8", (-24, -8), (None, -8)),
    ("mov esp, ebp", (-24, -8), (None, -8)),
    ("lea esp, [rax]", (-24, -8), (None, -8)),
    ("cmp rsp, 8", (-24, -8), (-24, -8)),
    ("test rbp, rbp", (-24, -8), (-24, -8)),
    ("call rax", (-24, -8), (-24, -8)),
    ("ret", (-24, -8), (-24, -8)),
]


@pytest.mark.parametrize("text, before, after", SP_EFFECTS)
def test_each_instruction_moves_or_drops_the_frame_anchors(text, before, after):
    ins = _one_instruction(text)
    assert lifter._apply_sp_effect(ins, *before, ins.operands) == after


def _stack_lift(body):
    """A strict lift of one function with slots 8 and 16, and its text."""
    src = (".section .text base=0x1000\n.func f\n.slot f, a, 8\n.slot f, b, 16\n"
           + "".join(f"    {line}\n" for line in body) + ".endfunc\n")
    elf, meta = assemble(parse_assembly(src))
    img = elfio.read_elf(elf)
    lp = lift(img, meta, mode="strict")
    text = emit_assembly(lp)
    assert _reassembles_to_the_same_alloc_bytes(text, img)
    return lp, text


def test_a_stack_access_through_an_untracked_anchor_is_left_as_is():
    lp, text = _stack_lift(["mov rax, [rbp - 8]", "mov rcx, [rdx - 8]",
                            "mov rsi, [rsp + 8]", "ret"])
    assert [(d.kind, d.message) for d in lp.diagnostics] == [
        ("stack", "stack access at 0x1000 has an untracked frame anchor")]
    assert ("    mov rax, [rbp - 8]\n    mov rcx, [rdx - 8]\n    mov rsi, [rsp + 8]\n"
            in text)


def test_a_stack_access_below_every_slot_is_left_as_is():
    lp, text = _stack_lift(["push rbp", "mov rbp, rsp", "mov rax, [rbp - 24]",
                            "mov rcx, [rbp - 8]", "pop rbp", "ret"])
    assert [(d.kind, d.message) for d in lp.diagnostics] == [
        ("stack", "stack access at 0x1004 (depth 32) is outside every frame slot")]
    assert "    mov rax, [rbp - 24]\n    mov rcx, [rbp + 8 - s16]\n" in text


def test_a_32_bit_write_to_ebp_leaves_the_frame_anchor_untracked():
    lp, text = _stack_lift(["push rbp", "mov rbp, rsp", "sub rsp, 16", "mov [rbp - a], rax",
                            "mov ebp, 0", "mov rcx, [rbp - 8]", "leave", "ret"])
    assert [(d.kind, d.message) for d in lp.diagnostics] == [
        ("stack", "stack access at 0x1011 has an untracked frame anchor")]
    assert "    mov [rbp + 8 - s16], rax\n    mov ebp, 0\n    mov rcx, [rbp - 8]\n" in text


def test_no_stack_record_leaves_operands(table_demo):
    src = """\
.section .text base=0x1000
.func plain
    push rbp
    mov rbp, rsp
    mov rax, [rbp - 8]
    leave
    ret
.endfunc
"""
    elf, meta = assemble(parse_assembly(src))
    lp = lift(elfio.read_elf(elf), meta, mode="strict")
    third = sorted(lp.instructions)[2]
    assert lp.instructions[third].operands[1] == MemRef(base="rbp", disp=-8)


# --- data symbolization ---

def test_two_diff_variables(sparse_lift):
    rodata_vars = [v for v in sparse_lift.variables if v.address >= 0x4024]
    assert [v.label for v in rodata_vars] == ["D_4024", "D_402c"]
    assert all(len(v.payload) == 1 and isinstance(v.payload[0], SymbolDiff)
               for v in rodata_vars)


def test_section_without_records_is_one_anonymous_variable():
    src = """\
.section .text base=0x1000
.func f
    ret
.endfunc
.section .data base=0x2000
    .byte 0x01, 0x02, 0x03
"""
    elf, meta = assemble(parse_assembly(src))
    lp = lift(elfio.read_elf(elf), meta, mode="strict")
    assert len(lp.variables) == 1
    var = lp.variables[0]
    assert (var.address, var.size, var.label) == (0x2000, 3, None)
    assert var.payload == (b"\x01\x02\x03",)


def test_uncovered_gap_merges_into_preceding_variable(table_demo):
    _, _, img = table_demo
    meta = SPARSE_DEMO_META._replace(data=(DataRecord(0x4024, 8),))
    lp = lift(img, meta, mode="lenient")
    var = [v for v in lp.variables if v.address == 0x4024][0]
    assert var.size == 16  # trailing record-free bytes merged in


def test_pointer_straddle_strict(table_demo):
    _, _, img = table_demo
    meta = SPARSE_DEMO_META._replace(data=(DataRecord(0x4024, 4), DataRecord(0x4028, 12)))
    with pytest.raises(PointerStraddle):
        lift(img, meta, mode="strict")
    lp = lift(img, meta, mode="lenient")
    assert any(d.kind == "straddle" for d in lp.diagnostics)


def test_nobits_variables_are_zero_payloads():
    src = corpus_programs()["09_bss_buffer"]
    elf, meta = assemble(parse_assembly(src))
    lp = lift(elfio.read_elf(elf), meta, mode="strict")
    bss_vars = [v for v in lp.variables if v.address >= 0x405000]
    assert [v.payload for v in bss_vars] == [(Zeroes(4096),), (Zeroes(8),)]


# --- CFG ---

def test_dispatch_cfg_successors(table_demo):
    _, meta, img = table_demo
    lp = lift(img, meta, mode="strict")
    cfg = lp.cfgs[0]
    entry_block = cfg.blocks[0]
    assert entry_block.successors == (0x4014, 0x401C)


def test_straight_line_single_block():
    src = """\
.section .text base=0x1000
.func f
    push rbp
    ret
.endfunc
"""
    elf, meta = assemble(parse_assembly(src))
    lp = lift(elfio.read_elf(elf), meta, mode="strict")
    assert len(lp.cfgs) == 1
    assert lp.cfgs[0].blocks == (type(lp.cfgs[0].blocks[0])(
        start=0x1000, end=0x1001, successors=()),)


def test_conditional_block_has_two_successors():
    src = corpus_programs()["03_conditional"]
    elf, meta = assemble(parse_assembly(src))
    lp = lift(elfio.read_elf(elf), meta, mode="strict")
    cfg = lp.cfgs[0]
    assert len(cfg.blocks[0].successors) == 2


def test_a_block_ends_after_every_jump_return_and_halt(monkeypatch):
    """No label marks what follows the je, the jmp rax, the hlt or the ret,
    yet each of those instructions ends its block. Only the last
    instruction of a block is classified."""
    src = (".section .text base=0x1000\n.func f\n    cmp rdi, 1\n    je one\n"
           "    mov rax, 2\n    jmp rax\n    push rbp\n    hlt\n    pop rbp\n    ret\n"
           "    nop\none:\n    ret\n.endfunc\n")
    elf, meta = assemble(parse_assembly(src))
    classified = []
    classify = lifter.instruction_class
    monkeypatch.setattr(lifter, "instruction_class",
                        lambda ins: classified.append(ins.address) or classify(ins))
    lp = lift(elfio.read_elf(elf), meta, mode="strict")
    assert [(block.start, block.end, block.successors) for block in lp.cfgs[0].blocks] == [
        (0x1000, 0x1004, (0x100A, 0x1018)),  # je one
        (0x100A, 0x1011, (0x1000, 0x100A, 0x1013, 0x1015, 0x1017, 0x1018)),  # jmp rax
        (0x1013, 0x1014, ()),  # hlt
        (0x1015, 0x1016, ()),  # ret
        (0x1017, 0x1017, (0x1018,)),  # nop, then one:
        (0x1018, 0x1018, ())]
    assert [d.message for d in lp.diagnostics] == [
        "indirect jump at 0x1011 has no reachable jump table; assuming all blocks"]
    assert sorted(classified) == [0x1004, 0x1011, 0x1014, 0x1016, 0x1017]


def test_call_falls_through_and_tail_jump_exits():
    src = """\
.section .text base=0x1000
.func a
    call b
.L_after:
    jmp b
.endfunc
.func b
    ret
.endfunc
"""
    elf, meta = assemble(parse_assembly(src))
    lp = lift(elfio.read_elf(elf), meta, mode="strict")
    cfg_a = lp.cfgs[0]
    assert cfg_a.blocks[0].successors == (cfg_a.blocks[1].start,)
    assert cfg_a.blocks[1].successors == ()  # tail jump leaves the function


# --- emission ---

def test_emit_deterministic(table_demo):
    _, meta, img = table_demo
    text1 = emit_assembly(lift(img, meta, mode="strict"))
    text2 = emit_assembly(lift(img, meta, mode="strict"))
    assert text1 == text2


def test_empty_program_emits_section_headers_only():
    elf = elfio.build_elf([
        elfio.NewSection(".text", 0x1000, b"",
                         sh_flags=elfio.SHF_ALLOC | elfio.SHF_EXECINSTR),
        elfio.NewSection(".data", 0x2000, b"",
                         sh_flags=elfio.SHF_ALLOC | elfio.SHF_WRITE),
    ])
    lp = lift(elfio.read_elf(elf), EllfMetadata(), mode="strict")
    assert emit_assembly(lp) == (".section .text base=0x1000\n"
                                 ".section .data base=0x2000\n")


def test_padding_bytes_emitted_explicitly():
    src = corpus_programs()["14_inline_bytes"]
    elf, meta = assemble(parse_assembly(src))
    lp = lift(elfio.read_elf(elf), meta, mode="strict")
    text = emit_assembly(lp)
    assert "    .byte 0x2a" in text


def test_a_lenient_lift_drops_a_block_record_in_padding():
    """The region stops short of the last ``ret``, so its block and function
    end records are no instruction starts and go; the jump into the padding
    then targets no block, and no block can be added where nothing was
    decoded."""
    src = (".section .text base=0x1000\n.func main\n    jmp inpad\n    ret\n"
           "inpad:\n    ret\n.endfunc\n")
    elf, meta = assemble(parse_assembly(src))
    img = elfio.read_elf(elf)
    block = TextRecord(0x1006, BASIC_BLOCK)
    assert block not in meta.text  # the jump implies it; a record there is accepted
    meta = meta._replace(instruction_regions=(InstructionRegion(0x1000, 2),),
                         text=tuple(sorted(meta.text + (block,))))
    with pytest.raises(LiftError) as info:
        lift(img, meta, mode="lenient")
    assert type(info.value) is LiftError
    assert str(info.value) == ("metadata fails validation: [error] cfg at 0x1000: "
                               "branch target 0x1006 is not a decoded instruction start")


def _reassembles_to_the_same_alloc_bytes(text, img):
    elf, _ = assemble(parse_assembly(text))
    return elfio.load_image(elfio.read_elf(elf)) == elfio.load_image(img)


@pytest.mark.parametrize("mode", ["strict", "lenient"])
@pytest.mark.parametrize("name, dropped", [
    ("01_single_ret", TextRecord(0x401000, FUNCTION_END)),
    ("01_single_ret", TextRecord(0x401000, FUNCTION_START)),
    ("05_two_functions", TextRecord(0x401009, FUNCTION_END)),
], ids=["function_end_dropped", "function_start_dropped", "first_function_end_dropped"])
def test_unpaired_function_records_lift_to_text_that_reassembles(name, dropped, mode):
    elf, meta = assemble(parse_assembly(corpus_programs()[name]))
    img = elfio.read_elf(elf)
    meta = meta._replace(text=tuple(rec for rec in meta.text if rec != dropped))
    text = emit_assembly(lift(img, meta, mode=mode))
    assert _reassembles_to_the_same_alloc_bytes(text, img)
    _, meta2 = assemble(parse_assembly(text))
    (changed,) = set(meta2.text) ^ set(meta.text)
    assert changed.kind == FUNCTION_END and meta2._replace(text=meta.text) == meta


def test_a_data_label_inside_a_zero_run_is_defined():
    src = (".section .text base=0x1000\n.func main\n    lea rcx, [mid]\n    ret\n.endfunc\n"
           ".section .bss base=0x3000\nfirst:\n    .zero 16\nmid:\n    .zero 16\n")
    elf, meta = assemble(parse_assembly(src))
    img = elfio.read_elf(elf)
    text = emit_assembly(lift(img, meta._replace(data=()), mode="strict"))
    assert "    lea rcx, [D_3010]\n" in text
    assert text.endswith(".section .bss base=0x3000\n    .zero 16\nD_3010:\n    .zero 16\n")
    assert _reassembles_to_the_same_alloc_bytes(text, img)


def test_a_reference_inside_a_pointer_cell_renders_as_the_cell_label_plus_offset():
    elf, meta = assemble(parse_assembly(hazard_program()))
    img = elfio.read_elf(elf)
    text = emit_assembly(lift(img, meta._replace(data=()), mode="strict"))
    assert "    .quad D_402010 + 4\nD_402010:\n    .quad F_401000\n" in text
    assert _reassembles_to_the_same_alloc_bytes(text, img)


def test_a_lenient_lift_drops_a_data_record_past_its_section_end():
    elf, meta = assemble(parse_assembly(corpus_programs()["12_data_pointers"]))
    img = elfio.read_elf(elf)
    data = tuple(DataRecord(0x40711C, 16) if rec == DataRecord(0x407118, 16) else rec
                 for rec in meta.data)
    lp = lift(img, meta._replace(data=data), mode="lenient")
    assert [d.message for d in lp.diagnostics] == [
        "data record at 0x40711c extends past the end of .data"]
    text = emit_assembly(lp)
    assert _reassembles_to_the_same_alloc_bytes(text, img)
    assert "    .quad D_407118\n    .quad D_407120\n" in text and "D_40711c" not in text


def test_a_lenient_lift_without_regions_drops_every_text_record():
    """Nothing is decoded, so no text record sits on an instruction start: a
    lenient lift reports and drops each, and the jump table's targets become
    block labels in the raw code bytes."""
    elf, meta = assemble(parse_assembly(corpus_programs()["07_dispatch8"]))
    img = elfio.read_elf(elf)
    meta = meta._replace(instruction_regions=())
    kept, _, _, _, diags = lift_unsymbolized(img, meta, "lenient")
    assert [d.record for d in diags if isinstance(d.record, TextRecord)] == list(meta.text)
    assert kept.text == ()
    text = emit_assembly(lift(img, meta, mode="lenient"))
    assert "    .quad .Lb5 - D_402200\n" in text and "\n.Lb5:\n" in text
    assert ".func" not in text
    assert _reassembles_to_the_same_alloc_bytes(text, img)


@pytest.mark.parametrize("reference", FAR_REFERENCES, ids=["call", "lea"])
def test_a_lenient_lift_refuses_a_target_outside_every_section_that_no_record_names(
        reference):
    """Nothing can be dropped for an unrecorded target, and no text could name
    it. The assembler refuses to write such a target, naming the line."""
    line, noun, (mnemonic, operands), problem = reference
    with pytest.raises(AsmSyntaxError) as refused:
        assemble(parse_assembly(FAR_TARGET.format(line)))
    assert str(refused.value) == f"line 3: {noun} 0x101000 is not inside any section"
    img, meta = far_target_image(mnemonic, operands)
    with pytest.raises(LiftError) as info:
        lift(img, meta, mode="lenient")
    assert type(info.value) is LiftError
    assert str(info.value) == (f"metadata fails validation: [error] range at 0x1000: "
                               f"{problem} 0x101000 is not inside any section")


# Tables whose loss makes a lift render symbols at an offset from their label.
SPARSER = ((), ("text", "data"), ("text", "data", "pointers"))


@pytest.mark.parametrize("name", sorted(set(PROGRAMS) - {"byte_heavy"}))
def test_parsing_the_emitted_text_gives_back_the_lifts_symbol_values(name):
    """The assembler parses the symbols of the emitted text into the values the
    lift holds, with no conversion between them. A lifted labelled ``MemRef``
    keeps its decoded ``disp`` and a parsed one has none, so the two compare
    with that field cleared. Full metadata lifts strictly (the hazard
    leniently); the sparser variants lift leniently."""
    elf, meta = assemble(parse_assembly(PROGRAMS[name]))
    for dropped in SPARSER:
        mode = "lenient" if dropped or name == "hazard_pointer_straddle" else "strict"
        lp = lift(elfio.read_elf(elf), meta._replace(**dict.fromkeys(dropped, ())), mode)
        _assert_parsed_symbols_are_lifted_ones(lp)


def _assert_parsed_symbols_are_lifted_ones(lp):
    sections = {sec.name: sec for sec in lp.sections}
    for parsed in parse_assembly(emit_assembly(lp)).sections:
        sec = sections[parsed.name]
        inside = range(sec.vaddr, sec.vaddr + sec.size)
        if sec.exec:
            lifted = [ins for addr, ins in lp.instructions.items() if addr in inside]
            items = [item for item in parsed.items if isinstance(item, Instr)]
            assert [item.mnemonic for item in items] == [ins.mnemonic for ins in lifted]
            for item, ins in zip(items, lifted):
                for op, lifted_op in zip(item.operands, ins.operands, strict=True):
                    if isinstance(lifted_op, SymbolRef):
                        assert op == lifted_op
                    elif isinstance(lifted_op, MemRef) and lifted_op.label is not None:
                        assert op == lifted_op._replace(disp=0)
        else:
            cells = [cell for item in parsed.items
                     if isinstance(item, Data) and item.directive == "quad"
                     for cell in item.payload]
            parts = [part for var in lp.variables if var.address in inside
                     for part in var.payload if isinstance(part, (SymbolRef, SymbolDiff))]
            assert cells == parts


def _one_section_elf(name, flags):
    elf = elfio.build_elf([elfio.NewSection(name, 0x1000, b"\x90\xc3", sh_flags=flags)])
    meta = EllfMetadata(instruction_regions=(InstructionRegion(0x1000, 2),),
                        text=(TextRecord(0x1000, FUNCTION_START),
                              TextRecord(0x1001, FUNCTION_END)))
    return elfio.read_elf(elf), meta


def test_a_code_section_whose_name_reads_as_data_is_a_fault():
    """The problem names no record, so a lenient lift has nothing to drop
    and refuses too: the assembler refuses instructions in a section that
    it reads as data."""
    img, meta = _one_section_elf(".init", elfio.SHF_ALLOC | elfio.SHF_EXECINSTR)
    for mode in ("strict", "lenient"):
        with pytest.raises(LiftError) as info:
            lift(img, meta, mode=mode)
        assert type(info.value) is LiftError
        assert str(info.value) == ("metadata fails validation: [error] section at 0x1000: "
                                   "section .init is code but the assembly dialect reads "
                                   "its name as data")


def test_a_section_whose_write_flag_alone_differs_from_its_name_lifts():
    # Read-only .eh_frame reads as writable data; the reassembled bytes are the same.
    elf = elfio.build_elf([elfio.NewSection(".eh_frame", 0x2000, b"\x14\x00\x00\x00",
                                            sh_flags=elfio.SHF_ALLOC)])
    img = elfio.read_elf(elf)
    lp = lift(img, EllfMetadata(), mode="strict")
    assert lp.diagnostics == ()
    assert _reassembles_to_the_same_alloc_bytes(emit_assembly(lp), img)


def test_coverage_partition_over_corpus():
    """Every alloc byte is exactly one of: instruction, padding, variable."""
    for name, src in corpus_programs().items():
        elf, meta = assemble(parse_assembly(src))
        img = elfio.read_elf(elf)
        lp = lift(img, meta, mode="strict")
        claimed: dict[int, str] = {}

        def claim(addr, what):
            assert addr not in claimed, (name, hex(addr), what, claimed[addr])
            claimed[addr] = what

        for addr, ins in lp.instructions.items():
            for a in range(addr, addr + ins.length):
                claim(a, "instruction")
        for addr, blob in lp.padding:
            for a in range(addr, addr + len(blob)):
                claim(a, "padding")
        for var in lp.variables:
            for a in range(var.address, var.address + var.size):
                claim(a, "variable")
        expected = set()
        for sec in img.sections:
            if sec.alloc:
                expected.update(range(sec.vaddr, sec.vaddr + sec.size))
        assert set(claimed) == expected, name


def test_padding_after_an_instruction_that_runs_across_a_section_boundary():
    exec_flags = elfio.SHF_ALLOC | elfio.SHF_EXECINSTR
    elf = elfio.build_elf([  # push rbp; mov rbp, rsp (split); ret; then padding
        elfio.NewSection(".text", 0x1000, b"\x55\x48", sh_flags=exec_flags),
        elfio.NewSection(".text2", 0x1002, b"\x89\xe5\xc3\xcc\xcc",
                         sh_flags=exec_flags),
    ])
    meta = EllfMetadata(instruction_regions=(InstructionRegion(0x1000, 3),))
    lp = lift(elfio.read_elf(elf), meta, mode="lenient")
    assert [ins.mnemonic for ins in lp.instructions.values()] == ["push", "mov", "ret"]
    assert lp.padding == ((0x1005, b"\xcc\xcc"),)


def reference_byte_lines(data, per_line=8):
    """The renderer before it formatted a line with ``bytes.hex``."""
    for i in range(0, len(data), per_line):
        chunk = data[i:i + per_line]
        yield "    .byte " + ", ".join(f"0x{b:02x}" for b in chunk)


@given(st.binary(max_size=300))
def test_byte_lines_render_as_the_reference_does(data):
    """Up to 37 full lines and a last line of every length; no line for no
    bytes. The renderer is handed a view where a label cuts a run."""
    expected = "\n".join(reference_byte_lines(data))
    assert _byte_text(data) == _byte_text(memoryview(data)) == expected


def test_every_single_byte_renders_as_the_reference_does():
    for value in range(256):
        data = bytes([value])
        assert _byte_text(data) == "\n".join(reference_byte_lines(data))

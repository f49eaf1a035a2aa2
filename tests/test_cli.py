"""The `ellf` command line, driven through ``cli.main`` on real files."""

import json
import random
import struct

import pytest

from ellf import cli, elfio
from ellf.asm import assemble, assemble_image, parse_assembly
from ellf.corpus import corpus_programs, hazard_program
from ellf.meta import EllfMetadata, decode_metadata, encode_metadata, metadata_to_json

from conftest import FAR_REFERENCES, FAR_TARGET, far_target_image
from test_lifter import _one_section_elf
from test_validate import overlapping_sections_elf


def run(capsys, *argv):
    code = cli.main([str(arg) for arg in argv])
    out, err = capsys.readouterr()
    assert code in (cli.EXIT_OK, cli.EXIT_DOMAIN, cli.EXIT_IO)
    assert "Traceback" not in err
    return code, out, err


@pytest.fixture
def assembled(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text(corpus_programs()["06_dispatch3"])
    elf = tmp_path / "prog.elf"
    code, out, _ = run(capsys, "asm", source, "-o", elf)
    assert code == cli.EXIT_OK and "metadata bytes" in out
    return elf


def test_asm_lift_roundtrip(tmp_path, capsys, assembled):
    lifted = tmp_path / "lifted.s"
    code, out, _ = run(capsys, "lift", assembled, "--strict", "-o", lifted)
    assert code == cli.EXIT_OK and out.startswith("lifted ")
    code, out, _ = run(capsys, "roundtrip", lifted)
    assert code == cli.EXIT_OK
    assert out.splitlines() == ["byte identity:      PASS",
                                "metadata fixpoint:  PASS",
                                "text fixpoint:      PASS"]


def test_inject_writes_the_elf_that_assemble_builds(tmp_path, capsys):
    prog = parse_assembly(corpus_programs()["06_dispatch3"])
    plain, meta = assemble_image(prog)
    (tmp_path / "plain.elf").write_bytes(plain)
    (tmp_path / "meta.json").write_text(json.dumps(metadata_to_json(meta)))
    code, out, _ = run(capsys, "inject", tmp_path / "plain.elf", "--meta",
                       tmp_path / "meta.json", "-o", tmp_path / "out.elf")
    assert code == cli.EXIT_OK and out.startswith("injected .ellf: ")
    assert (tmp_path / "out.elf").read_bytes() == assemble(prog)[0]


def test_extract_json_prints_the_metadata_document(capsys, assembled):
    code, out, _ = run(capsys, "extract", assembled, "--json")
    assert code == cli.EXIT_OK
    ellf = elfio.extract_section(elfio.read_elf(assembled.read_bytes()), ".ellf")
    assert json.loads(out) == metadata_to_json(decode_metadata(ellf))


def test_base_options_place_sections_that_declare_no_base(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text(".section .text\n.func f\n    ret\n.endfunc\n.section .data\n"
                      "    .byte 1\n")
    code, _, _ = run(capsys, "asm", source, "--base-text", "0x5000", "--base-data=0x7000",
                     "-o", tmp_path / "prog.elf")
    assert code == cli.EXIT_OK
    image = elfio.load_image(elfio.read_elf((tmp_path / "prog.elf").read_bytes()))
    assert (image.read(0x5000, 0x5001), image.read(0x7000, 0x7001)) == (b"\xc3", b"\x01")


def test_missing_input_is_an_io_failure(tmp_path, capsys):
    code, _, err = run(capsys, "lift", tmp_path / "absent.elf", "-o", tmp_path / "x.s")
    assert code == cli.EXIT_IO and err.startswith("error: cannot read")


@pytest.mark.parametrize("command", ["asm", "lift", "inject"])
def test_an_output_in_a_missing_directory_is_an_io_failure(tmp_path, capsys, command):
    source = corpus_programs()["06_dispatch3"]
    plain, meta = assemble_image(parse_assembly(source))
    (tmp_path / "prog.s").write_text(source)
    (tmp_path / "prog.elf").write_bytes(assemble(parse_assembly(source))[0])
    (tmp_path / "plain.elf").write_bytes(plain)
    (tmp_path / "meta.json").write_text(json.dumps(metadata_to_json(meta)))
    inputs = {"asm": ["prog.s"], "lift": ["prog.elf"],
              "inject": ["plain.elf", "--meta", tmp_path / "meta.json"]}[command]
    output = tmp_path / "missing" / "out"
    code, _, err = run(capsys, command, tmp_path / inputs[0], *inputs[1:], "-o", output)
    assert code == cli.EXIT_IO
    assert err == f"error: cannot write {output}: No such file or directory\n"
    assert not output.parent.exists()


def test_truncated_elf_fails_cleanly(tmp_path, capsys, assembled):
    data = assembled.read_bytes()
    broken = tmp_path / "broken.elf"
    for length in sorted({0, 3, 16, 63, 64, len(data) // 2, len(data) - 1}):
        broken.write_bytes(data[:length])
        code, _, err = run(capsys, "lift", broken, "--strict", "-o", tmp_path / "x.s")
        assert code == cli.EXIT_DOMAIN and err.startswith("error: "), length


def test_corrupted_ellf_fails_cleanly(tmp_path, capsys, assembled):
    data = assembled.read_bytes()
    ellf = next(sec for sec in elfio.read_elf(data).sections if sec.name == ".ellf")
    broken = tmp_path / "broken.elf"
    lifted = tmp_path / "x.s"
    rng = random.Random(0xC11)
    codes = set()
    for _ in range(150):
        blob = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            blob[ellf.file_offset + rng.randrange(ellf.size)] = rng.randrange(256)
        broken.write_bytes(bytes(blob))
        for argv in (("lift", broken, "-o", lifted), ("lift", broken, "--strict",
                                                       "-o", lifted),
                     ("extract", broken), ("stats", broken)):
            codes.add(run(capsys, *argv)[0])
    assert cli.EXIT_DOMAIN in codes


@pytest.mark.parametrize("command", ["asm", "roundtrip"])
def test_source_that_is_not_utf8_fails_cleanly(tmp_path, capsys, command):
    source = tmp_path / "prog.s"
    source.write_bytes(b".section .text base=0x1000\n.func f\n    ret \xff\n.endfunc\n")
    argv = [command, source] + (["-o", tmp_path / "prog.elf"] if command == "asm" else [])
    code, _, err = run(capsys, *argv)
    assert code == cli.EXIT_DOMAIN
    assert err.startswith("error: AsmSyntaxError: line 3: ") and "not UTF-8" in err


@pytest.mark.parametrize("option", ["--base-text", "--base-data"])
@pytest.mark.parametrize("value", ["-1", "-0x1000", hex(1 << 64)])
def test_base_outside_the_address_space_is_a_usage_error(tmp_path, capsys, option, value):
    source = tmp_path / "prog.s"
    source.write_text(".section .text\n.func f\n    ret\n.endfunc\n.section .data\n"
                      "    .byte 1\n")
    with pytest.raises(SystemExit) as info:
        cli.main(["asm", str(source), f"{option}={value}", "-o", str(tmp_path / "x.elf")])
    assert info.value.code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert f"argument {option}: {value} is outside the 64-bit address space" in err
    assert not (tmp_path / "x.elf").exists()


def _meta_document():
    return {"version": 3,
            "instruction_regions": [{"start": "0x1000", "count": 2}],
            "pointers": [{"kind": "data", "addr": "0x2000"}],
            "text": [{"addr": "0x1000", "kind": "function_start"}],
            "stack": [{"function_entry": "0x1000", "offsets": [8]}],
            "data": [{"addr": "0x2000", "size": 8}]}


def _edit(path, value=None):
    """A mutation that sets the field at ``path``, or deletes it if ``value`` is None."""
    def mutate(doc):
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if value is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return doc
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (_edit(("instruction_regions", 0, "count")), "instruction_regions[0].count is missing"),
    (_edit(("instruction_regions", 0, "count"), "x"),
     "instruction_regions[0].count must be an integer, got 'x'"),
    (_edit(("instruction_regions", 0, "count"), 2.9),
     "instruction_regions[0].count must be an integer, got 2.9"),
    (_edit(("version",), "one"), "version must be an integer, got 'one'"),
    (_edit(("data", 0, "addr"), "0xzz"), "data[0].addr must be a hex string, got '0xzz'"),
    (_edit(("pointers", 0, "kind"), ["data"]),
     "pointers[0].kind: unknown pointer kind ['data']"),
    (_edit(("text",), 5), "text must be a list, got int"),
    (_edit(("text", 0), "0x1000"), "text[0] must be an object, got str"),
    (_edit(("stack", 0, "offsets"), 8), "stack[0].offsets must be a list, got int"),
    (_edit(("stack", 0, "offsets"), ["8"]), "stack[0].offsets[0] must be an integer, got '8'"),
    (lambda doc: [doc], "metadata JSON must be an object, got list"),
])
def test_malformed_metadata_json_fails_cleanly(tmp_path, capsys, assembled, mutate,
                                               message):
    meta = tmp_path / "meta.json"
    meta.write_text(json.dumps(mutate(_meta_document())))
    code, _, err = run(capsys, "inject", assembled, "--meta", meta,
                       "-o", tmp_path / "out.elf")
    assert code == cli.EXIT_DOMAIN
    assert err == f"error: InvariantViolation: {message}\n"
    assert not (tmp_path / "out.elf").exists()


def test_inject_refuses_a_misspelled_table(tmp_path, capsys):
    plain, meta = assemble_image(parse_assembly(corpus_programs()["13_function_pointer"]))
    doc = metadata_to_json(meta)
    assert doc["pointers"]
    doc["pointer"] = doc.pop("pointers")
    (tmp_path / "plain.elf").write_bytes(plain)
    (tmp_path / "meta.json").write_text(json.dumps(doc))
    code, _, err = run(capsys, "inject", tmp_path / "plain.elf", "--meta",
                       tmp_path / "meta.json", "-o", tmp_path / "out.elf")
    assert code == cli.EXIT_DOMAIN == 1
    assert err == "error: InvariantViolation: metadata JSON has unknown field 'pointer'\n"
    assert not (tmp_path / "out.elf").exists()


def test_inject_refuses_an_image_whose_sections_overlap(tmp_path, capsys):
    (tmp_path / "plain.elf").write_bytes(overlapping_sections_elf())
    (tmp_path / "meta.json").write_text(json.dumps(metadata_to_json(EllfMetadata())))
    code, _, err = run(capsys, "inject", tmp_path / "plain.elf", "--meta",
                       tmp_path / "meta.json", "-o", tmp_path / "out.elf")
    assert code == cli.EXIT_DOMAIN
    assert err == "error: OverlapError: sections .text and .data overlap at 0x1008\n"
    assert not (tmp_path / "out.elf").exists()


@pytest.mark.parametrize("reference", FAR_REFERENCES, ids=["call", "lea"])
def test_lift_refuses_a_target_outside_every_section_that_no_record_names(
        tmp_path, capsys, reference):
    line, noun, (mnemonic, operands), problem = reference
    (tmp_path / "far.s").write_text(FAR_TARGET.format(line))
    code, _, err = run(capsys, "asm", tmp_path / "far.s", "-o", tmp_path / "far.elf")
    assert code == cli.EXIT_DOMAIN
    assert err == f"error: AsmSyntaxError: line 3: {noun} 0x101000 is not inside any section\n"
    img, meta = far_target_image(mnemonic, operands)
    (tmp_path / "far.elf").write_bytes(
        elfio.inject_section(img, ".ellf", encode_metadata(meta)))
    code, _, err = run(capsys, "lift", tmp_path / "far.elf", "-o", tmp_path / "lifted.s")
    assert code == cli.EXIT_DOMAIN == 1
    assert err == (f"error: LiftError: metadata fails validation: [error] range at "
                   f"0x1000: {problem} 0x101000 is not inside any section\n")
    assert not (tmp_path / "lifted.s").exists()


def test_lift_refuses_a_code_section_whose_name_reads_as_data(tmp_path, capsys):
    """Without ``--strict`` too: the emitted text would hold instructions in
    a section that the assembler reads as data."""
    img, meta = _one_section_elf(".data", elfio.SHF_ALLOC | elfio.SHF_EXECINSTR)
    (tmp_path / "code.elf").write_bytes(
        elfio.inject_section(img, ".ellf", encode_metadata(meta)))
    code, _, err = run(capsys, "lift", tmp_path / "code.elf", "-o", tmp_path / "lifted.s")
    assert code == cli.EXIT_DOMAIN == 1
    assert err == ("error: LiftError: metadata fails validation: [error] section at "
                   "0x1000: section .data is code but the assembly dialect reads its "
                   "name as data\n")
    assert not (tmp_path / "lifted.s").exists()


def test_metadata_json_that_is_not_utf8_fails_cleanly(tmp_path, capsys, assembled):
    meta = tmp_path / "meta.json"
    meta.write_bytes(b'{"version": 1, "text": "\xff"}')
    code, _, err = run(capsys, "inject", assembled, "--meta", meta,
                       "-o", tmp_path / "out.elf")
    assert code == cli.EXIT_DOMAIN
    assert err.startswith(f"error: {meta} is not valid JSON: ")
    assert not (tmp_path / "out.elf").exists()


HUGE = "0x" + "7" * 4000  # an int Python will not write in decimal (over 4300 digits)
TEXT = ".section .text base=0x1000\n.func f\n    {}\n    ret\n.endfunc\n"
DATA = ".section .data base=0x2000\n    {}\n"
BIG = "18446744073709551616"  # 2**64
SYNTAX = "AsmSyntaxError: "


@pytest.mark.parametrize("source, error", [
    pytest.param(DATA.format(".byte " + HUGE), f"{SYNTAX}line 2: byte value {HUGE} out of range",
                 id="byte"),
    pytest.param(DATA.format(".byte -" + HUGE), f"{SYNTAX}line 2: byte value -{HUGE} out of range",
                 id="byte-negative"),
    pytest.param(DATA.format(".long " + HUGE), f"{SYNTAX}line 2: long value {HUGE} out of range",
                 id="long"),
    pytest.param(DATA.format(".quad " + HUGE), f"{SYNTAX}line 2: quad value {HUGE} out of range",
                 id="quad"),
    pytest.param(DATA.format(".zero " + HUGE),
                 f"{SYNTAX}line 2: .zero size {HUGE} does not fit in 64 bits", id="zero"),
    pytest.param(DATA.format(".zero -" + HUGE),
                 f"{SYNTAX}line 2: .zero needs a positive size, got -{HUGE}", id="zero-negative"),
    pytest.param(TEXT.format("mov rax, " + HUGE),
                 f"{SYNTAX}line 3: mov immediate {HUGE} does not fit 64 bits", id="mov-64"),
    pytest.param(TEXT.format("mov eax, " + HUGE),
                 f"{SYNTAX}line 3: mov immediate {HUGE} does not fit 32 bits", id="mov-32"),
    pytest.param(TEXT.format("add rax, " + HUGE),
                 f"{SYNTAX}line 3: add immediate {HUGE} does not fit 32 bits", id="add"),
    pytest.param(TEXT.format("test rax, " + HUGE),
                 f"{SYNTAX}line 3: test immediate {HUGE} does not fit 32 bits", id="test"),
    pytest.param(TEXT.format("push " + HUGE), f"{SYNTAX}line 3: bad operand for push: Immediate",
                 id="push"),
    pytest.param(TEXT.format("jmp " + HUGE), f"{SYNTAX}line 3: bad operand for jmp: Immediate",
                 id="jmp"),
    pytest.param(TEXT.format("call " + HUGE), f"{SYNTAX}line 3: bad operand for call: Immediate",
                 id="call"),
    pytest.param(TEXT.format("movsxd rax, " + HUGE),
                 f"{SYNTAX}line 3: bad movsxd source Immediate", id="movsxd"),
    pytest.param(TEXT.format(f"mov rax, [rbx + {HUGE}]"),
                 f"{SYNTAX}line 3: displacement {HUGE} does not fit in 32 bits", id="displacement"),
    pytest.param(TEXT.format(f"mov rax, [{HUGE}]"),
                 f"{SYNTAX}line 3: displacement {HUGE} does not fit in 32 bits", id="absolute"),
    pytest.param(TEXT.format(f"mov rax, [rbx + rcx*{HUGE}]"),
                 f"{SYNTAX}line 3: invalid scale {HUGE}", id="scale"),
    pytest.param(TEXT.format(f".slot f, s, -{HUGE}"),
                 f"{SYNTAX}line 3: slot offset must be positive: -{HUGE}", id="slot-negative"),
    pytest.param(TEXT.format(f".slot f, s, {HUGE}"),
                 f"InvariantViolation: stack offset {HUGE} of 0x1000 does not fit in 64 bits",
                 id="slot"),
    # Values Python can write keep their decimal messages.
    pytest.param(DATA.format(".byte " + "9" * 4300),
                 f"{SYNTAX}line 2: byte value {'9' * 4300} out of range", id="byte-4300-digits"),
    pytest.param(DATA.format(".quad 0x10000000000000000"),
                 f"{SYNTAX}line 2: quad value {BIG} out of range", id="quad-2**64"),
    pytest.param(DATA.format(".quad -0x8000000000000001"),
                 f"{SYNTAX}line 2: quad value -9223372036854775809 out of range", id="quad-below"),
    pytest.param(DATA.format(".zero 0x10000000000000000"),
                 f"{SYNTAX}line 2: .zero size {BIG} does not fit in 64 bits", id="zero-2**64"),
    pytest.param(TEXT.format("mov rax, 0x10000000000000000"),
                 f"{SYNTAX}line 3: mov immediate {BIG} does not fit 64 bits", id="mov-2**64"),
])
def test_an_integer_literal_of_any_size_fails_cleanly(tmp_path, capsys, source, error):
    path = tmp_path / "prog.s"
    path.write_text(source)
    code, _, err = run(capsys, "asm", path, "-o", tmp_path / "prog.elf")
    assert code == cli.EXIT_DOMAIN
    assert err == f"error: {error}\n"
    assert not (tmp_path / "prog.elf").exists()


def test_quad_values_at_the_ends_of_the_range_assemble(tmp_path, capsys):
    path = tmp_path / "prog.s"
    path.write_text(DATA.format(".quad -0x8000000000000000, 0xffffffffffffffff"))
    code, _, _ = run(capsys, "asm", path, "-o", tmp_path / "prog.elf")
    assert code == cli.EXIT_OK
    image = elfio.load_image(elfio.read_elf((tmp_path / "prog.elf").read_bytes()))
    assert image.read(0x2000, 0x2010) == bytes(7) + b"\x80" + b"\xff" * 8


BSS = ".section .bss base=0x2000\n    {}\n"


@pytest.mark.parametrize("source, error", [
    pytest.param(DATA.format(".zero 0x8000000000000000"),
                 f"{SYNTAX}line 2: .zero size 0x8000000000000000 is too large to hold in memory",
                 id="progbits-zero"),
    pytest.param(BSS.format(".zero 0xfffffffffffff000"),
                 f"{SYNTAX}line 2: section .bss runs past the end of the 64-bit address space",
                 id="nobits-zero"),
    pytest.param(".section .data base=0xfffffffffffffff0\n    .quad 1, 2, 3\n",
                 f"{SYNTAX}line 2: section .data runs past the end of the 64-bit address space",
                 id="quad"),
])
def test_a_section_that_cannot_be_built_fails_cleanly(tmp_path, capsys, source, error):
    path = tmp_path / "prog.s"
    path.write_text(source)
    code, _, err = run(capsys, "asm", path, "-o", tmp_path / "prog.elf")
    assert code == cli.EXIT_DOMAIN
    assert err == f"error: {error}\n"
    assert not (tmp_path / "prog.elf").exists()


def test_a_section_may_end_at_the_top_of_the_address_space(tmp_path, capsys):
    path = tmp_path / "prog.s"
    path.write_text(BSS.format(".zero 0xffffffffffffe000"))
    code, _, _ = run(capsys, "asm", path, "-o", tmp_path / "prog.elf")
    assert code == cli.EXIT_OK


# --- every assembler error, through the command line ---

FUNC = ".section .text base=0x1000\n.func f\n    {}\n    ret\n.endfunc\n"
FAR = ".section .text2 base=0x100001000\n.func g\n    ret\n.endfunc\n"


@pytest.mark.parametrize("source, error", [
    pytest.param(".section .text base=0x1000\n.func f\n    ret\n.endfunc\nf:\n",
                 "DuplicateLabel: line 5: label 'f' already defined", id="duplicate-label"),
    pytest.param(".section .text base 0x1000\n",
                 f"{SYNTAX}line 1: malformed .section line: '.section .text base 0x1000'",
                 id="malformed-section"),
    pytest.param(".section .text base=0x1000\n.func f\n.func g\n",
                 f"{SYNTAX}line 3: nested .func", id="nested-func"),
    pytest.param(".section .text base=0x1000\n.func f\n    ret\n.endfunc f\n",
                 f"{SYNTAX}line 4: .endfunc takes no arguments", id="endfunc-argument"),
    pytest.param(".section .text base=0x1000\n    ret\n.endfunc\n",
                 f"{SYNTAX}line 3: .endfunc without .func", id="endfunc-without-func"),
    pytest.param(".section .text base=0x1000\n.func f\n    ret\n",
                 f"{SYNTAX}line 2: .func without closing .endfunc", id="unclosed-func"),
    pytest.param(FUNC.format(".slot f, s8"), f"{SYNTAX}line 3: .slot takes FUNC, NAME, OFFSET",
                 id="slot-arity"),
    pytest.param(FUNC.format(".set x"), f"{SYNTAX}line 3: .set takes NAME, LABEL[+N]",
                 id="set-arity"),
    pytest.param(DATA.format(".word 1"), "UnknownDirective: line 2: unknown directive '.word'",
                 id="unknown-directive"),
    pytest.param(FUNC.format("mov rax, 1x"),
                 f"{SYNTAX}line 3: expected LABEL or LABEL+N, got '1x'", id="label-expression"),
    pytest.param(DATA.format(".asciz abc"),
                 f"{SYNTAX}line 2: .asciz needs a quoted string, got 'abc'", id="asciz-unquoted"),
    pytest.param(DATA.format(".quad x - 3"),
                 f"{SYNTAX}line 2: malformed .quad expression 'x - 3'", id="quad-expression"),
    pytest.param(FUNC.format("mov rax, [rbx"),
                 f"{SYNTAX}line 3: unterminated memory operand '[rbx'", id="unterminated-memory"),
    pytest.param(FUNC.format("mov rax, [a + b]"),
                 f"{SYNTAX}line 3: memory operand has several labels: 'a + b'",
                 id="several-labels"),
    pytest.param(FUNC.format("mov rax, [-f]"),
                 f"{SYNTAX}line 3: label reference cannot be negated", id="negated-label"),
    pytest.param(FUNC.format("mov rax, [rbx + rip*2]"),
                 f"{SYNTAX}line 3: bad index register 'rip'", id="bad-index-register"),
    pytest.param(FUNC.format("mov rax, [rbx - rcx*2]"),
                 f"{SYNTAX}line 3: index term cannot be negated", id="negated-index"),
    pytest.param(FUNC.format("mov rax, [rcx*2 + rdx*4]"),
                 f"{SYNTAX}line 3: two index terms in one operand", id="two-index-terms"),
    pytest.param(FUNC.format("mov rax, [rbx - rcx]"),
                 f"{SYNTAX}line 3: register term cannot be negated", id="negated-register"),
    pytest.param(FUNC.format("mov rax, [rax + rbx + rcx]"),
                 f"{SYNTAX}line 3: too many registers in memory operand", id="three-registers"),
    pytest.param(".section .rodata\n    .byte 1\n",
                 f"{SYNTAX}section .rodata has no base address", id="no-base"),
    pytest.param(".section .text base=0x1000\n.func f\n.slot f, s, 8\n.slot f, s, 16\n"
                 "    ret\n.endfunc\n",
                 f"{SYNTAX}line 4: slot 's' redefined with a different offset",
                 id="slot-redefined"),
    pytest.param(".section .text base=0x1000\n.func f\n.endfunc\n",
                 f"{SYNTAX}line 3: function f has no instructions", id="empty-function"),
    pytest.param(FUNC.format("ret") + ".set x, nowhere\n",
                 "UndefinedLabel: line 6: label 'nowhere' is not defined", id="set-undefined"),
    pytest.param(FUNC.format("ret") + ".section .data base=0x1000\n    .byte 1\n",
                 "SectionOverlap: sections .text and .data overlap", id="section-overlap"),
    pytest.param(FUNC.format(".slot g, s, 8"),
                 "UndefinedLabel: line 3: slot defined for unknown function 'g'",
                 id="slot-of-unknown-function"),
    pytest.param(FUNC.format("lea rax, [g]") + FAR,
                 "RangeOverflow: line 3: RIP-relative target 0x100001000 out of range",
                 id="rip-out-of-range"),
    pytest.param(FUNC.format("jmp nowhere"),
                 "UndefinedLabel: line 3: label 'nowhere' is not defined", id="undefined-label"),
    pytest.param(FUNC.format("jmp inpad\ninpad:\n    .byte 0xc3"),
                 f"{SYNTAX}line 3: jump target 0x1005 is not a function entry or a label on "
                 f"an instruction", id="jump-into-bytes"),
    pytest.param(FUNC.format("je done") + "done:\n",
                 f"{SYNTAX}line 3: jump target 0x1007 is not inside any section",
                 id="jump-to-the-end-of-text"),
])
def test_each_assembler_error_fails_cleanly(tmp_path, capsys, source, error):
    path = tmp_path / "prog.s"
    path.write_text(source)
    code, _, err = run(capsys, "asm", path, "-o", tmp_path / "prog.elf")
    assert code == cli.EXIT_DOMAIN
    assert err == f"error: {error}\n"
    assert not (tmp_path / "prog.elf").exists()


def test_roundtrip_reports_a_lift_that_fails(tmp_path, capsys):
    # A data object starts inside the cell at P3, which a strict lift refuses.
    path = tmp_path / "prog.s"
    path.write_text(hazard_program())
    code, out, _ = run(capsys, "roundtrip", path)
    assert code == cli.EXIT_DOMAIN
    assert out.splitlines() == [
        "byte identity:      FAIL", "metadata fixpoint:  FAIL", "text fixpoint:      FAIL",
        "error: PointerStraddle: metadata fails validation: [error] straddle at 0x402010: "
        "pointer payload at 0x402010 crosses the data object boundary at 0x402014"]


def test_roundtrip_reports_a_source_that_does_not_assemble(tmp_path, capsys):
    # The cell points one past the end of its section, which no section holds.
    path = tmp_path / "prog.s"
    path.write_text(FUNC.format("lea rax, [buf]")
                    + ".section .data base=0x2000\nbuf:\n    .quad buf + 8\n")
    code, out, _ = run(capsys, "roundtrip", path)
    assert code == cli.EXIT_DOMAIN
    assert out.splitlines() == [
        "byte identity:      FAIL", "metadata fixpoint:  FAIL", "text fixpoint:      FAIL",
        "error: AsmSyntaxError: line 8: pointer target 0x2008 is not inside any section"]


def _ellf_header_offset(elf):
    """File offset of the ``.ellf`` entry in ``elf``'s section header table."""
    img = elfio.read_elf(elf)
    shoff, = struct.unpack_from("<Q", elf, 0x28)
    index = [sec.name for sec in img.sections].index(".ellf") + 1  # after the null entry
    return shoff + 64 * index


@pytest.mark.parametrize("argv", [["extract"], ["extract", "--json"], ["stats"], ["lift"],
                                  ["lift", "--strict"]])
def test_an_ellf_section_of_type_nobits_fails_cleanly(tmp_path, capsys, assembled, argv):
    elf = bytearray(assembled.read_bytes())
    struct.pack_into("<I", elf, _ellf_header_offset(elf) + 4, elfio.SHT_NOBITS)
    broken, lifted = tmp_path / "nobits.elf", tmp_path / "lifted.s"
    broken.write_bytes(bytes(elf))
    output = ["-o", lifted] if argv[0] == "lift" else []
    code, _, err = run(capsys, argv[0], broken, *argv[1:], *output)
    assert code == cli.EXIT_DOMAIN and err.startswith("error: ")
    assert not lifted.exists()


def _damaged_elfs(rng, elfs, count):
    """``count`` copies of the ELFs with bytes of the ELF header, the section
    header table or the ``.ellf`` payload overwritten, or the file cut short."""
    for _ in range(count):
        elf = bytearray(rng.choice(elfs))
        shoff, = struct.unpack_from("<Q", elf, 0x28)
        ellf = next(sec for sec in elfio.read_elf(elf).sections if sec.name == ".ellf")
        kind = rng.randrange(4)
        if kind == 3:
            yield bytes(elf[:rng.randrange(len(elf))])
            continue
        start, end = ((0, 64), (shoff, len(elf)),
                      (ellf.file_offset, ellf.file_offset + ellf.size))[kind]
        for _ in range(rng.randint(1, 4)):
            elf[rng.randrange(start, end)] = rng.randrange(256)
        yield bytes(elf)


def test_damaged_elfs_never_raise_past_the_command_line(tmp_path, capsys):
    sources = corpus_programs()
    elfs = [assemble(parse_assembly(sources[name]))[0]
            for name in ("06_dispatch3", "10_frame_slots", "12_data_pointers", "21_mixed_sections")]
    path, lifted = tmp_path / "damaged.elf", tmp_path / "lifted.s"
    codes = set()
    for elf in _damaged_elfs(random.Random(0xE1F), elfs, 200):
        path.write_bytes(elf)
        for argv in (("extract", path), ("stats", path), ("lift", path, "-o", lifted),
                     ("lift", path, "--strict", "-o", lifted)):
            codes.add(run(capsys, *argv)[0])  # run() checks the code; a raise fails here
    assert codes == {cli.EXIT_OK, cli.EXIT_DOMAIN}

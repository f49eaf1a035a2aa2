"""ELF parsing, image building, and execution-image-preserving injection."""

import hashlib
import random
import struct

import pytest

from ellf import elfio
from ellf.asm import assemble_image, parse_assembly
from ellf.corpus import corpus_programs
from ellf.errors import (
    DuplicateSection,
    EllfError,
    MalformedHeader,
    NotElf,
    OverlapError,
    SectionNotFound,
    UnsupportedClass,
    UnsupportedEndianness,
)

from test_image_view import reference_image, view_entries


def test_read_back_assembler_output(table_demo):
    elf, _, img = table_demo
    code = elfio.extract_section(img, ".text")
    raw, _ = assemble_image(parse_assembly(open_text_demo()))
    raw_img = elfio.read_elf(raw)
    assert elfio.extract_section(raw_img, ".text") == code
    assert code[0] == 0x55


def open_text_demo():
    from conftest import TABLE_DEMO
    return TABLE_DEMO


def test_not_elf():
    with pytest.raises(NotElf):
        elfio.read_elf(b"\x7fEL")
    with pytest.raises(NotElf):
        elfio.read_elf(b"MZ\x90\x00" + b"\x00" * 60)


def test_unsupported_class_and_endianness():
    ehdr = bytearray(elfio.build_elf([]))
    ehdr[4] = 1  # 32-bit
    with pytest.raises(UnsupportedClass):
        elfio.read_elf(bytes(ehdr))
    ehdr = bytearray(elfio.build_elf([]))
    ehdr[5] = 2  # big-endian
    with pytest.raises(UnsupportedEndianness):
        elfio.read_elf(bytes(ehdr))


def test_load_image_demo_bytes(table_demo):
    _, _, img = table_demo
    image = elfio.load_image(img)
    ref = reference_image(img)
    assert image.read(0x4000, 0x4001) == b"\x55" == bytes([ref[0x4000]])
    total = sum(sec.size for sec in img.sections if sec.alloc)
    assert view_entries(image, min(ref), max(ref) + 1) == ref and len(ref) == total


def test_load_image_nobits_zero_fill():
    elf = elfio.build_elf([
        elfio.NewSection(".text", 0x1000, b"\xc3",
                         sh_flags=elfio.SHF_ALLOC | elfio.SHF_EXECINSTR),
        elfio.NewSection(".bss", 0x2000, b"", sh_type=elfio.SHT_NOBITS,
                         sh_flags=elfio.SHF_ALLOC | elfio.SHF_WRITE, size=64),
    ])
    img = elfio.read_elf(elf)
    image = elfio.load_image(img)
    assert image.read(0x2000, 0x2040) == bytes(64)
    ref = reference_image(img)
    assert view_entries(image, 0x1000, 0x2040) == ref and len(ref) == 65


def test_load_image_empty():
    img = elfio.ElfImage(entry_point=0, sections=())
    assert view_entries(elfio.load_image(img), 0, 1) == reference_image(img) == {}


def test_load_image_overlap():
    img = elfio.ElfImage(entry_point=0, sections=(
        elfio.Section(".a", 0x1000, 0, 8, elfio.SHT_PROGBITS, elfio.SHF_ALLOC),
        elfio.Section(".b", 0x1000, 8, 8, elfio.SHT_PROGBITS, elfio.SHF_ALLOC),
    ), raw_file=b"\x00" * 16)
    with pytest.raises(OverlapError):
        elfio.load_image(img)


def test_inject_extract_inverse(table_demo):
    elf, _, _ = table_demo
    raw, _ = assemble_image(parse_assembly(open_text_demo()))
    img = elfio.read_elf(raw)
    payload = bytes(range(100))
    injected = elfio.inject_section(img, ".ellf", payload)
    back = elfio.read_elf(injected)
    assert elfio.extract_section(back, ".ellf") == payload


def test_injection_preserves_execution_image():
    for name, src in corpus_programs().items():
        raw, _ = assemble_image(parse_assembly(src))
        img = elfio.read_elf(raw)
        before = elfio.load_image(img)
        injected = elfio.inject_section(img, ".ellf", b"payload-bytes")
        after_img = elfio.read_elf(injected)
        assert elfio.load_image(after_img) == before, name
        # original section bodies sit byte-identical at their old offsets
        for sec in img.sections:
            if sec.kind != "nobits":
                assert injected[sec.file_offset:sec.file_offset + sec.size] == \
                    raw[sec.file_offset:sec.file_offset + sec.size], name


def test_inject_twice_is_duplicate(table_demo):
    elf, _, img = table_demo  # already carries .ellf from assemble()
    with pytest.raises(DuplicateSection):
        elfio.inject_section(img, ".ellf", b"x")


def test_extract_missing_section(table_demo):
    _, _, img = table_demo
    with pytest.raises(SectionNotFound):
        elfio.extract_section(img, ".missing")


def test_header_bookkeeping_after_inject():
    raw, _ = assemble_image(parse_assembly(open_text_demo()))
    before = elfio.read_elf(raw)
    injected = elfio.inject_section(before, ".ellf", b"abc")
    shoff, = struct.unpack_from("<Q", injected, 0x28)
    shnum, = struct.unpack_from("<H", injected, 0x3C)
    old_shnum, = struct.unpack_from("<H", raw, 0x3C)
    assert shnum == old_shnum + 1
    assert shoff >= len(raw)
    after = elfio.read_elf(injected)
    assert {s.name for s in after.sections} == \
        {s.name for s in before.sections} | {".ellf"}


def test_fuzz_read_elf_structured_errors_only():
    rng = random.Random(0x51C7)
    valid, _ = assemble_image(parse_assembly(open_text_demo()))
    for i in range(4000):
        if i % 2:
            blob = bytearray(valid)
            for _ in range(rng.randint(1, 8)):
                blob[rng.randrange(len(blob))] = rng.randrange(256)
            data = bytes(blob)
        else:
            data = rng.randbytes(rng.randint(0, 200))
        try:
            elfio.read_elf(data)
        except EllfError:
            pass


def _with_header_stride(elf, stride):
    """``elf`` with its section header table re-laid at ``stride`` bytes an entry."""
    shoff, = struct.unpack_from("<Q", elf, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", elf, 0x3A)
    entries = [elf[shoff + i * shentsize:shoff + (i + 1) * shentsize]
               for i in range(shnum)]
    out = bytearray(elf[:shoff])
    for entry in entries:
        out += entry + b"\0" * (stride - len(entry))
    struct.pack_into("<H", out, 0x3A, stride)
    return bytes(out)


def test_inject_into_a_file_with_a_wider_header_stride():
    raw, _ = assemble_image(parse_assembly(open_text_demo()))
    img = elfio.read_elf(_with_header_stride(raw, 72))
    assert img.sections == elfio.read_elf(raw).sections
    injected = elfio.read_elf(elfio.inject_section(img, ".ellf", b"payload"))
    assert elfio.extract_section(injected, ".ellf") == b"payload"
    assert elfio.load_image(injected) == elfio.load_image(img)


def _one_section_elf():
    text = elfio.NewSection(".text", 0x1000, b"\xc3",
                            sh_flags=elfio.SHF_ALLOC | elfio.SHF_EXECINSTR)
    return bytearray(elfio.build_elf([text], entry_point=0x1000))


def _patched(fmt, offset, *values):
    """The one-section ELF with ``values`` packed at ``offset``."""
    elf = _one_section_elf()
    struct.pack_into(fmt, elf, offset, *values)
    return bytes(elf)


# Section header entries: null, .text, .shstrtab.
SHOFF, = struct.unpack_from("<Q", _one_section_elf(), 0x28)
TEXT_HEADER, STRTAB_HEADER = SHOFF + 64, SHOFF + 128


@pytest.mark.parametrize("data, message", [
    pytest.param(bytes(_one_section_elf()[:40]), "file too short for an ELF64 header",
                 id="short"),
    pytest.param(_patched("<H", 0x3A, 32), "section header entry size 32 too small",
                 id="entry-size"),
    pytest.param(_patched("<Q", 0x28, 1 << 40), "section header table runs past end of file",
                 id="table-offset"),
    pytest.param(_patched("<H", 0x3E, 3), "section name table index 3 out of range",
                 id="name-table-index"),
    pytest.param(_patched("<Q", STRTAB_HEADER + 0x20, 1 << 20),
                 "section name table runs past end of file", id="name-table-size"),
    pytest.param(_patched("<Q", TEXT_HEADER + 0x20, 1 << 20),
                 "section body at 0x40 runs past end of file", id="section-body"),
    pytest.param(_patched("<I", TEXT_HEADER, 1000), "string offset 1000 outside string table",
                 id="section-name"),
])
def test_malformed_headers_name_their_fault(data, message):
    with pytest.raises(MalformedHeader) as info:
        elfio.read_elf(data)
    assert str(info.value) == message


def test_inject_into_a_file_without_section_headers():
    elf = _one_section_elf()
    struct.pack_into("<Q", elf, 0x28, 0)  # e_shoff
    struct.pack_into("<HH", elf, 0x3C, 0, 0)  # e_shnum, e_shstrndx
    img = elfio.read_elf(bytes(elf))
    assert img.sections == ()
    injected = elfio.inject_section(img, ".ellf", b"ellf-payload")
    assert hashlib.sha256(injected).hexdigest() == \
        "5ed6d0fe07fc143726f158e9d20583cec2304b1996766be1516806645e8a7a8c"
    back = elfio.read_elf(injected)
    assert [sec.name for sec in back.sections] == [".shstrtab", ".ellf"]
    assert elfio.extract_section(back, ".ellf") == b"ellf-payload"

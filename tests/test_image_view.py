"""ImageView: the address -> byte view of an ELF's alloc sections."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ellf import elfio
from ellf.asm import assemble, parse_assembly, roundtrip_check
from ellf.corpus import corpus_programs
from ellf.errors import OverlapError
from ellf.lifter import emit_assembly, lift


def reference_image(img):
    """The per-byte dict the view replaces: one entry per alloc byte."""
    image = {}
    placed = []
    for sec in img.sections:
        if not sec.alloc or sec.size == 0:
            continue
        for start, end, name in placed:
            if sec.vaddr < end and start < sec.vaddr + sec.size:
                raise OverlapError(f"sections {name} and {sec.name} overlap "
                                   f"at 0x{max(start, sec.vaddr):x}")
        placed.append((sec.vaddr, sec.vaddr + sec.size, sec.name))
        if sec.kind == "nobits":
            for i in range(sec.size):
                image[sec.vaddr + i] = 0
        else:
            body = img.raw_file[sec.file_offset:sec.file_offset + sec.size]
            for i, byte in enumerate(body):
                image[sec.vaddr + i] = byte
    return image


def reference_section_at(img, addr):
    for sec in img.sections:
        if sec.alloc and sec.vaddr <= addr < sec.vaddr + sec.size:
            return sec
    return None


def reference_read(image, start, end):
    for addr in range(start, end):
        if addr not in image:
            raise KeyError(addr)
    return bytes(image[a] for a in range(start, end))


def view_entries(view, lo, hi):
    """The address -> byte entries of ``view`` in [lo, hi), one read_run each."""
    return {addr: run[0] for addr in range(lo, hi) if (run := view.read_run(addr, 1))}


def reference_run(image, start, size):
    run = bytearray()
    while len(run) < size and start + len(run) in image:
        run.append(image[start + len(run)])
    return bytes(run)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (KeyError, OverlapError) as exc:
        return type(exc).__name__, exc.args


@st.composite
def layouts(draw):
    """Sections in a shuffled file order: gaps, adjacency, zero sizes, nobits."""
    specs = []
    addr = draw(st.integers(0, 4))
    for i in range(draw(st.integers(0, 6))):
        addr += draw(st.sampled_from([0, 0, 1, 3]))
        nobits = draw(st.booleans())
        size = draw(st.integers(0, 5))
        data = b"" if nobits else draw(st.binary(min_size=size, max_size=size))
        alloc = draw(st.integers(0, 4)) > 0
        specs.append([f".s{i}", addr, nobits, size, data, alloc])
        addr += size
    if len(specs) >= 2 and draw(st.integers(0, 3)) == 0:
        i, j = draw(st.permutations(range(len(specs))))[:2]
        specs[j][1] = specs[i][1] + draw(st.integers(0, 2))  # may overlap
    return draw(st.permutations(specs))


def build(specs):
    sections = []
    for name, vaddr, nobits, size, data, alloc in specs:
        flags = elfio.SHF_ALLOC if alloc else 0
        if nobits:
            sections.append(elfio.NewSection(name, vaddr, b"", elfio.SHT_NOBITS,
                                             flags, size=size))
        else:
            sections.append(elfio.NewSection(name, vaddr, data, sh_flags=flags))
    return elfio.read_elf(elfio.build_elf(sections))


def same_bytes(specs):
    """The same mapping from other sections: each one split in two adjacent
    halves, with nobits written out as zeros."""
    out = []
    for name, vaddr, nobits, size, data, alloc in specs:
        data = bytes(size) if nobits else data
        half = size // 2
        out.append([name + "a", vaddr, False, half, data[:half], alloc])
        out.append([name + "b", vaddr + half, False, size - half, data[half:], alloc])
    return out


@settings(max_examples=300, deadline=None)
@given(layouts(), layouts(), st.data())
def test_view_matches_the_reference_dict(specs, other_specs, data):
    img = build(specs)
    expected = outcome(reference_image, img)
    got = outcome(elfio.load_image, img)
    if expected[0] != "ok":
        assert got == expected  # same OverlapError, same message
        return
    ref, view = expected[1], got[1]

    lo = min([sec.vaddr for sec in img.sections] + [0])
    hi = max([sec.vaddr + sec.size for sec in img.sections] + [1])
    assert view_entries(view, lo - 1, hi + 2) == ref
    for addr in range(lo - 1, hi + 2):
        assert outcome(view.read, addr, addr + 1) == outcome(reference_read, ref, addr, addr + 1)
        assert img.section_at(addr) == reference_section_at(img, addr)
    for _ in range(10):
        start = data.draw(st.integers(lo - 1, hi + 1))
        end = data.draw(st.integers(start - 1, hi + 2))
        assert outcome(view.read, start, end) == \
            outcome(reference_read, ref, start, end)
        assert bytes(view.read_run(start, end - start)) == reference_run(ref, start, end - start)

    same = elfio.load_image(build(same_bytes(specs)))
    assert view == same and same == view
    other = build(other_specs)
    other_ref = outcome(reference_image, other)
    if other_ref[0] == "ok":
        assert (view == elfio.load_image(other)) == (ref == other_ref[1])


def test_view_over_an_image_with_no_sections():
    img = elfio.ElfImage(entry_point=0, sections=())
    view = elfio.load_image(img)
    assert view_entries(view, 0, 1) == reference_image(img) == {}
    assert view.read(5, 5) == b""
    with pytest.raises(KeyError):
        view.read(0, 1)


def test_lift_of_a_large_bss_allocates_no_per_byte_objects():
    src = corpus_programs()["09_bss_buffer"].replace(".zero 4096", ".zero 4194304")
    elf, meta = assemble(parse_assembly(src))
    img = elfio.read_elf(elf)
    tracemalloc.start()
    try:
        text = emit_assembly(lift(img, meta))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ".zero 4194304" in text
    assert peak < 16 * 2 ** 20


def test_round_trip_of_a_bss_that_ends_at_the_top_of_the_address_space():
    # Comparing the two images must not read the 2**64 - 0x2000 zero bytes.
    report = roundtrip_check(".section .bss base=0x2000\n.zero 0xffffffffffffe000\n")
    assert report.ok, report.lines()

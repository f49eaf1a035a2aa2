"""Minimal ELF64 little-endian container support.

Covers exactly what the toolkit needs: parsing section headers into an
ElfImage, a read-only ImageView of the loadable bytes whose cost follows the
number of sections rather than their size, writing small executables, and
injecting or extracting the non-alloc `.ellf` section.
Injection appends payload, a grown string table and a rebuilt section header
table at the end of the file, so every original file offset, section body and
program header survives byte for byte.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from functools import cached_property
from typing import NamedTuple

from .errors import (
    DuplicateSection,
    MalformedHeader,
    NotElf,
    OverlapError,
    SectionNotFound,
    UnsupportedClass,
    UnsupportedEndianness,
    value_type,
)

ELF_MAGIC = b"\x7fELF"

SHT_NULL = 0
SHT_PROGBITS = 1
SHT_STRTAB = 3
SHT_NOBITS = 8
SHT_ELLF = 0x6FFF4C46  # OS-specific range; standard tools skip it

SHF_WRITE = 0x1
SHF_ALLOC = 0x2
SHF_EXECINSTR = 0x4

_EHDR = struct.Struct("<16sHHIQQQIHHHHHH")
_SHDR = struct.Struct("<IIQQQQIIQQ")


@value_type
class Section(NamedTuple):
    name: str
    vaddr: int
    file_offset: int
    size: int
    sh_type: int
    sh_flags: int

    @property
    def alloc(self):
        return bool(self.sh_flags & SHF_ALLOC)

    @property
    def exec(self):
        return bool(self.sh_flags & SHF_EXECINSTR)

    @property
    def kind(self):
        if self.sh_type == SHT_PROGBITS:
            return "progbits"
        if self.sh_type == SHT_NOBITS:
            return "nobits"
        return "other"


def section_kind(name: str) -> tuple[bool, bool]:
    """(executable, zero-fill): what the assembly dialect makes of a section name."""
    return name.startswith(".text"), name.startswith(".bss")


class ElfImage:
    """A parsed file: its entry point, its sections and its bytes.

    An image is immutable and equal to another with the same three fields.
    It is a plain class rather than a value type so that it can keep its
    section index, built on first use, which refuses with OverlapError an
    image whose alloc sections overlap.
    """

    def __init__(self, entry_point: int, sections: tuple[Section, ...], raw_file: bytes = b""):
        vars(self).update(entry_point=entry_point, sections=sections, raw_file=raw_file)

    def _key(self):
        return self.entry_point, self.sections, self.raw_file

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is ElfImage else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"ElfImage(entry_point={self.entry_point!r}, sections={self.sections!r}, "
                f"raw_file={self.raw_file!r})")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def _alloc_index(self):
        """(starts, sections) over the non-empty alloc sections: ``sections``
        sorted by vaddr, ``starts`` their vaddrs. Raises OverlapError, for
        the first overlapping pair in file order, if any two overlap."""
        alloc = [sec for sec in self.sections if sec.alloc and sec.size]
        ordered = sorted(alloc, key=lambda sec: sec.vaddr)
        if any(a.vaddr + a.size > b.vaddr for a, b in zip(ordered, ordered[1:])):
            raise _first_overlap(alloc)
        return [sec.vaddr for sec in ordered], ordered

    def section_at(self, addr: int) -> Section | None:
        """The alloc section that contains ``addr``, or None."""
        starts, ordered = self._alloc_index
        i = bisect_right(starts, addr) - 1
        if i >= 0 and addr < ordered[i].vaddr + ordered[i].size:
            return ordered[i]
        return None


def _first_overlap(alloc: list[Section]) -> OverlapError:
    """The error for the first overlapping pair in file order."""
    for j, sec in enumerate(alloc):
        for prev in alloc[:j]:
            if sec.vaddr < prev.vaddr + prev.size and prev.vaddr < sec.vaddr + sec.size:
                return OverlapError(f"sections {prev.name} and {sec.name} overlap "
                                    f"at 0x{max(prev.vaddr, sec.vaddr):x}")


def read_elf(data) -> ElfImage:
    data = bytes(data)
    if len(data) < 16 or data[:4] != ELF_MAGIC:
        raise NotElf("missing \\x7fELF magic")
    if data[4] != 2:
        raise UnsupportedClass("only 64-bit ELF files are supported")
    if data[5] != 1:
        raise UnsupportedEndianness("only little-endian ELF files are supported")
    if len(data) < _EHDR.size:
        raise MalformedHeader("file too short for an ELF64 header")
    (_ident, _type, _machine, _version, entry, _phoff, shoff, _flags,
     _ehsize, _phentsize, _phnum, shentsize, shnum, shstrndx) = _EHDR.unpack_from(data, 0)

    sections: list[Section] = []
    raw_headers = []
    if shnum:
        if shentsize < _SHDR.size:
            raise MalformedHeader(f"section header entry size {shentsize} too small")
        end = shoff + shnum * shentsize
        if shoff > len(data) or end > len(data) or shoff < 0:
            raise MalformedHeader("section header table runs past end of file")
        for i in range(shnum):
            raw_headers.append(_SHDR.unpack_from(data, shoff + i * shentsize))
        if shstrndx >= shnum:
            raise MalformedHeader(f"section name table index {shstrndx} out of range")
        str_off, str_size = raw_headers[shstrndx][4], raw_headers[shstrndx][5]
        if str_off + str_size > len(data):
            raise MalformedHeader("section name table runs past end of file")
        strtab = data[str_off:str_off + str_size]

        for (sh_name, sh_type, sh_flags, sh_addr, sh_offset, sh_size,
             _link, _info, _align, _entsize) in raw_headers:
            if sh_type == SHT_NULL:
                continue
            if sh_type != SHT_NOBITS and sh_offset + sh_size > len(data):
                raise MalformedHeader(f"section body at 0x{sh_offset:x} runs past "
                                      f"end of file")
            sections.append(Section(name=_cstr(strtab, sh_name),
                                    vaddr=sh_addr, file_offset=sh_offset,
                                    size=sh_size, sh_type=sh_type, sh_flags=sh_flags))

    return ElfImage(entry_point=entry, sections=tuple(sections), raw_file=data)


def _cstr(table: bytes, offset: int) -> str:
    if offset >= len(table):
        raise MalformedHeader(f"string offset {offset} outside string table")
    end = table.find(b"\0", offset)
    if end < 0:
        end = len(table)
    return table[offset:end].decode("latin-1")


class ImageView:
    """Read-only address -> byte view of an image's alloc sections.

    Section bodies are memoryviews into the file, and nobits sections read
    as zeros without storing any, so building a view costs one entry per
    section. ``read`` and ``read_run`` bisect the sections; two views are
    equal when they map the same addresses to the same bytes.
    """

    def __init__(self, img: ElfImage):
        starts, ordered = img._alloc_index
        self._starts = starts
        self._ends = []
        self._bodies = []  # memoryview, or None for zeros
        raw = memoryview(img.raw_file)
        for sec in ordered:
            body = (None if sec.kind == "nobits"
                    else raw[sec.file_offset:sec.file_offset + sec.size])
            self._ends.append(sec.vaddr + (sec.size if body is None else len(body)))
            self._bodies.append(body)

    def _index(self, addr: int) -> int | None:
        """The index of the section that maps ``addr``, or None."""
        i = bisect_right(self._starts, addr) - 1
        return None if i < 0 or addr >= self._ends[i] else i

    def read_run(self, start: int, size: int) -> memoryview:
        """The mapped bytes from ``start`` on, at most ``size`` of them.

        The run stops at the first unmapped address; abutting sections join,
        and zero-fill reads as zeros.
        """
        starts, ends, bodies = self._starts, self._ends, self._bodies
        end = start + size
        i = bisect_right(starts, start) - 1
        parts = []
        pos = start
        while pos < end and 0 <= i < len(starts) and starts[i] <= pos < ends[i]:
            stop = min(ends[i], end)
            body = bodies[i]
            parts.append(bytes(stop - pos) if body is None
                         else body[pos - starts[i]:stop - starts[i]])
            pos = stop
            i += 1
        return memoryview(parts[0] if len(parts) == 1 else b"".join(parts))

    def read(self, start: int, end: int) -> bytes:
        """The bytes at [start, end); KeyError names the first unmapped address."""
        data = self.read_run(start, end - start)
        if start + len(data) < end:
            raise KeyError(start + len(data))
        return bytes(data)

    def __eq__(self, other):
        if not isinstance(other, ImageView):
            return NotImplemented
        # Each piece between the section boundaries of both views lies in one
        # section or gap on each side; zero-fill on both sides is never read.
        cuts = sorted({*self._starts, *self._ends, *other._starts, *other._ends})
        for start, end in zip(cuts, cuts[1:]):
            i, j = self._index(start), other._index(start)
            if (i is None) != (j is None):
                return False
            if i is None or self._bodies[i] is None and other._bodies[j] is None:
                continue
            if self.read(start, end) != other.read(start, end):
                return False
        return True


def load_image(img: ElfImage) -> ImageView:
    """The loadable bytes of all alloc sections; nobits sections read as zeros."""
    return ImageView(img)


def extract_section(img: ElfImage, name: str) -> bytes:
    for sec in img.sections:
        if sec.name == name:
            if sec.kind == "nobits":
                return b""
            return img.raw_file[sec.file_offset:sec.file_offset + sec.size]
    raise SectionNotFound(f"no section named {name}")


def inject_section(img: ElfImage, name: str, payload: bytes) -> bytes:
    """Append a non-alloc section without disturbing the execution image."""
    if any(sec.name == name for sec in img.sections):
        raise DuplicateSection(f"section {name} already present")
    data = img.raw_file
    (_ident, e_type, machine, version, entry, phoff, shoff, flags,
     ehsize, phentsize, phnum, shentsize, shnum, shstrndx) = _EHDR.unpack_from(data, 0)

    name_entry = name.encode("latin-1") + b"\0"
    if shnum:
        headers = [list(_SHDR.unpack_from(data, shoff + i * shentsize))
                   for i in range(shnum)]
        start, size = headers[shstrndx][4:6]
        strtab, own_name = data[start:start + size], b""
    else:
        # No section headers: start a table of a null entry and a string
        # table that names itself after the new section's name.
        shstrndx = 1
        strtab, own_name = b"\0", b".shstrtab\0"
        headers = [[0] * 10, [len(strtab) + len(name_entry), SHT_STRTAB,
                              0, 0, 0, 0, 0, 0, 1, 0]]
    headers.append([len(strtab), SHT_ELLF, 0, 0, len(data), len(payload), 0, 0, 1, 0])
    strtab += name_entry + own_name

    out = bytearray(data) + payload
    # The string table keeps its header slot; only its offset and size move.
    headers[shstrndx][4:6] = len(out), len(strtab)
    out += strtab
    while len(out) % 8:
        out.append(0)
    new_shoff = len(out)
    for hdr in headers:
        out += _SHDR.pack(*hdr)

    # Every header was re-packed at the ELF64 size, whatever the input's stride.
    _EHDR.pack_into(out, 0, _ident, e_type, machine, version, entry, phoff,
                    new_shoff, flags, ehsize, phentsize, phnum, _SHDR.size,
                    len(headers), shstrndx)
    return bytes(out)


# --- writing small executables (used by the assembler and tests) ---

@value_type
class NewSection(NamedTuple):
    name: str
    vaddr: int
    data: bytes = b""
    sh_type: int = SHT_PROGBITS
    sh_flags: int = SHF_ALLOC
    size: int | None = None  # defaults to len(data); nobits sections set it


def build_elf(sections: list[NewSection], entry_point: int = 0) -> bytes:
    """Write an ET_EXEC ELF64 with the given sections and no program headers."""
    strtab = bytearray(b"\0")
    name_offsets = []
    for sec in sections:
        name_offsets.append(len(strtab))
        strtab += sec.name.encode("latin-1") + b"\0"
    shstr_name_off = len(strtab)
    strtab += b".shstrtab\0"

    out = bytearray(_EHDR.size * b"\0")
    body_offsets = []
    for sec in sections:
        while len(out) % 8:
            out.append(0)
        body_offsets.append(len(out))
        if sec.sh_type != SHT_NOBITS:
            out += sec.data

    while len(out) % 8:
        out.append(0)
    strtab_off = len(out)
    out += strtab

    while len(out) % 8:
        out.append(0)
    shoff = len(out)
    shnum = len(sections) + 2  # null entry + .shstrtab

    out += _SHDR.pack(0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    for sec, name_off, body_off in zip(sections, name_offsets, body_offsets):
        out += _SHDR.pack(name_off, sec.sh_type, sec.sh_flags, sec.vaddr,
                          body_off, len(sec.data) if sec.size is None else sec.size,
                          0, 0, 1, 0)
    out += _SHDR.pack(shstr_name_off, SHT_STRTAB, 0, 0, strtab_off, len(strtab),
                      0, 0, 1, 0)

    _EHDR.pack_into(out, 0,
                    ELF_MAGIC + bytes([2, 1, 1, 0]) + b"\0" * 8,
                    2,      # ET_EXEC
                    0x3E,   # x86-64
                    1, entry_point,
                    0,      # no program headers
                    shoff, 0, _EHDR.size, 0, 0, _SHDR.size, shnum, shnum - 1)
    return bytes(out)

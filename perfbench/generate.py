"""Seeded input programs for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the same
source text, and therefore the same assembled ELF. The seed varies jump and
pointer targets, constants, string contents, slot offsets and section bases,
but never the amount of work: instruction counts, object counts, object sizes and
pointer-cell counts are fixed per workload, so timings from different seeds
are comparable.
"""

from __future__ import annotations

import random

# code_heavy: functions in the generated program. The lifter's label lookup
# and CFG recovery grow faster than linearly in this number, so it is chosen
# to make them dominate lift time while one round trip still takes well under
# a second.
CODE_FUNCTIONS = 60

# data_heavy: labeled .data objects, their sizes (a fixed multiset, shuffled
# per seed), the pointer-cell counts, the .rodata blob and the .bss size.
DATA_OBJECTS = 1200
DATA_OBJECT_SIZES = (8, 16, 24, 32, 48, 64, 96, 128)
DATA_POINTER_CELLS = 150
DATA_DIFF_CELLS = 30
RODATA_BLOB_BYTES = 8 * 1024
BSS_OBJECTS = 4
BSS_OBJECT_BYTES = 256 * 1024
DATA_FUNCTIONS = 4

STRING_BYTES = 15


def _page_base(rng: random.Random, region: int) -> int:
    """A page-aligned base inside ``region`` whose varint length is fixed."""
    return region + rng.randrange(0, 64) * 0x1000


def _string(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz ") for _ in range(STRING_BYTES))


def code_heavy(seed: int) -> str:
    """One program of CODE_FUNCTIONS functions in the same shape.

    Each function has a ``push rbp`` frame with two ``.slot``s, a 2-entry
    ``.quad a - b`` jump table in .rodata reached by lea/movsxd/jmp reg, a
    call to the next function, a RIP-relative string and a .data cell that
    points at the string. This loads the lifter's label and CFG layers and
    the assembler's layout and encode layers, and holds few data bytes.
    """
    rng = random.Random(f"code_heavy:{seed}")
    text_base = _page_base(rng, 0x400000)
    rodata_base = _page_base(rng, 0x800000)
    data_base = _page_base(rng, 0xC00000)
    n = CODE_FUNCTIONS
    text, rodata, data = [], [], []
    for i in range(n):
        lo, hi = sorted(rng.sample(range(2, 9), 2))
        s_lo, s_hi = 8 * lo, 8 * hi
        text += [
            f".func f{i}",
            f".slot f{i}, s{s_lo}, {s_lo}",
            f".slot f{i}, s{s_hi}, {s_hi}",
            "    push rbp",
            "    mov rbp, rsp",
            f"    sub rsp, {s_hi}",
            f"    mov [rbp + 8 - s{s_lo}], rdi",
            "    and rdi, 1",
            f"    lea rcx, [jt{i}]",
            "    movsxd rdx, [rcx + rdi*8]",
            "    add rdx, rcx",
            "    jmp rdx",
            f".L{i}_a:",
            f"    mov rax, {rng.randrange(1, 1 << 20)}",
            f"    jmp .L{i}_c",
            f".L{i}_b:",
            f"    mov rax, {rng.randrange(1, 1 << 20)}",
            f".L{i}_c:",
            f"    mov [rbp + 8 - s{s_hi}], rax",
            f"    lea rsi, [str{i}]",
            f"    mov rdi, [rbp + 8 - s{s_lo}]",
        ]
        if i + 1 < n:
            text.append(f"    call f{i + 1}")
        text += [
            f"    add rax, [rbp + 8 - s{s_hi}]",
            "    leave",
            "    ret",
            ".endfunc",
        ]
        rodata += [
            f"jt{i}:",
            f"    .quad .L{i}_a - jt{i}",
            f"    .quad .L{i}_b - jt{i}",
            f"str{i}:",
            f'    .asciz "{_string(rng)}"',
        ]
        data += [f"sp{i}:", f"    .quad str{i}"]
    return "\n".join(
        [f"# code_heavy seed {seed}", f".section .text base=0x{text_base:x}", *text,
         f".section .rodata base=0x{rodata_base:x}", *rodata,
         f".section .data base=0x{data_base:x}", *data]) + "\n"


def data_heavy(seed: int) -> str:
    """A few dozen instructions beside large data sections.

    .data holds DATA_OBJECTS labeled objects of mixed size with sparse
    ``.quad label`` and ``.quad a - b`` cells, .rodata one raw blob, and .bss
    several large zero-fill objects. This loads the byte-map image load,
    metadata validation, data symbolization and raw-byte emission, and holds
    few labels or blocks.
    """
    rng = random.Random(f"data_heavy:{seed}")
    text_base = _page_base(rng, 0x400000)
    rodata_base = _page_base(rng, 0x800000)
    data_base = _page_base(rng, 0xC00000)
    bss_base = _page_base(rng, 0x4000000)

    sizes = [DATA_OBJECT_SIZES[i % len(DATA_OBJECT_SIZES)] for i in range(DATA_OBJECTS)]
    rng.shuffle(sizes)
    cell_kinds = ["ptr"] * DATA_POINTER_CELLS + ["diff"] * DATA_DIFF_CELLS
    cell_kinds += ["raw"] * (DATA_OBJECTS - len(cell_kinds))
    rng.shuffle(cell_kinds)

    text = []
    for f in range(DATA_FUNCTIONS):
        picks = rng.sample(range(DATA_OBJECTS), 3)
        text += [
            f".func g{f}",
            f"    lea rax, [d{picks[0]}]",
            "    mov rcx, [rax]",
            f"    lea rdx, [d{picks[1]}]",
            "    mov [rdx], rcx",
            f"    lea rsi, [b{f % BSS_OBJECTS}]",
            "    mov [rsi], rcx",
            f"    lea rdi, [d{picks[2]}]",
            "    add rax, [rdi]",
            "    lea r8, [blob]",
            "    mov r9, [r8]",
            "    ret",
            ".endfunc",
        ]

    data = []
    for i, (size, kind) in enumerate(zip(sizes, cell_kinds)):
        data.append(f"d{i}:")
        if kind == "ptr":
            data.append(f"    .quad d{rng.randrange(DATA_OBJECTS)}")
            size -= 8
        elif kind == "diff":
            a, b = rng.randrange(DATA_OBJECTS), rng.randrange(DATA_OBJECTS)
            data.append(f"    .quad d{a} - d{b}")
            size -= 8
        for _ in range(0, size, 8):
            cell = rng.getrandbits(64).to_bytes(8, "little")
            data.append("    .byte " + ", ".join(f"0x{b:02x}" for b in cell))

    blob = rng.randbytes(RODATA_BLOB_BYTES)
    rodata = ["blob:"] + ["    .byte " + ", ".join(f"0x{b:02x}" for b in blob[p:p + 8])
                          for p in range(0, len(blob), 8)]
    bss = []
    for k in range(BSS_OBJECTS):
        bss += [f"b{k}:", f"    .zero {BSS_OBJECT_BYTES}"]
    return "\n".join(
        [f"# data_heavy seed {seed}", f".section .text base=0x{text_base:x}", *text,
         f".section .rodata base=0x{rodata_base:x}", *rodata,
         f".section .data base=0x{data_base:x}", *data,
         f".section .bss base=0x{bss_base:x}", *bss]) + "\n"

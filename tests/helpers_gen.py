"""Seeded random generators for metadata instances and instruction forms."""

import random

from ellf.isa import (
    CONDITION_CODES,
    Immediate,
    MemRef,
    PcRel,
    REG32,
    REG64,
    Register,
)
from ellf.meta import (
    BASIC_BLOCK,
    DataDiff,
    DataPointer,
    DataRecord,
    EllfMetadata,
    FUNCTION_END,
    FUNCTION_START,
    InstructionRegion,
    OperandPointer,
    StackRecord,
    TextRecord,
)

U64 = (1 << 64) - 1


def random_metadata(rng: random.Random) -> EllfMetadata:
    """A structurally valid metadata record with occasionally extreme values."""

    def addr():
        if rng.random() < 0.1:
            return rng.randrange(U64 - (1 << 20), U64 - (1 << 8))
        return rng.randrange(0, 1 << 48)

    def sorted_unique(n):
        return sorted(rng.sample(range(0, 1 << 48), n)) if n else []

    regions = tuple(InstructionRegion(s, rng.randint(1, 500))
                    for s in sorted_unique(rng.randint(0, 8)))

    pointers = []
    for key in sorted(set(addr() for _ in range(rng.randint(0, 8)))):
        picks = rng.sample(["op0", "op1", "data", "diff"], rng.randint(1, 2))
        if "op0" in picks:
            pointers.append(OperandPointer(key, 0))
        if "op1" in picks:
            pointers.append(OperandPointer(key, rng.randint(1, 3)))
        if "data" in picks:
            pointers.append(DataPointer(key))
        if "diff" in picks:
            pointers.append(DataDiff(key, addr()))

    text = []
    for a in sorted_unique(rng.randint(0, 10)):
        kinds = rng.sample([BASIC_BLOCK, FUNCTION_START, FUNCTION_END],
                           rng.randint(1, 2))
        for kind in sorted(kinds, key=(BASIC_BLOCK, FUNCTION_START,
                                       FUNCTION_END).index):
            text.append(TextRecord(a, kind))

    stack = []
    for entry in sorted_unique(rng.randint(0, 4)):
        count = rng.randint(0, 5)
        offsets = tuple(sorted(rng.sample(range(1, 1 << 16), count)))
        stack.append(StackRecord(entry, offsets))

    data = []
    cursor = rng.randrange(0, 1 << 32)
    for _ in range(rng.randint(0, 8)):
        size = rng.randint(1, 1 << 12)
        data.append(DataRecord(cursor, size))
        cursor += size + rng.randint(0, 1 << 10)

    return EllfMetadata(instruction_regions=regions, pointers=tuple(pointers),
                        text=tuple(text), stack=tuple(stack), data=tuple(data))


# --- instruction form generator (canonical structured forms only) ---

_ARITH = ("add", "or", "and", "sub", "xor", "cmp")


def _reg(rng, size=None):
    size = size or rng.choice((32, 64))
    pool = REG64 if size == 64 else REG32
    return Register(rng.choice(pool))


def _mem(rng):
    style = rng.choice(("base", "base_disp", "sib", "sib_disp", "index_only",
                        "absolute", "rip"))
    disp = rng.choice((0, rng.randint(-128, 127), rng.randint(-(1 << 31), (1 << 31) - 1)))
    if style == "rip":
        return MemRef(rip_relative=True, disp=disp)
    if style == "absolute":
        return MemRef(disp=disp)
    index = rng.choice([r for r in REG64 if r != "rsp"])
    scale = rng.choice((1, 2, 4, 8))
    base = rng.choice(REG64)
    if style == "base":
        return MemRef(base=base)
    if style == "base_disp":
        return MemRef(base=base, disp=disp)
    if style == "index_only":
        return MemRef(index=index, scale=scale, disp=disp)
    if style == "sib":
        return MemRef(base=base, index=index, scale=scale)
    return MemRef(base=base, index=index, scale=scale, disp=disp)


def _imm32(rng):
    value = rng.choice((rng.randint(-128, 127),
                        rng.randint(-(1 << 31), (1 << 31) - 1)))
    width = 8 if -128 <= value <= 127 else 32
    return Immediate(value, width)


def random_form(rng: random.Random):
    """(mnemonic, operands, address): one canonical encodable form."""
    address = rng.randrange(0, 1 << 40)
    kind = rng.choice(
        ("noop", "pushpop", "incdec", "arith_rr", "arith_rm", "arith_mr",
         "arith_imm", "test_rr", "test_mr", "test_imm", "mov_rr", "mov_rm",
         "mov_mr", "mov_imm32", "mov_imm64", "mov_eax_imm", "lea", "movsxd",
         "imul", "branch", "jcc", "indirect"))
    if kind == "noop":
        return rng.choice(("ret", "leave", "nop", "hlt", "syscall")), (), address
    if kind == "pushpop":
        return rng.choice(("push", "pop")), (_reg(rng, 64),), address
    if kind == "incdec":
        return rng.choice(("inc", "dec")), (_reg(rng),), address
    if kind == "arith_rr":
        size = rng.choice((32, 64))
        return rng.choice(_ARITH), (_reg(rng, size), _reg(rng, size)), address
    if kind == "arith_rm":
        return rng.choice(_ARITH), (_reg(rng), _mem(rng)), address
    if kind == "arith_mr":
        return rng.choice(_ARITH), (_mem(rng), _reg(rng)), address
    if kind == "arith_imm":
        return rng.choice(_ARITH), (_reg(rng), _imm32(rng)), address
    if kind == "test_rr":
        size = rng.choice((32, 64))
        return "test", (_reg(rng, size), _reg(rng, size)), address
    if kind == "test_mr":
        return "test", (_mem(rng), _reg(rng)), address
    if kind == "test_imm":
        value = rng.randint(-(1 << 31), (1 << 31) - 1)
        return "test", (_reg(rng), Immediate(value, 32)), address
    if kind == "mov_rr":
        size = rng.choice((32, 64))
        return "mov", (_reg(rng, size), _reg(rng, size)), address
    if kind == "mov_rm":
        return "mov", (_reg(rng), _mem(rng)), address
    if kind == "mov_mr":
        return "mov", (_mem(rng), _reg(rng)), address
    if kind == "mov_imm32":
        value = rng.randint(-(1 << 31), (1 << 31) - 1)
        return "mov", (_reg(rng, 64), Immediate(value, 32)), address
    if kind == "mov_imm64":
        value = rng.choice((rng.randint(1 << 31, U64),
                            rng.randint(0, U64)))
        if -(1 << 31) <= value < (1 << 31):
            value += 1 << 32
        return "mov", (_reg(rng, 64), Immediate(value & U64, 64)), address
    if kind == "mov_eax_imm":
        return "mov", (_reg(rng, 32), Immediate(rng.randint(0, (1 << 32) - 1), 32)), address
    if kind == "lea":
        mem = _mem(rng)
        return "lea", (_reg(rng), mem), address
    if kind == "movsxd":
        src = _reg(rng, 32) if rng.random() < 0.5 else _mem(rng)
        return "movsxd", (_reg(rng, 64), src), address
    if kind == "imul":
        size = rng.choice((32, 64))
        src = _reg(rng, size) if rng.random() < 0.5 else _mem(rng)
        dst = _reg(rng, size)
        return "imul", (dst, src), address
    if kind == "branch":
        mnemonic = rng.choice(("jmp", "call"))
        length = 5
        rel = rng.randint(-(1 << 31), (1 << 31) - 1)
        target = (address + length + rel) & U64
        return mnemonic, (PcRel(target),), address
    if kind == "jcc":
        mnemonic = "j" + rng.choice(CONDITION_CODES)
        rel = rng.randint(-(1 << 31), (1 << 31) - 1)
        target = (address + 6 + rel) & U64
        return mnemonic, (PcRel(target),), address
    # indirect jmp/call through a register or memory
    mnemonic = rng.choice(("jmp", "call"))
    op = _reg(rng, 64) if rng.random() < 0.5 else _mem(rng)
    return mnemonic, (op,), address

"""Deterministic x86-64 decoder and encoder for a fixed instruction subset.

Supported forms (64- and 32-bit register widths unless noted):

    mov   r,r  r,m  m,r  r,imm          (imm64 only via the movabs form)
    lea   r,m
    movsxd r64,r32  r64,m32
    add or and sub xor cmp   r,r  r,m  m,r  r,imm
    test  r,r  m,r  r,imm
    imul  r,r  r,m
    inc dec   r
    push pop  r64
    jmp   rel32 (rel8 decode only)  r64  m
    jcc   rel32 (all sixteen condition codes)
    call  rel32  r64  m
    ret leave nop hlt syscall

Memory operands cover [base], [base+disp], [base+index*scale+disp],
[index*scale+disp], [disp] and RIP-relative. Exactly one encoding is emitted
per form (register-to-register uses the MR opcode, immediates take the
shortest field that holds the value, REX only when required), so encoding
decoded corpus bytes reproduces them exactly. An ``Immediate.width`` of 64 on
a 64-bit mov, or of 32 on add/or/and/sub/xor/cmp, fixes the field at that
width instead; the assembler relies on this to give a label immediate the
same length whatever the label's value. Byte patterns outside the subset are
decoding errors, never best-effort guesses.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import (RangeOverflow, TruncatedInstruction, UnknownOpcode, UnsupportedForm,
                     quoted)

U64 = (1 << 64) - 1

REG64 = ("rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
         "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15")
REG32 = ("eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi",
         "r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d")

_REG_INFO = {name: (num, 64) for num, name in enumerate(REG64)}
_REG_INFO.update({name: (num, 32) for num, name in enumerate(REG32)})

CONDITION_CODES = ("o", "no", "b", "ae", "e", "ne", "be", "a",
                   "s", "ns", "p", "np", "l", "ge", "le", "g")
JCC_MNEMONICS = tuple("j" + cc for cc in CONDITION_CODES)


# --- operands ---

@dataclass(frozen=True)
class Register:
    name: str

    @property
    def num(self):
        return _REG_INFO[self.name][0]

    @property
    def size(self):
        return _REG_INFO[self.name][1]


@dataclass(frozen=True)
class Immediate:
    value: int
    width: int = 0  # encoded field width in bits (8/32/64); 0 lets the encoder pick


@dataclass(frozen=True)
class MemRef:
    base: str | None = None
    index: str | None = None
    scale: int = 1
    disp: int = 0
    rip_relative: bool = False
    # Post-symbolization: a label standing in for the RIP-relative target.
    label: str | None = None
    label_offset: int = 0


@dataclass(frozen=True)
class PcRel:
    target: int


@dataclass(frozen=True)
class SymbolRef:
    label: str
    offset: int = 0


@dataclass(frozen=True)
class OperandField:
    """Byte span of an operand's immediate/displacement/relative field."""
    operand: int
    offset: int
    width: int  # bytes
    kind: str   # "imm" | "disp" | "rel"


@dataclass(frozen=True)
class Instruction:
    address: int
    length: int
    mnemonic: str
    operands: tuple
    fields: tuple[OperandField, ...] = ()


# --- instruction classification ---

FALLTHROUGH = "fallthrough"
JUMP = "jump"
CONDITIONAL_JUMP = "conditional_jump"
INDIRECT_JUMP = "indirect_jump"
CALL = "call"
RETURN = "return"
HALT = "halt"


@dataclass(frozen=True)
class InstrClass:
    kind: str
    target: int | None = None


def instruction_class(ins: Instruction) -> InstrClass:
    m = ins.mnemonic
    if m == "jmp":
        op = ins.operands[0]
        if isinstance(op, PcRel):
            return InstrClass(JUMP, op.target)
        return InstrClass(INDIRECT_JUMP)
    if m in JCC_MNEMONICS:
        op = ins.operands[0]
        target = op.target if isinstance(op, PcRel) else None
        return InstrClass(CONDITIONAL_JUMP, target)
    if m == "call":
        op = ins.operands[0]
        if isinstance(op, PcRel):
            return InstrClass(CALL, op.target)
        return InstrClass(CALL)
    if m == "ret":
        return InstrClass(RETURN)
    if m == "hlt":
        return InstrClass(HALT)
    return InstrClass(FALLTHROUGH)


# --- decoding ---

class _Reader:
    def __init__(self, image, addr):
        self.image = image
        self.addr = addr
        self.pos = 0

    def u8(self):
        try:
            byte = self.image[self.addr + self.pos]
        except KeyError:
            raise TruncatedInstruction(
                f"instruction at 0x{self.addr:x} runs past the image") from None
        self.pos += 1
        return byte

    def s8(self):
        v = self.u8()
        return v - 256 if v >= 128 else v

    def s32(self):
        raw = bytes(self.u8() for _ in range(4))
        return struct.unpack("<i", raw)[0]

    def u32(self):
        raw = bytes(self.u8() for _ in range(4))
        return struct.unpack("<I", raw)[0]

    def u64(self):
        raw = bytes(self.u8() for _ in range(8))
        return struct.unpack("<Q", raw)[0]


def _regname(num, size):
    return REG64[num] if size == 64 else REG32[num]


def _read_modrm(rd: _Reader, rex: int, rm_size: int):
    """Returns (reg_field, rm_operand, disp_field_span or None)."""
    m = rd.u8()
    mod, reg, rm = m >> 6, (m >> 3) & 7, m & 7
    reg |= ((rex >> 2) & 1) << 3  # REX.R
    if mod == 3:
        num = rm | ((rex & 1) << 3)  # REX.B
        return reg, Register(_regname(num, rm_size)), None

    base = index = None
    scale = 1
    rip = False
    force_disp32 = False
    if rm == 4:
        sib = rd.u8()
        ss, idx, bse = sib >> 6, (sib >> 3) & 7, sib & 7
        idx |= ((rex >> 1) & 1) << 3  # REX.X
        if idx != 4:  # index 100 with REX.X clear means "no index"
            index = REG64[idx]
            scale = 1 << ss
        if bse == 5 and mod == 0:
            force_disp32 = True
        else:
            base = REG64[bse | ((rex & 1) << 3)]
    elif rm == 5 and mod == 0:
        rip = True
        force_disp32 = True
    else:
        base = REG64[rm | ((rex & 1) << 3)]

    disp = 0
    span = None
    if mod == 1:
        span = (rd.pos, 1)
        disp = rd.s8()
    elif mod == 2 or force_disp32:
        span = (rd.pos, 4)
        disp = rd.s32()
    return reg, MemRef(base=base, index=index, scale=scale, disp=disp,
                       rip_relative=rip), span


_ARITH_MR = {0x01: "add", 0x09: "or", 0x21: "and", 0x29: "sub",
             0x31: "xor", 0x39: "cmp", 0x85: "test", 0x89: "mov"}
_ARITH_RM = {0x03: "add", 0x0B: "or", 0x23: "and", 0x2B: "sub",
             0x33: "xor", 0x3B: "cmp", 0x8B: "mov"}
_GROUP1 = {0: "add", 1: "or", 4: "and", 5: "sub", 6: "xor", 7: "cmp"}


def decode_one(image, addr: int) -> Instruction:
    """Decode the unique subset instruction at ``addr`` of the byte map."""
    rd = _Reader(image, addr)
    rex = 0
    op = rd.u8()
    if 0x40 <= op <= 0x4F:
        rex = op
        op = rd.u8()
    w = (rex >> 3) & 1
    size = 64 if w else 32

    def done(mnemonic, operands, fields=()):
        return Instruction(address=addr, length=rd.pos, mnemonic=mnemonic,
                           operands=tuple(operands), fields=tuple(fields))

    def unknown():
        return UnknownOpcode(f"byte pattern at 0x{addr:x} is outside the "
                             f"instruction subset (opcode 0x{op:02x})")

    # no-operand opcodes; a REX prefix on them is outside the subset
    if op in (0x90, 0xC3, 0xC9, 0xF4):
        if rex:
            raise unknown()
        return done({0x90: "nop", 0xC3: "ret", 0xC9: "leave", 0xF4: "hlt"}[op], ())

    if 0x50 <= op <= 0x57 or 0x58 <= op <= 0x5F:
        if rex & 0x0E:  # only REX.B is meaningful here
            raise unknown()
        num = (op & 7) | ((rex & 1) << 3)
        mnemonic = "push" if op <= 0x57 else "pop"
        return done(mnemonic, (Register(REG64[num]),))

    if op in (0xE8, 0xE9):
        if rex:
            raise unknown()
        span = (rd.pos, 4)
        rel = rd.s32()
        target = (addr + rd.pos + rel) & U64
        return done("call" if op == 0xE8 else "jmp", (PcRel(target),),
                    [OperandField(0, span[0], 4, "rel")])

    if op == 0xEB:
        if rex:
            raise unknown()
        span = (rd.pos, 1)
        rel = rd.s8()
        target = (addr + rd.pos + rel) & U64
        return done("jmp", (PcRel(target),), [OperandField(0, span[0], 1, "rel")])

    if op == 0x0F:
        op2 = rd.u8()
        if op2 == 0x05:
            if rex:
                raise unknown()
            return done("syscall", ())
        if 0x80 <= op2 <= 0x8F:
            if rex:
                raise unknown()
            span = (rd.pos, 4)
            rel = rd.s32()
            target = (addr + rd.pos + rel) & U64
            return done(JCC_MNEMONICS[op2 - 0x80], (PcRel(target),),
                        [OperandField(0, span[0], 4, "rel")])
        if op2 == 0xAF:
            reg, rm_op, span = _read_modrm(rd, rex, size)
            fields = _disp_fields(span, operand=1)
            return done("imul", (Register(_regname(reg, size)), rm_op), fields)
        raise unknown()

    if op == 0xFF:
        reg, rm_op, span = _read_modrm(rd, rex, size)
        if reg in (0, 1):  # inc/dec, register forms only
            if not isinstance(rm_op, Register):
                raise unknown()
            return done("inc" if reg == 0 else "dec", (rm_op,))
        if reg in (2, 4):  # call/jmp indirect, always 64-bit
            if w:
                raise unknown()
            if isinstance(rm_op, Register):
                rm_op = Register(REG64[rm_op.num])
            fields = _disp_fields(span, operand=0)
            return done("call" if reg == 2 else "jmp", (rm_op,), fields)
        raise unknown()

    if op in _ARITH_MR:
        reg, rm_op, span = _read_modrm(rd, rex, size)
        fields = _disp_fields(span, operand=0)
        return done(_ARITH_MR[op], (rm_op, Register(_regname(reg, size))), fields)

    if op in _ARITH_RM:
        reg, rm_op, span = _read_modrm(rd, rex, size)
        if isinstance(rm_op, Register):
            raise unknown()  # register-to-register canonically uses the MR opcode
        fields = _disp_fields(span, operand=1)
        return done(_ARITH_RM[op], (Register(_regname(reg, size)), rm_op), fields)

    if op in (0x81, 0x83):
        reg, rm_op, span = _read_modrm(rd, rex, size)
        if reg not in _GROUP1 or not isinstance(rm_op, Register):
            raise unknown()
        if op == 0x83:
            f = OperandField(1, rd.pos, 1, "imm")
            imm = Immediate(rd.s8(), 8)
        else:
            f = OperandField(1, rd.pos, 4, "imm")
            imm = Immediate(rd.s32(), 32)
        return done(_GROUP1[reg], (rm_op, imm), [f])

    if op == 0xF7:
        reg, rm_op, span = _read_modrm(rd, rex, size)
        if reg != 0 or not isinstance(rm_op, Register):
            raise unknown()
        f = OperandField(1, rd.pos, 4, "imm")
        imm = Immediate(rd.s32(), 32)
        return done("test", (rm_op, imm), [f])

    if op == 0xC7:
        reg, rm_op, span = _read_modrm(rd, rex, size)
        if reg != 0 or not isinstance(rm_op, Register):
            raise unknown()
        f = OperandField(1, rd.pos, 4, "imm")
        imm = Immediate(rd.s32(), 32)
        return done("mov", (rm_op, imm), [f])

    if 0xB8 <= op <= 0xBF:
        num = (op & 7) | ((rex & 1) << 3)
        if w:  # movabs
            f = OperandField(1, rd.pos, 8, "imm")
            imm = Immediate(rd.u64(), 64)
            return done("mov", (Register(REG64[num]), imm), [f])
        f = OperandField(1, rd.pos, 4, "imm")
        imm = Immediate(rd.u32(), 32)
        return done("mov", (Register(REG32[num]), imm), [f])

    if op == 0x8D:
        reg, rm_op, span = _read_modrm(rd, rex, size)
        if not isinstance(rm_op, MemRef):
            raise unknown()
        fields = _disp_fields(span, operand=1)
        return done("lea", (Register(_regname(reg, size)), rm_op), fields)

    if op == 0x63:
        if not w:
            raise unknown()
        reg, rm_op, span = _read_modrm(rd, rex, 32)
        fields = _disp_fields(span, operand=1)
        return done("movsxd", (Register(REG64[reg]), rm_op), fields)

    raise unknown()


def _disp_fields(span, operand):
    if span is None:
        return ()
    return (OperandField(operand, span[0], span[1], "disp"),)


# --- encoding ---

_ARITH_OPS = {"add": (0x01, 0x03, 0), "or": (0x09, 0x0B, 1), "and": (0x21, 0x23, 4),
              "sub": (0x29, 0x2B, 5), "xor": (0x31, 0x33, 6), "cmp": (0x39, 0x3B, 7)}

_PCREL_LENGTH = {"jmp": 5, "call": 5}
_PCREL_LENGTH.update({m: 6 for m in JCC_MNEMONICS})


def _rex(w=0, r=0, x=0, b=0):
    bits = (w << 3) | (r << 2) | (x << 1) | b
    return bytes([0x40 | bits]) if bits else b""


def _ss(scale):
    try:
        return {1: 0, 2: 1, 4: 2, 8: 3}[scale]
    except KeyError:
        raise UnsupportedForm(f"invalid scale {quoted(scale)}") from None


def _check_disp32(disp):
    if not -(1 << 31) <= disp < (1 << 31):
        raise UnsupportedForm(f"displacement {quoted(disp)} does not fit in 32 bits")


def _mem_bytes(reg_field: int, mem: MemRef) -> tuple[int, int, int, bytes]:
    """ModRM/SIB/disp bytes for a memory operand; returns (R, X, B, body)."""
    r_bit = reg_field >> 3
    body = bytearray()
    x_bit = b_bit = 0
    _check_disp32(mem.disp)

    if mem.rip_relative:
        if mem.base is not None or mem.index is not None:
            raise UnsupportedForm("RIP-relative reference cannot have base or index")
        body.append(((reg_field & 7) << 3) | 0x05)
        body += struct.pack("<i", mem.disp)
        return r_bit, 0, 0, bytes(body)

    if mem.index == "rsp":
        raise UnsupportedForm("rsp cannot be an index register")
    if mem.index is not None and _REG_INFO[mem.index][1] != 64:
        raise UnsupportedForm("index register must be 64-bit")
    if mem.base is not None and _REG_INFO[mem.base][1] != 64:
        raise UnsupportedForm("base register must be 64-bit")

    if mem.base is None:
        # SIB form with no base: always a 32-bit displacement.
        body.append(((reg_field & 7) << 3) | 0x04)
        if mem.index is None:
            body.append(0x25)
        else:
            idx = _REG_INFO[mem.index][0]
            x_bit = idx >> 3
            body.append((_ss(mem.scale) << 6) | ((idx & 7) << 3) | 0x05)
        body += struct.pack("<i", mem.disp)
        return r_bit, x_bit, 0, bytes(body)

    base_num = _REG_INFO[mem.base][0]
    b_bit = base_num >> 3
    need_sib = mem.index is not None or (base_num & 7) == 4

    if mem.disp == 0 and (base_num & 7) != 5:
        mod = 0
    elif -128 <= mem.disp <= 127:
        mod = 1
    else:
        mod = 2
    rm = 4 if need_sib else base_num & 7
    body.append((mod << 6) | ((reg_field & 7) << 3) | rm)
    if need_sib:
        if mem.index is None:
            body.append(0x20 | (base_num & 7))
        else:
            idx = _REG_INFO[mem.index][0]
            x_bit = idx >> 3
            body.append((_ss(mem.scale) << 6) | ((idx & 7) << 3) | (base_num & 7))
    if mod == 1:
        body += struct.pack("<b", mem.disp)
    elif mod == 2:
        body += struct.pack("<i", mem.disp)
    return r_bit, x_bit, b_bit, bytes(body)


def _reg_rm_bytes(reg_field: int, rm: Register) -> tuple[int, int, int, bytes]:
    num = rm.num
    modrm = 0xC0 | ((reg_field & 7) << 3) | (num & 7)
    return reg_field >> 3, 0, num >> 3, bytes([modrm])


def _rm_encode(opcode: bytes, reg_field: int, rm_op, opsize: int) -> bytes:
    if isinstance(rm_op, Register):
        r, x, b, body = _reg_rm_bytes(reg_field, rm_op)
    elif isinstance(rm_op, MemRef):
        r, x, b, body = _mem_bytes(reg_field, rm_op)
    else:
        raise UnsupportedForm(f"operand {rm_op!r} cannot be a ModRM target")
    return _rex(1 if opsize == 64 else 0, r, x, b) + opcode + body


def _same_size(*regs):
    sizes = {reg.size for reg in regs}
    if len(sizes) != 1:
        raise UnsupportedForm("register operands must share one width")
    return sizes.pop()


def _imm_signed(value, bits):
    return -(1 << (bits - 1)) <= value < (1 << (bits - 1))


def encode_one(mnemonic: str, operands, address: int = 0) -> bytes:
    """Emit the canonical byte encoding of one subset instruction.

    ``address`` matters only for PC-relative operands, whose stored field is
    the distance from the following instruction to the absolute target.
    """
    ops = tuple(operands)
    m = mnemonic

    if m in ("ret", "leave", "nop", "hlt", "syscall"):
        if ops:
            raise UnsupportedForm(f"{m} takes no operands")
        return {"ret": b"\xC3", "leave": b"\xC9", "nop": b"\x90",
                "hlt": b"\xF4", "syscall": b"\x0f\x05"}[m]

    if m in ("push", "pop"):
        (reg,) = _expect(m, ops, 1, Register)
        if reg.size != 64:
            raise UnsupportedForm(f"{m} takes a 64-bit register")
        base = 0x50 if m == "push" else 0x58
        return _rex(b=reg.num >> 3) + bytes([base | (reg.num & 7)])

    if m in ("inc", "dec"):
        (reg,) = _expect(m, ops, 1, Register)
        ext = 0 if m == "inc" else 1
        return _rm_encode(b"\xFF", ext, reg, reg.size)

    if m == "jmp" or m == "call" or m in JCC_MNEMONICS:
        if len(ops) != 1:
            raise UnsupportedForm(f"{m} takes one operand")
        op = ops[0]
        if isinstance(op, PcRel):
            length = _PCREL_LENGTH[m] if m in _PCREL_LENGTH else None
            if length is None:
                raise UnsupportedForm(f"{m} has no PC-relative form")
            rel = _wrap_s64(op.target - (address + length))
            if not _imm_signed(rel, 32):
                raise RangeOverflow(f"relative target 0x{op.target:x} out of rel32 "
                                    f"range from 0x{address:x}")
            if m == "jmp":
                return b"\xE9" + struct.pack("<i", rel)
            if m == "call":
                return b"\xE8" + struct.pack("<i", rel)
            cc = JCC_MNEMONICS.index(m)
            return bytes([0x0F, 0x80 + cc]) + struct.pack("<i", rel)
        if m in JCC_MNEMONICS:
            raise UnsupportedForm(f"{m} only takes a relative target")
        if isinstance(op, Register):
            if op.size != 64:
                raise UnsupportedForm(f"indirect {m} needs a 64-bit register")
            ext = 2 if m == "call" else 4
            return _rm_encode(b"\xFF", ext, op, 32)  # no REX.W in long mode
        if isinstance(op, MemRef):
            ext = 2 if m == "call" else 4
            return _rm_encode(b"\xFF", ext, op, 32)
        raise UnsupportedForm(f"bad operand for {m}: {op!r}")

    if m == "lea":
        dst, src = _expect(m, ops, 2, Register, MemRef)
        r, x, b, body = _mem_bytes(dst.num, src)
        return _rex(1 if dst.size == 64 else 0, r, x, b) + b"\x8D" + body

    if m == "movsxd":
        if len(ops) != 2 or not isinstance(ops[0], Register):
            raise UnsupportedForm("movsxd takes a register destination")
        dst, src = ops
        if dst.size != 64:
            raise UnsupportedForm("movsxd destination must be 64-bit")
        if isinstance(src, Register):
            if src.size != 32:
                raise UnsupportedForm("movsxd source register must be 32-bit")
            r, x, b, body = _reg_rm_bytes(dst.num, src)
        elif isinstance(src, MemRef):
            r, x, b, body = _mem_bytes(dst.num, src)
        else:
            raise UnsupportedForm(f"bad movsxd source {src!r}")
        return _rex(1, r, x, b) + b"\x63" + body

    if m == "imul":
        dst, src = _expect(m, ops, 2, Register, (Register, MemRef))
        if isinstance(src, Register):
            size = _same_size(dst, src)
            r, x, b, body = _reg_rm_bytes(dst.num, src)
        else:
            size = dst.size
            r, x, b, body = _mem_bytes(dst.num, src)
        return _rex(1 if size == 64 else 0, r, x, b) + b"\x0F\xAF" + body

    if m == "mov":
        return _encode_mov(ops)

    if m == "test":
        dst, src = _expect(m, ops, 2, (Register, MemRef), (Register, Immediate))
        if isinstance(src, Register):
            if isinstance(dst, Register):
                size = _same_size(dst, src)
            else:
                size = src.size
            return _rm_encode(b"\x85", src.num, dst, size)
        if not isinstance(dst, Register):
            raise UnsupportedForm("test with an immediate needs a register")
        if not _imm_signed(src.value, 32):
            raise UnsupportedForm(
                f"test immediate {quoted(src.value)} does not fit 32 bits")
        return _rm_encode(b"\xF7", 0, dst, dst.size) + struct.pack("<i", src.value)

    if m in _ARITH_OPS:
        mr, rm, ext = _ARITH_OPS[m]
        dst, src = _expect(m, ops, 2, (Register, MemRef), (Register, MemRef, Immediate))
        if isinstance(src, Immediate):
            if not isinstance(dst, Register):
                raise UnsupportedForm(f"{m} with an immediate needs a register")
            if _imm_signed(src.value, 8) and src.width != 32:
                return (_rm_encode(b"\x83", ext, dst, dst.size)
                        + struct.pack("<b", src.value))
            if _imm_signed(src.value, 32):
                return (_rm_encode(b"\x81", ext, dst, dst.size)
                        + struct.pack("<i", src.value))
            raise UnsupportedForm(
                f"{m} immediate {quoted(src.value)} does not fit 32 bits")
        if isinstance(src, Register) and isinstance(dst, (Register, MemRef)):
            size = src.size if isinstance(dst, MemRef) else _same_size(dst, src)
            return _rm_encode(bytes([mr]), src.num, dst, size)
        if isinstance(dst, Register) and isinstance(src, MemRef):
            return _rm_encode(bytes([rm]), dst.num, src, dst.size)
        raise UnsupportedForm(f"unsupported {m} operand combination")

    raise UnsupportedForm(f"mnemonic {m!r} is not in the subset")


def _encode_mov(ops):
    dst, src = _expect("mov", ops, 2, (Register, MemRef), (Register, MemRef, Immediate))
    if isinstance(src, Immediate):
        if not isinstance(dst, Register):
            raise UnsupportedForm("mov with an immediate needs a register destination")
        value = src.value
        if dst.size == 32:
            if not -(1 << 31) <= value < (1 << 32):
                raise UnsupportedForm(
                    f"mov immediate {quoted(value)} does not fit 32 bits")
            value &= 0xFFFFFFFF
            return (_rex(b=dst.num >> 3) + bytes([0xB8 | (dst.num & 7)])
                    + struct.pack("<I", value))
        if _imm_signed(value, 32) and src.width != 64:
            return _rm_encode(b"\xC7", 0, dst, 64) + struct.pack("<i", value)
        if not -(1 << 63) <= value <= U64:
            raise UnsupportedForm(f"mov immediate {quoted(value)} does not fit 64 bits")
        return (_rex(1, 0, 0, dst.num >> 3) + bytes([0xB8 | (dst.num & 7)])
                + struct.pack("<Q", value & U64))
    if isinstance(src, Register) and isinstance(dst, (Register, MemRef)):
        size = src.size if isinstance(dst, MemRef) else _same_size(dst, src)
        return _rm_encode(b"\x89", src.num, dst, size)
    if isinstance(dst, Register) and isinstance(src, MemRef):
        return _rm_encode(b"\x8B", dst.num, src, dst.size)
    raise UnsupportedForm("unsupported mov operand combination")


def _expect(mnemonic, ops, count, *kinds):
    if len(ops) != count:
        raise UnsupportedForm(f"{mnemonic} takes {count} operand(s), got {len(ops)}")
    for op, kind in zip(ops, kinds):
        if not isinstance(op, kind):
            raise UnsupportedForm(f"bad operand for {mnemonic}: {quoted(op, repr)}")
    return ops


def _wrap_s64(value):
    value &= U64
    return value - (1 << 64) if value >= (1 << 63) else value


# Mnemonics the corpus may use; CI asserts the corpus stays inside this set.
SUBSET_MNEMONICS = frozenset(
    ["mov", "lea", "movsxd", "push", "pop", "add", "sub", "xor", "and", "or",
     "cmp", "test", "inc", "dec", "imul", "jmp", "call", "ret", "leave",
     "nop", "hlt", "syscall"] + list(JCC_MNEMONICS))

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

Both directions read one set of opcode tables: ``_NO_OPERANDS``,
``_PCREL_OPCODES`` (rel32 branches), ``_ARITH_OPS`` (group-1 arithmetic),
``_MR_OPCODES`` and ``_RM_OPCODES`` (register/ModRM forms),
``_EXT_OPCODES`` (forms whose ModRM reg field extends the opcode, with their
immediate widths) and ``_PLUS_R`` (register in the opcode byte). The encoder
looks a form up by mnemonic; the decoder looks it up by opcode bytes in maps
inverted from the same tables, so changing a form's bytes is one table edit.

The decoder reads bytes, not an address map: ``decode_one(code, addr)``
decodes the instruction at the start of ``code``, which holds the bytes from
``addr`` on. ``decode_region`` reads an image a run of bytes at a time
(``ImageView.read_run``) and decodes a region's instructions along it.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (RangeOverflow, TruncatedInstruction, UnknownOpcode, UnsupportedForm,
                     quoted, value_type)

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

@value_type
class Register(NamedTuple):
    name: str

    @property
    def num(self):
        return _REG_INFO[self.name][0]

    @property
    def size(self):
        return _REG_INFO[self.name][1]


@value_type
class Immediate(NamedTuple):
    value: int
    width: int = 0  # encoded field width in bits (8/32/64); 0 lets the encoder pick


@value_type
class MemRef(NamedTuple):
    base: str | None = None
    index: str | None = None
    scale: int = 1
    disp: int = 0
    rip_relative: bool = False
    # A label standing in for the RIP-relative target, as symbolized or parsed.
    label: str | None = None
    label_offset: int = 0


@value_type
class PcRel(NamedTuple):
    target: int


@value_type
class SymbolRef(NamedTuple):
    label: str
    offset: int = 0


@value_type
class SymbolDiff(NamedTuple):
    """A ``.quad A - B`` cell: the difference of two symbol values."""
    minuend: SymbolRef
    subtrahend: SymbolRef


@value_type
class OperandField(NamedTuple):
    """Byte span of an operand's immediate/displacement/relative field."""
    operand: int
    offset: int
    width: int  # bytes
    kind: str   # "imm" | "disp" | "rel"


@value_type
class Instruction(NamedTuple):
    address: int
    length: int
    mnemonic: str
    operands: tuple
    fields: tuple[OperandField, ...] = ()


def rip_target(ins: Instruction, op: MemRef) -> int:
    """The address that the RIP-relative operand ``op`` of ``ins`` names."""
    return (ins.address + ins.length + op.disp) & U64


def label_imm_width(ins) -> int:
    """The bits of the immediate field that the assembler gives a label operand
    of ``ins``, decoded or parsed: 64 on ``mov r64`` (movabs), else 32."""
    dst = ins.operands[0]
    if ins.mnemonic == "mov" and isinstance(dst, Register) and dst.size == 64:
        return 64
    return 32


# --- instruction classification ---

FALLTHROUGH = "fallthrough"
JUMP = "jump"
CONDITIONAL_JUMP = "conditional_jump"
INDIRECT_JUMP = "indirect_jump"
CALL = "call"
RETURN = "return"
HALT = "halt"


@value_type
class InstrClass(NamedTuple):
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


# --- opcode tables (encode_one reads them by mnemonic) ---

_NO_OPERANDS = {"nop": b"\x90", "ret": b"\xC3", "leave": b"\xC9", "hlt": b"\xF4",
                "syscall": b"\x0F\x05"}

# rel32 forms: the field follows the opcode, so a form is len(opcode) + 4 bytes.
_PCREL_OPCODES = {"call": b"\xE8", "jmp": b"\xE9",
                  **{m: bytes([0x0F, 0x80 + cc]) for cc, m in enumerate(JCC_MNEMONICS)}}

# Group-1 arithmetic: mnemonic -> (MR opcode, RM opcode, /ext under 0x81 and 0x83).
_ARITH_OPS = {"add": (0x01, 0x03, 0), "or": (0x09, 0x0B, 1), "and": (0x21, 0x23, 4),
              "sub": (0x29, 0x2B, 5), "xor": (0x31, 0x33, 6), "cmp": (0x39, 0x3B, 7)}

# ModRM forms with a register operand: "r/m, r" (MR) and "r, r/m" (RM).
_MR_OPCODES = {"test": b"\x85", "mov": b"\x89",
               **{m: bytes([mr]) for m, (mr, _, _) in _ARITH_OPS.items()}}
_RM_OPCODES = {"mov": b"\x8B", "lea": b"\x8D", "movsxd": b"\x63", "imul": b"\x0F\xAF",
               **{m: bytes([rm]) for m, (_, rm, _) in _ARITH_OPS.items()}}

# ModRM forms whose reg field extends the opcode:
# (mnemonic, immediate field bytes, 0 for none) -> (opcode, /ext).
_EXT_OPCODES = {("inc", 0): (b"\xFF", 0), ("dec", 0): (b"\xFF", 1),
                ("call", 0): (b"\xFF", 2), ("jmp", 0): (b"\xFF", 4),
                ("test", 4): (b"\xF7", 0), ("mov", 4): (b"\xC7", 0),
                **{(m, 1): (b"\x83", ext) for m, (_, _, ext) in _ARITH_OPS.items()},
                **{(m, 4): (b"\x81", ext) for m, (_, _, ext) in _ARITH_OPS.items()}}

# Forms that hold their register in the opcode's low three bits.
_PLUS_R = {"push": 0x50, "pop": 0x58, "mov": 0xB8}

def _key(code: bytes) -> int:
    """An opcode's bytes as one int (0x0F05 for syscall), so that decode_one
    looks an opcode up without building a bytes key."""
    return int.from_bytes(code, "big")


# The same tables inverted, for decode_one to read by opcode.
_NO_OPERAND_CODES = {_key(code): m for m, code in _NO_OPERANDS.items()}
_PCREL_CODES = {0xEB: ("jmp", 1),  # rel8 jmp: decoded, never emitted
                **{_key(code): (m, 4) for m, code in _PCREL_OPCODES.items()}}
_MR_CODES = {_key(code): m for m, code in _MR_OPCODES.items()}
_RM_CODES = {_key(code): m for m, code in _RM_OPCODES.items()}
_EXT_CODES = {(_key(code), ext): form for form, (code, ext) in _EXT_OPCODES.items()}
_EXT_GROUPS = frozenset(code for code, _ in _EXT_CODES)
_PLUS_R_CODES = {base + num: m for m, base in _PLUS_R.items() for num in range(8)}

# The register operands by number, at each width, and by name.
_REGS = {64: tuple(Register(name) for name in REG64),
         32: tuple(Register(name) for name in REG32)}
_REGISTERS = {reg.name: reg for regs in _REGS.values() for reg in regs}

# The architectural limit on an instruction's length. No subset form is
# longer, so the first MAX_LENGTH bytes at an address decode as all of the
# bytes from there on would.
MAX_LENGTH = 15

# The most bytes decode_region reads at a time: all that a region can span
# in one run unless that is more, and never much of a large zero-fill section.
RUN_BYTES = 1 << 16

# Each operand field a decoded instruction can have, as its one-field tuple,
# built once like the registers: (operand, offset, width, kind) -> (field,).
_FIELDS = {(operand, offset, width, kind): (OperandField(operand, offset, width, kind),)
           for operand in (0, 1) for offset in range(MAX_LENGTH) for width in (1, 4, 8)
           for kind in ("disp", "imm", "rel")}


# --- decoding ---

def _field(code, pos, width, signed=True):
    """The ``width``-byte little-endian field at ``pos``; IndexError if
    ``code`` ends inside it."""
    end = pos + width
    if end > len(code):
        raise IndexError(end)
    return int.from_bytes(code[pos:end], "little", signed=signed)


def _read_modrm(code, pos, rex: int, rm_size: int, operand: int):
    """Returns (pos after the operand, reg_field, rm_operand, fields), where
    ``fields`` holds the displacement's field, as operand number ``operand``,
    if there is one."""
    m = code[pos]
    pos += 1
    mod, reg, rm = m >> 6, (m >> 3) & 7, m & 7
    reg |= (rex & 4) << 1  # REX.R
    rex_b = (rex & 1) << 3
    if mod == 3:
        return pos, reg, _REGS[rm_size][rm | rex_b], ()

    base = index = None
    scale = 1
    rip = False
    width = 1 if mod == 1 else 4 if mod == 2 else 0
    if rm == 4:
        sib = code[pos]
        pos += 1
        ss, idx, bse = sib >> 6, ((sib >> 3) & 7) | ((rex & 2) << 2), sib & 7  # REX.X
        if idx != 4:  # index 100 with REX.X clear means "no index"
            index = REG64[idx]
            scale = 1 << ss
        if bse == 5 and mod == 0:
            width = 4
        else:
            base = REG64[bse | rex_b]
    elif rm == 5 and mod == 0:
        rip = True
        width = 4
    else:
        base = REG64[rm | rex_b]

    if not width:
        return pos, reg, MemRef(base, index, scale, 0, rip), ()
    mem = MemRef(base, index, scale, _field(code, pos, width), rip)
    return pos + width, reg, mem, _FIELDS[operand, pos, width, "disp"]


def _with_imm(addr, code, pos, mnemonic, dst, width, signed=True):
    """``mnemonic dst, imm``, ended by the ``width``-byte immediate at ``pos``."""
    imm = Immediate(_field(code, pos, width, signed), 8 * width)
    return Instruction(addr, pos + width, mnemonic, (dst, imm),
                       _FIELDS[1, pos, width, "imm"])


def _unknown(addr, op):
    return UnknownOpcode(f"byte pattern at 0x{addr:x} is outside the "
                         f"instruction subset (opcode 0x{op:02x})")


def decode_one(code, addr: int) -> Instruction:
    """Decode the unique subset instruction at the start of ``code``, a
    bytes-like object that holds the bytes from ``addr`` on."""
    try:
        op = code[0]
        pos = 1
        rex = 0
        if 0x40 <= op <= 0x4F:
            rex = op
            op = code[1]
            pos = 2
        w = rex & 8
        size = 64 if w else 32
        key = op
        if op == 0x0F:
            key = (op << 8) | code[pos]
            pos += 1

        if key in _NO_OPERAND_CODES or key in _PCREL_CODES:
            if rex:  # a REX prefix on these is outside the subset
                raise _unknown(addr, op)
            if key in _NO_OPERAND_CODES:
                return Instruction(addr, pos, _NO_OPERAND_CODES[key], ())
            mnemonic, width = _PCREL_CODES[key]
            end = pos + width
            target = (addr + end + _field(code, pos, width)) & U64
            return Instruction(addr, end, mnemonic, (PcRel(target),),
                               _FIELDS[0, pos, width, "rel"])

        if key in _PLUS_R_CODES:
            mnemonic = _PLUS_R_CODES[key]
            num = (op & 7) | ((rex & 1) << 3)
            if mnemonic == "mov":  # imm64 (movabs) with REX.W, else imm32
                return _with_imm(addr, code, pos, mnemonic, _REGS[size][num], 8 if w else 4,
                                 signed=False)
            if rex & 0x0E:  # only REX.B is meaningful on push and pop
                raise _unknown(addr, op)
            return Instruction(addr, pos, mnemonic, (_REGS[64][num],))

        if key in _EXT_GROUPS:
            pos, reg, rm_op, fields = _read_modrm(code, pos, rex, size, 0)
            if (key, reg) not in _EXT_CODES:
                raise _unknown(addr, op)
            mnemonic, width = _EXT_CODES[key, reg]
            if width or mnemonic in ("inc", "dec"):  # register forms only
                if not isinstance(rm_op, Register):
                    raise _unknown(addr, op)
                if width:
                    return _with_imm(addr, code, pos, mnemonic, rm_op, width)
                return Instruction(addr, pos, mnemonic, (rm_op,))
            if w:  # call/jmp indirect, always 64-bit
                raise _unknown(addr, op)
            if isinstance(rm_op, Register):
                rm_op = _REGS[64][rm_op.num]
            return Instruction(addr, pos, mnemonic, (rm_op,), fields)

        if key in _MR_CODES:
            pos, reg, rm_op, fields = _read_modrm(code, pos, rex, size, 0)
            return Instruction(addr, pos, _MR_CODES[key], (rm_op, _REGS[size][reg]), fields)

        if key in _RM_CODES:
            mnemonic = _RM_CODES[key]
            if mnemonic == "movsxd" and not w:
                raise _unknown(addr, op)
            pos, reg, rm_op, fields = _read_modrm(code, pos, rex,
                                                  32 if mnemonic == "movsxd" else size, 1)
            if isinstance(rm_op, Register) and mnemonic not in ("imul", "movsxd"):
                # lea needs memory; register-to-register uses the MR opcode
                raise _unknown(addr, op)
            return Instruction(addr, pos, mnemonic, (_REGS[size][reg], rm_op), fields)

        raise _unknown(addr, op)
    except IndexError:  # code ends inside the instruction
        raise TruncatedInstruction(f"instruction at 0x{addr:x} runs past the image") from None


def decode_region(image, start: int, count: int):
    """Yield the ``count`` instructions laid end to end from ``start`` of an
    ImageView, decoding each once along runs of its bytes."""
    addr, code = start, b""
    for left in range(count, 0, -1):
        if len(code) < MAX_LENGTH:  # at first, and wherever a run ends
            code = image.read_run(addr, min(left * MAX_LENGTH, RUN_BYTES))
        ins = decode_one(code, addr)
        yield ins
        addr += ins.length
        code = code[ins.length:]


# --- encoding ---

def _rex(w=0, r=0, x=0, b=0):
    bits = (w << 3) | (r << 2) | (x << 1) | b
    return bytes([0x40 | bits]) if bits else b""


def _le(value, width, signed=True):
    return value.to_bytes(width, "little", signed=signed)


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
        body += _le(mem.disp, 4)
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
        body += _le(mem.disp, 4)
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
    if mod:
        body += _le(mem.disp, 1 if mod == 1 else 4)
    return r_bit, x_bit, b_bit, bytes(body)


def _rm_encode(opcode: bytes, reg_field: int, rm_op, opsize: int) -> bytes:
    if isinstance(rm_op, Register):
        num = rm_op.num
        r, x, b = reg_field >> 3, 0, num >> 3
        body = bytes([0xC0 | ((reg_field & 7) << 3) | (num & 7)])
    elif isinstance(rm_op, MemRef):
        r, x, b, body = _mem_bytes(reg_field, rm_op)
    else:
        raise UnsupportedForm(f"operand {quoted(rm_op, repr)} cannot be a ModRM target")
    return _rex(1 if opsize == 64 else 0, r, x, b) + opcode + body


def _ext_encode(m, rm_op, opsize, width=0, value=0):
    """An opcode-extension form, with a ``width``-byte immediate if ``width``."""
    opcode, ext = _EXT_OPCODES[m, width]
    return _rm_encode(opcode, ext, rm_op, opsize) + _le(value, width)


def _plus_r_encode(m, reg: Register, w=0):
    return _rex(w, 0, 0, reg.num >> 3) + bytes([_PLUS_R[m] | (reg.num & 7)])


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

    if m in _NO_OPERANDS:
        if ops:
            raise UnsupportedForm(f"{m} takes no operands")
        return _NO_OPERANDS[m]

    if m in ("push", "pop"):
        (reg,) = _expect(m, ops, 1, Register)
        if reg.size != 64:
            raise UnsupportedForm(f"{m} takes a 64-bit register")
        return _plus_r_encode(m, reg)

    if m in ("inc", "dec"):
        (reg,) = _expect(m, ops, 1, Register)
        return _ext_encode(m, reg, reg.size)

    if m in _PCREL_OPCODES:  # jmp, call and every jcc
        if len(ops) != 1:
            raise UnsupportedForm(f"{m} takes one operand")
        op = ops[0]
        if isinstance(op, PcRel):
            opcode = _PCREL_OPCODES[m]
            length = len(opcode) + 4
            rel = _wrap_s64(op.target - (address + length))
            if not _imm_signed(rel, 32):
                raise RangeOverflow(f"relative target 0x{op.target:x} out of rel32 "
                                    f"range from 0x{address:x}")
            return opcode + _le(rel, 4)
        if m in JCC_MNEMONICS:
            raise UnsupportedForm(f"{m} only takes a relative target")
        if isinstance(op, Register) and op.size != 64:
            raise UnsupportedForm(f"indirect {m} needs a 64-bit register")
        if not isinstance(op, (Register, MemRef)):
            raise UnsupportedForm(f"bad operand for {m}: {quoted(op, repr)}")
        return _ext_encode(m, op, 32)  # no REX.W in long mode

    if m == "lea":
        dst, src = _expect(m, ops, 2, Register, MemRef)
        return _rm_encode(_RM_OPCODES[m], dst.num, src, dst.size)

    if m == "movsxd":
        if len(ops) != 2 or not isinstance(ops[0], Register):
            raise UnsupportedForm("movsxd takes a register destination")
        dst, src = ops
        if dst.size != 64:
            raise UnsupportedForm("movsxd destination must be 64-bit")
        if isinstance(src, Register) and src.size != 32:
            raise UnsupportedForm("movsxd source register must be 32-bit")
        if not isinstance(src, (Register, MemRef)):
            raise UnsupportedForm(f"bad movsxd source {quoted(src, repr)}")
        return _rm_encode(_RM_OPCODES[m], dst.num, src, 64)

    if m == "imul":
        dst, src = _expect(m, ops, 2, Register, (Register, MemRef))
        size = _same_size(dst, src) if isinstance(src, Register) else dst.size
        return _rm_encode(_RM_OPCODES[m], dst.num, src, size)

    if m in _MR_OPCODES:  # mov, test and the group-1 arithmetic
        src_kinds = (Register, MemRef, Immediate) if m in _RM_OPCODES else (Register, Immediate)
        dst, src = _expect(m, ops, 2, (Register, MemRef), src_kinds)
        if isinstance(src, Immediate):
            return _encode_mov_imm(dst, src) if m == "mov" else _encode_imm(m, dst, src)
        if isinstance(src, Register):
            size = src.size if isinstance(dst, MemRef) else _same_size(dst, src)
            return _rm_encode(_MR_OPCODES[m], src.num, dst, size)
        if isinstance(dst, Register):
            return _rm_encode(_RM_OPCODES[m], dst.num, src, dst.size)
        raise UnsupportedForm(f"unsupported {m} operand combination")

    raise UnsupportedForm(f"mnemonic {m!r} is not in the subset")


def _encode_imm(m, dst, imm: Immediate):
    if not isinstance(dst, Register):
        raise UnsupportedForm(f"{m} with an immediate needs a register")
    if (m, 1) in _EXT_OPCODES and _imm_signed(imm.value, 8) and imm.width != 32:
        return _ext_encode(m, dst, dst.size, 1, imm.value)
    if _imm_signed(imm.value, 32):
        return _ext_encode(m, dst, dst.size, 4, imm.value)
    raise UnsupportedForm(f"{m} immediate {quoted(imm.value)} does not fit 32 bits")


def _encode_mov_imm(dst, imm: Immediate):
    if not isinstance(dst, Register):
        raise UnsupportedForm("mov with an immediate needs a register destination")
    value = imm.value
    if dst.size == 32:
        if not -(1 << 31) <= value < (1 << 32):
            raise UnsupportedForm(f"mov immediate {quoted(value)} does not fit 32 bits")
        return _plus_r_encode("mov", dst) + _le(value & 0xFFFFFFFF, 4, signed=False)
    if _imm_signed(value, 32) and imm.width != 64:
        return _ext_encode("mov", dst, 64, 4, value)
    if not -(1 << 63) <= value <= U64:
        raise UnsupportedForm(f"mov immediate {quoted(value)} does not fit 64 bits")
    return _plus_r_encode("mov", dst, 1) + _le(value & U64, 8, signed=False)


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

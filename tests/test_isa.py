"""Decoder/encoder fidelity over the instruction subset."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ellf.errors import (IsaError, RangeOverflow, TruncatedInstruction, UnknownOpcode,
                         UnsupportedForm)
from ellf.isa import (
    CALL,
    CONDITIONAL_JUMP,
    FALLTHROUGH,
    HALT,
    INDIRECT_JUMP,
    JUMP,
    RETURN,
    Immediate,
    Instruction,
    MemRef,
    PcRel,
    Register,
    decode_one,
    encode_one,
    instruction_class,
)

from helpers_gen import random_form


def image_at(data, base=0x4000):
    """The bytes to decode, and the address they start at."""
    return data, base


# Frozen against a standard opcode reference table before the build.
KNOWN_ENCODINGS = [
    ("ret", (), "c3"),
    ("leave", (), "c9"),
    ("nop", (), "90"),
    ("hlt", (), "f4"),
    ("syscall", (), "0f05"),
    ("push", (Register("rbp"),), "55"),
    ("push", (Register("r12"),), "4154"),
    ("pop", (Register("rbp"),), "5d"),
    ("mov", (Register("rbp"), Register("rsp")), "4889e5"),
    ("mov", (Register("eax"), Register("ecx")), "89c8"),
    ("xor", (Register("rax"), Register("rax")), "4831c0"),
    ("add", (Register("rdx"), Register("rcx")), "4801ca"),
    ("cmp", (Register("rdi"), Immediate(10, 8)), "4883ff0a"),
    ("mov", (Register("rax"), Immediate(42, 32)), "48c7c02a000000"),
    ("mov", (Register("eax"), Immediate(42, 32)), "b82a000000"),
    ("mov", (Register("rax"), Immediate(0x1122334455, 64)), "48b85544332211000000"),
    ("lea", (Register("rcx"), MemRef(rip_relative=True, disp=0x19)), "488d0d19000000"),
    ("movsxd", (Register("rdx"), MemRef(base="rcx", index="rbp", scale=4)), "486314a9"),
    ("movsxd", (Register("rdx"), Register("ecx")), "4863d1"),
    ("imul", (Register("rax"), Register("rcx")), "480fafc1"),
    ("inc", (Register("rax"),), "48ffc0"),
    ("dec", (Register("ecx"),), "ffc9"),
    ("test", (Register("rcx"), Register("rcx")), "4885c9"),
    ("jmp", (Register("rdx"),), "ffe2"),
    ("call", (Register("rax"),), "ffd0"),
    ("mov", (Register("rax"), MemRef(base="rsp")), "488b0424"),
    ("mov", (Register("rax"), MemRef(base="rbp", disp=-8)), "488b45f8"),
    ("mov", (Register("rax"), MemRef(base="r13")), "498b4500"),
    ("mov", (Register("rdx"), MemRef(index="rcx", scale=8, disp=0x10)),
     "488b14cd10000000"),
    ("mov", (Register("rdi"), MemRef(disp=0x5000)), "488b3c2500500000"),
]


@pytest.mark.parametrize("mnemonic,operands,expected", KNOWN_ENCODINGS)
def test_known_encodings(mnemonic, operands, expected):
    assert encode_one(mnemonic, operands).hex() == expected


@pytest.mark.parametrize("mnemonic,operands,expected", KNOWN_ENCODINGS)
def test_known_decodings(mnemonic, operands, expected):
    image, base = image_at(bytes.fromhex(expected))
    ins = decode_one(image, base)
    assert ins.mnemonic == mnemonic
    assert ins.operands == tuple(operands)
    assert ins.length == len(bytes.fromhex(expected))


def test_push_rbp_single_byte():
    image, base = image_at(b"\x55")
    ins = decode_one(image, base)
    assert (ins.mnemonic, ins.length) == ("push", 1)
    assert ins.operands == (Register("rbp"),)


def test_xor_rax_rax():
    image, base = image_at(bytes.fromhex("4831c0"))
    ins = decode_one(image, base)
    assert ins.mnemonic == "xor"
    assert ins.length == 3
    assert ins.operands == (Register("rax"), Register("rax"))


def test_movsxd_scaled_index():
    image, base = image_at(bytes.fromhex("486314a9"))
    ins = decode_one(image, base)
    assert ins.mnemonic == "movsxd"
    assert ins.length == 4
    assert ins.operands == (Register("rdx"),
                            MemRef(base="rcx", index="rbp", scale=4))


def test_invalid_opcode_errors():
    image, base = image_at(b"\x06")
    with pytest.raises(UnknownOpcode):
        decode_one(image, base)


def test_truncated_instruction():
    image, base = image_at(bytes.fromhex("48c7c02a"))  # imm cut short
    with pytest.raises(TruncatedInstruction):
        decode_one(image, base)


def test_rel8_jump_decodes():
    image, base = image_at(bytes.fromhex("eb05"))
    ins = decode_one(image, base)
    assert ins.mnemonic == "jmp"
    assert ins.operands == (PcRel(base + 2 + 5),)
    assert ins.length == 2


def test_pcrel_encoding_and_target():
    encoded = encode_one("jmp", (PcRel(0x4023),), address=0x4017)
    assert encoded.hex() == "e907000000"
    image, base = image_at(encoded, 0x4017)
    assert decode_one(image, base).operands == (PcRel(0x4023),)


def test_jcc_all_condition_codes():
    from ellf.isa import JCC_MNEMONICS
    for i, mnemonic in enumerate(JCC_MNEMONICS):
        encoded = encode_one(mnemonic, (PcRel(0x5000),), address=0x4000)
        assert encoded[0] == 0x0F and encoded[1] == 0x80 + i
        image, base = image_at(encoded, 0x4000)
        ins = decode_one(image, base)
        assert ins.mnemonic == mnemonic
        assert ins.operands == (PcRel(0x5000),)


def test_pcrel_out_of_range():
    with pytest.raises(RangeOverflow):
        encode_one("jmp", (PcRel(1 << 40),), address=0)


def test_classification():
    cases = [
        ("jmp", (Register("rdx"),), INDIRECT_JUMP, None),
        ("jmp", (PcRel(0x10),), JUMP, 0x10),
        ("jne", (PcRel(0x10),), CONDITIONAL_JUMP, 0x10),
        ("call", (PcRel(0x10),), CALL, 0x10),
        ("call", (Register("rax"),), CALL, None),
        ("ret", (), RETURN, None),
        ("hlt", (), HALT, None),
        ("add", (Register("rdx"), Register("rcx")), FALLTHROUGH, None),
        ("syscall", (), FALLTHROUGH, None),
    ]
    for mnemonic, operands, kind, target in cases:
        ins = Instruction(0, 1, mnemonic, tuple(operands))
        klass = instruction_class(ins)
        assert (klass.kind, klass.target) == (kind, target), mnemonic


def test_unsupported_forms():
    with pytest.raises(UnsupportedForm):
        encode_one("mov", (Register("rax"), Register("ecx")))  # width mismatch
    with pytest.raises(UnsupportedForm):
        encode_one("push", (Register("eax"),))
    with pytest.raises(UnsupportedForm):
        encode_one("lea", (Register("rax"), Register("rcx")))
    with pytest.raises(UnsupportedForm):
        encode_one("add", (Register("rax"), Immediate(1 << 40, 32)))
    with pytest.raises(UnsupportedForm):
        encode_one("mov", (MemRef(base="rax"), Immediate(1, 32)))
    with pytest.raises(UnsupportedForm):
        encode_one("fadd", ())
    with pytest.raises(UnsupportedForm):
        encode_one("mov", (Register("rax"),
                           MemRef(base="rax", index="rsp")))


def test_mov_imm64_roundtrip_property():
    rng = random.Random(0xABCD)
    for _ in range(300):
        value = rng.randrange(1 << 32, 1 << 64)
        encoded = encode_one("mov", (Register("rax"), Immediate(value, 64)))
        image, base = image_at(encoded)
        ins = decode_one(image, base)
        assert ins.operands == (Register("rax"), Immediate(value, 64))


def test_decode_encode_identity_random_forms():
    rng = random.Random(0x15A)
    for _ in range(1500):
        mnemonic, operands, address = random_form(rng)
        encoded = encode_one(mnemonic, operands, address)
        ins = decode_one(encoded, address)
        assert ins.mnemonic == mnemonic
        assert ins.operands == tuple(operands), (mnemonic, operands, encoded.hex())
        assert ins.length == len(encoded)
        assert encode_one(ins.mnemonic, ins.operands, address) == encoded


@settings(max_examples=2000)
@given(st.binary(min_size=1, max_size=16), st.integers(0, (1 << 64) - 17))
def test_decode_one_returns_an_instruction_or_raises_an_isa_error(data, base):
    image, addr = image_at(data, base)
    try:
        ins = decode_one(image, addr)
    except IsaError:
        return
    assert isinstance(ins, Instruction) and ins.address == addr
    assert 1 <= ins.length <= len(data)
    # no byte past the instruction is read, so any longer run decodes the same
    assert decode_one(data[:ins.length], addr) == ins == decode_one(data + b"\0", addr)

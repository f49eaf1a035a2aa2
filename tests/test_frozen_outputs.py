"""Frozen outputs: the assembled ELF and the lifted text of every bundled
program, and of a byte-heavy program written here, plus the outcomes of the
instruction decoder and encoder on seeded random inputs.

Each digest pair is the SHA-256 of ``assemble()``'s ELF bytes and of the
emitted text of a strict lift (a lenient lift for the straddle hazard, which
strict lifting refuses). A change to the assembler, the codec or the lifter
that alters a single output byte fails here. A lenient lift of every
program but the hazard must emit exactly the strict text. CI also runs this
file under several ``PYTHONHASHSEED`` values, so no output may depend on set
or dict hash order.
"""

import hashlib
import random

import pytest

from ellf import elfio
from ellf.asm import assemble, parse_assembly
from ellf.corpus import corpus_programs, hazard_program
from ellf.isa import (REG32, REG64, SUBSET_MNEMONICS, Immediate, MemRef, PcRel, Register,
                      SymbolRef, decode_one, encode_one)
from ellf.lifter import emit_assembly, lift

from conftest import TABLE_DEMO

FROZEN = {
    "01_single_ret": (
        "ad4ebd0c0c96ed708d4648d57b31a74da7dc8f012cb2e1e8ed3af4be5e91906b",
        "e66af229b7e87e15cd31207ebbfebaf7567935cd229beaef55c9561527a17bcf"),
    "02_straight_line": (
        "4b0ed7022a592312d066d5a298213685f1274a47f5dbf8fdbfcd33eab143f009",
        "f540b3dfb3a37dbfc337fa40866d3dcbbceb888f8dd1646b544834db9f77344d"),
    "03_conditional": (
        "694831b1e1d8c9fb5dabe258c8be57533c154e3b49bcedbe911b2b58d33940f5",
        "d33ded61f3e857c5e064388371d79bac0d10ac78b4bd7ed08539dd564c15a7e4"),
    "04_loop": (
        "c9bb9f1025a6e2be831d82d31a08a72d1dfe2c4cde79000628d5ebda00fbcdde",
        "8ed38411cbcf6106e16023743323a3014f24a12de35d421b7bbd86e62d74f17c"),
    "05_two_functions": (
        "42c8728dbca67cf6447a6a7fb3a73f47ebd42c5a6a5c1759ee646e9274b0f010",
        "419494233189a8b64f85f93c05e38d4513cf91853cbad676a5f45da3a6b52796"),
    "06_dispatch3": (
        "81c4cbf51d731fdf50d83f71c07640d5c0090583b102412e86f886ae7fea2296",
        "7c57915c4977b1d0241d546ece0a94d30002289a15cee6a9df6d10c468a84ecf"),
    "07_dispatch8": (
        "65f482c12d70cb8cfadc561f4c1e3a42c149b33a5fb8baf29f837cd478480812",
        "598bd805a29116ac9c724c6e42a89a8a0b41a3a63d018e95cea62fcb63ed3fb2"),
    "08_strings": (
        "58669b09716010cc34262611def4e5d6fb3107da9def5c713fe7f74f22e1905b",
        "ba6fddabd9cd5c179361b36d887462ceeafa274a29c5fcd8913e669087e7f209"),
    "09_bss_buffer": (
        "35eb0d7291b12fbac2ef1436c267febe0fed015fee2c7180f3404021f24565ef",
        "f8a5899c315de9f724767237406f237a01df8e7f08f641e8a16ea3d199ba7801"),
    "10_frame_slots": (
        "157838e57ad20d10b7c878f75fc1588b7fdf2cd95326f8d98e82dd74c7f3a818",
        "2d8d680baba933696238a00de86c8b090c78bf7bf6a3481d40331051f5f9761c"),
    "11_calls_chain": (
        "f638364561814d4622085564b9e95ae9a254fddfe9271f797e95594209d22569",
        "e611329ce0c92345efc56b1d5441e947782342d28a2adbf7a827c64120fa1e06"),
    "12_data_pointers": (
        "6f24fa98c396636bd1144e00b53b6b45c29d3cf8338d8b5ae04f1b87a75e8afa",
        "3f0bb3e14ed72baf708c50ac3150f26c4e09db31a3d810fc7bc8b3f72b7eca1e"),
    "13_function_pointer": (
        "6828def43d72fdb76b2ca2875ac4457e08c6f4edaea5bdea3a51036fc4c7249e",
        "6d9c407c9125e4ec954d4c2c7f2c8d93de1459e923e48bb18a88d66a50a34ab3"),
    "14_inline_bytes": (
        "8ea363f5d41a91b0aa40485a9a283621c6a7dfe37e10a409dd733d4fcdf1eb28",
        "18b8999cd8056a092b2684e3aed66d782e5e30ac3ede50dce6086b532510de5f"),
    "15_loops_nested": (
        "45c172835e17772d7655420bf807df21a941229877672cdb9612d629c24e0db0",
        "fbd4c0c596dd42c6264e7161394d6fa3bb76aacf8c9f65a5d901ad511b3cf622"),
    "16_arith_mix": (
        "4d390b6448c24c53bff0bc2438562868532c807a612b8a66e1ab1b363c6d09a9",
        "06f25f930577ce16b94be7359443c962eb9aa436a34fca09ec866fede412fc4b"),
    "17_memory_forms": (
        "45d1e8e94d5d0febd7faef382a7818ecbf1aebd51a423ab6fcb18926d34d7af8",
        "8f58961c3c8df919c746a3f68fbe68e2213449f3ba2b2eabd408f27ea0fef5fc"),
    "18_rsp_frame": (
        "15de3d3b9e87914214f66764678580d24e36e455e63207d437ba2ec5716d9e22",
        "de1686bc98a69fa891e44d7d0dc7a20996fdc2b546890a8d3ece0d1bf2d41199"),
    "19_syscall_exit": (
        "d57c049373a1eb02b050b10f305a8b3eb773b316794612171896c8c90d707d54",
        "a609aeae35fe0d0a741784c7de791202531796b09721dd479d0734f7a0892d69"),
    "20_suffix_string": (
        "44ab3df63f1cb1b6001c45687d22def5a19a07a12a7c9dbe40f407f7b441754e",
        "291b85fa880143eb10fde60dc2c2c01a11bb88a93ae15cd999f4b67399459674"),
    "21_mixed_sections": (
        "91d640adb02ac43953024a7d28992ff34c8f98e5827913ba53645727b265ab61",
        "64f0ab89777132df64a2a7139d64459cda125f2f0d48d94e4168b29c5ed7e052"),
    "22_cond_chain": (
        "c418c22816e44ae662a898bb4fead61c6692af7ba2efa0d15762b80acf7533ff",
        "65885b5aa049eec30ca987c3ad12ce911ae10f5d3d628b791412589db3315244"),
    "hazard_pointer_straddle": (
        "83e33709261c30754a4bd84de3bfc8fd8c3314686ef455cb3da78284dc0b2eee",
        "2cd622d00096324a9eda727aea622e451c47a55e0c3fa265be3245405c78bf70"),
    "TABLE_DEMO": (
        "cbb425c03874e222e887d7e5676a11e11d03f467b29c9834258fe7d0a6dd6c59",
        "7094b3bd8cc72c392695fd92c35bd94495aa6d9b018a37136f87ab413b5eadd9"),
    "byte_heavy": (
        "8764a496cde2a3260886e99e9a71c8d2c7d5a5e9b821009b2beff44cc3089a9f",
        "2783fed57e92bf895bb8841be515f426eea889e81c24289b0caeb222513e999a"),
}



def byte_heavy_program(seed=7, objects=64):
    """About 4 KiB of ``.byte`` data in labeled objects, ``.quad`` cells between.

    Values are written in every base the dialect accepts, some with
    underscores, a few to eight a line; the corpus holds almost no raw bytes.
    """
    rng = random.Random(seed)
    formats = ("{}", "0x{:02x}", "0X{:X}", "0o{:o}", "0b{:b}", "{:_}", "0x_{:x}")
    lines = [".section .text base=0x1000", ".func main", "    lea rax, [obj_0]",
             "    ret", ".endfunc", ".section .data base=0x3000"]
    for i in range(objects):
        lines.append(f"obj_{i}:")
        values = [rng.randrange(256) for _ in range(rng.randint(1, 128))]
        while values:
            count = rng.randint(1, 8)
            lines.append("    .byte " + ", ".join(
                rng.choice(formats).format(v) for v in values[:count]))
            values = values[count:]
        if rng.random() < 0.25:
            lines.append(f"    .quad obj_{rng.randrange(objects)} - obj_{i}")
        else:
            lines.append(f"    .quad obj_{rng.randrange(objects)}")
    return "\n".join(lines) + "\n"


PROGRAMS = {**corpus_programs(), "hazard_pointer_straddle": hazard_program(),
            "TABLE_DEMO": TABLE_DEMO, "byte_heavy": byte_heavy_program()}


def test_every_bundled_program_is_frozen():
    assert sorted(FROZEN) == sorted(PROGRAMS)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_assembled_elf_and_lifted_text_match_the_frozen_digests(name):
    elf, meta = assemble(parse_assembly(PROGRAMS[name]))
    mode = "lenient" if name.startswith("hazard") else "strict"
    text = emit_assembly(lift(elfio.read_elf(elf), meta, mode=mode))
    assert (hashlib.sha256(elf).hexdigest(),
            hashlib.sha256(text.encode()).hexdigest()) == FROZEN[name]


@pytest.mark.parametrize("name", sorted(n for n in PROGRAMS if not n.startswith("hazard")))
def test_lenient_lift_emits_the_strict_text(name):
    elf, meta = assemble(parse_assembly(PROGRAMS[name]))
    img = elfio.read_elf(elf)
    assert (emit_assembly(lift(img, meta, mode="lenient"))
            == emit_assembly(lift(img, meta, mode="strict")))


# --- the instruction decoder and encoder ---

U64 = (1 << 64) - 1

# First bytes the decoder gives a meaning to, and the second bytes after 0F.
DECODE_OPCODES = (0x90, 0xC3, 0xC9, 0xF4, 0xE8, 0xE9, 0xEB, 0x0F, 0xFF, 0x01, 0x09, 0x21,
                  0x29, 0x31, 0x39, 0x85, 0x89, 0x03, 0x0B, 0x23, 0x2B, 0x33, 0x3B, 0x8B,
                  0x81, 0x83, 0xF7, 0xC7, 0x8D, 0x63, *range(0x50, 0x60), *range(0xB8, 0xC0))
SECOND_OPCODES = (0x05, 0xAF, *range(0x80, 0x90))

ISA_FROZEN = {
    "decode": "d57745d9529934a3ede0b4dad9248b64f34716773fceb2a3fc988e095100bb9b",
    "encode": "d3dc09f8123a46e0c56326770c364ba35c0cd2710b654825fb55f5a662f7defc",
}


def outcome(call, *args):
    """The ``repr`` of what ``call`` returns, or its exception's class and message."""
    try:
        return repr(call(*args))
    except Exception as exc:  # noqa: BLE001 - every outcome is frozen, errors included
        return f"{type(exc).__name__}: {exc}"


def random_address(rng):
    return rng.choice((0x1000, 0x401000, U64 - 7, rng.randrange(1 << 64)))


def decode_inputs(seed=9, count=20_000):
    """``(image, address)`` pairs: 1-16 random bytes, half of them behind a REX
    byte, a third opening with an opcode byte the decoder knows."""
    rng = random.Random(seed)
    for _ in range(count):
        head = []
        if rng.random() < 0.5:
            head.append(rng.randrange(0x40, 0x50))
        if rng.random() < 1 / 3:
            head.append(rng.choice(DECODE_OPCODES))
            if head[-1] == 0x0F and rng.random() < 0.5:
                head.append(rng.choice(SECOND_OPCODES))
        data = bytes(head) + rng.randbytes(rng.randint(0, 16))
        data = data[:rng.randint(1, 16)]
        address = random_address(rng)
        yield {address + i: b for i, b in enumerate(data)}, address


def random_int(rng):
    bits = rng.choice((4, 4, 7, 8, 8, 15, 31, 32, 32, 33, 63, 64, 65, 80))
    value = rng.randrange(1 << bits)
    if rng.random() < 0.3:
        value = (1 << bits) - 1 - rng.randrange(4)
    return -value if rng.random() < 0.4 else value


def random_operand(rng, address):
    kind = rng.choices(range(6), (8, 3, 5, 3, 1, 1))[0]
    if kind == 0:
        return Register(rng.choice(REG64 + REG32))
    if kind == 1:
        return Immediate(random_int(rng), rng.choice((0, 0, 8, 32, 64)))
    if kind == 2:
        rip = rng.random() < 0.2
        base = None
        if not rip or rng.random() < 0.1:
            base = rng.choice((None, "eax", "r9d") + REG64 * 4)
        index = None if rng.random() < 0.6 else rng.choice(("ecx",) + REG64)
        disp = rng.choice((0, rng.randint(-129, 128), rng.randint(-(1 << 31), 1 << 31),
                           random_int(rng)))
        return MemRef(base=base, index=index, scale=rng.choice((1, 2, 4, 8) * 3 + (3,)),
                      disp=disp, rip_relative=rip)
    if kind == 3:
        if rng.random() < 0.7:
            return PcRel((address + rng.randint(-200, 200)) & U64)
        return PcRel(rng.randrange(1 << 64))
    if kind == 4:
        return SymbolRef("L", rng.randint(-4, 4))
    return rng.choice((5, "rax", None))


def encode_inputs(seed=11, count=20_000):
    """``(mnemonic, operands, address)`` calls: every subset mnemonic and an
    unknown one, with 0-3 operands of every kind, some past their fields."""
    rng = random.Random(seed)
    jcc = sorted(m for m in SUBSET_MNEMONICS if m.startswith("j") and m != "jmp")
    mnemonics = sorted(SUBSET_MNEMONICS.difference(jcc)) + ["movabs", "jcc"]
    for _ in range(count):
        mnemonic = rng.choice(mnemonics)
        if mnemonic == "jcc":
            mnemonic = rng.choice(jcc)
        if rng.random() < 0.8:  # mostly the mnemonic's own operand count
            arity = (0 if mnemonic in ("ret", "leave", "nop", "hlt", "syscall")
                     else 1 if mnemonic in ("push", "pop", "inc", "dec", "jmp", "call")
                     or mnemonic.startswith("j") else 2)
        else:
            arity = rng.randint(0, 3)
        address = random_address(rng)
        operands = tuple(random_operand(rng, address) for _ in range(arity))
        yield mnemonic, operands, address


def outcomes_digest(call, inputs):
    digest = hashlib.sha256()
    for args in inputs:
        digest.update(outcome(call, *args).encode() + b"\n")
    return digest.hexdigest()


def test_decoder_outcomes_match_the_frozen_digest():
    assert outcomes_digest(decode_one, decode_inputs()) == ISA_FROZEN["decode"]


def test_encoder_outcomes_match_the_frozen_digest():
    assert outcomes_digest(encode_one, encode_inputs()) == ISA_FROZEN["encode"]

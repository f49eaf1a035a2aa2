"""Frozen outputs: the assembled ELF and the lifted text of every bundled
program, and of a byte-heavy program written here, the outcomes of lifting
damaged metadata, plus the outcomes of the instruction decoder and encoder
on seeded random inputs.

Each digest pair is the SHA-256 of ``assemble()``'s ELF bytes and of the
emitted text of a strict lift (a lenient lift for the straddle hazard, which
strict lifting refuses). A change to the assembler, the codec or the lifter
that alters a single output byte fails here. A lenient lift of every
program but the hazard must emit exactly the strict text. The outcomes of
the assembler on seeded mutations of the bundled sources, errors included,
are frozen the same way. CI also runs this file under several
``PYTHONHASHSEED`` values, so no output may depend on set or dict hash order.
"""

import hashlib
import random

import pytest

from ellf import elfio
from ellf.asm import assemble, assemble_image, parse_assembly
from ellf.corpus import corpus_programs, hazard_program
from ellf.errors import InvariantViolation
from ellf.isa import (REG32, REG64, SUBSET_MNEMONICS, Immediate, MemRef, PcRel, Register,
                      SymbolRef, decode_one, encode_one)
from ellf.lifter import emit_assembly, lift, lift_unsymbolized
from ellf.meta import (BASIC_BLOCK, FUNCTION_END, FUNCTION_START, InstructionRegion,
                       OperandPointer, TextRecord, _pointer_sort_key, _text_sort_key,
                       check_invariants)

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


# --- lifting damaged metadata ---

# One digest per program over the strict and lenient lift of each variant of
# its metadata that ``metadata_variants`` yields.
LIFT_FROZEN = {
    "01_single_ret": "2edf87233f06ae65bc749293ba4b4c12d2b8bb27366319e1816d7ce0f9a630bb",
    "02_straight_line": "b81149996f02eb2760d9be5abbb273d30eccf3df23a7a751aca4aea09468bdd7",
    "03_conditional": "ecb0c264734ef085b5957514cc9c67fd990cc8bfc272e5266e4a0c4c8061a56d",
    "04_loop": "9a785565d7b568c60cd72f2d8b3e1af3b97428802d511d1873d80e84c85c0bbe",
    "05_two_functions": "45aeb174db33145677353105793824d00770876c4d76403600f5003f3e20ab78",
    "06_dispatch3": "2ea6de490224283ac8c6f71cdfe6991a5e73ea836eeaac692ed4574eb93da9f9",
    "07_dispatch8": "a8c3ba615c88eba494d550f961e20706a8857f125989934acf2ca441038bc69d",
    "08_strings": "a19bef2853eabebd515275822feaaa8325bbe1b7a9f6d9045ff697b516ff92a7",
    "09_bss_buffer": "7dea86a0d757efde9464b40bedf12719e38255dd402873ff715ee84a19f66176",
    "10_frame_slots": "ce16eeaf1c69bd7af43fbd01e59ffb6dfd9af22279370ea985f43a592ba07cba",
    "11_calls_chain": "715ea1ca034e7aa2fe92c649954810e024e85c4ba64f8c46a58094fb577d16dd",
    "12_data_pointers": "28ae2b6d3b2ac809192f73921827bd091aa0a1119b6fd4b5261d6afff1bcdd12",
    "13_function_pointer": "c70cf22307814bfbf6d4104a68842a1825693f74227cb2ada152c7efb8bdf00f",
    "14_inline_bytes": "4a4f2d42e1f427c536b4e64385b13aa073204d24d16fe8ae386aad30e254effb",
    "15_loops_nested": "98636f93b039a38854fa841fd96b8a3dd0e28779fa884ac6d0eb8c15e5e3a763",
    "16_arith_mix": "51bb4f182e1679cd7c43e46dd3a90b39df65407883df082a270c6a71ca84330a",
    "17_memory_forms": "a5ce088b58aebe72bada1ba5b8013a7435396ac5a4ba0e95f6287d6934e0e6e6",
    "18_rsp_frame": "71c4690543663f31aab85bdcbe36cba7aeb328ebaebab65760676d89fbb03c1c",
    "19_syscall_exit": "66c83a6af0c75bfd6b99533488e9be33f72ba9b79dae9711153b70e8528ea6b3",
    "20_suffix_string": "d60fce6d0c43b166b2eaa12fb62fdc6bb658c3f7540dfd444f5578f6c9c9a803",
    "21_mixed_sections": "4c02fbcf76806183b100a5cb2c48e5ff7211cba0426b1023a8451ea1e95820bd",
    "22_cond_chain": "da0b1f1bf5a36ab5660b002e7062caeecb02d9142b1e4f666f51f8a22a5a464f",
    "TABLE_DEMO": "3dad61e13b63d0e86e67af2f19d0927a51984e1fcbe90730ef40caa6ce1a4d52",
    "hazard_pointer_straddle": "b5491013e4c8e64c09ecd76e58160edb6fd0a0fd7f037abac30f8a16c94bd01a",
}

TABLES = ("instruction_regions", "pointers", "text", "stack", "data")
SORT_KEYS = {"instruction_regions": lambda rec: rec.start, "pointers": _pointer_sort_key,
             "text": _text_sort_key, "stack": lambda rec: rec.function_entry,
             "data": lambda rec: rec.addr}


def _edit(meta, table, removed=None, added=None):
    """``meta`` with ``removed`` taken out of ``table`` and ``added`` put in."""
    records = [rec for rec in getattr(meta, table) if rec != removed]
    records += [added] if added is not None else []
    return meta._replace(**{table: tuple(sorted(records, key=SORT_KEYS[table]))})


def _damage(meta, rng, instrs, data_sections):
    """``meta`` with one record added or shifted, of a kind a lift must meet in
    metadata it did not write; ``instrs`` are the decoded instructions."""
    ins = rng.choice(instrs)
    kind = rng.randrange(7)
    if kind == 0:  # an operand pointer off an instruction start
        return _edit(meta, "pointers", added=OperandPointer(
            ins.address + rng.randint(1, 3), rng.randint(0, 1), ins.address))
    if kind == 1:  # an operand pointer on an 8-bit immediate
        narrow = [(i.address, k) for i in instrs for k, op in enumerate(i.operands)
                  if isinstance(op, Immediate) and op.width == 8]
        if narrow:
            return _edit(meta, "pointers", added=OperandPointer(*rng.choice(narrow),
                                                                ins.address))
    if kind == 2:  # an operand pointer whose target is in no section
        return _edit(meta, "pointers", added=OperandPointer(
            ins.address, rng.randint(0, 1), rng.choice((0x10, U64))))
    if kind == 3 and ins.length > 1:  # a text record inside an instruction
        return _edit(meta, "text", added=TextRecord(
            ins.address + rng.randrange(1, ins.length),
            rng.choice((BASIC_BLOCK, FUNCTION_START, FUNCTION_END))))
    if kind == 4 and data_sections:  # a region that starts in data
        sec = rng.choice(data_sections)
        return _edit(meta, "instruction_regions", added=InstructionRegion(
            sec.vaddr + rng.randrange(sec.size), rng.randint(1, 3)))
    if kind == 5 and meta.data:  # a data record moved
        rec = rng.choice(meta.data)
        return _edit(meta, "data", removed=rec,
                     added=rec._replace(addr=rec.addr + rng.choice((-4, -1, 1, 4))))
    if kind == 6 and meta.pointers:  # a pointer record moved
        rec = rng.choice(meta.pointers)
        field = "instr_addr" if isinstance(rec, OperandPointer) else "addr"
        return _edit(meta, "pointers", removed=rec, added=rec._replace(
            **{field: getattr(rec, field) + rng.choice((-4, -1, 1, 4))}))
    return meta


def metadata_variants(img, meta, seed, count=20):
    """The full metadata, each table dropped, ``count`` seeded subsets of the
    tables and ``count`` seeded variants with one or two records added or
    shifted; only those that pass ``check_invariants``, a lift's contract."""
    rng = random.Random(seed)
    variants = [meta] + [meta._replace(**{table: ()}) for table in TABLES]
    for _ in range(count):
        variants.append(meta._replace(**{table: tuple(
            rec for rec in getattr(meta, table) if rng.random() < 0.6) for table in TABLES}))
    instrs = list(lift_unsymbolized(elfio.load_image(img), meta.instruction_regions).values())
    data_sections = [sec for sec in img.sections if sec.alloc and not sec.exec and sec.size]
    for _ in range(count):
        damaged = meta
        for _ in range(rng.randint(1, 2)):
            damaged = _damage(damaged, rng, instrs, data_sections)
        variants.append(damaged)
    for variant in variants:
        try:
            check_invariants(variant)
        except InvariantViolation:
            continue
        yield variant


def lift_summary(img, meta, mode):
    """What a lift returns: the text, the diagnostics, the CFGs, the padding,
    the used labels and each variable's address, size and label."""
    lp = lift(img, meta, mode=mode)
    return (emit_assembly(lp),
            [(d.kind, d.message, d.addr, d.severity) for d in lp.diagnostics],
            lp.cfgs, lp.padding, sorted(lp.labels.used),
            [(var.address, var.size, var.label) for var in lp.variables])


def lift_outcomes_digest(name):
    elf, meta = assemble(parse_assembly(PROGRAMS[name]))
    img = elfio.read_elf(elf)
    digest = hashlib.sha256()
    for variant in metadata_variants(img, meta, seed=name):
        for mode in ("strict", "lenient"):
            digest.update(outcome(lift_summary, img, variant, mode).encode() + b"\n")
    return digest.hexdigest()


def test_every_program_but_the_byte_heavy_one_has_frozen_lift_outcomes():
    assert sorted(LIFT_FROZEN) == sorted(set(PROGRAMS) - {"byte_heavy"})


@pytest.mark.parametrize("name", sorted(LIFT_FROZEN))
def test_lift_outcomes_on_damaged_metadata_match_the_frozen_digest(name):
    assert lift_outcomes_digest(name) == LIFT_FROZEN[name]


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
    """``(code, address)`` pairs: 1-16 random bytes, half of them behind a REX
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
        yield data, address


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


# --- the assembler on damaged sources ---

ASM_FROZEN = "c9b4ede023dfcf14b699e8506e28c08c1208de241cc95c2f50384ec7ccc1642d"

# Characters of the dialect's syntax, so that most mutations reach past the
# lexer into the operand, data and layout checks.
MUTATION_ALPHABET = "\n\t ,:+-*[]#\".$_0123456789abcdefxqrsz"


def mutated_sources(seed=13, count=5000):
    """Bundled sources with one to three characters deleted, inserted or
    replaced; a new character is from ``MUTATION_ALPHABET`` or the source."""
    rng = random.Random(seed)
    sources = [src for _, src in sorted(corpus_programs().items())] + [hazard_program()]
    for _ in range(count):
        text = rng.choice(sources)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(text))
            char = (rng.choice(MUTATION_ALPHABET) if rng.random() < 0.5
                    else text[rng.randrange(len(text))])
            edit = rng.randrange(3)
            if edit == 0:
                text = text[:pos] + text[pos + 1:]
            elif edit == 1:
                text = text[:pos] + char + text[pos:]
            else:
                text = text[:pos] + char + text[pos + 1:]
        yield text


def assembled_digest(source):
    elf, meta = assemble_image(parse_assembly(source))
    return hashlib.sha256(elf + repr(meta).encode()).hexdigest()


def test_assembler_outcomes_on_mutated_sources_match_the_frozen_digest():
    # Each outcome is the digest of the ELF and metadata, or the error's
    # class and message (which names the line).
    inputs = ((source,) for source in mutated_sources())
    assert outcomes_digest(assembled_digest, inputs) == ASM_FROZEN

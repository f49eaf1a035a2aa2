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
from ellf.lifter import emit_assembly, lift
from ellf.meta import (BASIC_BLOCK, FUNCTION_END, FUNCTION_START, InstructionRegion,
                       OperandPointer, TextRecord, _pointer_sort_key, _text_sort_key,
                       check_invariants, validate_metadata)

from conftest import TABLE_DEMO

FROZEN = {
    "01_single_ret": (
        "34e1a1323b9840915462a5f543da161bec886c1d5f7a0f306e2de2fb6fa2ce93",
        "e66af229b7e87e15cd31207ebbfebaf7567935cd229beaef55c9561527a17bcf"),
    "02_straight_line": (
        "b3545c3aac8ed33e9b381eea4748d54153a44fc645e9bdbcbcedc5a36d3daf45",
        "f540b3dfb3a37dbfc337fa40866d3dcbbceb888f8dd1646b544834db9f77344d"),
    "03_conditional": (
        "79748509c5d6cb3dfbf58b0e5721640e0979f58d333c4474767ddd36f3dcfade",
        "d33ded61f3e857c5e064388371d79bac0d10ac78b4bd7ed08539dd564c15a7e4"),
    "04_loop": (
        "d862a6bc8c07c180e6ab5d38c90d9813ed2742af7ecc6ddc4872f2ef204f0c15",
        "8ed38411cbcf6106e16023743323a3014f24a12de35d421b7bbd86e62d74f17c"),
    "05_two_functions": (
        "d86072d34d13f9a92834679ff1550896b1bc13cdf21ab0b86cfbdca0d49208bd",
        "419494233189a8b64f85f93c05e38d4513cf91853cbad676a5f45da3a6b52796"),
    "06_dispatch3": (
        "a8b6b6fbc8681ea2d858749de6c6b5c2d690e45528b21f1300bbff8dfae484b6",
        "7c57915c4977b1d0241d546ece0a94d30002289a15cee6a9df6d10c468a84ecf"),
    "07_dispatch8": (
        "0e466a55a64d414a06396fc0d90aacd3698b1a7b1b6e4d939b1da10cf5aede12",
        "598bd805a29116ac9c724c6e42a89a8a0b41a3a63d018e95cea62fcb63ed3fb2"),
    "08_strings": (
        "e919566e9d077145f1a0a6cc72842e09fef2b0d07dc4cef1357a86a21a15b4c1",
        "ba6fddabd9cd5c179361b36d887462ceeafa274a29c5fcd8913e669087e7f209"),
    "09_bss_buffer": (
        "fcb411cc12c02f3486642eaec018088571f8fd4004d638b97f759481b28b28e9",
        "f8a5899c315de9f724767237406f237a01df8e7f08f641e8a16ea3d199ba7801"),
    "10_frame_slots": (
        "7ee5b90df35095de8976ce854121493f18e4ee2bf1c5cfe6b93dbefe902a6983",
        "2d8d680baba933696238a00de86c8b090c78bf7bf6a3481d40331051f5f9761c"),
    "11_calls_chain": (
        "d296c668e0a56b1329c8f4859f392402af83f079181e14ad7e36505307dfab70",
        "e611329ce0c92345efc56b1d5441e947782342d28a2adbf7a827c64120fa1e06"),
    "12_data_pointers": (
        "f0a6103b0ad90ab689268dab10c62874cf7ef94c4535c16f14f89ad990664d7d",
        "3f0bb3e14ed72baf708c50ac3150f26c4e09db31a3d810fc7bc8b3f72b7eca1e"),
    "13_function_pointer": (
        "e5777c6bcf7e3200a397ac2624f08138bc849b26a09d604eb3336a1c1b1efb3f",
        "6d9c407c9125e4ec954d4c2c7f2c8d93de1459e923e48bb18a88d66a50a34ab3"),
    "14_inline_bytes": (
        "b5e1114db869ed47ade560354154d77332afa7dabccfa88b4a8b94d4ea8f1f08",
        "18b8999cd8056a092b2684e3aed66d782e5e30ac3ede50dce6086b532510de5f"),
    "15_loops_nested": (
        "410fd31c4dfc37dc197f92067aa8d44b80c470db968dae259691a861e77e6052",
        "fbd4c0c596dd42c6264e7161394d6fa3bb76aacf8c9f65a5d901ad511b3cf622"),
    "16_arith_mix": (
        "c4a2e262644786298c5bb0054c4b29d79ede374c541d78a206565f805f88232a",
        "06f25f930577ce16b94be7359443c962eb9aa436a34fca09ec866fede412fc4b"),
    "17_memory_forms": (
        "b332f0e3cd4a9c7445e0e5383bc382d84c1cece64f274c026151bf6af842f459",
        "8f58961c3c8df919c746a3f68fbe68e2213449f3ba2b2eabd408f27ea0fef5fc"),
    "18_rsp_frame": (
        "9d30fe40e9a9d163925cfbf20b7cf7ad1e2431aa7fe30b975f4e56eeb8f7e601",
        "de1686bc98a69fa891e44d7d0dc7a20996fdc2b546890a8d3ece0d1bf2d41199"),
    "19_syscall_exit": (
        "49b47bda04afba4a0da076e4a180daa890eb301640b902267cb663ae311381c4",
        "a609aeae35fe0d0a741784c7de791202531796b09721dd479d0734f7a0892d69"),
    "20_suffix_string": (
        "54aa5494e9c982724e89c0ee9fda64a95baf992e54b9888fe472d8f0a2a9da22",
        "291b85fa880143eb10fde60dc2c2c01a11bb88a93ae15cd999f4b67399459674"),
    "21_mixed_sections": (
        "11e7d21d07a045a978eb3b29065ccc30fc5476b22a5ea70cec3955bedaf7a8ef",
        "64f0ab89777132df64a2a7139d64459cda125f2f0d48d94e4168b29c5ed7e052"),
    "22_cond_chain": (
        "9feaf7cf3c340b37e1bf34fca0f2e7b7efd5908f529f672dd1d8dfbe19fd01aa",
        "65885b5aa049eec30ca987c3ad12ce911ae10f5d3d628b791412589db3315244"),
    "hazard_pointer_straddle": (
        "530b78bb483dd9f19824512e687147060a71a496c6a09f172c76427e0aa6d700",
        "2cd622d00096324a9eda727aea622e451c47a55e0c3fa265be3245405c78bf70"),
    "TABLE_DEMO": (
        "9c204e5aab595cbda9a36b5f42486bc16a2ee4a9876a258baf797c674369d9c0",
        "7094b3bd8cc72c392695fd92c35bd94495aa6d9b018a37136f87ab413b5eadd9"),
    "byte_heavy": (
        "a5a045f81e90df05ab8fe240ef289df6712f5826017e925374d5a2c7c9ca3e1e",
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


def test_the_byte_heavy_program_without_its_data_table_lifts_to_frozen_text():
    """One variable then holds every cell of ``.data``, and the data labels
    minted for the cells' targets cut its raw runs."""
    elf, meta = assemble(parse_assembly(PROGRAMS["byte_heavy"]))
    img = elfio.read_elf(elf)
    lp = lift(img, meta._replace(data=()), mode="strict")
    assert [(var.address, var.label) for var in lp.variables] == [(0x3000, None)]
    assert len(lp.labels.data_labels) == 44
    text = emit_assembly(lp)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "50b944ae78b50268e0e4f1f07d4b5a91dcbb58c22a5c40104e3d5649e5feb0ee")
    elf2, _ = assemble(parse_assembly(text))
    assert elfio.load_image(elfio.read_elf(elf2)) == elfio.load_image(img)


# --- lifting damaged metadata ---

# One digest per program over the strict and lenient lift of each variant of
# its metadata that ``metadata_variants`` yields.
LIFT_FROZEN = {
    "01_single_ret": "96cf0884ae4857bc1a6833c6f2d9559b950e305795352b2cc363730e70fc0595",
    "02_straight_line": "ca2e3900372f15b728cf0ea658c8c2aeb70e4fffb336a0328d680114e70344d3",
    "03_conditional": "454e136a58af52075ced24c4a95f55d7d7710ea74884586bb54643ad22a9ae89",
    "04_loop": "56fe039a5e324c93fb60f51a57da371526f93d806d4b1d8769e34b3bdeec6c84",
    "05_two_functions": "9c3521b163e37581dc6a086e87430cd279a026c8157e7a801fc4999f3874e5b1",
    "06_dispatch3": "605981309d7cf4c819ad0dfe25ff34fdd909ffd50e19f9a78b5b426605cb9df0",
    "07_dispatch8": "c65208521bad991907f4ea8edb96d4d86e1ef73c4734684affac22581828c0b3",
    "08_strings": "42d3771c72efcede15d3ff09361a76aeea017bed05aa292610b97df7839c2323",
    "09_bss_buffer": "67330287df91c88fdd4cfc3dc2a3cd48eb5c1280c20894876f9e8984f0ddc921",
    "10_frame_slots": "5e4dd69581169bcd7319f002bde9cc4f0f338c2ea8f8ceb9887b9a53725f72a7",
    "11_calls_chain": "9214d826e15e2c59d24e6522289016dd7b6f9441083fd3c5d02427e708d78253",
    "12_data_pointers": "033ef3e31750d13fd9fd424f468b9c0dcf381531beceaf0f4882ba3110d5be2d",
    "13_function_pointer": "2318013e3702d1eef98310329ed3e537f602ffebb56ea560ece35f3da2bf5311",
    "14_inline_bytes": "6858ff78db11f2d97990103054ecdc9975fd83f73d52bd371e5bbb2fcbe6f946",
    "15_loops_nested": "5c6ca6cdf088d54757517df68a18d11e672db5ee821d52d8ed395ca471f63369",
    "16_arith_mix": "708e3e8abc04bca231a3910a797fc3ed74cee6753f0fb8d36d059de7e5ae0b79",
    "17_memory_forms": "58711c4506ca9523af8ebd4349ef83b3a08ca59a0a58a34ba6aae101847b5fcf",
    "18_rsp_frame": "86359c43a241d6ff4d75cdac021f7c757eb880932b97de01067ac8467e55efd1",
    "19_syscall_exit": "3aec086358556ed232d23f221944692c6007915bb1365d20e4882623ec383076",
    "20_suffix_string": "aa3d8d116a7d3ed36e230fc745677533e4ce561cb9e40ffa670cfa51e34754ee",
    "21_mixed_sections": "33ede47fef2aa3f905afb773cd5d4dc325453ef97495902e112b9ec8dcf26772",
    "22_cond_chain": "7fd38fb93afa6c632207a69c48e394d1b00f8a79a533375f6fe83c7901e1bb70",
    "TABLE_DEMO": "1752c9b5d4e655d0bbb04543959bccb4a73f17d8a7ea37a681787722e44e2f4c",
    "hazard_pointer_straddle": "1ab93c8ffba448d14f723eddff7f80cd3d31ed878a2af51825b60a92cf631831",
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
            ins.address + rng.randint(1, 3), rng.randint(0, 1)))
    if kind == 1:  # an operand pointer on an 8-bit immediate
        narrow = [(i.address, k) for i in instrs for k, op in enumerate(i.operands)
                  if isinstance(op, Immediate) and op.width == 8]
        if narrow:
            return _edit(meta, "pointers", added=OperandPointer(*rng.choice(narrow)))
    if kind == 2:  # an operand pointer on whatever an operand holds: mostly no address
        return _edit(meta, "pointers", added=OperandPointer(ins.address, rng.randint(0, 1)))
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
    decoded = {}
    validate_metadata(meta, img, decoded)
    instrs = list(decoded.values())
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

ASM_FROZEN = "63414829b52e5758a0516c1dcf78de98b9d96fe8c3e0824c1f2732a8bc2fe157"

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

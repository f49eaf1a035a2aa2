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
        "0056b3e85dde18f209a74d9813f973af287d92fed5b6c7401f540f147b055112",
        "e66af229b7e87e15cd31207ebbfebaf7567935cd229beaef55c9561527a17bcf"),
    "02_straight_line": (
        "f64f8cda61c146a0c1538c2847ab55d2b9e6b1a27069b0ac42b87f19bd8b748c",
        "f540b3dfb3a37dbfc337fa40866d3dcbbceb888f8dd1646b544834db9f77344d"),
    "03_conditional": (
        "22a3b801e51265c907de9e500a7e226eb9ca3b70759f1ef332b7128984404386",
        "d33ded61f3e857c5e064388371d79bac0d10ac78b4bd7ed08539dd564c15a7e4"),
    "04_loop": (
        "eddf626ab7131d426c3ff050d02d6568246a76be81d6bf3b14b7f7fa61161c93",
        "8ed38411cbcf6106e16023743323a3014f24a12de35d421b7bbd86e62d74f17c"),
    "05_two_functions": (
        "8c09f6bfcca4c10f76144e5f876438822c7a3ebb2c603f48995aba3199542c83",
        "419494233189a8b64f85f93c05e38d4513cf91853cbad676a5f45da3a6b52796"),
    "06_dispatch3": (
        "07efff571ba919380d1563bc29ac11867cca89e43d8c298a500b3ad7df9587ac",
        "7c57915c4977b1d0241d546ece0a94d30002289a15cee6a9df6d10c468a84ecf"),
    "07_dispatch8": (
        "2fc6497d7c6144caddc6582ed45fd4c7277e53f7623e5cc2260df6b8f0334863",
        "598bd805a29116ac9c724c6e42a89a8a0b41a3a63d018e95cea62fcb63ed3fb2"),
    "08_strings": (
        "13fcd8e37a7514ec2dd274ff4b89c7e62ea88d485247c9bf481c0a756fe3939a",
        "ba6fddabd9cd5c179361b36d887462ceeafa274a29c5fcd8913e669087e7f209"),
    "09_bss_buffer": (
        "33782f57348614407601114a808120eca70d2f0dad9a5dcdfd5f21d98e6cfb8d",
        "f8a5899c315de9f724767237406f237a01df8e7f08f641e8a16ea3d199ba7801"),
    "10_frame_slots": (
        "279c8eae74ab3d4c2e7ae41c3df5a34528bf8fb5eb7464ae42d5beae175c3900",
        "2d8d680baba933696238a00de86c8b090c78bf7bf6a3481d40331051f5f9761c"),
    "11_calls_chain": (
        "5140727dd2f385fee1f1324f314ab5f3bd01b50da48946db5be88853d406f500",
        "e611329ce0c92345efc56b1d5441e947782342d28a2adbf7a827c64120fa1e06"),
    "12_data_pointers": (
        "19d2bae1bd9ab4eeaf2dac3bf66d3906831cb1f14d48522a8042044b5871acdc",
        "3f0bb3e14ed72baf708c50ac3150f26c4e09db31a3d810fc7bc8b3f72b7eca1e"),
    "13_function_pointer": (
        "8f51cf891d2a7b7dde194972e8028592763da4fe3c7dda630eb9eea09e54e8ae",
        "6d9c407c9125e4ec954d4c2c7f2c8d93de1459e923e48bb18a88d66a50a34ab3"),
    "14_inline_bytes": (
        "8c3469ce8682d39c4187c11d717d30e429f3750c74c672b3810a3c4f2642e859",
        "18b8999cd8056a092b2684e3aed66d782e5e30ac3ede50dce6086b532510de5f"),
    "15_loops_nested": (
        "6ab65d181f26eca14337a6632dd03ac6acf138dbf875d9f28d62c465937efc14",
        "fbd4c0c596dd42c6264e7161394d6fa3bb76aacf8c9f65a5d901ad511b3cf622"),
    "16_arith_mix": (
        "289fd297073d78311217a87104757bd95fc6f942e02e2eb5f4d6752dd8f39c2b",
        "06f25f930577ce16b94be7359443c962eb9aa436a34fca09ec866fede412fc4b"),
    "17_memory_forms": (
        "6fea617e39684bf10cc873e79b5908cd63f3ea3178d76ab4b2ee79f322969692",
        "8f58961c3c8df919c746a3f68fbe68e2213449f3ba2b2eabd408f27ea0fef5fc"),
    "18_rsp_frame": (
        "edb6c6613ee5f06058f3a8cecc117fcf126a5ef3c101f7a7d354fcac3ffaf49c",
        "de1686bc98a69fa891e44d7d0dc7a20996fdc2b546890a8d3ece0d1bf2d41199"),
    "19_syscall_exit": (
        "ed02b50c7778dd283d6034bdc281e55c92b53166b1930dd393baf9935f2e6a06",
        "a609aeae35fe0d0a741784c7de791202531796b09721dd479d0734f7a0892d69"),
    "20_suffix_string": (
        "9f2a3ede59460465035034ff9baf9deee9618ac8fbcaf37da519655197289891",
        "291b85fa880143eb10fde60dc2c2c01a11bb88a93ae15cd999f4b67399459674"),
    "21_mixed_sections": (
        "fdff0a6dd15f733d083982fdda577edd2b77352ec8a6f0feee9d9153d170595f",
        "64f0ab89777132df64a2a7139d64459cda125f2f0d48d94e4168b29c5ed7e052"),
    "22_cond_chain": (
        "07efce5e47198b7b59bd4c7c8753737e2f4a4a8419ed12811a3aaaed36ffb5a7",
        "65885b5aa049eec30ca987c3ad12ce911ae10f5d3d628b791412589db3315244"),
    "hazard_pointer_straddle": (
        "ab263a91807775bb86936285cc4993f7c36da25cabdcca4dc9bd4d34db38ca20",
        "2cd622d00096324a9eda727aea622e451c47a55e0c3fa265be3245405c78bf70"),
    "TABLE_DEMO": (
        "f26641675a55abc040765a82357f907dd759889114d465b6b4c18fe2ad530ac9",
        "7094b3bd8cc72c392695fd92c35bd94495aa6d9b018a37136f87ab413b5eadd9"),
    "byte_heavy": (
        "63b29906daefb75d9e37ce90c0ca972dbcaa4da4f0f2bf8c864b9cec80bd8984",
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
    "03_conditional": "2d7e84e92eb52a0471a88a1c974d69f06ef8ea0b7150970379a46bb589dffb95",
    "04_loop": "3f26e576acbdebf1d16199d5ab095086e2eea77ae371c4f36b738ea1088ddc28",
    "05_two_functions": "52c2f2f8925929d81c164d3cbe73bf11bda3eec9be618e8c1e7e38f9398af493",
    "06_dispatch3": "fdc6d7b39d8b8f97cabba0c6e5ce33cb284553c31609fa0d1ba6fe6a06a65468",
    "07_dispatch8": "0d0af97d7b13b56fdd6799febd7e30cb5fd6cb9bcc4438c43fa2a2b704401f0a",
    "08_strings": "c6695887244445b31235a797466004a11dc51e5088955d498ae43f371c82cc7e",
    "09_bss_buffer": "35df9230fe5c4c16977c2618de244ca2d7bb05bda8d532d287627f3fd89ed882",
    "10_frame_slots": "5e4dd69581169bcd7319f002bde9cc4f0f338c2ea8f8ceb9887b9a53725f72a7",
    "11_calls_chain": "1703e19cd7b8c32e8f67127223bf6d1c8367fb5b3e5cb7014d450f37c9ee146e",
    "12_data_pointers": "e0143a2b5aa032a0c70aff8cc23284fead6a9504560c75c2a0a6702da916de82",
    "13_function_pointer": "d10333252e6406b9dcb3c6439d0c5e64f125c85108228210a153086c0ddea740",
    "14_inline_bytes": "2a1853c1bd2d3542877075bd4eb78837f005c08d13949515ea0b61a449749ecd",
    "15_loops_nested": "b0094ed11266a891660b5acb87cd1e099ea37180c8dbcde5f69276c09fc4b204",
    "16_arith_mix": "c4d6b01f874623a500b89a798dd658ba08856f3a1fe830fefbdd6b048d9c1d01",
    "17_memory_forms": "7a13c8f2abb7c39559d9802f85b25500915795e4b1ce62782d3fdb9ebefa9e7a",
    "18_rsp_frame": "86359c43a241d6ff4d75cdac021f7c757eb880932b97de01067ac8467e55efd1",
    "19_syscall_exit": "3aec086358556ed232d23f221944692c6007915bb1365d20e4882623ec383076",
    "20_suffix_string": "0cb952f29a8f9e3a9b521b45b0763ac0c6e6c4a1a3754dce554ac8f31158a2ca",
    "21_mixed_sections": "c120c11eafcc4b15affaf0c9f4eac06f6ddb6eacca7876329d232fe5db962e48",
    "22_cond_chain": "2e9e03f99bb795c5ee2f7d51f2fb3e4414e497be5b7d654e7c4b746c64fa696e",
    "TABLE_DEMO": "c1b2936efff14588a9da3334cf2f25ed8ef77c38488d262855b4a43776324c75",
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

ASM_FROZEN = "95125aac24440f06d2fdf43e56fa75f6d06b24ad4512f788b967f81df3b80a42"

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
